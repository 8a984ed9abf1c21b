"""Classifier families: gradient-boosted trees and a kernelized max-margin analogue."""

from .common import TrainConfig
from .io import load_model, save_model, score_model, train_model

__all__ = ["TrainConfig", "train_model", "score_model", "load_model", "save_model"]
