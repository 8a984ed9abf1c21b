"""Classifier families: gradient-boosted trees and a kernelized max-margin analogue."""

from .common import KINDS, TrainConfig
from .io import model_from_dict, score_model, train_model

__all__ = ["KINDS", "TrainConfig", "train_model", "score_model", "model_from_dict"]
