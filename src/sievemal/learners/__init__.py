"""Classifier families: gradient-boosted trees and a kernelized max-margin analogue."""

from .common import GAMMA_RANGE, KINDS, TrainConfig
from .io import model_from_dict, score_model, train_model

__all__ = ["GAMMA_RANGE", "KINDS", "TrainConfig", "train_model", "score_model", "model_from_dict"]
