"""Classifier families: gradient-boosted trees and a kernelized max-margin analogue."""

from .common import TrainConfig, logistic_grad_hess, sigmoid32
from .gbdt import GbdtModel, predict_gbdt, train_gbdt
from .svm import RbfSvmModel, predict_svm_rbf, train_svm_rbf
from .io import load_model, save_model, score_model, train_model

__all__ = [
    "TrainConfig", "logistic_grad_hess", "sigmoid32",
    "GbdtModel", "train_gbdt", "predict_gbdt",
    "RbfSvmModel", "train_svm_rbf", "predict_svm_rbf",
    "train_model", "score_model", "load_model", "save_model",
]
