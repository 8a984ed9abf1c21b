"""The model families by kind: training, scoring and versioned JSON persistence."""

from __future__ import annotations

import json

from .common import TrainConfig
from .gbdt import GbdtModel, predict_gbdt, train_gbdt
from .svm import RbfSvmModel, predict_svm_rbf, train_svm_rbf

MODEL_FORMAT_VERSION = 1


def train_model(X, y, cfg: TrainConfig):
    if cfg.kind == "gbdt":
        return train_gbdt(X, y, cfg)
    return train_svm_rbf(X, y, cfg)


def score_model(model, X):
    if isinstance(model, GbdtModel):
        return predict_gbdt(model, X)
    if isinstance(model, RbfSvmModel):
        return predict_svm_rbf(model, X)
    raise TypeError(f"unknown model type {type(model)!r}")


def save_model(model, path, training_digest: str = ""):
    doc = {
        "format": "sievemal-model",
        "version": MODEL_FORMAT_VERSION,
        "training_digest": training_digest,
        "model": model.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != "sievemal-model" or doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unrecognized model file {path}")
    body = doc["model"]
    if body["kind"] == "gbdt":
        return GbdtModel.from_dict(body)
    if body["kind"] == "svm":
        return RbfSvmModel.from_dict(body)
    raise ValueError(f"unknown model kind {body['kind']!r}")
