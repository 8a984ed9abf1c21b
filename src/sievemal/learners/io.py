"""The model families by kind: training, scoring and versioned JSON persistence."""

from __future__ import annotations

import json

from ..errors import SpecInvalid
from ..evaluation import read_report
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
    """The model save_model wrote and the training digest it was saved with; a
    file that is not one raises SpecInvalid naming it."""
    doc = read_report(path)
    if not (isinstance(doc, dict) and doc.get("format") == "sievemal-model"
            and doc.get("version") == MODEL_FORMAT_VERSION):
        raise SpecInvalid(f"{path}: unrecognized model file")
    body = doc.get("model")
    kind = body.get("kind") if isinstance(body, dict) else None
    family = {"gbdt": GbdtModel, "svm": RbfSvmModel}.get(kind)
    if family is None:
        raise SpecInvalid(f"{path}: unknown model kind {kind!r}")
    try:
        return family.from_dict(body), doc.get("training_digest")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SpecInvalid(f"{path}: malformed {kind} model ({type(exc).__name__}: {exc})") from None
