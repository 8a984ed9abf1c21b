"""The model families by kind: training, scoring and rebuilding a model from
its to_dict body."""

from __future__ import annotations

from ..errors import SpecInvalid
from .common import KINDS, TrainConfig
from .gbdt import GbdtModel, predict_gbdt, train_gbdt
from .svm import RbfSvmModel, predict_svm_rbf, train_svm_rbf


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


def model_from_dict(body):
    """The model whose to_dict() is body, of the family its "kind" names; a body
    that is not one raises SpecInvalid saying why."""
    kind = body.get("kind") if isinstance(body, dict) else None
    family = dict(zip(KINDS, (GbdtModel, RbfSvmModel))).get(kind)
    if family is None:
        raise SpecInvalid(f"unknown model kind {kind!r}")
    try:
        return family.from_dict(body)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SpecInvalid(f"malformed {kind} model ({type(exc).__name__}: {exc})") from None
