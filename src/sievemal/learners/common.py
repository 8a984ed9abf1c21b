"""Shared training configuration and logistic-loss numerics."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import check_number

# the model families, by the kind a config and a model body name
KINDS = ("gbdt", "svm")
# the RBF kernel widths a config, a model body and `train --gamma` accept
GAMMA_RANGE = (1e-6, 1e4)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for either model family; seed is mandatory for determinism."""

    kind: str = "gbdt"            # one of KINDS
    seed: int = 0
    # gbdt
    n_trees: int = 100            # desk-scale default; 1000 matches the full setup
    eta: float = 0.1
    max_depth: int = 6
    colsample: float = 0.8
    reg_lambda: float = 1.0
    min_child_hessian: float = 1e-3
    # svm
    gamma: float = 1e-3
    reg: float = 1e-4             # corresponds to 1/(n*C)
    max_iters: int = 20000

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        for name, low in (("seed", 0), ("n_trees", 1), ("max_depth", 0), ("max_iters", 0)):
            check_number(getattr(self, name), name, low, integer=True)
        # every kind checks every field: each lands in the saved system's config
        for name in ("eta", "colsample", "reg_lambda", "reg"):
            check_number(getattr(self, name), name)
        check_number(self.min_child_hessian, "min_child_hessian", 0)
        check_number(self.gamma, "gamma", *GAMMA_RANGE)
        if not 0 < self.colsample <= 1:
            raise ValueError(f"colsample must be a number in (0, 1], not {self.colsample!r}")
        # with H + lambda > 0 at every node no split gain or leaf weight is 0/0
        if not self.reg_lambda > 0:
            raise ValueError(f"reg_lambda must be a number > 0, not {self.reg_lambda!r}")
        if not self.reg > 0:
            raise ValueError(f"reg must be a number > 0, not {self.reg!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


def sigmoid32(margin) -> np.ndarray:
    """Logistic link evaluated in float32; saturates to exactly 1.0 (and 0.0)."""
    m = np.asarray(margin, dtype=np.float64)
    # exp(-m) overflows below m = -709.78; every score below m = -709 is 0.0 in float32
    return (1.0 / (1.0 + np.exp(-np.maximum(m, -709.0)))).astype(np.float32)


def logistic_grad_hess(margin, y):
    """First and second derivatives of the logistic loss w.r.t. the margin."""
    p = 1.0 / (1.0 + np.exp(-np.asarray(margin, dtype=np.float64)))
    g = p - y
    h = p * (1.0 - p)
    return g, h


def log_loss(margin, y) -> float:
    m = np.asarray(margin, dtype=np.float64)
    # numerically stable: log(1+exp(-m)) + (1-y)*m
    return float(np.mean(np.logaddexp(0.0, -m) + (1.0 - y) * m))
