"""Shared training configuration and logistic-loss numerics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for either model family; seed is mandatory for determinism."""

    kind: str = "gbdt"            # "gbdt" | "svm"
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
        if self.kind not in ("gbdt", "svm"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.seed is None:
            raise ValueError("seed is mandatory")
        if not (0.0 < self.colsample <= 1.0):
            raise ValueError("colsample must be in (0, 1]")
        # with H + lambda > 0 at every node no split gain or leaf weight is 0/0;
        # written so that NaN fails too
        if not self.reg_lambda > 0:
            raise ValueError("reg_lambda must be positive")
        if not self.min_child_hessian >= 0:
            raise ValueError("min_child_hessian must be non-negative")
        if self.kind == "svm":
            if not (1e-6 <= self.gamma <= 1e4):
                raise ValueError("gamma must lie in [1e-6, 1e4]")
            if self.reg <= 0:
                raise ValueError("reg must be positive")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "seed": self.seed, "n_trees": self.n_trees,
            "eta": self.eta, "max_depth": self.max_depth, "colsample": self.colsample,
            "reg_lambda": self.reg_lambda, "min_child_hessian": self.min_child_hessian,
            "gamma": self.gamma, "reg": self.reg, "max_iters": self.max_iters,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


def sigmoid32(margin) -> np.ndarray:
    """Logistic link evaluated in float32; saturates to exactly 1.0 (and 0.0)."""
    m = np.asarray(margin, dtype=np.float64)
    return (1.0 / (1.0 + np.exp(-m))).astype(np.float32)


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
