"""Shared training configuration and logistic-loss numerics."""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

_MAX = sys.float_info.max


def _want(integer: bool, low, high) -> str:
    want = "an integer" if integer else "a finite number"
    if high != _MAX:
        return f"{want} in [{low}, {high}]"
    return want if low == -_MAX else f"{want} >= {low}"


def check_number(value, name: str, low=-_MAX, high=_MAX, integer=False):
    """value, if it is an int (or, unless integer is set, a float) in [low,
    high]; else ValueError naming the field. The bounds rule out NaN and the
    infinities, and the type test rules out bools."""
    if type(value) not in ((int,) if integer else (int, float)) or not low <= value <= high:
        raise ValueError(f"{name} must be {_want(integer, low, high)}, not {value!r}")
    return value


def check_numbers(values, name: str, low=-_MAX, high=_MAX, integer=False) -> list:
    """values, if it is a list whose every entry check_number accepts; else
    ValueError naming the field."""
    kinds = (int,) if integer else (int, float)
    if not (isinstance(values, list)
            and all(type(v) in kinds and low <= v <= high for v in values)):
        raise ValueError(f"{name} must be a list, each entry {_want(integer, low, high)}")
    return values


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
        for name, low in (("seed", 0), ("n_trees", 1), ("max_depth", 0), ("max_iters", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, int) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")
        # every kind checks every field: each lands in the saved system's config
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not (type(value) in (int, float) and -_MAX <= value <= _MAX):
                raise ValueError(f"{f.name} must be finite, not {value!r}")
        if not (0.0 < self.colsample <= 1.0):
            raise ValueError("colsample must be in (0, 1]")
        # with H + lambda > 0 at every node no split gain or leaf weight is 0/0
        if not self.reg_lambda > 0:
            raise ValueError("reg_lambda must be positive")
        if not self.min_child_hessian >= 0:
            raise ValueError("min_child_hessian must be non-negative")
        if not (1e-6 <= self.gamma <= 1e4):
            raise ValueError("gamma must lie in [1e-6, 1e4]")
        if not self.reg > 0:
            raise ValueError("reg must be positive")

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
