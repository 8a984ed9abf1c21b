"""Gaussian-kernel max-margin classifier trained by kernelized stochastic
subgradient descent (Pegasos-style) on the regularized hinge objective,
with a logistic link fitted on training margins to map scores into [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateData
from .common import TrainConfig, check_number, check_numbers, sigmoid32


_BLOCK_CELLS = 1 << 16   # cells of the one temporary block of _sq_dists
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(aa + bb) - 2 A B^T, clipped at 0, written into the one A @ B.T array
    a block of rows at a time."""
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    d = A @ B.T
    step = max(1, _BLOCK_CELLS // max(1, d.shape[1]))
    for i in range(0, len(d), step):
        blk = d[i:i + step]
        blk *= 2.0
        np.subtract(aa[i:i + step] + bb, blk, out=blk)
    np.maximum(d, 0.0, out=d)
    return d


def rbf_kernel(A, B, gamma: float) -> np.ndarray:
    k = _sq_dists(np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64))
    k *= -gamma
    return np.exp(k, out=k)


@dataclass(frozen=True)
class RbfSvmModel:
    support: np.ndarray     # (m, d) retained training points
    coef: np.ndarray        # (m,) alpha_j * y_j / (reg * T)
    gamma: float
    reg: float
    platt_a: float          # logistic link slope
    bias: float             # logistic link intercept
    config: TrainConfig

    def decision_margin(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if len(self.support) == 0:
            return np.zeros(X.shape[0])
        return rbf_kernel(X, self.support, self.gamma) @ self.coef

    def to_dict(self) -> dict:
        return {
            "kind": "svm",
            "gamma": self.gamma,
            "reg": self.reg,
            "platt_a": float(self.platt_a),
            "bias": float(self.bias),
            "support": [[float(v) for v in row] for row in self.support],
            "coef": [float(v) for v in self.coef],
            "config": self.config.to_dict(),
        }

    @property
    def n_features(self) -> int:
        return self.support.shape[1]

    @classmethod
    def from_dict(cls, d: dict) -> "RbfSvmModel":
        """The model of a to_dict body, if every number is finite, gamma lies in
        [1e-6, 1e4], each coefficient has one support row of one width, whose
        entries are float32 values as features are, and no score can
        overflow; else ValueError."""
        coef = check_numbers(d["coef"], "coef")
        if not isinstance(d["support"], list) or len(d["support"]) != len(coef):
            raise ValueError("support must be a list with one row per coefficient")
        model = cls(
            support=np.array([check_numbers(row, "support row", -_FLOAT32_MAX, _FLOAT32_MAX)
                              for row in d["support"]], dtype=np.float64).reshape(len(coef), -1),
            coef=np.array(coef, dtype=np.float64),
            gamma=check_number(d["gamma"], "gamma", 1e-6, 1e4),
            reg=check_number(d["reg"], "reg"),
            platt_a=check_number(d["platt_a"], "platt_a"),
            bias=check_number(d["bias"], "bias"),
            config=TrainConfig.from_dict(d["config"]),
        )
        # a kernel value lies in [0, 1], so no margin is larger than sum |coef|
        reach = abs(model.platt_a) * sum(abs(float(c)) for c in coef) + abs(model.bias)
        if not math.isfinite(reach):
            raise ValueError("platt_a times the coefficients plus bias can overflow")
        return model


def _fit_logistic_link(margins: np.ndarray, y01: np.ndarray, iters: int = 100):
    """Newton fit of sigmoid(a*m + b) against 0/1 targets; deterministic."""
    a, b = 1.0, 0.0
    m = margins
    for _ in range(iters):
        z = a * m + b
        p = 1.0 / (1.0 + np.exp(-z))
        w = np.maximum(p * (1.0 - p), 1e-12)
        # tiny ridge keeps the fit bounded on separable data
        ga = ((p - y01) * m).sum() + 1e-6 * a
        gb = (p - y01).sum() + 1e-6 * b
        haa = (w * m * m).sum() + 1e-6
        hab = (w * m).sum()
        hbb = w.sum() + 1e-6
        det = haa * hbb - hab * hab
        if abs(det) < 1e-18:
            break
        da = (hbb * ga - hab * gb) / det
        db = (haa * gb - hab * ga) / det
        a -= da
        b -= db
        if abs(da) < 1e-10 and abs(db) < 1e-10:
            break
    return float(a), float(b)


def train_svm_rbf(X, y, cfg: TrainConfig) -> RbfSvmModel:
    """y in {-1,+1} (0/1 accepted and remapped); deterministic given (X, y, cfg)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    y = np.where(y <= 0, -1.0, 1.0)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DegenerateData("empty training matrix")
    if len(np.unique(y)) < 2:
        raise DegenerateData("training labels contain a single class")

    n = X.shape[0]
    K = rbf_kernel(X, X, cfg.gamma)
    rng = np.random.default_rng(cfg.seed)
    alpha = np.zeros(n)
    s = np.zeros(n)              # s = K @ (alpha * y), updated incrementally
    T = max(cfg.max_iters, 1)
    picks = rng.integers(0, n, size=T)
    for t in range(1, T + 1):
        i = picks[t - 1]
        margin_i = s[i] / (cfg.reg * t)
        if y[i] * margin_i < 1.0:
            alpha[i] += 1.0
            s += y[i] * K[:, i]
    del K   # the support rows below are copied after the n x n kernel is freed

    scale = 1.0 / (cfg.reg * T)
    mask = alpha > 0
    support = X[mask]
    coef = (alpha[mask] * y[mask]) * scale
    margins = s * scale
    platt_a, bias = _fit_logistic_link(margins, (y > 0).astype(np.float64))

    return RbfSvmModel(support=support, coef=coef, gamma=cfg.gamma, reg=cfg.reg,
                       platt_a=platt_a, bias=bias, config=cfg)


def predict_svm_rbf(model: RbfSvmModel, X) -> np.ndarray:
    """Scores in [0, 1] through the fitted logistic link (float32)."""
    m = model.decision_margin(X)
    return sigmoid32(model.platt_a * m + model.bias)
