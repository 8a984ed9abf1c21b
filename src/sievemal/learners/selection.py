"""Grid-search cross-validation selecting the best validation TPR at 1% FPR."""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateData
from ..evaluation import roc, tpr_at_fpr
from .io import score_model, train_model

TARGET_FPR = 0.01


def default_svm_grid():
    """The 21-point log grid 10^{-6.0, -5.5, ..., 4.0} for both gamma and C."""
    exps = np.arange(-6.0, 4.0 + 0.25, 0.5)
    return [float(10.0 ** e) for e in exps]


def cross_validate(X, y, grid, k: int, seed: int = 0, target_fpr: float = TARGET_FPR):
    """Returns (best_config, table); table rows are (config, mean_tpr_at_fpr).

    Fold assignment is a seeded permutation; ties in the metric resolve to the
    smaller regularization (larger reg ~ smaller C), then the smaller gamma.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if len(np.unique(y)) < 2:
        raise DegenerateData("cross-validation needs both classes")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(y))
    folds = np.array_split(perm, k)

    table = []
    for cfg in grid:
        metrics = []
        for f in range(k):
            va = folds[f]
            tr = np.concatenate([folds[j] for j in range(k) if j != f])
            if len(np.unique(y[tr])) < 2 or len(np.unique(y[va])) < 2:
                continue
            scores = score_model(train_model(X[tr], y[tr], cfg), X[va])
            tpr, _ = tpr_at_fpr(roc(scores, y[va]), target_fpr)
            metrics.append(tpr)
        mean_tpr = float(np.mean(metrics)) if metrics else 0.0
        table.append((cfg, mean_tpr))

    def sort_key(row):
        cfg, tpr = row
        # smaller C == larger reg, so prefer larger reg on ties
        return (-tpr, -cfg.reg, cfg.gamma)

    best_cfg = min(table, key=sort_key)[0]
    return best_cfg, table
