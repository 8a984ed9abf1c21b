"""Reference GBDT trainer and per-row predict used as the exactness oracle.

Deliberately plain: one Python loop over columns per split search, one
bincount per column, and one Python walk per row and tree. This is the
trainer that `sievemal.learners.gbdt` replaced; the blocked trainer and the
forest walk must reproduce its models and margins bit for bit. It builds
sievemal's own `Tree` and `GbdtModel` records so that `to_dict()` output can
be compared directly, and shares no training or traversal code with them.
"""

import numpy as np

from sievemal.errors import DegenerateData
from sievemal.learners.common import TrainConfig, log_loss, logistic_grad_hess
from sievemal.learners.gbdt import GbdtModel, Tree

MAX_BINS = 255


def predict_margin(tree: Tree, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        node = 0
        while tree.feature[node] >= 0:
            if X[i, tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        out[i] = tree.value[node]
    return out


def decision_margin(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    margin = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        margin += model.eta * predict_margin(tree, X)
    return margin


def _bin_features(X: np.ndarray):
    """Quantile cut points per feature; binned[i,f] = index of first cut >= x."""
    n, d = X.shape
    cuts = []
    binned = np.empty((n, d), dtype=np.int32)
    for f in range(d):
        col = X[:, f]
        uniq = np.unique(col)
        if len(uniq) > MAX_BINS:
            qs = np.quantile(col, np.linspace(0, 1, MAX_BINS + 1)[1:-1])
            uniq = np.unique(qs)
        cuts_f = uniq.astype(np.float64)
        cuts.append(cuts_f)
        binned[:, f] = np.searchsorted(cuts_f, col, side="left")
    return cuts, binned


class _TreeBuilder:
    def __init__(self, cfg: TrainConfig):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []
        self.cfg = cfg

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def build(self) -> Tree:
        return Tree(
            feature=np.array(self.feature, dtype=np.int32),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            value=np.array(self.value, dtype=np.float64),
        )


def _best_split(binned, cuts, idx, g, h, columns, cfg):
    """Strict argmax over (gain); ties resolved to the smaller feature, then bin."""
    G = g[idx].sum()
    H = h[idx].sum()
    lam = cfg.reg_lambda
    parent = G * G / (H + lam)
    best = None  # (gain, feature, bin_index)
    sub = binned[idx]
    for f in columns:
        nb = len(cuts[f]) + 1
        if nb < 2:
            continue
        b = sub[:, f]
        gs = np.bincount(b, weights=g[idx], minlength=nb)
        hs = np.bincount(b, weights=h[idx], minlength=nb)
        GL = np.cumsum(gs)[:-1]
        HL = np.cumsum(hs)[:-1]
        GR = G - GL
        HR = H - HL
        ok = (HL >= cfg.min_child_hessian) & (HR >= cfg.min_child_hessian)
        if not ok.any():
            continue
        gains = 0.5 * (GL ** 2 / (HL + lam) + GR ** 2 / (HR + lam) - parent)
        gains[~ok] = -np.inf
        bi = int(np.argmax(gains))
        gain = gains[bi]
        if gain > 1e-12 and (best is None or gain > best[0]):
            best = (float(gain), int(f), bi)
    return best, G, H


def _grow_tree(binned, cuts, g, h, columns, cfg) -> Tree:
    tb = _TreeBuilder(cfg)
    root = tb.add_node()
    frontier = [(root, np.arange(binned.shape[0]), 0)]
    lam = cfg.reg_lambda
    while frontier:
        node, idx, depth = frontier.pop(0)
        split = None
        if depth < cfg.max_depth:
            split, G, H = _best_split(binned, cuts, idx, g, h, columns, cfg)
        else:
            G, H = g[idx].sum(), h[idx].sum()
        if split is None:
            tb.value[node] = -G / (H + lam)
            continue
        _, f, bi = split
        tb.feature[node] = f
        tb.threshold[node] = float(cuts[f][bi])
        mask = binned[idx, f] <= bi
        li = tb.add_node()
        ri = tb.add_node()
        tb.left[node] = li
        tb.right[node] = ri
        frontier.append((li, idx[mask], depth + 1))
        frontier.append((ri, idx[~mask], depth + 1))
    return tb.build()


def train_gbdt(X, y, cfg: TrainConfig) -> GbdtModel:
    """Boosted logistic-loss trees; deterministic given (X, y, cfg)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DegenerateData("empty training matrix")
    if len(np.unique(y)) < 2:
        raise DegenerateData("training labels contain a single class")

    n, d = X.shape
    cuts, binned = _bin_features(X)
    rng = np.random.default_rng(cfg.seed)
    prior = y.mean()
    base_score = float(np.log(prior / (1.0 - prior)))
    margin = np.full(n, base_score)
    n_cols = max(1, int(np.ceil(cfg.colsample * d)))

    trees = []
    losses = []
    for _ in range(cfg.n_trees):
        g, h = logistic_grad_hess(margin, y)
        columns = np.sort(rng.choice(d, size=n_cols, replace=False))
        tree = _grow_tree(binned, cuts, g, h, columns, cfg)
        trees.append(tree)
        margin += cfg.eta * predict_margin(tree, X)
        losses.append(log_loss(margin, y))

    return GbdtModel(trees=tuple(trees), eta=cfg.eta, base_score=base_score,
                     config=cfg, n_features=d, train_log_loss=tuple(losses))
