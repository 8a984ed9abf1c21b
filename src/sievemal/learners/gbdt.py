"""Second-order gradient boosting with depth-wise binary trees.

Per round: g = p - y, h = p(1-p); splits maximize
gain = 1/2 [G_L^2/(H_L+l) + G_R^2/(H_R+l) - G^2/(H+l)] and leaves take
weight -G/(H+l). Split candidates come from per-feature quantile bins (up to
255 cut points, so at most 256 bins): the training matrix is binned once into
a column-major (features x rows) uint8 array.

Twin columns, with the same bin count and the same bin on every training
row, are mapped once per training (`_twin_groups`). They give bit-identical
histograms, cumulative sums and gains at every node, and the tie rule below
gives each such tie to the smaller feature, so a tree searches only the
smallest drawn column of each twin group. The bin count is part of the key: a
column with the same bins and one bin more has one more split point, which
sends every row left.

Split search runs once per node, nodes in breadth-first order. Per tree, the
searched columns are grouped into blocks of up to `_BLOCK`, narrow columns
with narrow ones, and each block's bins are copied row-major (rows x columns)
so a node's rows are one gather. At 32 columns a block's histogram (at most
32 x 256 float64 cells, 64 KB) stays in cache, and the per-node key array and
the two repeated weight arrays (each rows x `_BLOCK` x 8 bytes) are half
their size at 64. Per node and block, one weighted bincount keyed by
(column offset + bin) gives the g histograms of all the block's columns and
one the h histograms; a cumsum along the bins (padded to the block's widest
column, padded bins masked out) gives G_L and H_L; one argmax over
(column, bin) picks the block's best split.

Exactness: every float is summed in the order of a one-column-at-a-time
search. A (column, bin) cell adds its rows in ascending row order, as a
bincount over that column alone does, and G_L runs along the bins from 0.
Histograms are never derived by subtraction (parent minus sibling), which
rounds differently, so gains, ties and thresholds are bit-identical to the
plain search. Ties go to the smaller feature, then the smaller bin: within a
block, columns are in ascending feature order and argmax takes the first
maximum; across blocks, a block's best replaces the best so far only with a
larger gain, or an equal gain on a smaller feature.

Training never predicts: growth records each row's leaf, because
bin <= b exactly when x <= cuts[b]. Predict flattens all trees into one set
of node arrays whose leaves point to themselves, moves every (row, tree)
pair one level per numpy step, and adds the leaf values in tree order with a
sequential cumsum, which rounds as a tree-by-tree sum does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateData, check_number, check_numbers
from .common import TrainConfig, log_loss, logistic_grad_hess, sigmoid32

MAX_BINS = 255
_BLOCK = 32  # features per histogram in the split search


class _Forest:
    """Node arrays of several trees, concatenated; leaves loop to themselves."""

    def __init__(self, trees):
        def cat(name, dtype):
            return np.concatenate([np.zeros(0, dtype)] + [getattr(t, name) for t in trees])

        sizes = [len(t.feature) for t in trees]
        self.roots = np.cumsum([0] + sizes)[:-1]
        feature = cat("feature", np.intp)
        leaf = feature < 0
        own = np.arange(len(feature))
        shift = np.repeat(self.roots, sizes)
        left = np.where(leaf, own, cat("left", np.intp) + shift)
        right = np.where(leaf, own, cat("right", np.intp) + shift)
        self.feature = np.where(leaf, 0, feature)
        self.threshold = cat("threshold", np.float64)
        self.value = cat("value", np.float64)
        self.child = np.stack([right, left])  # child[x <= threshold, node]
        self.width = int(feature.max(initial=-1)) + 1
        self.depth = 0
        level = self.roots[~leaf[self.roots]]
        while len(level):
            self.depth += 1
            level = self.child[:, level].ravel()
            level = level[~leaf[level]]

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf node reached by every (row, tree) pair: shape (rows, trees)."""
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        n, d = X.shape
        node = np.broadcast_to(self.roots, (n, len(self.roots)))
        if self.depth and d < self.width:
            raise ValueError(f"model reads feature {self.width - 1}, input has {d} columns")
        flat = X.ravel()
        row_start = (np.arange(n) * d)[:, None]
        for _ in range(self.depth):
            go_left = flat[row_start + self.feature[node]] <= self.threshold[node]
            node = self.child[go_left.view(np.int8), node]
        return node


@dataclass(frozen=True)
class Tree:
    """Flattened binary tree; feature == -1 marks a leaf."""
    feature: np.ndarray    # int32
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    value: np.ndarray      # float64 leaf weights

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        forest = _Forest((self,))
        return forest.value[forest.leaves(X)[:, 0]]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": [float(t) for t in self.threshold],
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": [float(v) for v in self.value],
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "Tree":
        """The tree of a to_dict body, if it is one _TreeBuilder could write for
        n_features inputs: five arrays of one nonzero length, finite numbers,
        feature -1 exactly at the nodes whose children are both -1 (the
        leaves), other features in [0, n_features), and every node but the
        first the child of exactly one earlier node, which rules out cycles.
        Anything else raises ValueError."""
        n = len(d["feature"])
        feature = check_numbers(d["feature"], "feature", -1, n_features - 1, integer=True)
        left = check_numbers(d["left"], "left", -1, n - 1, integer=True)
        right = check_numbers(d["right"], "right", -1, n - 1, integer=True)
        threshold = check_numbers(d["threshold"], "threshold")
        value = check_numbers(d["value"], "value")
        if not n or any(len(a) != n for a in (left, right, threshold, value)):
            raise ValueError("a tree's five arrays must share one nonzero length")
        nodes = list(zip(feature, left, right))
        if any((f == -1) != (lo == hi == -1) for f, lo, hi in nodes):
            raise ValueError("a node's feature is -1 exactly when both its children are -1")
        inner = [(i, lo, hi) for i, (f, lo, hi) in enumerate(nodes) if f != -1]
        if (sorted(c for _, lo, hi in inner for c in (lo, hi)) != list(range(1, n))
                or any(min(lo, hi) <= i for i, lo, hi in inner)):
            raise ValueError("every node but the first must be a later child of one node")
        return cls(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            value=np.array(value, dtype=np.float64),
        )


@dataclass(frozen=True)
class GbdtModel:
    trees: tuple
    eta: float
    base_score: float
    config: TrainConfig
    n_features: int
    train_log_loss: tuple = ()
    _forest: _Forest = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_forest", _Forest(self.trees))

    def decision_margin(self, X: np.ndarray) -> np.ndarray:
        forest = self._forest
        leaves = forest.leaves(X)
        terms = np.empty((leaves.shape[0], leaves.shape[1] + 1))
        terms[:, 0] = self.base_score
        np.multiply(self.eta, forest.value[leaves], out=terms[:, 1:])
        return np.cumsum(terms, axis=1)[:, -1]

    def to_dict(self) -> dict:
        return {
            "kind": "gbdt",
            "eta": self.eta,
            "base_score": float(self.base_score),
            "n_features": self.n_features,
            "config": self.config.to_dict(),
            "train_log_loss": [float(v) for v in self.train_log_loss],
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GbdtModel":
        """The model of a to_dict body, if its numbers are finite, its trees
        read n_features inputs (Tree.from_dict) and no margin can overflow;
        else ValueError."""
        n_features = check_number(d["n_features"], "n_features", 1, integer=True)
        model = cls(
            trees=tuple(Tree.from_dict(t, n_features) for t in d["trees"]),
            eta=check_number(d["eta"], "eta"),
            base_score=check_number(d["base_score"], "base_score"),
            config=TrainConfig.from_dict(d["config"]),
            n_features=n_features,
            train_log_loss=tuple(check_numbers(d.get("train_log_loss", []), "train_log_loss")),
        )
        # every partial sum of a margin is at most this; as floats, a sum overflows to inf
        reach = abs(model.base_score) + abs(model.eta) * sum(
            float(max(map(abs, t["value"]))) for t in d["trees"])
        check_number(reach, "base_score plus eta times the largest leaf values")
        return model


def _bin_features(X: np.ndarray):
    """Quantile cut points per feature, and the (features, rows) uint8 bins:
    binned[f, i] = index of the first cut >= X[i, f].

    Each column is converted to float64 on its own, so a float32 matrix bins
    exactly as its float64 copy would, without that copy ever existing."""
    n, d = X.shape
    cuts = []
    binned = np.empty((d, n), dtype=np.uint8)
    for f in range(d):
        col = X[:, f].astype(np.float64)
        cuts_f = np.unique(col)
        if len(cuts_f) > MAX_BINS:
            cuts_f = np.unique(np.quantile(col, np.linspace(0, 1, MAX_BINS + 1)[1:-1]))
        assert len(cuts_f) <= MAX_BINS, "bin index must fit a uint8"
        cuts.append(cuts_f)
        binned[f] = np.searchsorted(cuts_f, col, side="left")
    return cuts, binned


class _TreeBuilder:
    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

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


def _twin_groups(binned, nbins):
    """twin[f]: the smallest column with f's bin count and f's bin on every row.

    Columns are keyed by their bin count and a hash of their bins, and compared
    in full on a key match, so the map holds no copy of the bins."""
    twin = np.arange(len(nbins))
    seen = {}
    for f, col in enumerate(binned):
        members = seen.setdefault((nbins[f], hash(col.tobytes())), [])
        for t in members:
            if np.array_equal(binned[t], col):
                twin[f] = t
                break
        else:
            members.append(f)
    return twin


def _candidate_blocks(binned, nbins, columns):
    """A tree's candidate columns in blocks of up to `_BLOCK`, grouped by bin
    count so that histograms padded to a block's widest column waste few cells.

    Each block is (features, rows, offsets, splits): its feature indices in
    ascending order; their bins as a (rows, k) uint8 array; the histogram key
    of each column's bin 0 (c * width); and a (k, width) mask of the bins that
    are split points (b < nbins - 1).
    """
    blocks = []
    by_width = columns[np.argsort(nbins[columns], kind="stable")]
    for lo in range(0, len(by_width), _BLOCK):
        features = np.sort(by_width[lo:lo + _BLOCK])
        nb = nbins[features]
        width = int(nb.max())
        blocks.append((features, np.ascontiguousarray(binned[features].T),
                       np.arange(0, len(features) * width, width),
                       np.arange(width) < (nb - 1)[:, None]))
    return blocks


def _best_split(blocks, idx, g, h, cfg):
    """Largest gain over all candidate (feature, bin) splits of the rows idx;
    ties resolved to the smaller feature, then the smaller bin.

    Returns ((gain, feature, bin_index) or None, G, H).
    """
    gi = g[idx]
    hi = h[idx]
    G = gi.sum()
    H = hi.sum()
    lam = cfg.reg_lambda
    mch = cfg.min_child_hessian
    parent = G * G / (H + lam)
    best = None  # (gain, feature, bin_index)
    if not len(idx):
        # rounding can let a split send every row one way; no split of an
        # empty node has a positive gain
        return best, G, H
    weights = {}
    for features, rows, offsets, splits in blocks:
        k, width = splits.shape
        if k not in weights:
            weights[k] = np.repeat(gi, k), np.repeat(hi, k)
        gw, hw = weights[k]
        keys = rows.take(idx, axis=0).astype(np.intp)
        keys += offsets
        keys = keys.ravel()
        GL = np.bincount(keys, weights=gw, minlength=k * width).reshape(k, width)
        HL = np.bincount(keys, weights=hw, minlength=k * width).reshape(k, width)
        np.cumsum(GL, axis=1, out=GL)
        np.cumsum(HL, axis=1, out=HL)
        GR = G - GL
        HR = H - HL
        ok = HL >= mch
        ok &= HR >= mch
        ok &= splits
        # gain = 0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - parent), in place
        gains = np.square(GL, out=GL)
        HL += lam
        gains /= HL
        np.square(GR, out=GR)
        HR += lam
        GR /= HR
        gains += GR
        gains -= parent
        gains *= 0.5
        np.copyto(gains, -np.inf, where=~ok)
        j = int(np.argmax(gains))
        gain = gains.flat[j]
        f = int(features[j // width])
        if gain > 1e-12 and (best is None or gain > best[0]
                             or (gain == best[0] and f < best[1])):
            best = (float(gain), f, j % width)
    return best, G, H


def _grow_tree(binned, cuts, blocks, g, h, cfg, leaf_of) -> Tree:
    """One tree over the candidate blocks; writes each row's leaf into leaf_of."""
    tb = _TreeBuilder()
    root = tb.add_node()
    frontier = deque([(root, np.arange(binned.shape[1]), 0)])
    lam = cfg.reg_lambda
    while frontier:
        node, idx, depth = frontier.popleft()
        split = None
        if depth < cfg.max_depth:
            split, G, H = _best_split(blocks, idx, g, h, cfg)
        else:
            G, H = g[idx].sum(), h[idx].sum()
        if split is None:
            tb.value[node] = -G / (H + lam)
            leaf_of[idx] = node
            continue
        _, f, bi = split
        tb.feature[node] = f
        tb.threshold[node] = float(cuts[f][bi])
        mask = binned[f, idx] <= bi
        li = tb.add_node()
        ri = tb.add_node()
        tb.left[node] = li
        tb.right[node] = ri
        frontier.append((li, idx[mask], depth + 1))
        frontier.append((ri, idx[~mask], depth + 1))
    return tb.build()


def train_gbdt(X, y, cfg: TrainConfig) -> GbdtModel:
    """Boosted logistic-loss trees; deterministic given (X, y, cfg)."""
    X = np.asarray(X)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DegenerateData("empty training matrix")
    if len(np.unique(y)) < 2:
        raise DegenerateData("training labels contain a single class")

    n, d = X.shape
    cuts, binned = _bin_features(X)
    nbins = np.array([len(c) + 1 for c in cuts])
    twin = _twin_groups(binned, nbins)
    rng = np.random.default_rng(cfg.seed)
    prior = y.mean()
    base_score = float(np.log(prior / (1.0 - prior)))
    margin = np.full(n, base_score)
    n_cols = max(1, int(np.ceil(cfg.colsample * d)))
    leaf_of = np.empty(n, dtype=np.intp)

    trees = []
    losses = []
    for _ in range(cfg.n_trees):
        g, h = logistic_grad_hess(margin, y)
        columns = np.sort(rng.choice(d, size=n_cols, replace=False))
        # the first drawn column of each twin group is its smallest drawn one
        _, first = np.unique(twin[columns], return_index=True)
        blocks = _candidate_blocks(binned, nbins, columns[np.sort(first)])
        tree = _grow_tree(binned, cuts, blocks, g, h, cfg, leaf_of)
        trees.append(tree)
        margin += cfg.eta * tree.value[leaf_of]
        losses.append(log_loss(margin, y))

    return GbdtModel(trees=tuple(trees), eta=cfg.eta, base_score=base_score,
                     config=cfg, n_features=d, train_log_loss=tuple(losses))


def predict_gbdt(model: GbdtModel, X) -> np.ndarray:
    """Scores in [0, 1]; float32 sigmoid so saturated margins yield exactly 1.0."""
    return sigmoid32(model.decision_margin(X))
