"""The blocked GBDT trainer and the forest walk against the naive oracle.

`tests/naive_gbdt.py` holds the one-column-at-a-time trainer and the per-row
predict that the blocked code replaced. Models must serialize to the same
JSON text and margins must be bit-identical, so a change in the summation
order, the tie rule or the traversal fails here.
"""

import json
import tracemalloc

import numpy as np
import pytest

import naive_gbdt
from sievemal.evaluation import read_report, write_report
from sievemal.features import extract_features
from sievemal.learners import gbdt, model_from_dict
from sievemal.learners.common import TrainConfig
from sievemal.learners.gbdt import GbdtModel, train_gbdt
from sievemal.pipeline import filter_training

MODEL_KEYS = {"kind", "eta", "base_score", "n_features", "config", "train_log_loss", "trees"}
TREE_KEYS = {"feature", "threshold", "left", "right", "value"}


def model_text(model):
    return json.dumps(model.to_dict(), sort_keys=True)


def assert_same_model(X, y, cfg):
    """Blocked and naive training give the same model.json text; returns it."""
    model = train_gbdt(X, y, cfg)
    assert model_text(model) == model_text(naive_gbdt.train_gbdt(X, y, cfg))
    return model


def depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(depth(tree, tree.left[node]), depth(tree, tree.right[node]))


@pytest.fixture(scope="module")
def unit_matrix(unit_corpus, unit_allowlist, unit_blocklist):
    """Features and labels of the unit corpus's rule-filtered present-train."""
    survivors, _ = filter_training(unit_corpus.samples("present-train"),
                                   unit_allowlist, unit_blocklist)
    rows = []
    for rec in survivors:
        with open(rec.path, "rb") as fh:
            rows.append(extract_features(fh.read()))
    return np.vstack(rows), np.array([rec.label for rec in survivors])


@pytest.fixture(scope="module")
def noisy_matrix(unit_matrix):
    """The unit matrix with 15% of its labels flipped, so trees grow deep."""
    X, y = unit_matrix
    flip = np.random.default_rng(0).choice(len(y), round(0.15 * len(y)), replace=False)
    y = y.copy()
    y[flip] = 1 - y[flip]
    return X, y


# --- training ----------------------------------------------------------------

def test_filtered_present_train_model_is_identical(unit_matrix):
    X, y = unit_matrix
    assert_same_model(X, y, TrainConfig(seed=0, n_trees=10))


def test_label_noise_depth_six_model_is_identical(noisy_matrix):
    X, y = noisy_matrix
    model = assert_same_model(X, y, TrainConfig(seed=0, n_trees=4, max_depth=6))
    assert max(depth(t) for t in model.trees) == 6


def test_duplicated_column_tie_goes_to_smaller_index():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(300, 150))
    y = (X[:, 40] > 0.3).astype(np.int64)
    X[:, 140] = X[:, 40]
    cfg = TrainConfig(seed=0, n_trees=5, max_depth=2, colsample=1.0)
    model = assert_same_model(X, y, cfg)
    assert model.trees[0].feature[0] == 40
    assert not any(140 in t.feature for t in model.trees)


def test_equal_gain_in_a_later_block_goes_to_smaller_index():
    """Features 0 and 99 both split off exactly the label-0 rows, which fill
    their bin 0, so the two gains are equal to the bit. Feature 99 has three
    bins and is searched in the first block; feature 0 has about 200 and comes
    in the last, yet it must win the tie."""
    rng = np.random.default_rng(22)
    n = 400
    y = rng.integers(0, 2, size=n)
    X = rng.integers(0, 20, size=(n, 100)).astype(np.float64)
    X[:, 0] = np.where(y == 1, 1.0 + rng.permutation(n), 0.0)
    X[:, 99] = y
    cfg = TrainConfig(seed=0, n_trees=3, max_depth=1, colsample=1.0)
    model = assert_same_model(X, y, cfg)
    assert all(t.feature[0] == 0 and t.threshold[0] == 0.0 for t in model.trees)


def test_quantile_binned_and_constant_columns_are_identical():
    rng = np.random.default_rng(23)
    n = 900
    X = np.column_stack([
        rng.normal(size=n),            # > 255 distinct values: quantile cuts
        np.full(n, 4.0),               # constant: one cut, never a split point
        rng.integers(0, 5, size=n),    # few bins
    ])
    y = (X[:, 0] + 0.5 * X[:, 2] + rng.normal(scale=0.5, size=n) > 1.0).astype(np.int64)
    for cfg in (TrainConfig(seed=0, n_trees=8, max_depth=3, colsample=1.0),
                TrainConfig(seed=1, n_trees=8, max_depth=3, colsample=1.0,
                            min_child_hessian=0.0)):
        model = assert_same_model(X, y, cfg)
        assert not any(1 in t.feature for t in model.trees)


def test_tiny_lambda_empty_nodes_are_identical(noisy_matrix, monkeypatch):
    """With reg_lambda far below the rounding residue of H - H_L, a split can
    send every row one way (measured: 9 of 21 searched nodes are empty here,
    none at reg_lambda=1e-12). The empty-node guard must make them leaves as
    the one-column search does."""
    X, y = noisy_matrix
    sizes = []
    best_split = gbdt._best_split
    monkeypatch.setattr(gbdt, "_best_split", lambda blocks, idx, *rest:
                        sizes.append(len(idx)) or best_split(blocks, idx, *rest))
    cfg = TrainConfig(seed=0, n_trees=3, max_depth=4, reg_lambda=1e-30,
                      min_child_hessian=0.0)
    assert_same_model(X, y, cfg)
    assert 0 in sizes


# Twins, columns with one bin count and one bin on every training row, give
# one histogram and one gain at every node. A tree searches only the smallest
# drawn member of each twin group; the inputs below fail a search that keeps
# another member, or that groups columns by their bins alone.

def test_twin_pair_drawn_apart_is_identical():
    """At colsample=0.5 some trees draw only the larger of two equal columns,
    which must then be searched; a tree that draws both splits on the smaller."""
    rng = np.random.default_rng(26)
    n = 400
    X = rng.normal(size=(n, 12))
    X[:, 9] = X[:, 3]
    y = (X[:, 3] + 0.3 * rng.normal(size=n) > 0).astype(np.int64)
    model = assert_same_model(X, y, TrainConfig(seed=0, n_trees=12, max_depth=2, colsample=0.5))
    assert {3, 9} <= {int(f) for t in model.trees for f in t.feature}


def test_quantile_binned_twins_write_the_smaller_features_cut():
    """Column 1 is quantile-binned and column 4 is its exp: the same bins on
    every row, other cuts, so a threshold names the twin that won. Column 3
    holds column 1's bin index: the same bins again, but exact cuts and one
    more bin, whose last split sends every row left. It is not their twin,
    and at reg_lambda=1e-30 that split wins nodes."""
    rng = np.random.default_rng(27)
    n = 900
    q = rng.normal(size=n)
    _, q_bins = gbdt._bin_features(q[:, None])
    X = np.column_stack([rng.normal(size=n), q, rng.normal(size=n), q_bins[0], np.exp(q)])
    cuts, binned = gbdt._bin_features(X)
    assert np.array_equal(binned[1], binned[4]) and np.array_equal(binned[1], binned[3])
    assert len(cuts[1]) == len(cuts[4]) == len(cuts[3]) - 1 and len(cuts[1]) > 200
    y = (q + 0.5 * X[:, 0] + rng.normal(scale=0.5, size=n) > 0).astype(np.int64)
    used = []
    for cfg in (TrainConfig(seed=0, n_trees=6, max_depth=3, colsample=1.0),
                TrainConfig(seed=0, n_trees=4, max_depth=4, colsample=1.0,
                            reg_lambda=1e-30, min_child_hessian=0.0)):
        model = assert_same_model(X, y, cfg)
        used.append({int(f) for t in model.trees for f in t.feature})
    assert 1 in used[0] and 4 not in used[0]
    assert 3 in used[1]


def test_constant_twin_group_at_tiny_lambda_is_identical(monkeypatch):
    """Twenty constant columns, each of another value, are one twin group: bin
    0 on every row. At reg_lambda=1e-30 and min_child_hessian=0 their one
    split, which sends every row left and so leaves an empty node, wins nodes
    with a rounding-level gain that is equal across the group, so the smallest
    drawn constant must take it and write its own value as the threshold."""
    rng = np.random.default_rng(2)
    n = 600
    data = rng.normal(size=(n, 7))
    constants = range(4, 24)
    X = np.column_stack([data[:, :4], np.tile(np.arange(20.0) * 0.5 - 3, (n, 1)), data[:, 4:]])
    y = (X[:, 0] + X[:, 1] + rng.normal(scale=2, size=n)
         > X[:, 0].mean() + X[:, 1].mean()).astype(np.int64)
    sizes = []
    best_split = gbdt._best_split
    monkeypatch.setattr(gbdt, "_best_split", lambda blocks, idx, *rest:
                        sizes.append(len(idx)) or best_split(blocks, idx, *rest))
    cfg = TrainConfig(seed=0, n_trees=4, max_depth=5, reg_lambda=1e-30, min_child_hessian=0.0)
    model = assert_same_model(X, y, cfg)
    assert any(f in constants for t in model.trees for f in t.feature)
    assert 0 in sizes


def test_each_tree_searches_the_smallest_drawn_column_of_each_twin_group(monkeypatch):
    """Twin groups {1, 6, 12}, {3, 9} (integers and their exp) and the
    constants {4, 10, 13, 14}; every other column is its own group. Column 15
    holds column 2's quantile bin index, so it has column 2's bins but one
    more bin count, and is not its twin. Each tree's candidate blocks hold
    the smallest drawn member of every drawn group, and no other column."""
    rng = np.random.default_rng(29)
    n = 300
    X = rng.normal(size=(n, 16))
    X[:, 6] = X[:, 12] = X[:, 1]
    X[:, 3] = rng.integers(0, 10, size=n)
    X[:, 9] = np.exp(X[:, 3])
    X[:, [4, 10, 13, 14]] = [7.0, -1.0, 0.0, 2.5]
    X[:, 15] = gbdt._bin_features(X[:, [2]])[1][0]
    y = (X[:, 1] + 0.2 * X[:, 3] + rng.normal(size=n) > 1).astype(np.int64)
    groups = [{1, 6, 12}, {3, 9}, {4, 10, 13, 14}]
    cfg = TrainConfig(seed=0, n_trees=8, max_depth=2, colsample=0.6)

    searched = []
    candidate_blocks = gbdt._candidate_blocks

    def spy(*args):
        blocks = candidate_blocks(*args)
        searched.append(sorted(int(f) for features, *_ in blocks for f in features))
        return blocks

    monkeypatch.setattr(gbdt, "_candidate_blocks", spy)
    assert_same_model(X, y, cfg)

    # each tree's column draw, as train_gbdt makes it
    rng = np.random.default_rng(cfg.seed)
    n_cols = int(np.ceil(cfg.colsample * X.shape[1]))
    drawn = [set(rng.choice(X.shape[1], size=n_cols, replace=False).tolist())
             for _ in range(cfg.n_trees)]
    expected = [sorted(f for f in cols
                       if all(f == min(g & cols) for g in groups if f in g))
                for cols in drawn]
    assert searched == expected
    assert any(1 not in cols and cols & {6, 12} for cols in drawn)


def test_training_peak_memory_does_not_scale_with_tree_size(noisy_matrix):
    """Split-search temporaries are per node and per block of columns, so
    growing depth-6 trees takes no more memory than growing stumps (measured:
    about 0.98 MB traced at both depths). Histograms batched over all nodes of
    a level would grow with the nodes per level."""
    X, y = noisy_matrix
    X = np.asarray(X, dtype=np.float64)

    def peak(max_depth):
        tracemalloc.start()
        try:
            train_gbdt(X, y, TrainConfig(seed=0, n_trees=3, max_depth=max_depth))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations inside numpy are not the trainer's
    shallow, deep = peak(1), peak(6)
    assert deep <= 1.1 * shallow, (shallow, deep)


def test_float32_matrix_bins_as_its_float64_copy():
    """Binning converts one column at a time to float64, so a float32 matrix
    gets the cuts and bins of its float64 conversion, whatever precision a
    numpy version computes the quantiles of float32 data in."""
    rng = np.random.default_rng(24)
    n = 1000
    X = np.column_stack([
        rng.normal(scale=1e3, size=n),                   # > 255 distinct values
        rng.integers(0, 400, size=n) / 7.0,              # > 255 distinct, with ties
        np.repeat(rng.normal(size=n // 4), 4),           # 250 values, each 4 times
        rng.integers(0, 3, size=n),                      # few bins
    ]).astype(np.float32)
    assert len(np.unique(X[:, 0])) > gbdt.MAX_BINS and len(np.unique(X[:, 1])) > gbdt.MAX_BINS
    cuts32, bins32 = gbdt._bin_features(X)
    cuts64, bins64 = gbdt._bin_features(X.astype(np.float64))
    assert all(c.dtype == np.float64 for c in cuts32)
    assert [c.tobytes() for c in cuts32] == [c.tobytes() for c in cuts64]
    assert np.array_equal(bins32, bins64)


def test_training_makes_no_float64_copy_of_a_float32_matrix():
    """train_gbdt reads a float32 matrix in place: its traced peak stays below
    the size a float64 copy of the matrix would take on its own (measured:
    about 1.2 X.nbytes; 3.2 with a float64 copy). A matrix with 150 constant
    columns, one twin group, takes the same bound (measured: about 1.1
    X.nbytes)."""
    rng = np.random.default_rng(25)
    X = rng.normal(size=(2000, 721)).astype(np.float32)
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
    twin_heavy = X.copy()
    twin_heavy[:, -150:] = 1.0
    cfg = TrainConfig(seed=0, n_trees=1, max_depth=2)
    train_gbdt(X[:50], y[:50], cfg)  # first-call allocations inside numpy
    for matrix in (X, twin_heavy):
        tracemalloc.start()
        try:
            train_gbdt(matrix, y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * matrix.nbytes, peak / matrix.nbytes


# --- predict -----------------------------------------------------------------

@pytest.fixture(scope="module")
def saved_models(noisy_matrix, tmp_path_factory):
    """A stump forest and a deep forest, each written and read back as the
    model of a model.json document is."""
    X, y = noisy_matrix
    root = tmp_path_factory.mktemp("gbdt-models")
    models = []
    for name, cfg in (("stumps", TrainConfig(seed=0, n_trees=20, max_depth=1)),
                      ("deep", TrainConfig(seed=0, n_trees=20, max_depth=6))):
        path = root / f"{name}.json"
        write_report(path, {"model": train_gbdt(X, y, cfg).to_dict()})
        models.append(model_from_dict(read_report(path)["model"]))
    return models


@pytest.mark.parametrize("rows", [0, 1, 37, None])
def test_decision_margin_equals_per_row_sum(saved_models, noisy_matrix, rows):
    X = np.asarray(noisy_matrix[0], dtype=np.float32)[slice(rows)]
    for model in saved_models:
        got = model.decision_margin(X)
        assert got.shape == (X.shape[0],)
        assert np.array_equal(got, naive_gbdt.decision_margin(model, X))


def test_single_tree_predict_equals_per_row_walk(saved_models, noisy_matrix):
    X = np.asarray(noisy_matrix[0], dtype=np.float32)
    for tree in saved_models[1].trees:
        assert np.array_equal(tree.predict_margin(X), naive_gbdt.predict_margin(tree, X))


def test_model_file_has_no_new_keys(saved_models):
    for model in saved_models:
        doc = model.to_dict()
        assert set(doc) == MODEL_KEYS
        assert all(set(t) == TREE_KEYS for t in doc["trees"])
        assert model_text(GbdtModel.from_dict(doc)) == model_text(model)


def test_forest_rejects_input_narrower_than_its_features(saved_models, noisy_matrix):
    model = saved_models[1]
    used = max(int(t.feature.max()) for t in model.trees)
    with pytest.raises(ValueError):
        model.decision_margin(noisy_matrix[0][:, :used])
