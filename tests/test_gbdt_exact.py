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
from sievemal.features import extract_features
from sievemal.learners import gbdt
from sievemal.learners.common import TrainConfig
from sievemal.learners.gbdt import GbdtModel, train_gbdt
from sievemal.learners.io import load_model, save_model
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


def test_training_peak_memory_does_not_scale_with_tree_size(noisy_matrix):
    """Split-search temporaries are per node and per block of columns, so
    growing depth-6 trees takes no more memory than growing stumps (measured:
    about 1.29 MB traced at both depths). Histograms batched over all nodes of
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


# --- predict -----------------------------------------------------------------

@pytest.fixture(scope="module")
def saved_models(noisy_matrix, tmp_path_factory):
    """A stump forest and a deep forest, each through save_model/load_model."""
    X, y = noisy_matrix
    root = tmp_path_factory.mktemp("gbdt-models")
    models = []
    for name, cfg in (("stumps", TrainConfig(seed=0, n_trees=20, max_depth=1)),
                      ("deep", TrainConfig(seed=0, n_trees=20, max_depth=6))):
        save_model(train_gbdt(X, y, cfg), root / f"{name}.json")
        models.append(load_model(root / f"{name}.json"))
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
