import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sievemal.errors import DegenerateData, SpecInvalid
from sievemal.features import DIM
from sievemal.learners.common import TrainConfig, log_loss, logistic_grad_hess, sigmoid32
from sievemal.learners.gbdt import GbdtModel, predict_gbdt, train_gbdt
from sievemal.learners.io import model_from_dict
from sievemal.learners.svm import RbfSvmModel, predict_svm_rbf, rbf_kernel, train_svm_rbf
from sievemal.pipeline import AiSystem, load_system, save_system


def xor_data(n=400, seed=0):
    """Four tight clusters at (+-1, +-1); label is the XOR of the signs."""
    rng = np.random.default_rng(seed)
    centers = rng.choice([-1.0, 1.0], size=(n, 2))
    X = centers + rng.normal(0.0, 0.1, size=(n, 2))
    y = ((centers[:, 0] > 0) ^ (centers[:, 1] > 0)).astype(np.int64)
    return X, y


def blob_data(n=200, sep=10.0, seed=1):
    """Two unit-variance gaussian blobs `sep` standard deviations apart."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([
        rng.normal(0.0, 1.0, size=(half, 2)),
        rng.normal(sep, 1.0, size=(n - half, 2)),
    ])
    y = np.array([0] * half + [1] * (n - half))
    return X, y


# --- shared numerics ---------------------------------------------------------

def test_sigmoid32_saturates_exactly():
    assert sigmoid32(100.0) == np.float32(1.0)
    assert sigmoid32(-200.0) == np.float32(0.0)
    assert 0.0 < float(sigmoid32(0.3)) < 1.0
    assert sigmoid32(0.0) == np.float32(0.5)


def test_sigmoid32_of_a_huge_negative_margin_is_zero_without_a_warning():
    # exp(-margin) overflows to inf; pytest turns a RuntimeWarning into an error
    assert np.array_equal(sigmoid32(np.array([-710.0, -1e307])), np.zeros(2, np.float32))


def test_log_loss_reference_points():
    # margin 0 gives log 2 regardless of label
    assert math.isclose(log_loss(np.zeros(4), np.array([0, 1, 0, 1])), math.log(2))
    # confident & correct is nearly free, confident & wrong is expensive
    assert log_loss(np.array([20.0]), np.array([1])) < 1e-8
    assert log_loss(np.array([20.0]), np.array([0])) > 19


def test_grad_hess_match_finite_differences():
    rng = np.random.default_rng(7)
    margins = rng.uniform(-6, 6, size=100)
    labels = rng.integers(0, 2, size=100)
    g, h = logistic_grad_hess(margins, labels)
    eps = 1e-6
    eps2 = 1e-4  # wider step for the second difference to dodge cancellation
    for i in range(100):
        m, y = margins[i], np.array([labels[i]])
        g_fd = (log_loss(np.array([m + eps]), y)
                - log_loss(np.array([m - eps]), y)) / (2 * eps)
        h_fd = (log_loss(np.array([m + eps2]), y)
                - 2 * log_loss(np.array([m]), y)
                + log_loss(np.array([m - eps2]), y)) / eps2 ** 2
        assert math.isclose(g[i], g_fd, rel_tol=1e-4, abs_tol=1e-7)
        assert math.isclose(h[i], h_fd, rel_tol=1e-4, abs_tol=1e-7)


# --- configuration -----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(kind="forest", seed=0)
    # seed and n_trees as the CLI's --seed and --n-trees take them
    for bad in (dict(seed=None), dict(seed=-1), dict(seed=1.5), dict(seed="0"),
                dict(seed=True), dict(n_trees=0), dict(n_trees=-3), dict(n_trees=2.0)):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be an integer"):
            TrainConfig(**bad)
    with pytest.raises(ValueError):
        TrainConfig(seed=0, colsample=0.0)
    with pytest.raises(ValueError):
        TrainConfig(kind="svm", seed=0, gamma=1e-7)
    with pytest.raises(ValueError):
        TrainConfig(kind="svm", seed=0, gamma=2e4)
    with pytest.raises(ValueError):
        TrainConfig(kind="svm", seed=0, reg=0.0)
    # gamma and reg reach every kind's saved config, and every float is finite
    for kind in ("gbdt", "svm"):
        for bad in (dict(gamma=0.0), dict(reg=-1.0), dict(gamma=float("nan")),
                    dict(reg=float("nan")), dict(reg=float("inf")), dict(eta=float("-inf"))):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(kind=kind, seed=0, **bad)
    # leaf weights and split gains divide by H + reg_lambda
    for kind in ("gbdt", "svm"):
        for bad in (dict(reg_lambda=0.0), dict(reg_lambda=-1.0),
                    dict(reg_lambda=float("nan")), dict(min_child_hessian=-1e-3)):
            with pytest.raises(ValueError):
                TrainConfig(kind=kind, seed=0, **bad)
    # the full-scale setup is expressible
    full = TrainConfig(kind="gbdt", seed=0, n_trees=1000, eta=0.1, colsample=0.8)
    assert TrainConfig.from_dict(full.to_dict()) == full


def test_config_dict_has_every_field():
    cfg = TrainConfig(kind="svm", seed=5)
    assert list(cfg.to_dict()) == [f.name for f in dataclasses.fields(TrainConfig)]
    assert cfg.to_dict() == {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}


def test_config_round_trip_svm():
    cfg = TrainConfig(kind="svm", seed=5, gamma=0.5, reg=1e-3)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


# --- gradient boosting -------------------------------------------------------

def test_gbdt_training_loss_is_monotone_nonincreasing():
    X, y = xor_data(seed=2)
    model = train_gbdt(X, y, TrainConfig(seed=0, n_trees=40, max_depth=3))
    losses = model.train_log_loss
    assert len(losses) == 40
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-9


def test_gbdt_solves_xor_with_depth_two():
    X, y = xor_data(n=1000, seed=3)
    cfg = TrainConfig(seed=0, n_trees=50, max_depth=2, colsample=1.0,
                      eta=0.5, reg_lambda=0.1)
    model = train_gbdt(X, y, cfg)
    acc = float(np.mean((predict_gbdt(model, X) >= 0.5) == (y == 1)))
    assert acc >= 0.99


def test_gbdt_deterministic_given_seed():
    X, y = xor_data(seed=4)
    # pad with noise columns so column subsampling has real choices to make
    rng = np.random.default_rng(0)
    X = np.hstack([X, rng.normal(size=(len(X), 8))])
    cfg = TrainConfig(seed=11, n_trees=10, colsample=0.5)
    a = predict_gbdt(train_gbdt(X, y, cfg), X)
    b = predict_gbdt(train_gbdt(X, y, cfg), X)
    assert np.array_equal(a, b)
    c = predict_gbdt(train_gbdt(X, y, TrainConfig(seed=12, n_trees=10, colsample=0.5)), X)
    assert not np.array_equal(a, c)


def test_gbdt_single_split_recovers_step_function():
    X = np.arange(20, dtype=np.float64)[:, None]
    y = (X[:, 0] >= 10).astype(np.int64)
    model = train_gbdt(X, y, TrainConfig(seed=0, n_trees=30, max_depth=1, colsample=1.0))
    scores = predict_gbdt(model, X)
    assert np.all(scores[:10] < 0.2)
    assert np.all(scores[10:] > 0.8)


def test_gbdt_rejects_degenerate_input():
    with pytest.raises(DegenerateData):
        train_gbdt(np.empty((0, 3)), np.empty(0), TrainConfig(seed=0))
    X = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.raises(DegenerateData):
        train_gbdt(X, np.ones(10), TrainConfig(seed=0))


def test_gbdt_base_score_is_prior_log_odds():
    X, y = xor_data(seed=5)
    model = train_gbdt(X, y, TrainConfig(seed=0, n_trees=1))
    pos = y.mean()
    assert math.isclose(model.base_score, math.log(pos / (1 - pos)), rel_tol=1e-9)


# --- rbf svm -----------------------------------------------------------------

def test_rbf_kernel_values():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    K = rbf_kernel(A, A, gamma=0.5)
    assert math.isclose(K[0, 0], 1.0)
    assert math.isclose(K[0, 1], math.exp(-0.5))
    assert np.allclose(K, K.T)


def dense_rbf_kernel(A, B, gamma):
    """The kernel as one dense expression: several n x m temporaries at once."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    d = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    np.maximum(d, 0.0, out=d)
    return np.exp(-gamma * d)


def feature_like_matrix(n, d=721, seed=31):
    """float32 rows with columns of very different scales, as feature rows have."""
    rng = np.random.default_rng(seed)
    return (rng.random((n, d)) * rng.integers(0, 60, size=d)).astype(np.float32)


def test_rbf_kernel_bytes_equal_the_dense_expression():
    # the row blocks of _sq_dists apply the dense expression's operations in
    # its order, so every kernel value is the same float64 bit pattern
    X = feature_like_matrix(500)
    for A, B in ((X, X), (X[:7], X), (X, X[:3]), (X[:1], X[:1])):
        for gamma in (1e-3, 0.5):
            assert rbf_kernel(A, B, gamma).tobytes() == dense_rbf_kernel(A, B, gamma).tobytes()


def test_svm_training_holds_one_kernel_matrix():
    """The traced peak of train_svm_rbf is the n x n kernel and the float64
    copy of X, and a 2 MiB margin for one 512 KiB row block of the kernel and
    the small arrays (measured at n = 1,404: 24.5 MiB against 22.8 MiB for the
    two arrays; 38.9 MiB while the kernel held two or three n x n arrays)."""
    n = 1000
    X = feature_like_matrix(n)
    y = np.arange(n) % 2
    cfg = TrainConfig(kind="svm", seed=0, max_iters=2000)
    train_svm_rbf(X[:50], y[:50], cfg)  # first-call allocations inside numpy
    tracemalloc.start()
    try:
        train_svm_rbf(X, y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 + X.size * 8 + (2 << 20), peak / 2 ** 20


def test_svm_separates_distant_blobs():
    X, y = blob_data(n=300, sep=10.0, seed=6)
    cfg = TrainConfig(kind="svm", seed=0, gamma=0.05, reg=1e-3, max_iters=4000)
    model = train_svm_rbf(X, y, cfg)
    acc = float(np.mean((predict_svm_rbf(model, X) >= 0.5) == (y == 1)))
    assert acc >= 0.99


def test_svm_deterministic_given_seed():
    X, y = blob_data(n=120, sep=4.0, seed=8)
    cfg = TrainConfig(kind="svm", seed=21, gamma=0.1, reg=1e-2, max_iters=1000)
    a = predict_svm_rbf(train_svm_rbf(X, y, cfg), X)
    b = predict_svm_rbf(train_svm_rbf(X, y, cfg), X)
    assert np.array_equal(a, b)


def test_svm_rejects_single_class():
    X = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(DegenerateData):
        train_svm_rbf(X, np.zeros(10), TrainConfig(kind="svm", seed=0))


def test_svm_probabilities_in_unit_interval():
    X, y = blob_data(n=100, sep=2.0, seed=9)
    model = train_svm_rbf(X, y, TrainConfig(kind="svm", seed=0, gamma=0.2, reg=1e-2,
                                            max_iters=500))
    p = predict_svm_rbf(model, X)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


# --- persistence -------------------------------------------------------------

def through_system_document(model, cfg, directory):
    """model saved in a bare system by save_system and loaded by load_system;
    the metadata comes back as it was saved."""
    metadata = {"threshold": 0.5, "config": cfg.to_dict()}
    save_system(AiSystem("", "", model, metadata), directory)
    loaded = load_system(directory)
    assert loaded.metadata == metadata
    return loaded.model


def as_feature_rows(X):
    """X padded with zero columns to features.DIM, the width load_system wants."""
    return np.pad(X, ((0, 0), (0, DIM - X.shape[1])))


def test_gbdt_model_file_round_trip(tmp_path):
    X, y = xor_data(n=200, seed=12)
    X = as_feature_rows(X)
    cfg = TrainConfig(seed=0, n_trees=5)
    model = train_gbdt(X, y, cfg)
    loaded = through_system_document(model, cfg, tmp_path)
    assert isinstance(loaded, GbdtModel)
    assert np.array_equal(predict_gbdt(loaded, X), predict_gbdt(model, X))


def test_svm_model_file_round_trip(tmp_path):
    X, y = blob_data(n=80, sep=5.0, seed=13)
    X = as_feature_rows(X)
    cfg = TrainConfig(kind="svm", seed=0, gamma=0.1, reg=1e-2, max_iters=300)
    model = train_svm_rbf(X, y, cfg)
    loaded = through_system_document(model, cfg, tmp_path)
    assert isinstance(loaded, RbfSvmModel)
    assert np.array_equal(predict_svm_rbf(loaded, X), predict_svm_rbf(model, X))


@pytest.mark.parametrize("body, message", [
    ({"not": "a model"}, "unknown model kind None"),
    ([], "unknown model kind None"),
    ({"kind": "forest"}, "unknown model kind 'forest'"),
    ({"kind": "gbdt"}, r"malformed gbdt model \(KeyError"),
    ({"kind": "svm", "gamma": 0.1}, r"malformed svm model \(KeyError"),
], ids=["no-kind", "list", "unknown-kind", "gbdt-no-trees", "svm-no-vectors"])
def test_model_from_dict_rejects_garbage(body, message):
    with pytest.raises(SpecInvalid, match=message):
        model_from_dict(body)
