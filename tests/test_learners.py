import math

import numpy as np
import pytest

from sievemal.errors import DegenerateData
from sievemal.learners.common import TrainConfig, log_loss, logistic_grad_hess, sigmoid32
from sievemal.learners.gbdt import GbdtModel, predict_gbdt, train_gbdt
from sievemal.learners.io import load_model, save_model
from sievemal.learners.svm import RbfSvmModel, predict_svm_rbf, rbf_kernel, train_svm_rbf


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
    with pytest.raises(ValueError):
        TrainConfig(seed=None)
    with pytest.raises(ValueError):
        TrainConfig(seed=0, colsample=0.0)
    with pytest.raises(ValueError):
        TrainConfig(kind="svm", seed=0, gamma=1e-7)
    with pytest.raises(ValueError):
        TrainConfig(kind="svm", seed=0, gamma=2e4)
    with pytest.raises(ValueError):
        TrainConfig(kind="svm", seed=0, reg=0.0)
    # leaf weights and split gains divide by H + reg_lambda
    for kind in ("gbdt", "svm"):
        for bad in (dict(reg_lambda=0.0), dict(reg_lambda=-1.0),
                    dict(reg_lambda=float("nan")), dict(min_child_hessian=-1e-3)):
            with pytest.raises(ValueError):
                TrainConfig(kind=kind, seed=0, **bad)
    # the full-scale setup is expressible
    full = TrainConfig(kind="gbdt", seed=0, n_trees=1000, eta=0.1, colsample=0.8)
    assert TrainConfig.from_dict(full.to_dict()) == full


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

def test_gbdt_model_file_round_trip(tmp_path):
    X, y = xor_data(n=200, seed=12)
    model = train_gbdt(X, y, TrainConfig(seed=0, n_trees=5))
    path = tmp_path / "m.json"
    save_model(model, path, training_digest="abc123")
    loaded = load_model(path)
    assert isinstance(loaded, GbdtModel)
    assert np.array_equal(predict_gbdt(loaded, X), predict_gbdt(model, X))


def test_svm_model_file_round_trip(tmp_path):
    X, y = blob_data(n=80, sep=5.0, seed=13)
    model = train_svm_rbf(X, y, TrainConfig(kind="svm", seed=0, gamma=0.1, reg=1e-2,
                                            max_iters=300))
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, RbfSvmModel)
    assert np.array_equal(predict_svm_rbf(loaded, X), predict_svm_rbf(model, X))


def test_load_model_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"not": "a model"}')
    with pytest.raises(ValueError):
        load_model(p)
