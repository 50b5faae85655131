import tracemalloc

import numpy as np
import pytest

from atsclab import neuralnet
from atsclab.errors import ConfigError, DataError, NumericError
from atsclab.neuralnet import (PARAM_NAMES, AdamState, LstmRegressor,
                               NormalizationSpec, TrainingConfig, adam_update,
                               clip_gradients, lstm_cell_forward, train)


# -- cell forward -------------------------------------------------------------

def test_cell_hand_computed_scalar_case():
    # scalar cell, all weights 1, bias 0, x=1, h=0, c=0:
    # z = 1 for every gate; i=f=o=sigmoid(1), g=tanh(1)
    # c' = f*0 + i*g = sigmoid(1)*tanh(1) ~= 0.556785
    # h' = o*tanh(c') ~= 0.369756
    x = np.array([[1.0]])
    h = np.zeros((1, 1))
    c = np.zeros((1, 1))
    W = np.ones((1, 4))
    U = np.ones((1, 4))
    b = np.zeros(4)
    h2, c2, _ = lstm_cell_forward(x, h, c, W, U, b)
    sig1 = 1.0 / (1.0 + np.exp(-1.0))
    assert c2[0, 0] == pytest.approx(sig1 * np.tanh(1.0), abs=1e-12)
    assert c2[0, 0] == pytest.approx(0.556770, abs=1e-5)
    assert h2[0, 0] == pytest.approx(sig1 * np.tanh(sig1 * np.tanh(1.0)), abs=1e-12)


def test_cell_zero_input_zero_state():
    # with zero x, h, c and zero weights: i=f=o=0.5, g=0 -> c'=0, h'=0
    h2, c2, _ = lstm_cell_forward(np.zeros((1, 2)), np.zeros((1, 3)),
                                  np.zeros((1, 3)), np.zeros((2, 12)),
                                  np.zeros((3, 12)), np.zeros(12))
    assert np.all(c2 == 0.0)
    assert np.all(h2 == 0.0)


def test_cell_forget_gate_retains_state():
    # huge forget bias, zero input gate -> c' ~= c
    b = np.zeros(4)
    b[1] = 50.0    # forget
    b[0] = -50.0   # input
    c = np.array([[0.7]])
    _, c2, _ = lstm_cell_forward(np.zeros((1, 1)), np.zeros((1, 1)), c,
                                 np.zeros((1, 4)), np.zeros((1, 4)), b)
    assert c2[0, 0] == pytest.approx(0.7, abs=1e-12)


# -- model shape and init -----------------------------------------------------

def test_param_shapes():
    m = LstmRegressor(input_dim=2, hidden1=128, hidden2=8, seed=0)
    assert m.params["W1"].shape == (2, 512)
    assert m.params["U1"].shape == (128, 512)
    assert m.params["b1"].shape == (512,)
    assert m.params["W2"].shape == (128, 32)
    assert m.params["U2"].shape == (8, 32)
    assert m.params["Wd"].shape == (8, 1)
    assert set(m.params) == set(PARAM_NAMES)


def test_forget_bias_is_one():
    m = LstmRegressor(2, 4, 3, seed=0)
    assert np.all(m.params["b1"][4:8] == 1.0)
    assert np.all(m.params["b1"][:4] == 0.0)
    assert np.all(m.params["b2"][3:6] == 1.0)


def test_init_bounds_follow_fan_in():
    m = LstmRegressor(input_dim=4, hidden1=16, hidden2=8, seed=1)
    assert np.max(np.abs(m.params["W1"])) <= 1.0 / np.sqrt(4)
    assert np.max(np.abs(m.params["U1"])) <= 1.0 / np.sqrt(16)
    assert np.max(np.abs(m.params["Wd"])) <= 1.0 / np.sqrt(8)


def test_init_determinism():
    a = LstmRegressor(2, 8, 4, seed=7)
    b = LstmRegressor(2, 8, 4, seed=7)
    for name in PARAM_NAMES:
        assert np.array_equal(a.params[name], b.params[name])


def test_bad_dimensions_rejected():
    with pytest.raises(ConfigError):
        LstmRegressor(0, 8, 4)
    for shape in [(1, 5, 3), (5, 2), (4, 1, 5, 3)]:
        with pytest.raises(DataError):
            LstmRegressor(2, 8, 4).forward(np.zeros(shape))


@pytest.mark.parametrize("input_dim", [2, 8])
def test_stacked_forward_is_bit_identical_to_single_windows(input_dim):
    # a (N, 1, L, F) stack keeps each window a 1-row matrix, so each gets the
    # matrix-vector products of a lone (1, L, F) forward
    m = LstmRegressor(input_dim, 128, 8, seed=7)
    X = np.random.default_rng(1).uniform(size=(37, 10, input_dim))
    stacked = m.forward(X[:, None])
    assert stacked.shape == (37, 1)
    single = np.array([m.forward(X[k:k + 1])[0] for k in range(len(X))])
    assert np.array_equal(stacked[:, 0], single)


@pytest.mark.parametrize("input_dim", [2, 8])
@pytest.mark.parametrize("n", [720, 2390])
def test_chunked_forward_is_bit_identical_to_one_batch(monkeypatch, n, input_dim):
    # 720 validation windows and 2390 replay windows: chunks of FORWARD_CHUNK
    # and a remainder give the gemm rows of one (n, L, F) batch
    m = LstmRegressor(input_dim, 128, 8, seed=7)
    X = np.random.default_rng(2).uniform(size=(n, 10, input_dim))
    chunked = m.forward(X)
    monkeypatch.setattr(neuralnet, "FORWARD_CHUNK", n)
    assert np.array_equal(chunked, m.forward(X))


def test_forward_memory_does_not_grow_with_windows():
    # the hidden states of one chunk at most, not of every window
    m = LstmRegressor(8, 128, 8, seed=7)
    rng = np.random.default_rng(3)
    peaks = []
    for n in (256, 2048):
        X = rng.uniform(size=(n, 10, 8))
        tracemalloc.start()
        try:
            m.forward(X)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


# -- gradient oracle ----------------------------------------------------------

def test_gradients_match_finite_differences():
    """Central finite differences as an independent gradient oracle."""
    rng = np.random.default_rng(0)
    m = LstmRegressor(input_dim=2, hidden1=3, hidden2=2, seed=5)
    X = rng.normal(size=(4, 5, 2))
    y = rng.normal(size=4)
    _, grads = m.loss_and_gradients(X, y)

    def loss_at():
        pred = m.forward(X)
        return float(np.mean(np.abs(pred - y)))

    eps = 1e-6
    for name in PARAM_NAMES:
        p = m.params[name]
        flat = p.reshape(-1)
        idxs = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_at()
            flat[i] = orig - eps
            lm = loss_at()
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[name].reshape(-1)[i]
            scale = max(1.0, abs(fd), abs(an))
            assert abs(fd - an) / scale < 1e-4, (name, i, fd, an)


def test_zero_residual_gives_zero_gradient():
    m = LstmRegressor(2, 3, 2, seed=3)
    X = np.random.default_rng(1).normal(size=(2, 4, 2))
    y = m.forward(X)    # perfect predictions -> residual exactly 0
    loss, grads = m.loss_and_gradients(X, y)
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in grads.values())


# -- clipping and adam --------------------------------------------------------

def test_clip_leaves_small_gradients_alone():
    g = {"a": np.array([3.0, 4.0])}    # norm 5
    norm = clip_gradients(g, 5.0)
    assert norm == 5.0
    assert np.array_equal(g["a"], [3.0, 4.0])


def test_clip_rescales_to_max_norm():
    g = {"a": np.array([30.0, 40.0])}  # norm 50
    norm = clip_gradients(g, 5.0)
    assert norm == 50.0
    assert np.linalg.norm(g["a"]) == pytest.approx(5.0)


def test_adam_first_step_closed_form():
    """At k=1 the bias-corrected update is
    -lr * g / (|g| + eps) ~= -lr * sign(g)."""
    cfg = TrainingConfig(epochs=1, learning_rate=0.01)
    params = {"p": np.array([1.0, -2.0])}
    grads = {"p": np.array([0.3, -0.7])}
    state = AdamState(params)
    adam_update(params, grads, state, cfg)
    expected = np.array([1.0, -2.0]) - 0.01 * np.array([0.3, -0.7]) / \
        (np.abs([0.3, -0.7]) + cfg.eps)
    assert np.allclose(params["p"], expected, atol=1e-12)
    assert np.allclose(params["p"], [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)


def test_adam_state_advances():
    cfg = TrainingConfig(epochs=1)
    params = {"p": np.zeros(2)}
    state = AdamState(params)
    adam_update(params, {"p": np.ones(2)}, state, cfg)
    adam_update(params, {"p": np.ones(2)}, state, cfg)
    assert state.k == 2
    assert np.all(state.m["p"] > 0)


# -- normalization ------------------------------------------------------------

def test_normalization_round_trip():
    rng = np.random.default_rng(2)
    feats = rng.uniform(-5, 20, size=(50, 3))
    targs = rng.uniform(0, 12, size=50)
    spec = NormalizationSpec.fit(feats, targs)
    fn = spec.transform(feats)
    assert fn.min() == pytest.approx(0.0)
    assert fn.max() == pytest.approx(1.0)
    tn = spec.transform_target(targs)
    back = spec.inverse_target(tn)
    assert np.allclose(back, targs, atol=1e-12)


def test_normalization_degenerate_feature_maps_to_zero():
    feats = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    spec = NormalizationSpec.fit(feats, np.arange(10.0))
    out = spec.transform(feats)
    assert np.all(out[:, 0] == 0.0)
    assert out[:, 1].max() == 1.0


def test_normalization_is_unclamped_outside_fit_range():
    feats = np.arange(10.0)[:, None]
    spec = NormalizationSpec.fit(feats, np.arange(10.0))
    assert spec.transform(np.array([[18.0]]))[0, 0] == pytest.approx(2.0)


# -- training ----------------------------------------------------------------

def make_line_dataset(n=120, lookback=5, noise=0.0, seed=0):
    """Next value of a scaled sine; easy for a tiny LSTM."""
    rng = np.random.default_rng(seed)
    series = 0.5 + 0.4 * np.sin(np.arange(n + 1) / 6.0)
    series = series + noise * rng.normal(size=n + 1)
    X = np.stack([np.column_stack([series[i:i + lookback]])
                  for i in range(n - lookback)])
    y = series[lookback:n]
    return X, y


def test_training_reduces_loss_and_overfits_small_data():
    X, y = make_line_dataset()
    m = LstmRegressor(input_dim=1, hidden1=8, hidden2=4, seed=0)
    cfg = TrainingConfig(epochs=60, batch_size=16, learning_rate=0.01, seed=0)
    res = train(m, X, y, cfg)
    assert len(res.train_mae) == 60
    assert res.train_mae[-1] < 0.5 * res.train_mae[0]
    assert res.train_mae[-1] < 0.05


def test_training_is_deterministic():
    X, y = make_line_dataset()
    finals = []
    for _ in range(2):
        m = LstmRegressor(1, 6, 3, seed=4)
        res = train(m, X, y, TrainingConfig(epochs=5, batch_size=16, seed=4))
        finals.append((res.train_mae, {k: v.copy() for k, v in m.params.items()}))
    assert finals[0][0] == finals[1][0]
    for name in PARAM_NAMES:
        assert np.array_equal(finals[0][1][name], finals[1][1][name])


def test_validation_curve_recorded():
    X, y = make_line_dataset()
    m = LstmRegressor(1, 6, 3, seed=1)
    res = train(m, X[:80], y[:80], TrainingConfig(epochs=4, batch_size=16),
                X_val=X[80:], y_val=y[80:])
    assert len(res.val_mae) == 4


def test_divergence_raises_numeric_error():
    X, y = make_line_dataset()
    m = LstmRegressor(1, 6, 3, seed=1)
    m.params["Wd"][:] = np.nan
    with pytest.raises(NumericError):
        train(m, X, y, TrainingConfig(epochs=1, batch_size=16))


def test_state_round_trip():
    m = LstmRegressor(2, 5, 3, seed=9)
    arrays = m.state_arrays()
    m2 = LstmRegressor.from_state(2, 5, 3, arrays)
    X = np.random.default_rng(0).normal(size=(3, 4, 2))
    assert np.array_equal(m.forward(X), m2.forward(X))
    bad = dict(arrays)
    bad["Wd"] = np.zeros((4, 1))
    with pytest.raises(DataError):
        LstmRegressor.from_state(2, 5, 3, bad)
