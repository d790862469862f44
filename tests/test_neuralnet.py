import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepauto import neuralnet as nn
from deepauto.errors import ConfigError, ShapeError

import oracles


def uniform_weights(value):
    return {name: value for name in (
        "W_xi", "W_hi", "w_ci", "b_i", "W_xf", "W_hf", "w_cf", "b_f",
        "W_xc", "W_hc", "b_c", "W_xo", "W_ho", "w_co", "b_o")}


def scalar_params(w):
    p = nn.LstmCellParams.zeros(1, 1)
    for name, val in w.items():
        arr = getattr(p, name)
        arr[...] = val
    return p


# ---------------------------------------------------------------------------
# sigmoid


def test_sigmoid_values():
    assert nn.sigmoid(0.0) == 0.5
    assert abs(nn.sigmoid(50.0) - 1.0) < 1e-15
    assert abs(nn.sigmoid(1.0) - oracles.sigmoid(1.0)) < 1e-15
    assert abs(nn.sigmoid(1.0) - 0.7310585786) < 1e-9


def test_sigmoid_monotone_and_stable():
    xs = np.linspace(-800, 800, 401)
    ys = nn.sigmoid(xs)
    assert np.all(np.isfinite(ys))
    assert np.all(np.diff(ys) >= 0)


# ---------------------------------------------------------------------------
# LSTM forward


def test_lstm_zero_params_zero_state():
    p = nn.LstmCellParams.zeros(3, 2)
    state, _ = nn.lstm_cell_forward(np.array([1.0, -2.0, 0.5]),
                                    nn.LstmState.zeros(2), p)
    assert np.all(state.h == 0.0)
    assert np.all(state.c == 0.0)


def test_lstm_zero_params_nonzero_cell():
    p = nn.LstmCellParams.zeros(1, 1)
    prev = nn.LstmState(h=np.array([0.3]), c=np.array([1.0]))
    state, _ = nn.lstm_cell_forward(np.array([0.7]), prev, p)
    # gates sigmoid(0)=0.5 -> c = 0.5, h = 0.5*tanh(0.5)
    assert state.c[0] == pytest.approx(0.5, abs=1e-15)
    assert state.h[0] == pytest.approx(0.5 * math.tanh(0.5), abs=1e-12)
    assert state.h[0] == pytest.approx(0.2310585786, abs=1e-9)


def test_lstm_step_matches_scalar_oracle():
    w = uniform_weights(0.1)
    w["b_i"] = w["b_f"] = w["b_c"] = w["b_o"] = 0.0
    p = scalar_params(w)
    state, _ = nn.lstm_cell_forward(np.array([1.0]), nn.LstmState.zeros(1), p)
    h_ref, c_ref = oracles.lstm_step_scalar(1.0, 0.0, 0.0, w)
    assert state.h[0] == pytest.approx(h_ref, abs=1e-14)
    assert state.c[0] == pytest.approx(c_ref, abs=1e-14)


def test_lstm_sequence_matches_chained_oracle():
    rng = np.random.default_rng(11)
    w = {name: float(rng.uniform(-0.4, 0.4)) for name in uniform_weights(0).keys()}
    p = scalar_params(w)
    xs = [0.5, -0.2, 0.9]
    state, caches = nn.lstm_forward_sequence(np.array(xs)[:, None], p)
    h_ref, c_ref = oracles.lstm_sequence_scalar(xs, w)
    assert len(caches) == 3
    assert state.h[0] == pytest.approx(h_ref, abs=1e-13)
    assert state.c[0] == pytest.approx(c_ref, abs=1e-13)


def test_lstm_sequence_single_step_equals_cell():
    rng = np.random.default_rng(3)
    p = nn.LstmCellParams.init(2, 3, rng)
    x = rng.normal(size=(1, 2))
    s1, _ = nn.lstm_forward_sequence(x, p)
    s2, _ = nn.lstm_cell_forward(x[0], nn.LstmState.zeros(3), p)
    np.testing.assert_array_equal(s1.h, s2.h)


def test_lstm_empty_sequence_rejected():
    p = nn.LstmCellParams.zeros(2, 2)
    with pytest.raises(ShapeError):
        nn.lstm_forward_sequence(np.zeros((0, 2)), p)


def test_lstm_dimension_mismatch():
    p = nn.LstmCellParams.zeros(2, 2)
    with pytest.raises(ShapeError):
        nn.lstm_cell_forward(np.zeros(3), nn.LstmState.zeros(2), p)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_lstm_hidden_state_bounded(seed):
    rng = np.random.default_rng(seed)
    p = nn.LstmCellParams.init(3, 4, rng)
    xs = rng.normal(scale=3.0, size=(5, 3))
    state, _ = nn.lstm_forward_sequence(xs, p)
    assert np.all(np.abs(state.h) < 1.0)
    assert np.all(np.isfinite(state.c))


# ---------------------------------------------------------------------------
# LSTM backward vs finite differences


def lstm_loss_closure(xs, p, w_out):
    def run():
        state, caches = nn.lstm_forward_sequence(xs, p)
        return float(np.dot(state.h.ravel(), w_out)), state, caches
    return run


def check_lstm_gradients(seed, input_dim, hidden_dim, steps, tol):
    rng = np.random.default_rng(seed)
    p = nn.LstmCellParams.init(input_dim, hidden_dim, rng)
    xs = rng.normal(size=(steps, input_dim))
    w_out = rng.normal(size=hidden_dim)

    _, state, caches = lstm_loss_closure(xs, p, w_out)()
    g, _, _, _ = nn.lstm_backward_sequence(caches, w_out, p)
    analytic = {name: arr for name, arr in nn.param_leaves(g)}
    err = nn.gradient_check(lambda: lstm_loss_closure(xs, p, w_out)()[0], p, analytic)
    assert err <= tol, f"max relative gradient error {err}"


def test_lstm_backward_tiny():
    check_lstm_gradients(seed=5, input_dim=1, hidden_dim=1, steps=2, tol=1e-5)


def test_lstm_backward_small_network():
    check_lstm_gradients(seed=9, input_dim=3, hidden_dim=4, steps=5, tol=1e-4)


def test_lstm_backward_many_draws():
    for seed in range(20):
        check_lstm_gradients(seed=100 + seed, input_dim=2, hidden_dim=2, steps=3, tol=1e-4)


def test_lstm_backward_zero_upstream():
    rng = np.random.default_rng(2)
    p = nn.LstmCellParams.init(2, 3, rng)
    _, caches = nn.lstm_forward_sequence(rng.normal(size=(4, 2)), p)
    g, dxs, _, _ = nn.lstm_backward_sequence(caches, np.zeros(3), p)
    for _, arr in nn.param_leaves(g):
        assert np.all(arr == 0.0)
    assert np.all(dxs == 0.0)


def test_lstm_backward_without_dx_same_param_grads():
    rng = np.random.default_rng(22)
    p = nn.LstmCellParams.init(2, 3, rng)
    _, caches = nn.lstm_forward_sequence(rng.normal(size=(6, 5, 2)), p)
    dh = rng.normal(size=(6, 3))
    g, dxs, dh0, dc0 = nn.lstm_backward_sequence(caches, dh, p)
    g2, no_dxs, dh0_2, dc0_2 = nn.lstm_backward_sequence(caches, dh, p, need_dx=False)
    assert dxs.shape == (6, 5, 2) and no_dxs is None
    for (name, a), (_, b) in zip(nn.param_leaves(g), nn.param_leaves(g2)):
        np.testing.assert_array_equal(a, b, err_msg=name)
    np.testing.assert_array_equal(dh0, dh0_2)
    np.testing.assert_array_equal(dc0, dc0_2)


def test_lstm_forward_without_cache_same_state():
    rng = np.random.default_rng(23)
    p = nn.LstmCellParams.init(2, 3, rng)
    xs = rng.normal(size=(4, 7, 2))
    init = nn.LstmState(h=rng.normal(size=3), c=rng.normal(size=3))
    s1, caches = nn.lstm_forward_sequence(xs, p, init=init)
    s2, none = nn.lstm_forward_sequence(xs, p, init=init, cache=False)
    assert len(caches) == 7 and none is None
    np.testing.assert_array_equal(s1.h, s2.h)
    np.testing.assert_array_equal(s1.c, s2.c)


def test_lstm_input_gradients_match_fd():
    rng = np.random.default_rng(21)
    p = nn.LstmCellParams.init(2, 3, rng)
    xs = rng.normal(size=(4, 2))
    w_out = rng.normal(size=3)
    _, caches = nn.lstm_forward_sequence(xs, p)
    _, dxs, _, _ = nn.lstm_backward_sequence(caches, w_out, p)
    eps = 1e-5
    for t in range(4):
        for d in range(2):
            orig = xs[t, d]
            xs[t, d] = orig + eps
            up = float(np.dot(nn.lstm_forward_sequence(xs, p)[0].h, w_out))
            xs[t, d] = orig - eps
            down = float(np.dot(nn.lstm_forward_sequence(xs, p)[0].h, w_out))
            xs[t, d] = orig
            fd = (up - down) / (2 * eps)
            assert fd == pytest.approx(dxs[t, d], rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# dense layer


def test_dense_identity():
    p = nn.DenseParams(W=np.eye(3), b=np.zeros(3), activation="identity")
    x = np.array([1.0, -2.0, 0.5])
    y, _ = nn.dense_forward(x, p)
    np.testing.assert_array_equal(y, x)


def test_dense_softmax_symmetry():
    p = nn.DenseParams(W=np.zeros((3, 2)), b=np.zeros(3), activation="softmax")
    y, _ = nn.dense_forward(np.array([1.0, 2.0]), p)
    np.testing.assert_allclose(y, [1 / 3] * 3, atol=1e-15)


def test_dense_sigmoid_closed_form():
    p = nn.DenseParams(W=np.array([[1.0, 1.0]]), b=np.array([1.0]), activation="sigmoid")
    y, _ = nn.dense_forward(np.array([1.0, 1.0]), p)
    assert y[0] == pytest.approx(oracles.sigmoid(3.0), abs=1e-15)
    assert y[0] == pytest.approx(0.9525741268, abs=1e-9)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    y = nn.softmax(rng.normal(size=(50, 7)) * 10)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("activation", ["identity", "sigmoid", "tanh", "softmax"])
def test_dense_backward_matches_fd(activation):
    rng = np.random.default_rng(13)
    p = nn.DenseParams.init(4, 3, activation, rng)
    x = rng.normal(size=(2, 4))
    w_out = rng.normal(size=(2, 3))

    def loss():
        y, _ = nn.dense_forward(x, p)
        return float(np.sum(y * w_out))

    y, cache = nn.dense_forward(x, p)
    g, dx = nn.dense_backward(cache, w_out, p)
    analytic = {"W": g.W, "b": g.b}
    err = nn.gradient_check(loss, p, analytic)
    assert err <= 1e-6


# ---------------------------------------------------------------------------
# losses


def test_mmse_worked_example():
    # n=K=1, y=0.5, yhat=0.7, alpha=4 -> exp(-2) * 0.04
    ref = oracles.mmse_scalar([[0.5]], [[0.7]], 4.0)
    assert ref == pytest.approx(math.exp(-2.0) * 0.04, abs=1e-15)
    assert nn.mmse_loss([[0.5]], [[0.7]], 4.0) == pytest.approx(ref, abs=1e-15)
    assert nn.mmse_loss([[0.5]], [[0.7]], 4.0) == pytest.approx(0.0054134113, abs=1e-9)


def test_mmse_perfect_and_alpha_zero():
    rng = np.random.default_rng(4)
    Y = rng.uniform(size=(6, 3))
    assert nn.mmse_loss(Y, Y, 4.0) == 0.0
    Yhat = rng.uniform(size=(6, 3))
    mse = float(np.mean((Y - Yhat) ** 2))
    assert nn.mmse_loss(Y, Yhat, 0.0) == pytest.approx(mse, abs=1e-12)


def test_mmse_negative_alpha_rejected():
    with pytest.raises(ConfigError):
        nn.mmse_loss([[0.5]], [[0.5]], -1.0)


def test_mmse_gradient_matches_fd():
    rng = np.random.default_rng(8)
    Y = rng.uniform(size=(3, 2))
    Yhat = rng.uniform(size=(3, 2))
    g = nn.mmse_gradient(Y, Yhat, 4.0)
    eps = 1e-6
    for i in range(3):
        for j in range(2):
            orig = Yhat[i, j]
            Yhat[i, j] = orig + eps
            up = nn.mmse_loss(Y, Yhat, 4.0)
            Yhat[i, j] = orig - eps
            down = nn.mmse_loss(Y, Yhat, 4.0)
            Yhat[i, j] = orig
            assert (up - down) / (2 * eps) == pytest.approx(g[i, j], rel=1e-6, abs=1e-10)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_mmse_properties(seed):
    rng = np.random.default_rng(seed)
    Y = rng.uniform(size=(4, 3))
    Yhat = rng.uniform(size=(4, 3))
    alpha = float(rng.uniform(0, 8))
    loss = nn.mmse_loss(Y, Yhat, alpha)
    assert loss >= 0.0
    assert (loss == 0.0) == bool(np.array_equal(Y, Yhat))
    # weight factor grows with y for a fixed residual
    ys = np.sort(rng.uniform(size=10))
    weights = np.exp(-alpha * (1.0 - ys))
    assert np.all(np.diff(weights) >= 0)


def test_kl_worked_examples():
    assert nn.kl_loss([[1.0, 0.0]], [[0.5, 0.5]]) == pytest.approx(math.log(2.0), abs=1e-9)
    ref = oracles.kl_scalar([[0.5, 0.5]], [[0.9, 0.1]])
    assert ref == pytest.approx(0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1), abs=1e-12)
    assert nn.kl_loss([[0.5, 0.5]], [[0.9, 0.1]]) == pytest.approx(ref, abs=1e-12)
    assert nn.kl_loss([[0.5, 0.5]], [[0.9, 0.1]]) == pytest.approx(0.5108256238, abs=1e-9)


def test_kl_identity_and_validation():
    rng = np.random.default_rng(17)
    P = rng.uniform(size=(5, 7))
    P /= P.sum(axis=1, keepdims=True)
    assert nn.kl_loss(P, P) <= 1e-9
    with pytest.raises(ShapeError):
        nn.kl_loss([[0.5, 0.6]], [[0.5, 0.5]])
    with pytest.raises(ShapeError):
        nn.kl_loss([[1.5, -0.5]], [[0.5, 0.5]])


def test_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        P = rng.uniform(size=(1, 6))
        P /= P.sum()
        Q = rng.uniform(size=(1, 6))
        Q /= Q.sum()
        assert nn.kl_loss(P, Q) >= 0.0


def test_kl_grad_logits_matches_fd():
    rng = np.random.default_rng(31)
    P = rng.uniform(size=(3, 5))
    P /= P.sum(axis=1, keepdims=True)
    logits = rng.normal(size=(3, 5))
    Q = nn.softmax(logits)
    g = nn.kl_grad_logits(P, Q)
    eps = 1e-6
    for i in range(3):
        for j in range(5):
            orig = logits[i, j]
            logits[i, j] = orig + eps
            up = nn.kl_loss(P, nn.softmax(logits))
            logits[i, j] = orig - eps
            down = nn.kl_loss(P, nn.softmax(logits))
            logits[i, j] = orig
            assert (up - down) / (2 * eps) == pytest.approx(g[i, j], rel=1e-5, abs=1e-9)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_keeps_params():
    p = nn.DenseParams(W=np.array([[1.0]]), b=np.array([2.0]), activation="identity")
    grads = nn.GradientBundle({"W": np.zeros((1, 1)), "b": np.zeros(1)})
    state = nn.AdamState()
    nn.adam_step(p, grads, state, lr=0.005)
    assert p.W[0, 0] == 1.0 and p.b[0] == 2.0


def test_adam_first_step_closed_form():
    p = nn.DenseParams(W=np.array([[0.0]]), b=np.array([0.0]), activation="identity")
    grads = nn.GradientBundle({"W": np.array([[1.0]]), "b": np.zeros(1)})
    nn.adam_step(p, grads, nn.AdamState(), lr=0.005)
    assert p.W[0, 0] == pytest.approx(oracles.adam_first_step(1.0, 0.005), abs=1e-12)
    assert p.W[0, 0] == pytest.approx(-0.005, abs=1e-8)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(55)
        p = nn.DenseParams.init(3, 2, "identity", rng)
        state = nn.AdamState()
        for _ in range(10):
            grads = nn.GradientBundle({"W": rng.normal(size=(2, 3)), "b": rng.normal(size=2)})
            nn.adam_step(p, grads, state, lr=0.01)
        return p.W.tobytes() + p.b.tobytes()

    assert run() == run()


def test_adam_rejects_bad_lr():
    p = nn.DenseParams(W=np.zeros((1, 1)), b=np.zeros(1), activation="identity")
    grads = nn.GradientBundle({"W": np.zeros((1, 1)), "b": np.zeros(1)})
    with pytest.raises(ConfigError):
        nn.adam_step(p, grads, nn.AdamState(), lr=0.0)


# ---------------------------------------------------------------------------
# gradient checker itself


def test_gradient_check_linear_exact():
    p = nn.DenseParams(W=np.array([[2.0, -1.0]]), b=np.array([0.5]), activation="identity")
    x = np.array([0.3, 0.7])

    def loss():
        y, _ = nn.dense_forward(x, p)
        return float(y[0])

    analytic = {"W": x[None, :].copy(), "b": np.ones(1)}
    assert nn.gradient_check(loss, p, analytic) <= 1e-10


def test_gradient_check_detects_corruption():
    rng = np.random.default_rng(77)
    p = nn.DenseParams.init(3, 2, "sigmoid", rng)
    x = rng.normal(size=3)
    w_out = rng.normal(size=2)

    def loss():
        y, _ = nn.dense_forward(x, p)
        return float(np.dot(y, w_out))

    _, cache = nn.dense_forward(x, p)
    g, _ = nn.dense_backward(cache, w_out, p)
    corrupted = {"W": g.W * 1.1, "b": g.b * 1.1}
    assert nn.gradient_check(loss, p, corrupted) >= 0.05
