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
        oracles.gate_slot(p, name)[...] = val
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
    state, _ = nn.lstm_forward_sequence(np.array([[[1.0, -2.0, 0.5]]]), p)
    assert np.all(state.h == 0.0)
    assert np.all(state.c == 0.0)


def test_lstm_step_matches_scalar_oracle():
    w = uniform_weights(0.1)
    w["b_i"] = w["b_f"] = w["b_c"] = w["b_o"] = 0.0
    p = scalar_params(w)
    batch, _ = nn.lstm_forward_sequence(np.array([[[1.0]]]), p)
    state = nn.LstmState(h=batch.h[0], c=batch.c[0])  # the batch's one row
    h_ref, c_ref = oracles.lstm_step_scalar(1.0, 0.0, 0.0, w)
    assert state.h[0] == pytest.approx(h_ref, abs=1e-14)
    assert state.c[0] == pytest.approx(c_ref, abs=1e-14)


def test_lstm_sequence_matches_chained_oracle():
    rng = np.random.default_rng(11)
    w = {name: float(rng.uniform(-0.4, 0.4)) for name in uniform_weights(0).keys()}
    p = scalar_params(w)
    xs = [0.5, -0.2, 0.9]
    batch, caches = nn.lstm_forward_sequence(np.array(xs)[None, :, None], p)
    state = nn.LstmState(h=batch.h[0], c=batch.c[0])
    h_ref, c_ref = oracles.lstm_sequence_scalar(xs, w)
    assert len(caches) == 3
    assert state.h[0] == pytest.approx(h_ref, abs=1e-13)
    assert state.c[0] == pytest.approx(c_ref, abs=1e-13)


def test_lstm_empty_sequence_rejected():
    p = nn.LstmCellParams.zeros(2, 2)
    with pytest.raises(ShapeError):
        nn.lstm_forward_sequence(np.zeros((1, 0, 2)), p)


def test_lstm_dimension_mismatch():
    p = nn.LstmCellParams.zeros(2, 2)
    with pytest.raises(ShapeError):
        nn.lstm_forward_sequence(np.zeros((1, 1, 3)), p)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_lstm_hidden_state_bounded(seed):
    rng = np.random.default_rng(seed)
    p = nn.LstmCellParams.init(3, 4, rng)
    xs = rng.normal(scale=3.0, size=(1, 5, 3))
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
    xs = rng.normal(size=(1, steps, input_dim))
    w_out = rng.normal(size=hidden_dim)

    _, state, caches = lstm_loss_closure(xs, p, w_out)()
    g = nn.lstm_backward_sequence(caches, w_out[None, :], p)
    err = oracles.gradient_check(lambda: lstm_loss_closure(xs, p, w_out)()[0], p, g)
    assert err <= tol, f"max relative gradient error {err}"


def test_lstm_backward_tiny():
    check_lstm_gradients(seed=5, input_dim=1, hidden_dim=1, steps=2, tol=1e-5)


def test_lstm_backward_small_network():
    check_lstm_gradients(seed=9, input_dim=3, hidden_dim=4, steps=5, tol=1e-4)


def test_lstm_backward_many_draws():
    for seed in range(20):
        check_lstm_gradients(seed=100 + seed, input_dim=2, hidden_dim=2, steps=3, tol=1e-4)


@pytest.mark.parametrize("batch", [1, 512])
def test_lstm_backward_matches_axis_sum_oracle(batch):
    """BLAS batch sums change only the summation order: in float64 every
    gradient leaf agrees with the per-step `np.sum` BPTT within 1e-12 of its
    largest entry (T=20, h=32)."""
    rng = np.random.default_rng(24 + batch)
    p = nn.LstmCellParams.init(2, 32, rng)
    _, caches = nn.lstm_forward_sequence(rng.normal(size=(batch, 20, 2)), p)
    dh = rng.normal(size=(batch, 32))
    g = nn.lstm_backward_sequence(caches, dh, p)
    want = oracles.lstm_backward_axis_sums(caches, dh, p)
    for name, arr in nn.param_leaves(g):
        assert arr.shape == want[name].shape
        assert np.max(np.abs(arr - want[name])) <= 1e-12 * np.max(np.abs(want[name])), name


def test_lstm_backward_zero_upstream():
    rng = np.random.default_rng(2)
    p = nn.LstmCellParams.init(2, 3, rng)
    _, caches = nn.lstm_forward_sequence(rng.normal(size=(1, 4, 2)), p)
    g = nn.lstm_backward_sequence(caches, np.zeros((1, 3)), p)
    for _, arr in nn.param_leaves(g):
        assert np.all(arr == 0.0)


def test_lstm_backward_rejects_upstream_shape():
    rng = np.random.default_rng(22)
    p = nn.LstmCellParams.init(2, 3, rng)
    _, caches = nn.lstm_forward_sequence(rng.normal(size=(6, 5, 2)), p)
    with pytest.raises(ShapeError):
        nn.lstm_backward_sequence(caches, np.zeros((5, 3)), p)
    with pytest.raises(ShapeError):
        nn.lstm_backward_sequence([], np.zeros((6, 3)), p)


def test_lstm_forward_without_cache_same_state():
    rng = np.random.default_rng(23)
    p = nn.LstmCellParams.init(2, 3, rng)
    xs = rng.normal(size=(4, 7, 2))
    _, caches = nn.lstm_forward_sequence(xs, p)
    s2, none = nn.lstm_forward_sequence(xs, p, cache=False)
    assert len(caches) == 7 and none is None
    # the cached pass one row at a time (see the neuralnet module notes)
    rows = [nn.lstm_forward_sequence(xs[r:r + 1], p)[0] for r in range(len(xs))]
    np.testing.assert_array_equal(np.concatenate([s.h for s in rows]), s2.h)
    np.testing.assert_array_equal(np.concatenate([s.c for s in rows]), s2.c)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_kernels_compute_in_the_parameters_dtype(dtype):
    """From float64 inputs, states, caches, outputs and gradients all come
    out in the parameters' dtype."""
    rng = np.random.default_rng(24)
    p = nn.clone_params(nn.LstmCellParams.init(2, 3, rng), dtype)
    state, caches = nn.lstm_forward_sequence(rng.normal(size=(4, 5, 2)), p)
    assert {a.dtype for a in (state.h, state.c, *caches[-1])} == {np.dtype(dtype)}
    g = nn.lstm_backward_sequence(caches, rng.normal(size=(4, 3)), p)
    assert {a.dtype for _, a in nn.param_leaves(g)} == {np.dtype(dtype)}
    assert nn.lstm_forward_sequence(rng.normal(size=(4, 5, 2)), p, cache=False)[0].h.dtype == dtype

    for activation in ("identity", "tanh"):
        d = nn.clone_params(nn.DenseParams.init(3, 2, activation, rng), dtype)
        y, cache = nn.dense_forward(state.h.astype(np.float64), d)
        grads, dx = nn.dense_backward(cache, rng.normal(size=(4, 2)), d)
        assert {y.dtype, dx.dtype, grads.W.dtype, grads.b.dtype} == {np.dtype(dtype)}


# ---------------------------------------------------------------------------
# dense layer


def test_dense_identity():
    p = nn.DenseParams(W=np.eye(3), b=np.zeros(3), activation="identity")
    x = np.array([[1.0, -2.0, 0.5]])
    y, _ = nn.dense_forward(x, p)
    np.testing.assert_array_equal(y, x)
    # the model applies its output function itself: no layer is sigmoid or softmax
    for activation in ("sigmoid", "softmax"):
        with pytest.raises(ConfigError):
            nn.DenseParams(W=np.eye(3), b=np.zeros(3), activation=activation)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    y = nn.softmax(rng.normal(size=(50, 7)) * 10)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("activation", ["identity", "tanh"])
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
    err = oracles.gradient_check(loss, p, g)
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
    # a batch mean over rows, one of them with a zero-probability bin
    P = [[0.5, 0.5], [1.0, 0.0]]
    Q = [[0.25, 0.75], [0.5, 0.5]]
    assert nn.kl_loss(np.array(P), np.array(Q)) == pytest.approx(
        oracles.kl_scalar(P, Q), abs=1e-12)


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
    grads = nn.DenseParams(W=np.zeros((1, 1)), b=np.zeros(1))
    state = nn.AdamState()
    nn.adam_step(p, grads, state, lr=0.005)
    assert p.W[0, 0] == 1.0 and p.b[0] == 2.0


def test_adam_first_step_closed_form():
    p = nn.DenseParams(W=np.array([[0.0]]), b=np.array([0.0]), activation="identity")
    grads = nn.DenseParams(W=np.array([[1.0]]), b=np.zeros(1))
    nn.adam_step(p, grads, nn.AdamState(), lr=0.005)
    assert p.W[0, 0] == pytest.approx(oracles.adam_first_step(1.0, 0.005), abs=1e-12)
    assert p.W[0, 0] == pytest.approx(-0.005, abs=1e-8)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(55)
        p = nn.DenseParams.init(3, 2, "identity", rng)
        state = nn.AdamState()
        for _ in range(10):
            grads = nn.DenseParams(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
            nn.adam_step(p, grads, state, lr=0.01)
        return p.W.tobytes() + p.b.tobytes()

    assert run() == run()


def test_adam_rejects_bad_lr():
    p = nn.DenseParams(W=np.zeros((1, 1)), b=np.zeros(1), activation="identity")
    grads = nn.DenseParams(W=np.zeros((1, 1)), b=np.zeros(1))
    with pytest.raises(ConfigError):
        nn.adam_step(p, grads, nn.AdamState(), lr=0.0)


def test_adam_rejects_incongruent_gradients():
    p = nn.LstmCellParams.zeros(2, 3)
    state = nn.AdamState()
    wrong_shape = nn.LstmCellParams.zeros(2, 4)
    with pytest.raises(ShapeError):
        nn.adam_step(p, wrong_shape, state, lr=0.005)
    wrong_structure = nn.DenseParams(W=np.zeros((3, 2)), b=np.zeros(3))
    with pytest.raises(ShapeError):
        nn.adam_step(p, wrong_structure, state, lr=0.005)
    assert state.t == 0 and not state.m  # rejected before any update


# ---------------------------------------------------------------------------
# gradient checker itself


def test_gradient_check_linear_exact():
    p = nn.DenseParams(W=np.array([[2.0, -1.0]]), b=np.array([0.5]), activation="identity")
    x = np.array([[0.3, 0.7]])

    def loss():
        y, _ = nn.dense_forward(x, p)
        return float(y[0, 0])

    analytic = nn.DenseParams(W=x.copy(), b=np.ones(1))
    assert oracles.gradient_check(loss, p, analytic) <= 1e-10


def test_gradient_check_detects_corruption():
    rng = np.random.default_rng(77)
    p = nn.DenseParams.init(3, 2, "tanh", rng)
    x = rng.normal(size=(1, 3))
    w_out = rng.normal(size=(1, 2))

    def loss():
        y, _ = nn.dense_forward(x, p)
        return float(np.sum(y * w_out))

    _, cache = nn.dense_forward(x, p)
    g, _ = nn.dense_backward(cache, w_out, p)
    corrupted = nn.DenseParams(W=g.W * 1.1, b=g.b * 1.1)
    assert oracles.gradient_check(loss, p, corrupted) >= 0.05
