"""Minimal dense numeric core: activations, a peephole LSTM cell, dense
layers (identity or tanh), regression/distribution losses and Adam.

Every kernel computes in the dtype of its parameters: the LSTM passes cast
each step's input and allocate their state, gradients and accumulators in
`W_x`'s dtype, and the dense passes cast their input and upstream gradient
to `W`'s. The activations keep a floating input's dtype. Parameters are
float64 except for the float32 working copy that training computes with, so
every other path runs in float64. A layer's parameters live in a plain
dataclass whose `arrays()` lists them in field order; the model keeps all of
them in one flat array (see `model.param_layout`), so the optimizer,
`adam_step`, is one update over flat parameter, gradient and moment arrays.

An LSTM cell is stored gate-major: `W_x` (4, hidden, input), `W_h`
(4, hidden, hidden) and `b` (4, hidden) hold the gates in the order input,
forget, candidate, output; the diagonal peepholes `w_peep` (3, hidden) are
in the order input, forget, output.

Two forward passes share the layer math. The cached (batched) pass,
`lstm_forward_sequence(..., cache=True)` and `dense_forward(..., cache=True)`,
keeps what the backward passes need (for the LSTM one step cache per time
step, O(batch * steps * hidden) floats) and multiplies the whole batch in
one BLAS call per gate; it serves training and every loss or metric the
trainer computes (validation loss, grid metric). The cache-free pass
keeps no step state, so it holds O(batch * hidden) floats, and computes
every product row by row (`_rowwise_matmul`): each row goes
through the same vector-matrix call, with the same shapes and strides, that
a batch of one makes. A cache-free row's bits therefore cannot depend on
the batch around it: cache-free rows are batch-invariant and equal the
cached pass at batch 1. It serves only predictions (`predict`, the engine,
and the test-set predictions that `train` and `evaluate` score), where that
matters. A batched BLAS product may round a row differently from that row
alone, so on larger batches the two passes can differ in the last bit.

The backward passes reduce over the batch axis with one rule: a sum over
rows is a product with a ones vector of the batch length (`batch_sum`).
That is one BLAS call, where `np.sum(..., axis=0)` adds row by row with an
inner loop only `hidden` long. Only the summation order differs from
`np.sum`, so gradients move in their low bits, not more.

At batch 1 a step's cost is the number of NumPy calls, not arithmetic, so
the LSTM step fuses its element-wise gate ops (one op for the i and f
peepholes, one for the i, f and z biases, one sigmoid over i and f) and a
sequence transposes its weights once. Fusing changes no element's order of
operations, only how many elements one call covers, so every pass gives the
same bits as one op per gate. The two products are never fused into one
`[x, h]` product or hoisted out of the step loop: either would change the
summation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

ACTIVATIONS = ("identity", "tanh")


# ---------------------------------------------------------------------------
# activations


def _sigmoid_(a):
    """Logistic sigmoid of floating array `a`, in place, as 0.5*tanh(a/2) + 0.5.

    tanh saturates to +-1 on both tails, so nothing overflows and no branch
    is needed. In float64, results agree with 1/(1+e^-a) to within 2.3e-16
    absolute, so values below about 1e-16 (a < -37) lose their relative
    precision. The constant has `a`'s own dtype: a Python float takes a
    slower scalar path in an in-place op, and a float64 one would round a
    float32 array differently.
    """
    half = a.dtype.type(0.5)
    a *= half
    np.tanh(a, out=a)
    a *= half
    a += half
    return a


def _float_dtype(x):
    """A floating input's own dtype; float64 for anything else."""
    dtype = np.asarray(x).dtype
    return dtype if dtype.kind == "f" else np.dtype(np.float64)


def sigmoid(x):
    """Logistic sigmoid, numerically stable on both tails."""
    out = _sigmoid_(np.array(x, dtype=_float_dtype(x)))
    if out.ndim == 0:
        return float(out)
    return out


def softmax(x):
    """Softmax over the last axis."""
    x = np.asarray(x, dtype=_float_dtype(x))
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def apply_activation_(z, activation):
    """A dense layer's activation, identity or tanh, of floating array `z`,
    computed in place, so `z` is consumed."""
    if activation == "identity":
        return z
    if activation == "tanh":
        return np.tanh(z, out=z)
    raise ConfigError(f"unknown activation {activation!r}")


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class LstmCellParams:
    """Weights of one peephole LSTM cell, gate-major (see the module notes)."""

    W_x: np.ndarray     # (4, hidden, input)
    W_h: np.ndarray     # (4, hidden, hidden)
    w_peep: np.ndarray  # (3, hidden)
    b: np.ndarray       # (4, hidden)

    @classmethod
    def zeros(cls, input_dim, hidden_dim, dtype=np.float64):
        d, h = int(input_dim), int(hidden_dim)
        if d <= 0 or h <= 0:
            raise ConfigError("LSTM dims must be positive")
        return cls(W_x=np.zeros((4, h, d), dtype), W_h=np.zeros((4, h, h), dtype),
                   w_peep=np.zeros((3, h), dtype), b=np.zeros((4, h), dtype))

    @classmethod
    def init(cls, input_dim, hidden_dim, rng):
        return cls.zeros(input_dim, hidden_dim).draw(rng)

    def draw(self, rng):
        """Draw W_x, W_h, then w_peep in place, uniform in [-1/sqrt(fan_in),
        1/sqrt(fan_in)], and set the forget bias to 1.0; returns self."""
        for w in (self.W_x, self.W_h, self.w_peep):
            bound = 1.0 / np.sqrt(w.shape[-1])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        self.b[1] = 1.0
        return self

    def arrays(self):
        """W_x, W_h, w_peep and b, in field order."""
        return self.W_x, self.W_h, self.w_peep, self.b

    @property
    def input_dim(self):
        return self.W_x.shape[2]

    @property
    def hidden_dim(self):
        return self.W_x.shape[1]


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray


@dataclass
class DenseParams:
    W: np.ndarray  # (out_dim, in_dim)
    b: np.ndarray  # (out_dim,)
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    @classmethod
    def init(cls, in_dim, out_dim, activation, rng):
        return cls(np.zeros((out_dim, in_dim)), np.zeros(out_dim), activation).draw(rng)

    def draw(self, rng):
        """Draw W in place, uniform in [-1/sqrt(in_dim), 1/sqrt(in_dim)];
        returns self."""
        bound = 1.0 / np.sqrt(self.in_dim)
        self.W[...] = rng.uniform(-bound, bound, size=self.W.shape)
        return self

    def arrays(self):
        """W and b, in field order."""
        return self.W, self.b

    @property
    def in_dim(self):
        return self.W.shape[1]

    @property
    def out_dim(self):
        return self.W.shape[0]


# ---------------------------------------------------------------------------
# LSTM forward / backward


def _rowwise_matmul(x, w_t):
    """`x @ w_t` for a (batch, in) `x` and an (..., in, out) `w_t`, with one
    BLAS vector-matrix call per (leading index of `w_t`, row of `x`).

    Each call sees the shapes and strides of a batch of one, so a row's
    result is independent of the other rows; the batched `np.matmul` may
    block rows differently and round them differently. A batch of one
    makes those same calls through `np.matmul` itself, with less set-up.
    """
    if len(x) == 1:
        return np.matmul(x, w_t)
    return np.matmul(x[:, None, :], w_t[..., None, :, :])[..., 0, :]


def _lstm_step(x, h_prev, c_prev, p, w_xt, w_ht, product):
    """The cell math on validated (batch, dim) arrays of the parameters' dtype:

    i = sig(W_x[0] x + W_h[0] h' + w_peep[0]*c' + b[0])
    f = sig(W_x[1] x + W_h[1] h' + w_peep[1]*c' + b[1])
    z = W_x[2] x + W_h[2] h' + b[2]
    c = f*c' + i*tanh(z)
    o = sig(W_x[3] x + W_h[3] h' + w_peep[2]*c + b[3])
    h = o*tanh(c)

    The four gate pre-activations come from two stacked products, made by
    `product` (`np.matmul` or `_rowwise_matmul`) with the transposed weights
    `w_xt`, `w_ht`, into one (4, batch, hidden) array `a` that then holds
    the activated gates i, f, tanh(z), o. The element-wise gate ops are
    fused: one op adds the i and f peephole terms, one adds the i, f and z
    biases, one sigmoid activates i and f. Every element still goes through
    the same operations in the same order (product, product, peephole, bias,
    activation), so the fused step rounds exactly as one op per gate would.
    Returns (h, c, cache); cache is the tuple (x, h_prev, c_prev, a, c, tc)
    that the backward pass reads.
    """
    a = product(x, w_xt)
    a += product(h_prev, w_ht)
    a[:2] += p.w_peep[:2, None, :] * c_prev
    a[:3] += p.b[:3, None, :]
    _sigmoid_(a[:2])
    np.tanh(a[2], out=a[2])
    c = a[1] * c_prev
    c += a[0] * a[2]
    o = a[3]
    o += p.w_peep[2] * c
    o += p.b[3]
    _sigmoid_(o)
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, a, c, tc)


def lstm_forward_sequence(xs, p, cache=True):
    """Fold the cell over a (batch, steps, input_dim) sequence; returns
    (final LstmState, caches).

    The branch output is the hidden state after the last step. `caches`
    holds one step cache per step, or is None when `cache=False`, whose
    products are row-wise (see the module notes). Each step's input is cast
    to the parameters' dtype as it is read, so a cache-free pass over a whole
    float64 validation set never holds a float32 copy of it.
    """
    xs = np.asarray(xs)
    if xs.ndim != 3 or xs.shape[2] != p.input_dim:
        raise ShapeError(f"sequence shape {xs.shape} incompatible with input_dim {p.input_dim}")
    if xs.shape[1] == 0:
        raise ShapeError("empty LSTM input sequence")

    dtype = p.W_x.dtype
    h = c = np.zeros((xs.shape[0], p.hidden_dim), dtype)
    caches = [] if cache else None
    product = np.matmul if cache else _rowwise_matmul
    w_xt, w_ht = p.W_x.transpose(0, 2, 1), p.W_h.transpose(0, 2, 1)
    for t in range(xs.shape[1]):
        h, c, step = _lstm_step(xs[:, t, :].astype(dtype, copy=False), h, c, p,
                                w_xt, w_ht, product)
        if cache:
            caches.append(step)
    return LstmState(h=h, c=c), caches


def batch_sum(a):
    """Sum of a (..., batch, n) array over its batch axis, as one BLAS
    product with a ones vector of the batch length (see the module notes)."""
    return np.matmul(np.ones(a.shape[-2], a.dtype), a)


def lstm_backward_sequence(caches, dh_final, p):
    """BPTT over a cached forward pass; returns the parameter gradients as
    an LstmCellParams. `dh_final` is the (batch, hidden) upstream gradient
    on the last hidden state.
    """
    if not caches:
        raise ShapeError("no caches to backpropagate through")
    dh = np.asarray(dh_final, dtype=p.W_x.dtype)
    if dh.shape != caches[0][1].shape:
        raise ShapeError(f"upstream gradient shape {dh.shape} does not match the caches")

    g = LstmCellParams.zeros(p.input_dim, p.hidden_dim, dh.dtype)
    dc_carry = np.zeros_like(dh)
    ones = np.ones(len(dh), dh.dtype)  # batch_sum's vector, made once per sequence
    for x, h_prev, c_prev, a, c, tc in reversed(caches):
        i, f, tz, o = a
        da = np.empty_like(a)
        da_i, da_f, dz, da_o = da

        np.multiply(dh, tc, out=da_o)
        da_o *= o
        da_o *= 1.0 - o
        dc = dh * o
        dc *= 1.0 - tc * tc
        dc += dc_carry
        dc += da_o * p.w_peep[2]
        np.multiply(dc, i, out=dz)
        dz *= 1.0 - tz * tz
        np.multiply(dc, tz, out=da_i)
        da_i *= i
        da_i *= 1.0 - i
        np.multiply(dc, c_prev, out=da_f)
        da_f *= f
        da_f *= 1.0 - f

        g.W_x += np.matmul(da.transpose(0, 2, 1), x)
        g.W_h += np.matmul(da.transpose(0, 2, 1), h_prev)
        g.w_peep[:2] += np.matmul(ones, da[:2] * c_prev)
        g.w_peep[2] += np.matmul(ones, da_o * c)
        g.b += np.matmul(ones, da)

        dh = np.matmul(da, p.W_h).sum(axis=0)
        dc *= f
        dc += da_i * p.w_peep[0]
        dc += da_f * p.w_peep[1]
        dc_carry = dc
    return g


# ---------------------------------------------------------------------------
# dense layer


def _as_batch(x, dtype, dim, what):
    """`x` as a (batch, dim) array of `dtype`."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"{what}: expected (batch, {dim}), got {x.shape}")
    return x


def dense_forward(x, p, cache=True):
    """W x + b followed by the layer's activation (identity or tanh), on a
    (batch, in_dim) `x`; returns (y, cache).

    The activation overwrites the fresh pre-activation: the backward pass
    needs only `x` and `y`. With `cache=False` (inference) the product is
    row-wise and the cache is None (see the module notes)."""
    x = _as_batch(x, p.W.dtype, p.in_dim, "dense input")
    z = (np.matmul if cache else _rowwise_matmul)(x, p.W.T)
    z += p.b
    y = apply_activation_(z, p.activation)
    return y, ({"x": x, "y": y} if cache else None)


def dense_backward(cache, dy, p):
    """Gradients of a dense layer; returns (DenseParams grads, dx)."""
    x, y = cache["x"], cache["y"]
    dy = _as_batch(dy, p.W.dtype, p.out_dim, "dense upstream")
    if p.activation == "identity":
        dz = dy
    elif p.activation == "tanh":
        dz = dy * (1.0 - y * y)
    else:
        raise ConfigError(f"unknown activation {p.activation!r}")
    grads = DenseParams(W=dz.T @ x, b=batch_sum(dz), activation=p.activation)
    return grads, dz @ p.W


# ---------------------------------------------------------------------------
# losses


def _check_same_shape(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return np.atleast_2d(a), np.atleast_2d(b)


def mmse_loss(Y, Yhat, alpha):
    """Weighted MSE with exp(-alpha*(1-y)) up-weighting high-load targets."""
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    Y, Yhat = _check_same_shape(Y, Yhat)
    w = np.exp(-alpha * (1.0 - Y))
    return float(np.mean(w * (Y - Yhat) ** 2))


def mmse_gradient(Y, Yhat, alpha):
    """d mmse_loss / d Yhat, same shape as Yhat."""
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    Y2, Yhat2 = _check_same_shape(Y, Yhat)
    w = np.exp(-alpha * (1.0 - Y2))
    g = -2.0 * w * (Y2 - Yhat2) / Y2.size
    return g.reshape(np.shape(Yhat))

KL_FLOOR = 1e-8


def _check_histograms(M, what):
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    if np.any(M < 0):
        raise ShapeError(f"{what}: negative histogram entry")
    sums = M.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ShapeError(f"{what}: rows must sum to 1 (max deviation {np.max(np.abs(sums - 1.0)):.3e})")
    return M


def _floor_renormalize(Q):
    Qf = np.maximum(Q, KL_FLOOR)
    return Qf / Qf.sum(axis=1, keepdims=True)


def kl_loss(P, Q):
    """Mean KL divergence over rows: (1/n) sum_i KL(P_i || Q_i).

    Predicted rows are floored at 1e-8 and renormalized before the log;
    0*log(0) in the entropy term is taken as 0.
    """
    P = _check_histograms(P, "P")
    Q = _check_histograms(Q, "Q")
    if P.shape != Q.shape:
        raise ShapeError(f"shape mismatch {P.shape} vs {Q.shape}")
    Qf = _floor_renormalize(Q)
    mask = P > 0
    cross = -np.sum(np.where(mask, P * np.log(Qf), 0.0), axis=1)
    entropy = np.sum(np.where(mask, P * np.log(np.where(mask, P, 1.0)), 0.0), axis=1)
    return float(np.mean(cross + entropy))


def kl_grad_logits(P, Q):
    """Gradient of kl_loss w.r.t. the pre-softmax logits producing Q.

    Exact when the 1e-8 floor is inactive, which holds for softmax outputs
    in any realistically-sized model.
    """
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    return (Q - P) / P.shape[0]


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's step count and its first and second moment estimates, one
    element per parameter of the flat parameter array."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(params, grads, state, lr):
    """In-place Adam update of the flat parameter array `params`;
    deterministic given identical inputs.

    `grads` is a flat gradient of the same length, cast to the parameters'
    dtype, so a float32 gradient updates float64 master weights in float64."""
    if lr <= 0:
        raise ConfigError("learning rate must be positive")
    g = np.asarray(grads, dtype=params.dtype)
    if g.shape != params.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match the parameters' {params.shape}")
    state.t += 1
    t = state.t
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = state.m / (1.0 - ADAM_BETA1 ** t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** t)
    params -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state
