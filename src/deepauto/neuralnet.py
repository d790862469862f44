"""Minimal dense numeric core: activations, a peephole LSTM cell, dense
layers, regression/distribution losses, Adam, and a finite-difference
gradient checker.

Everything is float64 numpy. Parameters live in plain dataclasses; the
generic `param_leaves` walker exposes them as (name, array) pairs so the
optimizer and the gradient checker stay agnostic of the model structure.

Memory contract of the LSTM passes:

- `lstm_forward_sequence(..., cache=True)` keeps one step cache per time
  step, O(batch * steps * hidden) floats, which `lstm_backward_sequence`
  needs. With `cache=False` it keeps no step state and returns `None` for
  the caches: the pass holds O(batch * hidden) floats, and the final state
  is bit-identical to the cached pass. Inference uses `cache=False`.
- `lstm_backward_sequence(..., need_dx=True)` also returns the gradient on
  the inputs. With `need_dx=False` it skips those products and returns
  `None` in its place; the parameter gradients are bit-identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError

ACTIVATIONS = ("identity", "relu", "sigmoid", "softmax", "tanh")


# ---------------------------------------------------------------------------
# activations


def _sigmoid_(a):
    """Logistic sigmoid of float64 array `a`, in place, as 0.5*tanh(a/2) + 0.5.

    tanh saturates to +-1 on both tails, so nothing overflows and no branch
    is needed. Results agree with 1/(1+e^-a) to within 2.3e-16 absolute, so
    values below about 1e-16 (a < -37) lose their relative precision.
    """
    a *= 0.5
    np.tanh(a, out=a)
    a *= 0.5
    a += 0.5
    return a


def sigmoid(x):
    """Logistic sigmoid, numerically stable on both tails."""
    out = _sigmoid_(np.array(x, dtype=np.float64))
    if out.ndim == 0:
        return float(out)
    return out


def softmax(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def relu(x):
    return np.maximum(x, 0.0)


def apply_activation(z, activation):
    if activation == "identity":
        return z
    if activation == "relu":
        return relu(z)
    if activation == "sigmoid":
        return sigmoid(z)
    if activation == "tanh":
        return np.tanh(z)
    if activation == "softmax":
        return softmax(z, axis=-1)
    raise ConfigError(f"unknown activation {activation!r}")


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class LstmCellParams:
    """Weights of one peephole LSTM cell.

    Gate weights are (hidden, input) / (hidden, hidden) matrices; the
    peephole connections w_ci/w_cf/w_co are diagonal, stored as vectors.
    """

    input_dim: int
    hidden_dim: int
    W_xi: np.ndarray
    W_xf: np.ndarray
    W_xc: np.ndarray
    W_xo: np.ndarray
    W_hi: np.ndarray
    W_hf: np.ndarray
    W_hc: np.ndarray
    W_ho: np.ndarray
    w_ci: np.ndarray
    w_cf: np.ndarray
    w_co: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray

    @classmethod
    def zeros(cls, input_dim, hidden_dim):
        d, h = int(input_dim), int(hidden_dim)
        if d <= 0 or h <= 0:
            raise ConfigError("LSTM dims must be positive")
        m = lambda r, c: np.zeros((r, c))
        v = lambda: np.zeros(h)
        return cls(
            input_dim=d, hidden_dim=h,
            W_xi=m(h, d), W_xf=m(h, d), W_xc=m(h, d), W_xo=m(h, d),
            W_hi=m(h, h), W_hf=m(h, h), W_hc=m(h, h), W_ho=m(h, h),
            w_ci=v(), w_cf=v(), w_co=v(),
            b_i=v(), b_f=v(), b_c=v(), b_o=v(),
        )

    @classmethod
    def init(cls, input_dim, hidden_dim, rng):
        """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)]; forget bias 1.0."""
        p = cls.zeros(input_dim, hidden_dim)
        for name in ("W_xi", "W_xf", "W_xc", "W_xo"):
            bound = 1.0 / np.sqrt(input_dim)
            setattr(p, name, rng.uniform(-bound, bound, size=(hidden_dim, input_dim)))
        bound = 1.0 / np.sqrt(hidden_dim)
        for name in ("W_hi", "W_hf", "W_hc", "W_ho", "w_ci", "w_cf", "w_co"):
            shape = (hidden_dim, hidden_dim) if name.startswith("W") else (hidden_dim,)
            setattr(p, name, rng.uniform(-bound, bound, size=shape))
        p.b_f = np.ones(hidden_dim)
        return p


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_dim, batch=None):
        shape = (hidden_dim,) if batch is None else (batch, hidden_dim)
        return cls(h=np.zeros(shape), c=np.zeros(shape))


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
        bound = 1.0 / np.sqrt(in_dim)
        return cls(
            W=rng.uniform(-bound, bound, size=(out_dim, in_dim)),
            b=np.zeros(out_dim),
            activation=activation,
        )

    @property
    def in_dim(self):
        return self.W.shape[1]

    @property
    def out_dim(self):
        return self.W.shape[0]


def param_leaves(obj, prefix=""):
    """Yield (name, array) pairs for every ndarray reachable from `obj`.

    Walks dataclasses, lists/tuples of dataclasses, and nested dataclasses
    in declaration order, so the ordering is deterministic.
    """
    if isinstance(obj, np.ndarray):
        yield prefix, obj
        return
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            name = f"{prefix}.{f.name}" if prefix else f.name
            yield from param_leaves(value, name)
        return
    if isinstance(obj, (list, tuple)):
        for k, item in enumerate(obj):
            yield from param_leaves(item, f"{prefix}[{k}]")
        return
    # scalars / strings / None: not parameters


def set_leaf(obj, name, value):
    """Replace the array at dotted `name` (as produced by param_leaves)."""
    parts = []
    for chunk in name.split("."):
        if "[" in chunk:
            base, idx = chunk[:-1].split("[")
            parts.append(base)
            parts.append(int(idx))
        else:
            parts.append(chunk)
    target = obj
    for p in parts[:-1]:
        target = target[p] if isinstance(p, int) else getattr(target, p)
    last = parts[-1]
    if isinstance(last, int):
        target[last] = value
    else:
        setattr(target, last, value)


class GradientBundle:
    """Named gradient tensors mirroring a parameter structure."""

    def __init__(self, tensors=None):
        self.tensors = dict(tensors) if tensors else {}

    def add(self, name, grad):
        if name in self.tensors:
            if self.tensors[name].shape != np.shape(grad):
                raise ShapeError(f"gradient shape mismatch for {name}")
            self.tensors[name] = self.tensors[name] + grad
        else:
            self.tensors[name] = np.asarray(grad, dtype=np.float64)

    def __getitem__(self, name):
        return self.tensors[name]

    def __contains__(self, name):
        return name in self.tensors

    def check_congruent(self, params):
        for name, arr in param_leaves(params):
            if name not in self.tensors:
                raise ShapeError(f"missing gradient for {name}")
            if self.tensors[name].shape != arr.shape:
                raise ShapeError(f"gradient shape mismatch for {name}")


def clone_params(params):
    """Deep copy of a parameter structure (arrays copied)."""
    if isinstance(params, np.ndarray):
        return params.copy()
    if dataclasses.is_dataclass(params):
        kwargs = {f.name: clone_params(getattr(params, f.name))
                  for f in dataclasses.fields(params)}
        return type(params)(**kwargs)
    if isinstance(params, list):
        return [clone_params(x) for x in params]
    if isinstance(params, tuple):
        return tuple(clone_params(x) for x in params)
    return params


# ---------------------------------------------------------------------------
# LSTM forward / backward


def _as_batch(x, dim, what):
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"{what}: expected (*, {dim}), got {x.shape}")
    return x, squeeze


def _as_state(prev, batch, p):
    """Validate an LstmState against `batch` rows; returns (h, c) as
    (batch, hidden) arrays, broadcasting a single state over the batch."""
    h, _ = _as_batch(prev.h, p.hidden_dim, "lstm h_prev")
    c, _ = _as_batch(prev.c, p.hidden_dim, "lstm c_prev")
    if h.shape[0] not in (1, batch):
        raise ShapeError("lstm state batch mismatch")
    if h.shape[0] == 1 and batch > 1:
        h = np.broadcast_to(h, (batch, p.hidden_dim))
        c = np.broadcast_to(c, (batch, p.hidden_dim))
    return h, c


def _lstm_step(x, h_prev, c_prev, p):
    """The cell math on validated (batch, dim) float64 arrays.

    Returns (h, c, cache); cache is the tuple
    (x, h_prev, c_prev, i, f, o, tz, c, tc) that the backward pass reads.
    """
    i = x @ p.W_xi.T
    i += h_prev @ p.W_hi.T
    i += p.w_ci * c_prev
    i += p.b_i
    _sigmoid_(i)
    f = x @ p.W_xf.T
    f += h_prev @ p.W_hf.T
    f += p.w_cf * c_prev
    f += p.b_f
    _sigmoid_(f)
    tz = x @ p.W_xc.T
    tz += h_prev @ p.W_hc.T
    tz += p.b_c
    np.tanh(tz, out=tz)
    c = f * c_prev
    c += i * tz
    o = x @ p.W_xo.T
    o += h_prev @ p.W_ho.T
    o += p.w_co * c
    o += p.b_o
    _sigmoid_(o)
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, o, tz, c, tc)


def lstm_cell_forward(x, prev, p):
    """One step of the peephole LSTM.

    i = sig(W_xi x + W_hi h' + w_ci*c' + b_i)
    f = sig(W_xf x + W_hf h' + w_cf*c' + b_f)
    z = W_xc x + W_hc h' + b_c
    c = f*c' + i*tanh(z)
    o = sig(W_xo x + W_ho h' + w_co*c + b_o)
    h = o*tanh(c)

    Accepts a single vector or a (batch, input_dim) matrix; the returned
    cache carries everything the backward pass needs.
    """
    x, squeeze = _as_batch(x, p.input_dim, "lstm input")
    h_prev, c_prev = _as_state(prev, x.shape[0], p)
    h, c, cache = _lstm_step(x, h_prev, c_prev, p)
    if squeeze:
        return LstmState(h=h[0], c=c[0]), cache
    return LstmState(h=h, c=c), cache


def lstm_forward_sequence(xs, p, init=None, cache=True):
    """Fold the cell over a sequence; returns (final hidden state, caches).

    `xs` may be (steps, input_dim), (batch, steps, input_dim), or a list of
    step vectors. The branch output is the hidden state after the last step.
    `caches` holds one step cache per step, or is None when `cache=False`.
    """
    if isinstance(xs, (list, tuple)):
        xs = np.stack([np.asarray(x, dtype=np.float64) for x in xs])
    xs = np.asarray(xs, dtype=np.float64)
    squeeze = xs.ndim == 2
    if squeeze:
        xs = xs[None]
    if xs.ndim != 3 or xs.shape[2] != p.input_dim:
        raise ShapeError(f"sequence shape {xs.shape} incompatible with input_dim {p.input_dim}")
    if xs.shape[1] == 0:
        raise ShapeError("empty LSTM input sequence")

    batch = xs.shape[0]
    if init is None:
        h = c = np.zeros((batch, p.hidden_dim))
    else:
        h, c = _as_state(init, batch, p)
    caches = [] if cache else None
    for t in range(xs.shape[1]):
        h, c, step = _lstm_step(xs[:, t, :], h, c, p)
        if cache:
            caches.append(step)
    if squeeze:
        return LstmState(h=h[0], c=c[0]), caches
    return LstmState(h=h, c=c), caches


def lstm_backward_sequence(caches, dh_final, p, dc_final=None, need_dx=True):
    """BPTT over a cached forward pass.

    Returns (param grads as LstmCellParams, dxs (batch, steps, input_dim),
    dh0, dc0). `dh_final` is the upstream gradient on the last hidden state.
    With `need_dx=False` the input gradient is not computed and dxs is None.
    """
    if not caches:
        raise ShapeError("no caches to backpropagate through")
    dh, squeeze = _as_batch(dh_final, p.hidden_dim, "upstream dh")
    batch = caches[0][0].shape[0]
    if dh.shape[0] != batch:
        raise ShapeError("upstream gradient batch mismatch with caches")

    g = LstmCellParams.zeros(p.input_dim, p.hidden_dim)
    dc_carry = np.zeros_like(dh) if dc_final is None else np.asarray(dc_final, dtype=np.float64)
    dxs = np.zeros((batch, len(caches), p.input_dim)) if need_dx else None

    for t in range(len(caches) - 1, -1, -1):
        x, h_prev, c_prev, i, f, o, tz, c, tc = caches[t]

        da_o = dh * tc
        da_o *= o
        da_o *= 1.0 - o
        dc = dh * o
        dc *= 1.0 - tc * tc
        dc += dc_carry
        dc += da_o * p.w_co
        dz = dc * i
        dz *= 1.0 - tz * tz
        da_i = dc * tz
        da_i *= i
        da_i *= 1.0 - i
        da_f = dc * c_prev
        da_f *= f
        da_f *= 1.0 - f

        g.W_xi += da_i.T @ x
        g.W_xf += da_f.T @ x
        g.W_xc += dz.T @ x
        g.W_xo += da_o.T @ x
        g.W_hi += da_i.T @ h_prev
        g.W_hf += da_f.T @ h_prev
        g.W_hc += dz.T @ h_prev
        g.W_ho += da_o.T @ h_prev
        g.w_ci += np.sum(da_i * c_prev, axis=0)
        g.w_cf += np.sum(da_f * c_prev, axis=0)
        g.w_co += np.sum(da_o * c, axis=0)
        g.b_i += np.sum(da_i, axis=0)
        g.b_f += np.sum(da_f, axis=0)
        g.b_c += np.sum(dz, axis=0)
        g.b_o += np.sum(da_o, axis=0)

        if need_dx:
            dxs[:, t, :] = da_i @ p.W_xi + da_f @ p.W_xf + dz @ p.W_xc + da_o @ p.W_xo
        dh = da_i @ p.W_hi + da_f @ p.W_hf + dz @ p.W_hc + da_o @ p.W_ho
        dc *= f
        dc += da_i * p.w_ci
        dc += da_f * p.w_cf
        dc_carry = dc

    if squeeze:
        return g, (dxs[0] if need_dx else None), dh[0], dc_carry[0]
    return g, dxs, dh, dc_carry


# ---------------------------------------------------------------------------
# dense layer


def dense_forward(x, p):
    """W x + b followed by the configured activation."""
    x, squeeze = _as_batch(x, p.in_dim, "dense input")
    z = x @ p.W.T + p.b
    y = apply_activation(z, p.activation)
    cache = {"x": x, "z": z, "y": y, "squeeze": squeeze}
    return (y[0] if squeeze else y), cache


def dense_backward(cache, dy, p):
    """Gradients of a dense layer; returns (DenseParams grads, dx)."""
    x, z, y = cache["x"], cache["z"], cache["y"]
    dy, _ = _as_batch(dy, p.out_dim, "dense upstream")
    if p.activation == "identity":
        dz = dy
    elif p.activation == "relu":
        dz = dy * (z > 0)
    elif p.activation == "sigmoid":
        dz = dy * y * (1.0 - y)
    elif p.activation == "tanh":
        dz = dy * (1.0 - y * y)
    elif p.activation == "softmax":
        dz = y * (dy - np.sum(dy * y, axis=-1, keepdims=True))
    else:
        raise ConfigError(f"unknown activation {p.activation!r}")
    grads = DenseParams(W=dz.T @ x, b=np.sum(dz, axis=0), activation=p.activation)
    dx = dz @ p.W
    if cache["squeeze"]:
        dx = dx[0]
    return grads, dx


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


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """In-place Adam update; deterministic given identical inputs."""
    if lr <= 0:
        raise ConfigError("learning rate must be positive")
    grads.check_congruent(params)
    state.t += 1
    t = state.t
    for name, arr in param_leaves(params):
        g = grads[name]
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(arr)
            v = np.zeros_like(arr)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state


# ---------------------------------------------------------------------------
# gradient checking


def gradient_check(loss_fn, params, analytic, eps=1e-5):
    """Max relative error between `analytic` and central finite differences.

    `loss_fn()` must evaluate the scalar loss from the current (mutated in
    place) parameter values. Relative error per coordinate is
    |fd - an| / max(|fd|, |an|, 1e-6).
    """
    worst = 0.0
    for name, arr in param_leaves(params):
        g_an = analytic[name]
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            f_plus = loss_fn()
            arr[idx] = orig - eps
            f_minus = loss_fn()
            arr[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            an = g_an[idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            worst = max(worst, rel)
            it.iternext()
    return worst
