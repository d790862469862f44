"""The DeepAuto architecture: three horizontally stacked LSTM branches for
recent / periodic / seasonal lags, a feed-forward embedding of external
features, and a fused fully-connected network (hidden tanh layer, then an
affine head put through a sigmoid per horizon or a softmax). Also the training
loop, the window-spec grid search, and a versioned binary model container.
"""

from __future__ import annotations

import io
import json
import struct
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import neuralnet as nn
from .dataprep import (EXTERNAL_DIM, LOAD_CHANNELS, RSRQ_CHANNELS, ScalerParams, WindowSpec,
                       cpu_count)
from .errors import ConfigError, ModelFormatError, ShapeError, TrainingDiverged

MAGIC = b"DAUT"
FORMAT_VERSION = 2

# version 1 stored each LSTM cell as 15 per-gate tensors, floats in the same
# order as the gate-major version-2 tensors they stack into
V1_GATES = {
    "W_x": ("W_xi", "W_xf", "W_xc", "W_xo"),
    "W_h": ("W_hi", "W_hf", "W_hc", "W_ho"),
    "w_peep": ("w_ci", "w_cf", "w_co"),
    "b": ("b_i", "b_f", "b_c", "b_o"),
}

# each lag branch's LSTM cell in DeepAutoParams and hidden size in DeepAutoConfig
BRANCH_FIELDS = {"recent": ("lstm_r", "hidden_r"), "periodic": ("lstm_p", "hidden_p"),
                 "seasonal": ("lstm_s", "hidden_s")}


# ---------------------------------------------------------------------------
# configuration


@dataclass
class DeepAutoConfig:
    """How a model reads records and what it learns from them: the window
    layout, the bucket width that gives its steps a length, and the
    hyperparameters. Model files carry it."""

    window: WindowSpec
    input_dim: int = None           # len(channels) when not given
    output_kind: str = "horizons"   # "horizons" | "pdf"
    horizons: tuple = (1, 15, 60)
    pdf_bins: int = 35
    use_external: bool = True
    hidden_r: int = 32
    hidden_p: int = 32
    hidden_s: int = 32
    ext_embed_dim: int = 16
    fusion_hidden: int = 32
    alpha: float = 4.0
    lr: float = 0.005
    batch_size: int = 1024
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    step_seconds: int = None        # 300 for pdf models, 900 otherwise, when not given

    def __post_init__(self):
        if isinstance(self.window, dict):
            self.window = WindowSpec.from_dict(self.window)
        self.horizons = tuple(int(h) for h in self.horizons)
        if self.output_kind not in ("horizons", "pdf"):
            raise ConfigError(f"unknown output kind {self.output_kind!r}")
        if self.input_dim is None:
            self.input_dim = len(self.channels)
        if self.step_seconds is None:
            self.step_seconds = 300 if self.output_kind == "pdf" else 900
        # bucketing files each bucket index as an int64
        if not isinstance(self.step_seconds, int) or isinstance(self.step_seconds, bool):
            raise ConfigError(f"step_seconds must be an integer, not {self.step_seconds!r}")
        if self.step_seconds <= 0:
            raise ConfigError("step_seconds must be positive")
        if self.input_dim <= 0 or self.ext_embed_dim <= 0 or self.fusion_hidden <= 0:
            raise ConfigError("dims must be positive")
        if min(self.hidden_r, self.hidden_p, self.hidden_s) <= 0:
            raise ConfigError("hidden sizes must be positive")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.output_kind == "horizons" and min(self.horizons, default=0) < 1:
            raise ConfigError("horizons must be one or more steps, each >= 1")
        for name in ("batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def out_dim(self):
        return len(self.horizons) if self.output_kind == "horizons" else self.pdf_bins

    @property
    def channels(self):
        """Channel layout of the bucket rows the model reads: the RSRQ bins
        for histogram (pdf) models, load and UE means for load models."""
        return RSRQ_CHANNELS if self.output_kind == "pdf" else LOAD_CHANNELS

    @property
    def fusion_in_dim(self):
        dim = sum(getattr(self, BRANCH_FIELDS[name][1]) for name, _, _ in self.window.branches())
        return dim + (self.ext_embed_dim if self.use_external else 0)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The config of a dict of its fields. Files written before the
        target was fixed to the load channel name it as "target_channel";
        that key is dropped, and any other target raises ConfigError."""
        d = dict(d)
        target = d.pop("target_channel", "load")
        if target != "load":
            raise ConfigError(f"unsupported target_channel {target!r}: the target is 'load'")
        return cls(**d)


# ---------------------------------------------------------------------------
# parameters


@dataclass
class DeepAutoParams:
    lstm_r: nn.LstmCellParams
    lstm_p: nn.LstmCellParams = None   # absent when n_p == 0
    lstm_s: nn.LstmCellParams = None   # absent when n_s == 0
    ext_net: list = field(default_factory=list)
    fusion_net: list = field(default_factory=list)  # hidden tanh + affine head

    @classmethod
    def init(cls, config, rng):
        cells = {}
        for name, _, _ in config.window.branches():
            cell, hidden = BRANCH_FIELDS[name]
            cells[cell] = nn.LstmCellParams.init(config.input_dim, getattr(config, hidden), rng)
        ext_net = ([nn.DenseParams(W=np.zeros((config.ext_embed_dim, EXTERNAL_DIM)),
                                   b=np.zeros(config.ext_embed_dim), activation="tanh")]
                   if config.use_external else [])
        # the external embedding starts as a no-op (tanh(0) = 0) so adding it
        # never hurts early training; its weights learn in through the fusion
        # gradients
        fusion_net = [
            nn.DenseParams.init(config.fusion_in_dim, config.fusion_hidden, "tanh", rng),
            nn.DenseParams.init(config.fusion_hidden, config.out_dim, "identity", rng),
        ]
        return cls(**cells, ext_net=ext_net, fusion_net=fusion_net)


# ---------------------------------------------------------------------------
# forward / backward


def _check_shapes(arrays, config):
    """The branch arrays of a batch must match the config's window layout."""
    if len(arrays["recent"]) == 0:
        raise ShapeError("empty batch")
    for name, steps, _ in config.window.branches():
        shape = arrays[name].shape[1:] if name in arrays else None
        if shape != (steps, config.input_dim):
            raise ShapeError(f"{name} window shape {shape} does not match config")


def forward_batch(arrays, params, config, cache=True):
    """Run the full network on a batch's arrays (Windows.arrays); returns
    (Yhat, caches). Yhat is the sigmoid (load models) or softmax (histogram
    models) of the head's logits; a backward pass (`backward_batch`) starts
    from the gradient at the logits.

    The cached pass (the default) multiplies the whole batch at once; it
    serves training steps, validation losses and the grid's metric. With
    `cache=False` (predictions) no layer keeps per-step state, caches is
    None, and every product is row-wise: each row of Yhat is batch-invariant,
    bit-identical to the same row run alone and to the cached pass at batch
    1 (see the `neuralnet` module notes).
    """
    _check_shapes(arrays, config)
    parts, caches = [], {}
    for name, _, _ in config.window.branches():
        cell = getattr(params, BRANCH_FIELDS[name][0])
        state, caches[name] = nn.lstm_forward_sequence(arrays[name], cell, cache=cache)
        parts.append(state.h)
    if config.use_external:
        h, caches["ext"] = _stack_forward(arrays["external"], params.ext_net, cache)
        parts.append(h)
    fused = np.concatenate(parts, axis=1)
    logits, caches["fusion"] = _stack_forward(fused, params.fusion_net, cache)
    caches["parts"] = [p.shape[1] for p in parts]
    yhat = nn.sigmoid(logits) if config.output_kind == "horizons" else nn.softmax(logits)
    return yhat, (caches if cache else None)


def _stack_forward(x, layers, cache):
    """`x` through the dense `layers` in order; returns (y, the layers' caches)."""
    caches = []
    for layer in layers:
        x, layer_cache = nn.dense_forward(x, layer, cache=cache)
        caches.append(layer_cache)
    return x, caches


def _stack_backward(caches, dy, layers):
    """Gradients of the dense `layers` (`_stack_forward`) from d(loss)/d(y);
    returns (their DenseParams grads in order, d(loss)/d(x))."""
    grads = []
    for layer_cache, layer in zip(caches[::-1], layers[::-1]):
        g_layer, dy = nn.dense_backward(layer_cache, dy, layer)
        grads.insert(0, g_layer)
    return grads, dy


def backward_batch(caches, d_logits, params, config):
    """Gradients of a scalar loss given its gradient at the head's logits
    (before the sigmoid or softmax of `forward_batch`), as a DeepAutoParams
    of the same shapes as `params`."""
    fusion, d = _stack_backward(caches["fusion"], d_logits, params.fusion_net)

    # split the fused gradient back into branch slices, external last
    slices = np.split(d, np.cumsum(caches["parts"])[:-1], axis=1)
    cells = {}
    for (name, _, _), d_h in zip(config.window.branches(), slices):
        cell = BRANCH_FIELDS[name][0]
        cells[cell] = nn.lstm_backward_sequence(caches[name], d_h, getattr(params, cell))
    ext_net = (_stack_backward(caches["ext"], slices[-1], params.ext_net)[0]
               if config.use_external else [])
    return DeepAutoParams(**cells, ext_net=ext_net, fusion_net=fusion)


def _arrays(batch):
    """The array dict of a Windows batch, or the dict itself."""
    return batch if isinstance(batch, dict) else batch.arrays


def loss_and_gradients(batch, params, config):
    """Loss (MMSE or mean KL) and full parameter gradients for one batch
    (a Windows or its arrays)."""
    arrays = _arrays(batch)
    if "target" not in arrays:
        raise ShapeError("batch has no targets")
    yhat, caches = forward_batch(arrays, params, config)
    Y = arrays["target"]
    if config.output_kind == "horizons":
        loss = nn.mmse_loss(Y, yhat, config.alpha)
        # through the sigmoid: d(sigmoid)/d(logit) = yhat * (1 - yhat)
        d_logits = nn.mmse_gradient(Y, yhat, config.alpha) * yhat * (1.0 - yhat)
    else:
        loss = nn.kl_loss(Y, yhat)
        d_logits = nn.kl_grad_logits(Y, yhat)
    return loss, backward_batch(caches, d_logits, params, config)


def _slices(batch, config):
    """The arrays of consecutive slices of `config.batch_size` rows of a
    Windows or its arrays; a pass over one slice at a time bounds memory."""
    arrays = _arrays(batch)
    _check_shapes(arrays, config)  # an empty batch has no slice to check
    return [{k: v[a:a + config.batch_size] for k, v in arrays.items()}
            for a in range(0, len(arrays["recent"]), config.batch_size)]


def _outputs(batch, params, config):
    """Yhat (N, out_dim) of a Windows or its arrays from the cached training
    pass over its `_slices`, one after another; a slice's step caches are
    dropped with its pass."""
    return np.concatenate([forward_batch(arrays, params, config)[0]
                           for arrays in _slices(batch, config)])


def batch_loss(batch, params, config):
    """Loss (MMSE or mean KL) of a Windows or its arrays, from the cached
    training pass (`_outputs`): a loss needs no batch invariance, so it
    takes the batched products, and it holds at most one slice's caches."""
    yhat = _outputs(batch, params, config)
    Y = _arrays(batch)["target"]
    if config.output_kind == "horizons":
        return nn.mmse_loss(Y, yhat, config.alpha)
    return nn.kl_loss(Y, yhat)


def output_fields(yhat, output_kind, horizons):
    """One prediction's outputs as JSON fields: "h<h>" per horizon for load
    models, a "pdf" list for histogram models."""
    if output_kind == "horizons":
        return {f"h{h}": float(v) for h, v in zip(horizons, yhat)}
    return {"pdf": [float(v) for v in yhat]}


def predict_samples(samples, params, config):
    """Predictions (N, out_dim) for the rows of a Windows: the cache-free
    forward pass over consecutive slices of `config.batch_size` rows
    (`_slices`), which bounds memory by one slice a thread. The slices run
    on a thread per CPU (`dataprep.cpu_count`); NumPy releases the
    interpreter lock inside its products. Rows are batch-invariant, so
    neither the slicing, nor the thread a slice runs on, nor the other rows
    change any output: the streaming engine gets the same bits for the same
    window."""
    forward = lambda arrays: forward_batch(arrays, params, config, cache=False)[0]
    slices = _slices(samples, config)
    threads = min(cpu_count(), len(slices))
    if threads < 2:
        return np.concatenate(list(map(forward, slices)))
    with ThreadPoolExecutor(threads) as pool:
        return np.concatenate(list(pool.map(forward, slices)))


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainReport:
    train_losses: list
    val_losses: list
    best_epoch: int
    best_val_loss: float
    wall_seconds: float
    epoch_seconds: list   # wall time of each epoch, its validation pass included
    config: dict
    test_metrics: dict = None

    def to_dict(self):
        return asdict(self)


def _compute_copy(params):
    """The float32 working copy of float64 master weights that one training
    step computes with. The output layer stays float64, so the head's
    outputs, the targets and the losses stay float64 too: a float32
    softmax row sums to 1 only to about 1e-7, which kl_loss's 1e-9 row-sum
    check would reject."""
    work = nn.clone_params(params, np.float32)
    work.fusion_net[-1] = params.fusion_net[-1]
    return work


def train(train_samples, val_samples, config, params=None):
    """Mini-batch Adam over Windows with seeded shuffling and early stopping.

    Every step computes in float32 (`_compute_copy`); Adam updates the
    float64 master weights, which are what is returned. Mixed precision with
    float64 masters follows Micikevicius et al., "Mixed Precision Training",
    ICLR 2018. Returns (best-validation parameters, TrainReport).
    Deterministic for a fixed seed, config, and dataset.
    """
    if not train_samples or not val_samples:
        raise ShapeError("train and val splits must be non-empty")
    t0 = time.monotonic()
    rng = np.random.default_rng(config.seed)
    if params is None:
        params = DeepAutoParams.init(config, rng)
    opt = nn.AdamState()

    best_val = float("inf")
    best_epoch = -1
    best_params = nn.clone_params(params)
    train_losses, val_losses, epoch_seconds = [], [], []
    n = len(train_samples)

    for epoch in range(config.max_epochs):
        t_epoch = time.monotonic()
        order = rng.permutation(n)
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, n, config.batch_size):
            batch = train_samples[order[start:start + config.batch_size]]
            loss, grads = loss_and_gradients(batch, _compute_copy(params), config)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} at epoch {epoch}")
            nn.adam_step(params, grads, opt, config.lr)
            epoch_loss += loss
            n_batches += 1
        train_losses.append(epoch_loss / n_batches)
        val_loss = batch_loss(val_samples, _compute_copy(params), config)
        if not np.isfinite(val_loss):
            raise TrainingDiverged(f"validation loss became {val_loss} at epoch {epoch}")
        val_losses.append(val_loss)
        epoch_seconds.append(time.monotonic() - t_epoch)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = nn.clone_params(params)
        elif epoch - best_epoch >= config.patience:
            break

    report = TrainReport(
        train_losses=[float(x) for x in train_losses],
        val_losses=[float(x) for x in val_losses],
        best_epoch=best_epoch,
        best_val_loss=float(best_val),
        wall_seconds=time.monotonic() - t0,
        epoch_seconds=epoch_seconds,
        config=config.to_dict(),
    )
    return best_params, report


# ---------------------------------------------------------------------------
# grid search


def grid_search(build_samples, candidates, base_config):
    """Train one model per (WindowSpec, use_external) candidate.

    `build_samples(config)` must return (train, val) Windows for the
    candidate's config (windowing depends on the spec). Returns rows of
    {"window", "use_external", "val_metric", "error"}; the metric is the
    validation RMSE over all predicted horizons for load models and the
    validation KL for histogram models. Per-candidate failures are
    recorded, not raised.
    """
    if not candidates:
        raise ConfigError("grid needs at least one candidate")
    rows = []
    for spec, use_external in candidates:
        config = replace(base_config, window=spec, use_external=bool(use_external))
        row = {"window": spec.to_dict(), "use_external": bool(use_external)}
        try:
            train_s, val_s = build_samples(config)
            params, report = train(train_s, val_s, config)
            yhat = _outputs(val_s, params, config)
            Y = val_s.arrays["target"]
            if config.output_kind == "horizons":
                row["val_metric"] = float(np.sqrt(np.mean((Y - yhat) ** 2)))
            else:
                row["val_metric"] = float(nn.kl_loss(Y, yhat))
            row["best_epoch"] = report.best_epoch
        except Exception as exc:  # keep the rest of the grid alive
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# serialization


def _pack_str(buf, s):
    raw = s.encode("utf-8")
    buf.write(struct.pack("<I", len(raw)))
    buf.write(raw)


def _read_exact(fh, n, what):
    raw = fh.read(n)
    if len(raw) != n:
        raise ModelFormatError(f"truncated file while reading {what}")
    return raw


def _unpack_str(fh, what):
    (n,) = struct.unpack("<I", _read_exact(fh, 4, what))
    return _read_exact(fh, n, what).decode("utf-8")


def save(params, config, scaler):
    """Serialize (params, config, scaler) to a versioned binary blob.

    Layout: magic, u32 version (2), config JSON, scaler JSON, u32 tensor
    count, then per tensor (name, u32 ndim, u64 dims..., float64 LE data) in
    param_leaves order, and a trailing CRC32 of everything before it.
    load() also reads version-1 files.
    """
    body = io.BytesIO()
    body.write(MAGIC)
    body.write(struct.pack("<I", FORMAT_VERSION))
    _pack_str(body, json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":")))
    scaler_doc = scaler.to_dict() if scaler is not None else None
    _pack_str(body, json.dumps(scaler_doc, sort_keys=True, separators=(",", ":")))
    leaves = list(nn.param_leaves(params))
    body.write(struct.pack("<I", len(leaves)))
    for name, arr in leaves:
        _pack_str(body, name)
        body.write(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            body.write(struct.pack("<Q", dim))
        body.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    payload = body.getvalue()
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def _stack_v1_cells(tensors):
    """Stack each version-1 LSTM cell's per-gate tensors into the gate-major
    ones; other tensors pass through."""
    for cell, _ in BRANCH_FIELDS.values():
        for packed, gates in V1_GATES.items():
            names = [f"{cell}.{gate}" for gate in gates]
            if all(name in tensors for name in names):
                try:
                    tensors[f"{cell}.{packed}"] = np.stack([tensors.pop(n) for n in names])
                except ValueError as exc:
                    raise ModelFormatError(f"tensors of {cell}.{packed}: {exc}") from exc
    return tensors


def load(blob):
    """Inverse of save(); raises ModelFormatError on any corruption."""
    if len(blob) < len(MAGIC) + 8:
        raise ModelFormatError("file too short")
    payload, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise ModelFormatError("checksum mismatch")
    fh = io.BytesIO(payload)
    if _read_exact(fh, 4, "magic") != MAGIC:
        raise ModelFormatError("bad magic")
    (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
    if version not in (1, FORMAT_VERSION):
        raise ModelFormatError(f"unsupported format version {version}")
    try:
        config = DeepAutoConfig.from_dict(json.loads(_unpack_str(fh, "config")))
        scaler_doc = json.loads(_unpack_str(fh, "scaler"))
        scaler = ScalerParams.from_dict(scaler_doc) if scaler_doc is not None else None
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ModelFormatError(f"bad embedded JSON: {exc}") from exc
    except (ConfigError, ShapeError) as exc:
        raise ModelFormatError(f"bad embedded config: {exc}") from exc

    (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
    tensors = {}
    for _ in range(count):
        name = _unpack_str(fh, "tensor name")
        (ndim,) = struct.unpack("<I", _read_exact(fh, 4, "ndim"))
        shape = tuple(struct.unpack("<Q", _read_exact(fh, 8, "dim"))[0] for _ in range(ndim))
        n = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(_read_exact(fh, 8 * n, f"tensor {name}"), dtype="<f8")
        tensors[name] = data.reshape(shape)
    if version == 1:
        tensors = _stack_v1_cells(tensors)

    params = DeepAutoParams.init(config, np.random.default_rng(0))
    leaves = list(nn.param_leaves(params))
    if {name for name, _ in leaves} != set(tensors):
        raise ModelFormatError("tensor names do not match the embedded config")
    for name, arr in leaves:
        if tensors[name].shape != arr.shape:
            raise ModelFormatError(f"tensor {name} has shape {tensors[name].shape}, "
                                   f"expected {arr.shape}")
        arr[...] = tensors[name]
    return params, config, scaler


def save_file(path, params, config, scaler):
    with open(path, "wb") as fh:
        fh.write(save(params, config, scaler))


def load_file(path):
    with open(path, "rb") as fh:
        return load(fh.read())
