"""Independent brute-force oracles, deliberately written with the stdlib
`math` module and plain loops so they share no code with the package (the
record-parser oracle raises the package's error classes, nothing more).
The BPTT oracle is NumPy: what it pins is the order of the batch sums. The
window-assembly oracle is the package's earlier two-copy assembly, built
on `Windows.concat`: what it pins is the row order of a batch. The
finite-difference gradient checker perturbs a flat parameter array one
coordinate at a time (`flat_views` lays arrays out in one), and the
per-anchor target and inverse-scaler references are NumPy. The per-bucket
close is the engine's earlier loop, run on a package `CellBuffer` with its
`bucket_values` and `window`: what it pins is which buckets close and what
they leave held. `CellSeries` is one cell's series: tests build a package
`SeriesBlock` from such cells (`series_block`) and read a block back one
cell at a time (`cells_of`).

Expected values asserted in the test suite are computed (or re-computed)
through these functions rather than copied from the implementation.
"""

import json
import math
from typing import NamedTuple

import numpy as np

from deepauto.dataprep import SeriesBlock, Windows, bucket_values
from deepauto.errors import DataError, OutOfRangeError, ShapeError


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def lstm_step_scalar(x, h_prev, c_prev, w):
    """One peephole LSTM step for hidden_dim = input_dim = 1.

    `w` maps weight names (W_xi, W_hi, w_ci, b_i, ... W_xc, W_hc, b_c) to
    scalars. Returns (h, c).
    """
    i = sigmoid(w["W_xi"] * x + w["W_hi"] * h_prev + w["w_ci"] * c_prev + w["b_i"])
    f = sigmoid(w["W_xf"] * x + w["W_hf"] * h_prev + w["w_cf"] * c_prev + w["b_f"])
    z = w["W_xc"] * x + w["W_hc"] * h_prev + w["b_c"]
    c = f * c_prev + i * math.tanh(z)
    o = sigmoid(w["W_xo"] * x + w["W_ho"] * h_prev + w["w_co"] * c + w["b_o"])
    h = o * math.tanh(c)
    return h, c


# where each scalar weight named by lstm_step_scalar sits in a gate-major
# cell: (leaf, gate index); gates are i, f, c, o and peepholes i, f, o
GATE_SLOTS = {
    "W_xi": ("W_x", 0), "W_xf": ("W_x", 1), "W_xc": ("W_x", 2), "W_xo": ("W_x", 3),
    "W_hi": ("W_h", 0), "W_hf": ("W_h", 1), "W_hc": ("W_h", 2), "W_ho": ("W_h", 3),
    "w_ci": ("w_peep", 0), "w_cf": ("w_peep", 1), "w_co": ("w_peep", 2),
    "b_i": ("b", 0), "b_f": ("b", 1), "b_c": ("b", 2), "b_o": ("b", 3),
}


def gate_slot(cell, name):
    """The view of `cell` (any object with gate-major W_x/W_h/w_peep/b
    arrays) that holds the weight the scalar oracle calls `name`."""
    leaf, k = GATE_SLOTS[name]
    return getattr(cell, leaf)[k]


def lstm_sequence_scalar(xs, w):
    h, c = 0.0, 0.0
    for x in xs:
        h, c = lstm_step_scalar(x, h, c, w)
    return h, c


def mmse_scalar(Y, Yhat, alpha):
    """Direct double loop over the modified-MSE definition."""
    n = len(Y)
    K = len(Y[0])
    total = 0.0
    for j in range(K):
        for i in range(n):
            total += math.exp(-alpha * (1.0 - Y[i][j])) * (Y[i][j] - Yhat[i][j]) ** 2
    return total / (K * n)


def kl_scalar(P, Q, floor=1e-8):
    """Mean over rows of -sum p log q + sum p log p, q floored/renormalized."""
    total = 0.0
    for p_row, q_row in zip(P, Q):
        qf = [max(q, floor) for q in q_row]
        s = sum(qf)
        qf = [q / s for q in qf]
        d = 0.0
        for p, q in zip(p_row, qf):
            if p > 0:
                d += -p * math.log(q) + p * math.log(p)
        total += d
    return total / len(P)


def softmax_scalar(xs):
    m = max(xs)
    es = [math.exp(x - m) for x in xs]
    s = sum(es)
    return [e / s for e in es]


def acf_scalar(xs, max_lag):
    n = len(xs)
    mean = sum(xs) / n
    d = [x - mean for x in xs]
    denom = sum(v * v for v in d)
    return [sum(d[t] * d[t + k] for t in range(n - k)) / denom
            for k in range(max_lag + 1)]


def fill_gaps_scalar(column, missing):
    """One column with its missing entries filled: a straight line between
    the nearest present entries on either side, the nearest present value
    past either end. None if no entry is present."""
    present = [i for i, m in enumerate(missing) if not m]
    if not present:
        return None
    out = []
    for i, x in enumerate(column):
        if not missing[i]:
            out.append(x)
            continue
        before = [j for j in present if j < i]
        after = [j for j in present if j > i]
        if not before:
            out.append(column[after[0]])
        elif not after:
            out.append(column[before[-1]])
        else:
            a, b = before[-1], after[0]
            out.append(column[a] + (column[b] - column[a]) * (i - a) / (b - a))
    return out


def adam_first_step(g, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Parameter delta of the first bias-corrected Adam update."""
    m = (1 - beta1) * g
    v = (1 - beta2) * g * g
    m_hat = m / (1 - beta1)
    v_hat = v / (1 - beta2)
    return -lr * m_hat / (math.sqrt(v_hat) + eps)


def records_to_series_rescan(records, step_seconds, channels=("load", "ue")):
    """The per-cell rescan that bucketing replaced: accumulate (cell, topic,
    bucket) sums in record order, then, for each cell, scan every key again
    for that cell's buckets. Returns {cell: (first bucket, values, missing)}
    with values and missing as (buckets, channels) lists of lists."""
    channels = list(channels)
    sums, counts = {}, {}
    for rec in records:
        if rec["topic"] not in channels:
            continue
        key = (rec["cell"], rec["topic"], rec["ts"] // step_seconds)
        sums[key] = sums.get(key, 0.0) + rec["value"]
        counts[key] = counts.get(key, 0) + 1
    out = {}
    for cell in sorted({cell for cell, _, _ in sums}):
        buckets = [b for (c, _, b) in sums if c == cell]
        first, last = min(buckets), max(buckets)
        values = [[0.0] * len(channels) for _ in range(first, last + 1)]
        missing = [[True] * len(channels) for _ in range(first, last + 1)]
        for ci, ch in enumerate(channels):
            for b in range(first, last + 1):
                key = (cell, ch, b)
                if key in sums:
                    values[b - first][ci] = sums[key] / counts[key]
                    missing[b - first][ci] = False
        out[cell] = (first, values, missing)
    return out


def rsrq_series_rescan(records, step_seconds, bins):
    """RSRQ bucketing by direct counting: for each cell with at least one
    rsrq report that names a bin (an integer in [0, bins)), count its
    reports per bucket and bin, then divide each bucket's counts by its
    total. Other records are skipped. Returns {cell: (first bucket, values,
    missing)} like `records_to_series_rescan`; a bucket with no report is
    missing in every bin and holds zeros."""
    counts = {}
    for rec in records:
        value = rec["value"]
        if rec["topic"] == "rsrq" and 0 <= value < bins and float(value).is_integer():
            key = (rec["ts"] // step_seconds, int(value))
            cell = counts.setdefault(rec["cell"], {})
            cell[key] = cell.get(key, 0) + 1
    out = {}
    for cell in sorted(counts):
        buckets = [b for b, _ in counts[cell]]
        first, last = min(buckets), max(buckets)
        values, missing = [], []
        for b in range(first, last + 1):
            row = [counts[cell].get((b, k), 0) for k in range(bins)]
            total = sum(row)
            values.append([n / total if total else 0.0 for n in row])
            missing.append([total == 0] * bins)
        out[cell] = (first, values, missing)
    return out


def parse_record_loads(line):
    """The `json.loads` record parser that the direct decode replaced, on a
    line (bytes) decoded as strict UTF-8: it accepts a boolean `ts`, and an
    integer `value` too large for a float makes `math.isfinite` raise
    OverflowError."""
    try:
        rec = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"malformed JSON: {exc}") from exc
    if not isinstance(rec, dict):
        raise DataError("record is not an object")
    topic = rec.get("topic")
    if topic not in ("load", "ue", "rsrq"):
        raise DataError(f"unknown topic {topic!r}")
    cell = rec.get("cell")
    if not isinstance(cell, str) or not cell:
        raise DataError("missing cell id")
    ts = rec.get("ts")
    if not isinstance(ts, int):
        raise DataError("ts must be an integer epoch second")
    value = rec.get("value")
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise DataError("value must be a finite number")
    if topic == "rsrq":
        if value != int(value) or not 0 <= value <= 35 - 1:
            raise OutOfRangeError(f"rsrq value out of range: {value}")
    if topic == "load" and not 0.0 <= value <= 1.0:
        raise OutOfRangeError(f"load value out of range: {value}")
    if topic == "ue" and value < 0:
        raise OutOfRangeError(f"ue count negative: {value}")
    return {"topic": topic, "cell": cell, "ts": ts, "value": float(value)}


def lstm_backward_axis_sums(caches, dh_final, p):
    """The BPTT that BLAS batch sums replaced: each step reduces the peephole
    and bias gradients over the batch with `np.sum`. Reads the package's step
    caches (x, h_prev, c_prev, activated gates, c, tanh c) and a gate-major
    cell `p`; returns {"W_x", "W_h", "w_peep", "b"} gradient arrays."""
    dh = np.asarray(dh_final, dtype=p.W_x.dtype)
    g = {name: np.zeros_like(getattr(p, name)) for name in ("W_x", "W_h", "w_peep", "b")}
    dc_carry = np.zeros_like(dh)
    for x, h_prev, c_prev, a, c, tc in reversed(caches):
        i, f, tz, o = a
        da_o = dh * tc * o * (1.0 - o)
        dc = dh * o * (1.0 - tc * tc) + dc_carry + da_o * p.w_peep[2]
        dz = dc * i * (1.0 - tz * tz)
        da_i = dc * tz * i * (1.0 - i)
        da_f = dc * c_prev * f * (1.0 - f)
        da = np.stack([da_i, da_f, dz, da_o])

        g["W_x"] += np.matmul(da.transpose(0, 2, 1), x)
        g["W_h"] += np.matmul(da.transpose(0, 2, 1), h_prev)
        g["w_peep"][0] += np.sum(da_i * c_prev, axis=0)
        g["w_peep"][1] += np.sum(da_f * c_prev, axis=0)
        g["w_peep"][2] += np.sum(da_o * c, axis=0)
        g["b"] += da.sum(axis=1)

        dh = np.matmul(da, p.W_h).sum(axis=0)
        dc_carry = dc * f + da_i * p.w_peep[0] + da_f * p.w_peep[1]
    return g


def windows_by_anchor(parts, first_anchor):
    """The rows of the per-cell Windows `parts`, given in cell-id order with
    each cell's anchors running contiguously from `first_anchor` (as
    make_windows builds them for a single series), in (anchor index, cell
    id) order: all parts concatenated, then taken in a stable argsort on
    anchor index. This two-copy assembly is the reference for make_windows
    over many series, which gathers its rows in that order from one block.
    Returns (windows, their anchor indices)."""
    t = np.concatenate([np.arange(len(w)) for w in parts]) + first_anchor
    order = np.argsort(t, kind="stable")
    return Windows.concat(parts)[order], t[order]


class CellSeries(NamedTuple):
    """One cell's regular-interval series: the per-cell form the tests build
    a SeriesBlock from (`series_block`) and read one back in (`cells_of`)."""

    cell_id: str
    start_ts: int
    step_seconds: int
    channels: list
    values: np.ndarray        # (T, C) float64
    missing_mask: np.ndarray  # (T, C) bool, True = missing

    @property
    def length(self):
        return len(self.values)

    def timestamp(self, t):
        return self.start_ts + t * self.step_seconds

    def channel_index(self, name):
        return self.channels.index(name)


def series_block(cells):
    """The SeriesBlock of the CellSeries `cells`, given in any order, which
    share a step and channels and each start on a bucket boundary: their
    rows joined end to end in cell-id order."""
    cells = sorted(cells, key=lambda s: s.cell_id)
    step = cells[0].step_seconds
    assert all(s.step_seconds == step and s.start_ts % step == 0 for s in cells)
    return SeriesBlock(
        np.concatenate([np.asarray(s.values, np.float64) for s in cells]),
        np.concatenate([np.asarray(s.missing_mask, bool) for s in cells]),
        [s.cell_id for s in cells], np.cumsum([0] + [s.length for s in cells]),
        np.array([s.start_ts // step for s in cells], np.int64), step, tuple(cells[0].channels))


def cells_of(block):
    """{cell id: CellSeries} of a SeriesBlock, in its cell order, each cell's
    values and mask being its rows of the block's (views)."""
    bounds = block.offsets.tolist()
    return {cell: CellSeries(cell, int(block.first_buckets[k]) * block.step_seconds,
                             block.step_seconds, list(block.channels),
                             block.values[bounds[k]:bounds[k + 1]],
                             block.missing[bounds[k]:bounds[k + 1]])
            for k, cell in enumerate(block.cell_ids)}


FD_EPS = 1e-5


def flat_views(arrays):
    """(flat, views): `arrays` end to end in one float64 array, and views of
    it shaped like them."""
    flat = np.concatenate([np.ravel(a) for a in arrays]).astype(np.float64)
    ends = np.cumsum([np.size(a) for a in arrays])
    return flat, [flat[end - np.size(a):end].reshape(np.shape(a)) for a, end in zip(arrays, ends)]


def gradient_check(loss_fn, flat, analytic):
    """Max relative error between the flat gradient `analytic` and central
    finite differences with step FD_EPS in each coordinate of the flat
    parameter array `flat`.

    `loss_fn()` must evaluate the scalar loss from the current (mutated in
    place) values of `flat`. Relative error per coordinate is
    |fd - an| / max(|fd|, |an|, 1e-6).
    """
    if np.shape(analytic) != flat.shape:
        raise ShapeError(f"gradient shape {np.shape(analytic)} does not match {flat.shape}")
    worst = 0.0
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + FD_EPS
        f_plus = loss_fn()
        flat[k] = orig - FD_EPS
        f_minus = loss_fn()
        flat[k] = orig
        fd = (f_plus - f_minus) / (2.0 * FD_EPS)
        an = analytic[k]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
        worst = max(worst, rel)
    return worst


def aggregate_targets(values, t, horizons=(1, 15, 60)):
    """Horizon targets at anchor t: for horizon h, mean of values[t : t+h].

    h=1 is the next-step value; longer horizons are averages over the
    window that starts at the first predicted step.
    """
    values = np.asarray(values, dtype=np.float64)
    out = np.empty(len(horizons))
    for k, h in enumerate(horizons):
        if h < 1:
            raise ShapeError("horizons must be >= 1")
        if t + h > values.shape[0]:
            raise ShapeError(f"horizon {h} at anchor {t} beyond series end")
        out[k] = float(np.mean(values[t:t + h]))
    return out


def invert_scaler(values, scaler):
    """The inverse of `dataprep.apply_scaler` inside [min, max]; a constant
    channel maps back to its min."""
    values = np.asarray(values, dtype=np.float64)
    span = np.where(scaler.constant, 1.0, scaler.maxs - scaler.mins)
    return np.where(scaler.constant, scaler.mins, values * span + scaler.mins)


def close_through_per_bucket(buf, upto):
    """`CellBuffer.close_through` as one close per bucket, empty or not, on
    the CellBuffer `buf`: the loop from before gaps were skipped. Returns
    the (anchor, window rows) of each closed bucket that has a window."""
    start = min(buf.open, default=upto + 1) if buf.last_closed is None else buf.last_closed + 1
    windows = []
    for b in range(start, upto + 1):
        sums_counts = buf.open.pop(b, None)
        if sums_counts is None:
            row = np.full(len(buf.channels), np.nan)
            buf.empty_run += 1
        else:
            row, missing = bucket_values(*sums_counts, buf.channels)
            row[missing] = np.nan
            buf.empty_run = 0
        buf.closed.append(row)
        buf.last_closed = b
        rows = buf.window()
        if rows is not None:
            windows.append((b + 1, rows))
    return windows
