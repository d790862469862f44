"""Raw records -> model-ready samples.

Covers NDJSON record IO, bucket alignment, linear interpolation of gaps,
min-max scaling fitted on the training slice only, multi-scale windowing
(recent / daily-periodic / weekly-seasonal lags), horizon target
aggregation, temporal 4:1:1 splitting, autocorrelation, and RSRQ report
bucketing into 35-bin histograms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, OutOfRangeError, ShapeError

TOPICS = ("load", "ue", "rsrq")
RSRQ_BINS = 35

# external feature vector layout: one-hot day-of-week (7), hour sin/cos,
# minute sin/cos, then normalized band/power/bandwidth
EXTERNAL_DIM = 14


# ---------------------------------------------------------------------------
# record IO


def parse_record(line):
    """Parse one NDJSON measurement line; raises DataError on bad input,
    OutOfRangeError (a DataError) on a value outside its topic's range."""
    try:
        rec = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"malformed JSON: {exc}") from exc
    if not isinstance(rec, dict):
        raise DataError("record is not an object")
    topic = rec.get("topic")
    if topic not in TOPICS:
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
        if value != int(value) or not 0 <= value <= RSRQ_BINS - 1:
            raise OutOfRangeError(f"rsrq value out of range: {value}")
    if topic == "load" and not 0.0 <= value <= 1.0:
        raise OutOfRangeError(f"load value out of range: {value}")
    if topic == "ue" and value < 0:
        raise OutOfRangeError(f"ue count negative: {value}")
    return {"topic": topic, "cell": cell, "ts": ts, "value": float(value)}


def read_records(path):
    """Read an NDJSON file; returns (records, n_rejected)."""
    records, rejected = [], 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(parse_record(line))
            except DataError:
                rejected += 1
    return records, rejected


def write_records(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":"), sort_keys=True))
            fh.write("\n")


# ---------------------------------------------------------------------------
# series


@dataclass
class KpiSeries:
    """Regular-interval multivariate series for one cell.

    `missing_mask[t, c]` is True where no measurement landed in the bucket.
    """

    cell_id: str
    start_ts: int
    step_seconds: int
    channels: list
    values: np.ndarray       # (T, C) float64
    missing_mask: np.ndarray  # (T, C) bool, True = missing

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.missing_mask = np.asarray(self.missing_mask, dtype=bool)
        if self.values.shape != self.missing_mask.shape:
            raise ShapeError("values and missing_mask shapes differ")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.channels):
            raise ShapeError("values must be (T, n_channels)")

    @property
    def length(self):
        return self.values.shape[0]

    def timestamp(self, t):
        return self.start_ts + t * self.step_seconds

    def channel_index(self, name):
        try:
            return self.channels.index(name)
        except ValueError:
            raise DataError(f"cell {self.cell_id}: no channel {name!r}") from None


def records_to_series(records, step_seconds, channels=("load", "ue")):
    """Bucket records at floor(ts/step) per (cell, topic); duplicates averaged.

    Returns {cell_id: KpiSeries}; each cell's series starts at its own first
    bucket. Accumulation follows record order so streaming and batch paths
    agree bit-for-bit.
    """
    channels = list(channels)
    sums, counts = {}, {}
    for rec in records:
        if rec["topic"] not in channels:
            continue
        key = (rec["cell"], rec["topic"], rec["ts"] // step_seconds)
        sums[key] = sums.get(key, 0.0) + rec["value"]
        counts[key] = counts.get(key, 0) + 1

    cells = sorted({cell for cell, _, _ in sums})
    out = {}
    for cell in cells:
        buckets = [b for (c, _, b) in sums if c == cell]
        first, last = min(buckets), max(buckets)
        T = last - first + 1
        values = np.zeros((T, len(channels)))
        missing = np.ones((T, len(channels)), dtype=bool)
        for ci, ch in enumerate(channels):
            for b in range(first, last + 1):
                key = (cell, ch, b)
                if key in sums:
                    values[b - first, ci] = sums[key] / counts[key]
                    missing[b - first, ci] = False
        out[cell] = KpiSeries(
            cell_id=cell, start_ts=first * step_seconds,
            step_seconds=step_seconds, channels=channels,
            values=values, missing_mask=missing,
        )
    return out


def interpolate_missing(series):
    """Fill gaps: linear between present neighbors, nearest value at edges."""
    values = series.values.copy()
    mask = series.missing_mask
    for c in range(values.shape[1]):
        present = ~mask[:, c]
        if not present.any():
            raise DataError(
                f"cell {series.cell_id}: channel {series.channels[c]!r} is entirely missing")
        if present.all():
            continue
        idx = np.flatnonzero(present)
        t = np.arange(values.shape[0])
        # np.interp holds edge values flat, which is the nearest-value rule
        values[:, c] = np.interp(t, idx, values[idx, c])
    return KpiSeries(
        cell_id=series.cell_id, start_ts=series.start_ts,
        step_seconds=series.step_seconds, channels=list(series.channels),
        values=values, missing_mask=np.zeros_like(mask),
    )


# ---------------------------------------------------------------------------
# scaling


@dataclass
class ScalerParams:
    """Per-channel min-max parameters; constant channels map to 0.0."""

    channels: list
    mins: np.ndarray
    maxs: np.ndarray
    constant: np.ndarray  # bool per channel

    def to_dict(self):
        return {"channels": list(self.channels),
                "mins": self.mins.tolist(),
                "maxs": self.maxs.tolist(),
                "constant": self.constant.astype(int).tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(channels=list(d["channels"]),
                   mins=np.asarray(d["mins"], dtype=np.float64),
                   maxs=np.asarray(d["maxs"], dtype=np.float64),
                   constant=np.asarray(d["constant"], dtype=bool))


def fit_scaler(values, channels):
    """Fit per-channel min-max on the training slice only."""
    values = np.asarray(values, dtype=np.float64)
    mins = values.min(axis=0)
    maxs = values.max(axis=0)
    constant = maxs <= mins
    return ScalerParams(channels=list(channels), mins=mins, maxs=maxs, constant=constant)


def apply_scaler(values, scaler):
    """(x - min) / (max - min), clamped to [0, 1]; constant channels -> 0."""
    values = np.asarray(values, dtype=np.float64)
    span = np.where(scaler.constant, 1.0, scaler.maxs - scaler.mins)
    scaled = (values - scaler.mins) / span
    scaled = np.clip(scaled, 0.0, 1.0)
    return np.where(scaler.constant, 0.0, scaled)


def invert_scaler(values, scaler):
    values = np.asarray(values, dtype=np.float64)
    span = np.where(scaler.constant, 1.0, scaler.maxs - scaler.mins)
    return np.where(scaler.constant, scaler.mins, values * span + scaler.mins)


# ---------------------------------------------------------------------------
# external features


def external_features(ts, cell_config=None):
    """Calendar + configuration features for one anchor timestamp (UTC).

    cell_config, when given, holds band/power/bandwidth already normalized
    to [0, 1]; absent entries default to 0.5.
    """
    ts = int(ts)
    day = (ts // 86400 + 4) % 7  # epoch day 0 was a Thursday
    sec_of_day = ts % 86400
    hour_frac = sec_of_day / 86400.0
    minute_frac = (sec_of_day % 3600) / 3600.0
    feats = np.zeros(EXTERNAL_DIM)
    feats[day] = 1.0
    feats[7] = math.sin(2.0 * math.pi * hour_frac)
    feats[8] = math.cos(2.0 * math.pi * hour_frac)
    feats[9] = math.sin(2.0 * math.pi * minute_frac)
    feats[10] = math.cos(2.0 * math.pi * minute_frac)
    cfg = cell_config or {}
    feats[11] = float(cfg.get("band", 0.5))
    feats[12] = float(cfg.get("power", 0.5))
    feats[13] = float(cfg.get("bandwidth", 0.5))
    return feats


# ---------------------------------------------------------------------------
# windowing


@dataclass
class WindowSpec:
    """Lag layout: n_r recent steps, n_p daily lags, n_s weekly lags."""

    n_r: int
    n_p: int = 0
    n_s: int = 0
    period_steps: int = 0
    season_steps: int = 0

    def __post_init__(self):
        if self.n_r < 1:
            raise ShapeError("n_r must be >= 1")
        if min(self.n_p, self.n_s) < 0:
            raise ShapeError("lag counts must be >= 0")
        if self.n_p > 0:
            if self.period_steps <= self.n_r:
                raise ShapeError("period_steps must exceed n_r when periodic lags are used")
        if self.n_s > 0:
            if self.season_steps < max(self.period_steps, 1):
                raise ShapeError("season_steps must be >= period_steps")

    def history_span(self):
        """Steps of history an anchor needs before itself."""
        span = self.n_r
        if self.n_p > 0:
            span = max(span, self.n_p * self.period_steps)
        if self.n_s > 0:
            span = max(span, self.n_s * self.season_steps)
        return span

    def lag_indices(self, t):
        """Absolute indices read by each branch for anchor t, chronological."""
        recent = list(range(t - self.n_r, t))
        periodic = [t - k * self.period_steps for k in range(self.n_p, 0, -1)]
        seasonal = [t - k * self.season_steps for k in range(self.n_s, 0, -1)]
        return recent, periodic, seasonal

    def to_dict(self):
        return {"n_r": self.n_r, "n_p": self.n_p, "n_s": self.n_s,
                "period_steps": self.period_steps, "season_steps": self.season_steps}

    @classmethod
    def from_dict(cls, d):
        return cls(**{k: int(d.get(k, 0)) for k in
                      ("n_r", "n_p", "n_s", "period_steps", "season_steps")})


@dataclass
class WindowedSample:
    """One training / inference example for one anchor."""

    cell_id: str
    anchor_t: int
    anchor_ts: int
    x_recent: np.ndarray    # (n_r, C)
    x_periodic: np.ndarray  # (n_p, C)
    x_seasonal: np.ndarray  # (n_s, C)
    external: np.ndarray    # (EXTERNAL_DIM,)
    target: np.ndarray = None  # (K,) horizon targets or (bins,) histogram


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


def make_windows(series, spec, horizons=(1, 15, 60), target_channel="load",
                 require_targets=True, cell_config=None, pdf_target=False):
    """Build WindowedSamples for every feasible anchor of one series.

    Anchors whose lags would fall before index 0, or (when targets are
    required) whose horizons run past the end, are skipped. With
    `pdf_target` the target is the full channel row at the anchor
    (histogram prediction) and `horizons`/`target_channel` are ignored.
    """
    T = series.length
    first = spec.history_span()
    if pdf_target or not require_targets:
        max_h = 0 if not require_targets else 1
    else:
        max_h = max(horizons)
    if require_targets:
        last = T - max_h if not pdf_target else T - 1
    else:
        last = T  # anchor T predicts past the last observed step
    if first > last:
        return []

    tgt_col = None if pdf_target else series.channel_index(target_channel)
    samples = []
    for t in range(first, last + 1):
        recent, periodic, seasonal = spec.lag_indices(t)
        if recent[0] < 0 or (periodic and periodic[0] < 0) or (seasonal and seasonal[0] < 0):
            continue
        if require_targets:
            if pdf_target:
                target = series.values[t].copy()
            else:
                target = aggregate_targets(series.values[:, tgt_col], t, horizons)
        else:
            target = None
        samples.append(WindowedSample(
            cell_id=series.cell_id,
            anchor_t=t,
            anchor_ts=series.timestamp(t),
            x_recent=series.values[recent],
            x_periodic=series.values[periodic] if periodic else np.zeros((0, len(series.channels))),
            x_seasonal=series.values[seasonal] if seasonal else np.zeros((0, len(series.channels))),
            external=external_features(series.timestamp(t), cell_config),
            target=target,
        ))
    return samples


def split_4_1_1(samples):
    """Temporal 4:1:1 split; floor sizes for train/val, remainder to test."""
    n = len(samples)
    if n < 6:
        raise DataError(f"need at least 6 samples to split 4:1:1, got {n}")
    n_train = (4 * n) // 6
    n_val = n // 6
    return samples[:n_train], samples[n_train:n_train + n_val], samples[n_train + n_val:]


# ---------------------------------------------------------------------------
# analysis


def autocorrelation(x, max_lag):
    """Sample ACF rho(0..max_lag) with the global-mean normalization."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError("autocorrelation expects a 1-D series")
    if x.shape[0] <= max_lag:
        raise DataError("series shorter than max_lag")
    d = x - x.mean()
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise DataError("zero-variance series has no autocorrelation")
    acf = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        acf[k] = float(np.dot(d[: len(d) - k], d[k:])) / denom
    return acf


def rsrq_histogram(reports, bucket_seconds=300):
    """Group (ts, rsrq) reports into per-bucket normalized 35-bin PDFs.

    Returns (bucket_start_ts array, (n_buckets, 35) matrix, missing bool
    array for empty buckets, n_rejected). Out-of-range values are rejected,
    not clamped.
    """
    counts = {}
    rejected = 0
    for ts, value in reports:
        if value != int(value) or not 0 <= value <= RSRQ_BINS - 1:
            rejected += 1
            continue
        b = int(ts) // bucket_seconds
        row = counts.setdefault(b, np.zeros(RSRQ_BINS))
        row[int(value)] += 1.0
    if not counts:
        return np.zeros(0, dtype=np.int64), np.zeros((0, RSRQ_BINS)), np.zeros(0, dtype=bool), rejected
    first, last = min(counts), max(counts)
    n = last - first + 1
    ts_out = (np.arange(first, last + 1) * bucket_seconds).astype(np.int64)
    pdf = np.zeros((n, RSRQ_BINS))
    missing = np.ones(n, dtype=bool)
    for b, row in counts.items():
        pdf[b - first] = row / row.sum()
        missing[b - first] = False
    return ts_out, pdf, missing, rejected


def rsrq_series(records, cell_id, bucket_seconds=300):
    """RSRQ records of one cell -> KpiSeries of 35 histogram channels."""
    reports = [(r["ts"], r["value"]) for r in records
               if r["topic"] == "rsrq" and r["cell"] == cell_id]
    if not reports:
        raise DataError(f"no rsrq reports for cell {cell_id}")
    ts_out, pdf, missing, _ = rsrq_histogram(reports, bucket_seconds)
    mask = np.repeat(missing[:, None], RSRQ_BINS, axis=1)
    return KpiSeries(
        cell_id=cell_id, start_ts=int(ts_out[0]), step_seconds=bucket_seconds,
        channels=[f"rsrq_{i}" for i in range(RSRQ_BINS)],
        values=pdf, missing_mask=mask,
    )
