"""Deterministic synthetic cellular-KPI generator.

Stands in for operator measurement data: per-cell load with daily and
weekly structure, cluster-correlated cells, configuration-change shocks,
missing values, UE counts, and drifting RSRQ report distributions. Fully
reproducible from the seed. Also a wall-clock replay of recorded streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

DAY = 86400
WEEK = 7 * DAY

# additive weekday offset, Monday..Sunday, weekend dip
WEEK_PROFILE = np.array([0.02, 0.03, 0.02, 0.03, 0.04, -0.06, -0.08])
# multiplicative weekend attenuation of the daily traffic profile
WEEKEND_FACTOR = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.45, 0.40])


@dataclass
class SynthConfig:
    n_cells: int = 50
    days: float = 28.0
    step_seconds: int = 900
    start_ts: int = 1546300800  # 2019-01-01 00:00 UTC, a Tuesday
    base_low: float = 0.30
    base_high: float = 0.55
    daily_amp: float = 0.35
    weekly_amp: float = 1.0        # scales WEEK_PROFILE
    noise_sigma: float = 0.008
    ar_rho: float = 0.95
    missing_rate: float = 0.0
    n_clusters: int = 5
    event_rate: float = 0.0        # config-shock probability per cell-day
    rsrq_cells: int = 0
    rsrq_reports_per_bucket: int = 50
    rsrq_bucket_seconds: int = 300
    rsrq_drift_sigma: float = 0.15
    seed: int = 7

    def __post_init__(self):
        if not 0.0 <= self.missing_rate <= 1.0:
            raise ConfigError("missing_rate must be a probability")
        if not 0.0 <= self.event_rate <= 1.0:
            raise ConfigError("event_rate must be a probability")
        if self.daily_amp < 0 or self.weekly_amp < 0 or self.noise_sigma < 0:
            raise ConfigError("amplitudes must be non-negative")
        if self.base_high + self.daily_amp + self.weekly_amp * float(np.max(np.abs(WEEK_PROFILE))) > 1.5:
            raise ConfigError("amplitude combination drives load far outside [0,1]")
        if self.n_cells < 1 or self.n_clusters < 1 or self.step_seconds < 1:
            raise ConfigError("counts must be positive")

    @property
    def n_steps(self):
        return int(round(self.days * DAY / self.step_seconds))

    def cell_ids(self):
        return [f"cell_{i:04d}" for i in range(self.n_cells)]


def _daily_profile(config, rng):
    """Per-cell daily traffic profile sampled on the step grid: a mixture of
    2-3 wrapped Gaussian peaks shared per cluster, with small per-cell
    center/amplitude jitter. Peaky shapes (morning/evening busy hours) are
    deliberately hard to extrapolate from a few recent lags alone, which is
    exactly why day-periodic inputs carry information.

    Returns (n_cells, steps_per_day) non-negative values peaking near
    daily_amp.
    """
    steps_per_day = max(1, int(round(DAY / config.step_seconds)))
    tod = np.arange(steps_per_day) / steps_per_day
    n = config.n_cells
    cluster = np.arange(n) % config.n_clusters

    # evenly spread primary peak locations keep cross-cluster correlation low
    primary = (np.arange(config.n_clusters) / config.n_clusters
               + rng.uniform(-0.03, 0.03, size=config.n_clusters)) % 1.0
    profiles = np.zeros((n, steps_per_day))
    for k in range(config.n_clusters):
        n_bumps = int(rng.integers(2, 4))
        centers = np.concatenate([[primary[k]],
                                  (primary[k] + rng.uniform(0.2, 0.8, size=n_bumps - 1)) % 1.0])
        widths = rng.uniform(0.03, 0.07, size=n_bumps)
        heights = np.concatenate([[1.0], rng.uniform(0.4, 0.8, size=n_bumps - 1)])
        members = np.flatnonzero(cluster == k)
        for i in members:
            shift = rng.uniform(-0.02, 0.02)
            scale = rng.uniform(0.85, 1.15)
            shape = np.zeros(steps_per_day)
            for c, w, a in zip(centers, widths, heights):
                d = np.abs(tod - (c + shift) % 1.0)
                d = np.minimum(d, 1.0 - d)  # circular distance in day fraction
                shape += a * np.exp(-0.5 * (d / w) ** 2)
            profiles[i] = config.daily_amp * scale * shape / shape.max()
    return profiles


def _cell_load_matrix(config, rng):
    """(n_cells, T) clipped load values plus the driving components."""
    T = config.n_steps
    steps = np.arange(T)
    ts = config.start_ts + steps * config.step_seconds
    dow = (ts // DAY + 3) % 7       # 0 = Monday; epoch day 0 was a Thursday

    n = config.n_cells
    profiles = _daily_profile(config, rng)
    steps_per_day = profiles.shape[1]
    tod_idx = ((ts % DAY) * steps_per_day // DAY).astype(int)
    cl_base = rng.uniform(config.base_low, config.base_high, size=config.n_clusters)
    cluster = np.arange(n) % config.n_clusters

    # shared cluster AR(1) component ties cluster members together
    cl_ar = np.zeros((config.n_clusters, T))
    shocks = rng.normal(0.0, config.noise_sigma, size=(config.n_clusters, T))
    for t in range(1, T):
        cl_ar[:, t] = config.ar_rho * cl_ar[:, t - 1] + shocks[:, t]

    cell_offset = rng.uniform(-0.04, 0.04, size=n)

    # per-cell AR(1) noise, weaker than the shared component
    cell_ar = np.zeros((n, T))
    cshocks = rng.normal(0.0, 0.5 * config.noise_sigma, size=(n, T))
    for t in range(1, T):
        cell_ar[:, t] = config.ar_rho * cell_ar[:, t - 1] + cshocks[:, t]

    weekly = config.weekly_amp * WEEK_PROFILE[dow]
    weekend = WEEKEND_FACTOR[dow]   # multiplicative: weekends flatten the peaks

    # day-to-day busy-hour intensity, AR(1) across days per cluster: how tall
    # today's peaks are is best read off yesterday's peaks, which is what the
    # day-periodic model inputs provide
    n_days = int(np.ceil(config.days)) + 1
    day_mult = np.ones((config.n_clusters, n_days))
    for d in range(1, n_days):
        day_mult[:, d] = 1.0 + 0.6 * (day_mult[:, d - 1] - 1.0) \
            + rng.normal(0.0, 0.18, size=config.n_clusters)
    day_mult = np.clip(day_mult, 0.55, 1.45)
    spd = max(1, int(round(DAY / config.step_seconds)))
    day_idx = np.minimum(steps // spd, n_days - 1)

    # persistent per-cell config shocks (step change in base load)
    shock_level = np.zeros((n, T))
    if config.event_rate > 0:
        n_days = int(np.ceil(config.days))
        hits = rng.random(size=(n, n_days)) < config.event_rate
        deltas = rng.uniform(-0.08, 0.08, size=(n, n_days))
        steps_per_day = max(1, DAY // config.step_seconds)
        for i in range(n):
            level = 0.0
            for d in range(n_days):
                if hits[i, d]:
                    level += deltas[i, d]
                lo = d * steps_per_day
                shock_level[i, lo:lo + steps_per_day] = level

    load = np.empty((n, T))
    for i in range(n):
        cl = cluster[i]
        daily = profiles[i, tod_idx] * weekend * day_mult[cl, day_idx]
        load[i] = (cl_base[cl] + cell_offset[i] + daily + weekly
                   + cl_ar[cl] + cell_ar[i] + shock_level[i])
    return np.clip(load, 0.0, 1.0)


def generate(config):
    """Produce the full synthetic record list, sorted by (ts, cell, topic).

    Deterministic for a fixed config; missing values are dropped records.
    """
    rng = np.random.default_rng(config.seed)
    cells = config.cell_ids()
    load = _cell_load_matrix(config, rng)
    T = config.n_steps
    if T < 1:
        raise ConfigError("config produces an empty series")

    ue = np.maximum(0.0, np.round(200.0 * load + rng.normal(0.0, 3.0, size=load.shape)))
    drop_load = rng.random(size=load.shape) < config.missing_rate
    drop_ue = rng.random(size=load.shape) < config.missing_rate

    records = []
    for i, cell in enumerate(cells):
        for t in range(T):
            ts = config.start_ts + t * config.step_seconds
            if not drop_load[i, t]:
                records.append({"topic": "load", "cell": cell, "ts": int(ts),
                                "value": round(float(load[i, t]), 6)})
            if not drop_ue[i, t]:
                records.append({"topic": "ue", "cell": cell, "ts": int(ts),
                                "value": float(ue[i, t])})

    records.extend(_generate_rsrq(config, rng))
    records.sort(key=lambda r: (r["ts"], r["cell"], r["topic"]))
    return records


def _generate_rsrq(config, rng):
    """Per-cell drifting 35-bin RSRQ report stream."""
    if config.rsrq_cells <= 0:
        return []
    n_buckets = int(round(config.days * DAY / config.rsrq_bucket_seconds))
    records = []
    spacing = max(1, config.rsrq_bucket_seconds // max(1, config.rsrq_reports_per_bucket))
    for i in range(config.rsrq_cells):
        cell = f"cell_{i:04d}"
        phase = rng.uniform(0.0, 2.0 * np.pi)
        mode = 17.0
        for b in range(n_buckets):
            t0 = config.start_ts + b * config.rsrq_bucket_seconds
            mode += rng.normal(0.0, config.rsrq_drift_sigma)
            mode = float(np.clip(mode, 6.0, 28.0))
            center = mode + 6.0 * np.sin(2.0 * np.pi * (t0 % DAY) / DAY + phase)
            draws = np.round(rng.normal(center, 2.5, size=config.rsrq_reports_per_bucket))
            draws = np.clip(draws, 0, 34).astype(int)
            for j, v in enumerate(draws):
                records.append({"topic": "rsrq", "cell": cell,
                                "ts": int(t0 + j * spacing), "value": int(v)})
    return records


def replay(records, speedup, sink, clock=time):
    """Emit records to `sink(record)` on the recorded timeline / speedup.

    All records sharing a timestamp are emitted together. speedup=inf (or
    <= 0) replays flat-out. Raises on unordered input.
    """
    last_ts = None
    start_wall = None
    first_ts = None
    for rec in records:
        ts = rec["ts"]
        if last_ts is not None and ts < last_ts:
            raise DataError(f"records not time-ordered at ts={ts}")
        last_ts = ts
        if speedup and np.isfinite(speedup) and speedup > 0:
            if first_ts is None:
                first_ts = ts
                start_wall = clock.monotonic()
            due = start_wall + (ts - first_ts) / speedup
            delay = due - clock.monotonic()
            if delay > 0:
                clock.sleep(delay)
        sink(rec)
