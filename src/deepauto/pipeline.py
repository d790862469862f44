"""End-to-end dataset assembly shared by the CLI, tests, and experiments:
records -> per-cell series -> interpolation -> leakage-safe scaling ->
windows -> temporal split.
"""

from __future__ import annotations

import numpy as np

from .dataprep import (KpiSeries, Windows, apply_scaler, fit_scaler, interpolate_missing,
                       make_windows, records_to_series, rsrq_series, split_4_1_1)
from .errors import DataError


def load_series(records, step_seconds):
    """Records (any iterable, read once) -> interpolated per-cell load/ue
    KpiSeries."""
    series = records_to_series(records, step_seconds)
    if not series:
        raise DataError("no load/ue records found")
    return {cell: interpolate_missing(s) for cell, s in series.items()}


def load_rsrq_series(records, bucket_seconds):
    """RSRQ records (any iterable, read once) -> interpolated per-cell
    histogram KpiSeries. One pass groups the reports by cell, in record
    order, so the cost is linear in records and cells."""
    by_cell = {}
    for r in records:
        if r["topic"] == "rsrq":
            by_cell.setdefault(r["cell"], []).append(r)
    if not by_cell:
        raise DataError("no rsrq records found")
    return {cell: interpolate_missing(rsrq_series(by_cell[cell], cell, bucket_seconds))
            for cell in sorted(by_cell)}


def _scaled(series, scaler):
    return KpiSeries(
        cell_id=series.cell_id, start_ts=series.start_ts,
        step_seconds=series.step_seconds, channels=list(series.channels),
        values=apply_scaler(series.values, scaler),
        missing_mask=series.missing_mask,
    )


def _by_anchor(windows_by_cell, window):
    """Concatenate per-cell Windows, yielded in cell-id order, into one batch
    ordered by (anchor index, cell id). Each cell's anchors run contiguously
    from window.history_span(), as make_windows builds them. The per-cell
    Windows are dropped once concatenated, so at most two copies of the rows
    are alive at a time."""
    parts = list(windows_by_cell)
    t = np.concatenate([np.arange(len(w)) for w in parts]) + window.history_span()
    merged = Windows.concat(parts)
    del parts
    return merged[np.argsort(t, kind="stable")]


def prepare_load_dataset(series_by_cell, window, horizons, target_channel="load"):
    """Build scaled Windows across cells with a 4:1:1 temporal split.

    The scaler is fitted only on timesteps strictly before the first
    validation anchor, so no validation/test information leaks into it.
    Returns (train, val, test, scaler).
    """
    first = window.history_span()
    anchors = np.sort(np.concatenate(
        [np.arange(first, s.length - max(horizons) + 1) for s in series_by_cell.values()]))
    if len(anchors) < 6:
        raise DataError("not enough anchors for a 4:1:1 split")
    boundary = anchors[(4 * len(anchors)) // 6]  # first validation anchor

    any_series = next(iter(series_by_cell.values()))
    train_rows = np.concatenate(
        [s.values[:min(boundary, s.length)] for _, s in sorted(series_by_cell.items())])
    scaler = fit_scaler(train_rows, any_series.channels)

    per_cell = (make_windows(_scaled(s, scaler), window, horizons, target_channel=target_channel)
                for _, s in sorted(series_by_cell.items()))
    train, val, test = split_4_1_1(_by_anchor(per_cell, window))
    return train, val, test, scaler


def prepare_pdf_dataset(records, window, bucket_seconds=300):
    """RSRQ records -> histogram Windows with a 4:1:1 split.

    Histogram rows are already normalized, so there is no scaler (None).
    """
    per_cell = (make_windows(s, window, pdf_target=True)
                for s in load_rsrq_series(records, bucket_seconds).values())
    train, val, test = split_4_1_1(_by_anchor(per_cell, window))
    return train, val, test, None


def prediction_samples(series_by_cell, window, scaler):
    """Inference-mode Windows (no targets) for batch prediction; the same
    windows the streaming engine builds online. Raises DataError when no
    cell spans the window's history."""
    per_cell = (make_windows(_scaled(s, scaler) if scaler is not None else s, window,
                             require_targets=False)
                for _, s in sorted(series_by_cell.items()))
    samples = _by_anchor(per_cell, window)
    if not len(samples):
        raise DataError(f"no cell has the {window.history_span()} steps of history "
                        "that a prediction needs")
    return samples
