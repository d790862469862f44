"""End-to-end dataset assembly shared by the CLI, tests, and experiments:
records -> per-cell series -> interpolation -> leakage-safe scaling ->
windows -> temporal split.

A batch holds its rows in (anchor index, cell id) order. Its arrays are
allocated once at their final size, and each cell's `make_windows` rows are
written straight into their slots and dropped, so building a batch holds
one cell's windows beside it, not a second copy of the whole batch.
"""

from __future__ import annotations

import numpy as np

from .dataprep import (LOAD_CHANNELS, KpiSeries, Windows, apply_scaler,
                       fit_scaler, interpolate_missing, make_windows, records_to_series,
                       split_4_1_1, window_anchors)
from .errors import DataError


def load_series(records, step_seconds, channels=LOAD_CHANNELS):
    """Records (any iterable, read once) -> interpolated per-cell KpiSeries
    under the channel layout `channels`: load/ue means by default,
    RSRQ_CHANNELS for bin histograms."""
    series = records_to_series(records, step_seconds, channels)
    if not series:
        raise DataError(f"no records fill the {channels[0]}..{channels[-1]} channels")
    return {cell: interpolate_missing(s) for cell, s in series.items()}


def _scaled(series, scaler):
    return KpiSeries(
        cell_id=series.cell_id, start_ts=series.start_ts,
        step_seconds=series.step_seconds, channels=list(series.channels),
        values=apply_scaler(series.values, scaler),
        missing_mask=series.missing_mask,
    )


def _anchor_order(series_by_cell, window, rule):
    """(cells, t, order): the series in cell-id order, the anchor index of
    every row `make_windows(s, window, **rule)` builds for them, cell after
    cell (`window_anchors`, the rule make_windows uses), and the stable
    argsort of `t` that puts those rows in (anchor index, cell id) order."""
    cells = [s for _, s in sorted(series_by_cell.items())]
    t = np.concatenate([np.empty(0, np.intp)] + [window_anchors(s.length, window, **rule)
                                                 for s in cells])
    return cells, t, np.argsort(t, kind="stable")


def _in_anchor_order(cells, order, windows_of):
    """One batch of the Windows `windows_of(s)` of every series in `cells`,
    its rows in the order `order` of `_anchor_order`. Each output array is
    allocated once at its final size and each cell's rows are written
    straight into their slots, so the only other copy of the rows alive is
    one cell's Windows. Raises DataError when `cells` is empty."""
    if not cells:
        raise DataError("no cell series to window")
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    # a cell's ids have the dtype of its own id; the batch's fits the longest
    id_dtype = np.array([s.cell_id for s in cells]).dtype
    batch, start = None, 0
    for s in cells:
        w = windows_of(s)
        if batch is None:
            n = len(order)
            batch = Windows({k: np.empty((n,) + v.shape[1:], v.dtype)
                             for k, v in w.arrays.items()},
                            np.empty(n, id_dtype), np.empty(n, w.anchor_ts.dtype))
        rows = slot[start:start + len(w)]
        start += len(w)
        for k, v in w.arrays.items():
            batch.arrays[k][rows] = v
        batch.cell_ids[rows] = w.cell_ids
        batch.anchor_ts[rows] = w.anchor_ts
    return batch


def prepare_load_dataset(series_by_cell, window, horizons):
    """Build scaled Windows across cells, in (anchor index, cell id) order,
    with a 4:1:1 temporal split.

    The scaler is fitted only on timesteps strictly before the first
    validation anchor, so no validation/test information leaks into it.
    Returns (train, val, test, scaler).
    """
    rule = {"horizons": horizons, "require_targets": True, "pdf_target": False}
    cells, t, order = _anchor_order(series_by_cell, window, rule)
    if len(t) < 6:
        raise DataError("not enough anchors for a 4:1:1 split")
    boundary = t[order[(4 * len(t)) // 6]]  # first validation anchor

    train_rows = np.concatenate([s.values[:min(boundary, s.length)] for s in cells])
    scaler = fit_scaler(train_rows, cells[0].channels)

    samples = _in_anchor_order(cells, order, lambda s: make_windows(
        _scaled(s, scaler), window, **rule))
    train, val, test = split_4_1_1(samples)
    return train, val, test, scaler


def prepare_pdf_dataset(series_by_cell, window):
    """Histogram series (`load_series` under RSRQ_CHANNELS) -> Windows in
    (anchor index, cell id) order, 4:1:1 split.

    Histogram rows are already normalized, so there is no scaler (None).
    """
    rule = {"horizons": (), "require_targets": True, "pdf_target": True}
    cells, _, order = _anchor_order(series_by_cell, window, rule)
    samples = _in_anchor_order(cells, order, lambda s: make_windows(s, window, **rule))
    train, val, test = split_4_1_1(samples)
    return train, val, test, None


def prediction_samples(series_by_cell, window, scaler):
    """Inference-mode Windows (no targets) in (anchor index, cell id) order
    for batch prediction; the same windows the streaming engine builds
    online. Raises DataError when no cell spans the window's history."""
    rule = {"horizons": (), "require_targets": False, "pdf_target": False}
    cells, _, order = _anchor_order(series_by_cell, window, rule)
    samples = _in_anchor_order(cells, order, lambda s: make_windows(
        _scaled(s, scaler) if scaler is not None else s, window, **rule))
    if not len(samples):
        raise DataError(f"no cell has the {window.history_span()} steps of history "
                        "that a prediction needs")
    return samples
