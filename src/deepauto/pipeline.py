"""End-to-end dataset assembly shared by the CLI, tests, and experiments:
records -> per-cell series -> interpolation -> leakage-safe scaling ->
windows -> temporal split.

Each builder is one `make_windows` call over every cell's series in
cell-id order, so a batch holds its rows in (anchor index, cell id) order,
gathered from the cells' values joined end to end: the gather the
streaming engine makes over its joined histories.
"""

from __future__ import annotations

import numpy as np

from .dataprep import (LOAD_CHANNELS, fit_scaler, interpolate_missing, make_windows,
                       records_to_series, split_4_1_1, window_anchors)
from .errors import DataError


def load_series(records, step_seconds, channels=LOAD_CHANNELS):
    """Records (any iterable, read once) -> interpolated per-cell KpiSeries
    under the channel layout `channels`: load/ue means by default,
    RSRQ_CHANNELS for bin histograms."""
    return fill_series(records_to_series(records, step_seconds, channels), channels)


def fill_series(series_by_cell, channels):
    """Per-cell series bucketed under the channel layout `channels`, each
    with its gaps filled (`interpolate_missing`); raises DataError when
    there is no cell."""
    if not series_by_cell:
        raise DataError(f"no records fill the {channels[0]}..{channels[-1]} channels")
    return {cell: interpolate_missing(s) for cell, s in series_by_cell.items()}


def prepare_load_dataset(series_by_cell, window, horizons):
    """Build scaled Windows across cells, in (anchor index, cell id) order,
    with a 4:1:1 temporal split.

    The scaler is fitted only on timesteps strictly before the first
    validation anchor, so no validation/test information leaks into it.
    Returns (train, val, test, scaler).
    """
    cells = [series_by_cell[cell] for cell in sorted(series_by_cell)]
    t = np.sort(np.concatenate([np.empty(0, np.intp)] + [
        window_anchors(s.length, window, horizons, True, False) for s in cells]))
    if len(t) < 6:
        raise DataError("not enough anchors for a 4:1:1 split")
    boundary = t[(4 * len(t)) // 6]  # first validation anchor

    scaler = fit_scaler(np.concatenate([s.values[:boundary] for s in cells]),
                        cells[0].channels)
    samples = make_windows(cells, window, horizons, scaler=scaler)
    train, val, test = split_4_1_1(samples)
    return train, val, test, scaler


def prepare_pdf_dataset(series_by_cell, window):
    """Histogram series (`load_series` under RSRQ_CHANNELS) -> Windows in
    (anchor index, cell id) order, 4:1:1 split.

    Histogram rows are already normalized, so there is no scaler (None).
    """
    samples = make_windows([series_by_cell[cell] for cell in sorted(series_by_cell)], window,
                           (), pdf_target=True)
    train, val, test = split_4_1_1(samples)
    return train, val, test, None


def prediction_samples(series_by_cell, window, scaler):
    """Inference-mode Windows (no targets) in (anchor index, cell id) order
    for batch prediction; the same windows the streaming engine builds
    online. Raises DataError when no cell spans the window's history."""
    samples = make_windows([series_by_cell[cell] for cell in sorted(series_by_cell)], window,
                           (), require_targets=False, scaler=scaler)
    if not len(samples):
        raise DataError(f"no cell has the {window.history_span()} steps of history "
                        "that a prediction needs")
    return samples
