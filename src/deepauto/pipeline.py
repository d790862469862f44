"""End-to-end dataset assembly shared by the CLI, tests, and experiments:
records -> one SeriesBlock of every cell -> gap fill -> leakage-safe
scaling -> windows -> temporal split.

The block keeps every cell's series end to end in cell-id order, from the
bucketing to the windows: each builder is one `make_windows` call that
gathers its rows, in (anchor index, cell id) order, from the block in
place, as the streaming engine gathers from its joined histories.
"""

from __future__ import annotations

import numpy as np

from .dataprep import (LOAD_CHANNELS, fill_block, fit_scaler, make_windows, records_to_series,
                       split_4_1_1, window_anchors)
from .errors import DataError


def load_series(records, step_seconds, channels=LOAD_CHANNELS):
    """Records (any iterable, read once) -> the filled SeriesBlock of every
    cell under the channel layout `channels`: load/ue means by default,
    RSRQ_CHANNELS for bin histograms."""
    return fill_series(records_to_series(records, step_seconds, channels))


def fill_series(block):
    """The SeriesBlock `block` with its gaps filled (`fill_block`); raises
    DataError when it holds no cell, or a cell with a channel that holds no
    value."""
    if not block.cell_ids:
        raise DataError(f"no records fill the {block.channels[0]}..{block.channels[-1]} channels")
    filled, dead = fill_block(block)
    if dead:
        cell, channel = next(iter(dead.items()))
        raise DataError(f"cell {cell}: channel {channel!r} is entirely missing")
    return filled


def prepare_load_dataset(block, window, horizons):
    """Build scaled Windows across the cells of the filled SeriesBlock
    `block`, in (anchor index, cell id) order, with a 4:1:1 temporal split.

    The scaler is fitted only on each cell's rows strictly before the first
    validation anchor, so no validation/test information leaks into it.
    Returns (train, val, test, scaler).
    """
    lengths = np.diff(block.offsets)
    _, t = window_anchors(lengths, window, horizons, True, False)
    if len(t) < 6:
        raise DataError("not enough anchors for a 4:1:1 split")
    boundary = t[(4 * len(t)) // 6]  # first validation anchor

    fitted = np.arange(len(block.values)) < np.repeat(block.offsets[:-1] + boundary, lengths)
    scaler = fit_scaler(block.values[fitted], block.channels)
    samples = make_windows(block, window, horizons, scaler=scaler)
    train, val, test = split_4_1_1(samples)
    return train, val, test, scaler


def prepare_pdf_dataset(block, window):
    """Histogram series (`load_series` under RSRQ_CHANNELS) -> Windows in
    (anchor index, cell id) order, 4:1:1 split.

    Histogram rows are already normalized, so there is no scaler (None).
    """
    train, val, test = split_4_1_1(make_windows(block, window, (), pdf_target=True))
    return train, val, test, None


def prediction_samples(block, window, scaler):
    """Inference-mode Windows (no targets) in (anchor index, cell id) order
    for batch prediction; the same windows the streaming engine builds
    online. Raises DataError when no cell spans the window's history."""
    samples = make_windows(block, window, (), require_targets=False, scaler=scaler)
    if not len(samples):
        raise DataError(f"no cell has the {window.history_span()} steps of history "
                        "that a prediction needs")
    return samples
