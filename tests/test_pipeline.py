"""Batch assembly in `pipeline`: the three builders equal the two-copy
reference assembly bit for bit, and hold little more memory than the
batch they return."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepauto import dataprep as dp
from deepauto import pipeline, synthgen
from deepauto.errors import DataError

import oracles


def assert_same_windows(got, want):
    assert list(got.arrays) == list(want.arrays)
    for name, arr in want.arrays.items():
        assert got.arrays[name].dtype == arr.dtype and got.arrays[name].shape == arr.shape
        assert got.arrays[name].tobytes() == arr.tobytes(), name
    assert got.cell_ids.dtype == want.cell_ids.dtype
    assert got.cell_ids.tolist() == want.cell_ids.tolist()
    assert got.anchor_ts.dtype == want.anchor_ts.dtype
    assert got.anchor_ts.tobytes() == want.anchor_ts.tobytes()


def assert_same_splits(got, want):
    for g, w in zip(got, dp.split_4_1_1(want)):
        assert_same_windows(g, w)


def reference_load_dataset(block, window, horizons):
    """prepare_load_dataset as the oracle assembles it: the scaler fitted on
    every cell's rows before the first validation anchor, then windows of
    the scaled series in (anchor index, cell id) order."""
    cells = list(oracles.cells_of(block).values())
    lengths = [len(windows_of(s, window, horizons)) for s in cells]
    t = np.sort(np.concatenate([np.arange(n) for n in lengths]) + window.history_span())
    if len(t) < 6:
        return None, None
    boundary = t[(4 * len(t)) // 6]
    scaler = dp.fit_scaler(np.concatenate([s.values[:boundary] for s in cells]),
                           cells[0].channels)
    windows, _ = oracles.windows_by_anchor(
        [windows_of(scaled(s, scaler), window, horizons) for s in cells],
        window.history_span())
    return windows, scaler


def windows_of(series, window, *args, **kwargs):
    """`make_windows` of the one CellSeries `series`."""
    return dp.make_windows(oracles.series_block([series]), window, *args, **kwargs)


def scaled(series, scaler):
    if scaler is None:
        return series
    return oracles.CellSeries(series.cell_id, series.start_ts, series.step_seconds,
                              list(series.channels), dp.apply_scaler(series.values, scaler),
                              series.missing_mask)


def check_builders(series, window, horizons=None):
    """Every builder against the oracle, on the filled SeriesBlock `series`;
    the load builder only when `horizons` is given."""
    cells = list(oracles.cells_of(series).values())
    scaler = None
    if horizons is not None:
        want, scaler = reference_load_dataset(series, window, horizons)
        if want is None:
            with pytest.raises(DataError):
                pipeline.prepare_load_dataset(series, window, horizons)
        else:
            *got, got_scaler = pipeline.prepare_load_dataset(series, window, horizons)
            assert got_scaler.to_dict() == scaler.to_dict()
            assert_same_splits(got, want)

    pdf, _ = oracles.windows_by_anchor([windows_of(s, window, pdf_target=True)
                                        for s in cells], window.history_span())
    if len(pdf) < 6:
        with pytest.raises(DataError):
            pipeline.prepare_pdf_dataset(series, window)
    else:
        *got, none = pipeline.prepare_pdf_dataset(series, window)
        assert none is None
        assert_same_splits(got, pdf)

    for sc in (scaler, None):
        want, _ = oracles.windows_by_anchor(
            [windows_of(scaled(s, sc), window, require_targets=False) for s in cells],
            window.history_span())
        if not len(want):
            with pytest.raises(DataError, match="steps of history"):
                pipeline.prediction_samples(series, window, sc)
        else:
            assert_same_windows(pipeline.prediction_samples(series, window, sc), want)


@given(st.integers(0, 2**32 - 1),
       st.lists(st.text("abc_019", min_size=1, max_size=12), min_size=1, max_size=4,
                unique=True),
       st.integers(1, 5), st.integers(0, 2), st.sampled_from([0.0, 0.05, 0.3]),
       st.lists(st.integers(1, 6), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_builders_equal_the_two_copy_assembly(seed, cell_ids, n_r, n_p, missing_rate,
                                               horizons):
    """One cell or several; ids of different lengths; cells shorter than the
    history span, or too short for any target; gaps filled by
    fill_series."""
    rng = np.random.default_rng(seed)
    window = dp.WindowSpec(n_r=n_r, n_p=n_p, period_steps=n_r + 3 if n_p else 0)
    span = window.history_span()
    raw = []
    for cell in cell_ids:
        length = int(rng.integers(1, span + 30))
        values = rng.random((length, 2))
        missing = rng.random((length, 2)) < missing_rate
        missing[0] = False  # every channel holds a value
        raw.append(oracles.CellSeries(cell, 900 * int(rng.integers(-50, 50)), 900,
                                      ["load", "ue"], np.where(missing, 0.0, values), missing))
    check_builders(pipeline.fill_series(oracles.series_block(raw)), window, horizons)


@pytest.mark.parametrize("missing_rate", [0.0, 0.05])
def test_builders_equal_the_two_copy_assembly_on_generated_records(missing_rate):
    records = synthgen.generate(synthgen.SynthConfig(
        n_cells=5, days=2, missing_rate=missing_rate, rsrq_cells=2, seed=17))
    window = dp.WindowSpec(n_r=6, n_p=1, period_steps=96)
    check_builders(pipeline.load_series(records, 900), window, (1, 4))
    check_builders(pipeline.load_series(records, 300, dp.RSRQ_CHANNELS), window)


def returned_bytes(*batches):
    return sum(a.nbytes for w in batches
               for a in (*w.arrays.values(), w.cell_ids, w.anchor_ts))


def traced_peak(call):
    """(result of call(), peak bytes it allocated, under tracemalloc)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_builders_hold_little_more_than_the_batch_they_return():
    """Each batch array is allocated once at its final size: the peak of a
    build stays under 1.6x the bytes it returns (a concatenated copy next to
    an ordered one is 2x)."""
    records = synthgen.generate(synthgen.SynthConfig(n_cells=12, days=7, seed=3))
    series = pipeline.load_series(records, 900)
    del records
    window = dp.WindowSpec(n_r=20, n_p=2, period_steps=96)

    (train, val, test, scaler), peak = traced_peak(
        lambda: pipeline.prepare_load_dataset(series, window, (1, 8)))
    assert peak < 1.6 * returned_bytes(train, val, test)
    del train, val, test

    samples, peak = traced_peak(lambda: pipeline.prediction_samples(series, window, scaler))
    assert peak < 1.6 * returned_bytes(samples)
