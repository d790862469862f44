import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepauto import dataprep as dp
from deepauto.errors import DataError, OutOfRangeError, ShapeError

import oracles


def series_from(values, missing=None, step=60, cell="c1", channels=None):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    channels = channels or [f"ch{i}" for i in range(values.shape[1])]
    mask = np.zeros_like(values, dtype=bool) if missing is None else np.asarray(missing, dtype=bool)
    if mask.ndim == 1:
        mask = mask[:, None]
    return dp.KpiSeries(cell_id=cell, start_ts=0, step_seconds=step,
                        channels=channels, values=values, missing_mask=mask)


# ---------------------------------------------------------------------------
# record parsing


def test_parse_record_roundtrip():
    rec = dp.parse_record('{"topic":"load","cell":"a","ts":120,"value":0.5}')
    assert rec == {"topic": "load", "cell": "a", "ts": 120, "value": 0.5}


@pytest.mark.parametrize("line", [
    "not json",
    '{"topic":"bogus","cell":"a","ts":1,"value":0.5}',
    '{"topic":"load","cell":"a","ts":1.5,"value":0.5}',
    '{"topic":"load","cell":"a","ts":1,"value":1.5}',
    '{"topic":"rsrq","cell":"a","ts":1,"value":35}',
    '{"topic":"ue","cell":"a","ts":1,"value":-3}',
    '{"topic":"load","cell":"","ts":1,"value":0.5}',
])
def test_parse_record_rejects(line):
    with pytest.raises(DataError):
        dp.parse_record(line)


@pytest.mark.parametrize("line, out_of_range", [
    ('{"topic":"load","cell":"a","ts":1,"value":1.5}', True),
    ('{"topic":"load","cell":"a","ts":1,"value":-0.1}', True),
    ('{"topic":"rsrq","cell":"a","ts":1,"value":35}', True),
    ('{"topic":"rsrq","cell":"a","ts":1,"value":2.5}', True),
    ('{"topic":"ue","cell":"a","ts":1,"value":-3}', True),
    ('{"topic":"load","cell":"a","ts":1,"value":"0.5"}', False),
    ('{"topic":"load","cell":"a","ts":1.5,"value":0.5}', False),
    ("not json", False),
])
def test_parse_record_range_errors_are_out_of_range(line, out_of_range):
    with pytest.raises(DataError) as info:
        dp.parse_record(line)
    assert isinstance(info.value, OutOfRangeError) == out_of_range


def test_records_to_series_buckets_and_averages():
    records = [
        {"topic": "load", "cell": "a", "ts": 0, "value": 0.4},
        {"topic": "load", "cell": "a", "ts": 30, "value": 0.6},  # same bucket
        {"topic": "load", "cell": "a", "ts": 120, "value": 0.8},
        {"topic": "ue", "cell": "a", "ts": 0, "value": 10.0},
    ]
    series = dp.records_to_series(records, 60)["a"]
    assert series.values[0, 0] == pytest.approx(0.5)
    assert series.missing_mask[1, 0]           # bucket 1 empty
    assert series.values[2, 0] == pytest.approx(0.8)
    assert series.missing_mask[0, 1] == False  # noqa: E712
    assert series.missing_mask[2, 1]           # no ue record in bucket 2


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_midpoint():
    s = series_from([1.0, 0.0, 3.0], missing=[False, True, False])
    out = dp.interpolate_missing(s)
    np.testing.assert_allclose(out.values[:, 0], [1.0, 2.0, 3.0])
    assert not out.missing_mask.any()


def test_interpolate_edge_extension():
    s = series_from([0.0, 2.0, 0.0], missing=[True, False, True])
    out = dp.interpolate_missing(s)
    np.testing.assert_allclose(out.values[:, 0], [2.0, 2.0, 2.0])


def test_interpolate_multi_step_gap():
    s = series_from([0.0, 0.0, 0.0, 0.9], missing=[False, True, True, False])
    out = dp.interpolate_missing(s)
    np.testing.assert_allclose(out.values[:, 0], [0.0, 0.3, 0.6, 0.9])


def test_interpolate_all_missing_channel():
    s = series_from([0.0, 0.0], missing=[True, True])
    with pytest.raises(DataError, match="entirely missing"):
        dp.interpolate_missing(s)


def test_interpolate_idempotent():
    rng = np.random.default_rng(5)
    values = rng.uniform(size=20)
    missing = rng.random(20) < 0.4
    missing[0] = False
    s = series_from(values, missing=missing)
    once = dp.interpolate_missing(s)
    twice = dp.interpolate_missing(once)
    np.testing.assert_array_equal(once.values, twice.values)


# ---------------------------------------------------------------------------
# scaling


def test_scaler_basic():
    scaler = dp.fit_scaler(np.array([[0.0], [10.0]]), ["x"])
    assert dp.apply_scaler(np.array([[5.0]]), scaler)[0, 0] == pytest.approx(0.5)


def test_scaler_roundtrip():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(50, 3)) * 10
    scaler = dp.fit_scaler(data, ["a", "b", "c"])
    back = dp.invert_scaler(dp.apply_scaler(data, scaler), scaler)
    np.testing.assert_allclose(back, data, atol=1e-12)


def test_scaler_clamps_out_of_range():
    scaler = dp.fit_scaler(np.array([[2.0], [8.0]]), ["x"])
    assert dp.apply_scaler(np.array([[11.0]]), scaler)[0, 0] == 1.0
    assert dp.apply_scaler(np.array([[-1.0]]), scaler)[0, 0] == 0.0


def test_scaler_constant_channel():
    scaler = dp.fit_scaler(np.array([[3.0], [3.0]]), ["x"])
    assert scaler.constant[0]
    assert dp.apply_scaler(np.array([[3.0]]), scaler)[0, 0] == 0.0


def test_scaler_fitted_on_train_only():
    rng = np.random.default_rng(9)
    train = rng.uniform(0, 1, size=(40, 2))
    test = rng.uniform(5, 6, size=(10, 2))  # very different range
    fit_train = dp.fit_scaler(train, ["a", "b"])
    fit_all = dp.fit_scaler(np.vstack([train, test]), ["a", "b"])
    assert not np.array_equal(fit_train.maxs, fit_all.maxs)
    np.testing.assert_array_equal(fit_train.maxs, train.max(axis=0))


# ---------------------------------------------------------------------------
# external features


def test_external_features_invariants():
    feats = dp.external_features(1546300800)  # 2019-01-01 00:00 UTC
    assert feats.shape == (dp.EXTERNAL_DIM,)
    assert feats[:7].sum() == 1.0
    assert feats[7] ** 2 + feats[8] ** 2 == pytest.approx(1.0, abs=1e-12)
    assert feats[9] ** 2 + feats[10] ** 2 == pytest.approx(1.0, abs=1e-12)


def test_external_features_day_cycle():
    a = dp.external_features(0)
    b = dp.external_features(7 * 86400)
    np.testing.assert_array_equal(a[:11], b[:11])


# ---------------------------------------------------------------------------
# windowing


def test_window_spec_validation():
    with pytest.raises(ShapeError):
        dp.WindowSpec(n_r=10, n_p=1, period_steps=5)  # period must exceed n_r
    with pytest.raises(ShapeError):
        dp.WindowSpec(n_r=0)


def test_recent_lag_indices():
    spec = dp.WindowSpec(n_r=3)
    recent, periodic, seasonal = spec.lag_indices(100)
    assert recent == [97, 98, 99]
    assert periodic == [] and seasonal == []


def test_periodic_lag_indices():
    spec = dp.WindowSpec(n_r=3, n_p=2, period_steps=1440)
    _, periodic, _ = spec.lag_indices(3000)
    assert periodic == [120, 1560]


def test_make_windows_anchor_count():
    s = series_from(np.arange(10.0), channels=["load"])
    samples = dp.make_windows(s, dp.WindowSpec(n_r=3), horizons=[1], target_channel="load")
    assert [x.anchor_t for x in samples] == list(range(3, 10))
    assert len(samples) == 7


def test_make_windows_values_and_targets():
    s = series_from(np.arange(100.0), channels=["load"])
    spec = dp.WindowSpec(n_r=2, n_p=1, period_steps=10)
    samples = dp.make_windows(s, spec, horizons=[1, 5], target_channel="load")
    first = samples[0]
    assert first.anchor_t == 10
    np.testing.assert_array_equal(first.x_recent[:, 0], [8.0, 9.0])
    np.testing.assert_array_equal(first.x_periodic[:, 0], [0.0])
    np.testing.assert_array_equal(first.target, [10.0, np.mean(np.arange(10, 15))])


def test_make_windows_infeasible_spec():
    s = series_from(np.arange(5.0), channels=["load"])
    assert dp.make_windows(s, dp.WindowSpec(n_r=10), horizons=[1]) == []


@given(st.integers(1, 6), st.integers(0, 3), st.integers(0, 2),
       st.integers(10, 40), st.integers(8, 80))
@settings(max_examples=60, deadline=None)
def test_windows_never_read_out_of_bounds(n_r, n_p, n_s, length, period):
    if period <= n_r:
        period = n_r + 1
    spec = dp.WindowSpec(n_r=n_r, n_p=n_p, n_s=n_s,
                         period_steps=period if n_p else 0,
                         season_steps=period * 2 if n_s else 0)
    s = series_from(np.arange(float(length)), channels=["load"])
    for sample in dp.make_windows(s, spec, horizons=[1], target_channel="load"):
        for window in (sample.x_recent, sample.x_periodic, sample.x_seasonal):
            assert np.all(window[:, 0] >= 0.0)
            assert np.all(window[:, 0] < length)


# ---------------------------------------------------------------------------
# targets


def test_aggregate_targets_constant():
    values = np.full(200, 0.3)
    np.testing.assert_allclose(dp.aggregate_targets(values, 100), [0.3, 0.3, 0.3])


def test_aggregate_targets_ramp():
    values = np.arange(100.0)
    out = dp.aggregate_targets(values, 0, horizons=[1, 15, 60])
    np.testing.assert_allclose(out, [0.0, 7.0, 29.5])
    assert dp.aggregate_targets(values, 5, horizons=[1])[0] == 5.0


def test_aggregate_targets_out_of_range():
    with pytest.raises(ShapeError):
        dp.aggregate_targets(np.arange(10.0), 5, horizons=[10])


# ---------------------------------------------------------------------------
# split


def test_split_counts():
    for n, expected in ((600, (400, 100, 100)), (6, (4, 1, 1)), (601, (400, 100, 101))):
        train, val, test = dp.split_4_1_1(list(range(n)))
        assert (len(train), len(val), len(test)) == expected
        assert len(train) + len(val) + len(test) == n
        assert train + val + test == list(range(n))


def test_split_too_small():
    with pytest.raises(DataError):
        dp.split_4_1_1([1, 2, 3])


# ---------------------------------------------------------------------------
# autocorrelation


def test_acf_lag0():
    rng = np.random.default_rng(2)
    acf = dp.autocorrelation(rng.normal(size=100), 10)
    assert acf[0] == pytest.approx(1.0)


def test_acf_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=40)
    acf = dp.autocorrelation(xs, 5)
    ref = oracles.acf_scalar(list(xs), 5)
    np.testing.assert_allclose(acf, ref, atol=1e-12)


def test_acf_sine_period():
    period = 48
    t = np.arange(period * 200)
    xs = np.sin(2 * np.pi * t / period)
    acf = dp.autocorrelation(xs, period + 1)
    assert acf[period] >= 0.99


def test_acf_white_noise():
    rng = np.random.default_rng(11)
    acf = dp.autocorrelation(rng.normal(size=10000), 100)
    assert np.all(np.abs(acf[1:]) < 0.05)


def test_acf_zero_variance():
    with pytest.raises(DataError):
        dp.autocorrelation(np.ones(100), 5)


# ---------------------------------------------------------------------------
# RSRQ histograms


def test_rsrq_single_report():
    ts, pdf, missing, rejected = dp.rsrq_histogram([(0, 10)])
    assert rejected == 0
    assert pdf[0, 10] == 1.0 and pdf[0].sum() == 1.0


def test_rsrq_extremes():
    _, pdf, _, _ = dp.rsrq_histogram([(0, 0), (1, 0), (2, 34), (3, 34)])
    assert pdf[0, 0] == 0.5 and pdf[0, 34] == 0.5


def test_rsrq_uniform_converges():
    reports = [(i, i % 35) for i in range(35 * 300)]
    _, pdf, _, _ = dp.rsrq_histogram(reports, bucket_seconds=35 * 300)
    np.testing.assert_allclose(pdf[0], 1 / 35, atol=1e-12)


def test_rsrq_rejects_out_of_range():
    _, pdf, _, rejected = dp.rsrq_histogram([(0, 10), (1, 40), (2, -1)])
    assert rejected == 2
    assert pdf[0, 10] == 1.0


def test_rsrq_rows_normalized_and_missing_marked():
    reports = [(0, 5), (10, 6), (700, 7)]  # bucket 0 and 2, bucket 1 empty
    ts, pdf, missing, _ = dp.rsrq_histogram(reports, bucket_seconds=300)
    assert list(missing) == [False, True, False]
    present = pdf[~missing]
    np.testing.assert_allclose(present.sum(axis=1), 1.0, atol=1e-9)
