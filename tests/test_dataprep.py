import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepauto import dataprep as dp
from deepauto import pipeline, synthgen
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
    return oracles.CellSeries(cell_id=cell, start_ts=0, step_seconds=step,
                              channels=channels, values=values, missing_mask=mask)


def interpolated(s):
    """The CellSeries `s` with its gaps filled: `pipeline.fill_series` on
    the block of that one cell."""
    return oracles.cells_of(pipeline.fill_series(oracles.series_block([s])))[s.cell_id]


# ---------------------------------------------------------------------------
# record parsing


def test_parse_record_roundtrip():
    rec = dp.parse_record(b'{"topic":"load","cell":"a","ts":120,"value":0.5}\n')
    assert rec == {"topic": "load", "cell": "a", "ts": 120, "value": 0.5}
    assert dp.parse_record(b" \t\r\n") is None  # blank: no record, no error


@pytest.mark.parametrize("line", [
    b"not json",
    b"null",
    b'{"topic":"bogus","cell":"a","ts":1,"value":0.5}',
    b'{"topic":"load","cell":"a","ts":1.5,"value":0.5}',
    b'{"topic":"load","cell":"a","ts":1,"value":1.5}',
    b'{"topic":"rsrq","cell":"a","ts":1,"value":35}',
    b'{"topic":"ue","cell":"a","ts":1,"value":-3}',
    b'{"topic":"load","cell":"","ts":1,"value":0.5}',
    b'{"topic":"load","cell":"a","ts":true,"value":0.5}',
    b'{"topic":"ue","cell":"a","ts":1,"value":1%s}' % (b"0" * 400),
    b'{"topic":"load","cell":"a","ts":1,"value":0.5} x',
])
def test_parse_record_rejects(line):
    with pytest.raises(DataError):
        dp.parse_record(line)


@pytest.mark.parametrize("line, out_of_range", [
    (b'{"topic":"load","cell":"a","ts":1,"value":1.5}', True),
    (b'{"topic":"load","cell":"a","ts":1,"value":-0.1}', True),
    (b'{"topic":"rsrq","cell":"a","ts":1,"value":35}', True),
    (b'{"topic":"rsrq","cell":"a","ts":1,"value":2.5}', True),
    (b'{"topic":"ue","cell":"a","ts":1,"value":-3}', True),
    (b'{"topic":"load","cell":"a","ts":1,"value":"0.5"}', False),
    (b'{"topic":"load","cell":"a","ts":1.5,"value":0.5}', False),
    (b'{"topic":"load","cell":"a","ts":false,"value":0.5}', False),
    (b'{"topic":"ue","cell":"a","ts":1,"value":-1%s}' % (b"0" * 400), False),
    (b"not json", False),
])
def test_parse_record_range_errors_are_out_of_range(line, out_of_range):
    with pytest.raises(DataError) as info:
        dp.parse_record(line)
    assert isinstance(info.value, OutOfRangeError) == out_of_range


def _dumped(*values):
    return st.sampled_from(values).map(json.dumps)


# the JSON text a field of a generated line may hold: valid values of each
# topic, exponents, NaN/Infinity literals, booleans, huge integers, strings
_TS = st.one_of(st.integers(-10**12, 10**12).map(str), st.integers(0, 10**9).map(str),
                _dumped(True, False, 1.5, "120", None),
                st.sampled_from(["1e3", "1" + "0" * 30]))
_VALUE = st.one_of(
    st.floats(0.0, 1.0).map(json.dumps), st.integers(-3, 40).map(str),
    st.integers(0, 34).map(str),
    st.floats().map(json.dumps), _dumped(True, False, None, "0.5", []),
    st.sampled_from(["5E-1", "0.5e0", "2e1", "1e400", "-0.0", "NaN", "Infinity",
                     "-Infinity", "1" + "0" * 400, "-" + "9" * 400]))
_CELL = st.one_of(
    st.builds(lambda text, ascii: json.dumps(text, ensure_ascii=ascii),
              st.text(min_size=1, max_size=4), st.booleans()),
    st.from_regex(r"cell_[0-9]{1,4}", fullmatch=True).map(json.dumps),
    st.sampled_from(['"cell_\\u0041"', '"\\u00e9\\ud800"', '""', "5", "null"]))
_FIELDS = {"topic": _dumped("load", "ue", "rsrq", "load", "ue", "rsrq", "bogus"),
           "cell": _CELL, "ts": _TS, "value": _VALUE}


# the byte forms a generated line takes: UTF-8 mostly, else one that the
# line rule rejects (a BOM, UTF-16/32, an encoded surrogate, a stray byte)
LINE_ENCODINGS = ["utf-8"] * 6 + ["utf-8-sig", "utf-16", "utf-16-le", "utf-32",
                                  "surrogate", "bad-utf-8"]


@st.composite
def record_lines(draw):
    """NDJSON-ish lines as bytes: an object of the four fields, some dropped
    or repeated (duplicate keys), in any order; some lines are non-object
    JSON or blank, padded with a non-JSON whitespace character, followed by
    garbage or a second value, or encoded other than as UTF-8
    (`LINE_ENCODINGS`)."""
    pairs = [(k, draw(tok)) for k, tok in _FIELDS.items() if draw(st.integers(0, 9))]
    pairs += draw(st.lists(st.sampled_from(sorted(_FIELDS)).flatmap(
        lambda k: _FIELDS[k].map(lambda tok: (k, tok))), max_size=1))
    pairs = draw(st.permutations(pairs))
    sep = draw(st.sampled_from([",", ", "]))
    body = "{" + sep.join(f'"{k}":{tok}' for k, tok in pairs) + "}"
    if not draw(st.integers(0, 7)):
        body = draw(st.sampled_from(["[1, 2]", "1", '"load"', "null", "", "", body + body]))
    pad = st.text(alphabet=" \t\n\r", max_size=2)
    tail = draw(st.sampled_from([""] * 20 + ["x", "}", ",", ' {"a": 1}', "{}"]))
    line = draw(pad) + body + tail + draw(pad)
    if not draw(st.integers(0, 4)):
        odd = draw(st.sampled_from("\x0b\x0c\xa0\u2028"))
        line = odd + line if draw(st.booleans()) else line + odd
    encoding = draw(st.sampled_from(LINE_ENCODINGS))
    if encoding == "surrogate":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from("\ud800\udc80\udfff")) + line[at:]
        encoding = "utf-8"
    if encoding == "bad-utf-8":
        return line.encode("utf-8", "surrogatepass") + b"\xff"
    return line.encode(encoding, "surrogatepass")


@settings(max_examples=800, deadline=None)
@given(record_lines())
def test_parse_record_matches_json_loads_oracle(line):
    """The direct decode returns the dict the json.loads parser returns on
    the line decoded as strict UTF-8, or raises the same class, and a blank
    line gives None; the only differences are the two mended holes, a
    boolean ts and an integer value too large for a float, which are now
    DataErrors (not range errors)."""
    if not line.strip(b" \t\n\r"):
        assert dp.parse_record(line) is None
        return
    try:
        expected = oracles.parse_record_loads(line)
    except OverflowError:
        expected = DataError  # math.isfinite on a huge integer value
    except DataError as exc:
        expected = type(exc)
    try:
        doc = json.loads(line.decode("utf-8"))
    except ValueError:
        doc = None
    if isinstance(doc, dict) and isinstance(doc.get("ts"), bool):
        expected = DataError  # whatever the value, and it is checked after ts
    if isinstance(expected, dict):
        assert dp.parse_record(line) == expected
    else:
        with pytest.raises(DataError) as info:
            dp.parse_record(line)
        assert type(info.value) is expected


def test_records_to_series_buckets_and_averages():
    records = [
        {"topic": "load", "cell": "a", "ts": 0, "value": 0.4},
        {"topic": "load", "cell": "a", "ts": 30, "value": 0.6},  # same bucket
        {"topic": "load", "cell": "a", "ts": 120, "value": 0.8},
        {"topic": "ue", "cell": "a", "ts": 0, "value": 10.0},
    ]
    series = oracles.cells_of(dp.records_to_series(records, 60))["a"]
    assert series.values[0, 0] == pytest.approx(0.5)
    assert series.missing_mask[1, 0]           # bucket 1 empty
    assert series.values[2, 0] == pytest.approx(0.8)
    assert series.missing_mask[0, 1] == False  # noqa: E712
    assert series.missing_mask[2, 1]           # no ue record in bucket 2


@pytest.mark.parametrize("step, far_ts, message", [
    (900, 9 * 10**14, f"span {10**12 + 1} buckets"),
    (1, 2**62, f"span {2**62 + 1} buckets"),
    (900, 10**30, f"bucket {10**30 // 900} of 900 s does not fit int64")],
    ids=["past-memory", "past-intp", "past-int64"])
def test_records_to_series_past_memory_is_a_data_error(step, far_ts, message):
    """A cell whose buckets cannot be allocated, past the machine's memory
    or past what numpy can address, raises DataError with the count; a
    bucket past int64 raises DataError with the bucket."""
    records = [{"topic": "load", "cell": "a", "ts": 0, "value": 0.5},
               {"topic": "load", "cell": "a", "ts": far_ts, "value": 0.5}]
    with pytest.raises(DataError, match=message):
        dp.records_to_series(records, step)


@pytest.mark.parametrize("seed", [0, 1])
def test_records_to_series_matches_rescan_oracle(seed):
    """Grouping keys by cell gives the per-cell rescan's series bit for bit,
    on records with gaps, duplicates (same and neighbouring timestamps) and
    shuffled order."""
    records = synthgen.generate(synthgen.SynthConfig(
        n_cells=6, days=1.0, missing_rate=0.1, rsrq_cells=1, seed=seed))
    rng = np.random.default_rng(seed)
    dupes = [dict(records[k], ts=records[k]["ts"] + int(rng.integers(0, 60)),
                  value=records[k]["value"] * 0.5)
             for k in rng.choice(len(records), size=len(records) // 5)]
    records = records + dupes
    records = [records[k] for k in rng.permutation(len(records))]
    step = 900
    series = oracles.cells_of(dp.records_to_series(iter(records), step))
    expected = oracles.records_to_series_rescan(records, step)
    assert list(series) == list(expected)
    for cell, (first, values, missing) in expected.items():
        s = series[cell]
        assert s.start_ts == first * step and s.channels == ["load", "ue"]
        assert s.values.tobytes() == np.array(values).tobytes()
        np.testing.assert_array_equal(s.missing_mask, missing)
    assert any(np.array(m).any() for _, _, m in expected.values())  # gaps exist


def test_rsrq_series_match_oracle_and_interpolate():
    """Under the RSRQ layout `records_to_series` gives the stdlib oracle's
    bin shares and missing buckets bit for bit, on shuffled records with
    empty buckets, and `load_series` with that layout interpolates them."""
    records = synthgen.generate(synthgen.SynthConfig(
        n_cells=3, days=0.5, rsrq_cells=3, seed=4))
    records = [r for r in records if not (r["topic"] == "rsrq" and (r["ts"] // 300) % 11 == 3)]
    records = [records[k] for k in np.random.default_rng(4).permutation(len(records))]
    series = oracles.cells_of(dp.records_to_series(iter(records), 300, dp.RSRQ_CHANNELS))
    expected = oracles.rsrq_series_rescan(records, 300, dp.RSRQ_BINS)
    assert list(series) == list(expected) == ["cell_0000", "cell_0001", "cell_0002"]
    for cell, (first, values, missing) in expected.items():
        s = series[cell]
        assert s.start_ts == first * 300 and s.channels == list(dp.RSRQ_CHANNELS)
        assert s.values.tobytes() == np.array(values).tobytes()
        np.testing.assert_array_equal(s.missing_mask, missing)
        assert s.missing_mask[:, 0].any()
    filled = oracles.cells_of(pipeline.load_series(iter(records), 300, dp.RSRQ_CHANNELS))
    for cell, s in series.items():
        assert filled[cell].values.tobytes() == interpolated(s).values.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 3000),
                          st.sampled_from([0.0, 3.0, 3.0, 17.0, 34.0, -1.0, 10.5, 35.0, 40.0]),
                          st.sampled_from(["rsrq", "rsrq", "load"])),
                min_size=1, max_size=40))
def test_rsrq_bucketing_matches_oracle(reports):
    """Any order of reports, with empty buckets, non-bin values (skipped)
    and other topics (ignored), buckets as the stdlib oracle does."""
    records = [{"topic": topic, "cell": cell, "ts": ts, "value": value}
               for cell, ts, value, topic in reports]
    series = oracles.cells_of(dp.records_to_series(records, 300, dp.RSRQ_CHANNELS))
    expected = oracles.rsrq_series_rescan(records, 300, dp.RSRQ_BINS)
    assert list(series) == list(expected)
    for cell, (first, values, missing) in expected.items():
        s = series[cell]
        assert s.start_ts == first * 300
        assert s.values.tobytes() == np.array(values).tobytes()
        np.testing.assert_array_equal(s.missing_mask, missing)


LAYOUTS = {"load": dp.LOAD_CHANNELS, "load_only": ("load",), "rsrq": dp.RSRQ_CHANNELS}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(LAYOUTS)), st.sampled_from([7, 60, 300, 900]),
       st.sampled_from([0, -7 * 900, 1_600_000_123, 2**63 + 4321]),
       st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 12), st.integers(0, 899),
                          st.sampled_from(dp.TOPICS + ("bogus",)),
                          st.sampled_from([0.1, 0.2, 0.3, 0.7, 0.0, 1.0, 3.0, 34.0,
                                           -1.0, 10.5, 35.0])),
                max_size=60),
       st.data())
def test_records_to_series_matches_rescan_oracles(layout, step, base, drawn, data):
    """Under each layout, bucketing a generator (read once) gives the
    rescan oracle's series bit for bit, on shuffled records with three or
    more adds to one key whose sum depends on their order, rsrq values that
    name no bin, topics outside the layout, and timestamps past 2**63 whose
    buckets fit int64."""
    channels = LAYOUTS[layout]
    records = [{"topic": topic, "cell": cell, "ts": base + k * step + offset % step, "value": value}
               for cell, k, offset, topic, value in drawn]
    records += [{"topic": topic, "cell": "a", "ts": base + 1, "value": value}
                for value in (0.1, 0.2, 0.3) for topic in ("load", "rsrq")]
    records = data.draw(st.permutations(records))
    if channels is dp.RSRQ_CHANNELS:
        expected = oracles.rsrq_series_rescan(records, step, dp.RSRQ_BINS)
    else:
        expected = oracles.records_to_series_rescan(records, step, channels)
    series = oracles.cells_of(dp.records_to_series((rec for rec in records), step, channels))
    assert list(series) == list(expected)
    for cell, (first, values, missing) in expected.items():
        s = series[cell]
        assert type(s.start_ts) is int and s.start_ts == first * step
        assert s.step_seconds == step and s.channels == list(channels)
        assert s.values.tobytes() == np.array(values).tobytes()
        np.testing.assert_array_equal(s.missing_mask, missing)


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_midpoint():
    s = series_from([1.0, 0.0, 3.0], missing=[False, True, False])
    out = interpolated(s)
    np.testing.assert_allclose(out.values[:, 0], [1.0, 2.0, 3.0])
    assert not out.missing_mask.any()


def test_interpolate_edge_extension():
    s = series_from([0.0, 2.0, 0.0], missing=[True, False, True])
    out = interpolated(s)
    np.testing.assert_allclose(out.values[:, 0], [2.0, 2.0, 2.0])


def test_interpolate_multi_step_gap():
    s = series_from([0.0, 0.0, 0.0, 0.9], missing=[False, True, True, False])
    out = interpolated(s)
    np.testing.assert_allclose(out.values[:, 0], [0.0, 0.3, 0.6, 0.9])


def test_interpolate_all_missing_channel():
    s = series_from([0.0, 0.0], missing=[True, True])
    with pytest.raises(DataError, match="entirely missing"):
        interpolated(s)


def test_interpolate_idempotent():
    rng = np.random.default_rng(5)
    values = rng.uniform(size=20)
    missing = rng.random(20) < 0.4
    missing[0] = False
    s = series_from(values, missing=missing)
    once = interpolated(s)
    twice = interpolated(once)
    np.testing.assert_array_equal(once.values, twice.values)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_fill_gaps_matches_scalar_oracle(length, n_channels, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, size=(length, n_channels))
    missing = rng.random((length, n_channels)) < 0.5
    missing[rng.integers(length), :] = False  # every column keeps one entry
    filled = values.copy()
    assert dp.fill_gaps(filled, missing) is None
    for c in range(n_channels):
        expected = oracles.fill_gaps_scalar(list(values[:, c]), list(missing[:, c]))
        np.testing.assert_allclose(filled[:, c], expected, rtol=0, atol=1e-12)
        # present entries are never rewritten
        assert filled[~missing[:, c], c].tobytes() == values[~missing[:, c], c].tobytes()


def test_fill_gaps_stops_at_first_empty_column():
    """The index of the first all-missing column comes back; that column and
    every later one are left as they were."""
    values = np.array([[1.0, 5.0, 7.0, 0.0],
                       [0.0, 6.0, 0.0, 0.0],
                       [3.0, 8.0, 0.0, 9.0]])
    missing = np.array([[False, True, True, True],
                        [True, True, True, True],
                        [False, True, True, False]])
    out = values.copy()
    assert dp.fill_gaps(out, missing) == 1
    np.testing.assert_array_equal(out[:, 0], [1.0, 2.0, 3.0])
    assert out[:, 1:].tobytes() == values[:, 1:].tobytes()


def test_fill_gaps_without_missing_keeps_bits():
    values = np.random.default_rng(2).uniform(size=(9, 3))
    out = values.copy()
    assert dp.fill_gaps(out, np.zeros(values.shape, dtype=bool)) is None
    assert out.tobytes() == values.tobytes()


def test_interpolate_missing_is_fill_gaps_on_a_copy():
    rng = np.random.default_rng(8)
    values = rng.uniform(size=(30, 2))
    missing = rng.random((30, 2)) < 0.3
    missing[0] = False
    block = oracles.series_block([series_from(values, missing=missing)])
    out = oracles.cells_of(pipeline.fill_series(block))["c1"]
    expected = values.copy()
    assert dp.fill_gaps(expected, missing) is None
    assert out.values.tobytes() == expected.tobytes()
    assert block.values.tobytes() == values.tobytes()  # the input block is untouched


# ---------------------------------------------------------------------------
# scaling


def test_scaler_basic():
    scaler = dp.fit_scaler(np.array([[0.0], [10.0]]), ["x"])
    assert dp.apply_scaler(np.array([[5.0]]), scaler)[0, 0] == pytest.approx(0.5)


def test_scaler_roundtrip():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(50, 3)) * 10
    scaler = dp.fit_scaler(data, ["a", "b", "c"])
    back = oracles.invert_scaler(dp.apply_scaler(data, scaler), scaler)
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


WEEK = 7 * 86400
INT64 = st.integers(-2**63, 2**63 - 1)
# day and week boundaries, either side of 2**31 (2038), and the int64 ends
EDGES = st.builds(lambda k, unit, d: k * unit + d, st.integers(-3000, 3000),
                  st.sampled_from([86400, WEEK, 2**31, 2**62]), st.integers(-1, 1)).filter(
    lambda ts: -2**63 <= ts < 2**63)


@given(st.lists(st.one_of(INT64, EDGES), max_size=30))
@settings(max_examples=200, deadline=None)
def test_external_block_equals_stacked_external_features(ts):
    """The cached block is the features of each timestamp, bit for bit:
    they depend on it only through its second of the week."""
    ts = np.array(ts, dtype=np.int64)
    block = dp.external_block(ts)
    stacked = np.array([dp.external_features(t) for t in ts.tolist()]).reshape(
        len(ts), dp.EXTERNAL_DIM)
    assert block.dtype == np.float64 and block.shape == (len(ts), dp.EXTERNAL_DIM)
    assert np.array_equal(block, stacked) and block.tobytes() == stacked.tobytes()


def test_external_block_of_no_timestamps():
    assert dp.external_block(np.empty(0, np.int64)).shape == (0, dp.EXTERNAL_DIM)


# ---------------------------------------------------------------------------
# windowing


def test_window_spec_validation():
    with pytest.raises(ShapeError):
        dp.WindowSpec(n_r=10, n_p=1, period_steps=5)  # period must exceed n_r
    with pytest.raises(ShapeError):
        dp.WindowSpec(n_r=0)


def test_recent_lag_indices():
    spec = dp.WindowSpec(n_r=3)
    assert spec.lag_indices(100) == {"recent": [97, 98, 99]}


def test_periodic_lag_indices():
    spec = dp.WindowSpec(n_r=3, n_p=2, period_steps=1440)
    assert spec.lag_indices(3000)["periodic"] == [120, 1560]


def test_make_windows_anchor_count():
    s = series_from(np.arange(10.0), channels=["load"])
    samples = dp.make_windows(oracles.series_block([s]), dp.WindowSpec(n_r=3), horizons=[1])
    assert [x.anchor_ts for x in samples] == [t * 60 for t in range(3, 10)]
    assert len(samples) == 7


def test_make_windows_values_and_targets():
    s = series_from(np.arange(100.0), channels=["load"])
    spec = dp.WindowSpec(n_r=2, n_p=1, period_steps=10)
    samples = dp.make_windows(oracles.series_block([s]), spec, horizons=[1, 5])
    first = samples.arrays
    assert samples.anchor_ts[0] == 10 * 60
    np.testing.assert_array_equal(first["recent"][0, :, 0], [8.0, 9.0])
    np.testing.assert_array_equal(first["periodic"][0, :, 0], [0.0])
    np.testing.assert_array_equal(first["target"][0], [10.0, np.mean(np.arange(10, 15))])


def test_make_windows_infeasible_spec():
    s = series_from(np.arange(5.0), channels=["load"])
    assert len(dp.make_windows(oracles.series_block([s]), dp.WindowSpec(n_r=10), horizons=[1])) == 0


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
    windows = dp.make_windows(oracles.series_block([s]), spec, horizons=[1])
    for name in ("recent", "periodic", "seasonal"):
        window = windows.arrays.get(name, np.zeros((0, 0, 1)))
        assert np.all(window[..., 0] >= 0.0)
        assert np.all(window[..., 0] < length)


def reference_windows(series, spec, horizons, mode):
    """make_windows rebuilt one anchor at a time from lag_indices,
    aggregate_targets, external_features and values[t]."""
    last = {"horizons": series.length - max(horizons),
            "pdf": series.length - 1, "inference": series.length}[mode]
    col = series.values[:, series.channel_index("load")]
    rows = []
    for t in range(spec.history_span(), last + 1):
        row = {name: series.values[lags] for name, lags in spec.lag_indices(t).items()}
        row["external"] = dp.external_features(series.timestamp(t))
        if mode == "horizons":
            row["target"] = oracles.aggregate_targets(col, t, horizons)
        elif mode == "pdf":
            row["target"] = series.values[t]
        rows.append((series.timestamp(t), row))
    return rows


@given(st.integers(0, 2**32 - 1), st.sampled_from(["horizons", "pdf", "inference"]),
       st.integers(1, 6), st.integers(0, 3), st.integers(0, 2), st.integers(1, 3),
       st.lists(st.integers(1, 30), min_size=1, max_size=3),
       st.integers(0, 10**6), st.sampled_from([60, 300, 900]))
@settings(max_examples=80, deadline=None)
def test_make_windows_matches_per_anchor_reference(seed, mode, n_r, n_p, n_s, n_channels,
                                                   horizons, start, step):
    rng = np.random.default_rng(seed)
    period = n_r + int(rng.integers(1, 12))
    spec = dp.WindowSpec(n_r=n_r, n_p=n_p, n_s=n_s, period_steps=period if n_p else 0,
                         season_steps=period + int(rng.integers(0, 9)) if n_s else 0)
    length = spec.history_span() + int(rng.integers(0, 50))
    values = rng.normal(size=(length, n_channels)) * 10.0 ** rng.integers(-3, 4)
    channels = [f"ch{i}" for i in range(n_channels)]
    channels[int(rng.integers(n_channels))] = "load"
    s = oracles.CellSeries(cell_id="c7", start_ts=start * step, step_seconds=step,
                           channels=channels, values=values,
                           missing_mask=np.zeros_like(values, bool))

    windows = dp.make_windows(oracles.series_block([s]), spec, horizons, require_targets=mode != "inference",
                              pdf_target=mode == "pdf")
    expected = reference_windows(s, spec, horizons, mode)
    assert len(windows) == len(expected)
    assert windows.cell_ids.tolist() == ["c7"] * len(expected)
    assert windows.anchor_ts.tolist() == [ts for ts, _ in expected]
    assert list(windows.arrays) == (["recent"] + ["periodic"] * (n_p > 0)
                                    + ["seasonal"] * (n_s > 0) + ["external"]
                                    + ["target"] * (mode != "inference"))
    for name, arr in windows.arrays.items():
        assert arr.flags.c_contiguous and arr.dtype == np.float64
        assert arr.shape[0] == len(expected)
        for k, (_, row) in enumerate(expected):
            assert arr[k].tobytes() == row[name].tobytes(), (name, k)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 12), st.booleans())
@settings(max_examples=100, deadline=None)
def test_lag_windows_rows_are_lag_indices_and_external_features(seed, n_r, n_p, n_s, n_rows,
                                                                 engine_layout):
    """Row k holds values[spec.lag_indices(t)] for each branch and the
    external_features of its timestamp, for anchors unsorted, repeated or
    none; also on the engine's layout, n_rows histories of span rows joined
    end to end with anchors at span, 2*span, ..."""
    rng = np.random.default_rng(seed)
    period = n_r + int(rng.integers(1, 5))
    spec = dp.WindowSpec(n_r=n_r, n_p=n_p, n_s=n_s, period_steps=period if n_p else 0,
                         season_steps=period + int(rng.integers(0, 4)) if n_s else 0)
    span = spec.history_span()
    if engine_layout:
        values = rng.normal(size=(span * n_rows, 3))
        anchors = span * np.arange(1, n_rows + 1)
    else:
        values = rng.normal(size=(span + int(rng.integers(0, 20)), 3))
        anchors = rng.integers(span, len(values) + 1, size=n_rows)
    cell_ids = np.array([f"c{k % 3}" for k in range(n_rows)], dtype=str)
    anchor_ts = rng.integers(-2**40, 2**40, size=n_rows)

    windows = dp.lag_windows(values, anchors, cell_ids, anchor_ts, spec)
    assert windows.cell_ids is cell_ids and windows.anchor_ts is anchor_ts
    branches = [("recent", n_r), ("periodic", n_p), ("seasonal", n_s)]
    assert list(windows.arrays) == [name for name, n in branches if n] + ["external"]
    for name, n in branches:
        if n:
            assert windows.arrays[name].shape == (n_rows, n, 3)
    assert windows.arrays["external"].shape == (n_rows, dp.EXTERNAL_DIM)
    for arr in windows.arrays.values():
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
    for k, t in enumerate(anchors.tolist()):
        for name, lags in spec.lag_indices(t).items():
            assert windows.arrays[name][k].tobytes() == values[lags].tobytes(), (name, k)
        assert windows.arrays["external"][k].tobytes() == \
            dp.external_features(anchor_ts[k]).tobytes()


def test_make_windows_of_no_cells_is_a_data_error():
    with pytest.raises(DataError):
        dp.make_windows(dp.records_to_series([], 60), dp.WindowSpec(n_r=3), horizons=[1])


def test_windows_indexing_keeps_rows_aligned():
    spec = dp.WindowSpec(n_r=3, n_p=1, period_steps=5)
    cells = [series_from(np.arange(40.0) + offset, step=60, cell=cell, channels=["load"])
             for cell, offset in (("a", 0.0), ("b", 1000.0))]
    both = dp.Windows.concat([dp.make_windows(oracles.series_block([s]), spec, horizons=[1, 3]) for s in cells])
    assert len(both) == 2 * 33

    def check_row(w, k):
        # each series value encodes (cell, step), so every array must agree
        # with the row's own cell id and anchor
        t = int(w.anchor_ts[k]) // 60
        base = {"a": 0.0, "b": 1000.0}[w.cell_ids[k]] + t
        np.testing.assert_array_equal(w.arrays["recent"][k, :, 0], base - np.arange(3, 0, -1))
        np.testing.assert_array_equal(w.arrays["periodic"][k, :, 0], [base - 5])
        np.testing.assert_array_equal(w.arrays["target"][k], [base, base + 1])
        np.testing.assert_array_equal(w.arrays["external"][k],
                                      dp.external_features(w.anchor_ts[k]))

    for rows in (np.array([40, 0, 65, 7, 33, 7]), slice(30, 40), slice(None, None, -3)):
        sub = both[rows]
        assert isinstance(sub, dp.Windows)
        assert len(sub) == len(both.anchor_ts[rows])
        assert list(sub.arrays) == list(both.arrays)
        assert list(sub) == list(zip(sub.cell_ids.tolist(), sub.anchor_ts.tolist()))
        for k in range(len(sub)):
            check_row(sub, k)
    first = next(iter(both))
    assert (first.cell_id, first.anchor_ts) == ("a", 5 * 60)


# ---------------------------------------------------------------------------
# targets


def test_aggregate_targets_constant():
    values = np.full(200, 0.3)
    np.testing.assert_allclose(oracles.aggregate_targets(values, 100), [0.3, 0.3, 0.3])


def test_aggregate_targets_ramp():
    values = np.arange(100.0)
    out = oracles.aggregate_targets(values, 0, horizons=[1, 15, 60])
    np.testing.assert_allclose(out, [0.0, 7.0, 29.5])
    assert oracles.aggregate_targets(values, 5, horizons=[1])[0] == 5.0


def test_aggregate_targets_out_of_range():
    with pytest.raises(ShapeError):
        oracles.aggregate_targets(np.arange(10.0), 5, horizons=[10])


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
# RSRQ histograms: records_to_series under the RSRQ layout


def one_cell_rsrq(reports, step=300):
    """The RSRQ-layout series of one cell's (ts, value) reports."""
    records = [{"topic": "rsrq", "cell": "a", "ts": ts, "value": value} for ts, value in reports]
    return oracles.cells_of(dp.records_to_series(records, step, dp.RSRQ_CHANNELS))["a"]


def test_rsrq_single_report():
    s = one_cell_rsrq([(0, 10)])
    assert s.length == 1 and not s.missing_mask.any()
    assert s.values[0, 10] == 1.0 and s.values[0].sum() == 1.0


def test_rsrq_extremes():
    values = one_cell_rsrq([(0, 0), (1, 0), (2, 34), (3, 34)]).values
    assert values[0, 0] == 0.5 and values[0, 34] == 0.5


def test_rsrq_uniform_converges():
    reports = [(i, i % 35) for i in range(35 * 300)]
    values = one_cell_rsrq(reports, step=35 * 300).values
    np.testing.assert_allclose(values[0], 1 / 35, atol=1e-12)


def test_rsrq_skips_non_bin_values():
    s = one_cell_rsrq([(0, 10), (1, 40), (2, -1), (3, 10.5)])
    assert s.length == 1
    assert s.values[0, 10] == 1.0 and s.values[0].sum() == 1.0


def test_rsrq_rows_normalized_and_missing_marked():
    s = one_cell_rsrq([(0, 5), (10, 6), (700, 7)])  # bucket 0 and 2, bucket 1 empty
    assert list(s.missing_mask[:, 0]) == [False, True, False]
    assert s.missing_mask[1].all() and not s.missing_mask[[0, 2]].any()
    assert not s.values[1].any()
    np.testing.assert_allclose(s.values[[0, 2]].sum(axis=1), 1.0, atol=1e-9)
