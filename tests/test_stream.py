import json
import threading
import time
import urllib.request
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepauto import model as dm
from deepauto import dataprep, pipeline, stream, synthgen
from deepauto.dataprep import WindowSpec, fit_scaler
from test_dataprep import record_lines
from test_model import BAD_CONFIGS, with_config

import oracles


def zero_model(window=None, **overrides):
    cfg = dict(window=window or WindowSpec(n_r=2), input_dim=2,
               horizons=(1, 8), hidden_r=3, hidden_p=3, hidden_s=3,
               ext_embed_dim=2, use_external=True)
    cfg.update(overrides)
    config = dm.DeepAutoConfig(**cfg)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(0))
    params.flat[...] = 0.0
    return params, config


def rec(topic, cell, bucket, value, step=900, offset=0):
    return {"topic": topic, "cell": cell, "ts": bucket * step + offset, "value": value}


# ---------------------------------------------------------------------------
# CellBuffer


def test_buffer_duplicate_records_averaged():
    buf = stream.CellBuffer(("load",), span=1)
    buf.add(0, 0, 0.4)
    buf.add(0, 0, 0.6)
    assert [anchor for anchor, _ in buf.close_through(0)] == [1]
    assert buf.closed[-1][0] == pytest.approx(0.5)


def test_buffer_window_warming_and_gaps():
    short, long = stream.CellBuffer(("load",), span=3), stream.CellBuffer(("load",), span=4)
    for buf in (short, long):
        for b, v in [(0, 1.0), (2, 3.0)]:  # bucket 1 empty
            buf.add(b, 0, v)
        assert buf.close_through(1) == [] and buf.window() is None  # warming up
    assert long.close_through(2) == [] and long.window() is None  # 3 of 4 rows held
    (anchor, rows), = short.close_through(2)
    assert anchor == 3
    np.testing.assert_allclose(rows[:, 0], [1.0, 2.0, 3.0])  # gap interpolated
    assert short.window().tobytes() == rows.tobytes()


def test_buffer_all_missing_channel_not_ready():
    buf = stream.CellBuffer(dataprep.LOAD_CHANNELS, span=2)
    buf.add(0, 0, 1.0)
    buf.add(1, 0, 2.0)
    assert buf.close_through(1) == []
    assert buf.window() is None  # channel 1 never observed


def test_buffer_window_fill_matches_fill_gaps():
    """Every window a close records is the rows held filled by
    `dataprep.fill_gaps`, bit for bit."""
    rng = np.random.default_rng(4)
    raw = rng.uniform(size=(30, 2))
    observed = rng.random((30, 2)) >= 0.3
    observed[[0, 12, 29]] = True
    for span in (30, 8, 1):
        buf = stream.CellBuffer(dataprep.LOAD_CHANNELS, span=span)
        for b in range(30):
            for ch in range(2):
                if observed[b, ch]:
                    buf.add(b, ch, raw[b, ch])
        for b in range(30):
            got = buf.close_through(b)
            stored = np.array(buf.closed)
            expected = stored.copy()
            if len(stored) < span or dataprep.fill_gaps(expected, np.isnan(stored)) is not None:
                assert got == []
                continue
            (anchor, rows), = got
            assert anchor == b + 1 and rows.tobytes() == expected.tobytes()
        assert anchor == 30


def test_buffer_window_holds_leading_gap_flat():
    """A gap at the start of a window is filled from inside the window only:
    held flat at the first present row, not interpolated from the bucket
    before the window as `dataprep.fill_block` over the whole series does."""
    windows = {}
    for span in (4, 3):
        buf = stream.CellBuffer(("load",), span=span)
        for b, v in [(0, 0.0), (3, 3.0)]:  # buckets 1 and 2 empty
            buf.add(b, 0, v)
        windows[span] = dict(buf.close_through(3))
    np.testing.assert_array_equal(windows[4][4][:, 0], [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(windows[3][4][:, 0], [3.0, 3.0, 3.0])


def test_buffer_window_without_gaps_is_the_stored_rows():
    buf = stream.CellBuffer(dataprep.LOAD_CHANNELS, span=4)
    for b in range(5):
        buf.add(b, 0, 0.1 * b)
        buf.add(b, 1, 1.0 - 0.1 * b)
    buf.close_through(4)
    rows = buf.window()
    assert rows.tobytes() == np.array(buf.closed).tobytes()
    np.testing.assert_array_equal(rows[:, 0], 0.1 * np.arange(1, 5))


def test_engine_step_defaults_to_config_bucket_width():
    """Without an explicit width the engine buckets as the CLI does for the
    same model: at its config's width, 900 s for load models and 300 s for
    histogram models unless the config says otherwise."""
    params, config = zero_model()
    assert stream.Engine(params, config, None).step_seconds == config.step_seconds == 900
    assert stream.Engine(params, config, None, step_seconds=60).step_seconds == 60
    params, config = zero_model(input_dim=dataprep.RSRQ_BINS, output_kind="pdf")
    assert stream.Engine(params, config, None).step_seconds == config.step_seconds == 300


def _buffer_state(buf):
    return (buf.last_closed, buf.empty_run, sorted(buf.open), buf.closed.maxlen,
            [row.tobytes() for row in buf.closed])


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_close_through_matches_the_per_bucket_loop(seed, span):
    """Random entries, gaps, closes and span changes (a model reload) leave
    `close_through` and the one-close-per-bucket oracle with the same
    (anchor, rows) emitted, the same last bucket closed and the same rows
    held, although the buffer skips the empty buckets of a long gap."""
    rng = np.random.default_rng(seed)
    fast, slow = (stream.CellBuffer(dataprep.LOAD_CHANNELS, span) for _ in range(2))
    for _ in range(int(rng.integers(1, 40))):
        frontier = max([fast.last_closed if fast.last_closed is not None else -1, *fast.open])
        op = rng.random()
        if op < 0.55:
            bucket = frontier + int(rng.integers(0, 4 * span + 3))
            if fast.last_closed is None or bucket > fast.last_closed:
                entry = int(rng.integers(2)), float(rng.random())
                fast.add(bucket, *entry)
                slow.add(bucket, *entry)
        elif op < 0.9:
            upto = frontier + int(rng.integers(-2, 4 * span + 3))
            got, expected = fast.close_through(upto), oracles.close_through_per_bucket(slow, upto)
            assert [(a, rows.tobytes()) for a, rows in got] == \
                [(a, rows.tobytes()) for a, rows in expected]
        else:
            maxlen = int(rng.integers(1, 7))
            fast.closed, slow.closed = (deque(buf.closed, maxlen=maxlen) for buf in (fast, slow))
        assert _buffer_state(fast) == _buffer_state(slow)


def test_engine_closes_a_far_gap_in_time_bounded_by_the_span():
    """One record 10^12 buckets past the rest ingests and flushes in well
    under a second: the empty buckets between close at once, not one by
    one. The windows on either side of the gap are still predicted."""
    engine = stream.Engine(*zero_model(), None)
    for b in range(4):
        for topic, value in (("load", 0.5), ("ue", 3.0)):
            engine.ingest(rec(topic, "A", b, value))
    far = 10**12
    t0 = time.monotonic()
    got = engine.ingest(rec("load", "A", far, 0.5)) + engine.ingest(rec("ue", "A", far, 3.0))
    got += engine.flush()
    assert time.monotonic() - t0 < 5.0
    # bucket 3 closes at the far record, and so does empty bucket 4, whose
    # window is filled from bucket 3; the far bucket closes at the flush
    assert [p.anchor_ts // 900 for p in got] == [4, 5, far + 1]
    assert engine.cells["A"].last_closed == far


def test_buffer_eviction():
    buf = stream.CellBuffer(("load",), span=3)
    for b in range(10):
        buf.add(b, 0, float(b))
    buf.close_through(9)
    assert [row[0] for row in buf.closed] == [7.0, 8.0, 9.0]


def test_buffer_rsrq_layout_closes_bin_shares():
    """Under the RSRQ layout a closed bucket holds each bin's share of its
    reports, and a bucket with no report is NaN in every bin."""
    buf = stream.CellBuffer(dataprep.RSRQ_CHANNELS, span=5)
    for value in (0, 2, 2, 2):
        buf.add(0, *dataprep.bucket_entry(rec("rsrq", "A", 0, value, step=300),
                                          dataprep.RSRQ_CHANNELS))
    buf.add(2, 5, 1.0)
    buf.close_through(2)
    np.testing.assert_array_equal(buf.closed[0][:4], [0.25, 0.0, 0.75, 0.0])
    assert buf.closed[0].sum() == 1.0
    assert np.isnan(buf.closed[1]).all()
    assert buf.closed[2][5] == 1.0


# ---------------------------------------------------------------------------
# Engine ingestion semantics


def feed(engine, records, **kw):
    out = []
    for r in records:
        out.extend(engine.ingest(r, **kw))
    return out


def test_engine_predicts_after_warmup():
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    recs = []
    for b in range(3):
        recs.append(rec("load", "A", b, 0.4))
        recs.append(rec("ue", "A", b, 10.0))
    preds = feed(eng, recs)
    # bucket-2 records close buckets 0 and 1; only anchor 2 has a full window
    assert [p.anchor_ts for p in preds] == [2 * 900]
    np.testing.assert_allclose(preds[0].outputs, 0.5)  # all-zero model
    assert preds[0].to_dict()["h1"] == 0.5 and "h8" in preds[0].to_dict()
    assert eng.latest("A") is preds[0]
    assert eng.latest("nope") is None


def test_engine_flush_closes_tail():
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    recs = []
    for b in range(3):
        recs.append(rec("load", "A", b, 0.4))
        recs.append(rec("ue", "A", b, 10.0))
    feed(eng, recs)
    preds = eng.flush()
    assert [p.anchor_ts for p in preds] == [3 * 900]
    assert eng.flush() == []  # idempotent


def test_engine_late_and_malformed_counters():
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    feed(eng, [rec("load", "A", b, 0.5) for b in range(3)])  # closes 0 and 1
    eng.ingest(rec("load", "A", 0, 0.9))                     # late: bucket closed
    eng.ingest_line("not json at all")
    eng.ingest_line(json.dumps({"topic": "load", "cell": "A", "ts": 0, "value": 7.0}))
    eng.ingest(rec("rsrq", "A", 5, 10))                      # irrelevant topic
    h = eng.health()
    assert h["late_dropped"] == 1
    assert h["malformed"] == 1     # bad json
    assert h["out_of_range"] == 1  # load value 7.0
    assert h["ingested"] == 4  # late records are ingested, then dropped
    assert h["cells_seen"] == 1


@pytest.mark.parametrize("n, p50, p99", [(1, 1.0, 1.0), (2, 1.0, 2.0), (100, 50.0, 99.0)])
def test_health_percentiles_are_nearest_rank(n, p50, p99):
    """`/health` reads p50 and p99 by the nearest-rank rule, ceil(q*n) - 1
    in the sorted latencies: the smaller of 2 samples is their p50, and
    the second largest of 100 their p99."""
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    assert eng.health()["latency_p50_ms"] is None
    eng.latencies.extend(float(k) for k in range(n, 0, -1))
    h = eng.health()
    assert (h["latency_p50_ms"], h["latency_p99_ms"]) == (p50, p99)


def test_engine_counts_out_of_range_apart_from_malformed():
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    eng.ingest_line('{"topic":"load","cell":"A","ts":0}')  # no value: malformed
    for topic, value in [("load", 1.5), ("ue", -3), ("rsrq", 35)]:
        eng.ingest_line(json.dumps({"topic": topic, "cell": "A", "ts": 0, "value": value}))
    h = eng.health()
    assert h["malformed"] == 1
    assert h["out_of_range"] == 3
    assert h["ingested"] == 0


def test_ingest_checks_dicts_as_ingest_line_checks_lines():
    """`ingest` rejects and counts every dict that `ingest_line` rejects as
    a line, and files nothing for them."""
    bad = [{"topic": "load", "cell": "A", "ts": 0, "value": 7.0},
           {"topic": "ue", "cell": "A", "ts": 0, "value": -3.0},
           {"topic": "load", "cell": "A", "ts": 0, "value": float("nan")},
           {"topic": "load", "cell": "A", "ts": 0, "value": True},
           {"topic": "load", "cell": "A", "ts": -5.5, "value": 0.5}]
    params, config = zero_model()
    by_dict, by_line = (stream.Engine(params, config, scaler=None) for _ in range(2))
    for r in bad:
        assert by_dict.ingest(r) == []
        assert by_line.ingest_line(json.dumps(r)) == []
    for eng in (by_dict, by_line):
        h = eng.health()
        assert (h["ingested"], h["out_of_range"], h["malformed"]) == (0, 2, 3)
        assert eng.cells == {}


@settings(max_examples=500, deadline=None)
@given(record_lines())
def test_files_and_the_engine_read_a_line_by_one_rule(tmp_path_factory, line):
    """One line rule on every surface: `iter_records` rejects a line of a
    file exactly when `ingest_line` counts the same line, as stdin and TCP
    deliver it, malformed or out of range; a record both accept is filed
    with the value the file reads; a blank line is neither rejected nor
    counted."""
    line = line.replace(b"\n", b" ") + b"\n"
    path = tmp_path_factory.getbasetemp() / "one_line.ndjson"
    path.write_bytes(line)
    rejected = []
    records = list(dataprep.iter_records(path, rejected))

    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    assert eng.ingest_line(line) == []
    counted = eng.counters["malformed"] + eng.counters["out_of_range"]
    assert len(rejected) == counted
    if not line.strip(b" \t\r\n"):
        assert records == [] and counted == 0
    for r in records:
        entry = dataprep.bucket_entry(r, eng.channels)
        assert eng.counters["ingested"] == (entry is not None)
        if entry is not None:
            sums, counts = eng.cells[r["cell"]].open[r["ts"] // eng.step_seconds]
            assert (sums[entry[0]], counts[entry[0]]) == (entry[1], 1)


def test_engine_skips_blank_lines_and_reads_str_as_utf8():
    """A blank line counts nothing; a str line is read as its UTF-8 bytes,
    so one holding a lone surrogate, which has none, is malformed."""
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    for line in (b"\n", b" \t\r\n", "", "  "):
        assert eng.ingest_line(line) == []
    assert all(v == 0 for v in eng.counters.values())
    eng.ingest_line('{"topic":"load","cell":"\ud800","ts":0,"value":0.5}')
    eng.ingest_line('{"topic":"load","cell":"\u00e9","ts":0,"value":0.5}')
    assert (eng.counters["malformed"], eng.counters["ingested"]) == (1, 1)
    assert list(eng.cells) == ["\u00e9"]


def test_engine_counts_huge_integer_value_as_malformed():
    """A value too large for a float is a malformed line, counted, and the
    line after it still ingests."""
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    assert eng.ingest_line('{"topic":"ue","cell":"A","ts":0,"value":1%s}' % ("0" * 400)) == []
    eng.ingest_line(json.dumps({"topic": "ue", "cell": "A", "ts": 0, "value": 4}))
    h = eng.health()
    assert h["malformed"] == 1 and h["out_of_range"] == 0
    assert h["ingested"] == 1


def test_long_gap_ingests_in_linear_time():
    """A 2e5-bucket gap in one cell closes in one pass (a window of empty
    rows is refused without reading them), holds no more than the window
    spans, and once the window has refilled the cell predicts what a fresh
    engine fed only the post-gap records does."""
    config = dm.DeepAutoConfig(window=WindowSpec(n_r=3), input_dim=2, horizons=(1, 8),
                               hidden_r=4, ext_embed_dim=2)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(2))
    before, after = range(4), range(200_000, 200_008)

    def records(buckets):
        return [rec(topic, "A", b, 0.1 + 0.01 * (b % 7) if topic == "load" else 3.0 + b % 5)
                for b in buckets for topic in ("load", "ue")]

    eng = stream.Engine(params, config, scaler=None)
    feed(eng, records(before))
    start = time.perf_counter()
    preds = feed(eng, records(after))
    assert time.perf_counter() - start < 10.0  # ~0.3 s; the dict walk took ~28 s
    buf = eng.cells["A"]
    assert len(buf.closed) <= eng.span

    fresh = stream.Engine(params, config, scaler=None)
    expected = feed(fresh, records(after))
    assert expected
    tail = {p.anchor_ts: p.outputs for p in preds if p.anchor_ts >= expected[0].anchor_ts}
    assert list(tail) == [p.anchor_ts for p in expected]
    for p in expected:
        np.testing.assert_array_equal(tail[p.anchor_ts], p.outputs)


@pytest.mark.parametrize("with_steady_cell", [False, True])
def test_gap_keeps_every_anchor_with_an_observed_bucket(with_steady_cell):
    """Cell A reports buckets 0-19, is silent for G buckets, then reports
    again; alone, or next to a cell B that reports throughout. For every G
    the engine predicts exactly the anchors whose window holds an observed
    bucket, and every anchor whose window misses no bucket as
    `predict_samples` does, bit for bit."""
    step, window = 900, WindowSpec(n_r=4)
    span = window.history_span()
    config = dm.DeepAutoConfig(window=window, input_dim=2, horizons=(1, 8), hidden_r=3,
                               ext_embed_dim=2)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(43))
    scaler = fit_scaler(np.array([[0.0, 0.0], [1.0, 40.0]]), ("load", "ue"))
    for gap in range(1, 2 * span + 3):
        end = 20 + gap + 2 * span
        observed = {"A": set(range(20)) | set(range(20 + gap, end))}
        if with_steady_cell:
            observed["B"] = set(range(end))
        records = [r for b in range(end) for cell in sorted(observed) if b in observed[cell]
                   for r in varying_records((cell,), (b,))]

        eng = stream.Engine(params, config, scaler, step_seconds=step)
        online = {(p.cell_id, p.anchor_ts // step): p.outputs
                  for p in feed(eng, records) + eng.flush()}
        expected = {(cell, a) for cell, seen in observed.items()
                    for a in range(span, end + 1) if seen & set(range(a - span, a))}
        assert set(online) == expected, gap

        samples = pipeline.prediction_samples(pipeline.load_series(records, step), window,
                                              scaler)
        offline = dict(zip(((c, ts // step) for c, ts in samples),
                           dm.predict_samples(samples, params, config)))
        full = [(cell, a) for cell, a in expected
                if set(range(a - span, a)) <= observed[cell]]
        assert len(full) >= 2 * (span + 1)
        for key in full:
            assert online[key].tobytes() == offline[key].tobytes(), (gap, key)


def test_watermark_closes_stalled_cells():
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    for b in range(3):  # B gets data for buckets 0..2, then goes quiet
        eng.ingest(rec("load", "B", b, 0.3))
        eng.ingest(rec("ue", "B", b, 5.0))
    assert eng.latest("B").anchor_ts == 2 * 900
    # A advances the global watermark to bucket 4 - 2 = 2: B's bucket 2 closes
    preds = feed(eng, [rec("load", "A", 4, 0.6), rec("ue", "A", 4, 5.0)])
    b_preds = [p for p in preds if p.cell_id == "B"]
    assert [p.anchor_ts for p in b_preds] == [3 * 900]


def test_record_after_the_watermark_closed_its_cell_closes_the_gap():
    """Once the watermark has closed all of a cell's buckets, the cell's next
    record still closes the buckets before it: X's anchor 5, its window
    held flat from bucket 3, comes out on the X record at bucket 9, not at
    the flush."""
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    feed(eng, [rec(topic, "X", b, 0.3 if topic == "load" else 5.0)
               for b in range(4) for topic in ("load", "ue")])
    feed(eng, [rec("load", "Y", 10, 0.6)])  # the watermark closes X through 3
    assert not eng.cells["X"].open and eng.cells["X"].last_closed == 3
    preds = feed(eng, [rec("load", "X", 9, 0.3)])
    assert [(p.cell_id, p.anchor_ts) for p in preds] == [("X", 5 * 900)]


def test_engine_pdf_mode():
    window = WindowSpec(n_r=2)
    config = dm.DeepAutoConfig(window=window, input_dim=35, output_kind="pdf",
                               pdf_bins=35, hidden_r=3, use_external=False)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(0))
    params.flat[...] = 0.0
    eng = stream.Engine(params, config, scaler=None)
    assert eng.step_seconds == 300
    recs = []
    for b in range(3):
        for v in (10, 10, 20):
            recs.append({"topic": "rsrq", "cell": "A", "ts": b * 300, "value": v})
    preds = feed(eng, recs)
    assert len(preds) == 1
    np.testing.assert_allclose(preds[0].outputs, np.full(35, 1 / 35))
    assert len(preds[0].to_dict()["pdf"]) == 35
    eng.ingest(rec("load", "A", 9, 0.5, step=300))  # wrong topic: ignored
    assert eng.health()["ingested"] == len(recs)


def test_engine_counts_non_bin_rsrq_values_out_of_range():
    """A histogram engine files nothing for an rsrq record whose value names
    no bin and counts it as out of range, as `ingest_line` does for the same
    value; the batch path skips such a record."""
    params, config = zero_model(input_dim=dataprep.RSRQ_BINS, output_kind="pdf",
                                use_external=False)
    eng = stream.Engine(params, config, scaler=None)
    for value in (-1, 10.5, 40):
        assert eng.ingest(rec("rsrq", "A", 0, value, step=300)) == []
    h = eng.health()
    assert h["out_of_range"] == 3 and h["ingested"] == 0
    assert eng.cells == {}
    for value in (-1, 10.5, 40):
        eng.ingest_line(json.dumps(rec("rsrq", "A", 0, value, step=300)))
    assert eng.health()["out_of_range"] == 6
    eng.ingest(rec("rsrq", "A", 0, 3, step=300))
    assert eng.health()["ingested"] == 1
    assert list(eng.cells["A"].open) == [0]


# ---------------------------------------------------------------------------
# model reload


def test_reload_swaps_and_keeps_old_on_failure(tmp_path):
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    assert eng.health()["model_version"] == 1

    params2, config2 = zero_model(hidden_r=5)
    good = tmp_path / "good.model"
    dm.save_file(good, params2, config2, None)
    ok, err = eng.reload_model(good)
    assert ok and err is None
    assert eng.health()["model_version"] == 2
    assert eng.config.hidden_r == 5

    bad = tmp_path / "bad.model"
    bad.write_bytes(dm.save(params2, config2, None)[:-10] + b"corruptcorrupt")
    ok, err = eng.reload_model(bad)
    assert not ok and "ModelFormatError" in err
    assert eng.health()["model_version"] == 2  # old model kept
    assert eng.health()["reload_errors"] == 1
    ok, err = eng.reload_model(tmp_path / "missing.model")
    assert not ok and eng.health()["reload_errors"] == 2


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_reload_of_a_bad_embedded_config_keeps_old_model(tmp_path, name):
    """A checksummed file whose config fails its checks is a failed reload:
    counted, and the old model keeps serving."""
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    bad = tmp_path / "bad.model"
    bad.write_bytes(with_config(dm.save(params, config, None), **BAD_CONFIGS[name]))
    ok, err = eng.reload_model(bad)
    assert not ok and err.startswith("ModelFormatError") and name in err
    assert eng.health()["reload_errors"] == 1
    assert eng.model_version == 1 and eng.params is params and eng.config is config
    eng.ingest(rec("load", "a", 0, 0.5))
    eng.ingest(rec("ue", "a", 0, 10.0))
    eng.ingest(rec("load", "a", 1, 0.5))
    eng.ingest(rec("ue", "a", 1, 10.0))
    assert [p.model_version for p in eng.flush()] == [1]


def varying_records(cells, buckets):
    """load/ue records whose values change every bucket, so a window built
    from the wrong rows changes the prediction."""
    return [rec(topic, cell, b, value)
            for b in buckets for k, cell in enumerate(cells)
            for topic, value in (("load", 0.5 + 0.4 * np.sin(0.7 * b + k)),
                                 ("ue", 20.0 + 10.0 * np.cos(0.3 * b + k)))]


def test_reload_to_longer_window_never_reads_evicted_rows(tmp_path):
    scaler = fit_scaler(np.array([[0.0, 0.0], [1.0, 40.0]]), ("load", "ue"))
    short = dm.DeepAutoConfig(window=WindowSpec(n_r=2), input_dim=2, horizons=(1, 8),
                              hidden_r=3, ext_embed_dim=2)
    long = dm.DeepAutoConfig(window=WindowSpec(n_r=8), input_dim=2, horizons=(1, 8),
                             hidden_r=3, ext_embed_dim=2)
    path = tmp_path / "long.model"
    dm.save_file(path, dm.DeepAutoParams.init(long, np.random.default_rng(1)), long, scaler)

    eng = stream.Engine(dm.DeepAutoParams.init(short, np.random.default_rng(0)), short, scaler)
    before = feed(eng, varying_records(("A", "B"), range(20)))
    assert before and all(p.model_version == 1 for p in before)
    assert eng.reload_model(path) == (True, None)
    after = feed(eng, varying_records(("A", "B"), range(20, 40))) + eng.flush()

    fresh = stream.Engine.from_file(path)
    reference = {(p.cell_id, p.anchor_ts): p.outputs
                 for p in feed(fresh, varying_records(("A", "B"), range(40))) + fresh.flush()}
    # the short window held buckets 17 and 18 at the reload, so anchor 25
    # (window 17..24) is the first the long model may predict
    assert min(p.anchor_ts for p in after) == 25 * 900
    assert {p.model_version for p in after} == {2}
    for p in after:
        assert p.outputs.tobytes() == reference[(p.cell_id, p.anchor_ts)].tobytes()


def test_reload_load_to_pdf_model_restarts_buffers(tmp_path):
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    feed(eng, varying_records(("A",), range(5)))
    pdf = dm.DeepAutoConfig(window=WindowSpec(n_r=2), input_dim=35, output_kind="pdf",
                            pdf_bins=35, hidden_r=3, use_external=False, step_seconds=900)
    path = tmp_path / "pdf.model"
    dm.save_file(path, dm.DeepAutoParams.init(pdf, np.random.default_rng(0)), pdf, None)
    assert eng.reload_model(path) == (True, None)

    recs = [{"topic": "rsrq", "cell": "A", "ts": b * 900, "value": v}
            for b in range(5, 9) for v in (10, 10, 20)]
    preds = feed(eng, recs)
    # rsrq history starts at bucket 5: anchor 7 is the first with 2 buckets
    assert [p.anchor_ts for p in preds] == [7 * 900, 8 * 900]
    assert all(p.model_version == 2 and p.outputs.shape == (35,) for p in preds)
    assert eng.health()["ingested"] == 10 + len(recs)


# ---------------------------------------------------------------------------
# stream/batch equivalence (small; the acceptance suite runs the large one)


def test_stream_matches_batch_predictions_bitwise():
    sc = synthgen.SynthConfig(n_cells=3, days=3.0, step_seconds=900,
                              n_clusters=3, seed=11)
    records = synthgen.generate(sc)
    window = WindowSpec(n_r=4, n_p=2, period_steps=96)
    config = dm.DeepAutoConfig(window=window, input_dim=2, horizons=(1, 8),
                               hidden_r=4, hidden_p=4, ext_embed_dim=3)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(2))

    series = pipeline.load_series(records, sc.step_seconds)
    scaler = fit_scaler(series.values, ("load", "ue"))
    offline = {}
    samples = pipeline.prediction_samples(series, window, scaler)
    for k, s in enumerate(samples):
        offline[(s.cell_id, s.anchor_ts)] = dm.predict_samples(samples[k:k + 1], params, config)[0]

    eng = stream.Engine(params, config, scaler, step_seconds=sc.step_seconds)
    online = {}
    for p in feed(eng, records) + eng.flush():
        online[(p.cell_id, p.anchor_ts)] = p.outputs

    assert set(online) == set(offline)
    for key in offline:
        assert offline[key].tobytes() == online[key].tobytes()


def test_stream_matches_batch_pdf_predictions_bitwise():
    """A histogram model streamed over RSRQ reports (with load/ue records
    it ignores) predicts every anchor the batch path predicts, bit for bit."""
    sc = synthgen.SynthConfig(n_cells=3, days=1.0, rsrq_cells=3, seed=12)
    records = synthgen.generate(sc)
    window = WindowSpec(n_r=4, n_p=2, period_steps=12)
    config = dm.DeepAutoConfig(window=window, input_dim=dataprep.RSRQ_BINS,
                               output_kind="pdf", hidden_r=4, hidden_p=4, ext_embed_dim=3)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(12))

    series = pipeline.load_series(records, 300, dataprep.RSRQ_CHANNELS)
    samples = pipeline.prediction_samples(series, window, None)
    offline = {key: y for key, y in zip(samples, dm.predict_samples(samples, params, config))}

    eng = stream.Engine(params, config, scaler=None)
    online = {(p.cell_id, p.anchor_ts): p.outputs for p in feed(eng, records) + eng.flush()}
    assert len(online) == len(offline) > 3 * 200
    for key, y in offline.items():
        assert online[key].tobytes() == y.tobytes()


def test_bucket_before_first_close_is_closed_and_predicted():
    """A bucket older than the cell's first one, arriving before the cell
    has closed anything, is closed with the rest: nothing stays open after
    `flush()`, and the stream predicts the same anchors as the batch path,
    bit for bit (constant values, so interpolating bucket 4 from its
    neighbours or from the rows held gives the same row)."""
    step, window = 60, WindowSpec(n_r=2)
    config = dm.DeepAutoConfig(window=window, input_dim=2, horizons=(1, 8), hidden_r=3,
                               ext_embed_dim=2)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(41))
    scaler = fit_scaler(np.array([[0.0, 0.0], [1.0, 40.0]]), ("load", "ue"))
    records = [r for b in (5, 3, *range(6, 12))
               for r in (rec("load", "A", b, 0.4, step), rec("ue", "A", b, 10.0, step))]

    eng = stream.Engine(params, config, scaler, step_seconds=step)
    online = feed(eng, records) + eng.flush()
    assert eng.cells["A"].open == {}
    assert eng.health()["late_dropped"] == 0

    samples = pipeline.prediction_samples(pipeline.load_series(records, step), window, scaler)
    offline = dm.predict_samples(samples, params, config)
    assert [p.anchor_ts // step for p in online] == list(samples.anchor_ts // step) \
        == list(range(5, 13))
    for p, y in zip(online, offline):
        assert p.outputs.tobytes() == y.tobytes()


@pytest.mark.parametrize("batch_size", [1024, 4])
def test_engine_runs_one_forward_per_batch_of_closes(monkeypatch, batch_size):
    """An ingest that advances the watermark past many cells, and a flush
    over many cells, each run one forward pass per `batch_size` predictions;
    the predictions come out in close order (the ingesting cell's own
    anchors, then the other cells in arrival order) and equal the batch path
    bit for bit."""
    step, cells = 900, [f"C{k}" for k in range(6)]
    window = WindowSpec(n_r=2)
    config = dm.DeepAutoConfig(window=window, input_dim=2, horizons=(1, 8), hidden_r=5,
                               fusion_hidden=6, ext_embed_dim=3, batch_size=batch_size)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(31))
    rng = np.random.default_rng(32)

    def both(cell, bucket):
        return [rec("load", cell, bucket, float(rng.uniform()), step),
                rec("ue", cell, bucket, float(rng.uniform(0, 50)), step)]

    # C0 runs one bucket ahead: it holds bucket 6 open, the others bucket 5
    warm = [r for cell in cells for b in range(7 if cell == "C0" else 6) for r in both(cell, b)]
    trigger = both("C0", 7)
    catch_up = [r for cell in cells[1:] for b in (6, 7) for r in both(cell, b)]
    records = warm + trigger + catch_up
    series = pipeline.load_series(records, step)
    scaler = fit_scaler(series.values, ("load", "ue"))

    def chunks(n):
        return [min(batch_size, n - a) for a in range(0, n, batch_size)]

    calls = []
    forward_batch = dm.forward_batch
    monkeypatch.setattr(dm, "forward_batch",
                        lambda arrays, *a, **kw: calls.append(len(arrays["recent"]))
                        or forward_batch(arrays, *a, **kw))
    eng = stream.Engine(params, config, scaler, step_seconds=step)
    online = []
    for r in warm + trigger + catch_up:
        calls.clear()
        preds = eng.ingest(r)
        assert calls == chunks(len(preds))
        if r is trigger[0]:
            assert [(p.cell_id, p.anchor_ts // step) for p in preds] == \
                [("C0", 7)] + [(cell, 6) for cell in cells[1:]]
        online += preds
    calls.clear()
    flushed = eng.flush()
    assert calls == chunks(len(cells))
    assert [(p.cell_id, p.anchor_ts // step) for p in flushed] == [(cell, 8) for cell in cells]
    online += flushed

    samples = pipeline.prediction_samples(series, window, scaler)
    offline = {key: y for key, y in zip(samples, dm.predict_samples(samples, params, config))}
    assert len(online) == len(offline) == len(cells) * 7
    for p in online:
        assert p.outputs.tobytes() == offline[(p.cell_id, p.anchor_ts)].tobytes()


# ---------------------------------------------------------------------------
# speculation: one forward per watermark advance, reused at each close


def without_speculation(engine):
    """`engine` with its speculation step a no-op, so every close computes
    its own output, as an engine without speculation does."""
    engine._speculate = lambda behind: []
    return engine


def emitted(p):
    return (p.cell_id, p.anchor_ts, p.model_version, p.output_kind, p.horizons,
            p.outputs.tobytes())


def random_model(window, seed, **overrides):
    cfg = dict(window=window, input_dim=2, horizons=(1, 8), hidden_r=3, hidden_p=3,
               ext_embed_dim=2)
    cfg.update(overrides)
    config = dm.DeepAutoConfig(**cfg)
    return dm.DeepAutoParams.init(config, np.random.default_rng(seed)), config


LOAD_SCALER = fit_scaler(np.array([[0.0, 0.0], [1.0, 40.0]]), ("load", "ue"))


@pytest.fixture(scope="module")
def reload_paths(tmp_path_factory):
    """Model files to reload mid-stream: the same layout and span with other
    weights, the same layout with a longer span, and a histogram model."""
    root = tmp_path_factory.mktemp("reload")
    models = {"same_span": (*random_model(WindowSpec(n_r=3), 5), LOAD_SCALER),
              "longer": (*random_model(WindowSpec(n_r=2, n_p=1, period_steps=3), 6),
                         LOAD_SCALER),
              "pdf": (*random_model(WindowSpec(n_r=2), 7, input_dim=dataprep.RSRQ_BINS,
                                    output_kind="pdf", use_external=False,
                                    step_seconds=900), None)}
    paths = {}
    for name, (params, config, scaler) in models.items():
        paths[name] = root / f"{name}.model"
        dm.save_file(paths[name], params, config, scaler)
    return paths


def random_stream(rng, cells, n_buckets, span):
    """load, ue and rsrq records of `cells` over `n_buckets` buckets, a few
    duplicated, with silences longer than `span`, each delivered up to 2.5
    buckets after its bucket starts: reordered within the lateness
    allowance, with some late past it, and some landing in a bucket after
    the watermark has passed the next one's start."""
    timed, silent = [], dict.fromkeys(cells, 0)
    for b in range(n_buckets):
        for cell in cells:
            if silent[cell]:
                silent[cell] -= 1
                continue
            if rng.random() < 0.04:
                silent[cell] = int(rng.integers(span + 1, 3 * span + 2))
            for topic in ("load", "ue", "rsrq"):
                if rng.random() < 0.15:
                    continue
                value = {"load": float(rng.uniform()), "ue": float(rng.uniform(0, 40)),
                         "rsrq": int(rng.integers(dataprep.RSRQ_BINS))}[topic]
                r = rec(topic, cell, b, value, offset=int(rng.integers(900)))
                timed += [(b + rng.uniform(0, 2.5), r)] * (2 if rng.random() < 0.05 else 1)
    timed.sort(key=lambda t: t[0])
    return [r for _, r in timed]


@given(st.integers(0, 2**32 - 1), st.sampled_from([None, "same_span", "longer", "pdf"]))
@settings(max_examples=150, deadline=None)
def test_speculation_changes_no_emission(reload_paths, seed, reload):
    """An engine as shipped and one whose speculation is a no-op, fed the
    same random stream (reordered, duplicated, late and gapped records, and
    maybe a reload mid-stream), emit the same records in the same order,
    bit for bit and with the same versions, and end with the same counters
    and the same latest prediction per cell; after the flush the shipped
    engine keeps no speculated output."""
    rng = np.random.default_rng(seed)
    params, config = random_model(WindowSpec(n_r=3), seed % 1000, batch_size=3)
    shipped, plain = stream.Engine(params, config, LOAD_SCALER), \
        without_speculation(stream.Engine(params, config, LOAD_SCALER))
    cells = [f"C{k}" for k in range(int(rng.integers(1, 7)))]
    records = random_stream(rng, cells, int(rng.integers(4, 16)), span=3)
    at = int(rng.integers(len(records) + 1)) if reload else None
    out = {}
    for eng in (shipped, plain):
        out[eng] = []
        for k, r in enumerate(records):
            if k == at:
                assert eng.reload_model(reload_paths[reload]) == (True, None)
            out[eng] += eng.ingest(r)
        out[eng] += eng.flush()
    assert [emitted(p) for p in out[shipped]] == [emitted(p) for p in out[plain]]
    assert shipped.counters == plain.counters
    assert shipped.speculated == {}  # each kept output is dropped at its close
    for cell in cells:
        ours, theirs = shipped.latest(cell), plain.latest(cell)
        assert (ours is None) == (theirs is None)
        assert ours is None or emitted(ours) == emitted(theirs)


def counting_forward(monkeypatch):
    """Patch `forward_batch` to append the rows of each call to the list
    returned."""
    rows, forward_batch = [], dm.forward_batch
    monkeypatch.setattr(dm, "forward_batch",
                        lambda arrays, *a, **kw: rows.append(len(arrays["recent"]))
                        or forward_batch(arrays, *a, **kw))
    return rows


def test_speculation_costs_at_most_two_rows_per_prediction(monkeypatch):
    """A round-robin stream in which every record advances the watermark
    (cell i % N reports at bucket i; one rsrq report fills a histogram
    bucket) runs at most 2 rows through the forward per prediction, plus
    N: speculation forwards only the cells left holding the bucket before
    the watermark, once each, never a rescan of every cell per record. The
    predictions are those of an engine without speculation."""
    n_cells, n_records, step = 40, 400, 300
    params, config = random_model(WindowSpec(n_r=2), 11, input_dim=dataprep.RSRQ_BINS,
                                  output_kind="pdf", use_external=False)
    records = [rec("rsrq", f"C{i % n_cells}", i, i % 7, step=step) for i in range(n_records)]
    plain = without_speculation(stream.Engine(params, config, None))
    expected = feed(plain, records) + plain.flush()

    rows = counting_forward(monkeypatch)
    eng = stream.Engine(params, config, None)
    preds = feed(eng, records) + eng.flush()
    assert [emitted(p) for p in preds] == [emitted(p) for p in expected]
    assert len(preds) > n_records
    assert sum(rows) <= 2 * len(preds) + n_cells


def test_a_burst_runs_one_forward_over_the_cells_behind_the_watermark(monkeypatch):
    """Cells that report every bucket in turn: the first record of bucket G
    closes its own cell's bucket G-1 and advances the watermark, and one
    forward runs that row with every other cell's bucket G-1 speculated.
    The other cells' records close G-1 and reuse what was speculated, so
    the burst runs one pass for its N predictions, which equal an engine's
    without speculation."""
    n_cells = 6
    params, config = random_model(WindowSpec(n_r=2), 12)
    cells = [f"C{k}" for k in range(n_cells)]
    bursts = [varying_records(cells, (b,)) for b in range(8)]
    plain = without_speculation(stream.Engine(params, config, LOAD_SCALER))
    expected = [p for burst in bursts for p in feed(plain, burst)] + plain.flush()

    rows = counting_forward(monkeypatch)
    eng = stream.Engine(params, config, LOAD_SCALER)
    online = []
    for b, burst in enumerate(bursts):
        rows.clear()
        online += feed(eng, burst)
        # bucket 1 is the first whose close fills a 2-bucket window
        assert rows == ([] if b < 2 else [n_cells])
    assert len(online) == n_cells * 6
    online += eng.flush()
    assert [emitted(p) for p in online] == [emitted(p) for p in expected]


# ---------------------------------------------------------------------------
# HTTP surface


def test_http_endpoints():
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    recs = []
    for b in range(3):
        recs.append(rec("load", "A", b, 0.4))
        recs.append(rec("ue", "A", b, 10.0))
    feed(eng, recs)

    server = stream.make_http_server(eng, "127.0.0.1", 0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/predictions/A") as resp:
            doc = json.loads(resp.read())
        assert doc["cell"] == "A" and doc["h1"] == 0.5
        assert doc["anchor_ts"] == 2 * 900 and doc["model_version"] == 1

        with urllib.request.urlopen(f"http://127.0.0.1:{port}/health") as resp:
            health = json.loads(resp.read())
        assert health["cells_ready"] == 1 and health["predictions"] == 1

        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"http://127.0.0.1:{port}/predictions/ZZ")
        assert exc.value.code == 404
        assert json.loads(exc.value.read())["error"] == "unknown_cell"
    finally:
        server.shutdown()
        server.server_close()


def test_reload_refuses_another_bucket_width(tmp_path):
    """A 900-s engine refuses a 300-s (default pdf) model: the reload fails,
    is counted, and the old model keeps serving."""
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None)
    pdf = dm.DeepAutoConfig(window=WindowSpec(n_r=2), input_dim=35, output_kind="pdf",
                            pdf_bins=35, hidden_r=3, use_external=False)
    assert pdf.step_seconds == 300
    path = tmp_path / "pdf.model"
    dm.save_file(path, dm.DeepAutoParams.init(pdf, np.random.default_rng(0)), pdf, None)
    ok, err = eng.reload_model(path)
    assert not ok and err.startswith("ConfigError") and "300" in err and "900" in err
    assert eng.health()["reload_errors"] == 1
    assert eng.model_version == 1 and eng.params is params and eng.config is config


@pytest.mark.parametrize("step_seconds", [None, 60])
def test_reload_of_the_same_width_succeeds(tmp_path, step_seconds):
    """A model of the running model's `config.step_seconds` reloads, also in
    an engine built with another bucket width, which it keeps."""
    params, config = zero_model()
    eng = stream.Engine(params, config, scaler=None, step_seconds=step_seconds)
    params2, config2 = zero_model(hidden_r=5)
    path = tmp_path / "same.model"
    dm.save_file(path, params2, config2, None)
    assert config2.step_seconds == config.step_seconds == 900
    assert eng.reload_model(path) == (True, None)
    assert eng.model_version == 2 and eng.config.hidden_r == 5
    assert eng.step_seconds == (step_seconds or 900)
