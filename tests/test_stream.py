import json
import threading
import urllib.request

import numpy as np
import pytest

from deepauto import model as dm
from deepauto import neuralnet as nn
from deepauto import pipeline, stream, synthgen
from deepauto.dataprep import WindowSpec, fit_scaler


def zero_model(window=None, **overrides):
    cfg = dict(window=window or WindowSpec(n_r=2), input_dim=2,
               horizons=(1, 8), hidden_r=3, hidden_p=3, hidden_s=3,
               ext_embed_dim=2, use_external=True)
    cfg.update(overrides)
    config = dm.DeepAutoConfig(**cfg)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(0))
    for _, arr in nn.param_leaves(params):
        arr[...] = 0.0
    return params, config


def rec(topic, cell, bucket, value, step=900, offset=0):
    return {"topic": topic, "cell": cell, "ts": bucket * step + offset, "value": value}


# ---------------------------------------------------------------------------
# CellBuffer


def test_buffer_duplicate_records_averaged():
    buf = stream.CellBuffer(n_channels=1, capacity=10)
    buf.add(0, 0, 0.4)
    buf.add(0, 0, 0.6)
    assert buf.close_through(0) == [0]
    assert buf.closed[0][0] == pytest.approx(0.5)


def test_buffer_window_warming_and_gaps():
    buf = stream.CellBuffer(n_channels=1, capacity=10)
    for b, v in [(0, 1.0), (2, 3.0)]:  # bucket 1 empty
        buf.add(b, 0, v)
    buf.close_through(2)
    assert buf.window(3, 4) is None        # would reach before first bucket
    rows = buf.window(3, 3)
    np.testing.assert_allclose(rows[:, 0], [1.0, 2.0, 3.0])  # gap interpolated
    assert buf.window(4, 3) is None        # bucket 3 not closed yet


def test_buffer_all_missing_channel_not_ready():
    buf = stream.CellBuffer(n_channels=2, capacity=10)
    buf.add(0, 0, 1.0)
    buf.add(1, 0, 2.0)
    buf.close_through(1)
    assert buf.window(2, 2) is None  # channel 1 never observed


def test_buffer_eviction():
    buf = stream.CellBuffer(n_channels=1, capacity=3)
    for b in range(10):
        buf.add(b, 0, float(b))
    buf.close_through(9)
    assert 0 not in buf.closed and 9 in buf.closed
    assert len(buf.closed) <= 4


def test_buffer_histogram_mode():
    buf = stream.CellBuffer(n_channels=4, capacity=5, histogram=True)
    for ch, n in [(0, 1), (2, 3)]:
        for _ in range(n):
            buf.add(0, ch, 1.0)
    buf.close_through(0)
    np.testing.assert_allclose(buf.closed[0], [0.25, 0.0, 0.75, 0.0])


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


def test_engine_pdf_mode():
    window = WindowSpec(n_r=2)
    config = dm.DeepAutoConfig(window=window, input_dim=35, output_kind="pdf",
                               pdf_bins=35, hidden_r=3, use_external=False)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(0))
    for _, arr in nn.param_leaves(params):
        arr[...] = 0.0
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
    scaler = fit_scaler(np.concatenate([s.values for s in series.values()]),
                        ("load", "ue"))
    offline = {}
    for s in pipeline.prediction_samples(series, window, scaler):
        offline[(s.cell_id, s.anchor_ts)] = dm.forward(s, params, config)

    eng = stream.Engine(params, config, scaler, step_seconds=sc.step_seconds)
    online = {}
    for p in feed(eng, records) + eng.flush():
        online[(p.cell_id, p.anchor_ts)] = p.outputs

    assert set(online) == set(offline)
    for key in offline:
        assert offline[key].tobytes() == online[key].tobytes()


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
