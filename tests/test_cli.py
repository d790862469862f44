import json
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from deepauto import cli, dataprep, evaluation, model as dm, neuralnet as nn, pipeline, stream

import oracles


def run_cli(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small generated dataset + trained model shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.ndjson"
    assert run_cli(["generate", "--output", str(data), "--cells", "4",
                    "--days", "3", "--seed", "5"]) == 0

    config = root / "config.json"
    config.write_text(json.dumps({
        "window": {"n_r": 4, "n_p": 2, "period_steps": 96},
        "input_dim": 2, "horizons": [1, 4],
        "hidden_r": 4, "hidden_p": 4, "hidden_s": 4, "ext_embed_dim": 3,
        "max_epochs": 1, "batch_size": 256,
    }))
    model = root / "model.bin"
    report = root / "report.json"
    assert run_cli(["train", "--input", str(data), "--config", str(config),
                    "--model", str(model), "--report", str(report)]) == 0
    return {"root": root, "data": data, "config": config,
            "model": model, "report": report}


def test_usage_errors_exit_1(capsys):
    assert run_cli([]) == 1
    assert run_cli(["nonsense"]) == 1
    assert run_cli(["generate"]) == 1  # --output missing
    capsys.readouterr()


def test_module_entry_point_runs_without_a_warning():
    """`python -m deepauto.cli` runs the module once: the package does not
    import `cli` itself, so runpy finds no earlier copy to warn about."""
    proc = subprocess.run([sys.executable, "-m", "deepauto.cli", "--help"],
                          capture_output=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_missing_input_exit_2(tmp_path, capsys):
    code = run_cli(["train", "--input", str(tmp_path / "nope.ndjson"),
                    "--model", str(tmp_path / "m.bin")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("horizons", []), ("batch_size", 0),
                                          ("batch_size", -4), ("max_epochs", 0)])
def test_train_with_a_bad_config_exits_2(workspace, tmp_path, capsys, field, value):
    """A config with no horizon, an empty batch or no epoch is a config
    error (exit 2, no traceback), and no model file is written."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**json.loads(workspace["config"].read_text()), field: value}))
    model = tmp_path / "m.bin"
    assert run_cli(["train", "--input", str(workspace["data"]), "--config", str(config),
                    "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not model.exists()


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    for path in (a, b):
        assert run_cli(["generate", "--output", str(path), "--cells", "3",
                        "--days", "1", "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_outputs(workspace):
    report = json.loads(workspace["report"].read_text())
    assert report["best_epoch"] == 0
    assert "h1" in report["test_metrics"] and "rmse" in report["test_metrics"]["h1"]
    assert len(report["epoch_seconds"]) == len(report["val_losses"])
    assert workspace["model"].stat().st_size > 0


def test_prepare_npz(workspace, tmp_path):
    out = tmp_path / "ds.npz"
    assert run_cli(["prepare", "--input", str(workspace["data"]),
                    "--config", str(workspace["config"]),
                    "--output", str(out)]) == 0
    with np.load(out) as z:
        meta = json.loads(str(z["meta"]))
        sizes = meta["sizes"]
        assert z["train_recent"].shape[0] == sizes["train"]
        assert z["val_target"].shape[0] == sizes["val"]
        assert sizes["train"] >= 4 * sizes["val"] - 4
        assert meta["scaler"]["channels"] == ["load", "ue"]


def test_evaluate_report(workspace, tmp_path, capsys):
    out = tmp_path / "eval.json"
    assert run_cli(["evaluate", "--input", str(workspace["data"]),
                    "--model", str(workspace["model"]),
                    "--output", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    algos = {r["algorithm"] for r in rows}
    assert algos == {"deepauto", "naive", "ridge_ar"}
    assert all("rmse" in r for r in rows)
    assert "algorithm" in capsys.readouterr().out  # table printed


def test_evaluate_scores_in_batch_slices_with_the_bits_of_one_forward(workspace, tmp_path):
    """`evaluate` predicts the test set `batch_size` rows at a time; the
    report is the one a single forward over the whole test set gives."""
    params, config, scaler = dm.load_file(workspace["model"])
    config.batch_size = 3
    small = tmp_path / "small_batches.bin"
    dm.save_file(small, params, config, scaler)
    reports = []
    for model in (workspace["model"], small):
        out = tmp_path / "eval.json"
        assert run_cli(["evaluate", "--input", str(workspace["data"]),
                        "--model", str(model), "--output", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0] == reports[1]

    records = list(dataprep.iter_records(workspace["data"], []))
    _, _, test_s, _ = pipeline.prepare_load_dataset(
        pipeline.load_series(records, 900), config.window, config.horizons)
    assert len(test_s) > config.batch_size
    yhat, _ = dm.forward_batch(test_s.arrays, params, config, cache=False)
    Y = test_s.arrays["target"]
    rows = [r for r in reports[1]["rows"] if r["algorithm"] == "deepauto"]
    assert [r["rmse"] for r in rows] == [evaluation.rmse(Y[:, k], yhat[:, k])
                                         for k in range(len(config.horizons))]


def test_grid_report(workspace, tmp_path):
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps([
        {"window": {"n_r": 4}, "use_external": False},
        {"window": {"n_r": 4, "n_p": 2, "period_steps": 96}, "use_external": True},
    ]))
    out = tmp_path / "grid.json"
    assert run_cli(["grid", "--input", str(workspace["data"]),
                    "--config", str(workspace["config"]),
                    "--candidates", str(cand), "--output", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2
    assert all("val_metric" in r for r in rows)


def test_acf_csv(workspace, tmp_path):
    out = tmp_path / "acf.csv"
    assert run_cli(["acf", "--input", str(workspace["data"]),
                    "--cell", "cell_0000", "--max-lag", "100",
                    "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lag,acf"
    assert len(lines) == 102
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0)
    assert run_cli(["acf", "--input", str(workspace["data"]),
                    "--cell", "no_such_cell"]) == 2


def test_acf_of_every_cell_reads_that_cell(tmp_path):
    """`acf` of each cell of a file whose cells start and end at different
    buckets, with gaps, is the autocorrelation of that cell's load column:
    bucketed by the rescan oracle and filled by `fill_gaps`."""
    data = tmp_path / "data.ndjson"
    assert run_cli(["generate", "--output", str(data), "--cells", "3", "--days", "1",
                    "--missing-rate", "0.05", "--seed", "5"]) == 0
    records = list(dataprep.iter_records(data, []))
    start = min(r["ts"] for r in records)
    end = max(r["ts"] for r in records)
    records = [r for r in records
               if not (r["cell"] == "cell_0001" and r["ts"] < start + 5 * 900)
               and not (r["cell"] == "cell_0002" and r["ts"] > end - 7 * 900)]
    dataprep.write_records(data, records)
    expected = oracles.records_to_series_rescan(records, 900)
    assert len({(first, len(values)) for first, values, _ in expected.values()}) == 3
    for cell, (_, values, missing) in expected.items():
        values, missing = np.array(values), np.array(missing)
        assert missing.any() and dataprep.fill_gaps(values, missing) is None
        acf = dataprep.autocorrelation(values[:, 0], 30)
        out = tmp_path / f"{cell}.csv"
        assert run_cli(["acf", "--input", str(data), "--cell", cell, "--max-lag", "30",
                        "--output", str(out)]) == 0
        assert out.read_text().splitlines() == \
            ["lag,acf"] + [f"{k},{acf[k]:.8f}" for k in range(31)]


def test_acf_reads_only_the_load_channel(tmp_path):
    """`acf` reads a cell's load records alone: a file without ue records,
    and one in which only another cell has none, give the full file's CSV
    byte for byte."""
    data = tmp_path / "data.ndjson"
    assert run_cli(["generate", "--output", str(data), "--cells", "3", "--days", "3",
                    "--seed", "5"]) == 0
    records = list(dataprep.iter_records(data, []))
    variants = {"full": records,
                "load_only": [r for r in records if r["topic"] == "load"],
                "other_cell": [r for r in records
                               if not (r["cell"] == "cell_0002" and r["topic"] == "ue")]}
    csv = {}
    for name, kept in variants.items():
        path, out = tmp_path / f"{name}.ndjson", tmp_path / f"{name}.csv"
        dataprep.write_records(path, kept)
        assert run_cli(["acf", "--input", str(path), "--cell", "cell_0000", "--max-lag", "100",
                        "--output", str(out)]) == 0
        csv[name] = out.read_bytes()
    assert len(variants["load_only"]) < len(records)
    assert csv["load_only"] == csv["full"] == csv["other_cell"]


@pytest.mark.parametrize("flags", [["--max-lag", "-3"], ["--max-lag", "x"],
                                   ["--step-seconds", "0"], ["--step-seconds", "-900"]])
def test_acf_rejects_a_negative_lag_or_a_width_below_1(workspace, capsys, flags):
    """--max-lag is a count of lags and --step-seconds a bucket width: a
    negative lag or a width below 1 s is a usage error (exit 1)."""
    assert run_cli(["acf", "--input", str(workspace["data"]), "--cell", "cell_0000",
                    *flags]) == 1
    err = capsys.readouterr().err
    assert f"argument {flags[0]}" in err and "Traceback" not in err


def test_predict_ndjson(workspace, tmp_path):
    out = tmp_path / "pred.ndjson"
    assert run_cli(["predict", "--model", str(workspace["model"]),
                    "--input", str(workspace["data"]),
                    "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) > 0
    doc = json.loads(lines[0])
    assert set(doc) == {"cell", "anchor_ts", "h1", "h4"}
    assert 0.0 <= doc["h1"] <= 1.0


def test_predict_without_a_full_window_exits_2(workspace, tmp_path, capsys):
    """A file in which no cell spans the model's history (n_p=2 periods of
    96 steps) is a data error: exit 2 with the span named, and no output
    file."""
    records = list(dataprep.iter_records(workspace["data"], []))
    start = min(r["ts"] for r in records)
    short = tmp_path / "short.ndjson"
    dataprep.write_records(short, [r for r in records if r["ts"] < start + 40 * 900])
    out = tmp_path / "pred.ndjson"
    assert run_cli(["predict", "--model", str(workspace["model"]),
                    "--input", str(short), "--output", str(out)]) == 2
    assert "192 steps of history" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("far_ts, message", [(9 * 10**14, "span 1000000000001 buckets"),
                                             (10**30, f"bucket {10**30 // 900} of 900 s")],
                         ids=["past-memory", "past-int64"])
def test_predict_with_a_far_off_ts_exits_2(workspace, tmp_path, capsys, far_ts, message):
    """A cell whose records span 10^12 + 1 buckets of 900 s, more than can
    be allocated, is a data error that names the bucket count, not a
    MemoryError traceback; a bucket past int64 is one that names the
    bucket, not an OverflowError traceback."""
    data = tmp_path / "far.ndjson"
    dataprep.write_records(data, [{"topic": "load", "cell": "A", "ts": 0, "value": 0.5},
                                  {"topic": "ue", "cell": "A", "ts": 0, "value": 3.0},
                                  {"topic": "load", "cell": "A", "ts": far_ts, "value": 0.5}])
    assert run_cli(["predict", "--model", str(workspace["model"]), "--input", str(data),
                    "--output", str(tmp_path / "pred.ndjson")]) == 2
    assert message in capsys.readouterr().err


def test_predict_rejects_an_anchor_timestamp_past_int64(tmp_path, capsys):
    """Records at ts 2**63 + k * 900 have buckets that fit int64 but anchor
    timestamps, (bucket + 1) * 900, that do not: `predict` exits 2 naming
    the bucket (`dataprep.check_bucket`), as the engine counts them out of
    range, where it printed wrapped, negative timestamps. The last buckets
    whose anchors fit predict their exact timestamps."""
    config = dm.DeepAutoConfig(window=dataprep.WindowSpec(n_r=2), input_dim=2, horizons=(1, 8),
                               hidden_r=3, ext_embed_dim=2)
    model = tmp_path / "model.bin"
    dm.save_file(model, dm.DeepAutoParams.init(config, np.random.default_rng(0)), config, None)
    last = (2**63 - 1) // 900 - 1  # the last bucket whose anchor (bucket + 1) * 900 fits

    def predict(name, timestamps):
        data, out = tmp_path / f"{name}.ndjson", tmp_path / f"{name}.out"
        dataprep.write_records(data, [{"topic": topic, "cell": "A", "ts": ts, "value": value}
                                      for ts in timestamps
                                      for topic, value in (("load", 0.5), ("ue", 3.0))])
        return run_cli(["predict", "--model", str(model), "--input", str(data),
                        "--output", str(out)]), out

    code, out = predict("past", [2**63 + k * 900 for k in range(10)])
    assert code == 2 and not out.exists()
    assert f"bucket {2**63 // 900} of 900 s does not fit int64" in capsys.readouterr().err
    code, out = predict("before", [-2**63 - (k + 2) * 900 for k in range(10)])
    assert code == 2 and not out.exists()
    assert f"bucket {(-2**63 - 11 * 900) // 900} of 900 s does not fit int64" in \
        capsys.readouterr().err
    code, out = predict("edge", [(last - k) * 900 for k in range(3)])
    assert code == 0
    assert [json.loads(line)["anchor_ts"] for line in out.read_text().splitlines()] == \
        [last * 900, (last + 1) * 900]


def test_predict_warns_about_rejected_lines(workspace, tmp_path, caplog):
    """Records stream from the file, and the rejected-lines warning still
    counts every malformed line; the predictions are those of the clean
    file."""
    clean = tmp_path / "clean.ndjson"
    assert run_cli(["predict", "--model", str(workspace["model"]),
                    "--input", str(workspace["data"]), "--output", str(clean)]) == 0
    lines = workspace["data"].read_text().splitlines()
    dirty = tmp_path / "dirty.ndjson"
    dirty.write_text("\n".join(["not json"] + lines[:5] + ["", '{"topic":"load"}']
                               + lines[5:] + ['{"topic":"load","cell":"a","ts":0,"value":2}'])
                     + "\n")
    out = tmp_path / "pred.ndjson"
    with caplog.at_level("WARNING", logger="deepauto"):
        assert run_cli(["predict", "--model", str(workspace["model"]),
                        "--input", str(dirty), "--output", str(out)]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"rejected 3 malformed records from {dirty}"]
    assert out.read_text() == clean.read_text()


def predict_with_a_dead_ue(tmp_path, caplog, cell, late=()):
    """A model trained on a 3-cell file, and `predict`'s output and warnings
    on that file with the ue records of `cell` left out ("dead_ue") and
    with every record of `cell` left out ("without"); the cells `late`
    start 5 buckets after the others in both. Returns (config path, model
    path, dead_ue path, outputs, warnings)."""
    data = tmp_path / "data.ndjson"
    assert run_cli(["generate", "--output", str(data), "--cells", "3", "--days", "1",
                    "--seed", "5"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "window": {"n_r": 4}, "input_dim": 2, "horizons": [1, 4],
        "hidden_r": 4, "ext_embed_dim": 3, "max_epochs": 1, "batch_size": 256,
    }))
    model = tmp_path / "model.bin"
    assert run_cli(["train", "--input", str(data), "--config", str(config),
                    "--model", str(model)]) == 0

    records = list(dataprep.iter_records(data, []))
    start = min(r["ts"] for r in records)
    records = [r for r in records if r["cell"] not in late or r["ts"] >= start + 5 * 900]
    dead_ue = tmp_path / "dead_ue.ndjson"
    dataprep.write_records(dead_ue, [r for r in records if (r["cell"], r["topic"]) != (cell, "ue")])
    without = tmp_path / "without.ndjson"
    dataprep.write_records(without, [r for r in records if r["cell"] != cell])
    outputs, warnings = {}, {}
    for path in (dead_ue, without):
        caplog.clear()
        out = tmp_path / f"{path.stem}.pred"
        with caplog.at_level("WARNING", logger="deepauto"):
            assert run_cli(["predict", "--model", str(model), "--input", str(path),
                            "--output", str(out)]) == 0
        outputs[path.stem] = out.read_text()
        warnings[path.stem] = [r.getMessage() for r in caplog.records]
    return config, model, dead_ue, outputs, warnings


def test_predict_skips_a_cell_with_a_dead_channel(tmp_path, caplog, capsys):
    """A cell whose `ue` channel holds no value has no window, as in the
    engine: predict skips it with one warning naming it, and every other
    cell's lines are those of a file without that cell. train, evaluate and
    grid still fail on the file."""
    config, model, dead_ue, outputs, warnings = predict_with_a_dead_ue(tmp_path, caplog,
                                                                       "cell_0000")
    assert outputs["dead_ue"] == outputs["without"]
    assert len(outputs["dead_ue"].splitlines()) == 2 * (96 - 4 + 1)
    assert warnings == {
        "dead_ue": ["skipped 1 cells with an entirely missing channel: cell_0000"],
        "without": []}

    candidates = tmp_path / "cand.json"
    candidates.write_text(json.dumps([{"window": {"n_r": 4}}]))
    capsys.readouterr()
    for argv in (["train", "--config", str(config), "--model", str(tmp_path / "m.bin")],
                 ["evaluate", "--model", str(model)],
                 ["grid", "--config", str(config), "--candidates", str(candidates),
                  "--output", str(tmp_path / "grid.json")]):
        assert run_cli(argv + ["--input", str(dead_ue)]) == 2
        assert "cell cell_0000: channel 'ue' is entirely missing" in capsys.readouterr().err


def test_predict_skips_a_dead_cell_in_the_middle_of_the_block(tmp_path, caplog):
    """The dead cell sits between two live ones in the series block, and the
    one after it starts later: the cells on either side keep their own rows
    and first buckets, as in a file without it."""
    *_, outputs, warnings = predict_with_a_dead_ue(tmp_path, caplog, "cell_0001",
                                                   late=("cell_0002",))
    assert outputs["dead_ue"] == outputs["without"]
    assert {json.loads(line)["cell"] for line in outputs["dead_ue"].splitlines()} == \
        {"cell_0000", "cell_0002"}
    assert warnings == {
        "dead_ue": ["skipped 1 cells with an entirely missing channel: cell_0001"],
        "without": []}


def test_predict_pdf_model(tmp_path):
    """A histogram model predicts from the per-cell RSRQ series: one line
    per inference window, each a 35-bin distribution."""
    data = tmp_path / "rsrq.ndjson"
    assert run_cli(["generate", "--output", str(data), "--cells", "2", "--days", "3",
                    "--rsrq-cells", "2", "--seed", "3"]) == 0
    config = tmp_path / "pdf.json"
    config.write_text(json.dumps({
        "window": {"n_r": 4}, "input_dim": 35, "output_kind": "pdf",
        "hidden_r": 4, "ext_embed_dim": 3, "max_epochs": 1, "batch_size": 256,
    }))
    model = tmp_path / "pdf.bin"
    assert run_cli(["train", "--input", str(data), "--config", str(config),
                    "--model", str(model)]) == 0
    out = tmp_path / "pred.ndjson"
    assert run_cli(["predict", "--model", str(model), "--input", str(data),
                    "--output", str(out)]) == 0

    records = list(dataprep.iter_records(data, []))
    series = dataprep.records_to_series(records, 300, dataprep.RSRQ_CHANNELS)
    # inference anchors run from the window's history span to the series length
    expected = sum(length - 4 + 1 for length in np.diff(series.offsets).tolist())
    docs = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(docs) == expected > 0
    for doc in docs:
        assert not any(key.startswith("h") for key in doc)
        pdf = np.array(doc["pdf"])
        assert pdf.shape == (35,) and np.all(np.isfinite(pdf))
        assert abs(pdf.sum() - 1.0) <= 1e-9


def test_grid_on_pdf_config_builds_train_windows(tmp_path, monkeypatch):
    """Without --step-seconds, `grid` buckets RSRQ reports as wide as
    `train` does, so a candidate with the config's window gets the very
    train and validation windows `train` fits on."""
    data = tmp_path / "rsrq.ndjson"
    assert run_cli(["generate", "--output", str(data), "--cells", "2", "--days", "3",
                    "--rsrq-cells", "2", "--seed", "3"]) == 0
    config = tmp_path / "pdf.json"
    config.write_text(json.dumps({
        "window": {"n_r": 4}, "input_dim": 35, "output_kind": "pdf",
        "hidden_r": 4, "ext_embed_dim": 3, "max_epochs": 1, "batch_size": 256,
    }))
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps([{"window": {"n_r": 4}}]))

    built = []
    prepare = cli.pipeline.prepare_pdf_dataset

    def recording_prepare(*args, **kwargs):
        splits = prepare(*args, **kwargs)
        built.append(splits[:2])
        return splits

    monkeypatch.setattr(cli.pipeline, "prepare_pdf_dataset", recording_prepare)
    assert run_cli(["train", "--input", str(data), "--config", str(config),
                    "--model", str(tmp_path / "pdf.bin")]) == 0
    assert run_cli(["grid", "--input", str(data), "--config", str(config),
                    "--candidates", str(cand), "--output", str(tmp_path / "grid.json")]) == 0
    assert len(built) == 2
    for trained, searched in zip(*built):
        assert trained.arrays.keys() == searched.arrays.keys()
        for key in trained.arrays:
            assert np.array_equal(trained.arrays[key], searched.arrays[key])
        assert np.array_equal(trained.anchor_ts, searched.anchor_ts)


def test_grid_on_pdf_config_buckets_records_once(tmp_path, monkeypatch):
    """A pdf `grid` buckets the RSRQ reports once and shares the series
    with every candidate."""
    data = tmp_path / "rsrq.ndjson"
    assert run_cli(["generate", "--output", str(data), "--cells", "2", "--days", "2",
                    "--rsrq-cells", "2", "--seed", "3"]) == 0
    config = tmp_path / "pdf.json"
    config.write_text(json.dumps({
        "window": {"n_r": 4}, "input_dim": 35, "output_kind": "pdf",
        "hidden_r": 4, "ext_embed_dim": 3, "max_epochs": 1, "batch_size": 256,
    }))
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps([{"window": {"n_r": 4}}, {"window": {"n_r": 3}}]))

    calls = []
    read_series = cli.dataprep.read_series
    monkeypatch.setattr(cli.dataprep, "read_series",
                        lambda *a, **kw: calls.append(a[1:3]) or read_series(*a, **kw))
    out = tmp_path / "grid.json"
    assert run_cli(["grid", "--input", str(data), "--config", str(config),
                    "--candidates", str(cand), "--output", str(out)]) == 0
    assert len(json.loads(out.read_text())["rows"]) == 2
    assert calls == [(300, dataprep.RSRQ_CHANNELS)]


def test_evaluate_pdf_model_scores_train_test_windows(tmp_path):
    """Without --step-seconds, `evaluate` on a histogram model buckets RSRQ
    reports at 300 s as `train` does, so its KL on the test windows is the
    one the training report holds; the naive row is the KL of the last
    recent histogram."""
    data = tmp_path / "rsrq.ndjson"
    assert run_cli(["generate", "--output", str(data), "--cells", "2", "--days", "3",
                    "--rsrq-cells", "2", "--seed", "4"]) == 0
    config = tmp_path / "pdf.json"
    config.write_text(json.dumps({
        "window": {"n_r": 4}, "input_dim": 35, "output_kind": "pdf",
        "hidden_r": 4, "ext_embed_dim": 3, "max_epochs": 1, "batch_size": 16,
    }))
    model, report = tmp_path / "pdf.bin", tmp_path / "report.json"
    assert run_cli(["train", "--input", str(data), "--config", str(config),
                    "--model", str(model), "--report", str(report)]) == 0
    out = tmp_path / "eval.json"
    assert run_cli(["evaluate", "--input", str(data), "--model", str(model),
                    "--output", str(out)]) == 0
    rows = {r["algorithm"]: r["kl"] for r in json.loads(out.read_text())["rows"]}
    assert rows["deepauto"] == json.loads(report.read_text())["test_metrics"]["kl"]

    records = list(dataprep.iter_records(data, []))
    _, _, test_s, _ = pipeline.prepare_pdf_dataset(
        pipeline.load_series(records, 300, dataprep.RSRQ_CHANNELS), dataprep.WindowSpec(n_r=4))
    assert rows["naive"] == nn.kl_loss(test_s.arrays["target"], test_s.arrays["recent"][:, -1])


def test_serve_stdin_matches_predict(workspace, tmp_path):
    """Streaming the recorded file through `serve` must reproduce the batch
    `predict` values exactly."""
    pred_out = tmp_path / "pred.ndjson"
    assert run_cli(["predict", "--model", str(workspace["model"]),
                    "--input", str(workspace["data"]),
                    "--output", str(pred_out)]) == 0
    offline = {(d["cell"], d["anchor_ts"]): (d["h1"], d["h4"])
               for d in map(json.loads, pred_out.read_text().splitlines())}

    firehose = tmp_path / "fire.ndjson"
    with workspace["data"].open("rb") as stdin:
        proc = subprocess.run(
            [sys.executable, "-m", "deepauto.cli", "serve",
             "--model", str(workspace["model"]),
             "--listen-http", "127.0.0.1:0",
             "--firehose", str(firehose)],
            stdin=stdin, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()

    online = {}
    for d in map(json.loads, firehose.read_text().splitlines()):
        online[(d["cell"], d["anchor_ts"])] = (d["h1"], d["h4"])
    assert set(online) == set(offline)
    assert online == offline  # exact float equality via JSON round-trip


def test_model_file_carries_its_bucket_width(tmp_path):
    """A model trained with `"step_seconds": 300` in its config predicts,
    evaluates and serves at 300 s with no width given: predict writes the
    batch predictions of the 300-s series, and serve streams the same."""
    data = tmp_path / "data.ndjson"
    assert run_cli(["generate", "--output", str(data), "--cells", "3", "--days", "3",
                    "--step-seconds", "300", "--seed", "5"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "window": {"n_r": 6, "n_p": 1, "period_steps": 288}, "step_seconds": 300,
        "horizons": [1, 4], "hidden_r": 4, "hidden_p": 4, "ext_embed_dim": 3,
        "max_epochs": 1, "batch_size": 256,
    }))
    model = tmp_path / "model.bin"
    assert run_cli(["train", "--input", str(data), "--config", str(config),
                    "--model", str(model)]) == 0
    params, cfg, scaler = dm.load_file(model)
    assert cfg.step_seconds == 300

    out = tmp_path / "pred.ndjson"
    assert run_cli(["predict", "--model", str(model), "--input", str(data),
                    "--output", str(out)]) == 0
    records = list(dataprep.iter_records(data, []))
    samples = pipeline.prediction_samples(pipeline.load_series(records, 300), cfg.window,
                                          scaler)
    expected = [json.dumps(dict(cell=s.cell_id, anchor_ts=s.anchor_ts,
                                **dm.output_fields(y, cfg.output_kind, cfg.horizons)),
                           sort_keys=True)
                for s, y in zip(samples, dm.predict_samples(samples, params, cfg))]
    assert out.read_text().splitlines() == expected
    assert len(expected) == 3 * (3 * 288 - 288 + 1)

    assert run_cli(["evaluate", "--input", str(data), "--model", str(model),
                    "--output", str(tmp_path / "eval.json")]) == 0

    firehose = tmp_path / "fire.ndjson"
    with data.open("rb") as stdin:
        proc = subprocess.run(
            [sys.executable, "-m", "deepauto.cli", "serve", "--model", str(model),
             "--listen-http", "127.0.0.1:0", "--firehose", str(firehose)],
            stdin=stdin, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    online = sorted(json.dumps({k: v for k, v in d.items()
                                if k not in ("latency_ms", "model_version")}, sort_keys=True)
                    for d in map(json.loads, firehose.read_text().splitlines()))
    assert online == sorted(expected)


def test_pdf_config_without_input_dim_trains(tmp_path):
    """A histogram model's input width is its 35 channels unless the config
    says otherwise."""
    data = tmp_path / "rsrq.ndjson"
    assert run_cli(["generate", "--output", str(data), "--cells", "2", "--days", "1",
                    "--rsrq-cells", "2", "--seed", "3"]) == 0
    config = tmp_path / "pdf.json"
    config.write_text(json.dumps({
        "window": {"n_r": 4}, "output_kind": "pdf",
        "hidden_r": 4, "ext_embed_dim": 3, "max_epochs": 1, "batch_size": 256,
    }))
    model = tmp_path / "pdf.bin"
    assert run_cli(["train", "--input", str(data), "--config", str(config),
                    "--model", str(model)]) == 0
    assert dm.load_file(model)[1].input_dim == dataprep.RSRQ_BINS


@pytest.mark.parametrize("argv", [
    ["prepare", "--input", "d", "--output", "o"], ["train", "--input", "d", "--model", "m"],
    ["grid", "--input", "d", "--candidates", "c", "--output", "o"],
    ["evaluate", "--input", "d", "--model", "m"], ["predict", "--input", "d", "--model", "m"],
    ["serve", "--model", "m"]], ids=lambda argv: argv[0])
def test_step_seconds_flag_is_gone(argv, capsys):
    """The bucket width comes from the config or the model file; only
    `generate` and `acf` take it as a flag."""
    assert run_cli(argv + ["--step-seconds", "300"]) == 1
    assert "unrecognized arguments: --step-seconds" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--listen-http", "localhost"],
                                   ["--listen-ingest", "nohost"],
                                   ["--listen-http", "127.0.0.1:65536"]],
                         ids=["http-without-port", "ingest-without-port", "port-past-65535"])
def test_serve_rejects_a_malformed_address(workspace, capsys, flags):
    """An address is host:port with a port of 0-65535; anything else is a
    usage error (exit 1), found before anything listens."""
    argv = ["serve", "--model", str(workspace["model"]), "--listen-http", "127.0.0.1:0"]
    assert run_cli(argv + flags) == 1
    err = capsys.readouterr().err
    assert f"argument {flags[0]}" in err and "Traceback" not in err


def test_predict_rejects_lines_that_are_not_utf8_json(workspace, tmp_path, caplog):
    """A line with a byte that is not UTF-8, and lines padded with a form
    feed or an NBSP (not JSON whitespace), are rejected and counted by
    `predict`, which writes the predictions of the file without them; the
    streaming engine counts the same lines malformed."""
    clean = tmp_path / "clean.pred"
    assert run_cli(["predict", "--model", str(workspace["model"]),
                    "--input", str(workspace["data"]), "--output", str(clean)]) == 0
    lines = workspace["data"].read_bytes().splitlines(keepends=True)
    # each bad line would change a prediction if it were read
    doc = json.loads(lines[-1])
    doc["value"] = 0.0 if doc["value"] > 0.5 else 1.0 if doc["topic"] == "load" else 99.0
    moved = json.dumps(doc).encode()
    bad = [moved.replace(doc["cell"].encode(), doc["cell"][:-1].encode() + b"\xff") + b"\n",
           b"\x0c" + moved + b"\n", moved + " ".encode() + b"\n"]
    dirty = tmp_path / "dirty.ndjson"
    dirty.write_bytes(b"".join(lines[:-1] + bad + lines[-1:]))
    out = tmp_path / "dirty.pred"
    with caplog.at_level("WARNING", logger="deepauto"):
        assert run_cli(["predict", "--model", str(workspace["model"]),
                        "--input", str(dirty), "--output", str(out)]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"rejected 3 malformed records from {dirty}"]
    assert out.read_bytes() == clean.read_bytes()

    engine = stream.Engine.from_file(workspace["model"])
    for line in bad:
        assert engine.ingest_line(line) == []
    assert engine.counters["malformed"] == 3 and engine.counters["ingested"] == 0


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=["sigint", "sigterm"])
def test_serve_tcp_flushes_on_signal(tmp_path, sig):
    """`serve` over TCP closes the open buckets on SIGINT or SIGTERM, as stdin
    mode does at EOF: the firehose holds the flushed anchors, and the exit
    code is 0."""
    config = dm.DeepAutoConfig(window=dataprep.WindowSpec(n_r=2), horizons=(1, 4),
                               hidden_r=3, ext_embed_dim=2)
    model = tmp_path / "model.bin"
    dm.save_file(model, dm.DeepAutoParams.init(config, np.random.default_rng(0)), config, None)
    firehose = tmp_path / "fire.ndjson"
    ingest_port, http_port = _free_port(), _free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "deepauto.cli", "serve", "--model", str(model),
         "--listen-ingest", f"127.0.0.1:{ingest_port}",
         "--listen-http", f"127.0.0.1:{http_port}", "--firehose", str(firehose)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        lines = b"".join(
            json.dumps({"topic": topic, "cell": cell, "ts": b * 900, "value": value}).encode()
            + b"\n"
            for b in range(5) for cell in ("A", "B")
            for topic, value in (("load", 0.5), ("ue", 10.0)))
        deadline = time.monotonic() + 60
        while True:
            try:
                with socket.create_connection(("127.0.0.1", ingest_port), timeout=5) as conn:
                    conn.sendall(lines)
                break
            except ConnectionRefusedError:
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.1)
        health = {}
        while health.get("ingested") != 20:
            assert time.monotonic() < deadline
            time.sleep(0.1)
            with urllib.request.urlopen(f"http://127.0.0.1:{http_port}/health") as resp:
                health = json.load(resp)
        proc.send_signal(sig)
        assert proc.wait(timeout=60) == 0, proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    anchors = sorted((d["cell"], d["anchor_ts"] // 900)
                     for d in map(json.loads, firehose.read_text().splitlines()))
    # buckets 0..3 close as records arrive; bucket 4 closes only at the flush
    assert anchors == [(cell, b) for cell in ("A", "B") for b in (2, 3, 4, 5)]


def test_serve_tcp_connections_write_whole_firehose_lines(tmp_path):
    """Several TCP connections ingest at once, each from its own handler
    thread: every firehose line is one whole JSON prediction, and there are
    as many lines as predictions counted. A last record of a new cell moves
    the watermark past every bucket sent, so the closes all happen while
    ingesting and the final flush has no window to predict."""
    config = dm.DeepAutoConfig(window=dataprep.WindowSpec(n_r=2), horizons=(1, 4),
                               hidden_r=3, ext_embed_dim=2)
    model = tmp_path / "model.bin"
    dm.save_file(model, dm.DeepAutoParams.init(config, np.random.default_rng(0)), config, None)
    firehose = tmp_path / "fire.ndjson"
    ingest_port, http_port = _free_port(), _free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "deepauto.cli", "serve", "--model", str(model),
         "--listen-ingest", f"127.0.0.1:{ingest_port}",
         "--listen-http", f"127.0.0.1:{http_port}", "--firehose", str(firehose)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)

    def line(topic, cell, b, value):
        return json.dumps({"topic": topic, "cell": cell, "ts": b * 900, "value": value}).encode()

    conns, buckets = 6, 40
    payloads = [b"".join(line(topic, f"c{k}-{j}", b, value) + b"\n"
                         for b in range(buckets) for j in range(3)
                         for topic, value in (("load", 0.5), ("ue", 10.0)))
                for k in range(conns)]
    errors = []

    def send(payload):
        try:
            with socket.create_connection(("127.0.0.1", ingest_port), timeout=30) as conn:
                conn.sendall(payload)
        except OSError as exc:
            errors.append(exc)

    try:
        deadline = time.monotonic() + 60
        while True:
            try:
                socket.create_connection(("127.0.0.1", ingest_port), timeout=5).close()
                break
            except ConnectionRefusedError:
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.1)
        senders = [threading.Thread(target=send, args=(p,)) for p in payloads]
        for t in senders:
            t.start()
        for t in senders:
            t.join(timeout=60)
        assert not errors and not any(t.is_alive() for t in senders)
        health, total = {}, sum(p.count(b"\n") for p in payloads)
        while health.get("ingested") != total:
            assert time.monotonic() < deadline
            time.sleep(0.1)
            with urllib.request.urlopen(f"http://127.0.0.1:{http_port}/health") as resp:
                health = json.load(resp)
        send(line("load", "last", buckets + 5, 0.5) + b"\n")
        total += 1
        while health.get("ingested") != total or \
                len(firehose.read_bytes().splitlines()) < health["predictions"]:
            assert time.monotonic() < deadline
            time.sleep(0.1)
            with urllib.request.urlopen(f"http://127.0.0.1:{http_port}/health") as resp:
                health = json.load(resp)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=60) == 0, proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    docs = [json.loads(text) for text in firehose.read_text().splitlines()]
    assert health["predictions"] > 0 and len(docs) == health["predictions"]
    assert all(set(d) == {"cell", "anchor_ts", "model_version", "latency_ms", "h1", "h4"}
               for d in docs)
