import json
import subprocess
import sys

import numpy as np
import pytest

from deepauto import cli, dataprep


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


def test_missing_input_exit_2(tmp_path, capsys):
    code = run_cli(["train", "--input", str(tmp_path / "nope.ndjson"),
                    "--model", str(tmp_path / "m.bin")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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
    records, _ = dataprep.read_records(workspace["data"])
    start = min(r["ts"] for r in records)
    short = tmp_path / "short.ndjson"
    dataprep.write_records(short, [r for r in records if r["ts"] < start + 40 * 900])
    out = tmp_path / "pred.ndjson"
    assert run_cli(["predict", "--model", str(workspace["model"]),
                    "--input", str(short), "--output", str(out)]) == 2
    assert "192 steps of history" in capsys.readouterr().err
    assert not out.exists()


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

    records, _ = dataprep.read_records(data)
    cells = sorted({r["cell"] for r in records if r["topic"] == "rsrq"})
    # inference anchors run from the window's history span to the series length
    expected = sum(dataprep.rsrq_series(records, cell, 300).length - 4 + 1 for cell in cells)
    docs = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(docs) == expected > 0
    for doc in docs:
        assert not any(key.startswith("h") for key in doc)
        pdf = np.array(doc["pdf"])
        assert pdf.shape == (35,) and np.all(np.isfinite(pdf))
        assert abs(pdf.sum() - 1.0) <= 1e-9


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
    proc = subprocess.run(
        [sys.executable, "-m", "deepauto.cli", "serve",
         "--model", str(workspace["model"]),
         "--listen-http", "127.0.0.1:0",
         "--firehose", str(firehose)],
        stdin=workspace["data"].open("rb"),
        capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()

    online = {}
    for d in map(json.loads, firehose.read_text().splitlines()):
        online[(d["cell"], d["anchor_ts"])] = (d["h1"], d["h4"])
    assert set(online) == set(offline)
    assert online == offline  # exact float equality via JSON round-trip
