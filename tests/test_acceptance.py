"""Release acceptance suite.

One test per release criterion; each prints a single PASS/FAIL line
(visible with `pytest tests/test_acceptance.py -s`). The heavy
data/training fixtures are shared across criteria, so this file is meant
to be run as a whole; total runtime is dominated by the window grid
(criterion 3, budgeted under 15 minutes).
"""

import functools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from deepauto import evaluation as ev
from deepauto import model as dm
from deepauto import neuralnet as nn
from deepauto import pipeline, stream, synthgen
from deepauto.dataprep import (EXTERNAL_DIM, RSRQ_CHANNELS, Windows, WindowSpec,
                               apply_scaler, autocorrelation, fit_scaler, split_4_1_1,
                               write_records)
from deepauto.errors import ModelFormatError

SEED = 7
STEP = 900

# training settings used by the trend criteria (3, 4); chosen for reliable
# convergence inside the grid's runtime budget
TREND = dict(lr=0.02, batch_size=512)


def criterion(number, description):
    """Decorator printing the per-criterion verdict line."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {number:2d}] FAIL  {description}", flush=True)
                raise
            print(f"\n[criterion {number:2d}] PASS  {description}", flush=True)
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def default_series():
    """The reference synthetic dataset: 50 cells, 28 days, 15-minute steps."""
    records = synthgen.generate(synthgen.SynthConfig(seed=SEED))
    return pipeline.load_series(records, STEP)


@pytest.fixture(scope="module")
def grid_result(default_series):
    """Window grid over the four reference candidates; also keeps the wall
    time so criterion 3 can assert its runtime budget."""
    candidates = [
        (WindowSpec(n_r=5), False),
        (WindowSpec(n_r=20), False),
        (WindowSpec(n_r=20, n_p=1, period_steps=96), False),
        (WindowSpec(n_r=20, n_p=2, period_steps=96), True),
    ]
    base = dm.DeepAutoConfig(window=candidates[0][0], input_dim=2, horizons=(1, 8),
                             max_epochs=14, patience=14, seed=SEED, **TREND)

    def build(cfg):
        tr, va, _, _ = pipeline.prepare_load_dataset(
            default_series, cfg.window, cfg.horizons)
        return tr, va

    t0 = time.monotonic()
    rows = dm.grid_search(build, candidates, base)
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def trained_load_model(default_series):
    """Full model (recent + periodic + external) trained on the reference
    dataset, plus everything needed to evaluate it."""
    window = WindowSpec(n_r=20, n_p=2, period_steps=96)
    config = dm.DeepAutoConfig(window=window, input_dim=2, horizons=(1, 8),
                               use_external=True, max_epochs=14, patience=14,
                               seed=SEED, **TREND)
    train_s, val_s, test_s, scaler = pipeline.prepare_load_dataset(
        default_series, window, config.horizons)
    params, report = dm.train(train_s, val_s, config)
    return params, config, scaler, (train_s, val_s, test_s)


# ---------------------------------------------------------------------------
# criteria


@criterion(1, "micro-model gradients match finite differences (<= 1e-4, < 10 s)")
def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    window = WindowSpec(n_r=3, n_p=2, n_s=1, period_steps=4, season_steps=8)
    for output_kind, out_dims in (("horizons", dict(horizons=(1, 2))),
                                  ("pdf", dict(pdf_bins=4))):
        config = dm.DeepAutoConfig(
            window=window, input_dim=4 if output_kind == "pdf" else 2,
            output_kind=output_kind, hidden_r=4, hidden_p=3, hidden_s=3,
            ext_embed_dim=3, fusion_hidden=4, use_external=True, **out_dims)
        rng = np.random.default_rng(3)
        params = dm.DeepAutoParams.init(config, rng)
        for _, arr in nn.param_leaves(params):
            zero = arr == 0.0        # zero-initialized embedding layer and biases
            arr[zero] = rng.uniform(-0.3, 0.3, size=int(zero.sum()))
        rows = []
        for i in range(6):
            if output_kind == "horizons":
                target = rng.uniform(size=2)
            else:
                target = rng.uniform(size=config.pdf_bins)
                target /= target.sum()
            rows.append(dict(
                recent=rng.uniform(size=(3, config.input_dim)),
                periodic=rng.uniform(size=(2, config.input_dim)),
                seasonal=rng.uniform(size=(1, config.input_dim)),
                external=rng.uniform(size=EXTERNAL_DIM), target=target))
        arrays = {k: np.stack([r[k] for r in rows]) for k in rows[0]}
        _, grads = dm.loss_and_gradients(arrays, params, config)
        err = oracles.gradient_check(
            lambda: dm.batch_loss(arrays, params, config), params, grads)
        assert err <= 1e-4, f"{output_kind}: max relative error {err}"
    assert time.monotonic() - t0 < 10.0


@criterion(2, "loss worked examples match the independent oracles")
def test_criterion_2_loss_oracles():
    rng = np.random.default_rng(5)
    Y, Yhat = rng.uniform(size=(30, 3)), rng.uniform(size=(30, 3))
    assert abs(nn.mmse_loss(Y, Yhat, 0.0) - np.mean((Y - Yhat) ** 2)) <= 1e-12

    # single prediction y=0.5, yhat=0.7, alpha=4: e^{-2} * 0.04
    got = nn.mmse_loss(np.array([[0.5]]), np.array([[0.7]]), 4.0)
    want = oracles.mmse_scalar([[0.5]], [[0.7]], 4.0)
    assert abs(want - 0.0054134113) <= 1e-9  # pinned reference value
    assert abs(got - want) <= 1e-9

    # KL examples: certain-vs-uniform (ln 2) and a mixed pair
    got = nn.kl_loss(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
    assert abs(got - np.log(2.0)) <= 1e-9
    P, Q = [[1.0, 0.0]], [[0.6, 0.4]]  # KL = ln(5/3)
    want = oracles.kl_scalar(P, Q)
    assert abs(want - 0.5108256238) <= 1e-9
    assert abs(nn.kl_loss(np.array(P), np.array(Q)) - want) <= 1e-9


@criterion(3, "window grid: monotone val RMSE, full model >= 5% under "
              "recent-only, < 15 min")
def test_criterion_3_window_grid(grid_result):
    rows, wall = grid_result
    assert all("val_metric" in r for r in rows), rows
    metrics = [r["val_metric"] for r in rows]
    print(f"\n    grid val RMSE: {[round(m, 5) for m in metrics]} "
          f"({wall:.0f} s)", flush=True)
    for a, b in zip(metrics, metrics[1:]):
        assert b <= a * 1.0001, f"not monotone: {metrics}"
    recent_only_best = min(metrics[0], metrics[1])
    assert metrics[3] <= 0.95 * recent_only_best, \
        f"full model only {(1 - metrics[3] / recent_only_best) * 100:.1f}% better"
    assert wall < 15 * 60


@criterion(4, "beats naive by >=10% (1-step) / >=25% (8-step) RMSE and "
              "ridge-AR at the long horizon")
def test_criterion_4_baseline_margins(trained_load_model):
    params, config, scaler, (train_s, val_s, test_s) = trained_load_model
    arrays = test_s.arrays
    Y = arrays["target"]
    yhat, _ = dm.forward_batch(arrays, params, config)

    naive = np.repeat(arrays["recent"][:, -1, 0][:, None], Y.shape[1], axis=1)
    fit_s = Windows.concat([train_s, val_s])
    X = ev.samples_to_design(fit_s)
    y = fit_s.arrays["target"]
    coef = ev.linear_ar_fit(X, y, lam=1e-3)
    ridge = ev.linear_ar_predict(ev.samples_to_design(test_s), coef)

    margins = {}
    for k, h in enumerate(config.horizons):
        rm = {name: ev.rmse(Y[:, k], Z[:, k])
              for name, Z in (("model", yhat), ("naive", naive), ("ridge", ridge))}
        margins[h] = rm
        print(f"\n    h{h}: model {rm['model']:.5f}  naive {rm['naive']:.5f}  "
              f"ridge {rm['ridge']:.5f}", flush=True)
    assert margins[1]["model"] <= 0.90 * margins[1]["naive"]
    assert margins[8]["model"] <= 0.75 * margins[8]["naive"]
    assert margins[8]["model"] < margins[8]["ridge"]


@criterion(5, "histogram forecast KL <= 50% of previous-bucket naive")
def test_criterion_5_histogram_kl():
    sc = synthgen.SynthConfig(n_cells=5, days=14.0, rsrq_cells=5, seed=SEED)
    records = [r for r in synthgen.generate(sc) if r["topic"] == "rsrq"]
    window = WindowSpec(n_r=8)
    train_s, val_s, test_s, _ = pipeline.prepare_pdf_dataset(
        pipeline.load_series(records, 300, RSRQ_CHANNELS), window)
    config = dm.DeepAutoConfig(window=window, input_dim=35, output_kind="pdf",
                               pdf_bins=35, use_external=False,
                               max_epochs=8, patience=8, seed=SEED)
    params, _ = dm.train(train_s, val_s, config)
    arrays = test_s.arrays
    yhat, _ = dm.forward_batch(arrays, params, config)
    kl_model = nn.kl_loss(arrays["target"], yhat)
    naive = arrays["recent"][:, -1]
    kl_naive = nn.kl_loss(arrays["target"], naive)
    print(f"\n    KL model {kl_model:.4f} vs naive {kl_naive:.4f}", flush=True)
    assert kl_model <= 0.5 * kl_naive


@criterion(6, "ACF peaks at 1-day and 7-day lags, >= 0.1 over off-peak")
def test_criterion_6_acf_peaks(default_series):
    x = oracles.cells_of(default_series)["cell_0000"].values[:, 0]
    day = 96
    acf = np.asarray(autocorrelation(x, 7 * day + day // 2))
    for nominal in (day, 7 * day):
        lag = nominal - 4 + int(np.argmax(acf[nominal - 4:nominal + 5]))
        peak = acf[lag]
        assert peak >= max(acf[lag - 1], acf[lag + 1])  # a local maximum
        off = max(acf[nominal - day // 2], acf[nominal + day // 2])
        assert peak - off >= 0.1, f"lag {nominal}: peak {peak:.3f} off-peak {off:.3f}"


@criterion(7, "streamed serve output is bit-identical to batch predict "
              "(100 cells x 2 days)")
def test_criterion_7_offline_online_equivalence(tmp_path):
    sc = synthgen.SynthConfig(n_cells=100, days=2.0, seed=11)
    records = synthgen.generate(sc)
    data = tmp_path / "stream.ndjson"
    write_records(data, records)

    config = dm.DeepAutoConfig(window=WindowSpec(n_r=6), input_dim=2,
                               horizons=(1, 8), hidden_r=8, fusion_hidden=8,
                               ext_embed_dim=4, seed=SEED)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(SEED))
    series = pipeline.load_series(records, STEP)
    scaler = fit_scaler(series.values, ("load", "ue"))
    model_path = tmp_path / "model.bin"
    dm.save_file(model_path, params, config, scaler)

    pred_path = tmp_path / "pred.ndjson"
    proc = subprocess.run(
        [sys.executable, "-m", "deepauto.cli", "predict",
         "--model", str(model_path), "--input", str(data),
         "--output", str(pred_path)],
        capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()

    fire_path = tmp_path / "fire.ndjson"
    with data.open("rb") as stdin:
        proc = subprocess.run(
            [sys.executable, "-m", "deepauto.cli", "serve",
             "--model", str(model_path), "--listen-http", "127.0.0.1:0",
             "--firehose", str(fire_path)],
            stdin=stdin, capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()

    offline = {(d["cell"], d["anchor_ts"]): (d["h1"], d["h8"])
               for d in map(json.loads, pred_path.read_text().splitlines())}
    online = {(d["cell"], d["anchor_ts"]): (d["h1"], d["h8"])
              for d in map(json.loads, fire_path.read_text().splitlines())}
    assert len(offline) >= 100 * (192 - 6)
    assert online == offline


@criterion(8, "p99 ingest-to-prediction latency < 1 s at 1,000 cells, "
              "60 s buckets, 60x replay")
def test_criterion_8_streaming_latency():
    n_steps = 16
    sc = synthgen.SynthConfig(n_cells=1000, days=n_steps / 1440.0,
                              step_seconds=60, seed=SEED)
    records = synthgen.generate(sc)
    config = dm.DeepAutoConfig(window=WindowSpec(n_r=5), input_dim=2,
                               horizons=(1, 8), hidden_r=16, fusion_hidden=16,
                               ext_embed_dim=4, seed=SEED)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(SEED))
    engine = stream.Engine(params, config, scaler=None, step_seconds=60)

    synthgen.replay(records, speedup=60.0, sink=engine.ingest)
    engine.flush()
    health = engine.health()
    print(f"\n    {health['predictions']} predictions, "
          f"p50 {health['latency_p50_ms']:.1f} ms, "
          f"p99 {health['latency_p99_ms']:.1f} ms", flush=True)
    assert health["predictions"] >= 1000 * (n_steps - 6)
    assert health["latency_p99_ms"] < 1000.0


@criterion(9, "training is seed-deterministic; model files round-trip; "
              "corruption is rejected while serving")
def test_criterion_9_determinism_persistence(tmp_path):
    sc = synthgen.SynthConfig(n_cells=4, days=3.0, seed=SEED)
    records = synthgen.generate(sc)
    series = pipeline.load_series(records, STEP)
    window = WindowSpec(n_r=6)
    config = dm.DeepAutoConfig(window=window, input_dim=2, horizons=(1,),
                               hidden_r=8, fusion_hidden=8, max_epochs=2,
                               seed=SEED)

    blobs = []
    for _ in range(2):
        tr, va, _, scaler = pipeline.prepare_load_dataset(series, window, (1,))
        params, _ = dm.train(tr, va, config)
        blobs.append(dm.save(params, config, scaler))
    assert blobs[0] == blobs[1]

    params2, config2, scaler2 = dm.load(blobs[0])
    assert dm.save(params2, config2, scaler2) == blobs[0]

    good = tmp_path / "good.bin"
    good.write_bytes(blobs[0])
    engine = stream.Engine(params2, config2, scaler2)
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(blobs[0][:100] + b"\x00" * 32 + blobs[0][132:])
    ok, err = engine.reload_model(corrupt)
    assert not ok and "ModelFormatError" in err
    with pytest.raises(ModelFormatError):
        dm.load(corrupt.read_bytes())
    # the server keeps working with the previous model after a bad reload
    for b in range(8):
        engine.ingest({"topic": "load", "cell": "A", "ts": b * STEP, "value": 0.4})
        engine.ingest({"topic": "ue", "cell": "A", "ts": b * STEP, "value": 40.0})
    assert engine.latest("A") is not None
    assert engine.health()["model_version"] == 1


@criterion(10, "split counts exact; scaler round-trip <= 1e-12; "
               "interpolation examples exact")
def test_criterion_10_unit_contracts():
    # 4:1:1 split on 600 anchors
    items = list(range(600))
    tr, va, te = split_4_1_1(items)
    assert (len(tr), len(va), len(te)) == (400, 100, 100)
    assert tr + va + te == items

    rng = np.random.default_rng(2)
    values = rng.uniform(1.0, 9.0, size=(50, 2))
    scaler = fit_scaler(values, ("load", "ue"))
    back = oracles.invert_scaler(apply_scaler(values, scaler), scaler)
    assert np.max(np.abs(back - values)) <= 1e-12

    def interpolated(col):
        col = np.asarray(col, dtype=np.float64)
        return pipeline.fill_series(oracles.series_block([oracles.CellSeries(
            cell_id="c", start_ts=0, step_seconds=STEP, channels=["load"],
            values=col[:, None], missing_mask=np.isnan(col)[:, None])]))

    out = interpolated([1.0, np.nan, 3.0])
    assert out.values[:, 0].tolist() == [1.0, 2.0, 3.0]
    out = interpolated([np.nan, 5.0, np.nan])
    assert out.values[:, 0].tolist() == [5.0, 5.0, 5.0]
    out = interpolated([0.0, np.nan, np.nan, 0.9])
    assert np.allclose(out.values[:, 0], [0.0, 0.3, 0.6, 0.9], atol=1e-15)
