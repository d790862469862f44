import math
import tracemalloc

import numpy as np
import pytest

from deepauto import model as dm
from deepauto import neuralnet as nn
from deepauto.dataprep import EXTERNAL_DIM, ScalerParams, WindowSpec, WindowedSample
from deepauto.errors import ModelFormatError, ShapeError, TrainingDiverged


def micro_config(**overrides):
    base = dict(
        window=WindowSpec(n_r=3, n_p=2, n_s=1, period_steps=4, season_steps=8),
        input_dim=2, output_kind="horizons", horizons=(1, 2),
        hidden_r=3, hidden_p=2, hidden_s=2, ext_embed_dim=3,
        use_external=True, alpha=4.0, lr=0.005, batch_size=8,
        max_epochs=10, patience=3, seed=1)
    base.update(overrides)
    return dm.DeepAutoConfig(**base)


def random_sample(config, rng, cell="c", anchor=100):
    w = config.window
    if config.output_kind == "horizons":
        target = rng.uniform(size=len(config.horizons))
    else:
        target = rng.uniform(size=config.pdf_bins)
        target /= target.sum()
    return WindowedSample(
        cell_id=cell, anchor_t=anchor, anchor_ts=anchor * 60,
        x_recent=rng.uniform(size=(w.n_r, config.input_dim)),
        x_periodic=rng.uniform(size=(w.n_p, config.input_dim)),
        x_seasonal=rng.uniform(size=(w.n_s, config.input_dim)),
        external=rng.uniform(size=EXTERNAL_DIM),
        target=target)


def make_samples(config, n, seed=0):
    rng = np.random.default_rng(seed)
    return [random_sample(config, rng, anchor=100 + i) for i in range(n)]


# ---------------------------------------------------------------------------
# forward


def zero_params(config):
    rng = np.random.default_rng(0)
    params = dm.DeepAutoParams.init(config, rng)
    for _, arr in nn.param_leaves(params):
        arr[...] = 0.0
    return params


def test_forward_all_zero_params_sigmoid_head():
    config = micro_config()
    params = zero_params(config)
    sample = make_samples(config, 1)[0]
    out = dm.forward(sample, params, config)
    np.testing.assert_allclose(out, 0.5, atol=1e-15)


def test_forward_all_zero_params_pdf_head():
    config = micro_config(output_kind="pdf", pdf_bins=35, input_dim=35)
    params = zero_params(config)
    sample = make_samples(config, 1)[0]
    out = dm.forward(sample, params, config)
    np.testing.assert_allclose(out, 1 / 35, atol=1e-15)


def test_forward_shape_mismatch():
    config = micro_config()
    params = dm.DeepAutoParams.init(config, np.random.default_rng(0))
    sample = make_samples(config, 1)[0]
    sample.x_recent = sample.x_recent[:, :1]
    with pytest.raises(ShapeError):
        dm.forward(sample, params, config)


def test_pdf_head_normalized():
    config = micro_config(output_kind="pdf", pdf_bins=35, input_dim=35)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(4))
    arrays = dm.samples_to_arrays(make_samples(config, 9, seed=2), config)
    yhat, _ = dm.forward_batch(arrays, params, config)
    assert np.all(yhat >= 0)
    np.testing.assert_allclose(yhat.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("batch", [1, 512])
def test_forward_batch_cache_free_bit_equal(batch):
    config = micro_config()
    params = dm.DeepAutoParams.init(config, np.random.default_rng(12))
    arrays = dm.samples_to_arrays(make_samples(config, batch, seed=13), config)
    cached, caches = dm.forward_batch(arrays, params, config)
    free, no_caches = dm.forward_batch(arrays, params, config, cache=False)
    assert len(caches["recent"]) == config.window.n_r and no_caches is None
    np.testing.assert_array_equal(free, cached)


def test_batch_loss_memory_independent_of_steps():
    """The cache-free validation pass holds O(batch * hidden) floats, not
    O(batch * steps * hidden) like the cached training forward."""
    config = micro_config(window=WindowSpec(n_r=20), hidden_r=32, use_external=False)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    arrays = {"recent": rng.uniform(size=(2000, 20, config.input_dim)),
              "target": rng.uniform(size=(2000, len(config.horizons)))}

    def peak_bytes(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    cached = peak_bytes(lambda: dm.forward_batch(arrays, params, config))
    free = peak_bytes(lambda: dm.batch_loss(arrays, params, config))
    assert free < cached / 4, (free, cached)


def test_branch_ablation_consistency():
    """Disabling periodic/seasonal branches must equal a fusion head that
    never had those input slots."""
    config = micro_config(window=WindowSpec(n_r=3), use_external=True)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(6))
    assert params.lstm_p is None and params.lstm_s is None
    assert params.fusion_net[0].in_dim == config.hidden_r + config.ext_embed_dim
    sample = make_samples(config, 1, seed=3)[0]

    # manual composition: recent branch + external embedding + fusion layers
    state, _ = nn.lstm_forward_sequence(sample.x_recent, params.lstm_r)
    h_ext, _ = nn.dense_forward(sample.external, params.ext_net[0])
    expected = np.concatenate([state.h, h_ext])
    for layer in params.fusion_net:
        expected, _ = nn.dense_forward(expected, layer)
    np.testing.assert_array_equal(dm.forward(sample, params, config), expected)


def test_micro_forward_matches_scalar_composition():
    """dims=1 model cross-checked against the scalar oracle chain."""
    import oracles
    config = micro_config(
        window=WindowSpec(n_r=2, n_p=0, n_s=0), input_dim=1,
        hidden_r=1, use_external=False, horizons=(1,))
    params = dm.DeepAutoParams.init(config, np.random.default_rng(8))
    sample = make_samples(config, 1, seed=5)[0]

    w = {name: float(getattr(params.lstm_r, name)[0] if name.startswith(("w_", "b_"))
                     else getattr(params.lstm_r, name)[0, 0])
         for name in ("W_xi", "W_hi", "w_ci", "b_i", "W_xf", "W_hf", "w_cf", "b_f",
                      "W_xc", "W_hc", "b_c", "W_xo", "W_ho", "w_co", "b_o")}
    h, _ = oracles.lstm_sequence_scalar([float(x) for x in sample.x_recent[:, 0]], w)
    hid, out = params.fusion_net
    z = [math.tanh(float(hid.W[j, 0]) * h + float(hid.b[j])) for j in range(hid.out_dim)]
    logit = sum(float(out.W[0, j]) * z[j] for j in range(hid.out_dim)) + float(out.b[0])
    expected = oracles.sigmoid(logit)
    assert dm.forward(sample, params, config)[0] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# gradients


def run_gradient_check(config, seed=0, tol=1e-4):
    params = dm.DeepAutoParams.init(config, np.random.default_rng(seed))
    arrays = dm.samples_to_arrays(make_samples(config, 6, seed=seed + 1), config)
    loss, grads = dm.loss_and_gradients(arrays, params, config)
    analytic = {name: grads[name] for name, _ in nn.param_leaves(params)}
    err = nn.gradient_check(lambda: dm.batch_loss(arrays, params, config),
                            params, analytic)
    assert err <= tol, f"max relative gradient error {err}"


def test_gradients_mmse_micro_model():
    run_gradient_check(micro_config())


def test_gradients_kl_micro_model():
    run_gradient_check(micro_config(output_kind="pdf", pdf_bins=5, input_dim=5))


def test_gradients_no_external_no_seasonal():
    config = micro_config(window=WindowSpec(n_r=3, n_p=2, period_steps=4),
                          use_external=False)
    run_gradient_check(config)


def test_perfect_predictions_zero_loss():
    config = micro_config(window=WindowSpec(n_r=2), use_external=False, horizons=(1,))
    params = dm.DeepAutoParams.init(config, np.random.default_rng(3))
    samples = make_samples(config, 4, seed=9)
    arrays = dm.samples_to_arrays(samples, config)
    yhat, _ = dm.forward_batch(arrays, params, config)
    arrays["target"] = yhat.copy()
    loss, _ = dm.loss_and_gradients(arrays, params, config)
    assert loss == 0.0


def test_alpha_monotonicity():
    config = micro_config()
    params = dm.DeepAutoParams.init(config, np.random.default_rng(5))
    samples = make_samples(config, 16, seed=6)
    for s in samples:
        s.target = np.clip(s.target, 0.05, 0.9)  # keep y < 1 strictly
    arrays = dm.samples_to_arrays(samples, config)
    losses = []
    for alpha in (2.0, 4.0):
        cfg = micro_config(alpha=alpha)
        losses.append(dm.batch_loss(arrays, params, cfg))
    assert losses[1] < losses[0]


# ---------------------------------------------------------------------------
# training


def test_training_learns_constant_target():
    config = micro_config(max_epochs=50, patience=50, batch_size=16, lr=0.02)
    samples = make_samples(config, 48, seed=12)
    for s in samples:
        s.target = np.array([0.3, 0.3])
    params, report = dm.train(samples[:32], samples[32:], config)
    assert report.train_losses[-1] < 1e-4 or report.best_val_loss < 1e-4


def test_training_deterministic():
    def run():
        config = micro_config(max_epochs=4)
        samples = make_samples(config, 30, seed=14)
        params, report = dm.train(samples[:20], samples[20:], config)
        return dm.save(params, config, None), tuple(report.val_losses)

    blob1, losses1 = run()
    blob2, losses2 = run()
    assert blob1 == blob2
    assert losses1 == losses2


def test_early_stopping_on_plateau(monkeypatch):
    """Scripted validation losses: one improvement, then a flat plateau;
    training must stop `patience` epochs after the best one."""
    config = micro_config(max_epochs=40, patience=2)
    samples = make_samples(config, 30, seed=15)
    scripted = iter([1.0, 0.5, 0.5, 0.5, 0.5, 0.5])
    monkeypatch.setattr(dm, "batch_loss", lambda batch, params, cfg: next(scripted))
    params, report = dm.train(samples[:20], samples[20:], config)
    assert report.best_epoch == 1
    assert len(report.val_losses) == report.best_epoch + config.patience + 1
    assert report.val_losses == [1.0, 0.5, 0.5, 0.5]


def test_training_divergence_detected():
    config = micro_config(max_epochs=3)
    samples = make_samples(config, 12, seed=16)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(0))
    params.fusion_net[-1].W[...] = np.nan
    with pytest.raises(TrainingDiverged):
        dm.train(samples[:8], samples[8:], config, params=params)


def test_best_val_is_min():
    config = micro_config(max_epochs=6, patience=6)
    samples = make_samples(config, 30, seed=17)
    _, report = dm.train(samples[:20], samples[20:], config)
    assert report.best_val_loss == min(report.val_losses)


# ---------------------------------------------------------------------------
# grid search


def test_grid_single_candidate_matches_train():
    config = micro_config(max_epochs=3)
    samples = make_samples(config, 30, seed=18)

    def build(cfg):
        return samples[:20], samples[20:]

    rows = dm.grid_search(build, [(config.window, True)], config)
    assert len(rows) == 1 and "val_metric" in rows[0]

    params, _ = dm.train(samples[:20], samples[20:], config)
    arrays = dm.samples_to_arrays(samples[20:], config)
    yhat, _ = dm.forward_batch(arrays, params, config)
    rmse = float(np.sqrt(np.mean((arrays["target"] - yhat) ** 2)))
    assert rows[0]["val_metric"] == pytest.approx(rmse, abs=1e-12)


def test_grid_duplicate_candidates_identical():
    config = micro_config(max_epochs=2)
    samples = make_samples(config, 30, seed=19)
    rows = dm.grid_search(lambda cfg: (samples[:20], samples[20:]),
                          [(config.window, True), (config.window, True)], config)
    assert rows[0]["val_metric"] == rows[1]["val_metric"]


def test_grid_survives_candidate_failure():
    config = micro_config(max_epochs=2)
    samples = make_samples(config, 30, seed=20)

    def build(cfg):
        if cfg.window.n_r == 7:
            raise ValueError("boom")
        return samples[:20], samples[20:]

    bad = WindowSpec(n_r=7)
    rows = dm.grid_search(build, [(bad, False), (config.window, True)], config)
    assert "error" in rows[0]
    assert "val_metric" in rows[1]


# ---------------------------------------------------------------------------
# serialization


def roundtrip_setup(seed=21):
    config = micro_config(hidden_r=8)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(seed))
    scaler = ScalerParams(channels=["load", "ue"],
                          mins=np.array([0.0, 1.0]),
                          maxs=np.array([1.0, 250.0]),
                          constant=np.array([False, False]))
    return params, config, scaler


def test_save_load_roundtrip_bit_exact():
    params, config, scaler = roundtrip_setup()
    blob = dm.save(params, config, scaler)
    params2, config2, scaler2 = dm.load(blob)
    assert config2.to_dict() == config.to_dict()
    np.testing.assert_array_equal(scaler2.mins, scaler.mins)
    for (n1, a1), (n2, a2) in zip(nn.param_leaves(params), nn.param_leaves(params2)):
        assert n1 == n2
        assert a1.tobytes() == a2.tobytes()
    assert dm.save(params2, config2, scaler2) == blob


def test_corrupted_blob_rejected():
    params, config, scaler = roundtrip_setup()
    blob = bytearray(dm.save(params, config, scaler))
    blob[len(blob) // 2] ^= 0xFF  # flip a byte inside the tensor section
    with pytest.raises(ModelFormatError, match="checksum"):
        dm.load(bytes(blob))


def test_truncated_blob_rejected():
    params, config, scaler = roundtrip_setup()
    blob = dm.save(params, config, scaler)
    with pytest.raises(ModelFormatError):
        dm.load(blob[:40])
    with pytest.raises(ModelFormatError):
        dm.load(b"")


def test_bad_magic_rejected():
    params, config, scaler = roundtrip_setup()
    blob = bytearray(dm.save(params, config, scaler))
    blob[0:4] = b"NOPE"
    import zlib, struct
    payload = bytes(blob[:-4])
    blob = payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    with pytest.raises(ModelFormatError, match="magic"):
        dm.load(blob)


def test_loader_adopts_file_config():
    config = micro_config(hidden_r=8)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(1))
    blob = dm.save(params, config, None)
    _, loaded_config, _ = dm.load(blob)
    assert loaded_config.hidden_r == 8
    assert loaded_config.window.to_dict() == config.window.to_dict()
