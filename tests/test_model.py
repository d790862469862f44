import json
import math
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepauto import model as dm
from deepauto import neuralnet as nn
from deepauto.dataprep import EXTERNAL_DIM, ScalerParams, Windows, WindowSpec
from deepauto.errors import ConfigError, ModelFormatError, ShapeError, TrainingDiverged

import oracles


def micro_config(**overrides):
    base = dict(
        window=WindowSpec(n_r=3, n_p=2, n_s=1, period_steps=4, season_steps=8),
        input_dim=2, output_kind="horizons", horizons=(1, 2),
        hidden_r=3, hidden_p=2, hidden_s=2, ext_embed_dim=3,
        use_external=True, alpha=4.0, lr=0.005, batch_size=8,
        max_epochs=10, patience=3, seed=1)
    base.update(overrides)
    return dm.DeepAutoConfig(**base)


def random_row(config, rng):
    w = config.window
    if config.output_kind == "horizons":
        target = rng.uniform(size=len(config.horizons))
    else:
        target = rng.uniform(size=config.pdf_bins)
        target /= target.sum()
    row = {"recent": rng.uniform(size=(w.n_r, config.input_dim)),
           "periodic": rng.uniform(size=(w.n_p, config.input_dim)),
           "seasonal": rng.uniform(size=(w.n_s, config.input_dim)),
           "external": rng.uniform(size=EXTERNAL_DIM),
           "target": target}
    return {k: v for k, v in row.items() if v.size}


def make_samples(config, n, seed=0):
    """n random rows of cell "c" at anchors 100, 101, ... (60-s steps)."""
    rng = np.random.default_rng(seed)
    rows = [random_row(config, rng) for _ in range(n)]
    arrays = {k: np.stack([r[k] for r in rows]) for k in rows[0]}
    return Windows(arrays, np.full(n, "c"), (100 + np.arange(n)) * 60)


# ---------------------------------------------------------------------------
# forward


def zero_params(config):
    rng = np.random.default_rng(0)
    params = dm.DeepAutoParams.init(config, rng)
    params.flat[...] = 0.0
    return params


def test_forward_all_zero_params_sigmoid_head():
    config = micro_config()
    params = zero_params(config)
    sample = make_samples(config, 1)
    out = dm.predict_samples(sample, params, config)[0]
    np.testing.assert_allclose(out, 0.5, atol=1e-15)


def test_forward_all_zero_params_pdf_head():
    config = micro_config(output_kind="pdf", pdf_bins=35, input_dim=35)
    params = zero_params(config)
    sample = make_samples(config, 1)
    out = dm.predict_samples(sample, params, config)[0]
    np.testing.assert_allclose(out, 1 / 35, atol=1e-15)


def test_forward_shape_mismatch():
    config = micro_config()
    params = dm.DeepAutoParams.init(config, np.random.default_rng(0))
    sample = make_samples(config, 1)
    sample.arrays["recent"] = sample.arrays["recent"][:, :, :1]
    with pytest.raises(ShapeError):
        dm.predict_samples(sample, params, config)


def test_pdf_head_normalized():
    config = micro_config(output_kind="pdf", pdf_bins=35, input_dim=35)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(4))
    arrays = make_samples(config, 9, seed=2).arrays
    yhat, _ = dm.forward_batch(arrays, params, config)
    assert np.all(yhat >= 0)
    np.testing.assert_allclose(yhat.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("batch", [1, 512])
def test_forward_batch_cache_free_bit_equal(batch):
    config = micro_config()
    params = dm.DeepAutoParams.init(config, np.random.default_rng(12))
    arrays = make_samples(config, batch, seed=13).arrays
    _, caches = dm.forward_batch(arrays, params, config)
    free, no_caches = dm.forward_batch(arrays, params, config, cache=False)
    assert len(caches["recent"]) == config.window.n_r and no_caches is None
    # the cached pass one row at a time: a batched product may round a row
    # differently, the row-wise cache-free pass may not
    cached = np.concatenate([dm.forward_batch({k: v[r:r + 1] for k, v in arrays.items()},
                                              params, config)[0] for r in range(batch)])
    np.testing.assert_array_equal(free, cached)


@given(st.sampled_from(["horizons", "pdf"]), st.sampled_from([3, 16, 33]),
       st.integers(1, 80), st.integers(0, 2**32 - 1),
       st.sampled_from(["float64", "float32"]), st.data())
@settings(max_examples=40, deadline=None)
def test_forward_batch_cache_free_rows_batch_invariant(kind, hidden, n, seed, dtype, data):
    """Every row of a cache-free batch is bit-equal to that row run alone
    (cached or not), for any batch size, any subset of rows in any order, and
    strided (non-contiguous) slices of a Windows at any offset; with float64
    parameters and with training's float32 working copy."""
    pdf = kind == "pdf"
    config = micro_config(output_kind=kind, input_dim=35 if pdf else 2,
                          hidden_r=hidden, hidden_p=hidden, fusion_hidden=hidden,
                          use_external=data.draw(st.booleans()))
    params = dm.DeepAutoParams.init(config, np.random.default_rng(seed))
    if dtype == "float32":
        params = dm._compute_copy(params, config)
    pool = make_samples(config, n + 7, seed=seed % 1000)
    alone = [dm.forward_batch(pool[k:k + 1].arrays, params, config)[0][0]
             for k in range(len(pool))]
    assert all(np.array_equal(dm.forward_batch(pool[k:k + 1].arrays, params, config,
                                               cache=False)[0][0], alone[k])
               for k in range(0, len(pool), 5))

    subset = data.draw(st.permutations(range(len(pool))))[:data.draw(st.integers(1, len(pool)))]
    start, stride = data.draw(st.integers(0, len(pool) - 1)), data.draw(st.integers(1, 3))
    strided = (pool[start::stride], range(start, len(pool), stride))  # views, not copies
    for batch, rows in ((pool[np.array(subset)], subset), strided):
        yhat, _ = dm.forward_batch(batch.arrays, params, config, cache=False)
        assert yhat.shape == (len(rows), config.out_dim)
        for r, k in enumerate(rows):
            assert yhat[r].tobytes() == alone[k].tobytes(), (r, k)


def test_batch_loss_memory_independent_of_steps():
    """The validation loss holds at most one `batch_size` slice's step
    caches, not O(rows * steps * hidden) floats like a cached forward over
    every row."""
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


def cached_chunk_outputs(arrays, params, config):
    n, size = len(arrays["recent"]), config.batch_size
    return np.concatenate([
        dm.forward_batch({k: v[a:a + size] for k, v in arrays.items()}, params, config)[0]
        for a in range(0, n, size)])


@pytest.mark.parametrize("kind", ["horizons", "pdf"])
def test_batch_loss_is_loss_of_cached_chunk_outputs(kind):
    """The validation loss is the loss of the cached pass's outputs over
    `batch_size` slices, bit for bit, and in float64 it agrees with the
    loss of the row-wise cache-free pass to 1e-12 relative."""
    pdf = kind == "pdf"
    config = micro_config(output_kind=kind, input_dim=5 if pdf else 2, pdf_bins=5)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(17))
    samples = make_samples(config, 21, seed=18)  # 8 + 8 + 5 rows
    Y = samples.arrays["target"]

    def loss(yhat):
        return nn.kl_loss(Y, yhat) if pdf else nn.mmse_loss(Y, yhat, config.alpha)

    for p in (params, dm._compute_copy(params, config)):
        want = loss(cached_chunk_outputs(samples.arrays, p, config))
        assert dm.batch_loss(samples, p, config) == want
        assert dm.batch_loss(samples.arrays, p, config) == want
    free, _ = dm.forward_batch(samples.arrays, params, config, cache=False)
    assert dm.batch_loss(samples, params, config) == pytest.approx(loss(free), rel=1e-12)


def test_batch_loss_and_train_never_run_the_row_wise_pass(monkeypatch):
    config = micro_config(max_epochs=2)
    samples = make_samples(config, 30, seed=19)

    def row_wise(*args):
        raise AssertionError("row-wise product in a loss or training pass")

    monkeypatch.setattr(nn, "_rowwise_matmul", row_wise)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(20))
    dm.batch_loss(samples, params, config)
    dm.train(samples[:20], samples[20:], config)
    with pytest.raises(AssertionError):
        dm.predict_samples(samples, params, config)


@pytest.mark.parametrize("kind, output", [("horizons", nn.sigmoid), ("pdf", nn.softmax)])
def test_branch_ablation_consistency(kind, output):
    """Disabling periodic/seasonal branches must equal a fusion head that
    never had those input slots, its logits put through the output kind's
    function."""
    config = micro_config(window=WindowSpec(n_r=3), use_external=True, output_kind=kind,
                          pdf_bins=5, input_dim=5 if kind == "pdf" else 2)
    params = dm.DeepAutoParams.init(config, np.random.default_rng(6))
    assert params.lstm_p is None and params.lstm_s is None
    assert params.fusion_net[0].in_dim == config.hidden_r + config.ext_embed_dim
    sample = make_samples(config, 1, seed=3)

    # manual composition: recent branch + external embedding + fusion layers
    state, _ = nn.lstm_forward_sequence(sample.arrays["recent"], params.lstm_r)
    h_ext, _ = nn.dense_forward(sample.arrays["external"], params.ext_net[0])
    expected = np.concatenate([state.h, h_ext], axis=1)
    for layer in params.fusion_net:
        expected, _ = nn.dense_forward(expected, layer)
    expected = output(expected)
    assert expected.shape == (1, config.out_dim)
    np.testing.assert_array_equal(dm.predict_samples(sample, params, config)[0], expected[0])


def test_micro_forward_matches_scalar_composition():
    """dims=1 model cross-checked against the scalar oracle chain."""
    config = micro_config(
        window=WindowSpec(n_r=2, n_p=0, n_s=0), input_dim=1,
        hidden_r=1, use_external=False, horizons=(1,))
    params = dm.DeepAutoParams.init(config, np.random.default_rng(8))
    sample = make_samples(config, 1, seed=5)

    w = {name: oracles.gate_slot(params.lstm_r, name).item() for name in oracles.GATE_SLOTS}
    h, _ = oracles.lstm_sequence_scalar([float(x) for x in sample.arrays["recent"][0, :, 0]], w)
    hid, out = params.fusion_net
    z = [math.tanh(float(hid.W[j, 0]) * h + float(hid.b[j])) for j in range(hid.out_dim)]
    logit = sum(float(out.W[0, j]) * z[j] for j in range(hid.out_dim)) + float(out.b[0])
    expected = oracles.sigmoid(logit)
    assert dm.predict_samples(sample, params, config)[0][0] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# gradients


def run_gradient_check(config, seed=0, tol=1e-4):
    params = dm.DeepAutoParams.init(config, np.random.default_rng(seed))
    arrays = make_samples(config, 6, seed=seed + 1).arrays
    loss, grads = dm.loss_and_gradients(arrays, params, config)
    err = oracles.gradient_check(lambda: dm.batch_loss(arrays, params, config),
                                 params.flat, grads)
    assert err <= tol, f"max relative gradient error {err}"


def test_gradients_mmse_micro_model():
    run_gradient_check(micro_config())


def test_gradients_kl_micro_model():
    run_gradient_check(micro_config(output_kind="pdf", pdf_bins=5, input_dim=5))


@pytest.mark.parametrize("window, use_external", [
    (WindowSpec(n_r=3, n_p=2, period_steps=4), False),
    (WindowSpec(n_r=3, n_s=1, season_steps=8), True),
    (WindowSpec(n_r=3), True),
], ids=["periodic", "seasonal-external", "recent-external"])
def test_gradients_no_external_no_seasonal(window, use_external):
    """Layouts without every branch: the fused gradient splits into the
    slices of the branches present, with the external slice last."""
    run_gradient_check(micro_config(window=window, use_external=use_external))


@pytest.mark.parametrize("kind", ["horizons", "pdf"])
def test_float32_gradients_match_float64(kind):
    """Criterion 1's micro model: the float32 working copy that training
    steps with gives the loss within 1e-6 and every gradient tensor within
    1e-5 of its largest float64 entry (float32 epsilon is 1.2e-7). Every
    layer below the head computes its gradient in float32, which widens to
    float64 exactly; the head's stays float64."""
    pdf = kind == "pdf"
    config = micro_config(output_kind=kind, input_dim=4 if pdf else 2, pdf_bins=4,
                          hidden_r=4, hidden_p=3, hidden_s=3, ext_embed_dim=3,
                          fusion_hidden=4)
    rng = np.random.default_rng(3)
    params = dm.DeepAutoParams.init(config, rng)
    zero = params.flat == 0.0        # zero-initialized embedding layer and biases
    params.flat[zero] = rng.uniform(-0.3, 0.3, size=int(zero.sum()))
    arrays = make_samples(config, 6, seed=4).arrays
    loss64, grads64 = dm.loss_and_gradients(arrays, params, config)
    loss32, grads32 = dm.loss_and_gradients(arrays, dm._compute_copy(params, config), config)
    assert loss32 == pytest.approx(loss64, rel=1e-6)
    assert grads64.dtype == grads32.dtype == np.float64
    assert grads32.shape == grads64.shape == params.flat.shape
    head = params.layout[-2][2]  # the head's W and b are the last two rows
    np.testing.assert_array_equal(grads32[:head].astype(np.float32), grads32[:head])
    assert not np.array_equal(grads32[head:].astype(np.float32), grads32[head:])
    for name, shape, offset in params.layout:
        g64, g32 = (g[offset:offset + math.prod(shape)] for g in (grads64, grads32))
        assert np.max(np.abs(g32 - g64)) <= 1e-5 * np.max(np.abs(g64)), name


def test_perfect_predictions_zero_loss():
    config = micro_config(window=WindowSpec(n_r=2), use_external=False, horizons=(1,))
    params = dm.DeepAutoParams.init(config, np.random.default_rng(3))
    arrays = make_samples(config, 4, seed=9).arrays
    yhat, _ = dm.forward_batch(arrays, params, config)
    arrays["target"] = yhat.copy()
    loss, _ = dm.loss_and_gradients(arrays, params, config)
    assert loss == 0.0


def test_alpha_monotonicity():
    config = micro_config()
    params = dm.DeepAutoParams.init(config, np.random.default_rng(5))
    arrays = make_samples(config, 16, seed=6).arrays
    arrays["target"] = np.clip(arrays["target"], 0.05, 0.9)  # keep y < 1 strictly
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
    samples.arrays["target"][:] = 0.3
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


def test_train_report_epoch_seconds():
    config = micro_config(max_epochs=4, patience=10)
    samples = make_samples(config, 30, seed=21)
    _, report = dm.train(samples[:20], samples[20:], config)
    assert len(report.epoch_seconds) == len(report.val_losses) == 4
    assert all(t > 0 for t in report.epoch_seconds)
    assert report.to_dict()["epoch_seconds"] == report.epoch_seconds


def test_train_returns_float64_params_saved_as_v2_f8():
    """Training computes in float32, but the returned parameters are the
    float64 master weights and the model file stores them as format-2 <f8."""
    config = micro_config(max_epochs=2)
    samples = make_samples(config, 30, seed=23)
    params, _ = dm.train(samples[:20], samples[20:], config)
    assert params.flat.dtype == np.float64
    assert {a.dtype for layer in layers(params) for a in layer.arrays()} == {np.dtype(np.float64)}
    blob = dm.save(params, config, None)
    assert struct.unpack("<I", blob[4:8]) == (2,)
    for _, shape, offset in params.layout:
        assert params.flat[offset:offset + math.prod(shape)].astype("<f8").tobytes() in blob


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
    arrays = samples[20:].arrays
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


# the format-2 tensors of roundtrip_setup()'s config (every branch and the
# external features), in file order
ROUNDTRIP_LAYOUT = [
    ("lstm_r.W_x", (4, 8, 2)), ("lstm_r.W_h", (4, 8, 8)), ("lstm_r.w_peep", (3, 8)),
    ("lstm_r.b", (4, 8)),
    ("lstm_p.W_x", (4, 2, 2)), ("lstm_p.W_h", (4, 2, 2)), ("lstm_p.w_peep", (3, 2)),
    ("lstm_p.b", (4, 2)),
    ("lstm_s.W_x", (4, 2, 2)), ("lstm_s.W_h", (4, 2, 2)), ("lstm_s.w_peep", (3, 2)),
    ("lstm_s.b", (4, 2)),
    ("ext_net[0].W", (3, EXTERNAL_DIM)), ("ext_net[0].b", (3,)),
    ("fusion_net[0].W", (32, 15)), ("fusion_net[0].b", (32,)),
    ("fusion_net[1].W", (2, 32)), ("fusion_net[1].b", (2,)),
]


def layers(params):
    """The layers of a DeepAutoParams in layout order."""
    cells = [c for c in (params.lstm_r, params.lstm_p, params.lstm_s) if c is not None]
    return cells + params.ext_net + params.fusion_net


def assert_params_equal(params, expected):
    """Same layout and the same flat array bit for bit, every layer's arrays
    being views of it in layout order."""
    assert params.layout == expected.layout
    assert params.flat.tobytes() == expected.flat.tobytes()
    arrays = [a for layer in layers(params) for a in layer.arrays()]
    assert [(name, a.shape) for (name, _, _), a in zip(params.layout, arrays, strict=True)] == \
        [(name, shape) for name, shape, _ in params.layout]
    for (_, shape, offset), a in zip(params.layout, arrays):
        assert np.shares_memory(a, params.flat)
        assert a.tobytes() == params.flat[offset:offset + math.prod(shape)].tobytes()


def test_save_load_roundtrip_bit_exact():
    params, config, scaler = roundtrip_setup()
    assert config.window.n_p and config.window.n_s and config.use_external
    assert [(name, shape) for name, shape, _ in dm.param_layout(config)] == ROUNDTRIP_LAYOUT
    blob = dm.save(params, config, scaler)
    params2, config2, scaler2 = dm.load(blob)
    assert config2.to_dict() == config.to_dict()
    np.testing.assert_array_equal(scaler2.mins, scaler.mins)
    assert_params_equal(params2, params)
    assert dm.save(params2, config2, scaler2) == blob


def sealed(payload):
    """`payload` with its CRC32 appended: a file that passes the checksum."""
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def test_tensor_named_twice_rejected():
    """A file that holds one tensor twice (the count raised by one) is
    corrupt; it must not load with the last copy silently winning."""
    params, config, scaler = roundtrip_setup()
    blob = dm.save(params, config, scaler)
    _, _, end = embedded_json(blob, 1)
    (count,) = struct.unpack("<I", blob[end:end + 4])
    (n,) = struct.unpack("<I", blob[end + 4:end + 8])
    head = blob[end + 4:end + 8 + n + 4 + 8 * 3]  # lstm_r.W_x: name, ndim 3, dims
    assert head[4:4 + n] == b"lstm_r.W_x"
    copy = head + bytes(8 * math.prod(ROUNDTRIP_LAYOUT[0][1]))  # all zeros
    payload = blob[:end] + struct.pack("<I", count + 1) + blob[end + 4:-4] + copy
    with pytest.raises(ModelFormatError, match="lstm_r.W_x appears twice"):
        dm.load(sealed(payload))


def test_bytes_after_last_tensor_rejected():
    params, config, scaler = roundtrip_setup()
    blob = dm.save(params, config, scaler)
    with pytest.raises(ModelFormatError, match="after the last tensor"):
        dm.load(sealed(blob[:-4] + b"\x00"))


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


def test_default_step_seconds_follows_output_kind():
    """The bucket width is a config field, written into the model file:
    300 s for histogram models and 900 s for load models when not given,
    and any positive width when given."""
    assert micro_config().step_seconds == 900
    pdf = micro_config(output_kind="pdf", input_dim=35, pdf_bins=35)
    assert pdf.step_seconds == 300
    assert pdf.to_dict()["step_seconds"] == 300
    custom = micro_config(step_seconds=60)
    params = dm.DeepAutoParams.init(custom, np.random.default_rng(0))
    assert dm.load(dm.save(params, custom, None))[1].step_seconds == 60
    with pytest.raises(ConfigError, match="step_seconds"):
        micro_config(step_seconds=0)


@pytest.mark.parametrize("field, value", [
    ("horizons", ()), ("horizons", (1, 0)), ("horizons", (-4,)),
    ("batch_size", 0), ("batch_size", -4), ("max_epochs", 0), ("max_epochs", -1)])
def test_config_rejects_no_horizon_batch_or_epoch(field, value):
    """A load model needs one horizon or more, each of a step or more; every
    model needs a batch of one row or more and one epoch or more."""
    with pytest.raises(ConfigError, match=field):
        micro_config(**{field: value})


def test_pdf_config_ignores_its_horizons():
    """A histogram model predicts bins, not horizons, so an empty horizon
    list is no error there."""
    config = micro_config(output_kind="pdf", input_dim=35, pdf_bins=35, horizons=())
    assert config.out_dim == 35


@pytest.mark.parametrize("width", [900.5, 900.0, True, "900"])
def test_step_seconds_must_be_an_integer(width):
    """A bucket width that is not an int, or is a bool, fails the config,
    and a model file that holds one is a corrupt file: bucket indices are
    int64 and a window's timestamps whole seconds."""
    with pytest.raises(ConfigError, match="step_seconds"):
        micro_config(step_seconds=width)
    params, config, scaler = roundtrip_setup()
    blob = with_config(dm.save(params, config, scaler), step_seconds=width)
    with pytest.raises(ModelFormatError, match="step_seconds"):
        dm.load(blob)


def test_unknown_version_rejected():
    params, config, scaler = roundtrip_setup()
    blob = bytearray(dm.save(params, config, scaler))
    blob[4:8] = struct.pack("<I", 3)
    payload = bytes(blob[:-4])
    blob = payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    with pytest.raises(ModelFormatError, match="version 3"):
        dm.load(blob)


def test_version_1_file_loads():
    """tests/data/model_v1.bin was written by the format-1 writer from
    roundtrip_setup() (per-gate LSTM tensors)."""
    blob = (Path(__file__).parent / "data" / "model_v1.bin").read_bytes()
    assert struct.unpack("<I", blob[4:8]) == (1,)
    params, config, scaler = dm.load(blob)
    expected, expected_config, expected_scaler = roundtrip_setup()
    assert config.to_dict() == expected_config.to_dict()
    np.testing.assert_array_equal(scaler.maxs, expected_scaler.maxs)
    assert [(name, shape) for name, shape, _ in params.layout] == ROUNDTRIP_LAYOUT
    assert_params_equal(params, expected)

    assert config.step_seconds == 900  # version 1 has no width: the load default
    v2 = dm.save(params, config, scaler)
    assert struct.unpack("<I", v2[4:8]) == (dm.FORMAT_VERSION,) == (2,)
    reloaded, _, _ = dm.load(v2)
    samples = make_samples(config, 5, seed=22)
    np.testing.assert_array_equal(dm.predict_samples(samples, params, config),
                                  dm.predict_samples(samples, reloaded, config))


def embedded_json(blob, index):
    """(doc, start, end) of a model blob's embedded JSON string `index` (0
    the config, 1 the scaler): its value and the byte range of its length
    prefix and text."""
    end = 8
    for _ in range(index + 1):
        (n,) = struct.unpack("<I", blob[end:end + 4])
        start, end = end, end + 4 + n
    return json.loads(blob[start + 4:end]), start, end


def with_json(blob, index, edit):
    """`blob` with its embedded JSON string `index` changed in place by
    `edit(doc)` and a valid checksum: a well-formed file holding the
    changed document."""
    doc, start, end = embedded_json(blob, index)
    edit(doc)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    payload = blob[:start] + struct.pack("<I", len(text)) + text + blob[end:-4]
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def with_config(blob, **changes):
    """`blob` with its embedded config's fields updated by `changes`."""
    def edit(doc):
        doc["window"].update(changes.pop("window", {}))
        doc.update(changes)
    return with_json(blob, 0, edit)


BAD_CONFIGS = {"lr": {"lr": -1.0}, "n_r": {"window": {"n_r": 0}},
               "target_channel": {"target_channel": "ue"}}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_embedded_config_is_a_format_error(name):
    """A checksummed file whose config fails its own checks is a corrupt
    model file, whichever check it fails."""
    params, config, scaler = roundtrip_setup()
    blob = with_config(dm.save(params, config, scaler), **BAD_CONFIGS[name])
    with pytest.raises(ModelFormatError, match=name):
        dm.load(blob)


def test_bad_embedded_scaler_is_a_format_error():
    params, config, scaler = roundtrip_setup()
    blob = with_json(dm.save(params, config, scaler), 1, lambda doc: doc.pop("mins"))
    with pytest.raises(ModelFormatError, match="mins"):
        dm.load(blob)


def test_version_2_file_without_step_seconds_loads():
    """tests/data/model_v2_pdf.bin was written by the format-2 writer before
    the config held a bucket width (and while it held "target_channel"):
    a 5-bin histogram model with n_r=3 whose tensors are
    DeepAutoParams.init(config, default_rng(23)). It loads with the pdf
    default width, and saving it again changes only those two keys."""
    blob = (Path(__file__).parent / "data" / "model_v2_pdf.bin").read_bytes()
    old_doc = embedded_json(blob, 0)[0]
    assert "step_seconds" not in old_doc and old_doc["target_channel"] == "load"
    params, config, scaler = dm.load(blob)
    assert config.step_seconds == 300 and config.input_dim == 5 and scaler is None
    assert_params_equal(params, dm.DeepAutoParams.init(config, np.random.default_rng(23)))
    new_doc = embedded_json(dm.save(params, config, scaler), 0)[0]
    del old_doc["target_channel"]
    assert new_doc == dict(old_doc, step_seconds=300)


def test_input_dim_defaults_to_the_channel_count():
    assert micro_config(input_dim=None).input_dim == 2
    assert micro_config(input_dim=None, output_kind="pdf").input_dim == 35
