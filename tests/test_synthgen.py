import json

import numpy as np
import pytest

from deepauto import synthgen as sg
from deepauto.dataprep import autocorrelation, records_to_series, write_records
from deepauto.errors import ConfigError, DataError


def small_config(**overrides):
    base = dict(n_cells=10, days=7.0, step_seconds=900, n_clusters=2, seed=7)
    base.update(overrides)
    return sg.SynthConfig(**base)


def test_generation_deterministic(tmp_path):
    recs1 = sg.generate(small_config())
    recs2 = sg.generate(small_config())
    p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    write_records(p1, recs1)
    write_records(p2, recs2)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(p1.read_bytes()) > 0


def test_different_seed_differs():
    recs1 = sg.generate(small_config(seed=7))
    recs2 = sg.generate(small_config(seed=8))
    assert recs1 != recs2


def test_value_ranges_and_schema():
    recs = sg.generate(small_config(rsrq_cells=2, days=1.0))
    assert recs == sorted(recs, key=lambda r: (r["ts"], r["cell"], r["topic"]))
    topics = set()
    for r in recs:
        topics.add(r["topic"])
        assert set(r) == {"topic", "cell", "ts", "value"}
        if r["topic"] == "load":
            assert 0.0 <= r["value"] <= 1.0
        elif r["topic"] == "ue":
            assert r["value"] >= 0 and r["value"] == int(r["value"])
        else:
            assert isinstance(r["value"], int) and 0 <= r["value"] <= 34
    assert topics == {"load", "ue", "rsrq"}


def test_record_counts_complete_when_nothing_missing():
    config = small_config(days=2.0)
    recs = sg.generate(config)
    n_load = sum(1 for r in recs if r["topic"] == "load")
    assert n_load == config.n_cells * config.n_steps
    assert len(recs) == 2 * n_load  # load + ue


def test_missing_fraction_close_to_rate():
    config = small_config(n_cells=30, days=5.0, missing_rate=0.1)
    recs = sg.generate(config)
    expected = config.n_cells * config.n_steps
    assert expected >= 1e4
    for topic in ("load", "ue"):
        n = sum(1 for r in recs if r["topic"] == topic)
        frac = 1.0 - n / expected
        assert abs(frac - 0.1) < 0.01


def test_cluster_correlation_structure():
    config = sg.SynthConfig(n_cells=20, days=14.0, n_clusters=4, seed=7)
    recs = sg.generate(config)
    series = records_to_series(recs, config.step_seconds, channels=("load",))
    cells = config.cell_ids()
    mat = np.stack([series[c].values[:, 0] for c in cells])
    corr = np.corrcoef(mat)
    same, cross = [], []
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            (same if i % 4 == j % 4 else cross).append(corr[i, j])
    assert min(same) >= 0.5
    assert np.mean(np.abs(cross)) < 0.3


def test_daily_autocorrelation_peak():
    config = small_config(n_cells=4, days=14.0)
    recs = sg.generate(config)
    series = records_to_series(recs, config.step_seconds, channels=("load",))
    steps_per_day = sg.DAY // config.step_seconds
    x = series["cell_0000"].values[:, 0]
    acf = autocorrelation(x, steps_per_day + 10)
    assert acf[steps_per_day] > 0.3
    assert acf[steps_per_day] > acf[steps_per_day // 2] + 0.1


def test_config_shocks_shift_levels():
    base = small_config(n_cells=8, days=10.0, seed=3)
    shocked = small_config(n_cells=8, days=10.0, seed=3, event_rate=0.5)
    r0 = {(r["cell"], r["ts"]): r["value"] for r in sg.generate(base) if r["topic"] == "load"}
    r1 = {(r["cell"], r["ts"]): r["value"] for r in sg.generate(shocked) if r["topic"] == "load"}
    diffs = [abs(r1[k] - r0[k]) for k in r0]
    assert max(diffs) > 0.02  # at least one persistent level change happened


def test_rsrq_stream_properties():
    config = small_config(n_cells=3, days=0.5, rsrq_cells=2,
                          rsrq_reports_per_bucket=10)
    recs = [r for r in sg.generate(config) if r["topic"] == "rsrq"]
    cells = {r["cell"] for r in recs}
    assert cells == {"cell_0000", "cell_0001"}
    n_buckets = int(round(config.days * sg.DAY / config.rsrq_bucket_seconds))
    assert len(recs) == 2 * n_buckets * 10
    # timestamps of one bucket stay inside the bucket
    first = [r["ts"] for r in recs if r["cell"] == "cell_0000"][:10]
    assert all(config.start_ts <= ts < config.start_ts + config.rsrq_bucket_seconds
               for ts in sorted(first))


def test_config_validation():
    with pytest.raises(ConfigError):
        sg.SynthConfig(missing_rate=1.5)
    with pytest.raises(ConfigError):
        sg.SynthConfig(event_rate=-0.1)
    with pytest.raises(ConfigError):
        sg.SynthConfig(base_high=0.9, daily_amp=0.5, weekly_amp=2.0)
    with pytest.raises(ConfigError):
        sg.SynthConfig(n_cells=0)


def test_write_records_parseable(tmp_path):
    recs = sg.generate(small_config(days=0.25))
    path = tmp_path / "out.ndjson"
    write_records(path, recs)
    lines = path.read_text().splitlines()
    assert len(lines) == len(recs)
    assert json.loads(lines[0]) == recs[0]


# ---------------------------------------------------------------------------
# replay


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, s):
        self.sleeps.append(s)
        self.now += s


def test_replay_timing():
    recs = [{"ts": 0, "cell": "a"}, {"ts": 60, "cell": "a"},
            {"ts": 60, "cell": "b"}, {"ts": 180, "cell": "a"}]
    clock = FakeClock()
    out = []
    sg.replay(recs, speedup=60.0, sink=out.append, clock=clock)
    assert out == recs
    # 60s of record time at 60x = 1s wall; co-timestamped records share a slot
    assert clock.sleeps == pytest.approx([1.0, 2.0])


def test_replay_flat_out():
    recs = [{"ts": t} for t in range(5)]
    clock = FakeClock()
    out = []
    sg.replay(recs, speedup=float("inf"), sink=out.append, clock=clock)
    assert out == recs and clock.sleeps == []
    sg.replay([], speedup=1.0, sink=out.append, clock=clock)  # empty ok


def test_replay_rejects_unordered():
    recs = [{"ts": 10}, {"ts": 5}]
    with pytest.raises(DataError):
        sg.replay(recs, speedup=0, sink=lambda r: None)
