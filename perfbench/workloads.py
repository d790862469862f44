"""The three workloads. Each builds its inputs with synthgen from the seed
(`setup`), runs jobs that drive only deepauto's public API (`measure`),
and checks the outputs afterwards, outside the timed and traced region
(`check`). README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from deepauto import cli, dataprep, model, pipeline, stream, synthgen
from deepauto.dataprep import WindowSpec

# the reference configuration (ROADMAP baseline)
REF_STEP = 900
REF_WINDOW = WindowSpec(n_r=20, n_p=2, period_steps=96)
REF_HORIZONS = (1, 8)

# live path: 60-s buckets and acceptance criterion 8's model shape
STREAM_STEP = 60
STREAM_WINDOW = WindowSpec(n_r=5)

SIZES = {
    "full": {
        "train_ref": {"cells": 50, "days": 28.0},
        "predict_file": {"cells": 500, "days": 2.25, "missing_rate": 0.02},
        # 20x replay: a 6000-record burst every 3 s, about half of what
        # ingest_line sustains flat out on a 2-core box
        "stream_3k": {"cells": 3000, "speedup": 20.0},
    },
    # tiny inputs for the benchmark's own tests; same code paths
    "smoke": {
        "train_ref": {"cells": 8, "days": 4.0},
        "predict_file": {"cells": 5, "days": 2.25, "missing_rate": 0.02},
        "stream_3k": {"cells": 20, "speedup": 600.0},
    },
}


class Checks:
    """Output checks; each counts once into attempted (and failed)."""

    def __init__(self):
        self.results = []

    def add(self, name, ok):
        self.results.append((name, bool(ok)))

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return [name for name, ok in self.results if not ok]


@dataclass
class Measured:
    """One measurement phase: its end-to-end figures, the seconds spent
    inside the system under test, workload-specific figures by their own
    names, and the outputs `check` reads."""

    throughput_per_s: float
    latency_p50_ms: float
    latency_p99_ms: float
    busy_s: float
    named: dict = field(default_factory=dict)
    outputs: object = None
    lateness_ms: list = field(default_factory=list)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _reference_config(seed):
    # patience >= max_epochs, so early stopping never ends a timed job
    return model.DeepAutoConfig(window=REF_WINDOW, input_dim=2, horizons=REF_HORIZONS,
                                use_external=True, batch_size=512, lr=0.02,
                                max_epochs=1, patience=1, seed=seed)


def _init_params(config, seed):
    return model.DeepAutoParams.init(config, np.random.default_rng(seed))


def _scaler_from_records(records):
    """Min-max scaler over every load/ue value: the deployed model's artefact."""
    lo = {"load": math.inf, "ue": math.inf}
    hi = {"load": -math.inf, "ue": -math.inf}
    for r in records:
        topic = r["topic"]
        if topic in lo:
            lo[topic] = min(lo[topic], r["value"])
            hi[topic] = max(hi[topic], r["value"])
    return dataprep.fit_scaler(np.array([[lo["load"], lo["ue"]], [hi["load"], hi["ue"]]]),
                               ("load", "ue"))


def _jobs(seconds, job):
    """Run job(k) for k = 0, 1, ... : once, then again while another job as
    long as the last one still ends within `seconds`. Returns the walls."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        t0 = time.perf_counter()
        job(len(walls))
        walls.append(time.perf_counter() - t0)
    return walls


def _batch_measured(items, walls, named, outputs):
    """A batch job is one request: its latency is the job's wall time, and
    p99 is the nearest-rank p99 of the run's jobs (the slowest, under 100)."""
    return Measured(throughput_per_s=statistics.median(items / w for w in walls),
                    latency_p50_ms=statistics.median(walls) * 1000.0,
                    latency_p99_ms=percentile(walls, 0.99) * 1000.0,
                    busy_s=sum(walls), named=named, outputs=outputs)


class TrainRef:
    """model.train on the reference dataset, one epoch per job, continuing
    from the previous job's parameters."""

    name = "train_ref"
    n_r = REF_WINDOW.n_r

    def __init__(self, size, seed, seconds, workdir):
        self.size, self.seed, self.seconds = size, seed, seconds
        self.config = _reference_config(seed)

    def setup(self):
        records = synthgen.generate(synthgen.SynthConfig(
            n_cells=self.size["cells"], days=self.size["days"], seed=self.seed))
        series = pipeline.load_series(records, REF_STEP)
        train, val, _, _ = pipeline.prepare_load_dataset(series, REF_WINDOW, REF_HORIZONS)
        return {"train": train, "val": val}

    def measure(self, state):
        train, val, config = state["train"], state["val"], self.config
        params = _init_params(config, self.seed)
        reports = []

        def job(_):
            nonlocal params
            params, report = model.train(train, val, config, params=params)
            reports.append(report)

        walls = _jobs(self.seconds, job)
        return _batch_measured(len(train), walls, {
            "train_samples_per_s": (statistics.median(len(train) / w for w in walls),
                                    "samples/s"),
            "epoch_s": (statistics.median(walls), "s"),
            "epochs": (len(walls), "count"),
            "train_samples": (len(train), "count")}, reports)

    def check(self, state, measured, checks):
        reports = measured.outputs
        for report in reports:
            checks.add("train losses finite",
                       all(map(math.isfinite, report.train_losses + report.val_losses)))
        # the seeded init is deterministic, so the untrained model is rebuilt
        untrained = model.batch_loss(state["val"], _init_params(self.config, self.seed),
                                     self.config)
        final = reports[-1].val_losses[-1]
        checks.add("final val loss below untrained", final < untrained)
        measured.named["val_loss_untrained"] = (float(untrained), "loss")
        measured.named["val_loss_final"] = (float(final), "loss")


class PredictFile:
    """`deepauto predict` from an NDJSON file to a predictions file."""

    name = "predict_file"
    n_r = REF_WINDOW.n_r

    def __init__(self, size, seed, seconds, workdir):
        self.size, self.seed, self.seconds = size, seed, seconds
        self.workdir = workdir
        self.input = workdir / "input.ndjson"
        self.model = workdir / "model.bin"

    def setup(self):
        records = synthgen.generate(synthgen.SynthConfig(
            n_cells=self.size["cells"], days=self.size["days"],
            missing_rate=self.size["missing_rate"], seed=self.seed))
        dataprep.write_records(self.input, records)
        config = _reference_config(self.seed)
        model.save_file(self.model, _init_params(config, self.seed), config,
                        _scaler_from_records(records))
        return {"expected": _feasible_anchors(records, REF_STEP, REF_WINDOW.history_span())}

    def measure(self, state):
        results = []

        def job(k):
            output = self.workdir / f"predictions_{k}.ndjson"
            code = cli.main(["predict", "--model", str(self.model), "--input",
                             str(self.input), "--output", str(output)])
            results.append((code, output))

        walls = _jobs(self.seconds, job)
        return _batch_measured(state["expected"], walls, {
            "predict_s": (statistics.median(walls), "s"),
            "predictions": (state["expected"], "count"),
            "jobs": (len(walls), "count")}, results)

    def check(self, state, measured, checks):
        expected = state["expected"]
        for code, output in measured.outputs:
            checks.add("predict exit code 0", code == 0)
            docs = [json.loads(line) for line in output.read_text().splitlines()] \
                if code == 0 else []
            output.unlink(missing_ok=True)
            keys = {(d["cell"], d["anchor_ts"]) for d in docs}
            checks.add("prediction count = feasible anchors",
                       len(docs) == expected and len(keys) == expected)
            values = [d[f"h{h}"] for d in docs for h in REF_HORIZONS]
            checks.add("predictions finite and in [0, 1]",
                       bool(values) and all(math.isfinite(v) and 0.0 <= v <= 1.0
                                            for v in values))


def _feasible_anchors(records, step, span):
    """Anchors the batch path can predict: per cell, every t in [span, T]
    where T counts the buckets from the cell's first to its last record."""
    first, last = {}, {}
    for r in records:
        if r["topic"] in ("load", "ue"):
            b = r["ts"] // step
            first[r["cell"]] = min(first.get(r["cell"], b), b)
            last[r["cell"]] = max(last.get(r["cell"], b), b)
    return sum(max(0, last[c] - first[c] + 1 - span + 1) for c in first)


class Stream3k:
    """Open-loop replay: every record of one timestamp is due at once, one
    burst per bucket at the replay speed-up, into Engine.ingest_line."""

    name = "stream_3k"
    n_r = STREAM_WINDOW.n_r

    def __init__(self, size, seed, seconds, workdir, check_backlog=True):
        self.size, self.seed = size, seed
        self.period = STREAM_STEP / size["speedup"]
        self.n_paced = max(1, round(seconds / self.period))
        # the first history_span buckets only fill engine state; they are
        # replayed flat out before the paced phase
        self.n_warm = STREAM_WINDOW.history_span()
        self.check_backlog = check_backlog
        self.config = model.DeepAutoConfig(window=STREAM_WINDOW, input_dim=2,
                                           horizons=REF_HORIZONS, hidden_r=16,
                                           fusion_hidden=16, ext_embed_dim=4, seed=seed)

    def setup(self):
        n_buckets = self.n_warm + self.n_paced
        records = synthgen.generate(synthgen.SynthConfig(
            n_cells=self.size["cells"], days=n_buckets * STREAM_STEP / synthgen.DAY,
            step_seconds=STREAM_STEP, seed=self.seed))
        bursts = {}
        for r in records:
            bursts.setdefault(r["ts"], []).append(
                json.dumps(r, separators=(",", ":"), sort_keys=True))
        params = _init_params(self.config, self.seed)
        scaler = _scaler_from_records(records)
        engine = stream.Engine(params, self.config, scaler, step_seconds=STREAM_STEP)
        return {"records": records, "bursts": [bursts[ts] for ts in sorted(bursts)],
                "params": params, "scaler": scaler, "engine": engine}

    def measure(self, state):
        engine, bursts = state["engine"], state["bursts"]
        predictions = [p for lines in bursts[:self.n_warm] for line in lines
                       for p in engine.ingest_line(line)]
        lateness, rates, p50s, p99s, latencies = [], [], [], [], []
        busy = 0.0
        n_records = 0
        start = time.monotonic()
        for k, lines in enumerate(bursts[self.n_warm:]):
            due = start + k * self.period
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lateness.append((time.monotonic() - due) * 1000.0)
            out = []
            t0 = time.perf_counter()
            for line in lines:
                out.extend(engine.ingest_line(line, arrival=due))
            spent = time.perf_counter() - t0
            busy += spent
            n_records += len(lines)
            rates.append(len(lines) / spent)
            burst = [p.latency_ms for p in out]
            p50s.append(percentile(burst, 0.50))
            p99s.append(percentile(burst, 0.99))
            latencies.extend(burst)
            predictions.extend(out)
        t0 = time.perf_counter()
        predictions.extend(engine.flush())
        busy += time.perf_counter() - t0
        # medians over bursts: a burst slowed by a neighbour on the machine
        # moves them less than it moves the pooled figures
        return Measured(
            throughput_per_s=statistics.median(rates),
            latency_p50_ms=statistics.median(p50s), latency_p99_ms=statistics.median(p99s),
            busy_s=busy, outputs=predictions, lateness_ms=lateness,
            named={"stream_capacity_rps": (n_records / busy, "records/s"),
                   "stream_latency_p50_ms": (percentile(latencies, 0.50), "ms"),
                   "stream_latency_p99_ms": (percentile(latencies, 0.99), "ms"),
                   "stream_latency_samples": (len(latencies), "count"),
                   "burst_latency_p99_ms": (p99s, "ms"),
                   "gen_lateness_max_ms": (max(lateness), "ms"),
                   "bursts": (len(lateness), "count")})

    def check(self, state, measured, checks):
        engine, predictions = state["engine"], measured.outputs
        cells = self.size["cells"]
        checks.add("no malformed records", engine.counters["malformed"] == 0)
        checks.add("no late drops", engine.counters["late_dropped"] == 0)
        # each cell predicts once per bucket it closes after its first n_warm - 1
        expected = cells * (len(state["bursts"]) - (self.n_warm - 1))
        checks.add("predictions = cells x (buckets - warm-up)", len(predictions) == expected)
        if self.check_backlog:
            checks.add("no backlog: every burst started within one period",
                       max(measured.lateness_ms) < self.period * 1000.0)

        # criterion 7's invariant: streamed == batch, bit for bit, on a fixed
        # subset of cells
        ids = synthgen.SynthConfig(n_cells=cells).cell_ids()
        subset = set(ids[::max(1, cells // 20)])
        streamed = {(p.cell_id, p.anchor_ts): p.outputs
                    for p in predictions if p.cell_id in subset}
        series = pipeline.load_series([r for r in state["records"] if r["cell"] in subset],
                                      STREAM_STEP)
        samples = pipeline.prediction_samples(series, self.config.window, state["scaler"])
        batch = model.predict_samples(samples, state["params"], self.config)
        for cell in sorted(subset):
            rows = [(s.anchor_ts, y) for s, y in zip(samples, batch) if s.cell_id == cell]
            ours = {ts for (c, ts) in streamed if c == cell}
            checks.add(f"{cell} streamed == batch bit for bit",
                       ours == {ts for ts, _ in rows}
                       and all(np.array_equal(streamed[(cell, ts)], y) for ts, y in rows))

    def state_buckets(self, state):
        """Buckets held in engine state at the end of the run."""
        return sum(len(getattr(buf, "open", ())) + len(getattr(buf, "closed", ()))
                   for buf in state["engine"].cells.values())


WORKLOADS = {w.name: w for w in (TrainRef, PredictFile, Stream3k)}
