"""deepauto benchmark: one workload per process, single-threaded BLAS.

    python3 perfbench/run.py --workload train_ref --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from the `src/` directory next
to this one. With --trace 0 the last stdout line holds the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer metrics of a
separate traced run. Lines before it give the machine and the
workload-specific figures. --smoke shrinks every input for the
benchmark's own tests.
"""

import os

# pin BLAS and OpenMP pools before NumPy loads: one thread per benchmark
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
N_SETUPS = 3


def _import_deepauto():
    """Import deepauto from this checkout's src/, never from elsewhere."""
    if not (SRC / "deepauto" / "__init__.py").is_file():
        raise SystemExit(f"error: no deepauto sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deepauto
    if Path(deepauto.__file__).resolve().parent != SRC / "deepauto":
        raise SystemExit(f"error: imported deepauto from {deepauto.__file__}")
    return deepauto


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_block(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_reported": _blas_threads(),
        "loadavg_start": os.getloadavg(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload):
    """End-to-end metrics: set up N_SETUPS times, then measure untraced."""
    from workloads import Checks  # imports deepauto: after _import_deepauto
    setups = []
    state = None
    for _ in range(N_SETUPS):
        state = None  # free the previous inputs before building new ones
        t0 = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - t0)
    measured = workload.measure(state)
    checks = Checks()
    workload.check(state, measured, checks)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "throughput_per_s": _metric(measured.throughput_per_s, "1/s"),
        "latency_p50_ms": _metric(measured.latency_p50_ms, "ms"),
        "latency_p99_ms": _metric(measured.latency_p99_ms, "ms"),
    }
    named = {k: _metric(v, u) for k, (v, u) in measured.named.items()}
    named["setup_s_each"] = _metric(setups, "s")
    named["failed_ratio"] = _metric(len(checks.failed) / checks.attempted, "ratio")
    return metrics, named, checks


def traced_run(make_workload, deepauto):
    """Per-layer metrics: one untraced measurement for reference, then set
    up and measure again under the tracer. Checks run untraced."""
    import tracing
    from workloads import Checks, percentile
    checks = Checks()
    base = make_workload()
    state = base.setup()
    untraced = base.measure(state)
    base.check(state, untraced, checks)
    state = None

    workload = make_workload()
    tracer = tracing.Tracer()
    tracing.instrument(tracer, deepauto, workload.n_r)
    try:
        with tracer.span("setup"):
            state = workload.setup()
        with tracer.span("job"):
            traced = workload.measure(state)
    finally:
        tracer.uninstall()
    workload.check(state, traced, checks)

    metrics = tracing.layer_metrics(tracer.table(), tracer.counts)
    metrics["stream.state_buckets"] = _metric(
        workload.state_buckets(state) if hasattr(workload, "state_buckets") else 0, "count")
    lateness = traced.lateness_ms
    metrics["gen.lateness_p99_ms"] = _metric(percentile(lateness, 0.99) if lateness else 0.0, "ms")
    metrics["gen.lateness_max_ms"] = _metric(max(lateness) if lateness else 0.0, "ms")
    metrics["trace.overhead_pct"] = _metric((traced.busy_s / untraced.busy_s - 1.0) * 100.0, "%")

    for root in ("setup", "job"):
        print_table(root, tracer.table(root), traced.busy_s if root == "job" else None)
    report = {"workload": workload.name,
              "untraced": untraced.named, "traced": traced.named,
              "busy_s": {"untraced": untraced.busy_s, "traced": traced.busy_s},
              "shares_of_traced_busy": shares(tracer.table("job"), traced.busy_s)}
    print(json.dumps(report))
    return metrics, checks


def shares(table, busy_s):
    """Where a job's busy time goes: LSTM self time (training), and
    model.forward plus records_to_series time (predict)."""
    def get(name, col):
        return table.get(name, (0, 0.0, 0.0))[col]
    lstm = sum(get(f"neuralnet.lstm_{d}_sequence.{b}", 2)
               for d in ("forward", "backward") for b in ("recent", "periodic"))
    return {"lstm_self": lstm / busy_s,
            "forward_plus_records_to_series":
                (get("model.forward", 1) + get("dataprep.records_to_series", 1)) / busy_s}


def print_table(root, table, busy_s):
    """Human-readable per-layer table under one top-level span, heaviest
    self time first; shares are of the system's busy time, or of the root."""
    base = busy_s or table[root][1]
    print(f"-- {root}: {base:.4f} s")
    print(f"{'span':48s} {'calls':>9s} {'s':>10s} {'self_s':>10s} {'self %':>7s}")
    for name, (calls, busy, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:48s} {calls:9d} {busy:10.4f} {own:10.4f} {100.0 * own / base:7.2f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_ref", "predict_file", "stream_3k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    deepauto = _import_deepauto()
    import numpy as np
    from workloads import SIZES, WORKLOADS
    print(json.dumps({"machine": machine_block(np)}))

    size = SIZES["smoke" if args.smoke else "full"][args.workload]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = WORKLOADS[args.workload]
        if args.trace:
            # the traced run does one job: one epoch, one predict call, or
            # the run's bursts; the tracer's own cost can overload the
            # stream, so backlog is checked on timed runs only
            if cls is WORKLOADS["stream_3k"]:
                make = lambda: cls(size, args.seed, args.seconds, workdir, check_backlog=False)
            else:
                make = lambda: cls(size, args.seed, 0.0, workdir)
            metrics, checks = traced_run(make, deepauto)
        else:
            metrics, named, checks = timed_run(cls(size, args.seed, args.seconds, workdir))
            print(json.dumps({"workload": args.workload, "named": named}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for name in checks.failed:
        print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps({"correct": not checks.failed, "attempted": checks.attempted,
                      "failed": len(checks.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
