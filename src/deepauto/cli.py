"""Single entry point wiring all modules: data generation, preparation,
training, grid search, evaluation, ACF analysis, batch prediction, and the
streaming service.

Exit codes: 0 success, 1 usage error, 2 data/model error. Reports are
machine-readable JSON first; human tables go to stdout where useful.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import threading

import numpy as np

from . import dataprep, evaluation, model as model_mod, pipeline, stream, synthgen
from .dataprep import WindowSpec, autocorrelation
from .errors import DeepAutoError
from .model import DeepAutoConfig

log = logging.getLogger("deepauto")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(path, input_dim=2, **overrides):
    doc = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault("input_dim", input_dim)
    doc.setdefault("window", {"n_r": 8})
    doc.update({k: v for k, v in overrides.items() if v is not None})
    return DeepAutoConfig.from_dict(doc)


def _write_json(path, doc):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args):
    config = synthgen.SynthConfig(
        n_cells=args.cells, days=args.days, step_seconds=args.step_seconds,
        missing_rate=args.missing_rate, event_rate=args.event_rate,
        rsrq_cells=args.rsrq_cells, seed=args.seed)
    records = synthgen.generate(config)
    synthgen.write_ndjson(args.output, records)
    log.info("wrote %d records to %s", len(records), args.output)
    return 0


def _load_records(path):
    records, rejected = dataprep.read_records(path)
    if rejected:
        log.warning("rejected %d malformed records from %s", rejected, path)
    return records


def _build_splits(args, config):
    records = _load_records(args.input)
    if config.output_kind == "pdf":
        return pipeline.prepare_pdf_dataset(records, config.window,
                                            bucket_seconds=args.step_seconds or 300)
    series = pipeline.load_series(records, args.step_seconds or 900)
    return pipeline.prepare_load_dataset(series, config.window, config.horizons,
                                         target_channel=config.target_channel)


def cmd_prepare(args):
    config = _load_config(args.config, seed=args.seed)
    train, val, test, scaler = _build_splits(args, config)
    arrays = {}
    for name, split in (("train", train), ("val", val), ("test", test)):
        stacked = model_mod.samples_to_arrays(split, config)
        for key, arr in stacked.items():
            arrays[f"{name}_{key}"] = arr
        arrays[f"{name}_anchor_ts"] = np.array([s.anchor_ts for s in split])
    meta = {"config": config.to_dict(),
            "scaler": scaler.to_dict() if scaler else None,
            "sizes": {"train": len(train), "val": len(val), "test": len(test)}}
    np.savez_compressed(args.output, meta=json.dumps(meta, sort_keys=True), **arrays)
    log.info("prepared %d/%d/%d samples -> %s",
             len(train), len(val), len(test), args.output)
    return 0


def cmd_train(args):
    config = _load_config(args.config, seed=args.seed)
    train_s, val_s, test_s, scaler = _build_splits(args, config)
    params, report = model_mod.train(train_s, val_s, config)

    test_arrays = model_mod.samples_to_arrays(test_s, config)
    yhat, _ = model_mod.forward_batch(test_arrays, params, config, cache=False)
    Y = test_arrays["target"]
    if config.output_kind == "horizons":
        report.test_metrics = {
            f"h{h}": {"rmse": evaluation.rmse(Y[:, k], yhat[:, k]),
                      "mae": evaluation.mae(Y[:, k], yhat[:, k]),
                      "mape": evaluation.mape_thresholded(Y[:, k], yhat[:, k], args.threshold)}
            for k, h in enumerate(config.horizons)}
    else:
        report.test_metrics = {"kl": evaluation.kl_eval(Y, yhat)}

    model_mod.save_file(args.model, params, config, scaler)
    _write_json(args.report, report.to_dict())
    log.info("model -> %s (best epoch %d, val loss %.6g)",
             args.model, report.best_epoch, report.best_val_loss)
    return 0


def cmd_grid(args):
    config = _load_config(args.config, seed=args.seed)
    with open(args.candidates, "r", encoding="utf-8") as fh:
        cand_doc = json.load(fh)
    candidates = [(WindowSpec.from_dict(c["window"]), bool(c.get("use_external", False)))
                  for c in cand_doc]
    records = _load_records(args.input)
    step = args.step_seconds or 900

    if config.output_kind == "pdf":
        def build(cfg):
            tr, va, _, _ = pipeline.prepare_pdf_dataset(records, cfg.window, step)
            return tr, va
    else:
        series = pipeline.load_series(records, step)

        def build(cfg):
            tr, va, _, _ = pipeline.prepare_load_dataset(
                series, cfg.window, cfg.horizons, cfg.target_channel)
            return tr, va

    rows = model_mod.grid_search(build, candidates, config)
    _write_json(args.output, {"rows": rows, "config": config.to_dict()})
    return 0


def cmd_evaluate(args):
    params, config, scaler = model_mod.load_file(args.model)
    records = _load_records(args.input)
    step = args.step_seconds or 900
    if config.output_kind == "pdf":
        _, _, test_s, _ = pipeline.prepare_pdf_dataset(records, config.window,
                                                       args.step_seconds or 300)
        arrays = model_mod.samples_to_arrays(test_s, config)
        yhat, _ = model_mod.forward_batch(arrays, params, config, cache=False)
        naive = np.stack([s.x_recent[-1] for s in test_s])
        report = {"rows": [
            {"algorithm": "deepauto", "kl": evaluation.kl_eval(arrays["target"], yhat)},
            {"algorithm": "naive", "kl": evaluation.kl_eval(arrays["target"], naive)},
        ]}
        _write_json(args.output, report)
        return 0

    series = pipeline.load_series(records, step)
    train_s, val_s, test_s, _ = pipeline.prepare_load_dataset(
        series, config.window, config.horizons, config.target_channel)
    arrays = model_mod.samples_to_arrays(test_s, config)
    Y = arrays["target"]
    yhat, _ = model_mod.forward_batch(arrays, params, config, cache=False)

    tgt = test_s[0].cell_id  # target channel column within the window
    col = series[tgt].channel_index(config.target_channel)
    naive = np.repeat(np.stack([s.x_recent[-1, col] for s in test_s])[:, None],
                      Y.shape[1], axis=1)

    X_train = evaluation.samples_to_design(train_s + val_s)
    y_train = np.stack([s.target for s in train_s + val_s])
    coef = evaluation.linear_ar_fit(X_train, y_train, lam=1e-3)
    ridge = evaluation.linear_ar_predict(evaluation.samples_to_design(test_s), coef)

    report = evaluation.compare_report(
        [("deepauto", yhat), ("naive", naive), ("ridge_ar", ridge)],
        Y, config.horizons, load_threshold=args.threshold)
    _write_json(args.output, report)
    print(evaluation.format_table(report))
    return 0


def cmd_acf(args):
    records = _load_records(args.input)
    series = pipeline.load_series(records, args.step_seconds or 900)
    if args.cell not in series:
        raise DeepAutoError(f"no such cell {args.cell!r} in {args.input}")
    s = series[args.cell]
    acf = autocorrelation(s.values[:, s.channel_index("load")], args.max_lag)
    lines = ["lag,acf"] + [f"{k},{acf[k]:.8f}" for k in range(len(acf))]
    text = "\n".join(lines)
    if args.output in (None, "-"):
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def cmd_predict(args):
    params, config, scaler = model_mod.load_file(args.model)
    records = _load_records(args.input)
    step = args.step_seconds or 900
    series = pipeline.load_series(records, step)
    samples = pipeline.prediction_samples(series, config.window, scaler,
                                          config.target_channel)
    out = sys.stdout if args.output in (None, "-") else open(args.output, "w", encoding="utf-8")
    try:
        for s in samples:
            yhat = model_mod.forward(s, params, config)
            doc = {"cell": s.cell_id, "anchor_ts": int(s.anchor_ts)}
            for h, v in zip(config.horizons, yhat):
                doc[f"h{h}"] = float(v)
            out.write(json.dumps(doc, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _parse_addr(text):
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def cmd_serve(args):
    engine = stream.Engine.from_file(args.model, step_seconds=args.step_seconds)
    host, port = _parse_addr(args.listen_http)
    httpd = stream.make_http_server(engine, host, port)
    http_thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    http_thread.start()
    log.info("http on %s:%d", host, port)

    firehose = open(args.firehose, "w", encoding="utf-8") if args.firehose else None

    def emit(predictions):
        if firehose:
            for p in predictions:
                firehose.write(json.dumps(p.to_dict(), sort_keys=True) + "\n")
            firehose.flush()

    try:
        if args.listen_ingest == "stdin":
            for line in sys.stdin:
                if line.strip():
                    emit(engine.ingest_line(line))
            emit(engine.flush())
            if args.hold:
                http_thread.join()
        else:
            import socketserver

            class IngestHandler(socketserver.StreamRequestHandler):
                def handle(self):
                    for raw in self.rfile:
                        line = raw.decode("utf-8", errors="replace").strip()
                        if line:
                            emit(engine.ingest_line(line))

            ihost, iport = _parse_addr(args.listen_ingest)
            ingest_srv = socketserver.ThreadingTCPServer((ihost, iport), IngestHandler)
            ingest_srv.daemon_threads = True
            log.info("ingest on %s:%d", ihost, iport)
            ingest_srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.shutdown()
        if firehose:
            firehose.close()
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser():
    parser = _Parser(prog="deepauto", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic NDJSON measurement file")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--output", required=True)
    p.add_argument("--cells", type=int, default=50)
    p.add_argument("--days", type=float, default=28.0)
    p.add_argument("--step-seconds", type=int, default=900)
    p.add_argument("--missing-rate", type=float, default=0.0)
    p.add_argument("--event-rate", type=float, default=0.0)
    p.add_argument("--rsrq-cells", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    for name, func, extra in (
        ("prepare", cmd_prepare, ("config", "output")),
        ("train", cmd_train, ("config", "model", "report")),
        ("grid", cmd_grid, ("config", "candidates", "output")),
    ):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--step-seconds", type=int, default=None)
        for flag in extra:
            p.add_argument(f"--{flag}", required=flag not in ("config", "report"))
        if name == "train":
            p.add_argument("--threshold", type=float, default=0.7)
        p.set_defaults(func=func)

    p = sub.add_parser("evaluate")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--threshold", type=float, default=0.7)
    p.add_argument("--step-seconds", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("acf")
    p.add_argument("--input", required=True)
    p.add_argument("--cell", required=True)
    p.add_argument("--max-lag", type=int, default=800)
    p.add_argument("--output", default=None)
    p.add_argument("--step-seconds", type=int, default=None)
    p.set_defaults(func=cmd_acf)

    p = sub.add_parser("predict")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--step-seconds", type=int, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("serve")
    p.add_argument("--model", required=True)
    p.add_argument("--listen-ingest", default="stdin",
                   help='"stdin" or host:port for NDJSON over TCP')
    p.add_argument("--listen-http", default="127.0.0.1:8080")
    p.add_argument("--firehose", default=None,
                   help="optional path/FIFO receiving NDJSON predictions")
    p.add_argument("--step-seconds", type=int, default=None)
    p.add_argument("--hold", action="store_true",
                   help="keep serving HTTP after stdin closes")
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv=None):
    logging.basicConfig(
        stream=sys.stderr,
        level=os.environ.get("DEEPAUTO_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (DeepAutoError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
