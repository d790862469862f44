"""Single entry point wiring all modules: data generation, preparation,
training, grid search, evaluation, ACF analysis, batch prediction, and the
streaming service.

A model's config (`DeepAutoConfig`) says how it reads records: its window,
its channel layout, and the bucket width (`step_seconds`) that gives each
window step its length. `prepare`, `train` and `grid` read it from the
--config JSON; `evaluate`, `predict` and `serve` from the model file. Only
`generate` and `acf`, which have no model, take --step-seconds.

Every command reads a record line by one rule, `dataprep.decode_record`.
The file commands read --input with `dataprep.read_series`, which reads the
byte ranges of a regular file on every CPU, gives the series one pass over
the file gives, and warns once how many lines it rejected. `serve` feeds
each line of stdin or of a TCP connection to the engine, which counts the
ones it rejects, and closes the open buckets and emits their predictions
when its input ends: at EOF on stdin, or on SIGINT or SIGTERM.

Exit codes: 0 success, 1 usage error, 2 data/model error. Reports are
machine-readable JSON first; human tables go to stdout where useful.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import socketserver
import sys
import threading

import numpy as np

from . import (dataprep, evaluation, model as model_mod, neuralnet as nn, pipeline, stream,
               synthgen)
from .dataprep import WindowSpec, autocorrelation
from .errors import DeepAutoError
from .model import DeepAutoConfig

log = logging.getLogger("deepauto")
# one encoder for every output line; it writes what json.dumps(..., sort_keys=True) writes
LINE_ENCODER = json.JSONEncoder(sort_keys=True)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(path, **overrides):
    doc = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
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
    dataprep.write_records(args.output, records)
    log.info("wrote %d records to %s", len(records), args.output)
    return 0


def _split_builder(args, config):
    """Read --input and return build(cfg) -> (train, val, test, scaler) for
    any config of `config`'s output kind, from series bucketed once for every
    build, under its channel layout, at its bucket width: histogram windows
    for pdf models, otherwise load windows."""
    block = pipeline.fill_series(dataprep.read_series(args.input, config.step_seconds,
                                                      config.channels, []))
    if config.output_kind == "pdf":
        return lambda cfg: pipeline.prepare_pdf_dataset(block, cfg.window)
    return lambda cfg: pipeline.prepare_load_dataset(block, cfg.window, cfg.horizons)


def _build_splits(args, config):
    return _split_builder(args, config)(config)


def cmd_prepare(args):
    config = _load_config(args.config, seed=args.seed)
    train, val, test, scaler = _build_splits(args, config)
    arrays = {}
    for name, split in (("train", train), ("val", val), ("test", test)):
        for key, arr in split.arrays.items():
            if key != "external" or config.use_external:
                arrays[f"{name}_{key}"] = arr
        arrays[f"{name}_anchor_ts"] = split.anchor_ts
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

    yhat = model_mod.predict_samples(test_s, params, config)
    Y = test_s.arrays["target"]
    if config.output_kind == "horizons":
        report.test_metrics = {
            f"h{h}": {"rmse": evaluation.rmse(Y[:, k], yhat[:, k]),
                      "mae": evaluation.mae(Y[:, k], yhat[:, k]),
                      "mape": evaluation.mape_thresholded(Y[:, k], yhat[:, k], args.threshold)}
            for k, h in enumerate(config.horizons)}
    else:
        report.test_metrics = {"kl": nn.kl_loss(Y, yhat)}

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
    build = _split_builder(args, config)
    rows = model_mod.grid_search(lambda cfg: build(cfg)[:2], candidates, config)
    _write_json(args.output, {"rows": rows, "config": config.to_dict()})
    return 0


def cmd_evaluate(args):
    params, config, _ = model_mod.load_file(args.model)
    train_s, val_s, test_s, _ = _build_splits(args, config)
    Y = test_s.arrays["target"]
    yhat = model_mod.predict_samples(test_s, params, config)
    naive = test_s.arrays["recent"][:, -1]
    if config.output_kind == "pdf":
        _write_json(args.output, {"rows": [
            {"algorithm": "deepauto", "kl": nn.kl_loss(Y, yhat)},
            {"algorithm": "naive", "kl": nn.kl_loss(Y, naive)},
        ]})
        return 0

    col = config.channels.index("load")
    naive = np.repeat(naive[:, col][:, None], Y.shape[1], axis=1)

    fit_s = dataprep.Windows.concat([train_s, val_s])
    coef = evaluation.linear_ar_fit(evaluation.samples_to_design(fit_s),
                                    fit_s.arrays["target"], lam=1e-3)
    ridge = evaluation.linear_ar_predict(evaluation.samples_to_design(test_s), coef)

    report = evaluation.compare_report(
        [("deepauto", yhat), ("naive", naive), ("ridge_ar", ridge)],
        Y, config.horizons, load_threshold=args.threshold)
    _write_json(args.output, report)
    print(evaluation.format_table(report))
    return 0


def cmd_acf(args):
    # the load channel alone: a cell without ue records has a load series
    block = pipeline.fill_series(dataprep.read_series(args.input, args.step_seconds,
                                                      ("load",), []))
    if args.cell not in block.cell_ids:
        raise DeepAutoError(f"no such cell {args.cell!r} in {args.input}")
    k = block.cell_ids.index(args.cell)
    acf = autocorrelation(block.values[block.offsets[k]:block.offsets[k + 1],
                                       block.channels.index("load")], args.max_lag)
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
    # a cell with a channel that holds no value has no window, as in the
    # engine: it is skipped, where fill_series fails the whole file
    block, dead = dataprep.fill_block(dataprep.read_series(args.input, config.step_seconds,
                                                           config.channels, []))
    if dead:
        log.warning("skipped %d cells with an entirely missing channel: %s",
                    len(dead), ", ".join(dead))
    samples = pipeline.prediction_samples(block, config.window, scaler)
    out = sys.stdout if args.output in (None, "-") else open(args.output, "w", encoding="utf-8")
    try:
        for s, yhat in zip(samples, model_mod.predict_samples(samples, params, config)):
            doc = {"cell": s.cell_id, "anchor_ts": s.anchor_ts}
            doc.update(model_mod.output_fields(yhat, config.output_kind, config.horizons))
            out.write(LINE_ENCODER.encode(doc) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _parse_addr(text):
    """`host:port` (an empty host is 127.0.0.1) as (host, port); an argparse
    type, so a malformed address is a usage error before anything listens."""
    host, _, port = text.rpartition(":")
    if not port.isdecimal() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"{text!r} is not host:port with a port of 0-65535")
    return host or "127.0.0.1", int(port)


def _int_at_least(low):
    """An argparse type: a decimal integer of at least `low`; anything else
    is a usage error."""
    def parse(text):
        if not text.removeprefix("-").isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return int(text)
    return parse


def _ingest_addr(text):
    """The word "stdin", or a TCP address (`_parse_addr`)."""
    return text if text == "stdin" else _parse_addr(text)


def cmd_serve(args):
    engine = stream.Engine.from_file(args.model)
    host, port = args.listen_http
    httpd = stream.make_http_server(engine, host, port)
    http_thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    http_thread.start()
    log.info("http on %s:%d", host, port)

    firehose = open(args.firehose, "w", encoding="utf-8") if args.firehose else None
    firehose_lock = threading.Lock()  # TCP handler threads and the final flush all emit

    def emit(predictions):
        if firehose:
            with firehose_lock:
                for p in predictions:
                    firehose.write(LINE_ENCODER.encode(p.to_dict()) + "\n")
                firehose.flush()

    def ingest(lines):
        for line in lines:
            emit(engine.ingest_line(line))

    class IngestHandler(socketserver.StreamRequestHandler):
        def handle(self):
            ingest(self.rfile)

    # SIGTERM stops the service as SIGINT does
    sigterm = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        # the input ends at EOF on stdin, or on SIGINT or SIGTERM; either way
        # the open buckets close and their predictions go out
        try:
            if args.listen_ingest == "stdin":
                ingest(sys.stdin.buffer)
            else:
                ingest_srv = socketserver.ThreadingTCPServer(args.listen_ingest, IngestHandler)
                ingest_srv.daemon_threads = True
                log.info("ingest on %s:%d", *ingest_srv.server_address[:2])
                ingest_srv.serve_forever()
        finally:
            emit(engine.flush())
        if args.hold:
            http_thread.join()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, sigterm)
        httpd.shutdown()
        if firehose:
            firehose.close()
    return 0


# ---------------------------------------------------------------------------
# wiring


CONFIG_HELP = ("JSON of DeepAutoConfig fields: the window, step_seconds (bucket width, "
               "default 900, or 300 for pdf models) and hyperparameters")
MODEL_HELP = "model file; its config gives the window and the bucket width"


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
        for flag in extra:
            p.add_argument(f"--{flag}", required=flag not in ("config", "report"),
                           help=CONFIG_HELP if flag == "config" else None)
        if name == "train":
            p.add_argument("--threshold", type=float, default=0.7)
        p.set_defaults(func=func)

    p = sub.add_parser("evaluate")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True, help=MODEL_HELP)
    p.add_argument("--output", default=None)
    p.add_argument("--threshold", type=float, default=0.7)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("acf")
    p.add_argument("--input", required=True)
    p.add_argument("--cell", required=True)
    p.add_argument("--max-lag", type=_int_at_least(0), default=800)
    p.add_argument("--output", default=None)
    p.add_argument("--step-seconds", type=_int_at_least(1), default=900)
    p.set_defaults(func=cmd_acf)

    p = sub.add_parser("predict")
    p.add_argument("--model", required=True, help=MODEL_HELP)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("serve")
    p.add_argument("--model", required=True, help=MODEL_HELP)
    p.add_argument("--listen-ingest", default="stdin", type=_ingest_addr,
                   help='"stdin" or host:port for NDJSON over TCP')
    p.add_argument("--listen-http", default="127.0.0.1:8080", type=_parse_addr,
                   help="host:port of the HTTP endpoints")
    p.add_argument("--firehose", default=None,
                   help="optional path/FIFO receiving NDJSON predictions")
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
