"""Simulated production path: ingest multi-topic NDJSON record streams,
correlate them into per-cell bucketed series, run the loaded model at
every completed bucket, and expose the latest predictions plus health
counters over HTTP.

The wire format is the file format, read by the same line rule
(`dataprep.decode_record`): a line that files reject, the engine counts as
malformed or out of range, and a blank line is skipped by both. So any
recorded file can be replayed through the engine; with no missing bucket
it produces bit-identical predictions to the batch path. The engine
buckets records under its model's channel layout
(`DeepAutoConfig.channels`) with the batch path's own rule:
`dataprep.bucket_entry` routes each record, and
`dataprep.bucket_values` closes each bucket. Each cell holds only the rows
of its last span closed buckets (`WindowSpec.history_span`), NaN where a
bucket got no entry, and each close reads its window at once. The engine
only picks the windows; the batch path builds them. `Engine._forward`
joins them into one `dataprep.SeriesBlock`, fills it with
`dataprep.fill_block` and reads it with `dataprep.make_windows`.

A bucket closes when its cell's next record arrives, but the forward runs
earlier: as a record moves the watermark to bucket G, the pass over the
anchors it closes also predicts every cell whose only open bucket is G-1
as if it closed then. Every output waits in one store for its close,
which reads it when the model and the window's unfilled rows are
unchanged, bit for bit. Equal rows fill to equal rows, and cache-free rows
are batch-invariant (`neuralnet` module notes), so the output is the one
the close would compute. Each window is filled once, in the pass that
runs it.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.parse
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from . import dataprep, model as model_mod
from .errors import ConfigError, DataError, ModelFormatError, OutOfRangeError


@dataclass
class PredictionRecord:
    cell_id: str
    anchor_ts: int
    outputs: np.ndarray       # (K,) horizon predictions or (35,) PDF
    output_kind: str
    horizons: tuple
    model_version: int
    latency_ms: float

    def to_dict(self):
        d = {"cell": self.cell_id, "anchor_ts": int(self.anchor_ts),
             "model_version": self.model_version,
             "latency_ms": round(float(self.latency_ms), 3)}
        d.update(model_mod.output_fields(self.outputs, self.output_kind, self.horizons))
        return d


class CellBuffer:
    """Per-cell bucketed state under the channel layout `channels` (a
    tuple): open (accumulating) buckets, keyed by absolute bucket index
    (ts // step_seconds), and the rows of the last `span` closed buckets,
    NaN where a bucket got no entry.

    Each close records its bucket's window at once, so no later close can
    push rows out of the buffer before they are read.
    """

    def __init__(self, channels, span):
        self.channels = tuple(channels)
        self.open = {}                     # idx -> (sum vector, count vector)
        self.closed = deque(maxlen=span)   # value vectors (NaN where missing), oldest first
        self.last_closed = None
        self.empty_run = 0                 # closes in a row with no entry

    def add(self, bucket, channel, amount):
        """Add one entry (`dataprep.bucket_entry`) to an open bucket."""
        if bucket not in self.open:
            n = len(self.channels)
            self.open[bucket] = (np.zeros(n), np.zeros(n))
        sums, counts = self.open[bucket]
        sums[channel] += amount
        counts[channel] += 1

    def close_through(self, upto):
        """Close every bucket <= upto (`dataprep.bucket_values`, NaN where
        missing), one at a time from the first ever added; returns
        (anchor, `window()`) for each closed bucket whose anchor, the bucket
        after it, has a window. Once every held row is missing, the empty
        buckets before the next open one are closed at once, so a gap costs
        time bounded by the span, not by its length."""
        # before the first close every bucket added is still open
        b = min(self.open, default=upto + 1) if self.last_closed is None \
            else self.last_closed + 1
        windows = []
        while b <= upto:
            sums_counts = self.open.pop(b, None)
            if sums_counts is not None:
                row = self._row(*sums_counts)
                self.empty_run = 0
            elif self.empty_run >= len(self.closed) == self.closed.maxlen:
                # every held row is missing: each empty bucket before the next
                # open one changes no row and has no window
                skip_to = min([upto + 1, *self.open])
                self.empty_run += skip_to - b
                self.last_closed = skip_to - 1
                b = skip_to
                continue
            else:
                row = np.full(len(self.channels), np.nan)
                self.empty_run += 1
            self.closed.append(row)
            self.last_closed = b
            rows = self.window()
            if rows is not None:
                windows.append((b + 1, rows))
            b += 1
        return windows

    def _row(self, sums, counts):
        """A closed bucket's row (`dataprep.bucket_values`), NaN where missing."""
        row, missing = dataprep.bucket_values(sums, counts, self.channels)
        row[missing] = np.nan
        return row

    def window(self, row=None):
        """(span, C) rows of the last `span` closed buckets, unfilled (NaN
        where a bucket got no entry); given `row`, the row of the one open
        bucket, the rows that closing it would hold. None while fewer are
        held, or while a channel has no value in them, so no window the
        engine runs is one that `dataprep.fill_block` cannot fill."""
        span = self.closed.maxlen
        held = self.closed if row is None else [*self.closed, row][-span:]
        if len(held) < span or row is None and self.empty_run >= span:
            return None
        rows = np.array(held)
        missing = np.isnan(rows)
        return None if missing.any() and missing.all(axis=0).any() else rows


class Engine:
    """Streaming prediction engine for one model.

    Thread safety: a single lock serializes ingestion, model swaps, and
    snapshot reads; the model visible to inference is replaced atomically.

    The bucket width is the first model's `config.step_seconds`, or
    `step_seconds` when given, and stays fixed across model swaps; a reload
    must carry the running model's `config.step_seconds`.
    """

    def __init__(self, params, config, scaler, step_seconds=None):
        self._lock = threading.RLock()
        self.step_seconds = config.step_seconds if step_seconds is None else step_seconds
        self.cells = {}
        self.channels = None
        self._install(params, config, scaler, version=1)
        self.latest_prediction = {}
        self.counters = {"ingested": 0, "malformed": 0, "out_of_range": 0,
                         "late_dropped": 0, "predictions": 0, "reload_errors": 0}
        self.latencies = deque(maxlen=20000)
        self.global_max_bucket = None

    @classmethod
    def from_file(cls, path):
        return cls(*model_mod.load_file(path))

    def _install(self, params, config, scaler, version):
        """Swap in a model. Buffers keep the rows they hold while the
        channel layout stays the same, and then hold as many as the new
        window spans; a new layout restarts every buffer empty, so the
        engine warms up again instead of reading rows of the old layout."""
        channels = config.channels
        self.span = config.window.history_span()
        if channels != self.channels:
            self.cells = {cell: CellBuffer(channels, self.span) for cell in self.cells}
        for buf in self.cells.values():
            buf.closed = deque(buf.closed, maxlen=self.span)
        self.channels = channels
        self.params = params
        self.config = config
        self.scaler = scaler
        self.model_version = version
        # (cell, anchor) -> (unfilled rows as bytes, output) of every window
        # run, ahead of its close or at it, until the close reads it; every
        # kept output was computed by the model installed here
        self.speculated = {}

    # -- ingestion ----------------------------------------------------------

    def ingest_line(self, line, arrival=None):
        """Decode one NDJSON line (bytes, or str read as its UTF-8 encoding)
        by the file rule (`dataprep.decode_record`) and `ingest` it. A blank
        line is skipped and counts nothing; a line that holds no JSON value
        counts as malformed."""
        try:
            if isinstance(line, str):
                line = line.encode("utf-8")
            rec = dataprep.decode_record(line)
        except (DataError, UnicodeEncodeError):
            with self._lock:
                self.counters["malformed"] += 1
            return []
        return [] if rec is None else self.ingest(rec, arrival)

    def ingest(self, rec, arrival=None):
        """Check one decoded record (`dataprep.check_record`) and route it;
        returns any PredictionRecords it triggered. A record that fails the
        check counts as malformed or out of range and is not filed."""
        if arrival is None:
            arrival = time.monotonic()
        with self._lock:
            try:
                rec = dataprep.check_record(rec)
                entry = dataprep.bucket_entry(rec, self.channels)
                if entry is None:
                    return []  # a topic the layout has no channel for is not an error
                bucket = rec["ts"] // self.step_seconds
                dataprep.check_bucket(bucket, self.step_seconds)
            except DataError as exc:
                reason = "out_of_range" if isinstance(exc, OutOfRangeError) else "malformed"
                self.counters[reason] += 1
                return []
            self.counters["ingested"] += 1
            buf = self.cells.get(rec["cell"])
            if buf is None:
                buf = CellBuffer(self.channels, self.span)
                self.cells[rec["cell"]] = buf

            if buf.last_closed is not None and bucket <= buf.last_closed:
                self.counters["late_dropped"] += 1
                return []

            # a record in a later bucket closes everything before it, also
            # when the watermark has already closed the cell's open buckets
            closes = []
            last = max(buf.open, default=buf.last_closed)
            if last is not None and bucket > last:
                closes.append((rec["cell"], buf.close_through(bucket - 1)))
            buf.add(bucket, *entry)

            # watermark: the stream as a whole has moved on by >= 2 buckets
            ahead = []
            if self.global_max_bucket is None or bucket > self.global_max_bucket:
                self.global_max_bucket = bucket
                closed, ahead = self._close_all(bucket - 2)
                closes += closed
            return self._predict(closes, arrival, ahead)

    def _close_all(self, horizon):
        """(cell, `close_through` windows) of every cell with an open bucket,
        closed through `horizon` or its last open bucket, whichever is
        earlier; and `_speculate`'s windows of the cells this leaves with
        bucket `horizon` + 1 as their only open one."""
        closes, behind = [], []
        for cell, buf in self.cells.items():
            if buf.open:
                closes.append((cell, buf.close_through(min(horizon, max(buf.open)))))
                if len(buf.open) == 1 and horizon + 1 in buf.open:
                    behind.append((cell, buf))
        return closes, self._speculate(behind)

    def flush(self):
        """End of stream: close every open bucket and predict."""
        with self._lock:
            arrival = time.monotonic()
            closes, _ = self._close_all(math.inf)
            return self._predict(closes, arrival, [])

    # -- prediction ---------------------------------------------------------

    def _speculate(self, behind):
        """(cell, anchor, unfilled rows) of the windows that closing the one
        open bucket of each (cell, buffer) in `behind` would record
        (`CellBuffer.window` given that bucket's row), for `_predict` to run
        ahead. The watermark has just passed that bucket, and its next
        advance closes it, so each (cell, bucket) is speculated at most
        once."""
        ahead = []
        for cell, buf in behind:
            (bucket, sums_counts), = buf.open.items()
            rows = buf.window(buf._row(*sums_counts))
            if rows is not None:
                ahead.append((cell, bucket + 1, rows))
        return ahead

    def _forward(self, windows):
        """Outputs of `windows`, (cell, anchor, unfilled rows) triples, in
        order, built as the batch path builds a file's: one cache-free
        forward pass per `config.batch_size` of them, which bounds the
        memory a pass over many cells takes. A chunk's windows are joined
        into one `dataprep.SeriesBlock` of span rows each, labelled by cell,
        whose first bucket is the anchor minus span. `dataprep.fill_block`
        fills each window on its own rows, so a gap at its edge is held flat
        where the batch path, filling a cell's whole series, interpolates
        across it; `dataprep.make_windows` reads the one anchor after each
        window, scaled. Cache-free rows are batch-invariant, so no output
        depends on the chunk it ran in."""
        config, span = self.config, self.span
        outputs = []
        for a in range(0, len(windows), config.batch_size):
            cells, anchors, histories = zip(*windows[a:a + config.batch_size])
            values = np.concatenate(histories)
            block, _ = dataprep.fill_block(dataprep.SeriesBlock(
                values, np.isnan(values), list(cells), span * np.arange(len(cells) + 1),
                np.array(anchors) - span, self.step_seconds, self.channels))
            inputs = dataprep.make_windows(block, config.window, require_targets=False,
                                           scaler=self.scaler)
            y, _ = model_mod.forward_batch(inputs.arrays, self.params, config, cache=False)
            outputs.extend(y)
        return outputs

    def _predict(self, closes, arrival, ahead):
        """PredictionRecords of the anchors in `closes`, (cell, windows)
        pairs, in order. Every output, of a close or of a window `ahead`
        (`_speculate`), waits in the one store `speculated`, keyed by (cell,
        anchor), until its close reads and drops it. A close whose unfilled
        rows are the ones its kept output ran on, bit for bit, reads that
        output; the other closes run in one `_forward` with the windows
        ahead, so speculation adds rows to a pass but no pass. Every record
        carries the latency at which they are all returned."""
        pending = [(cell, anchor, rows) for cell, windows in closes for anchor, rows in windows]
        kept = self.speculated
        run = [w for w in pending if kept.get(w[:2], (None,))[0] != w[2].tobytes()] + ahead
        for (cell, anchor, rows), y in zip(run, self._forward(run)):
            kept[cell, anchor] = rows.tobytes(), y
        config, step = self.config, self.step_seconds
        latency_ms = (time.monotonic() - arrival) * 1000.0
        records = []
        for cell, anchor, _ in pending:
            record = PredictionRecord(
                cell_id=cell, anchor_ts=anchor * step, outputs=kept.pop((cell, anchor))[1],
                output_kind=config.output_kind, horizons=config.horizons,
                model_version=self.model_version, latency_ms=latency_ms)
            self.latest_prediction[cell] = record
            self.latencies.append(latency_ms)
            records.append(record)
        self.counters["predictions"] += len(records)
        return records

    # -- queries / control --------------------------------------------------

    def latest(self, cell):
        with self._lock:
            return self.latest_prediction.get(cell)

    def health(self):
        """Counters, cell counts, model version and the nearest-rank p50 and
        p99 of the kept latencies. The latencies are copied under the lock
        and sorted outside it, so a query does not stall ingestion."""
        with self._lock:
            lat = list(self.latencies)
            doc = {
                **{k: int(v) for k, v in self.counters.items()},
                "cells_seen": len(self.cells),
                "cells_ready": sum(1 for c in self.cells if c in self.latest_prediction),
                "model_version": self.model_version,
            }
        lat.sort()
        # nearest rank: the smallest latency with at least q of them at or below it
        pct = lambda q: lat[max(0, math.ceil(q * len(lat)) - 1)] if lat else None
        return {**doc, "latency_p50_ms": pct(0.50), "latency_p99_ms": pct(0.99)}

    def reload_model(self, path):
        """Swap in a new model atomically; on failure, a file that does not
        load or a model of another bucket width than the running one's, keep
        the old one."""
        try:
            params, config, scaler = model_mod.load_file(path)
            if config.step_seconds != self.config.step_seconds:
                raise ConfigError(f"step_seconds {config.step_seconds} differs from the "
                                  f"running model's {self.config.step_seconds}")
        except (OSError, ModelFormatError, ConfigError) as exc:
            with self._lock:
                self.counters["reload_errors"] += 1
            return False, f"{type(exc).__name__}: {exc}"
        with self._lock:
            self._install(params, config, scaler, version=self.model_version + 1)
        return True, None


# ---------------------------------------------------------------------------
# HTTP surface


def make_http_server(engine, host, port):
    """HTTP/1.1 JSON endpoints: GET /predictions/{cell}, the cell id
    percent-encoded as UTF-8, and GET /health; a query is ignored."""

    class Handler(BaseHTTPRequestHandler):
        def _send(self, status, doc):
            body = json.dumps(doc).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            path = urllib.parse.unquote(urllib.parse.urlsplit(self.path).path)
            if path == "/health":
                self._send(200, engine.health())
                return
            if path.startswith("/predictions/"):
                cell = path[len("/predictions/"):]
                record = engine.latest(cell)
                if record is None:
                    self._send(404, {"error": "unknown_cell"})
                else:
                    self._send(200, record.to_dict())
                return
            self._send(404, {"error": "not_found"})

        def log_message(self, fmt, *args):
            pass  # keep stdout clean; health counters carry observability

    server = ThreadingHTTPServer((host, port), Handler)
    return server
