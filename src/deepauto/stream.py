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
`dataprep.bucket_entry` routes each record, and `dataprep.bucket_values`
closes each bucket. One `CellBuffer` holds every cell's state in columns:
the rows of each cell's last span closed buckets (`WindowSpec.history_span`)
in one array, NaN where a bucket got no entry, and in two more each cell's
first bucket due to close and last open bucket, so a watermark advance
finds the cells it concerns by array comparison. The engine only picks
the windows; the batch path builds them. `Engine._forward` reads them as
one `dataprep.SeriesBlock`, fills it with `dataprep.fill_block` and reads
it with `dataprep.make_windows`.

A bucket closes when its cell's next record arrives, but the forward runs
earlier: as a record moves the watermark to bucket G, the pass over the
anchors it closes also predicts every cell whose only open bucket is G-1
as if it closed then, from one gather over the row array. The output
waits with the bucket's row until the close. A record that lands in an
open bucket of that cell drops both; otherwise the close pushes the kept
row and emits the kept output, building nothing. That is exact: a window
longer than one row is run ahead only once the cell has closed the
bucket before, so no earlier record can land; a reload drops every kept
output; and cache-free rows are batch-invariant (`neuralnet` module
notes). Each window is built and filled once, in the pass that runs it.
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

# `first_due` and `last_open` of a cell with nothing open: no open bucket
# is due as late as the first (the anchor after a bucket fits int64), and
# the pair never reads as one open bucket
NONE_OPEN = np.iinfo(np.int64).max, np.iinfo(np.int64).min


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
    """Every cell's bucketed state under the channel layout `channels` (a
    tuple), one row per cell in arrival order (`index` maps a cell id to
    its row, `cells` a row to its id). Per cell:

    - `open`: its open buckets, {absolute bucket index (ts // step_seconds):
      (sums, counts)}, lists of Python floats added in record order from
      0.0, the IEEE adds `dataprep.bucket_values`' arrays would hold;
    - `last_closed` (None before its first close), `empty_run` (closes in
      a row with no entry) and `held` (closed rows held, at most `span`);
    - `rows[k]`: the (span, C) rows of its last closed buckets, newest
      last, NaN where a bucket got no entry;
    - `first_due[k]` and `last_open[k]`: the first bucket a close would
      close and its last open bucket (`NONE_OPEN` while none is open).

    After a cell's first close it holds at most one open bucket, since a
    record in a later bucket closes the earlier ones; before it, and after
    a watermark close of part of them, it may hold several.
    """

    def __init__(self, channels, span, cells=()):
        self.channels, self.span = tuple(channels), span
        self.index, self.cells, self.open = {}, [], []
        self.last_closed, self.empty_run, self.held = [], [], []
        self.rows = np.empty((0, span, len(self.channels)))
        self.first_due, self.last_open = np.empty(0, np.int64), np.empty(0, np.int64)
        for cell in cells:
            self.add_cell(cell)

    def add_cell(self, cell):
        """The row of a new cell, with nothing open or held."""
        r = len(self.cells)
        if r == len(self.rows):  # double the columns
            grow = max(r, 8)
            self.rows = np.concatenate([self.rows, np.full((grow, *self.rows.shape[1:]), np.nan)])
            self.first_due = np.append(self.first_due, np.full(grow, NONE_OPEN[0]))
            self.last_open = np.append(self.last_open, np.full(grow, NONE_OPEN[1]))
        self.index[cell] = r
        self.cells.append(cell)
        self.open.append({})
        self.last_closed.append(None)
        self.empty_run.append(0)
        self.held.append(0)
        return r

    def respan(self, span):
        """Hold `span` rows per cell: the newest min(held, span) rows stay."""
        keep = min(span, self.span)
        rows = np.full((len(self.rows), span, len(self.channels)), np.nan)
        rows[:, span - keep:] = self.rows[:, self.span - keep:]
        self.rows, self.span = rows, span
        self.held = [min(held, span) for held in self.held]

    def add(self, r, bucket, channel, amount):
        """Add one entry (`dataprep.bucket_entry`) to an open bucket of row r."""
        open_ = self.open[r]
        sums_counts = open_.get(bucket)
        if sums_counts is None:
            n = len(self.channels)
            sums_counts = open_[bucket] = [0.0] * n, [0.0] * n
            last = self.last_closed[r]
            if len(open_) == 1:
                self.first_due[r] = bucket if last is None else last + 1
                self.last_open[r] = bucket
            elif bucket > self.last_open[r]:
                self.last_open[r] = bucket
            elif last is None and bucket < self.first_due[r]:
                self.first_due[r] = bucket
        sums, counts = sums_counts
        sums[channel] += amount
        counts[channel] += 1.0

    def close_through(self, r, upto, kept=None):
        """Close every bucket <= upto of row r (`dataprep.bucket_values`,
        NaN where missing), one at a time from its first open bucket, or
        from the one after its last closed; returns (r, anchor, `window`
        rows, None) for each closed bucket whose anchor, the bucket after
        it, has a window. `kept`, the (anchor, row, output) run ahead for
        its first open bucket, closes that bucket with the row and gives
        (r, anchor, None, output), building nothing. Once every held row is
        missing, the empty buckets before the next open one are closed at
        once, so a gap costs time bounded by the span, not by its length."""
        open_, span, rows = self.open[r], self.span, self.rows[r]
        last = self.last_closed[r]
        # before the first close every bucket added is still open
        b = min(open_, default=upto + 1) if last is None else last + 1
        closed = []
        while b <= upto:
            sums_counts = open_.pop(b, None)
            reused = False
            if sums_counts is not None:
                reused = kept is not None and kept[0] == b + 1
                row = kept[1] if reused else self.row_of(*sums_counts)
                self.empty_run[r] = 0
            elif self.empty_run[r] >= self.held[r] == span:
                # every held row is missing: each empty bucket before the next
                # open one changes no row and has no window
                skip_to = min([upto + 1, *open_])
                self.empty_run[r] += skip_to - b
                last, b = skip_to - 1, skip_to
                continue
            else:
                row = np.nan
                self.empty_run[r] += 1
            rows[:-1] = rows[1:]
            rows[-1] = row
            self.held[r] = min(self.held[r] + 1, span)
            last = b
            if reused:
                closed.append((r, b + 1, None, kept[2]))
            else:
                window = self.window(r)
                if window is not None:
                    closed.append((r, b + 1, window, None))
            b += 1
        self.last_closed[r] = last
        if not open_:
            self.first_due[r], self.last_open[r] = NONE_OPEN
        elif last is not None:
            self.first_due[r] = last + 1
        return closed

    def row_of(self, sums, counts):
        """The rows of closed buckets (`dataprep.bucket_values`) from their
        sums and counts, lists or stacked lists, NaN where missing."""
        row, missing = dataprep.bucket_values(np.array(sums), np.array(counts), self.channels)
        row[missing] = np.nan
        return row

    def window(self, r):
        """A copy of the (span, C) rows row r holds, unfilled (NaN where a
        bucket got no entry); None while fewer than span are held, or while
        a channel has no value in them, so no window the engine runs is one
        that `dataprep.fill_block` cannot fill."""
        if self.held[r] < self.span or self.empty_run[r] >= self.span:
            return None  # warming up, or every held row is missing
        rows = self.rows[r].copy()
        missing = np.isnan(rows)
        return None if missing.any() and missing.all(axis=0).any() else rows

    def ahead(self, behind, bucket):
        """(cells, rows, windows) of closing open `bucket`, the only one, of
        the rows in `behind` (an int array) whose close would give a
        `window`: their buffer rows; their (n, C) bucket rows, from one
        `dataprep.bucket_values` over their stacked sums; and the (n, span,
        C) windows their closes would read, each the last span-1 rows held
        and its new row."""
        cells = [r for r in behind.tolist() if self.held[r] >= self.span - 1]
        if not cells:
            return cells, None, None
        rows = self.row_of(*zip(*[self.open[r][bucket] for r in cells]))
        windows = np.concatenate([self.rows[cells, 1:], rows[:, None]], axis=1)
        live = ~np.isnan(windows).all(axis=1).any(axis=1)
        if not live.all():
            cells, rows, windows = np.array(cells)[live].tolist(), rows[live], windows[live]
        return cells, rows, windows


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
        """Swap in a model. Cells keep the rows they hold while the channel
        layout stays the same, and then hold as many as the new window
        spans; a new layout restarts every cell empty, so the engine warms
        up again instead of reading rows of the old layout."""
        channels = config.channels
        self.span = config.window.history_span()
        if channels != self.channels:
            self.buffer = CellBuffer(channels, self.span, self.cells)
            self.cells = self.buffer.index  # cell id -> row
        else:
            self.buffer.respan(self.span)
        self.channels = channels
        self.params = params
        self.config = config
        self.scaler = scaler
        self.model_version = version
        # row -> (anchor, row values, output) of each cell's one open bucket
        # run ahead of its close by the model installed here, until the
        # close reads it or a record in that bucket drops it
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
            buf = self.buffer
            r = self.cells.get(rec["cell"])
            if r is None:
                r = buf.add_cell(rec["cell"])
            last_closed = buf.last_closed[r]
            if last_closed is not None and bucket <= last_closed:
                self.counters["late_dropped"] += 1
                return []

            # a record in a later bucket closes everything before it, also
            # when the watermark has already closed the cell's open buckets;
            # what was run ahead goes to that close, or is dropped when the
            # record lands in an open bucket
            kept = self.speculated.pop(r, None)
            closes = []
            last = max(buf.open[r], default=last_closed)
            if last is not None and bucket > last:
                closes = buf.close_through(r, bucket - 1, kept)
            buf.add(r, bucket, *entry)

            # watermark: the stream as a whole has moved on by >= 2 buckets
            ahead = []
            if self.global_max_bucket is None or bucket > self.global_max_bucket:
                self.global_max_bucket = bucket
                closed, ahead = self._close_all(bucket - 2)
                closes += closed
            return self._predict(closes, arrival, ahead)

    def _close_all(self, horizon):
        """(row, anchor, window, output) of the closes of every cell with an
        open bucket at or before `horizon`, closed through `horizon` or its
        last open bucket, whichever is earlier; and `_speculate`'s result
        for the cells this leaves with bucket `horizon` + 1 as their only
        open one. Both sets come from comparisons over the buffer's
        `first_due` and `last_open` columns."""
        buf, kept = self.buffer, self.speculated
        n = len(buf.cells)
        first_due, last_open = buf.first_due[:n], buf.last_open[:n]
        closes = []
        for r in (first_due <= horizon).nonzero()[0].tolist():
            upto = min(horizon, int(last_open[r]))
            closes += buf.close_through(r, upto, kept.pop(r, None))
        behind = ((first_due == horizon + 1) & (last_open == horizon + 1)).nonzero()[0]
        return closes, self._speculate(behind) if len(behind) else []

    def flush(self):
        """End of stream: close every open bucket and predict."""
        with self._lock:
            arrival = time.monotonic()
            # every bucket a record can open is before NONE_OPEN[0]
            closes, _ = self._close_all(NONE_OPEN[0] - 1)
            return self._predict(closes, arrival, [])

    # -- prediction ---------------------------------------------------------

    def _speculate(self, behind):
        """(buffer rows, anchor, bucket rows, windows) of closing ahead of
        time the one open bucket of each buffer row in `behind` whose close
        would give a window (`CellBuffer.ahead`), for `_predict` to run in
        its pass and keep until the close; [] when there is none. The
        watermark has just passed that bucket, and its next advance closes
        it, so each (cell, bucket) is speculated at most once."""
        bucket = int(self.buffer.last_open[behind[0]])
        cells, rows, windows = self.buffer.ahead(behind, bucket)
        return (cells, bucket + 1, rows, windows) if cells else []

    def _forward(self, cells, anchors, windows):
        """Outputs of the (n, span, C) unfilled `windows` of `cells` at
        `anchors`, in order, built as the batch path builds a file's: one
        cache-free forward pass per `config.batch_size` of them, which
        bounds the memory a pass over many cells takes. A chunk of windows
        is read in place as one `dataprep.SeriesBlock` of span rows each,
        labelled by cell, whose first bucket is the anchor minus span.
        `dataprep.fill_block` fills each window on its own rows, so a gap
        at its edge is held flat where the batch path, filling a cell's
        whole series, interpolates across it; `dataprep.make_windows` reads
        the one anchor after each window, scaled. Cache-free rows are
        batch-invariant, so no output depends on the chunk it ran in."""
        config, span = self.config, self.span
        outputs = []
        for a in range(0, len(windows), config.batch_size):
            chunk = windows[a:a + config.batch_size]
            values = chunk.reshape(-1, chunk.shape[-1])
            block, _ = dataprep.fill_block(dataprep.SeriesBlock(
                values, np.isnan(values), cells[a:a + len(chunk)],
                span * np.arange(len(chunk) + 1),
                np.array(anchors[a:a + len(chunk)]) - span, self.step_seconds, self.channels))
            inputs = dataprep.make_windows(block, config.window, require_targets=False,
                                           scaler=self.scaler)
            y, _ = model_mod.forward_batch(inputs.arrays, self.params, config, cache=False)
            outputs.extend(y)
        return outputs

    def _predict(self, closes, arrival, ahead):
        """PredictionRecords of `closes`, (row, anchor, window, output)
        tuples, in order. The closes without an output run in one `_forward`
        with the windows `ahead` (`_speculate`), so speculation adds rows to
        a pass but no pass; each row ahead is kept, with its output, in
        `speculated` until its close. Every record carries the latency at
        which they are all returned."""
        buf = self.buffer
        run = [close for close in closes if close[3] is None]
        if run or ahead:
            cells = [buf.cells[r] for r, *_ in run]
            anchors = [anchor for _, anchor, *_ in run]
            windows = [window[None] for *_, window, _ in run]
            if ahead:
                behind, anchor, rows, ahead_windows = ahead
                cells += [buf.cells[r] for r in behind]
                anchors += [anchor] * len(behind)
                windows.append(ahead_windows)
            outputs = self._forward(cells, anchors, np.concatenate(windows))
            if ahead:
                for r, row, y in zip(behind, rows, outputs[len(run):]):
                    self.speculated[r] = anchor, row, y
            fresh = iter(outputs)
        if not closes:
            return []
        config, step = self.config, self.step_seconds
        latency_ms = (time.monotonic() - arrival) * 1000.0
        records = []
        for r, anchor, _, output in closes:
            record = PredictionRecord(
                cell_id=buf.cells[r], anchor_ts=anchor * step,
                outputs=next(fresh) if output is None else output,
                output_kind=config.output_kind, horizons=config.horizons,
                model_version=self.model_version, latency_ms=latency_ms)
            self.latest_prediction[record.cell_id] = record
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
