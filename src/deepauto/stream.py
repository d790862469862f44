"""Simulated production path: ingest multi-topic NDJSON record streams,
correlate them into per-cell bucketed series, run the loaded model at
every completed bucket, and expose the latest predictions plus health
counters over HTTP.

The wire format matches the historical file format, so any recorded file
can be replayed through the engine; with no missing bucket it produces
bit-identical predictions to the batch path. The engine buckets records
under its model's channel layout (`DeepAutoConfig.channels`) with the
batch path's own rule: `dataprep.bucket_entry` routes each record, and
`dataprep.bucket_values` closes each bucket.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from . import dataprep, model as model_mod
from .dataprep import KpiSeries, Windows, apply_scaler, make_windows
from .errors import DataError, ModelFormatError, OutOfRangeError


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
    tuple): open (accumulating) and closed buckets.

    Bucket indices are absolute (ts // step_seconds); closed values are a
    dict index -> channel vector, contiguous from `oldest` to `last_closed`,
    evicted beyond the window capacity.
    """

    def __init__(self, channels, capacity):
        self.channels = tuple(channels)
        self.capacity = capacity
        self.open = {}       # idx -> (sum vector, count vector)
        self.closed = {}     # idx -> value vector (NaN where missing)
        self.oldest = None   # earliest bucket added, later the oldest not yet evicted
        self.last_closed = None

    def add(self, bucket, channel, amount):
        """Add one entry (`dataprep.bucket_entry`) to an open bucket."""
        # before the first close an earlier bucket may still arrive, and the
        # first close starts at `oldest`
        if self.last_closed is None and (self.oldest is None or bucket < self.oldest):
            self.oldest = bucket
        if bucket not in self.open:
            n = len(self.channels)
            self.open[bucket] = (np.zeros(n), np.zeros(n))
        sums, counts = self.open[bucket]
        sums[channel] += amount
        counts[channel] += 1

    def max_open(self):
        return max(self.open) if self.open else None

    def close_through(self, upto):
        """Close every bucket <= upto (`dataprep.bucket_values`, NaN where
        missing); returns the closed indices in order."""
        if self.oldest is None:
            return []
        start = self.oldest if self.last_closed is None else self.last_closed + 1
        closed = []
        for b in range(start, upto + 1):
            sums_counts = self.open.pop(b, None)
            if sums_counts is None:
                row = np.full(len(self.channels), np.nan)
            else:
                row, missing = dataprep.bucket_values(*sums_counts, self.channels)
                row[missing] = np.nan
            self.closed[b] = row
            self.last_closed = b
            closed.append(b)
        # evict history beyond what any window can need
        if self.last_closed is not None:
            cutoff = self.last_closed - self.capacity
            for b in range(self.oldest, cutoff):
                del self.closed[b]
            self.oldest = max(self.oldest, cutoff)
        return closed

    def window(self, anchor, span):
        """(span, C) history rows for indices [anchor-span, anchor); None if
        the history reaches before the oldest bucket still held (the earliest
        bucket added, or the oldest not yet evicted), reaches past the last
        closed bucket, or a channel is all-NaN. Gaps are filled by
        `dataprep.fill_gaps` within the window only, so a gap at its edge is
        held flat where the batch path, filling the whole series,
        interpolates across the edge.
        """
        lo = anchor - span
        if self.last_closed is None or lo < self.oldest or self.last_closed < anchor - 1:
            return None
        # closed buckets are contiguous from the oldest held to last_closed
        rows = np.array([self.closed[b] for b in range(lo, anchor)])
        missing = np.isnan(rows)
        if missing.any() and dataprep.fill_gaps(rows, missing) is not None:
            return None
        return rows


class Engine:
    """Streaming prediction engine for one model.

    Thread safety: a single lock serializes ingestion, model swaps, and
    snapshot reads; the model visible to inference is replaced atomically.
    """

    def __init__(self, params, config, scaler, step_seconds=None):
        self._lock = threading.RLock()
        self.step_seconds = step_seconds
        self.cells = {}
        self.channels = None
        self._install(params, config, scaler, version=1)
        self.latest_prediction = {}
        self.counters = {"ingested": 0, "malformed": 0, "out_of_range": 0,
                         "late_dropped": 0, "predictions": 0, "reload_errors": 0}
        self.latencies = deque(maxlen=20000)
        self.global_max_bucket = None

    @classmethod
    def from_file(cls, path, step_seconds=None):
        params, config, scaler = model_mod.load_file(path)
        return cls(params, config, scaler, step_seconds)

    def _install(self, params, config, scaler, version):
        """Swap in a model. Buffers keep their history while the channel
        layout stays the same, and their capacity follows the new window
        span; a new layout restarts every buffer empty, so the engine warms
        up again instead of reading rows of the old layout."""
        channels = config.channels
        if self.step_seconds is None:
            self.step_seconds = config.default_step_seconds
        self.capacity = config.window.history_span() + 2
        if channels != self.channels:
            self.cells = {cell: CellBuffer(channels, self.capacity) for cell in self.cells}
        for buf in self.cells.values():
            buf.capacity = self.capacity
        self.channels = channels
        self.params = params
        self.config = config
        self.scaler = scaler
        self.model_version = version

    # -- ingestion ----------------------------------------------------------

    def ingest_line(self, line, arrival=None):
        try:
            rec = dataprep.parse_record(line)
        except DataError as exc:
            reason = "out_of_range" if isinstance(exc, OutOfRangeError) else "malformed"
            with self._lock:
                self.counters[reason] += 1
            return []
        return self.ingest(rec, arrival)

    def ingest(self, rec, arrival=None):
        """Route one record; returns any PredictionRecords it triggered."""
        if arrival is None:
            arrival = time.monotonic()
        with self._lock:
            try:
                entry = dataprep.bucket_entry(rec, self.channels)
            except OutOfRangeError:
                self.counters["out_of_range"] += 1
                return []
            if entry is None:
                return []  # a topic the layout has no channel for is not an error
            self.counters["ingested"] += 1
            bucket = rec["ts"] // self.step_seconds
            buf = self.cells.get(rec["cell"])
            if buf is None:
                buf = CellBuffer(self.channels, self.capacity)
                self.cells[rec["cell"]] = buf

            if buf.last_closed is not None and bucket <= buf.last_closed:
                self.counters["late_dropped"] += 1
                return []

            # a record in a later bucket closes everything before it
            pending = []
            prior = buf.max_open()
            if prior is not None and bucket > prior:
                self._close(rec["cell"], buf, bucket - 1, pending)
            buf.add(bucket, *entry)

            # watermark: the stream as a whole has moved on by >= 2 buckets
            if self.global_max_bucket is None or bucket > self.global_max_bucket:
                self.global_max_bucket = bucket
                self._advance_watermark(pending)
            return self._predict(pending, arrival)

    def _advance_watermark(self, pending):
        horizon = self.global_max_bucket - 2
        for cell, buf in self.cells.items():
            tops = buf.max_open()
            if tops is None:
                continue
            upto = min(horizon, tops)
            last = buf.last_closed if buf.last_closed is not None else buf.oldest - 1
            if upto > last:
                self._close(cell, buf, upto, pending)

    def flush(self):
        """End of stream: close every open bucket and predict."""
        with self._lock:
            arrival = time.monotonic()
            pending = []
            for cell, buf in self.cells.items():
                top = buf.max_open()
                if top is not None:
                    self._close(cell, buf, top, pending)
            return self._predict(pending, arrival)

    # -- prediction ---------------------------------------------------------

    def _close(self, cell, buf, upto, pending):
        """Close `cell`'s buckets through `upto` and append (cell, anchor,
        scaled history rows) to `pending` for every anchor that has its full
        history. The rows are read right after the close, before a later
        close can evict them."""
        span = self.config.window.history_span()
        for closed in buf.close_through(upto):
            rows = buf.window(closed + 1, span)
            if rows is None:
                continue  # still warming up
            if self.scaler is not None:
                rows = apply_scaler(rows, self.scaler)
            pending.append((cell, closed + 1, rows))

    def _predict(self, pending, arrival):
        """PredictionRecords of the pending anchors, in order: one forward
        pass per `config.batch_size` of them, which bounds the memory a
        flush over many cells takes. Cache-free rows are batch-invariant,
        so every output equals the batch path's bit for bit."""
        if not pending:
            return []
        config, step = self.config, self.step_seconds
        span = config.window.history_span()
        records = []
        for a in range(0, len(pending), config.batch_size):
            chunk = pending[a:a + config.batch_size]
            # each row's history is a series whose only inference anchor is t = span
            windows = Windows.concat([
                make_windows(KpiSeries(cell_id=cell, start_ts=(anchor - span) * step,
                                       step_seconds=step, channels=self.channels, values=rows,
                                       missing_mask=np.zeros(rows.shape, dtype=bool)),
                             config.window, require_targets=False)
                for cell, anchor, rows in chunk])
            outputs, _ = model_mod.forward_batch(windows.arrays, self.params, config,
                                                 cache=False)
            latency_ms = (time.monotonic() - arrival) * 1000.0
            for (cell, anchor, _), y in zip(chunk, outputs):
                record = PredictionRecord(
                    cell_id=cell, anchor_ts=anchor * step, outputs=y,
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
        with self._lock:
            lat = sorted(self.latencies)
            pct = lambda q: (lat[min(len(lat) - 1, int(q * len(lat)))] if lat else None)
            return {
                **{k: int(v) for k, v in self.counters.items()},
                "cells_seen": len(self.cells),
                "cells_ready": sum(1 for c in self.cells if c in self.latest_prediction),
                "model_version": self.model_version,
                "latency_p50_ms": pct(0.50),
                "latency_p99_ms": pct(0.99),
            }

    def reload_model(self, path):
        """Swap in a new model atomically; on failure keep the old one."""
        try:
            params, config, scaler = model_mod.load_file(path)
        except (OSError, ModelFormatError) as exc:
            with self._lock:
                self.counters["reload_errors"] += 1
            return False, f"{type(exc).__name__}: {exc}"
        with self._lock:
            self._install(params, config, scaler, version=self.model_version + 1)
        return True, None


# ---------------------------------------------------------------------------
# HTTP surface


def make_http_server(engine, host, port):
    """HTTP/1.1 JSON endpoints: GET /predictions/{cell}, GET /health."""

    class Handler(BaseHTTPRequestHandler):
        def _send(self, status, doc):
            body = json.dumps(doc).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/health":
                self._send(200, engine.health())
                return
            if self.path.startswith("/predictions/"):
                cell = self.path[len("/predictions/"):]
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
