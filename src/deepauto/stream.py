"""Simulated production path: ingest multi-topic NDJSON record streams,
correlate them into per-cell bucketed series, run the loaded model at
every completed bucket, and expose the latest predictions plus health
counters over HTTP.

The wire format matches the historical file format, so any recorded file
can be replayed through the engine and must produce bit-identical
predictions to the batch path.
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
from .dataprep import RSRQ_BINS, WindowedSample, apply_scaler, external_features
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
        if self.output_kind == "horizons":
            for h, v in zip(self.horizons, self.outputs):
                d[f"h{h}"] = float(v)
        else:
            d["pdf"] = [float(v) for v in self.outputs]
        return d


class CellBuffer:
    """Per-cell bucketed state: open (accumulating) and closed buckets.

    Bucket indices are absolute (ts // step_seconds); closed values are a
    dict index -> channel vector, evicted beyond the window capacity.
    """

    def __init__(self, n_channels, capacity, histogram=False):
        self.n_channels = n_channels
        self.capacity = capacity
        self.histogram = histogram
        self.open = {}       # idx -> (sum vector, count vector)
        self.closed = {}     # idx -> value vector (NaN where missing)
        self.first_bucket = None
        self.last_closed = None

    def add(self, bucket, channel, value):
        if self.first_bucket is None:
            self.first_bucket = bucket
        if bucket not in self.open:
            self.open[bucket] = (np.zeros(self.n_channels), np.zeros(self.n_channels))
        sums, counts = self.open[bucket]
        sums[channel] += value
        counts[channel] += 1

    def max_open(self):
        return max(self.open) if self.open else None

    def close_through(self, upto):
        """Close every bucket <= upto; returns the closed indices in order."""
        if self.first_bucket is None:
            return []
        start = self.first_bucket if self.last_closed is None else self.last_closed + 1
        closed = []
        for b in range(start, upto + 1):
            sums_counts = self.open.pop(b, None)
            row = np.full(self.n_channels, np.nan)
            if sums_counts is not None:
                sums, counts = sums_counts
                if self.histogram:
                    total = sums.sum()
                    if total > 0:
                        row = sums / total  # normalized bin PDF
                else:
                    got = counts > 0
                    row[got] = sums[got] / counts[got]
            self.closed[b] = row
            self.last_closed = b
            closed.append(b)
        # evict history beyond what any window can need
        if self.last_closed is not None:
            cutoff = self.last_closed - self.capacity
            for b in [b for b in self.closed if b < cutoff]:
                del self.closed[b]
        return closed

    def window(self, anchor, span):
        """(span, C) history rows for indices [anchor-span, anchor); None if
        the history reaches before the first bucket or a channel is all-NaN.
        Interior gaps are filled with the linear/nearest interpolation rule.
        """
        lo = anchor - span
        if self.first_bucket is None or lo < self.first_bucket:
            return None
        if self.last_closed is None or self.last_closed < anchor - 1:
            return None
        rows = np.empty((span, self.n_channels))
        for k, b in enumerate(range(lo, anchor)):
            rows[k] = self.closed.get(b, np.full(self.n_channels, np.nan))
        if np.isnan(rows).any():
            t = np.arange(span)
            for c in range(self.n_channels):
                present = ~np.isnan(rows[:, c])
                if not present.any():
                    return None
                if not present.all():
                    rows[:, c] = np.interp(t, np.flatnonzero(present), rows[present, c])
        return rows


class Engine:
    """Streaming prediction engine for one model.

    Thread safety: a single lock serializes ingestion, model swaps, and
    snapshot reads; the model visible to inference is replaced atomically.
    """

    def __init__(self, params, config, scaler, step_seconds=None):
        self._lock = threading.RLock()
        self.step_seconds = step_seconds
        self._install(params, config, scaler, version=1)
        self.cells = {}
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
        if config.output_kind == "pdf":
            self.channels = [f"rsrq_{i}" for i in range(RSRQ_BINS)]
            self.topic = "rsrq"
        else:
            self.channels = list(scaler.channels) if scaler is not None else ["load", "ue"]
            self.topic = None
        if self.step_seconds is None:
            self.step_seconds = 300 if config.output_kind == "pdf" else 900
        self.params = params
        self.config = config
        self.scaler = scaler
        self.model_version = version
        self.capacity = config.window.history_span() + 2

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
            predictions = []
            if self.config.output_kind == "pdf":
                if rec["topic"] != "rsrq":
                    return []  # other topics are not errors, just irrelevant
                channel = int(rec["value"])
                value = 1.0  # histogram count
            else:
                if rec["topic"] not in self.channels:
                    return []
                channel = self.channels.index(rec["topic"])
                value = rec["value"]
            self.counters["ingested"] += 1
            bucket = rec["ts"] // self.step_seconds
            buf = self.cells.get(rec["cell"])
            if buf is None:
                buf = CellBuffer(len(self.channels), self.capacity,
                                 histogram=self.config.output_kind == "pdf")
                self.cells[rec["cell"]] = buf

            if buf.last_closed is not None and bucket <= buf.last_closed:
                self.counters["late_dropped"] += 1
                return []

            # a record in a later bucket closes everything before it
            prior = buf.max_open()
            if prior is not None and bucket > prior:
                for closed in buf.close_through(bucket - 1):
                    p = self._predict(rec["cell"], buf, closed + 1, arrival)
                    if p is not None:
                        predictions.append(p)
            buf.add(bucket, channel, value)

            # watermark: the stream as a whole has moved on by >= 2 buckets
            if self.global_max_bucket is None or bucket > self.global_max_bucket:
                self.global_max_bucket = bucket
                predictions.extend(self._advance_watermark(arrival))
            return predictions

    def _advance_watermark(self, arrival):
        predictions = []
        horizon = self.global_max_bucket - 2
        for cell, buf in self.cells.items():
            tops = buf.max_open()
            if tops is None:
                continue
            upto = min(horizon, tops)
            last = buf.last_closed if buf.last_closed is not None else buf.first_bucket - 1
            if upto <= last:
                continue
            for closed in buf.close_through(upto):
                p = self._predict(cell, buf, closed + 1, arrival)
                if p is not None:
                    predictions.append(p)
        return predictions

    def flush(self):
        """End of stream: close every open bucket and predict."""
        with self._lock:
            arrival = time.monotonic()
            predictions = []
            for cell, buf in self.cells.items():
                top = buf.max_open()
                if top is None:
                    continue
                for closed in buf.close_through(top):
                    p = self._predict(cell, buf, closed + 1, arrival)
                    if p is not None:
                        predictions.append(p)
            return predictions

    # -- prediction ---------------------------------------------------------

    def _predict(self, cell, buf, anchor, arrival):
        config = self.config
        span = config.window.history_span()
        rows = buf.window(anchor, span)
        if rows is None:
            return None  # still warming up
        if config.output_kind != "pdf" and self.scaler is not None:
            rows = apply_scaler(rows, self.scaler)
        anchor_ts = anchor * self.step_seconds
        recent, periodic, seasonal = config.window.lag_indices(span)
        sample = WindowedSample(
            cell_id=cell, anchor_t=anchor, anchor_ts=anchor_ts,
            x_recent=rows[recent],
            x_periodic=rows[periodic] if periodic else np.zeros((0, rows.shape[1])),
            x_seasonal=rows[seasonal] if seasonal else np.zeros((0, rows.shape[1])),
            external=external_features(anchor_ts),
        )
        outputs = model_mod.forward(sample, self.params, config)
        record = PredictionRecord(
            cell_id=cell, anchor_ts=anchor_ts, outputs=outputs,
            output_kind=config.output_kind, horizons=config.horizons,
            model_version=self.model_version,
            latency_ms=(time.monotonic() - arrival) * 1000.0,
        )
        self.latest_prediction[cell] = record
        self.counters["predictions"] += 1
        self.latencies.append(record.latency_ms)
        return record

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


def make_http_server(engine, host, port, firehose=None):
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
