"""In-memory span tracer that instruments deepauto's public functions by
monkeypatching the module and class attributes their callers look up.

Spans are (name, start, end, parent index) lists kept in memory; the
per-layer table is computed from them once, at the end of the run. A
layer's self time is its span duration minus the durations of its direct
child spans (calls are single-threaded and nested, so children never
overlap).
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.counts = {}      # name -> summed count from a wrapper's count()
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, label=None, count=None):
        """Replace owner.attr by a span-recording wrapper.

        `label(args, kwargs)` may choose the span name per call (falling back
        to `name` when it cannot read the arguments); `count(args,
        kwargs)` adds a per-call quantity to `counts[name]`. A missing
        attribute is skipped, so the layer reports zero calls.
        """
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            span = [_name(label, name, args, kwargs), 0.0, 0.0,
                    stack[-1] if stack else -1]
            if count is not None:
                try:
                    counts[name] = counts.get(name, 0) + count(args, kwargs)
                except (TypeError, KeyError, IndexError, AttributeError):
                    pass
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code (set-up, one job)."""
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def table(self, root=None):
        """{name: (calls, busy seconds, self seconds)} over every span, or
        over the spans under the top-level span named `root`."""
        child = [0.0] * len(self.spans)
        top = [0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
            top[i] = i if parent < 0 else top[parent]
        rows = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if root is not None and self.spans[top[i]][0] != root:
                continue
            calls, busy, own = rows.get(name, (0, 0.0, 0.0))
            rows[name] = (calls + 1, busy + (end - start), own + (end - start - child[i]))
        return rows


def _name(label, default, args, kwargs):
    if label is None:
        return default
    try:
        return label(args, kwargs)
    except (TypeError, IndexError, AttributeError):
        return default


def _branch(steps, n_r):
    return "recent" if steps == n_r else "periodic"


def instrument(tracer, deepauto, n_r):
    """Wrap every layer the benchmark reports, where its callers look it up.

    LSTM spans are split by branch from the sequence length: the recent
    branch is the one with n_r steps (every workload's n_r differs from
    its n_p).
    """
    nn, model, dataprep, pipeline, stream = (
        deepauto.neuralnet, deepauto.model, deepauto.dataprep,
        deepauto.pipeline, deepauto.stream)

    def fwd_label(args, kwargs):
        return "neuralnet.lstm_forward_sequence." + _branch(len(args[0][0]), n_r)

    def bwd_label(args, kwargs):
        return "neuralnet.lstm_backward_sequence." + _branch(len(args[0]), n_r)

    tracer.wrap(nn, "lstm_forward_sequence", "neuralnet.lstm_forward_sequence",
                label=fwd_label)
    tracer.wrap(nn, "lstm_backward_sequence", "neuralnet.lstm_backward_sequence",
                label=bwd_label)
    for fn in ("dense_forward", "dense_backward", "mmse_loss", "mmse_gradient", "adam_step"):
        tracer.wrap(nn, fn, f"neuralnet.{fn}")

    for fn in ("samples_to_arrays", "backward_batch", "batch_loss", "forward"):
        tracer.wrap(model, fn, f"model.{fn}")
    tracer.wrap(model, "forward_batch", "model.forward_batch",
                count=lambda args, kwargs: len(args[0]["recent"]))

    tracer.wrap(dataprep, "read_records", "dataprep.read_records")
    tracer.wrap(dataprep, "parse_record", "dataprep.parse_record")
    # pipeline imported these by name, so patch them where it looks them up
    # too; its copies are the unwrapped functions, so no call counts twice
    for fn in ("records_to_series", "interpolate_missing"):
        tracer.wrap(dataprep, fn, f"dataprep.{fn}")
        tracer.wrap(pipeline, fn, f"dataprep.{fn}")

    tracer.wrap(pipeline, "prediction_samples", "pipeline.prediction_samples")
    tracer.wrap(pipeline, "prepare_load_dataset", "pipeline.prepare_load_dataset")

    tracer.wrap(stream.Engine, "ingest_line", "stream.Engine.ingest_line")
    tracer.wrap(stream.Engine, "flush", "stream.Engine.flush")
    tracer.wrap(stream.CellBuffer, "close_through", "stream.CellBuffer.close_through")
    tracer.wrap(stream.CellBuffer, "window", "stream.CellBuffer.window")


# every timed layer, in report order; each yields .calls, .s and .self_s
LAYERS = (
    "neuralnet.lstm_forward_sequence.recent",
    "neuralnet.lstm_forward_sequence.periodic",
    "neuralnet.lstm_backward_sequence.recent",
    "neuralnet.lstm_backward_sequence.periodic",
    "neuralnet.dense_forward",
    "neuralnet.dense_backward",
    "neuralnet.mmse_loss",
    "neuralnet.mmse_gradient",
    "neuralnet.adam_step",
    "model.samples_to_arrays",
    "model.forward_batch",
    "model.backward_batch",
    "model.batch_loss",
    "model.forward",
    "dataprep.read_records",
    "dataprep.records_to_series",
    "dataprep.interpolate_missing",
    "dataprep.parse_record",
    "pipeline.prediction_samples",
    "pipeline.prepare_load_dataset",
    "stream.Engine.ingest_line",
    "stream.Engine.flush",
    "stream.CellBuffer.close_through",
    "stream.CellBuffer.window",
)


def layer_metrics(table, counts):
    """Per-layer metrics in the result format, zero for layers not run."""
    metrics = {}
    for name in LAYERS:
        calls, busy, own = table.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.s"] = {"value": busy, "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": own, "unit": "s"}
    batches = table.get("model.forward_batch", (0, 0.0, 0.0))[0]
    rows = counts.get("model.forward_batch", 0)
    metrics["model.rows_per_forward_batch"] = {
        "value": rows / batches if batches else 0.0, "unit": "count"}
    return metrics
