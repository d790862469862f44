"""Raw records -> model-ready samples.

Covers NDJSON record IO, bucketing, linear interpolation of gaps, min-max
scaling fitted on the training slice only, multi-scale windowing (recent /
daily-periodic / weekly-seasonal lags), horizon target aggregation,
temporal 4:1:1 splitting, and autocorrelation.

Bucketing has one rule for both KPIs and for the batch and stream paths,
picked by the channel layout a series holds. `bucket_entry` maps a record
to the (channel, amount) it adds to its bucket, and `bucket_values` turns a
bucket's per-channel sums and counts into values and a missing mask. Under
`LOAD_CHANNELS` a channel is the mean of its topic's values; under
`RSRQ_CHANNELS` a bucket is the share of its RSRQ reports in each of the
35 bins. `records_to_series` and the streaming engine's `CellBuffer` both
call the two functions.

Record IO has one line rule (`decode_record`) and one file reader,
`read_series`, that every file command uses. It cuts a regular file at line
starts into a byte range per CPU; forked workers file the entries of one
range each (`read_shard`), and `merge_shards` renumbers the cells in the
file's first-seen order and joins the columns in file order before the one
binning pass. `np.bincount` adds in record order, so the series, the
rejected line numbers and the DataError are those of one pass over the file
(`records_to_series(iter_records(...))`), bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import multiprocessing
import os
import stat
import threading
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, OutOfRangeError, ShapeError

log = logging.getLogger("deepauto")

TOPICS = ("load", "ue", "rsrq")
RSRQ_BINS = 35

# channel layouts of a bucket row: mean load and UE count for load models,
# the share of RSRQ reports in each bin for histogram (pdf) models
LOAD_CHANNELS = ("load", "ue")
RSRQ_CHANNELS = tuple(f"rsrq_{k}" for k in range(RSRQ_BINS))

# external feature vector layout: one-hot day-of-week (7), hour sin/cos,
# minute sin/cos, then normalized band/power/bandwidth
EXTERNAL_DIM = 14
WEEK_SECONDS = 7 * 86400


# ---------------------------------------------------------------------------
# record IO


_decode_json = json.JSONDecoder().raw_decode
JSON_WHITESPACE = b" \t\n\r"


def parse_record(line):
    """One NDJSON measurement line (bytes), decoded (`decode_record`) and
    checked (`check_record`); None for a blank line."""
    rec = decode_record(line)
    return None if rec is None else check_record(rec)


def decode_record(line):
    """Decode one NDJSON line (bytes) by the one record-line rule of files,
    stdin and TCP: strict UTF-8 holding exactly one JSON value, with only
    JSON whitespace around it (`json.loads`'s rule on the decoded text,
    without its per-call set-up). Returns None for a blank line, one of
    nothing but JSON whitespace; raises DataError on any other line that
    holds no record, `null` included."""
    line = line.strip(JSON_WHITESPACE)
    if not line:
        return None
    try:
        text = line.decode("utf-8")
        rec, end = _decode_json(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"malformed JSON: {exc}") from exc
    if end != len(text):
        raise DataError("malformed JSON: extra data after the object")
    if rec is None:
        raise DataError("record is not an object")
    return rec


def check_record(rec):
    """The measurement record a decoded value `rec` holds, with its value as
    a float; raises DataError on bad input, OutOfRangeError (a DataError) on
    a value outside its topic's range.

    `rec` must be a dict; `ts` an integer that is not a boolean; `value` a
    number, not a boolean, that is finite as a float.
    """
    if not isinstance(rec, dict):
        raise DataError("record is not an object")
    topic = rec.get("topic")
    if topic not in TOPICS:
        raise DataError(f"unknown topic {topic!r}")
    cell = rec.get("cell")
    if not isinstance(cell, str) or not cell:
        raise DataError("missing cell id")
    ts = rec.get("ts")
    if not isinstance(ts, int) or isinstance(ts, bool):
        raise DataError("ts must be an integer epoch second")
    value = rec.get("value")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DataError("value must be a finite number")
    try:
        value = float(value)
    except OverflowError:
        raise DataError("value must be a finite number") from None
    if not math.isfinite(value):
        raise DataError("value must be a finite number")
    if topic == "rsrq":
        rsrq_bin(value)
    if topic == "load" and not 0.0 <= value <= 1.0:
        raise OutOfRangeError(f"load value out of range: {value}")
    if topic == "ue" and value < 0:
        raise OutOfRangeError(f"ue count negative: {value}")
    return {"topic": topic, "cell": cell, "ts": ts, "value": value}


def rsrq_bin(value):
    """The histogram bin an RSRQ report value names; raises OutOfRangeError
    unless the value is an integer in [0, RSRQ_BINS)."""
    if not 0 <= value <= RSRQ_BINS - 1 or value != int(value):
        raise OutOfRangeError(f"rsrq value out of range: {value}")
    return int(value)


def iter_records(path, rejected):
    """Yield the parsed records of an NDJSON file one at a time, appending
    the 1-based line number of every line that fails `parse_record` to the
    list `rejected`; blank lines are skipped. A line ends at b"\\n" only."""
    with open(path, "rb") as fh:
        yield from _parse_lines(enumerate(fh, start=1), rejected)


def _parse_lines(numbered, rejected):
    """The records of (line number, line) pairs, `iter_records`' loop."""
    for number, line in numbered:
        try:
            rec = parse_record(line)
        except DataError:
            rejected.append(number)
            continue
        if rec is not None:
            yield rec


# a fork and its worker's start cost 10-20 ms on a 2-core x86-64 VM, where
# parsing takes about 50 ms a MiB of NDJSON: a range of a MiB repays its fork
SHARD_MIN_BYTES = 1 << 20


def cpu_count():
    """The CPUs this process may run on; 1 where the OS has no affinity
    call (macOS, Windows), so that nothing forks or starts threads there."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def read_series(path, step_seconds, channels, rejected):
    """`records_to_series(iter_records(path, rejected), step_seconds,
    channels)`, with the same series bits, the same line numbers in
    `rejected` in the same order, and the same DataError, read on every CPU.
    Once the whole file is read, and before its buckets are binned, one
    warning counts the lines it rejected.

    A regular file is cut at line starts into at most `cpu_count()` byte
    ranges (`byte_ranges`) of about SHARD_MIN_BYTES or more. Forked worker
    processes file the entries of one range each (`read_shard`), and
    `merge_shards` joins them in file order. With one range, or while
    another Python thread runs (fork copies no thread but the caller, so a
    lock another thread holds would stay held in the child), the ranges are
    read in this process instead; a pipe is one range read in this process.
    The workers are joined before the entries are binned.
    """
    channels = tuple(channels)
    before = len(rejected)
    ranges = byte_ranges(path, cpu_count(), SHARD_MIN_BYTES)
    read = functools.partial(read_shard, path, step_seconds=step_seconds, channels=channels)
    if len(ranges) == 1 or threading.active_count() > 1:
        entries = merge_shards(map(read, ranges), rejected)
    else:
        with ProcessPoolExecutor(len(ranges),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            entries = merge_shards(pool.map(read, ranges), rejected)
    if len(rejected) > before:
        log.warning("rejected %d malformed records from %s", len(rejected) - before, path)
    return bin_entries(entries, step_seconds, channels)


def byte_ranges(path, parts, min_bytes):
    """At most `parts` (start, end) byte ranges that cover the file `path`
    in order, each starting at a line start; end None reads to the end of
    the file. A regular file is cut at the first line start at or after
    each of `parts` even offsets, with fewer parts where a part would hold
    less than `min_bytes`; offsets in one line give one cut, and a cut at
    the end of the file is dropped. Any other file (a pipe) is one range,
    read without a seek.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        return [(0, None)]
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        n = max(1, min(parts, size // min_bytes))
        cuts = [0]
        for k in range(1, n):
            fh.seek(k * size // n - 1)
            fh.readline()  # to the end of the line holding the byte before the offset
            if cuts[-1] < fh.tell() < size:
                cuts.append(fh.tell())
    return list(zip(cuts, cuts[1:] + [None]))


class Shard(NamedTuple):
    """What `read_shard` files from one byte range of a file: the range's
    cells in first-seen order, `records_to_series`' four entry columns with
    cell codes into `cells`, the range's rejected line numbers and line
    count, and the DataError text that ended the read early, or None."""

    cells: list
    codes: array
    buckets: array
    columns: array
    amounts: array
    rejected: list
    lines: int
    error: str


def read_shard(path, span, step_seconds, channels):
    """The Shard of the lines of the file `path` that start in the byte
    range `span`, a (start, end) pair of `byte_ranges`, read by
    `iter_records`' rule with line numbers counted from the range's start.
    """
    start, end = span
    rejected, lines = [], 0

    def numbered(fh):
        nonlocal lines
        left = math.inf if end is None else end - start  # a range is never empty
        for lines, line in enumerate(fh, start=1):
            yield lines, line
            left -= len(line)
            if left <= 0:
                return

    with open(path, "rb") as fh:
        if start:
            fh.seek(start)
        try:
            cells, *columns = file_entries(_parse_lines(numbered(fh), rejected),
                                            step_seconds, channels)
        except DataError as exc:
            return Shard([], array("q"), array("q"), array("q"), array("d"), rejected, lines,
                         str(exc))
    return Shard(list(cells), *columns, rejected, lines, None)


def merge_shards(shards, rejected):
    """`records_to_series`' entries (`file_entries`) of a file from the
    Shards of its byte ranges in file order: the shards' cells renumbered
    in the file's first-seen order and their columns joined in file order.
    Rejected line numbers, shifted by the lines of the ranges before, go to
    `rejected`; the first shard that ended early raises its DataError after
    its own rejected lines."""
    cell_codes, parts, before = {}, [], 0
    for shard in shards:
        rejected.extend(before + number for number in shard.rejected)
        if shard.error is not None:
            raise DataError(shard.error)
        recode = np.array([cell_codes.setdefault(cell, len(cell_codes)) for cell in shard.cells],
                          np.int64)
        parts.append((recode[np.asarray(shard.codes, np.int64)], shard.buckets, shard.columns,
                      shard.amounts))
        before += shard.lines
    # one column at a time, each freed from the shards once it is joined
    columns = list(zip(*parts))
    del shard, parts
    return [cell_codes] + [np.concatenate(columns.pop(0)) for _ in range(4)]


def write_records(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":"), sort_keys=True))
            fh.write("\n")


# ---------------------------------------------------------------------------
# series


@dataclass
class KpiSeries:
    """Regular-interval multivariate series for one cell.

    `missing_mask[t, c]` is True where no measurement landed in the bucket.
    """

    cell_id: str
    start_ts: int
    step_seconds: int
    channels: list
    values: np.ndarray       # (T, C) float64
    missing_mask: np.ndarray  # (T, C) bool, True = missing

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.missing_mask = np.asarray(self.missing_mask, dtype=bool)
        if self.values.shape != self.missing_mask.shape:
            raise ShapeError("values and missing_mask shapes differ")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.channels):
            raise ShapeError("values must be (T, n_channels)")

    @property
    def length(self):
        return self.values.shape[0]

    def timestamp(self, t):
        return self.start_ts + t * self.step_seconds

    def channel_index(self, name):
        try:
            return self.channels.index(name)
        except ValueError:
            raise DataError(f"cell {self.cell_id}: no channel {name!r}") from None


def bucket_entry(rec, channels):
    """What record `rec` adds to its bucket under the channel layout
    `channels` (a tuple): (channel index, amount), or None when the layout
    has no channel for it. Under RSRQ_CHANNELS an rsrq report adds one count
    to the bin its value names, and raises OutOfRangeError when the value
    names no bin; under any other layout a record whose topic is a channel
    adds its value."""
    topic = rec["topic"]
    if topic in channels:  # no topic is an RSRQ_CHANNELS name
        return channels.index(topic), rec["value"]
    if topic == "rsrq" and channels == RSRQ_CHANNELS:
        return rsrq_bin(rec["value"]), 1.0
    return None


def bucket_values(sums, counts, channels):
    """(values, missing) of buckets from the per-channel `sums` and `counts`
    of their entries (arrays whose last axis is `channels`). Under
    RSRQ_CHANNELS a bucket holds its bin counts over its total, missing in
    every bin when no report landed; under any other layout each channel
    holds its mean, missing where nothing landed. Missing values are 0."""
    if channels == RSRQ_CHANNELS:
        counts = np.broadcast_to(sums.sum(axis=-1, keepdims=True), sums.shape)
    got = counts > 0
    return np.divide(sums, counts, out=np.zeros(sums.shape), where=got), ~got


def records_to_series(records, step_seconds, channels=LOAD_CHANNELS):
    """Bucket records at floor(ts/step) per cell under the channel layout
    `channels` (`bucket_entry`, then `bucket_values`); a record the layout
    has no channel for, or an rsrq report that names no bin, is skipped.

    `records` may be any iterable, read once. Returns {cell_id: KpiSeries}
    in cell-id order; each cell's series starts at its own first bucket.
    One pass files each entry as a row of four columns (the cell's code in
    first-seen order, its bucket, channel and amount). The cells' buckets
    are then laid end to end in one (rows, channels) block, and
    `np.bincount` sums the amounts and counts into it. It adds in record
    order from 0.0, as the streaming path does, so the two agree bit for
    bit. One `bucket_values` call turns the block into values, and each
    cell's series is a slice of it. A block too large to allocate raises
    DataError with its bucket count, and a bucket past int64 with the bucket.
    """
    channels = tuple(channels)
    return bin_entries(list(file_entries(records, step_seconds, channels)), step_seconds, channels)


def file_entries(records, step_seconds, channels):
    """`records_to_series`' pass: ({cell: code} in first-seen order, and the
    code, bucket, channel and amount columns of every entry, as arrays)."""
    cell_codes = {}
    codes, buckets, columns, amounts = array("q"), array("q"), array("q"), array("d")
    for rec in records:
        try:
            entry = bucket_entry(rec, channels)
        except OutOfRangeError:
            continue
        if entry is None:
            continue
        codes.append(cell_codes.setdefault(rec["cell"], len(cell_codes)))
        bucket = rec["ts"] // step_seconds
        try:
            buckets.append(bucket)
        except OverflowError:
            raise DataError(f"bucket {bucket} of {step_seconds} s does not fit int64") from None
        columns.append(entry[0])
        amounts.append(entry[1])
    return cell_codes, codes, buckets, columns, amounts


def bin_entries(entries, step_seconds, channels):
    """`records_to_series`' series from the list `entries` of
    `file_entries`' results (its columns as int64, int64, int64 and float64
    arrays or buffers). The list is emptied, so the columns are freed as
    soon as they are summed."""
    cell_codes, codes, buckets, columns, amounts = entries
    entries.clear()
    codes, buckets = np.asarray(codes, np.int64), np.asarray(buckets, np.int64)
    first = np.full(len(cell_codes), np.iinfo(np.int64).max)
    last = np.full(len(cell_codes), np.iinfo(np.int64).min)
    np.minimum.at(first, codes, buckets)
    np.maximum.at(last, codes, buckets)
    # the cells' rows in the block, in code order; spans are summed as
    # Python ints, so a span too wide for int64 fails instead of wrapping
    firsts = first.tolist()
    spans = [hi - lo + 1 for lo, hi in zip(firsts, last.tolist())]
    starts = list(itertools.accumulate(spans, initial=0))
    width = len(channels)
    size = starts[-1] * width
    try:
        if size * 8 > np.iinfo(np.intp).max:  # more bytes than numpy can address
            raise MemoryError
        index = buckets - first[codes]
        index += np.array(starts[:-1], np.int64)[codes]
        index *= width
        index += np.asarray(columns, np.int64)
        sums = np.bincount(index, np.asarray(amounts, np.float64), size).reshape(-1, width)
        counts = np.bincount(index, minlength=size).reshape(-1, width)
        del codes, buckets, columns, amounts, index
        values, missing = bucket_values(sums, counts, channels)
    except MemoryError:
        raise DataError(f"the cells span {starts[-1]} buckets of {step_seconds} s, "
                        "more than can be allocated") from None
    return {cell: KpiSeries(cell_id=cell, start_ts=firsts[c] * step_seconds,
                            step_seconds=step_seconds, channels=list(channels),
                            values=values[starts[c]:starts[c + 1]],
                            missing_mask=missing[starts[c]:starts[c + 1]])
            for cell, c in sorted(cell_codes.items())}


def fill_gaps(values, missing):
    """Fill the `missing` entries of each column of `values` in place: linear
    between present neighbors, nearest value at edges. Returns the index of
    the first column with no present entry (it and later columns are left
    as they are), or None when every column was filled."""
    t = np.arange(values.shape[0])
    for c in range(values.shape[1]):
        present = ~missing[:, c]
        if not present.any():
            return c
        if not present.all():
            idx = np.flatnonzero(present)
            # np.interp holds edge values flat, which is the nearest-value rule
            values[:, c] = np.interp(t, idx, values[idx, c])
    return None


def interpolate_missing(series):
    """Fill gaps (`fill_gaps`); raises DataError on an all-missing channel."""
    values = series.values.copy()
    mask = series.missing_mask
    empty = fill_gaps(values, mask)
    if empty is not None:
        raise DataError(
            f"cell {series.cell_id}: channel {series.channels[empty]!r} is entirely missing")
    return KpiSeries(
        cell_id=series.cell_id, start_ts=series.start_ts,
        step_seconds=series.step_seconds, channels=list(series.channels),
        values=values, missing_mask=np.zeros_like(mask),
    )


# ---------------------------------------------------------------------------
# scaling


@dataclass
class ScalerParams:
    """Per-channel min-max parameters; constant channels map to 0.0."""

    channels: list
    mins: np.ndarray
    maxs: np.ndarray
    constant: np.ndarray  # bool per channel

    def to_dict(self):
        return {"channels": list(self.channels),
                "mins": self.mins.tolist(),
                "maxs": self.maxs.tolist(),
                "constant": self.constant.astype(int).tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(channels=list(d["channels"]),
                   mins=np.asarray(d["mins"], dtype=np.float64),
                   maxs=np.asarray(d["maxs"], dtype=np.float64),
                   constant=np.asarray(d["constant"], dtype=bool))


def fit_scaler(values, channels):
    """Fit per-channel min-max on the training slice only."""
    values = np.asarray(values, dtype=np.float64)
    mins = values.min(axis=0)
    maxs = values.max(axis=0)
    constant = maxs <= mins
    return ScalerParams(channels=list(channels), mins=mins, maxs=maxs, constant=constant)


def apply_scaler(values, scaler):
    """(x - min) / (max - min), clamped to [0, 1]; constant channels -> 0."""
    values = np.asarray(values, dtype=np.float64)
    span = np.where(scaler.constant, 1.0, scaler.maxs - scaler.mins)
    scaled = (values - scaler.mins) / span
    scaled = np.clip(scaled, 0.0, 1.0)
    return np.where(scaler.constant, 0.0, scaled)


# ---------------------------------------------------------------------------
# external features


def external_features(ts):
    """Calendar + configuration features for one anchor timestamp (UTC).

    The band/power/bandwidth slots hold the neutral 0.5: no per-cell
    configuration is wired into the pipeline or the stream.
    """
    ts = int(ts)
    day = (ts // 86400 + 4) % 7  # epoch day 0 was a Thursday
    sec_of_day = ts % 86400
    hour_frac = sec_of_day / 86400.0
    minute_frac = (sec_of_day % 3600) / 3600.0
    feats = np.zeros(EXTERNAL_DIM)
    feats[day] = 1.0
    feats[7] = math.sin(2.0 * math.pi * hour_frac)
    feats[8] = math.cos(2.0 * math.pi * hour_frac)
    feats[9] = math.sin(2.0 * math.pi * minute_frac)
    feats[10] = math.cos(2.0 * math.pi * minute_frac)
    feats[11:14] = 0.5
    return feats


# the features depend on a timestamp only through its second of the week;
# one entry per minute of the week covers every bucket width of a minute or more
@functools.lru_cache(maxsize=WEEK_SECONDS // 60)
def _external_row(sec_of_week):
    return tuple(external_features(sec_of_week).tolist())


def external_block(anchor_ts):
    """(N, EXTERNAL_DIM) `external_features` rows of the timestamps
    `anchor_ts` (N,), bit for bit: each distinct second of the week among
    them is looked up once in a cache of rows, and the block is gathered
    from those rows."""
    secs = anchor_ts % WEEK_SECONDS
    # a set, not np.unique, which costs several times more on one row
    keys = np.array(sorted(set(secs.tolist())), np.int64)
    table = np.array([_external_row(s) for s in keys.tolist()]).reshape(len(keys), EXTERNAL_DIM)
    return table.take(keys.searchsorted(secs), axis=0)


# ---------------------------------------------------------------------------
# windowing


@dataclass
class WindowSpec:
    """Lag layout: n_r recent steps, n_p daily lags, n_s weekly lags."""

    n_r: int
    n_p: int = 0
    n_s: int = 0
    period_steps: int = 0
    season_steps: int = 0

    def __post_init__(self):
        if self.n_r < 1:
            raise ShapeError("n_r must be >= 1")
        if min(self.n_p, self.n_s) < 0:
            raise ShapeError("lag counts must be >= 0")
        if self.n_p > 0 and self.period_steps <= self.n_r:
            raise ShapeError("period_steps must exceed n_r when periodic lags are used")
        if self.n_s > 0 and self.season_steps < max(self.period_steps, 1):
            raise ShapeError("season_steps must be >= period_steps")

    def branches(self):
        """(name, lag count, lag step) of each branch the spec has, in the
        fixed order recent, periodic, seasonal: the one list that windowing
        and the model walk."""
        layout = (("recent", self.n_r, 1), ("periodic", self.n_p, self.period_steps),
                  ("seasonal", self.n_s, self.season_steps))
        return [branch for branch in layout if branch[1] > 0]

    def history_span(self):
        """Steps of history an anchor needs before itself."""
        return max(count * step for _, count, step in self.branches())

    def lag_indices(self, t):
        """{branch name: the absolute indices it reads for anchor t, in time order}."""
        return {name: [t - k * step for k in range(count, 0, -1)]
                for name, count, step in self.branches()}

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**{k: int(d.get(k, 0)) for k in
                      ("n_r", "n_p", "n_s", "period_steps", "season_steps")})


class Row(NamedTuple):
    """Identity of one window row."""

    cell_id: str
    anchor_ts: int


@dataclass
class Windows:
    """Model inputs for N anchors, row-aligned across every array.

    `arrays` holds an (N, lags, C) array per branch, in
    `WindowSpec.branches` order, then "external" (N, EXTERNAL_DIM) and, when
    targets were built, "target" (N, K) horizon targets or (N, bins)
    histograms. Indexing by a slice or an integer index array selects rows
    of every array; iterating yields one Row per anchor.
    """

    arrays: dict
    cell_ids: np.ndarray   # (N,) str
    anchor_ts: np.ndarray  # (N,) int64

    def __len__(self):
        return len(self.anchor_ts)

    def __getitem__(self, rows):
        return Windows({k: v[rows] for k, v in self.arrays.items()},
                       self.cell_ids[rows], self.anchor_ts[rows])

    def __iter__(self):
        return map(Row, self.cell_ids.tolist(), self.anchor_ts.tolist())

    @classmethod
    def concat(cls, parts):
        """Stack the rows of several Windows with the same keys, in order;
        a single Windows comes back as it is."""
        if len(parts) == 1:
            return parts[0]
        return cls({k: np.concatenate([p.arrays[k] for p in parts]) for k in parts[0].arrays},
                   np.concatenate([p.cell_ids for p in parts]),
                   np.concatenate([p.anchor_ts for p in parts]))


def _lagged(values, count, step):
    """View of `values` (T, ...) whose row j holds values[j], values[j +
    step], ..., values[j + (count - 1) * step], so that one (N,) index
    gathers N windows of `count` lags without an (N, count) index. numpy
    checks that the view stays inside the values' buffer."""
    values = np.ascontiguousarray(values)
    stride = values.strides[0]
    return np.ndarray((max(len(values) - (count - 1) * step, 0), count) + values.shape[1:],
                      values.dtype, values, 0, (stride, step * stride) + values.strides[1:])


def lag_windows(values, anchors, cell_ids, anchor_ts, spec):
    """Windows without targets: each branch's lags of the rows `values`
    (T, C) before each index in `anchors` (N,), and the external features of
    `anchor_ts` (N,) (`external_block`). Every lag must fall inside
    `values`."""
    # the calendar block first, so its temporaries are gone before the
    # branches are gathered; one gather per branch keeps each (N, lags, C)
    # array C-contiguous
    external = external_block(anchor_ts)
    arrays = {name: _lagged(values, count, step)[anchors - count * step]
              for name, count, step in spec.branches()}
    arrays["external"] = external
    return Windows(arrays, cell_ids, anchor_ts)


def window_anchors(length, spec, horizons, require_targets, pdf_target):
    """The anchor indices `make_windows` builds for a series of `length`
    steps, with the same arguments: from spec.history_span(), the first
    whose lags all fall inside the series, to the last whose horizons end
    inside it. Without targets the last anchor is `length`, which predicts
    past the last observed step; a pdf target is the row at the anchor."""
    if not require_targets:
        last = length
    elif pdf_target:
        last = length - 1
    else:
        if min(horizons) < 1:
            raise ShapeError("horizons must be >= 1")
        last = length - max(horizons)
    return np.arange(spec.history_span(), last + 1)


def make_windows(series, spec, horizons=(1, 15, 60), require_targets=True, pdf_target=False,
                 scaler=None):
    """`lag_windows` plus targets for every feasible anchor
    (`window_anchors`) of each series in the sequence `series`, its rows in
    (anchor index, position in `series`) order. The series' values are
    joined end to end and, given `scaler`, scaled at once (`apply_scaler`),
    and every array is gathered from that one block, as the streaming
    engine gathers its windows from its joined histories. With `pdf_target`
    the target is the full channel row at the anchor (histogram prediction)
    and `horizons` is ignored; otherwise target h is the mean of the "load"
    column over the h steps from the anchor (tests/oracles.py's
    `aggregate_targets` is the per-anchor reference, bit for bit). Raises
    DataError when `series` is empty, ShapeError when its channels differ.
    """
    if not series:
        raise DataError("no series to window")
    if any(s.channels != series[0].channels for s in series):
        raise ShapeError("series joined into one block must share their channels")
    anchors = [window_anchors(s.length, spec, horizons, require_targets, pdf_target)
               for s in series]
    counts = [len(a) for a in anchors]
    t = np.concatenate(anchors)
    order = np.argsort(t, kind="stable")
    # a row's index in the joined block: its series' first row plus its anchor
    starts = np.cumsum([0] + [s.length for s in series[:-1]])
    rows = (np.repeat(starts, counts) + t)[order]
    values = np.concatenate([s.values for s in series])
    if scaler is not None:
        values = apply_scaler(values, scaler)
    windows = lag_windows(values, rows,
                          np.repeat(np.array([s.cell_id for s in series]), counts)[order],
                          np.concatenate([s.timestamp(a) for s, a in zip(series, anchors)])[order],
                          spec)
    if require_targets:
        if pdf_target:
            windows.arrays["target"] = values[rows]
        else:
            # the mean at every joined position, then the rows': no (N, h) gather;
            # each view row sums in a contiguous row's order, so the bits hold
            col = values[:, series[0].channel_index("load")]
            windows.arrays["target"] = np.stack(
                [_lagged(col, h, 1).mean(axis=1)[rows] for h in horizons], axis=1)
    return windows


def split_4_1_1(samples):
    """Temporal 4:1:1 split; floor sizes for train/val, remainder to test."""
    n = len(samples)
    if n < 6:
        raise DataError(f"need at least 6 samples to split 4:1:1, got {n}")
    n_train = (4 * n) // 6
    n_val = n // 6
    return samples[:n_train], samples[n_train:n_train + n_val], samples[n_train + n_val:]


# ---------------------------------------------------------------------------
# analysis


def autocorrelation(x, max_lag):
    """Sample ACF rho(0..max_lag) with the global-mean normalization."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError("autocorrelation expects a 1-D series")
    if x.shape[0] <= max_lag:
        raise DataError("series shorter than max_lag")
    d = x - x.mean()
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise DataError("zero-variance series has no autocorrelation")
    acf = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        acf[k] = float(np.dot(d[: len(d) - k], d[k:])) / denom
    return acf
