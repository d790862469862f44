"""The sharded file reader, `dataprep.read_series`: byte ranges cut at line
starts, read apart and merged in file order, give what one pass over the
whole file gives (`records_to_series(iter_records(...))`), bit for bit;
`predict` forks its readers only where that is safe, and leaves no child
process behind.
"""

import functools
import json
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepauto import dataprep as dp
from deepauto import model as dm
from deepauto import synthgen
from deepauto.errors import DataError

import oracles

LAYOUTS = {"load": dp.LOAD_CHANNELS, "rsrq": dp.RSRQ_CHANNELS}
STEP = 60


def one_pass(path, channels):
    """(series, DataError text, rejected line numbers) of the whole file
    read as one stream of records."""
    rejected = []
    try:
        return dp.records_to_series(dp.iter_records(path, rejected), STEP, channels), None, \
            rejected
    except DataError as exc:
        return None, str(exc), rejected


def sharded(path, ranges, channels):
    """The same, from the byte ranges `ranges` read apart in this process and
    merged."""
    rejected = []
    read = functools.partial(dp.read_shard, path, step_seconds=STEP, channels=channels)
    try:
        entries = dp.merge_shards(map(read, ranges), rejected)
        return dp.bin_entries(entries, STEP, channels), None, rejected
    except DataError as exc:
        return None, str(exc), rejected


def assert_same(got, want):
    series, error, rejected = got
    assert (error, rejected) == want[1:]
    if want[0] is None:
        assert series is None
        return
    series, want_series = oracles.cells_of(series), oracles.cells_of(want[0])
    assert list(series) == list(want_series)
    for cell, s in want_series.items():
        assert series[cell].start_ts == s.start_ts
        assert series[cell].values.tobytes() == s.values.tobytes()
        assert series[cell].missing_mask.tobytes() == s.missing_mask.tobytes()


def line_starts(data):
    """Offsets of the lines of `data` after the first (b"\\n" ends a line)."""
    return [k + 1 for k in range(len(data) - 1) if data[k] == ord("\n")]


# a record of a few cells, some with multi-byte names, over a small span
# of buckets, so a cell's series stays short; or a ts past int64 once
# bucketed, which ends the read with a DataError naming the bucket
_RECORD = st.fixed_dictionaries({
    "topic": st.sampled_from(["load", "ue", "rsrq"] * 3 + ["bogus"]),
    "cell": st.sampled_from(["a", "é", "小区", "😀"]),
    "ts": st.one_of(st.integers(0, 20 * STEP), st.integers(0, 20 * STEP),
                    st.sampled_from([2**63 * STEP, 10**30, -10**30 - 7])),
    "value": st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0, 34.0, 35.0, -1.0, 2.5]),
                       st.floats(0.0, 1.0), st.integers(0, 34))})


@st.composite
def adversarial_line(draw):
    """One line (without its b"\\n"): a record, possibly with a bare CR
    between its tokens, CRLF at its end, padding that makes it longer than
    a small range, or non-ASCII text; or a blank, whitespace-only,
    malformed or non-UTF-8 line."""
    text = json.dumps(draw(_RECORD), ensure_ascii=draw(st.booleans()))
    kind = draw(st.sampled_from(["plain"] * 12 + ["cr", "crlf", "long", "blank", "space",
                                                 "junk", "bad-utf-8", "split-char"]))
    if kind == "cr":
        return text.replace(", ", ",\r", 1).encode()
    if kind == "crlf":
        return text.encode() + b"\r"
    if kind == "long":
        return (text[:-1] + " " * draw(st.integers(50, 300)) + "}").encode()
    if kind == "blank":
        return b""
    if kind == "space":
        return draw(st.sampled_from([b" ", b"\t", b"\r", b" \t\r "]))
    if kind == "junk":
        return draw(st.sampled_from([b"not json", b"{", b"null", b"[1]", b"\x0c{}"]))
    if kind == "bad-utf-8":
        return text.encode()[:-2] + b"\xff" + text.encode()[-2:]
    if kind == "split-char":
        # the first byte of a multi-byte character alone: invalid UTF-8
        return text.encode("utf-8")[:-1] + "小".encode()[:1] + b"}"
    return text.encode()


def write_lines(path, lines, final_newline):
    data = b"\n".join(lines) + (b"\n" if final_newline and lines else b"")
    path.write_bytes(data)
    return data


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(LAYOUTS)), st.lists(adversarial_line(), max_size=60),
       st.booleans(), st.integers(1, 4), st.data())
def test_shards_merge_to_the_one_pass_series(tmp_path_factory, layout, lines, final_newline,
                                             parts, data):
    """At 1-4 ranges, from `byte_ranges` or cut at any line starts, the
    merged shards hold the one-pass series bit for bit, the same rejected
    line numbers in the same order, and the same DataError: the one of the
    earliest bucket past int64 in the file."""
    path = tmp_path_factory.mktemp("shards") / "records.ndjson"
    raw = write_lines(path, lines, final_newline)
    want = one_pass(path, LAYOUTS[layout])

    ranges = dp.byte_ranges(path, parts, 1)
    assert 1 <= len(ranges) <= parts
    starts = [start for start, _ in ranges]
    assert starts[0] == 0 and set(starts[1:]) <= set(line_starts(raw))
    assert [end for _, end in ranges] == starts[1:] + [None]
    assert_same(sharded(path, ranges, LAYOUTS[layout]), want)

    cuts = sorted(data.draw(st.sets(st.sampled_from(line_starts(raw) or [0]),
                                    max_size=parts - 1)) - {0})
    ranges = list(zip([0] + cuts, cuts + [None]))
    assert_same(sharded(path, ranges, LAYOUTS[layout]), want)


def test_a_cut_inside_a_multi_byte_character_moves_to_the_next_line(tmp_path):
    """An even offset that falls inside a four-byte character cuts at the
    next line start, so no shard decodes half a character."""
    wide = json.dumps({"topic": "load", "cell": "😀" * 8, "ts": 0, "value": 0.5},
                      ensure_ascii=False).encode() + b"\n"
    head = json.dumps({"topic": "ue", "cell": "a", "ts": 0, "value": 3}).encode() + b"\n"
    # pad a blank last line until the middle byte continues a character
    data = next(data for pad in range(200)
                for data in [head + wide + b" " * pad + b"\n"]
                if data[len(data) // 2] & 0xC0 == 0x80)
    path = tmp_path / "wide.ndjson"
    path.write_bytes(data)
    ranges = dp.byte_ranges(path, 2, 1)
    assert ranges == [(0, len(head + wide)), (len(head + wide), None)]
    for layout in LAYOUTS.values():
        assert_same(sharded(path, ranges, layout), one_pass(path, layout))


def test_the_earliest_bucket_past_int64_wins(tmp_path):
    """Two buckets past int64, in the first range and in the last: the
    error names the earlier one, after the rejected lines before it."""
    good = json.dumps({"topic": "load", "cell": "a", "ts": 0, "value": 0.5}).encode()
    lines = [b"junk", json.dumps({"topic": "load", "cell": "a", "ts": 10**30,
                                  "value": 0.5}).encode()] + [good] * 20
    lines += [b"junk", json.dumps({"topic": "load", "cell": "a", "ts": -10**30,
                                   "value": 0.5}).encode()]
    path = tmp_path / "far.ndjson"
    write_lines(path, lines, True)
    want = one_pass(path, dp.LOAD_CHANNELS)
    assert want[1:] == (f"bucket {10**30 // STEP} of {STEP} s does not fit int64", [1])
    for parts in (1, 2, 3, 4):
        assert_same(sharded(path, dp.byte_ranges(path, parts, 1), dp.LOAD_CHANNELS), want)


def test_a_line_longer_than_a_range_is_one_range(tmp_path):
    path = tmp_path / "long.ndjson"
    path.write_bytes(b"{" + b" " * 100 + b"}\n" + b"x\n")
    assert dp.byte_ranges(path, 4, 1) == [(0, 103), (103, None)]
    path.write_bytes(b" " * 100)  # no newline at all
    assert dp.byte_ranges(path, 4, 1) == [(0, None)]
    path.write_bytes(b"")
    assert dp.byte_ranges(path, 4, 1) == [(0, None)]
    assert_same(sharded(path, [(0, None)], dp.LOAD_CHANNELS), one_pass(path, dp.LOAD_CHANNELS))


# ---------------------------------------------------------------------------
# when read_series forks


def _no_pool(*args, **kwargs):
    raise AssertionError("read_series started a process pool")


def test_a_small_file_reads_in_this_process(tmp_path, monkeypatch):
    monkeypatch.setattr(dp, "cpu_count", lambda: 4)
    monkeypatch.setattr(dp, "ProcessPoolExecutor", _no_pool)
    path = tmp_path / "small.ndjson"
    dp.write_records(path, synthgen.generate(synthgen.SynthConfig(n_cells=3, days=1, seed=2)))
    assert path.stat().st_size < dp.SHARD_MIN_BYTES
    rejected = []
    series = dp.read_series(path, STEP, dp.LOAD_CHANNELS, rejected)
    assert_same((series, None, rejected), one_pass(path, dp.LOAD_CHANNELS))


def test_a_second_thread_keeps_the_read_in_this_process(tmp_path, monkeypatch):
    """fork copies only the calling thread, so while another Python thread
    runs, a file that would be cut into four ranges is read here."""
    monkeypatch.setattr(dp, "cpu_count", lambda: 4)
    monkeypatch.setattr(dp, "SHARD_MIN_BYTES", 64)
    monkeypatch.setattr(dp, "ProcessPoolExecutor", _no_pool)
    path = tmp_path / "records.ndjson"
    dp.write_records(path, synthgen.generate(synthgen.SynthConfig(n_cells=3, days=1, seed=2)))
    assert len(dp.byte_ranges(path, 4, 64)) == 4
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    other.start()
    try:
        rejected = []
        series = dp.read_series(path, STEP, dp.LOAD_CHANNELS, rejected)
    finally:
        stop.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert_same((series, None, rejected), one_pass(path, dp.LOAD_CHANNELS))


# ---------------------------------------------------------------------------
# predict in a fresh process


# runs `deepauto` in a fresh process, on one CPU if asked; prints the exit
# code, how many processes it forked, and whether any child was left
CHILD = """
import json, os, sys, threading
from deepauto import cli
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
assert threading.active_count() == 1
code = cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"code": code, "forks": len(forks), "children_left": left}))
"""


@pytest.fixture(scope="module")
def big_input(tmp_path_factory):
    """An NDJSON file of over 2 MiB, so that it is cut into two or more
    ranges, with three malformed lines, and a seeded-init model for it."""
    root = tmp_path_factory.mktemp("big")
    records = synthgen.generate(synthgen.SynthConfig(n_cells=80, days=3, missing_rate=0.02,
                                                     seed=4))
    data = root / "data.ndjson"
    dp.write_records(data, records)
    lines = data.read_bytes().splitlines(keepends=True)
    third = len(lines) // 3
    data.write_bytes(b"".join([b"not json\n"] + lines[:third] + [b"\xff\n"] + lines[third:]
                              + [b'{"topic":"load"}']))
    assert data.stat().st_size > 2 * dp.SHARD_MIN_BYTES
    config = dm.DeepAutoConfig(window=dp.WindowSpec(n_r=4, n_p=1, period_steps=96),
                               input_dim=2, horizons=(1, 4), hidden_r=4, hidden_p=4,
                               ext_embed_dim=3, fusion_hidden=4, batch_size=64, seed=4)
    scaler = dp.fit_scaler(np.array([[0.0, 0.0], [1.0, 200.0]]), dp.LOAD_CHANNELS)
    model = root / "model.bin"
    dm.save_file(model, dm.DeepAutoParams.init(config, np.random.default_rng(4)), config,
                 scaler)
    return {"data": data, "model": model}


def forks_expected(cpus, path):
    """The readers `read_series` forks for the file `path`: one per range
    when it has more than one, none on one CPU."""
    ranges = min(dp.cpu_count() if cpus == "all-cpus" else 1,
                 path.stat().st_size // dp.SHARD_MIN_BYTES)
    return ranges if ranges > 1 else 0


def run_child(cpus, argv, **kwargs):
    proc = subprocess.run([sys.executable, "-c", CHILD, cpus, *argv], capture_output=True,
                          timeout=300, **kwargs)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1]), proc.stderr.decode()


def test_predict_on_every_cpu_matches_one_cpu(big_input, tmp_path):
    """`predict` forks a reader per range on every CPU it may use and writes
    the bytes it writes on one CPU, with the same warning; no child process
    outlives it."""
    outputs, errs = {}, {}
    for cpus in ("all-cpus", "one-cpu"):
        out = tmp_path / f"{cpus}.ndjson"
        report, errs[cpus] = run_child(cpus, ["predict", "--model", str(big_input["model"]),
                                              "--input", str(big_input["data"]),
                                              "--output", str(out)])
        assert report == {"code": 0, "forks": forks_expected(cpus, big_input["data"]),
                          "children_left": False}
        outputs[cpus] = out.read_bytes()
    assert outputs["all-cpus"] == outputs["one-cpu"] and outputs["all-cpus"]
    assert errs["all-cpus"] == errs["one-cpu"]
    assert f"rejected 3 malformed records from {big_input['data']}" in errs["all-cpus"]


def test_predict_on_every_cpu_fails_as_on_one_cpu(big_input, tmp_path):
    """A bucket past int64 in the last range fails `predict` on every CPU
    with the exit code and message it fails with on one CPU, and leaves no
    child process."""
    data = tmp_path / "far.ndjson"
    far = {"topic": "load", "cell": "cell_0001", "ts": 10**30, "value": 0.5}
    data.write_bytes(big_input["data"].read_bytes() + b"\n" + json.dumps(far).encode() + b"\n")
    errs = {}
    for cpus in ("all-cpus", "one-cpu"):
        report, errs[cpus] = run_child(cpus, ["predict", "--model", str(big_input["model"]),
                                              "--input", str(data),
                                              "--output", str(tmp_path / "pred.ndjson")])
        assert report == {"code": 2, "forks": forks_expected(cpus, data),
                          "children_left": False}
    assert errs["all-cpus"] == errs["one-cpu"] == \
        f"error: bucket {10**30 // 900} of 900 s does not fit int64\n"


def test_predict_reads_a_pipe_on_dev_stdin(big_input, tmp_path):
    """A pipe cannot be cut into ranges: `--input /dev/stdin` reads it in
    one pass, without a seek or a fork, and predicts what the file gives."""
    from_file, from_pipe = tmp_path / "file.ndjson", tmp_path / "pipe.ndjson"
    argv = ["predict", "--model", str(big_input["model"]), "--output"]
    run_child("all-cpus", argv + [str(from_file), "--input", str(big_input["data"])])
    report, err = run_child("all-cpus", argv + [str(from_pipe), "--input", "/dev/stdin"],
                            input=big_input["data"].read_bytes())
    assert report == {"code": 0, "forks": 0, "children_left": False}
    assert "rejected 3 malformed records from /dev/stdin" in err
    assert from_pipe.read_bytes() == from_file.read_bytes()
