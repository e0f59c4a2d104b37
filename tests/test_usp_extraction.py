"""Chunked single-trajectory extraction against the per-state reference loop.

``reference_usp_collect`` is the original extraction: it walks the source
one state at a time.  ``usp_collect`` reads the source in int64 chunks
and must match it exactly: counts, every ``UspStats`` field, the
``on_segment`` sequence and the target draws.
"""

import contextlib
import faulthandler
import itertools
import math
import multiprocessing
import os
import signal
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap import sampling
from specgap.chains import BiasedLineChain, TabularSampler, UniformSampler
from specgap.estimator import ReturnCountAccumulator, config_for_budget
from specgap.sampling import (
    CHUNK,
    TARGET_STREAM_KEY,
    TraceFile,
    UspEngine,
    path_rng,
    states_from_file,
    trajectory_from_oracle,
    usp_collect,
)

from helpers import FixedTargets


def reference_usp_collect(engine, num_segments):
    """Extract segments one source state at a time (the reference)."""
    if num_segments < 1:
        raise ValueError("num_segments must be >= 1")
    K = engine.segment_length
    acc = ReturnCountAccumulator.empty(K)
    stats = engine.stats
    rng = path_rng(engine.master_seed, TARGET_STREAM_KEY)

    target = engine.target_sampler.sample(rng)
    boundary = 0  # previous segment start + K; next start must satisfy t > boundary
    start_state = -1
    within = 0
    filling = False
    returns = np.empty(K, dtype=bool)

    for t, x in enumerate(engine.source):
        stats.source_steps_consumed = t + 1
        if filling:
            within += 1
            returns[within - 1] = x == start_state
            if within == K:
                acc.counts += returns
                acc.paths_completed += 1
                stats.segments_emitted += 1
                if engine.on_segment is not None:
                    engine.on_segment(start_state)
                if acc.paths_completed == num_segments:
                    return acc
                filling = False
                target = engine.target_sampler.sample(rng)
        elif t > boundary and x == target:
            wait = t - boundary
            stats.total_wait += wait
            stats.max_wait = max(stats.max_wait, wait)
            start_state = x
            boundary = t + K
            within = 0
            filling = True

    stats.exhausted = True
    return acc


def extract(collect, source, K, sampler, num_segments, seed=0):
    """(counts, paths, stats fields, on_segment list) of one extraction."""
    starts = []
    engine = UspEngine(source, K, sampler, seed, on_segment=starts.append)
    acc = collect(engine, num_segments)
    s = engine.stats
    stats = (s.segments_emitted, s.source_steps_consumed, s.total_wait, s.max_wait, s.exhausted)
    return acc.counts.tolist(), acc.paths_completed, stats, starts


def write_trace(path, states, newline="\n", last_newline=True):
    text = newline.join(str(x) for x in states)
    path.write_bytes((text + (newline if last_newline and states else "")).encode())
    return path


def assert_matches_reference(states, K, make_sampler, num_segments, tmp_path, seed=0):
    expected = extract(reference_usp_collect, list(states), K, make_sampler(), num_segments, seed)
    from_list = extract(usp_collect, list(states), K, make_sampler(), num_segments, seed)
    from_iter = extract(usp_collect, iter(list(states)), K, make_sampler(), num_segments, seed)
    trace = write_trace(tmp_path / "trace.txt", list(states))
    from_file = extract(usp_collect, states_from_file(trace), K, make_sampler(), num_segments, seed)
    assert from_list == expected
    assert from_iter == expected
    assert from_file == expected
    return expected


# ---------------------------------------------------------------------------
# property: any source, segment length and request
# ---------------------------------------------------------------------------


@st.composite
def usp_cases(draw):
    size = draw(st.integers(1, 4))
    K = draw(st.one_of(st.integers(1, 12), st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])))
    length = draw(st.one_of(st.integers(0, 60), st.integers(CHUNK - 2, 3 * CHUNK + 2)))
    source_seed = draw(st.integers(0, 2**32 - 1))
    sticky = draw(st.booleans())
    rng = np.random.default_rng(source_seed)
    if sticky:  # long runs of one state, so that returns are common
        states = np.cumsum(rng.random(length) < 0.1) % size
    else:
        states = rng.integers(0, size, size=length)
    return {
        "states": states.tolist(),
        "size": size,
        "K": K,
        "num_segments": draw(st.integers(1, 40)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "newline": draw(st.sampled_from(["\n", "\r\n"])),
        "last_newline": draw(st.booleans()),
    }


@settings(max_examples=150, deadline=None)
@given(usp_cases())
def test_chunked_extraction_matches_reference(tmp_path_factory, case):
    states, K, size, wanted, seed = (
        case["states"], case["K"], case["size"], case["num_segments"], case["seed"]
    )
    expected = extract(reference_usp_collect, states, K, UniformSampler(size), wanted, seed)
    assert extract(usp_collect, states, K, UniformSampler(size), wanted, seed) == expected
    assert extract(usp_collect, iter(states), K, UniformSampler(size), wanted, seed) == expected
    path = write_trace(
        tmp_path_factory.mktemp("trace") / "trace.txt", states, case["newline"], case["last_newline"]
    )
    trace = states_from_file(path)
    assert extract(usp_collect, trace, K, UniformSampler(size), wanted, seed) == expected


# ---------------------------------------------------------------------------
# chunk boundaries
# ---------------------------------------------------------------------------


def test_start_on_last_state_of_a_chunk(tmp_path):
    # the first segment starts at t = CHUNK - 1 and is filled from the next chunk
    states = [1] * (CHUNK - 1) + [0] * 40
    counts, paths, stats, starts = assert_matches_reference(
        states, 5, lambda: FixedTargets([0, 0]), 1, tmp_path
    )
    assert paths == 1 and starts == [0]
    assert stats == (1, CHUNK + 5, CHUNK - 1, CHUNK - 1, False)
    assert counts == [1] * 5


@pytest.mark.parametrize("K", [CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_segments_at_least_a_chunk_long(tmp_path, K):
    rng = np.random.default_rng(K)
    states = (np.cumsum(rng.random(4 * CHUNK + 11) < 0.05) % 3).tolist()
    counts, paths, stats, _ = assert_matches_reference(
        states, K, lambda: UniformSampler(3), 10, tmp_path, seed=4
    )
    assert paths >= 1


def test_exhaustion_in_the_middle_of_a_segment(tmp_path):
    # the second segment starts at t = CHUNK + 3, two states before the source ends
    states = [0] * (CHUNK + 6)
    counts, paths, stats, starts = assert_matches_reference(
        states, CHUNK + 1, lambda: FixedTargets([0, 0, 0]), 5, tmp_path
    )
    assert paths == 1
    assert stats == (1, CHUNK + 6, 2, 1, True)


def test_early_stop_exactly_at_a_chunk_end(tmp_path):
    # the last requested segment ends on state CHUNK - 1: nothing past the chunk is used
    K = 10
    start = CHUNK - 1 - K
    states = [1] * start + [0] * (K + 1) + [1] * (2 * CHUNK)
    counts, paths, stats, _ = assert_matches_reference(
        states, K, lambda: FixedTargets([0]), 1, tmp_path
    )
    assert stats == (1, CHUNK, start, start, False)

    drawn = []

    def counted():
        for x in states:
            drawn.append(x)
            yield x

    usp_collect(UspEngine(counted(), K, FixedTargets([0]), 0), 1)
    assert len(drawn) == CHUNK  # the adapter read exactly one chunk


def test_file_and_in_memory_sources_agree_on_a_long_trace(tmp_path):
    rng = np.random.default_rng(8)
    steps = rng.choice([-1, 0, 0, 1], size=20 * CHUNK)
    states = (np.cumsum(steps) % 12).tolist()  # one- and two-digit lines
    assert_matches_reference(states, 30, lambda: UniformSampler(12), 400, tmp_path, seed=3)
    assert_matches_reference(states, 30, lambda: UniformSampler(12), 10**6, tmp_path, seed=3)


def test_target_draws_follow_the_reference(tmp_path):
    class Recording(UniformSampler):
        def __init__(self, size, log):
            super().__init__(size)
            self.log = log

        def sample(self, rng):
            x = super().sample(rng)
            self.log.append(x)
            return x

    rng = np.random.default_rng(2)
    states = rng.integers(0, 4, size=3 * CHUNK).tolist()
    logs = {}
    for name, collect, source in [
        ("reference", reference_usp_collect, states),
        ("list", usp_collect, states),
        ("file", usp_collect, states_from_file(write_trace(tmp_path / "t.txt", states))),
    ]:
        logs[name] = []
        extract(collect, source, 7, Recording(4, logs[name]), 50, seed=9)
    assert logs["list"] == logs["reference"] == logs["file"]
    assert len(logs["reference"]) == 50


def test_skewed_targets_are_rejected_naming_the_target():
    # Skewed targets emitted 6,014 segments here and ell_star = 0.0, below
    # lambda* = 0.9243; uniform targets give 7,878 segments and 0.9415.
    chain = BiasedLineChain(6, 0.6)
    cfg = config_for_budget(2 * 10**6, 6)
    source = trajectory_from_oracle(chain, 0, master_seed=1, max_steps=2 * 10**6)
    skewed = TabularSampler([0.01] * 5 + [0.95])
    engine = UspEngine(source, cfg.max_path_length, skewed, master_seed=1)
    with pytest.raises(ValueError, match=r"^target 5 has pmf 0\.95, not min_pmf 0\.01"):
        usp_collect(engine, cfg.num_paths)


@pytest.mark.parametrize(
    "segment_length, num_segments, name",
    [
        (5.5, 10, "segment_length"),
        (True, 10, "segment_length"),
        (np.float64(5.0), 10, "segment_length"),
        (5, 10.5, "num_segments"),
        (5, False, "num_segments"),
        (5, "10", "num_segments"),
    ],
)
def test_usp_sizes_must_be_integers(segment_length, num_segments, name):
    # With num_segments = 10.5 the emitted count never equals it: the call read
    # this whole source, and over an endless one it would never return.
    states = np.random.default_rng(4).integers(0, 4, 20_000).tolist()
    with pytest.raises(TypeError, match=f"^{name} must be an integer, not "):
        usp_collect(UspEngine(states, segment_length, UniformSampler(4), 3), num_segments)


def test_usp_sizes_accept_numpy_integers():
    states = np.random.default_rng(4).integers(0, 4, 20_000).tolist()
    engine = UspEngine(states, np.int64(5), UniformSampler(4), 3)
    assert usp_collect(engine, np.int32(10)).paths_completed == 10


class ChunkSource:
    """A duck-typed source whose ``chunks()`` yields the given arrays."""

    def __init__(self, *chunks):
        self._chunks = chunks

    def __iter__(self):
        for chunk in self._chunks:
            yield from np.ravel(chunk).tolist()

    def chunks(self):
        return iter(self._chunks)


@pytest.mark.parametrize(
    "bad, what",
    [
        (np.arange(8, dtype=np.int32) % 4, r"int32 array of shape \(8,\)"),
        (np.arange(7, dtype=np.int32) % 4, r"int32 array of shape \(7,\)"),
        (np.zeros(8), r"float64 array of shape \(8,\)"),
        (np.arange(8, dtype=np.uint8) % 4, r"uint8 array of shape \(8,\)"),
        (np.zeros((4, 2), dtype=np.int64), r"int64 array of shape \(4, 2\)"),
        ([0, 1, 2], "list"),
    ],
)
def test_a_chunk_that_is_not_1d_int64_is_rejected_naming_its_source_index(bad, what):
    engine = UspEngine(ChunkSource(np.arange(5, dtype=np.int64) % 4, bad), 3, UniformSampler(4), 3)
    with pytest.raises(TypeError, match=f"^source chunk at index 5 is {what}, not a 1-D int64 array$"):
        usp_collect(engine, 10)


# ---------------------------------------------------------------------------
# the trace file reader
# ---------------------------------------------------------------------------


def read(path, max_steps=None):
    return list(states_from_file(path, max_steps))


def test_reader_accepts_whitespace_crlf_blank_lines_and_no_final_newline(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"\n 3 \r\n\t12\n\n\r\n0007\n9223372036854775807\n5")
    assert read(path) == [3, 12, 7, 2**63 - 1, 5]


def test_reader_yields_ints_and_int64_chunks(tmp_path):
    path = write_trace(tmp_path / "t.txt", [i % 10 for i in range(3 * CHUNK + 5)])
    assert all(type(x) is int for x in read(path))
    chunks = list(TraceFile(path).chunks())
    assert [len(c) for c in chunks] == [CHUNK, CHUNK, CHUNK, 5]
    assert all(c.dtype == np.int64 for c in chunks)
    assert read(path) == read(path)  # each iteration reads the file again


@pytest.mark.parametrize(
    "line, message",
    [
        ("1.5", "not a base-10 integer"),
        ("abc", "not a base-10 integer"),
        ("+4", "not a base-10 integer"),
        ("1 2", "2 values"),
        ("3\r4", "2 values"),
        ("-3", "negative state -3"),
        ("9223372036854775808", "state 9223372036854775808 does not fit in int64"),
        ("99999999999999999999", "state 99999999999999999999 does not fit in int64"),
    ],
)
@pytest.mark.parametrize("lineno", [2, 3 * CHUNK])
def test_reader_rejects_bad_lines_naming_them(tmp_path, line, message, lineno):
    lines = ["1"] * (lineno - 1) + [line] + ["2"] * 5
    path = tmp_path / "t.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line {lineno}: {message}"):
        read(path)


def test_reader_rejects_a_line_longer_than_a_read(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"1\n2\n" + b" " * (4 * CHUNK) + b"3\n")
    with pytest.raises(ValueError, match="^line 3: longer than"):
        read(path)


def test_reader_max_steps_is_exact(tmp_path):
    states = [i % 7 for i in range(3 * CHUNK + 1)]
    path = write_trace(tmp_path / "t.txt", states, last_newline=False)
    for max_steps in (0, 1, CHUNK // 2, CHUNK, CHUNK + 1, 3 * CHUNK + 1, 10 * CHUNK):
        assert read(path, max_steps) == states[:max_steps]


def test_reader_max_steps_counts_states_and_stops_before_bad_lines(tmp_path):
    path = tmp_path / "t.txt"
    # blank lines are not states; the bad line after the cut is never checked
    path.write_text("4\n\n5\n\n6\nnot a state\n")
    assert read(path, 3) == [4, 5, 6]
    with pytest.raises(ValueError, match="^line 6"):
        read(path, 4)


def test_reader_rejects_negative_max_steps(tmp_path):
    with pytest.raises(ValueError, match="max_steps"):
        states_from_file(tmp_path / "t.txt", -1)


@pytest.mark.parametrize("max_steps", [2.5, 3.0, True, np.float64(3.0), "3"])
def test_reader_max_steps_must_be_an_integer(tmp_path, max_steps):
    # 2.5 read every state of a file with spaces and raised numpy's own error on
    # a digits-only one; 3.0 read 3 states or raised, by the file's format; True read 1.
    path = write_trace(tmp_path / "t.txt", [4, 5, 6, 7])
    for make in (TraceFile, states_from_file):
        with pytest.raises(TypeError, match="^max_steps must be an integer, not "):
            make(path, max_steps)


def test_reader_max_steps_accepts_numpy_integers(tmp_path):
    path = write_trace(tmp_path / "t.txt", [4, 5, 6, 7])
    assert read(path, np.int64(3)) == [4, 5, 6]
    assert read(path, np.uint8(0)) == []


# ---------------------------------------------------------------------------
# the forked reader: a trace parsed in a child and read from its pipe
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def reader(forked):
    """Parse every trace in a forked child (``forked``) or every one in process."""
    with mock.patch.object(sampling, "FORK_READ_STATES", 0 if forked else math.inf):
        yield
    assert multiprocessing.active_children() == []


def chunks_and_extraction(path, max_steps, K, size, wanted, seed, forked):
    """Each chunk's states, then ``extract``'s result or the error it raises."""
    with reader(forked):
        chunks = [(c.dtype, c.tolist()) for c in TraceFile(path, max_steps).chunks()]
        try:
            result = extract(usp_collect, states_from_file(path, max_steps), K, UniformSampler(size), wanted, seed)
        except ValueError as exc:
            result = repr(exc)
    return chunks, result


@st.composite
def trace_texts(draw):
    """Trace file bytes with blank lines, CRLF, spaces and multi-digit states, and its states' range."""
    size = draw(st.integers(1, 12))
    length = draw(st.one_of(st.integers(0, 30), st.integers(CHUNK - 2, 3 * CHUNK + 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = np.cumsum(rng.random(length) < 0.3) % size
    if draw(st.booleans()):  # an occasional state the targets do not cover
        states += size * (rng.random(length) < 0.001)
    pads = np.array(["", "", "", " ", "\t", "  ", "0"])
    lead, trail = pads[rng.integers(len(pads), size=length)], pads[rng.integers(len(pads) - 1, size=length)]
    blank = rng.random(length) < draw(st.sampled_from([0.0, 0.05]))
    ends = np.array(draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"]])))
    end = ends[rng.integers(len(ends), size=length)]
    text = "".join(
        ("\n" * b) + f"{a}{x}{z}{e}" for a, x, z, e, b in zip(lead, states.tolist(), trail, end, blank.tolist())
    )
    if length and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode(), size


@settings(max_examples=60, deadline=None)
@given(
    trace_texts(),
    st.one_of(st.none(), st.integers(0, 4 * CHUNK)),
    st.integers(1, 40),
    st.integers(1, 60),
    st.integers(0, 2**64 - 1),
)
def test_forked_reader_matches_in_process(tmp_path_factory, text_and_size, max_steps, K, wanted, seed):
    text, size = text_and_size
    path = tmp_path_factory.mktemp("trace") / "trace.txt"
    path.write_bytes(text)
    forked = chunks_and_extraction(path, max_steps, K, size, wanted, seed, forked=True)
    in_process = chunks_and_extraction(path, max_steps, K, size, wanted, seed, forked=False)
    assert forked == in_process
    assert all(dtype == np.int64 for dtype, _ in forked[0])


def big_trace(path, states=20 * CHUNK, bad_line=None):
    """A lazy walk on 4 states, one per line; ``bad_line`` (1-based) reads ``x``."""
    rng = np.random.default_rng(5)
    lines = [str(x) for x in np.cumsum(rng.random(states) < 0.5) % 4]
    if bad_line is not None:
        lines[bad_line - 1] = "x"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("forked", [True, False])
@pytest.mark.parametrize("bad_line", [2, 3 * CHUNK, 15 * CHUNK + 7])
def test_forked_reader_raises_a_bad_line_where_the_caller_reaches_it(tmp_path, forked, bad_line):
    path = big_trace(tmp_path / "t.txt", bad_line=bad_line)
    with reader(forked):
        with pytest.raises(ValueError, match=f"^line {bad_line}: not a base-10 integer: b'x'$"):
            list(TraceFile(path).chunks())
        with pytest.raises(ValueError, match=f"^line {bad_line}: "):
            usp_collect(UspEngine(states_from_file(path), 5, UniformSampler(4), 1), 10**6)


@pytest.mark.parametrize("forked", [True, False])
def test_forked_reader_ignores_a_bad_line_after_the_last_chunk_used(tmp_path, forked):
    # The child parses past line 4 * CHUNK before the caller stops; it never reads that far.
    path = big_trace(tmp_path / "t.txt", bad_line=4 * CHUNK)
    engine = UspEngine(states_from_file(path), 5, UniformSampler(4), 1)
    with reader(forked):
        acc = usp_collect(engine, 20)
    assert acc.paths_completed == 20 and engine.stats.source_steps_consumed < CHUNK


def test_missing_trace_raises_before_any_fork(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked for a file that does not open")

    monkeypatch.setattr(sampling, "_fork_context", no_fork)
    with reader(forked=True):
        with pytest.raises(FileNotFoundError):
            list(TraceFile(tmp_path / "missing.txt").chunks())


def test_failed_fork_in_the_reader_closes_both_pipe_ends(tmp_path, monkeypatch):
    path = big_trace(tmp_path / "t.txt")
    pipe, opened = os.pipe, []

    def recording_pipe():
        ends = pipe()
        opened.extend(ends)
        return ends

    def fail(child):
        raise OSError("fork failed")

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", fail)
    with reader(forked=True):
        with pytest.raises(OSError, match="fork failed"):
            list(TraceFile(path).chunks())
    assert len(opened) == 2
    for fd in opened:
        with pytest.raises(OSError):  # EBADF: the end is closed
            os.fstat(fd)


def exit_after_one_chunk(fh, max_steps, parent=os.getpid(), read_chunks=sampling._read_chunks):
    yield from itertools.islice(read_chunks(fh, max_steps), 1)
    if os.getpid() != parent:  # never end the test process itself
        os._exit(3)


@pytest.mark.parametrize("how", ["os._exit", "SIGKILL"])
def test_reader_child_that_dies_raises_with_its_exit_code(tmp_path, monkeypatch, how):
    path = big_trace(tmp_path / "t.txt", states=200 * CHUNK)  # more than the pipe holds
    if how == "os._exit":
        monkeypatch.setattr(sampling, "_read_chunks", exit_after_one_chunk)
    code = 3 if how == "os._exit" else -signal.SIGKILL
    faulthandler.dump_traceback_later(60, exit=True)  # a hang fails the run instead of stalling it
    try:
        with reader(forked=True):
            chunks = TraceFile(path).chunks()
            with pytest.raises(RuntimeError, match=f"^trace reader process exited with code {code} "):
                if how == "SIGKILL":
                    next(chunks)
                    (child,) = multiprocessing.active_children()
                start = time.perf_counter()
                if how == "SIGKILL":
                    os.kill(child.pid, signal.SIGKILL)
                for _ in chunks:
                    pass
            assert time.perf_counter() - start < 1.0
    finally:
        faulthandler.cancel_dump_traceback_later()


def test_early_stop_leaves_no_reader_child(tmp_path):
    path = big_trace(tmp_path / "t.txt")
    with reader(forked=True):
        chunks = TraceFile(path).chunks()
        next(chunks)
        assert len(multiprocessing.active_children()) == 1
        chunks.close()
        assert multiprocessing.active_children() == []
        assert usp_collect(UspEngine(states_from_file(path), 5, UniformSampler(4), 1), 3).paths_completed == 3
        assert multiprocessing.active_children() == []


def test_reader_parses_in_process_without_fork_or_in_a_daemonic_process(tmp_path, monkeypatch):
    path = big_trace(tmp_path / "t.txt")
    with reader(forked=False):
        expected = [c.tolist() for c in TraceFile(path).chunks()]
    with reader(forked=True):
        pool = multiprocessing.get_context("fork").Pool(1)  # a daemonic pool child may not fork
        try:
            nested = pool.apply_async(read, (path,)).get(timeout=60)
        finally:
            pool.close()
            pool.join()
        assert nested == sum(expected, [])
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        chunks = TraceFile(path).chunks()
        assert next(chunks).tolist() == expected[0]
        assert multiprocessing.active_children() == []
        chunks.close()
