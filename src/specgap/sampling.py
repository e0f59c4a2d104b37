"""Sampling engines: turn a one-step simulator into per-k return counts.

Two computational models are covered.  The fresh-path engine draws I
independent length-K paths from a chosen initial distribution (and can fan
the work out to parallel workers); the single-trajectory engine extracts
independent uniformly-started segments from one long path by regenerating
at freshly drawn uniform target states.

Randomness discipline: path j draws from the Philox stream with key
(master_seed, j) starting at counter 0, so the collected counts are a pure
function of (master_seed, config, chain) - independent of worker count,
scheduling, and whether the chain is stepped scalar or vectorized.  Paths
are processed in fixed-size blocks added up in block order; workers only
decide who runs which block.  ``worker_count > 1`` runs blocks in threads,
which pays only for heavy kernels, and a failure cancels the blocks not yet
started.  Each block owns one Philox generator and resets its key and counter
for every path instead of building a generator per path.  The ``rng``
handed to ``InitialSampler.sample`` and ``TransitionOracle.next_state`` is
therefore valid only while that path runs and must not be kept.

Each path's start state and its state after step K must be integers in
[0, |S|); one that is not raises ``CollectionError`` as a raising
simulator does.  The states in between are not checked.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .chains import InitialSampler, TransitionOracle
from .estimator import ReturnCountAccumulator, UcpiConfig

__all__ = [
    "RtfEngine",
    "UspEngine",
    "UspStats",
    "CollectionError",
    "rtf_collect",
    "usp_collect",
    "merge_accumulators",
    "trajectory_from_oracle",
    "states_from_file",
    "TraceFile",
]

#: Paths per scheduling block.  Fixed (not a tuning knob) so that results
#: cannot depend on how many workers the blocks are dealt to.
BLOCK_SIZE = 1024

#: Stream keys reserved for non-path randomness (path keys are 0..I-1).
TARGET_STREAM_KEY = 2**64 - 1
TRAJECTORY_STREAM_KEY = 2**64 - 2

#: States per chunk of a single-trajectory source: an iterable source is
#: read CHUNK states at a time, and a trace file 2 * CHUNK bytes at a time,
#: which is CHUNK lines of one-digit states.  Fixed, so that memory does
#: not depend on the trajectory.
CHUNK = 1024

_INT64_MAX = 2**63 - 1


def path_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one path (or reserved stream) of a run."""
    key = np.array([master_seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _PathStreams:
    """Path streams of one block, drawn from a single reused Philox generator.

    Philox is counter-based, so a stream is a pure function of (key,
    counter): resetting the key to (master_seed, j), the counter to 0 and
    emptying the output buffers makes ``self(j)`` draw exactly what
    ``path_rng(master_seed, j)`` draws.  Calling it again invalidates the
    generator it returned before.  Build one per block, so that blocks
    running concurrently never share a bit generator.
    """

    def __init__(self, master_seed: int):
        self._key = np.array([master_seed % 2**64, 0], dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bit_generator = np.random.Philox(key=self._key)
        self._rng = np.random.Generator(self._bit_generator)

    def __call__(self, stream: int) -> np.random.Generator:
        # `_state` holds `_key` itself, so this re-keys the state set below.
        self._key[1] = stream % 2**64
        self._bit_generator.state = self._state
        return self._rng


class CollectionError(RuntimeError):
    """A simulator failure mid-collection; carries the counts gathered so far.

    ``partial.paths_completed`` reflects fully finished paths only, so the
    partial accumulator is still a valid (more conservative) input for
    estimation after shrinking the config to the completed path count.
    """

    def __init__(self, message: str, partial: ReturnCountAccumulator):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class RtfEngine:
    """Fresh-path collection plan: I paths of length K from `initial` starts."""

    oracle: TransitionOracle
    initial: InitialSampler
    config: UcpiConfig
    master_seed: int
    worker_count: int = 1

    def __post_init__(self):
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")


def _check_range(states, n, what):
    """Raise ValueError unless every one of the integer ``states`` lies in [0, n)."""
    lo, hi = states.min(), states.max()
    if lo < 0 or hi >= n:
        raise ValueError(f"{what} {lo if lo < 0 else hi} outside [0, {n})")


def _draw_block(engine, start, stop):
    """Start states and per-path uniforms of paths start..stop-1, one row each."""
    K, ups = engine.config.max_path_length, engine.oracle.uniforms_per_step
    streams = _PathStreams(engine.master_seed)
    x0 = np.empty(stop - start, dtype=np.int64)
    uniforms = np.empty((stop - start, K * ups))
    for j in range(stop - start):
        rng = streams(start + j)
        x0[j] = operator.index(engine.initial.sample(rng))
        rng.random(out=uniforms[j])
    _check_range(x0, engine.config.state_space_size, "start state")
    return x0, uniforms


def _step_block(oracle, x0, uniforms, K, n):
    """Yield the block's states after steps 1..K; each step must give one int per path.

    The states after step K must lie in [0, n).  They are checked before the
    last yield, because the consumer stops pulling after K states.
    """
    ups = uniforms.shape[1] // K
    xs = x0.copy()  # a kernel may write into its input
    for k in range(K):
        xs = np.asarray(oracle.step_with_uniforms(xs, uniforms[:, k * ups : (k + 1) * ups]))
        if xs.shape != x0.shape or xs.dtype.kind not in "iu":
            raise TypeError(
                f"step_with_uniforms returned {xs.dtype} of shape {xs.shape}, "
                f"expected integer states of shape {x0.shape}"
            )
        if k == K - 1:
            _check_range(xs, n, "final state")
        yield xs


def _collect_block_vectorized(engine, empty, weight, start, stop):
    acc = empty.copy()
    K = engine.config.max_path_length
    # All or nothing: a failure anywhere in the block commits none of its paths.
    try:
        x0, uniforms = _draw_block(engine, start, stop)
        steps = _step_block(engine.oracle, x0, uniforms, K, engine.config.state_space_size)
        if weight is None:
            counts = np.fromiter((np.count_nonzero(xs == x0) for xs in steps), np.int64, K)
        else:
            weights = np.fromiter((weight(int(x)) for x in x0), float, len(x0))
            counts = np.fromiter((weights @ (xs == x0) for xs in steps), float, K)
    except Exception as exc:
        raise CollectionError(
            f"simulator failed in block of paths {start}..{stop - 1}: {exc}", partial=acc
        ) from exc
    acc.counts += counts
    acc.paths_completed = stop - start
    return acc


def _collect_block_scalar(engine, empty, weight, start, stop):
    acc = empty.copy()
    next_state, sample = engine.oracle.next_state, engine.initial.sample
    K, n = engine.config.max_path_length, engine.config.state_space_size
    returns = np.empty(K, dtype=bool)
    streams = _PathStreams(engine.master_seed)
    for j in range(start, stop):
        rng = streams(j)
        try:
            x = x0 = operator.index(sample(rng))
            if not 0 <= x0 < n:
                raise ValueError(f"start state {x0} outside [0, {n})")
            w = None if weight is None else weight(x0)
            for k in range(K):
                x = next_state(x, rng)
                returns[k] = x == x0
            if not 0 <= operator.index(x) < n:
                raise ValueError(f"final state {x} outside [0, {n})")
        except Exception as exc:
            raise CollectionError(
                f"simulator failed on path {j}: {exc}", partial=acc
            ) from exc
        # Commit only completed paths so counts[k] <= paths_completed holds.
        acc.counts += returns if w is None else returns * w
        acc.paths_completed += 1
    return acc


def _add(total: ReturnCountAccumulator, acc: ReturnCountAccumulator) -> ReturnCountAccumulator:
    """Add ``acc`` into ``total`` and return ``total``."""
    total.counts = total.counts + acc.counts
    total.paths_completed += acc.paths_completed
    return total


def _collect(engine: RtfEngine, empty: ReturnCountAccumulator, weight=None):
    """Run ``engine``'s blocks into copies of ``empty`` and add them in block order.

    A path adds 1 to ``counts[k-1]`` when it is back at its start x0 after k
    steps, or ``weight(x0)`` when a weight is given; a raising ``weight``
    fails the path like a raising simulator.  A ``CollectionError``'s
    ``partial`` holds the blocks before the failing one plus its own partial.
    """
    vectorized = getattr(engine.oracle, "uniforms_per_step", None) is not None
    block = functools.partial(
        _collect_block_vectorized if vectorized else _collect_block_scalar, engine, empty, weight
    )
    starts = range(0, engine.config.num_paths, BLOCK_SIZE)
    stops = [*starts[1:], engine.config.num_paths]
    total = empty.copy()
    serial = engine.worker_count == 1
    with nullcontext() if serial else ThreadPoolExecutor(engine.worker_count) as pool:
        try:
            for acc in (map if serial else pool.map)(block, starts, stops):
                _add(total, acc)
        except CollectionError as exc:
            raise CollectionError(str(exc), partial=_add(total, exc.partial)) from exc.__cause__
    return total


def rtf_collect(engine: RtfEngine) -> ReturnCountAccumulator:
    """Simulate I fresh paths of length K and count per-k returns.

    Each path starts at a state drawn from ``engine.initial``, is stepped
    exactly K times (I*K one-step calls in total, no early exit), and
    contributes one indicator per k.  Vectorized in blocks when the oracle
    provides ``step_with_uniforms``; the scalar fallback produces identical
    counts because both consume the same per-path streams.
    """
    return _collect(engine, ReturnCountAccumulator.empty(engine.config.max_path_length))


def merge_accumulators(accumulators: Iterable[ReturnCountAccumulator]) -> ReturnCountAccumulator:
    """Componentwise sum of count accumulators sharing the same K.

    Importance-weighted accumulators merge only with each other, and only
    when they share ``w_max``.
    """
    accs = list(accumulators)
    if not accs:
        raise ValueError("need at least one accumulator")
    K = accs[0].max_path_length
    w_max = getattr(accs[0], "w_max", None)
    for acc in accs[1:]:
        if acc.max_path_length != K:
            raise ValueError(
                f"cannot merge accumulators of lengths {K} and {acc.max_path_length}"
            )
        other = getattr(acc, "w_max", None)
        if (other is None) != (w_max is None):
            raise ValueError("cannot merge weighted and unweighted accumulators")
        if other != w_max:
            raise ValueError(f"cannot merge accumulators with w_max {w_max} and {other}")
    return functools.reduce(_add, accs[1:], accs[0].copy())


# ---------------------------------------------------------------------------
# Single-trajectory (streaming regeneration) engine
# ---------------------------------------------------------------------------


@dataclass
class UspStats:
    """Bookkeeping for segment extraction from a single trajectory."""

    segments_emitted: int = 0
    source_steps_consumed: int = 0
    total_wait: int = 0
    max_wait: int = 0
    exhausted: bool = False

    @property
    def mean_wait(self) -> float:
        """Average regeneration wait beyond the forced K-step spacing."""
        if self.segments_emitted == 0:
            return float("nan")
        return self.total_wait / self.segments_emitted


@dataclass
class UspEngine:
    """Segment-extraction plan over a single source trajectory.

    ``source`` yields successive states X_0, X_1, ...; ``target_sampler``
    draws the i.i.d. uniform regeneration targets.  ``usp_collect`` reads
    the source as int64 chunks: a source with a ``chunks()`` method (such
    as ``states_from_file``) hands them over itself, and any other iterable
    is read ``CHUNK`` states at a time, so up to ``CHUNK - 1`` states past
    the last one used may be drawn from it.  Each state is inspected once,
    and memory stays O(CHUNK + K) however long the trajectory.  ``stats``
    is not a parameter: ``usp_collect`` fills it in.
    """

    source: Iterable[int]
    segment_length: int
    target_sampler: InitialSampler
    master_seed: int
    stats: UspStats = field(default_factory=UspStats, init=False)
    on_segment: Optional[Callable[[int], None]] = None

    def __post_init__(self):
        if self.segment_length < 1:
            raise ValueError("segment_length must be >= 1")


def _int64_chunks(source) -> Iterator[np.ndarray]:
    """The source's states as int64 arrays: its own chunks, or ``CHUNK`` at a time."""
    chunks = getattr(source, "chunks", None)
    if chunks is not None:
        yield from chunks()
        return
    it = iter(source)
    while True:
        chunk = np.fromiter(itertools.islice(it, CHUNK), np.int64)
        if not chunk.size:
            return
        yield chunk


def usp_collect(engine: UspEngine, num_segments: int) -> ReturnCountAccumulator:
    """Extract up to ``num_segments`` uniformly-started segments, counting returns.

    A segment begins at the first time t strictly after the previous
    segment's end at which the trajectory hits an independently drawn
    uniform target; the strong Markov property makes the emitted segments
    i.i.d. length-K paths with uniform starts.  Source exhaustion is a
    normal partial result: the accumulator reports however many segments
    completed and ``engine.stats.exhausted`` is set.

    The source is read in int64 chunks in O(CHUNK + K) memory; an iterable
    without ``chunks()`` may be read up to ``CHUNK - 1`` states past the
    last one used (see ``UspEngine``).  Each start is found by one
    vectorized search of the chunk for the target, and a segment's K return
    indicators ``x[t+1:t+K+1] == x[t]`` are compared in one operation; a
    segment that runs past the end of a chunk is finished in the next.
    ``stats.source_steps_consumed`` counts the states up to the last one
    used, not those read ahead.
    """
    if num_segments < 1:
        raise ValueError("num_segments must be >= 1")
    K = engine.segment_length
    acc = ReturnCountAccumulator.empty(K)
    stats = engine.stats
    rng = path_rng(engine.master_seed, TARGET_STREAM_KEY)

    target = engine.target_sampler.sample(rng)
    boundary = 0  # previous segment start + K; next start must satisfy t > boundary
    start_state = None  # start of the segment being filled; None while searching
    filled = 0  # steps of that segment seen so far
    returns = np.empty(K, dtype=bool)
    offset = 0  # source index of the current chunk's first state

    for x in _int64_chunks(engine.source):
        n = len(x)
        i = 0  # next position of x to read while filling
        while True:
            if start_state is not None:
                take = min(K - filled, n - i)
                np.equal(x[i : i + take], start_state, out=returns[filled : filled + take])
                filled += take
                i += take
                if filled < K:
                    break
                acc.counts += returns
                acc.paths_completed += 1
                stats.segments_emitted += 1
                if engine.on_segment is not None:
                    engine.on_segment(start_state)
                if acc.paths_completed == num_segments:
                    stats.source_steps_consumed = offset + i
                    return acc
                start_state = None
                target = engine.target_sampler.sample(rng)
            lo = max(0, boundary + 1 - offset)
            if lo >= n:
                break
            hits = x[lo:] == target
            j = lo + int(hits.argmax())
            if not hits[j - lo]:
                break
            wait = offset + j - boundary
            stats.total_wait += wait
            stats.max_wait = max(stats.max_wait, wait)
            start_state = int(x[j])
            boundary = offset + j + K
            filled = 0
            i = j + 1
        offset += n
        x = hits = None  # not held while the next chunk is read

    stats.source_steps_consumed = offset
    stats.exhausted = True
    return acc


def trajectory_from_oracle(
    oracle: TransitionOracle, start_state: int, master_seed: int, max_steps: int | None = None
) -> Iterator[int]:
    """Stream a single trajectory X_0 = start_state, X_1, ... from the oracle."""
    rng = path_rng(master_seed, TRAJECTORY_STREAM_KEY)
    x = start_state
    if max_steps is None or max_steps > 0:
        yield x
    for _ in itertools.count() if max_steps is None else range(max_steps - 1):
        x = oracle.next_state(x, rng)
        yield x


class TraceFile:
    """A trajectory file read in chunks: one base-10 state per line.

    A line holds one non-negative integer that fits in int64, with optional
    spaces and tabs around it; lines end in LF or CRLF, and blank lines are
    skipped.  Any other line raises ``ValueError`` naming its 1-based
    number, as does a line longer than ``2 * CHUNK`` bytes.  At most
    ``max_steps`` states are read, and lines after the last of them are
    not checked.  ``chunks()`` reads the file ``2 * CHUNK`` bytes at a time and
    yields the states of each read's whole lines as one int64 array;
    iterating yields them as ints.  Each iteration reopens the file.
    """

    def __init__(self, path, max_steps: int | None = None):
        if max_steps is not None and max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        self.path = path
        self.max_steps = max_steps

    def __iter__(self) -> Iterator[int]:
        for chunk in self.chunks():
            yield from chunk.tolist()

    def chunks(self) -> Iterator[np.ndarray]:
        left = math.inf if self.max_steps is None else self.max_steps
        line = 1  # number of the first line in `block`
        pending = b""  # the unfinished last line of the previous read
        with open(self.path, "rb", buffering=0) as fh:
            while left > 0:
                data = fh.read(2 * CHUNK)
                block = pending + data
                end = block.rfind(b"\n") + 1 if data else len(block)
                states = _parse_lines(block, end, line, left)
                if states.size:
                    left -= states.size
                    yield states
                    states = None  # not held while the next read is parsed
                if not data:
                    return
                line += block.count(b"\n", 0, end)
                pending = block[end:]
                if len(pending) > 2 * CHUNK:
                    raise ValueError(f"line {line}: longer than {2 * CHUNK} bytes")


def _parse_lines(data: bytes, end: int, first_line: int, limit) -> np.ndarray:
    """The first ``limit`` states on the whole lines ``data[:end]``, as int64.

    Lines of digits alone go to one ``np.fromstring`` call; a chunk with
    anything else (spaces, blank lines, a value that may not fit in int64,
    a bad line) is parsed line by line in Python instead.
    """
    if b"\r" in data:
        data = data[:end].replace(b"\r\n", b"\n")
        end = len(data)
    blank = data.startswith(b"\n") or data.find(b"\n\n", 0, end) >= 0
    if end and not blank and not data.translate(None, b"0123456789\n"):
        lines = data.count(b"\n", 0, end) + (data[end - 1] != ord("\n"))
        states = np.fromstring(data, np.int64, count=min(lines, limit), sep="\n")
        if states.max() < _INT64_MAX:  # an overflowing line parses as _INT64_MAX
            return states
    return _scan_lines(data[:end], first_line, limit)


def _scan_lines(text: bytes, first_line: int, limit) -> np.ndarray:
    """``_parse_lines`` one line at a time; raises on the first bad line."""
    states = []
    for number, line in enumerate(text.split(b"\n"), first_line):
        if len(states) == limit:
            break
        value = line.strip(b" \t\r")
        if not value:
            continue
        if not value.isdigit():
            fields = value.split()
            if len(fields) > 1:
                raise ValueError(f"line {number}: {len(fields)} values, expected one state")
            if value[:1] == b"-" and value[1:].isdigit():
                raise ValueError(f"line {number}: negative state {value.decode()}")
            raise ValueError(f"line {number}: not a base-10 integer: {value!r}")
        state = int(value)
        if state > _INT64_MAX:
            raise ValueError(f"line {number}: state {state} does not fit in int64")
        states.append(state)
    return np.array(states, dtype=np.int64)


def states_from_file(path, max_steps: int | None = None) -> TraceFile:
    """The 0-based states of a trajectory file, one per line (see ``TraceFile``)."""
    return TraceFile(path, max_steps)
