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
are processed in fixed-size blocks; workers only decide who runs which
block.  Each block owns one Philox generator and resets its key and counter
for every path instead of building a generator per path.  The ``rng``
handed to ``InitialSampler.sample`` and ``TransitionOracle.next_state`` is
therefore valid only while that path runs and must not be kept.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
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
]

#: Paths per scheduling block.  Fixed (not a tuning knob) so that results
#: cannot depend on how many workers the blocks are dealt to.
BLOCK_SIZE = 1024

#: Stream keys reserved for non-path randomness (path keys are 0..I-1).
TARGET_STREAM_KEY = 2**64 - 1
TRAJECTORY_STREAM_KEY = 2**64 - 2


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


def _draw_block(initial, ups, K, master_seed, start, stop):
    """Start states and per-path uniforms of paths start..stop-1, one row each."""
    streams = _PathStreams(master_seed)
    x0 = np.empty(stop - start, dtype=np.int64)
    uniforms = np.empty((stop - start, K * ups))
    for j in range(stop - start):
        rng = streams(start + j)
        x0[j] = initial.sample(rng)
        rng.random(out=uniforms[j])
    return x0, uniforms


def _step_block(oracle, x0, uniforms, K):
    """Yield the block's states after steps 1..K of the vectorized kernel."""
    ups = uniforms.shape[1] // K
    xs = x0.copy()
    for k in range(K):
        xs = np.asarray(oracle.step_with_uniforms(xs, uniforms[:, k * ups : (k + 1) * ups]))
        yield xs


def _block_failure(start, stop, exc, empty):
    """The error for a vectorized block that failed; `empty` is its (empty) partial."""
    return CollectionError(
        f"simulator failed in block of paths {start}..{stop - 1}: {exc}", partial=empty
    )


def _collect_block_vectorized(oracle, initial, K, master_seed, start, stop):
    # All or nothing: a failure anywhere in the block commits none of its paths.
    try:
        x0, uniforms = _draw_block(initial, oracle.uniforms_per_step, K, master_seed, start, stop)
        steps = _step_block(oracle, x0, uniforms, K)
        counts = np.fromiter((np.count_nonzero(xs == x0) for xs in steps), np.int64, K)
    except Exception as exc:
        raise _block_failure(start, stop, exc, ReturnCountAccumulator.empty(K)) from exc
    acc = ReturnCountAccumulator(counts)
    acc.paths_completed = stop - start
    return acc


def _collect_block_scalar(oracle, initial, K, master_seed, start, stop):
    acc = ReturnCountAccumulator.empty(K)
    returns = np.empty(K, dtype=bool)
    streams = _PathStreams(master_seed)
    for j in range(start, stop):
        rng = streams(j)
        x0 = initial.sample(rng)
        x = x0
        try:
            for k in range(K):
                x = oracle.next_state(x, rng)
                returns[k] = x == x0
        except Exception as exc:
            raise CollectionError(
                f"simulator failed on path {j}: {exc}", partial=acc
            ) from exc
        # Commit only completed paths so counts[k] <= paths_completed holds.
        acc.counts += returns
        acc.paths_completed += 1
    return acc


def _block_ranges(num_paths: int):
    return [(s, min(s + BLOCK_SIZE, num_paths)) for s in range(0, num_paths, BLOCK_SIZE)]


def _run_blocks(num_paths: int, worker_count: int, block_fn: Callable, merge: Callable):
    """Run `block_fn(start, stop)` over fixed blocks and `merge` them in block order.

    On a `CollectionError` the error is re-raised with `partial` holding the
    merge of every block before the failing one plus that block's partial.
    """
    ranges = _block_ranges(num_paths)
    results = []
    try:
        if worker_count == 1 or len(ranges) == 1:
            for start, stop in ranges:
                results.append(block_fn(start, stop))
        else:
            with ThreadPoolExecutor(max_workers=worker_count) as pool:
                futures = [pool.submit(block_fn, start, stop) for start, stop in ranges]
                for fut in futures:
                    results.append(fut.result())
    except CollectionError as exc:
        raise CollectionError(str(exc), partial=merge(results + [exc.partial])) from exc.__cause__
    return merge(results)


def _merge_ordered(accs):
    if not accs:
        raise ValueError("nothing to merge")
    out = accs[0].copy()
    for acc in accs[1:]:
        out.counts = out.counts + acc.counts
        out.paths_completed += acc.paths_completed
    return out


def rtf_collect(engine: RtfEngine) -> ReturnCountAccumulator:
    """Simulate I fresh paths of length K and count per-k returns.

    Each path starts at a state drawn from ``engine.initial``, is stepped
    exactly K times (I*K one-step calls in total, no early exit), and
    contributes one indicator per k.  Vectorized in blocks when the oracle
    provides ``step_with_uniforms``; the scalar fallback produces identical
    counts because both consume the same per-path streams.
    """
    cfg = engine.config
    vectorized = getattr(engine.oracle, "uniforms_per_step", None) is not None
    if vectorized:
        def block_fn(start, stop):
            return _collect_block_vectorized(
                engine.oracle, engine.initial, cfg.max_path_length, engine.master_seed, start, stop
            )
    else:
        def block_fn(start, stop):
            return _collect_block_scalar(
                engine.oracle, engine.initial, cfg.max_path_length, engine.master_seed, start, stop
            )
    return _run_blocks(cfg.num_paths, engine.worker_count, block_fn, _merge_ordered)


def merge_accumulators(accumulators: Iterable[ReturnCountAccumulator]) -> ReturnCountAccumulator:
    """Componentwise sum of count accumulators sharing the same K."""
    accs = list(accumulators)
    if not accs:
        raise ValueError("need at least one accumulator")
    K = accs[0].max_path_length
    for acc in accs[1:]:
        if acc.max_path_length != K:
            raise ValueError(
                f"cannot merge accumulators of lengths {K} and {acc.max_path_length}"
            )
    return _merge_ordered(accs)


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
    draws the i.i.d. uniform regeneration targets.  Each source element is
    inspected exactly once and nothing beyond O(K) counters is retained.
    """

    source: Iterable[int]
    segment_length: int
    target_sampler: InitialSampler
    master_seed: int
    stats: UspStats = field(default_factory=UspStats)
    on_segment: Optional[Callable[[int], None]] = None

    def __post_init__(self):
        if self.segment_length < 1:
            raise ValueError("segment_length must be >= 1")


def usp_collect(engine: UspEngine, num_segments: int) -> ReturnCountAccumulator:
    """Extract up to ``num_segments`` uniformly-started segments, counting returns.

    A segment begins at the first time t strictly after the previous
    segment's end at which the trajectory hits an independently drawn
    uniform target; the strong Markov property makes the emitted segments
    i.i.d. length-K paths with uniform starts.  Source exhaustion is a
    normal partial result: the accumulator reports however many segments
    completed and ``engine.stats.exhausted`` is set.
    """
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


def trajectory_from_oracle(
    oracle: TransitionOracle, start_state: int, master_seed: int, max_steps: int | None = None
) -> Iterator[int]:
    """Stream a single trajectory X_0 = start_state, X_1, ... from the oracle."""
    rng = path_rng(master_seed, TRAJECTORY_STREAM_KEY)
    x = start_state
    counter = itertools.count() if max_steps is None else range(max_steps)
    for i in counter:
        if i == 0:
            yield x
            continue
        x = oracle.next_state(x, rng)
        yield x


def states_from_file(path, max_steps: int | None = None) -> Iterator[int]:
    """Stream 0-based state indices from a newline-separated file."""
    with open(path, "r", encoding="utf-8") as fh:
        sliced = fh if max_steps is None else itertools.islice(fh, max_steps)
        for line in sliced:
            line = line.strip()
            if line:
                yield int(line)
