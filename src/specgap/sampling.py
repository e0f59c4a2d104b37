"""Sampling engines: turn a one-step simulator into per-k return counts.

Two computational models are covered.  The fresh-path engine draws I
independent length-K paths from a chosen initial distribution; the
single-trajectory engine extracts independent uniformly-started segments
from one long path by regenerating at freshly drawn uniform target states.

Fresh paths run through one collector.  It reads the start law's
``min_pmf`` once, and unless ``min_pmf * |S|`` lies in (0, 1 + 1e-12] it
raises ``ValueError`` before any path runs: such a law cannot give mass to
every state of [0, |S|).  So does an oracle whose ``state_space_size()``
differs from the config's |S|.  A uniform law (``min_pmf == 1/|S|``) counts
returns as integers; any other law, and every ``weighted_collect`` call,
adds min_pmf/pmf(x0) per return.

Randomness discipline: path j draws from the Philox stream with key
(master_seed, j) starting at counter 0, so the collected counts are a pure
function of (master_seed, config, chain) - independent of how the paths are
split into blocks, of the process that runs a block and of whether the
chain is stepped scalar or vectorized.  One Philox generator resets its key
and counter for every path instead of building a generator per path.  The
``rng`` handed to ``InitialSampler.sample`` and
``TransitionOracle.next_state`` is therefore valid only while that path
runs and must not be kept.  A vectorized block draws each path's start and
then its K uniforms; under a plain ``UniformSampler`` of 2 to 2**32 states
it draws the path's first 64-bit word raw and maps the block's words to
starts at once, as ``sample`` would
(``UniformSampler.sample_from_first_words``).

Block protocol.  Paths run in fixed-size blocks, and a block is a
generator of rows that raises the simulator's failure.  A row is one
array of K + 1 items in the accumulator's dtype: the paths the block
completed, then their K counts (a float64 row holds a path count of at
most ``BLOCK_SIZE`` exactly).  A vectorized block yields its row once or
raises before yielding; a scalar block yields the row of the paths it
completed and then raises, so a failing path's block still hands over
the paths before it.  One loop adds the rows into one accumulator in
block order, and its one ``except`` turns a failure into the
``CollectionError``: the first path not yet added,
``partial.paths_completed``, names the failing block.  With a vectorized
oracle (``step_with_uniforms``) and ``worker_count`` > 1, the blocks are
dealt in turn to up to ``worker_count`` forked children (below): of w
children, child c computes blocks c, c + w, c + 2w, ... and sends each
block's row down its pipe as soon as it has it.  The parent reads one row
from each child in turn, which is block order, and adds them as it adds
rows computed in process, so the counts are bit-identical at any worker
count.  A child sends the rows before its first failure, then the
failure; a child that dies (a signal, a crash in native code) raises its
exit code at its turn.  Either way the partial holds every block before
the first one the parent did not receive, a dead child's blocks sent
before it died included.  Forking costs some 10-30 ms a call on a 2-vCPU
VM, so a call of a few blocks can be slower than serial.  A stateful
oracle's or sampler's state lives in each child: the caller's copy does
not see their calls.  Scalar-only oracles run every block in the calling
thread, because black-box simulators are often stateful and their
callers may count their calls, and because of the turns: after a scalar
block's short row, the parent reads the next child's row, or that
child's clean end, before the short block's failure, so it would add a
later block or miss the failure.  Pooling them needs the parent to stop
adding after a short block.

Each path's start state and its state after step K must be integers in
[0, |S|); one that is not raises ``CollectionError`` as a raising
simulator does.  The states in between are not checked.

A trace file of at least ``FORK_READ_STATES`` states is parsed in a forked
child (below) that streams its int64 chunks while ``usp_collect`` extracts
segments from the chunks already sent; the chunks and every error are
those of the in-process parser (see ``TraceFile``).  Each process holds
O(CHUNK + K) memory.

Forked children.  Both uses above run through one runner,
``_in_children``, whose life has four parts:

- Start: one daemonic child per job, forked from the Linux ``fork``
  context, inherits the job's arguments rather than receiving them
  pickled, so oracles need not be picklable.  Each child has its own
  pipe, and the parent closes its copy of the write end.
- Send: the child ignores SIGINT, so a Ctrl-C to the process group
  interrupts the parent alone, whose stop ends the children.  It writes
  each array its job yields (a collection child's rows, the reader's
  chunks) as an int64 item count followed by the items, then
  ``-1 - len(failure)`` and the pickled exception the job raised, if any
  (an empty failure when it ended cleanly); an exception that does not
  survive pickling is sent as a ``RuntimeError`` naming its type.  A
  lone child buffers ``_PIPE_BATCH`` bytes a write.  Children that take
  turns flush each array through the same buffered writer as soon as it
  is written, because the parent waits for it before it reads the
  others, and so that a child that dies has sent every array it wrote.
- Receive: the parent reads one array from each child in turn, each into
  a buffer of exactly its size, and ends at the first child whose stream
  ends, raising that child's failure, if any; for one child this is
  reading it to its end.  Jobs are therefore dealt so that once one has
  no array left in a turn, no later one has either.  A pipe that ends
  before the end marker (a signal, ``os._exit``, a crash in native code)
  raises ``RuntimeError`` naming the child's exit code at that child's
  turn.  A child never runs more than its pipe and write buffer ahead of
  the parent, and holds only the array it is computing besides: O(K)
  memory for a collection child and O(CHUNK) for the trace reader, plus
  the pipe, however long the run.
- Stop: every child is terminated, joined and closed, and every pipe
  closed, when the stream ends, is closed or fails, so no child outlives
  the call that started it.

Without ``fork``, and in a daemonic process, which may not start
children, the runner hands back its one job's stream, computed in the
calling thread, so both uses make one call either way.  From Python
3.12, forking a process that holds threads (a BLAS pool, say) raises a
``DeprecationWarning``.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .chains import InitialSampler, SquaredChainOracle, TransitionOracle, UniformSampler
from .estimator import (
    ReturnCountAccumulator,
    UcpiConfig,
    UcpiEstimate,
    WeightedReturnAccumulator,
    _require_integer,
    finalize_estimate,
    relaxation_upper_bound,
)

__all__ = [
    "RtfEngine",
    "UspEngine",
    "UspStats",
    "CollectionError",
    "NonLazyEstimate",
    "rtf_collect",
    "weighted_collect",
    "estimate_nonlazy",
    "usp_collect",
    "trajectory_from_oracle",
    "states_from_file",
    "TraceFile",
]

#: Paths per block.  Fixed (not a tuning knob): weighted float sums are added
#: up block by block, and a vectorized block holds its B x K uniforms at once.
BLOCK_SIZE = 1024

#: Stream keys reserved for non-path randomness (path keys are 0..I-1).
TARGET_STREAM_KEY = 2**64 - 1
TRAJECTORY_STREAM_KEY = 2**64 - 2

#: States per chunk of a single-trajectory source: an iterable source is
#: read CHUNK states at a time, and a trace file 2 * CHUNK bytes at a time,
#: which is CHUNK lines of one-digit states.  Fixed, so that memory does
#: not depend on the trajectory.
CHUNK = 1024

#: States from which a ``TraceFile`` is parsed in a forked reader child.
#: Fixed and measured on a 2-vCPU VM: the fork costs about 6 ms and the overlap
#: saves about 30 ns a state, so extraction over 2**17 states ran 23% slower
#: forked and over 2**18 states 3% faster.
FORK_READ_STATES = 2**18

_INT64_MAX = 2**63 - 1

#: Bytes a lone forked child buffers per write to its pipe: fewer, larger
#: writes wake the reading parent less often than one write per array, which
#: made the trace reader 25% slower over 2**21 states.  Children that take
#: turns flush each array instead (see the module docstring).
_PIPE_BATCH = 32768


def path_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one path (or reserved stream) of a run."""
    key = np.array([int(master_seed) % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _PathStreams:
    """Path streams of one block, drawn from a single reused Philox generator.

    Philox is counter-based, so a stream is a pure function of (key,
    counter): resetting the key to (master_seed, j), the counter to 0 and
    emptying the output buffers makes ``self(j)`` draw exactly what
    ``path_rng(master_seed, j)`` draws.  Calling it again invalidates the
    generator it returned before, so one instance serves paths that run
    one after another, such as those of one collection.  ``random_raw``
    draws the current stream's next 64-bit word, which a vectorized block
    turns into a uniform start without ``Generator.integers``.

    The state holds Python ints, not uint64 arrays: numpy's setter reads
    its ten words one item at a time, and assigning the state took 381 ns
    from Python ints against 967 ns from uint64 arrays (timeit, Python
    3.11.7, numpy 2.4.6), once per path.
    """

    def __init__(self, master_seed: int):
        self._key = [int(master_seed) % 2**64, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bit_generator = np.random.Philox(key=np.array(self._key, dtype=np.uint64))
        self._rng = np.random.Generator(self._bit_generator)
        self.random_raw = self._bit_generator.random_raw

    def __call__(self, stream: int) -> np.random.Generator:
        # `_state` holds `_key` itself, so this re-keys the state set below.
        self._key[1] = stream % 2**64
        self._bit_generator.state = self._state
        return self._rng


class CollectionError(RuntimeError):
    """A simulator failure mid-collection; carries the counts gathered so far.

    ``partial.paths_completed`` reflects fully finished paths only, and
    ``finalize_estimate`` takes it as I, so the partial finalizes as it is
    under the run's own config, to a valid (more conservative) bound.
    """

    def __init__(self, message: str, partial: ReturnCountAccumulator):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class RtfEngine:
    """Fresh-path collection plan: I paths of length K from `initial` starts.

    ``worker_count``, an integer of at least 1, caps the child processes
    forked to compute a vectorized oracle's blocks, which they take in
    turn, each with its own copy of the oracle and the sampler, and send
    back as rows of their path count and counts.  A scalar-only oracle
    runs in the calling thread at any count.  The module docstring
    describes the rows, the children and their cost.
    """

    oracle: TransitionOracle
    initial: InitialSampler
    config: UcpiConfig
    master_seed: int
    worker_count: int = 1

    def __post_init__(self):
        _require_integer("master_seed", self.master_seed)
        _require_integer("worker_count", self.worker_count, 1)


def _check_range(states, n, what):
    """Raise ValueError unless every one of the integer ``states`` lies in [0, n)."""
    lo, hi = states.min(), states.max()
    if lo < 0 or hi >= n:
        raise ValueError(f"{what} {lo if lo < 0 else hi} outside [0, {n})")


def _collect_block_vectorized(engine, weight, streams, start, stop):
    """Yield the row of paths ``start..stop-1`` once; raises what the simulator raises.

    Each path's K uniforms follow its start on its stream.  A plain
    ``UniformSampler`` start comes from the path's first word (see the
    module docstring), and a path that word cannot place is redrawn with
    ``sample``; any other start law calls ``sample`` for every path.
    """
    K, n = engine.config.max_path_length, engine.config.state_space_size
    ups = engine.oracle.uniforms_per_step
    uniforms = np.empty((stop - start, K * ups))
    initial = engine.initial
    # Exact type: a subclass may override `sample`, which the words would bypass.
    if type(initial) is UniformSampler and 2 <= initial.size <= 2**32:
        words, random_raw = np.empty(stop - start, dtype=np.uint64), streams.random_raw
        for i, u in enumerate(uniforms):
            rng = streams(start + i)
            words[i] = random_raw()
            rng.random(out=u)
        x0 = initial.sample_from_first_words(words)
        redraw = np.flatnonzero(x0 < 0).tolist()  # paths whose start needs a later word
    else:
        x0, redraw = np.empty(stop - start, dtype=np.int64), range(stop - start)
    sample = initial.sample
    for i in redraw:
        rng = streams(start + i)
        x0[i] = operator.index(sample(rng))
        rng.random(out=uniforms[i])
    _check_range(x0, n, "start state")
    weights = None if weight is None else np.fromiter(map(weight, x0.tolist()), float, len(x0))
    row = np.empty(K + 1, dtype=np.int64 if weight is None else float)
    row[0], counts = stop - start, row[1:]
    xs = x0.copy()  # a kernel may write into its input
    for k in range(K):
        xs = np.asarray(engine.oracle.step_with_uniforms(xs, uniforms[:, k * ups : (k + 1) * ups]))
        if xs.shape != x0.shape or xs.dtype.kind not in "iu":
            raise TypeError(
                f"step_with_uniforms returned {xs.dtype} of shape {xs.shape}, "
                f"expected integer states of shape {x0.shape}"
            )
        counts[k] = np.count_nonzero(xs == x0) if weights is None else weights @ (xs == x0)
    _check_range(xs, n, "final state")
    yield row


def _block_counts(collect_block, engine, weight, blocks):
    """Yield the row of each of ``blocks`` in order; the first failure raises."""
    streams = _PathStreams(engine.master_seed)
    for start, stop in blocks:
        yield from collect_block(engine, weight, streams, start, stop)


def _fork_context():
    """The ``fork`` multiprocessing context, or None without ``fork`` or in a daemonic process.

    A daemonic process may not start children.  This imports multiprocessing,
    so callers ask only once they would fork.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.current_process().daemon:
        return None
    return multiprocessing.get_context("fork")


def _in_children(fork, produce, jobs, dtype, died) -> Iterator[np.ndarray]:
    """Fork a child for each of ``jobs``; return a stream of the ``dtype`` arrays of their ``produce(*job)``.

    Every child has started when this returns, and a failed fork raises
    here rather than from the stream; the module docstring describes the
    children's start, wire format, receive and stop.  A child whose pipe
    ends early raises ``RuntimeError(died.format(exit_code))``.  With
    ``fork`` None, ``jobs`` holds one job, and this returns its
    ``produce(*job)`` itself, to run in the calling thread.
    """
    if fork is None:
        (job,) = jobs
        return produce(*job)
    stream = _child_stream(fork, produce, jobs, dtype, died)
    next(stream)  # runs the start
    return stream


def _child_stream(fork, produce, jobs, dtype, died):
    """``_in_children``' generator: yields None once every child has started, then their arrays in turn."""
    children, pipes, turns = [], [], len(jobs) > 1
    try:
        for job in jobs:
            r, w = os.pipe()
            pipes.append(open(r, "rb", buffering=0))
            with open(w, "wb", buffering=0):  # closed here, the child's copy alone keeps the pipe open
                # The arguments are inherited, not pickled.
                child = fork.Process(target=_send, args=(w, produce, job, dtype, turns), daemon=True)
                child.start()
            children.append(child)
        yield
        count = np.empty(1, np.int64)
        for child, pipe in itertools.cycle(zip(children, pipes)):
            if _read_into(pipe, count, child, died)[0] < 0:
                break
            yield _read_into(pipe, np.empty(count[0], dtype), child, died)  # not held while the next is read
        failure = _read_into(pipe, bytearray(-1 - int(count[0])), child, died)
        if failure:
            raise pickle.loads(failure)
    finally:
        for child in children:
            child.terminate()
            child.join()
            child.close()
        for pipe in pipes:
            pipe.close()


def _send(w, produce, job, dtype, turns):
    """In the child: write the ``dtype`` arrays of ``produce(*job)``, then its failure, to the pipe end ``w``.

    An array of another dtype fails the job with numpy's ``TypeError``
    rather than reaching the parent as bytes it would misread.  A child
    that takes ``turns`` with others flushes each array as it writes it.
    The child ignores SIGINT: the parent's stop terminates it, and an
    interrupt would only print its traceback to the shared stderr.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with open(w, "wb", buffering=_PIPE_BATCH) as out:
        failure = b""
        try:
            for array in produce(*job):
                array = array.astype(dtype, casting="equiv", copy=False)  # raises before its count is written
                out.write(np.int64(array.size))
                out.write(array)
                if turns:
                    out.flush()
        except Exception as exc:
            try:
                failure = pickle.dumps(exc)
                pickle.loads(failure)
            except Exception:  # one that does not survive pickling is sent named
                failure = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        out.write(np.int64(-1 - len(failure)))
        out.write(failure)


def _read_into(pipe, buf, child, died):
    """Fill ``buf`` from ``pipe`` and return it, or raise naming ``child``'s exit code if the pipe ends first."""
    view = memoryview(buf).cast("B")
    while view:
        got = pipe.readinto(view)
        if not got:
            child.join()
            raise RuntimeError(died.format(child.exitcode))
        view = view[got:]
    return buf


def _collect_block_scalar(engine, weight, streams, start, stop):
    """Yield the row of the paths of ``start..stop-1`` completed before any failure, then raise it.

    A uniform start law adds each path's K return indicators as integers
    into the row's counts.  Weighted starts keep the block's K x B return
    matrix and its weights, and sum each k over the m paths completed as
    the vectorized block does, ``weights[:m] @ returns[k, :m]``, so the two
    sums are bit-identical.
    """
    next_state, sample = engine.oracle.next_state, engine.initial.sample
    K, n = engine.config.max_path_length, engine.config.state_space_size
    row = np.zeros(K + 1, dtype=np.int64 if weight is None else float)
    counts = row[1:]  # a view, so the per-path add allocates nothing
    if weight is None:
        returns = np.empty(K, dtype=bool)
    else:
        returns, weights = np.empty((K, stop - start), dtype=bool), np.empty(stop - start)

    def row_of(m):  # the block's row over its first m paths
        row[0] = m
        if weight is not None:
            counts[:] = [weights[:m] @ returns[k, :m] for k in range(K)]
        return row

    for j in range(start, stop):
        rng = streams(j)
        path = returns if weight is None else returns[:, j - start]
        try:
            x = x0 = operator.index(sample(rng))
            if not 0 <= x0 < n:
                raise ValueError(f"start state {x0} outside [0, {n})")
            if weight is not None:
                weights[j - start] = weight(x0)
            for k in range(K):
                x = next_state(x, rng)
                path[k] = x == x0
            if not 0 <= operator.index(x) < n:
                raise ValueError(f"final state {x} outside [0, {n})")
        except Exception:
            yield row_of(j - start)  # path j is torn, so counts[k] <= paths holds
            raise
        if weight is None:
            counts += returns
    yield row_of(stop - start)


def _collect(engine: RtfEngine, weighted: bool = False) -> ReturnCountAccumulator:
    """Run ``engine``'s blocks and add them in block order into one accumulator; return it.

    A start law that cannot reach every state, and then an oracle whose
    ``state_space_size()`` is not the config's, raise ``ValueError`` before
    any path runs.  The oracle's kind, read once, picks the block function,
    and one worker for a scalar-only oracle.  The start law decides the
    counting (see the module docstring); a start whose pmf is zero or below
    ``min_pmf`` (a weight above 1) fails its path like a raising simulator.
    The rows come from ``_block_counts``, run by ``_in_children``: in this
    thread as one job, or in forked children that are dealt the blocks in
    turn, so that the stream yields block i's row i-th.  Either stream
    raises the first failure after the rows before it (see the module
    docstring), and the loop adds each row's counts and path count.
    The one ``except`` raises ``CollectionError`` naming the block that
    holds ``acc.paths_completed``, the first path not added, with ``acc`` as
    the partial: a scalar block's completed paths (``paths_completed`` is
    the failing path's index), a vectorized block's all or none, and no
    later block.  A child that exits after sending its last row, when
    every path is added, raises it with its exit code and the full
    partial.  Forked children are gone when this returns or raises.
    """
    initial, cfg, n = engine.initial, engine.config, engine.config.state_space_size
    min_pmf = initial.min_pmf()
    if not 0.0 < min_pmf * n <= 1.0 + 1e-12:
        raise ValueError(f"start law min_pmf {min_pmf} cannot give mass to all {n} states")
    oracle_states = engine.oracle.state_space_size()
    if oracle_states != n:
        raise ValueError(f"oracle has {oracle_states} states, config has {n}")
    if min_pmf == 1.0 / n and not weighted:
        acc, weight = ReturnCountAccumulator.empty(cfg.max_path_length), None
    else:
        acc = WeightedReturnAccumulator.empty(cfg.max_path_length, w_max=1.0 / min_pmf)

        def weight(x0):
            p = initial.pmf(x0)
            if not p >= min_pmf:  # zero, or a weight above 1
                reason = "zero pmf" if p <= 0.0 else f"pmf {p} below min_pmf {min_pmf}"
                raise ValueError(f"sampler produced state {x0} with {reason}")
            return min_pmf / p

    I = cfg.num_paths
    blocks = [(start, min(start + BLOCK_SIZE, I)) for start in range(0, I, BLOCK_SIZE)]
    vectorized = getattr(engine.oracle, "uniforms_per_step", None) is not None
    collect_block = _collect_block_vectorized if vectorized else _collect_block_scalar
    fork = _fork_context() if vectorized and engine.worker_count > 1 and len(blocks) > 1 else None
    workers = min(engine.worker_count, len(blocks)) if fork else 1  # without fork, one job in this thread
    # Dealt in turn: block b goes to job b % workers.
    jobs = [(collect_block, engine, weight, blocks[c::workers]) for c in range(workers)]
    died = "collection process exited with code {} before ending its stream"
    rows = _in_children(fork, _block_counts, jobs, acc.counts.dtype, died)
    try:
        for row in rows:
            acc.counts += row[1:]
            acc.paths_completed += int(row[0])
    except Exception as exc:
        if acc.paths_completed < I:
            start, stop = blocks[acc.paths_completed // BLOCK_SIZE]  # the block of the first path not added
            where = f"simulator failed in block of paths {start}..{stop - 1}"
        else:  # only a child's pipe can end after the last row
            where = f"a collection process exited after its last block, all {I} paths added"
        raise CollectionError(f"{where}: {exc}", partial=acc) from exc
    finally:
        rows.close()  # stops the children
    return acc


def rtf_collect(engine: RtfEngine) -> ReturnCountAccumulator:
    """Simulate I fresh paths of length K and count per-k returns.

    Each path starts at a state drawn from ``engine.initial``, is stepped
    exactly K times (I*K one-step calls in total, no early exit), and
    contributes one term per k: 1 under a uniform start law, and
    ``weighted_collect``'s weight under any other.  Vectorized in blocks when
    the oracle provides ``step_with_uniforms``; the scalar fallback produces
    identical counts because both consume the same per-path streams.
    """
    return _collect(engine)


def weighted_collect(
    oracle: TransitionOracle,
    initial: InitialSampler,
    cfg: UcpiConfig,
    master_seed: int,
    worker_count: int = 1,
) -> WeightedReturnAccumulator:
    """Collect importance-weighted return indicators under starts from ``initial``.

    Per path: draw a start from the sampler's pmf, simulate K steps, and add
    min_pmf/pmf(start) to every k at which the path sits in its start state,
    uniform starts included.  With a vectorized oracle, ``worker_count`` > 1
    runs the blocks in up to that many forked children, each with its own
    copy of the oracle and the sampler (see ``RtfEngine``); the sums are the
    same, and a child that dies raises ``CollectionError``.
    """
    return _collect(RtfEngine(oracle, initial, cfg, master_seed, worker_count), weighted=True)


@dataclass(frozen=True)
class NonLazyEstimate:
    """Two-step-chain estimate plus its mapping back to the original chain.

    ``squared_estimate`` bounds the second eigenvalue of the two-step chain;
    ``spectral_radius_bound`` is its square root, an upper confidence bound
    on the largest absolute eigenvalue of the original (possibly non-lazy)
    chain.  ``inner_calls`` counts one-step simulator invocations (2*I*K).
    """

    squared_estimate: UcpiEstimate
    spectral_radius_bound: float
    relaxation_upper: float
    inner_calls: int


def estimate_nonlazy(
    oracle: TransitionOracle,
    cfg: UcpiConfig,
    initial: InitialSampler,
    master_seed: int,
    worker_count: int = 1,
) -> NonLazyEstimate:
    """Full pipeline on the squared chain, mapped back by a square root.

    ``cfg`` describes the squared-chain run: cfg.num_paths paths of
    cfg.max_path_length two-step transitions, so the one-step budget is
    2 * I * K inner calls.  ``worker_count`` is as in ``RtfEngine``: a
    vectorized ``oracle`` steps its blocks in forked children, and a
    scalar-only one stays in the calling thread at any count.
    """
    engine = RtfEngine(SquaredChainOracle(oracle), initial, cfg, master_seed, worker_count)
    raw = finalize_estimate(rtf_collect(engine), cfg)
    mapped = math.sqrt(raw.ell_star)
    return NonLazyEstimate(
        squared_estimate=raw,
        spectral_radius_bound=mapped,
        relaxation_upper=relaxation_upper_bound(mapped),
        inner_calls=2 * cfg.num_paths * cfg.max_path_length,
    )


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
    and memory stays O(CHUNK + K) however long the trajectory.  A large
    ``TraceFile`` is parsed in a forked child meanwhile (see ``TraceFile``).
    ``stats`` is not a parameter: each ``usp_collect`` call replaces it
    with the stats of that call.

    Each call reads a re-iterable source (a list, a ``TraceFile``) again
    from its start and so repeats the same segments: never sum two calls.
    A one-shot iterator (``iter(source) is source``) serves one call; a
    later call raises ``ValueError`` instead of going on past the states
    the first call read ahead.  The engine keeps such a source wrapped in
    a reader that remembers the call, so a copy (``dataclasses.replace``)
    shares the reader and the rule.
    """

    source: Iterable[int]
    segment_length: int
    target_sampler: InitialSampler
    master_seed: int
    stats: UspStats = field(default_factory=UspStats, init=False)
    on_segment: Optional[Callable[[int], None]] = None

    def __post_init__(self):
        _require_integer("master_seed", self.master_seed)
        _require_integer("segment_length", self.segment_length, 1)
        if not isinstance(self.source, _OneShotSource) and iter(self.source) is self.source:
            self.source = _OneShotSource(self.source)


class _OneShotSource:
    """A one-shot iterator and whether a ``usp_collect`` call has read it."""

    def __init__(self, states: Iterator[int]):
        self.states = states
        self.read = False

    def __iter__(self) -> Iterator[int]:
        return self.states


class _SourceStateError(ValueError):
    """A USP source state outside the targets' range: readable, but not a state of the chain."""


def _int64_chunks(source) -> Iterator[np.ndarray]:
    """The source's states as int64 arrays: its own chunks, or ``CHUNK`` at a time.

    An iterable's states pass through ``operator.index``, so a state that is
    not an integer raises ``TypeError`` naming its source index, and an
    integer outside int64 raises ``_SourceStateError`` naming it.
    """
    chunks = getattr(source, "chunks", None)
    if chunks is not None:
        yield from chunks()
        return
    it = iter(source)
    for offset in itertools.count(0, CHUNK):
        states = list(itertools.islice(it, CHUNK))
        if not states:
            return
        try:
            chunk = np.fromiter(map(operator.index, states), np.int64, len(states))
        except (TypeError, OverflowError) as exc:
            for i, x in enumerate(states, offset):
                if not hasattr(type(x), "__index__"):
                    raise TypeError(f"source state {x!r} at index {i} is not an integer") from exc
                x = operator.index(x)
                if not -_INT64_MAX - 1 <= x <= _INT64_MAX:
                    raise _SourceStateError(f"source state {x} at index {i} does not fit in int64") from exc
            raise
        yield chunk


def usp_collect(engine: UspEngine, num_segments: int) -> ReturnCountAccumulator:
    """Extract up to ``num_segments`` uniformly-started segments, counting returns.

    ``num_segments`` must be an integer (``TypeError`` otherwise) of at
    least 1 (``ValueError`` otherwise), as must the engine's
    ``segment_length``: a count the emitted segments never equal would
    read the whole source, and never end over an endless one.
    An iterable source's states must be integers that fit in int64, numpy
    integers included; a float (even 2.0) raises ``TypeError`` and an
    integer outside int64 raises ``ValueError``, each naming its source
    index.  A source's ``chunks()`` must yield 1-D int64 arrays; any other
    chunk raises ``TypeError`` naming its dtype and shape and the source
    index of its first state.

    A segment begins at the first time t strictly after the previous
    segment's end at which the trajectory hits an independently drawn
    uniform target; the strong Markov property makes the emitted segments
    i.i.d. length-K paths with uniform starts.  So a drawn target whose pmf
    differs from ``target_sampler.min_pmf()`` raises ``ValueError``, as
    does a second call over a one-shot source.  The targets are uniform on
    [0, |S|) with |S| = ``round(1 / min_pmf)``, and a source state outside
    that range raises ``ValueError`` naming its source index; each chunk
    is checked as a whole when it is read, so a bad state read ahead of
    the last one used raises too.  Source exhaustion is a normal partial
    result: the accumulator reports however many segments completed and
    ``engine.stats.exhausted`` is set.

    The source is read in int64 chunks in O(CHUNK + K) memory; an iterable
    without ``chunks()`` may be read up to ``CHUNK - 1`` states past the
    last one used (see ``UspEngine``).  Each start is found by one
    vectorized search of the chunk for the target, and a segment's K return
    indicators ``x[t+1:t+K+1] == x[t]`` are compared in one operation; a
    segment that runs past the end of a chunk is finished in the next.
    ``stats.source_steps_consumed`` counts the states up to the last one
    used, not those read ahead.
    """
    _require_integer("num_segments", num_segments, 1)
    one_shot = engine.source if isinstance(engine.source, _OneShotSource) else None
    if one_shot is not None and one_shot.read:
        raise ValueError("source is a one-shot iterator that an earlier usp_collect call read")
    K = engine.segment_length
    acc = ReturnCountAccumulator.empty(K)
    stats = engine.stats = UspStats()
    rng = path_rng(engine.master_seed, TARGET_STREAM_KEY)
    targets = engine.target_sampler
    target_pmf = targets.min_pmf()
    if not target_pmf > 0.0:
        raise ValueError(f"target min_pmf {target_pmf} is not positive")
    size = round(1.0 / target_pmf)  # the states the uniform targets cover

    def draw_target():
        target = targets.sample(rng)
        if targets.pmf(target) != target_pmf:
            raise ValueError(
                f"target {target} has pmf {targets.pmf(target)}, not min_pmf {target_pmf}: "
                "USP targets must be uniform"
            )
        return target

    target = draw_target()
    boundary = 0  # previous segment start + K; next start must satisfy t > boundary
    start_state = None  # start of the segment being filled; None while searching
    filled = 0  # steps of that segment seen so far
    returns = np.empty(K, dtype=bool)
    offset = 0  # source index of the current chunk's first state

    if one_shot is not None:
        one_shot.read = True
    for x in _int64_chunks(engine.source):
        if not (isinstance(x, np.ndarray) and x.dtype == np.int64 and x.ndim == 1):  # from a chunks() source
            what = f"{x.dtype} array of shape {x.shape}" if isinstance(x, np.ndarray) else type(x).__name__
            raise TypeError(f"source chunk at index {offset} is {what}, not a 1-D int64 array")
        n = len(x)
        if n and x.view(np.uint64).max() >= size:  # a negative state wraps to a huge one
            bad = int(np.flatnonzero((x < 0) | (x >= size))[0])
            raise _SourceStateError(f"source state {x[bad]} at index {offset + bad} outside [0, {size})")
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
                target = draw_target()
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
    """Stream a single trajectory X_0 = start_state, X_1, ... of ``max_steps`` states (None: endless).

    The arguments are checked when this is called, not when the first state
    is read, as ``TraceFile`` checks ``max_steps``.  ``start_state``,
    ``master_seed`` and ``max_steps`` (unless None) must be integers
    (``TypeError`` otherwise); ``start_state`` must lie in
    [0, ``oracle.state_space_size()``) and ``max_steps`` be at least 0
    (``ValueError`` otherwise).
    """
    _require_integer("start_state", start_state)
    n = oracle.state_space_size()
    if not 0 <= start_state < n:
        raise ValueError(f"start_state {start_state} outside [0, {n})")
    _require_integer("master_seed", master_seed)
    if max_steps is not None:
        _require_integer("max_steps", max_steps, 0)
    return _trajectory(oracle, start_state, path_rng(master_seed, TRAJECTORY_STREAM_KEY), max_steps)


def _trajectory(oracle, x, rng, max_steps) -> Iterator[int]:
    """``trajectory_from_oracle``'s states, its arguments already checked."""
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
    ``max_steps`` states are read, an integer (``TypeError`` otherwise) of
    at least 0, and lines after the last of them are not checked.
    ``chunks()`` reads the file ``2 * CHUNK`` bytes at a time and yields
    the states of each read's whole lines as one int64 array; iterating
    yields them as ints.  Each iteration reopens the file.

    A read of at least ``FORK_READ_STATES`` states (by the file's size and
    ``max_steps``) is parsed in one forked child, which streams each chunk
    to the caller (the module docstring describes the child), so the
    caller works on one chunk while the child parses the next ones.  The
    chunks, their boundaries and every error are the same as in process,
    and an error is raised when the caller reaches the chunk it stops, so
    a bad line after the last chunk used raises nothing either way.  The
    file is opened before the fork, so an open error is raised in the
    caller.  Memory stays O(CHUNK) in each process, and the pipe holds at
    most its kernel buffer.  A child that dies before ending its stream
    raises ``RuntimeError`` naming its exit code.  A smaller read is
    parsed in process.
    """

    def __init__(self, path, max_steps: int | None = None):
        if max_steps is not None:
            _require_integer("max_steps", max_steps, 0)
        self.path = path
        self.max_steps = max_steps

    def __iter__(self) -> Iterator[int]:
        for chunk in self.chunks():
            yield from chunk.tolist()

    def chunks(self) -> Iterator[np.ndarray]:
        with open(self.path, "rb", buffering=0) as fh:
            # Each state takes a digit and, but the last, a line end.
            most = (os.fstat(fh.fileno()).st_size + 1) // 2
            if self.max_steps is not None:
                most = min(most, self.max_steps)
            fork = _fork_context() if most >= FORK_READ_STATES else None
            died = "trace reader process exited with code {} before ending its stream"
            yield from _in_children(fork, _read_chunks, [(fh, self.max_steps)], np.int64, died)


def _read_chunks(fh, max_steps) -> Iterator[np.ndarray]:
    """The states of the open trace file ``fh`` as int64 chunks (see ``TraceFile``)."""
    left = math.inf if max_steps is None else max_steps
    line = 1  # number of the first line in `block`
    pending = b""  # the unfinished last line of the previous read
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
