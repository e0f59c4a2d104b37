import dataclasses
import faulthandler
import math
import multiprocessing
import os
import re
import signal
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from specgap import sampling
from specgap.chains import BiasedLineChain, DenseMatrixChain, TabularSampler, UniformSampler
from specgap.estimator import UcpiConfig, finalize_estimate
from specgap.sampling import (
    BLOCK_SIZE,
    CollectionError,
    RtfEngine,
    TraceFile,
    UspEngine,
    _PathStreams,
    estimate_nonlazy,
    path_rng,
    rtf_collect,
    states_from_file,
    trajectory_from_oracle,
    usp_collect,
)

from helpers import FixedTargets, ScalarOnly

TWO_STATE = DenseMatrixChain([[0.75, 0.25], [0.25, 0.75]])


class CountingOracle(ScalarOnly):
    def __init__(self, inner):
        super().__init__(inner)
        self.calls = 0

    def next_state(self, x, rng):
        self.calls += 1
        return super().next_state(x, rng)


class KernelFailsOnShortBlock:
    """Vectorized chain whose kernel raises ``make_error()`` on a block shorter than BLOCK_SIZE."""

    uniforms_per_step = 1

    def __init__(self, inner, make_error=lambda: RuntimeError("kernel boom")):
        self.inner = inner
        self.make_error = make_error

    def state_space_size(self):
        return self.inner.state_space_size()

    def step_with_uniforms(self, xs, us):
        if len(xs) < BLOCK_SIZE:
            raise self.make_error()
        return self.inner.step_with_uniforms(xs, us)


class SamplerFailsAfter:
    """Uniform sampler that raises once it has drawn `limit` starts."""

    def __init__(self, size, limit):
        self.inner = UniformSampler(size)
        self.limit = limit
        self.draws = 0

    def sample(self, rng):
        self.draws += 1
        if self.draws > self.limit:
            raise RuntimeError("sampler boom")
        return self.inner.sample(rng)

    def pmf(self, x):
        return self.inner.pmf(x)

    def min_pmf(self):
        return self.inner.min_pmf()


class SamplerFailsOnce(SamplerFailsAfter):
    """Raises on draw `limit + 1` only."""

    def sample(self, rng):
        self.draws += 1
        if self.draws == self.limit + 1:
            raise RuntimeError("sampler boom")
        return self.inner.sample(rng)


class ThreadSpy:
    """Line walk that records the thread of every `next_state` and kernel call.

    With ``main_thread_only`` its kernel raises unless it runs in the main
    thread of its process, which a pool child's copy can check.
    """

    uniforms_per_step = 1

    def __init__(self, main_thread_only=False):
        self.inner = BiasedLineChain(20, 0.7)
        self.threads = set()
        self.main_thread_only = main_thread_only

    def state_space_size(self):
        return 20

    def next_state(self, x, rng):
        self.threads.add(threading.get_ident())
        return self.inner.next_state(x, rng)

    def step_with_uniforms(self, xs, us):
        if self.main_thread_only and threading.current_thread() is not threading.main_thread():
            raise RuntimeError(f"kernel ran in {threading.current_thread().name}")
        self.threads.add(threading.get_ident())
        return self.inner.step_with_uniforms(xs, us)


class NeedsTwoArguments(Exception):
    """Pickles, but cannot be unpickled: its args hold one value and ``__init__`` wants two."""

    def __init__(self, code, detail):
        super().__init__(f"code {code}: {detail}")


class KernelReturns:
    """Line-walk kernel whose output goes through `mangle` before the engine sees it."""

    uniforms_per_step = 1

    def __init__(self, mangle):
        self.inner = BiasedLineChain(20, 0.7)
        self.mangle = mangle

    def state_space_size(self):
        return 20

    def step_with_uniforms(self, xs, us):
        return self.mangle(self.inner.step_with_uniforms(xs, us))


class ScalarReturns(ScalarOnly):
    """Scalar-only line walk whose next state goes through `mangle` before the engine sees it."""

    def __init__(self, mangle):
        super().__init__(BiasedLineChain(20, 0.7))
        self.mangle = mangle

    def next_state(self, x, rng):
        return self.mangle(super().next_state(x, rng))


class SamplerLeavesAfter(SamplerFailsAfter):
    """Uniform sampler that returns `state` once it has drawn `limit` starts."""

    def __init__(self, size, limit, state):
        super().__init__(size, limit)
        self.state = state

    def sample(self, rng):
        self.draws += 1
        return self.state if self.draws > self.limit else self.inner.sample(rng)


def make_engine(chain, cfg, seed, workers=1):
    return RtfEngine(chain, UniformSampler(chain.state_space_size()), cfg, seed, workers)


# ---------------------------------------------------------------------------
# fresh-path collection
# ---------------------------------------------------------------------------


def test_absorbing_chain_returns_every_step():
    chain = DenseMatrixChain(np.eye(3))
    cfg = UcpiConfig(3, 50, 7, 0.1)
    acc = rtf_collect(make_engine(chain, cfg, 1))
    assert np.all(acc.counts == 50)
    assert acc.paths_completed == 50


def test_deterministic_two_cycle_alternates():
    # non-lazy fixture: returns exactly at even k
    chain = DenseMatrixChain([[0.0, 1.0], [1.0, 0.0]])
    cfg = UcpiConfig(2, 30, 6, 0.1)
    acc = rtf_collect(make_engine(chain, cfg, 2))
    assert acc.counts.tolist() == [0, 30, 0, 30, 0, 30]


def test_two_state_first_step_frequency_within_five_sigma():
    cfg = UcpiConfig(2, 10**5, 3, 0.1)
    acc = rtf_collect(make_engine(TWO_STATE, cfg, 3))
    m1 = 0.75  # (1 + 0.5)/2 from the eigenvalues
    se = math.sqrt(m1 * (1 - m1) / cfg.num_paths)
    assert abs(acc.counts[0] / cfg.num_paths - m1) <= 5 * se


def test_exact_call_budget_scalar_path():
    oracle = CountingOracle(TWO_STATE)
    cfg = UcpiConfig(2, 40, 9, 0.1)
    rtf_collect(RtfEngine(oracle, UniformSampler(2), cfg, 4))
    assert oracle.calls == 40 * 9


def test_scalar_and_vectorized_paths_agree_bitwise():
    cfg = UcpiConfig(20, 2600, 11, 0.1)  # spans multiple blocks
    chain = BiasedLineChain(20, 0.7)
    vec = rtf_collect(make_engine(chain, cfg, 5))
    sca = rtf_collect(RtfEngine(ScalarOnly(chain), UniformSampler(20), cfg, 5))
    assert np.array_equal(vec.counts, sca.counts)
    assert vec.paths_completed == sca.paths_completed == 2600


def test_worker_counts_do_not_change_counts():
    cfg = UcpiConfig(20, 3000, 8, 0.1)
    chain = BiasedLineChain(20, 0.5)
    base = rtf_collect(make_engine(chain, cfg, 6, workers=1))
    for workers in (4, 16):
        other = rtf_collect(make_engine(chain, cfg, 6, workers=workers))
        assert np.array_equal(base.counts, other.counts)


@pytest.mark.parametrize("scalar", [False, True])
def test_collection_runs_in_the_calling_thread(scalar):
    # An oracle runs in the caller's thread or in a pool child's main thread,
    # never in a second thread of any process.
    cfg = UcpiConfig(20, 3000, 5, 0.1)  # three blocks
    spy = ThreadSpy()
    oracle = ScalarOnly(spy) if scalar else spy
    # A scalar oracle stays in the calling thread at any worker count.
    rtf_collect(RtfEngine(oracle, UniformSampler(20), cfg, 5, worker_count=1 if not scalar else 2))
    assert spy.threads == {threading.get_ident()}
    if not scalar:
        pooled = ThreadSpy(main_thread_only=True)
        rtf_collect(RtfEngine(pooled, UniformSampler(20), cfg, 5, worker_count=2))
        assert not pooled.threads  # the children stepped their own copies


def test_master_seed_changes_counts():
    cfg = UcpiConfig(2, 500, 5, 0.1)
    a = rtf_collect(make_engine(TWO_STATE, cfg, 7))
    b = rtf_collect(make_engine(TWO_STATE, cfg, 8))
    assert not np.array_equal(a.counts, b.counts)


@st.composite
def reversible_lazy_chains(draw):
    """A lazy chain (I + W / rowsums) / 2 of symmetric weights W >= 0: reversible, 2-10 states."""
    n = draw(st.integers(2, 10))
    weights = np.array(draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n)), float)
    W = weights.reshape(n, n) + np.eye(n)  # a positive diagonal keeps every row sum positive
    W = W + W.T
    return DenseMatrixChain((np.eye(n) + W / W.sum(axis=1, keepdims=True)) / 2)


@settings(max_examples=12, deadline=None)
@given(
    chain=reversible_lazy_chains(),
    num_paths=st.integers(1, 3 * BLOCK_SIZE),
    K=st.integers(1, 20),
    seed=st.integers(0, 2**64 - 1),
    start_weights=st.none() | st.lists(st.integers(1, 9), min_size=10, max_size=10),
)
def test_vectorized_blocks_match_scalar_at_any_worker_count(chain, num_paths, K, seed, start_weights):
    # None starts uniformly; unequal integer weights make a non-dyadic start
    # law, whose weighted float sums would show a change of summation order.
    n = chain.state_space_size()
    if start_weights is None:
        initial = UniformSampler(n)
    else:
        weights = np.array(start_weights[:n], float)
        initial = TabularSampler(weights / weights.sum())
    cfg = UcpiConfig(n, num_paths, K, 0.1)
    scalar = rtf_collect(RtfEngine(ScalarOnly(chain), initial, cfg, seed))
    for workers in (1, 2, 3):
        vec = rtf_collect(RtfEngine(chain, initial, cfg, seed, workers))
        assert np.array_equal(vec.counts, scalar.counts)
        assert vec.paths_completed == scalar.paths_completed == num_paths


class StartFailsAtPath:
    """Draws ``inner``'s starts, but raises on path ``fail_at``, read from its stream's Philox key."""

    def __init__(self, inner, fail_at):
        self.inner, self.fail_at = inner, fail_at

    def sample(self, rng):
        if rng.bit_generator.state["state"]["key"][1] == self.fail_at:
            raise ValueError(f"path {self.fail_at} failed")
        return self.inner.sample(rng)

    def pmf(self, x):
        return self.inner.pmf(x)

    def min_pmf(self):
        return self.inner.min_pmf()


def rows_until_failure(rows):
    """The rows a block stream yields, and the message of the failure that ends it, if any."""
    got = []
    try:
        for row in rows:
            got.append(row)
    except ValueError as exc:
        return got, str(exc)
    return got, None


ROW_BLOCK = 16  # the test's own block size, so that a few dozen paths make several blocks


@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
@pytest.mark.parametrize("fails", [False, True], ids=["clean", "failing"])
@settings(max_examples=10, deadline=None)
@given(
    num_paths=st.integers(1, 4 * ROW_BLOCK),
    K=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
    start_weights=st.none() | st.lists(st.integers(1, 9), min_size=20, max_size=20),
    fail_draw=st.integers(0, 4 * ROW_BLOCK - 1),
)
def test_every_block_hands_over_one_row_of_its_path_count_and_counts(
    vectorized, fails, num_paths, K, seed, start_weights, fail_draw
):
    # A row is the paths a block completed, then its K counts, in the
    # accumulator's dtype; uniform starts count integers, and unequal integer
    # weights make a non-dyadic start law whose sums are floats.
    fail_at = fail_draw % num_paths if fails else None
    chain = BiasedLineChain(20, 0.7)
    if start_weights is None:
        initial, weight, dtype = UniformSampler(20), None, np.int64
    else:
        initial = TabularSampler(np.array(start_weights, float) / sum(start_weights))
        weight, dtype = (lambda x0: initial.min_pmf() / initial.pmf(x0)), np.float64
    cfg = UcpiConfig(20, num_paths, K, 0.1)
    oracle = chain if vectorized else ScalarOnly(chain)
    engine = RtfEngine(oracle, initial if fail_at is None else StartFailsAtPath(initial, fail_at), cfg, seed)
    collect_block = sampling._collect_block_vectorized if vectorized else sampling._collect_block_scalar
    blocks = [(start, min(start + ROW_BLOCK, num_paths)) for start in range(0, num_paths, ROW_BLOCK)]
    rows, failure = rows_until_failure(sampling._block_counts(collect_block, engine, weight, blocks))

    failing = None if fail_at is None else fail_at // ROW_BLOCK
    assert (failure is None) == (failing is None)
    # A vectorized block hands over all its paths or none; a scalar one those before the failing path.
    assert len(rows) == (len(blocks) if failing is None else failing + (not vectorized))
    for b, row in enumerate(rows):
        start, stop = blocks[b]
        assert row.shape == (K + 1,) and row.dtype == dtype
        assert row[0] == (fail_at - start if b == failing else stop - start)
        assert np.all(0 <= row[1:]) and np.all(row[1:] <= row[0])

    workers = min(2, len(blocks))
    jobs = [(collect_block, engine, weight, blocks[c::workers]) for c in range(workers)]
    died = "child exited with code {} before ending its stream"
    forked, forked_failure = rows_until_failure(
        sampling._in_children(sampling._fork_context(), sampling._block_counts, jobs, dtype, died)
    )
    # Through the first short row the streams agree.  After it the other child
    # may send the next block, or end cleanly so that the short block's
    # failure is never read, which is why _collect keeps scalar blocks serial.
    assert [row.tolist() for row in forked[: len(rows)]] == [row.tolist() for row in rows]
    if vectorized or failure is None:
        assert forked_failure == failure and len(forked) == len(rows)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("scalar", [False, True])
def test_oracle_of_another_state_count_is_refused_before_any_path(scalar):
    # Unchecked, the vectorized kernel clamps a start of 15 to state 9 while
    # the scalar step holds it at 15, so the two would count differently.
    chain = BiasedLineChain(10, 0.5)
    oracle = CountingOracle(chain) if scalar else chain
    cfg = UcpiConfig(20, 50, 4, 0.1)
    message = "oracle has 10 states, config has 20"
    with pytest.raises(ValueError, match=message):
        rtf_collect(RtfEngine(oracle, UniformSampler(20), cfg, 0))
    with pytest.raises(ValueError, match=message):
        estimate_nonlazy(oracle, cfg, UniformSampler(20), 0)
    assert not scalar or oracle.calls == 0


def test_partial_runs_finalize_as_under_a_config_rebuilt_to_their_path_count():
    # finalize_estimate takes I from the accumulator, never the plan.
    chain = BiasedLineChain(20, 0.7)
    cfg = UcpiConfig(20, 3000, 12, 0.05)
    skewed = TabularSampler(np.arange(1.0, 21.0) / 210.0)
    accs = []
    for engine in [
        RtfEngine(ScalarOnly(chain), SamplerFailsAfter(20, 1500), cfg, 5),  # scalar: paths 0..1499
        RtfEngine(KernelFailsOnShortBlock(chain), UniformSampler(20), cfg, 5),  # vectorized: 2 blocks
        RtfEngine(KernelFailsOnShortBlock(chain), skewed, cfg, 5),  # weighted: 2 blocks
    ]:
        with pytest.raises(CollectionError) as exc_info:
            rtf_collect(engine)
        accs.append(exc_info.value.partial)
    engine = UspEngine(trajectory_from_oracle(chain, 0, 5, max_steps=20_000), 12, UniformSampler(20), 5)
    accs.append(usp_collect(engine, cfg.num_paths))
    assert engine.stats.exhausted
    assert [acc.paths_completed for acc in accs[:3]] == [1500, 2 * BLOCK_SIZE, 2 * BLOCK_SIZE]
    assert 0 < accs[3].paths_completed < cfg.num_paths
    for acc in accs:
        planned = finalize_estimate(acc, cfg)
        rebuilt = finalize_estimate(acc, dataclasses.replace(cfg, num_paths=acc.paths_completed))
        for name in ("m_hat", "u_hat", "ell_hat"):
            assert np.array_equal(getattr(planned, name), getattr(rebuilt, name))
        assert (planned.ell_star, planned.argmin_k) == (rebuilt.ell_star, rebuilt.argmin_k)


def test_partial_counts_preserved_on_oracle_failure():
    class FlakyOracle(ScalarOnly):
        def __init__(self, inner, fail_at_call):
            super().__init__(inner)
            self.calls = 0
            self.fail_at_call = fail_at_call

        def next_state(self, x, rng):
            self.calls += 1
            if self.calls > self.fail_at_call:
                raise RuntimeError("transition backend went away")
            return super().next_state(x, rng)

    cfg = UcpiConfig(2, 20, 5, 0.1)
    oracle = FlakyOracle(TWO_STATE, fail_at_call=7 * 5 + 2)  # dies inside path 7
    with pytest.raises(CollectionError) as exc_info:
        rtf_collect(RtfEngine(oracle, UniformSampler(2), cfg, 9))
    partial = exc_info.value.partial
    assert partial.paths_completed == 7
    assert partial.counts.max() <= 7  # the torn path was never committed
    assert isinstance(exc_info.value.__cause__, RuntimeError)


class FailsAfterCalls(CountingOracle):
    def __init__(self, inner, limit):
        super().__init__(inner)
        self.limit = limit

    def next_state(self, x, rng):
        if self.calls >= self.limit:
            raise RuntimeError("transition backend went away")
        return super().next_state(x, rng)


def check_scalar_failure(workers, failing, block):
    # The block is named from the partial's paths_completed, the first path not added.
    chain, K = BiasedLineChain(20, 0.7), 5
    oracle = FailsAfterCalls(chain, limit=failing * K)  # dies on path `failing` of 3000
    engine = RtfEngine(oracle, UniformSampler(20), UcpiConfig(20, 3000, K, 0.1), 5, workers)
    with pytest.raises(CollectionError) as exc_info:
        rtf_collect(engine)
    assert str(exc_info.value) == (
        f"simulator failed in block of paths {block}: transition backend went away"
    )
    partial = exc_info.value.partial
    assert partial.paths_completed == failing  # the blocks before, then the paths of its own before it
    if failing:
        clean = rtf_collect(make_engine(chain, UcpiConfig(20, failing, K, 0.1), 5))
        assert np.array_equal(partial.counts, clean.counts)
    else:
        assert not partial.counts.any()


@pytest.mark.parametrize("workers", [1, 2])
def test_scalar_failure_names_its_block_and_keeps_its_completed_paths(workers):
    check_scalar_failure(workers, BLOCK_SIZE + 476, "1024..2047")  # path 1500, in the second block


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "failing, block", [(2500, "2048..2999"), (0, "0..1023")], ids=["short-last-block", "first-path"]
)
def test_scalar_failure_in_last_or_first_block_names_it(workers, failing, block):
    check_scalar_failure(workers, failing, block)


@pytest.mark.parametrize("workers", [1, 2])
def test_vectorized_kernel_failure_keeps_completed_blocks(workers):
    chain = BiasedLineChain(20, 0.7)
    cfg = UcpiConfig(20, 3000, 5, 0.1)  # blocks of 1024, 1024 and 952 paths
    with pytest.raises(CollectionError) as exc_info:
        rtf_collect(make_engine(KernelFailsOnShortBlock(chain), cfg, 5, workers=workers))
    partial = exc_info.value.partial
    assert partial.paths_completed == 2 * BLOCK_SIZE
    assert np.all(partial.counts <= partial.paths_completed)
    assert isinstance(exc_info.value.__cause__, RuntimeError)
    assert str(exc_info.value.__cause__) == "kernel boom"
    # the completed blocks are exactly a clean run over the same paths
    clean = rtf_collect(make_engine(chain, UcpiConfig(20, 2 * BLOCK_SIZE, 5, 0.1), 5))
    assert np.array_equal(partial.counts, clean.counts)


def test_vectorized_sampler_failure_commits_whole_blocks_only():
    cfg = UcpiConfig(20, 3000, 5, 0.1)
    sampler = SamplerFailsAfter(20, limit=1500)  # dies inside the second block
    with pytest.raises(CollectionError) as exc_info:
        rtf_collect(RtfEngine(BiasedLineChain(20, 0.7), sampler, cfg, 5))
    partial = exc_info.value.partial
    assert partial.paths_completed % BLOCK_SIZE == 0
    assert partial.paths_completed == BLOCK_SIZE
    assert np.all(partial.counts <= partial.paths_completed)
    assert str(exc_info.value.__cause__) == "sampler boom"


@pytest.mark.parametrize("workers", [1, 2])
def test_scalar_sampler_failure_raises_collection_error(workers):
    chain, K = BiasedLineChain(20, 0.7), 5
    sampler = SamplerFailsAfter(20, limit=1500)  # dies on the 1,501st start drawn
    with pytest.raises(CollectionError) as exc_info:
        rtf_collect(RtfEngine(ScalarOnly(chain), sampler, UcpiConfig(20, 3000, K, 0.1), 5, workers))
    partial = exc_info.value.partial
    assert str(exc_info.value.__cause__) == "sampler boom"
    assert partial.paths_completed == 1500
    assert np.all(partial.counts <= partial.paths_completed)
    clean = rtf_collect(make_engine(chain, UcpiConfig(20, 1500, K, 0.1), 5))
    assert np.array_equal(partial.counts, clean.counts)


@pytest.mark.parametrize("workers", [1, 2])
def test_failure_cancels_blocks_not_yet_started(workers):
    blocks = 50
    sampler = SamplerFailsOnce(20, limit=9)  # fails inside block 0
    cfg = UcpiConfig(20, blocks * BLOCK_SIZE, 1, 0.1)
    with pytest.raises(CollectionError) as exc_info:
        rtf_collect(RtfEngine(BiasedLineChain(20, 0.7), sampler, cfg, 5, worker_count=workers))
    assert str(exc_info.value.__cause__) == "sampler boom"
    if workers == 1:
        # No start is drawn after the failing one: no later block began.
        assert sampler.draws == sampler.limit + 1
    else:
        # Each child draws from its own copy of the sampler.
        assert sampler.draws == 0
    partial = exc_info.value.partial
    assert partial.paths_completed == 0
    assert not partial.counts.any()


def test_pooled_collection_leaves_no_child_process():
    cfg = UcpiConfig(20, 3000, 5, 0.1)  # blocks of 1024, 1024 and 952 paths
    chain = BiasedLineChain(20, 0.7)
    rtf_collect(make_engine(chain, cfg, 5, workers=2))
    assert multiprocessing.active_children() == []
    with pytest.raises(CollectionError):
        rtf_collect(make_engine(KernelFailsOnShortBlock(chain), cfg, 5, workers=2))
    assert multiprocessing.active_children() == []


def test_child_that_dies_raises_with_its_exit_code():
    chain = BiasedLineChain(20, 0.7)
    cfg = UcpiConfig(20, 3000, 5, 0.1)  # the first child runs blocks 0 and 2, the short third fails
    parent = os.getpid()

    def exit_in_child():
        if os.getpid() == parent:  # never end the test process itself
            return RuntimeError("the kernel ran in the calling process")
        os._exit(3)

    faulthandler.dump_traceback_later(60, exit=True)  # a hang fails the run instead of stalling it
    try:
        with pytest.raises(CollectionError, match="block of paths 2048..2999: .*code 3") as exc_info:
            rtf_collect(make_engine(KernelFailsOnShortBlock(chain, exit_in_child), cfg, 5, workers=2))
    finally:
        faulthandler.cancel_dump_traceback_later()
    partial = exc_info.value.partial
    clean = rtf_collect(make_engine(chain, UcpiConfig(20, 2 * BLOCK_SIZE, 5, 0.1), 5))
    assert partial.paths_completed == clean.paths_completed
    assert np.array_equal(partial.counts, clean.counts)
    assert multiprocessing.active_children() == []


def test_dead_child_keeps_the_blocks_it_sent():
    # Blocks 0, 2 and the short fifth block go to the first child, 1 and 3 to
    # the second.  The first child sends blocks 0 and 2 and dies in block 4,
    # so the partial holds blocks 0-3, the dead child's two among them.
    chain = BiasedLineChain(20, 0.7)
    cfg = UcpiConfig(20, 4 * BLOCK_SIZE + 500, 5, 0.1)
    parent = os.getpid()

    def exit_in_child():
        if os.getpid() == parent:  # never end the test process itself
            return RuntimeError("the kernel ran in the calling process")
        os._exit(3)

    faulthandler.dump_traceback_later(60, exit=True)  # a hang fails the run instead of stalling it
    try:
        with pytest.raises(CollectionError, match="block of paths 4096..4595: .*code 3") as exc_info:
            rtf_collect(make_engine(KernelFailsOnShortBlock(chain, exit_in_child), cfg, 5, workers=2))
    finally:
        faulthandler.cancel_dump_traceback_later()
    partial = exc_info.value.partial
    clean = rtf_collect(make_engine(chain, UcpiConfig(20, 4 * BLOCK_SIZE, 5, 0.1), 5))
    assert partial.paths_completed == clean.paths_completed == 4 * BLOCK_SIZE
    assert np.array_equal(partial.counts, clean.counts)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("num_paths", [2 * BLOCK_SIZE, 3000])
def test_child_that_exits_after_its_last_block_raises_with_every_path(monkeypatch, num_paths):
    chain = BiasedLineChain(20, 0.7)
    cfg = UcpiConfig(20, num_paths, 5, 0.1)
    parent, block_counts = os.getpid(), sampling._block_counts

    def exit_after_last_row(*args):
        yield from block_counts(*args)
        if os.getpid() != parent:  # never end the test process itself
            os._exit(7)

    # Every child sends all its rows, so a pipe ends once every path is added.
    monkeypatch.setattr(sampling, "_block_counts", exit_after_last_row)
    message = f"exited after its last block, all {num_paths} paths added: .*code 7"
    faulthandler.dump_traceback_later(60, exit=True)  # a hang fails the run instead of stalling it
    try:
        with pytest.raises(CollectionError, match=message) as exc_info:
            rtf_collect(make_engine(chain, cfg, 5, workers=2))
    finally:
        faulthandler.cancel_dump_traceback_later()
    monkeypatch.undo()
    clean = rtf_collect(make_engine(chain, cfg, 5))
    assert exc_info.value.partial.paths_completed == clean.paths_completed == num_paths
    assert np.array_equal(exc_info.value.partial.counts, clean.counts)
    assert multiprocessing.active_children() == []


def test_child_killed_by_a_signal_raises_with_its_exit_code():
    chain = BiasedLineChain(20, 0.7)
    cfg = UcpiConfig(20, 3000, 5, 0.1)  # the first child runs blocks 0 and 2, the short third fails
    parent = os.getpid()

    def kill_in_child():
        if os.getpid() == parent:  # never signal the test process itself
            return RuntimeError("the kernel ran in the calling process")
        os.kill(os.getpid(), signal.SIGKILL)

    faulthandler.dump_traceback_later(60, exit=True)  # a hang fails the run instead of stalling it
    try:
        with pytest.raises(CollectionError, match=f"block of paths 2048..2999: .*code {-signal.SIGKILL}") as exc_info:
            rtf_collect(make_engine(KernelFailsOnShortBlock(chain, kill_in_child), cfg, 5, workers=2))
    finally:
        faulthandler.cancel_dump_traceback_later()
    partial = exc_info.value.partial
    clean = rtf_collect(make_engine(chain, UcpiConfig(20, 2 * BLOCK_SIZE, 5, 0.1), 5))
    assert partial.paths_completed == clean.paths_completed
    assert np.array_equal(partial.counts, clean.counts)
    assert multiprocessing.active_children() == []


def test_failed_fork_stops_the_children_already_started(monkeypatch):
    fork = multiprocessing.get_context("fork")
    start, started = fork.Process.start, []

    def start_first_only(child):
        if started:
            raise OSError("fork failed")
        started.append(child)
        start(child)

    monkeypatch.setattr(fork.Process, "start", start_first_only)
    with pytest.raises(OSError, match="fork failed"):
        rtf_collect(make_engine(BiasedLineChain(20, 0.7), UcpiConfig(20, 3000, 5, 0.1), 5, workers=2))
    assert len(started) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
def test_forked_children_leave_no_descriptor_open(tmp_path):
    chain = BiasedLineChain(20, 0.7)
    cfg = UcpiConfig(20, 3000, 5, 0.1)
    path = tmp_path / "trace.txt"
    path.write_text("\n".join(map(str, trajectory_from_oracle(chain, 0, 1, max_steps=3 * 1024))) + "\n")
    before = len(os.listdir("/proc/self/fd"))
    with mock.patch.object(sampling, "FORK_READ_STATES", 0):  # every read forks
        for _ in range(20):
            rtf_collect(make_engine(chain, cfg, 5, workers=2))
            with pytest.raises(CollectionError):
                rtf_collect(make_engine(KernelFailsOnShortBlock(chain), cfg, 5, workers=2))
            chunks = TraceFile(path).chunks()
            next(chunks)
            chunks.close()
            assert sum(len(c) for c in TraceFile(path).chunks()) == 3 * 1024
    assert len(os.listdir("/proc/self/fd")) == before
    assert multiprocessing.active_children() == []


def counts_at_two_workers(cfg):
    return rtf_collect(make_engine(BiasedLineChain(20, 0.7), cfg, 5, workers=2)).counts


def test_collection_in_a_pool_child_runs_serially():
    # A daemonic pool child may not start children of its own.
    cfg = UcpiConfig(20, 3000, 5, 0.1)
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        nested = pool.apply_async(counts_at_two_workers, (cfg,)).get(timeout=60)
    finally:
        pool.close()
        pool.join()
    assert np.array_equal(nested, counts_at_two_workers(cfg))


class LocalError(Exception):
    pass


@pytest.mark.parametrize(
    "make_error, name",
    [
        (lambda: NeedsTwoArguments(7, "disk gone"), "NeedsTwoArguments"),
        # A lambda among the args: pickling itself fails.
        (lambda: LocalError("disk gone", lambda: None), "LocalError"),
    ],
    ids=["unpickles-badly", "does-not-pickle"],
)
def test_child_failure_that_cannot_be_pickled_arrives_named(make_error, name):
    chain = BiasedLineChain(20, 0.7)
    cfg = UcpiConfig(20, 3000, 5, 0.1)  # the short third block fails
    with pytest.raises(CollectionError, match=f"block of paths 2048..2999: {name}: .*disk gone"):
        rtf_collect(make_engine(KernelFailsOnShortBlock(chain, make_error), cfg, 5, workers=2))
    assert multiprocessing.active_children() == []


class KernelWaitsForEveryChild:
    """Vectorized chain whose last kernel call in each child waits until every child has made its own."""

    def __init__(self, inner, calls, folder, children=2):
        self.inner, self.calls, self.folder, self.children = inner, calls, folder, children
        self.uniforms_per_step = inner.uniforms_per_step

    def state_space_size(self):
        return self.inner.state_space_size()

    def step_with_uniforms(self, xs, us):
        self.calls -= 1  # each child counts its own calls
        if self.calls == 0:
            (self.folder / str(os.getpid())).touch()
            deadline = time.monotonic() + 30
            while len(os.listdir(self.folder)) < self.children:
                if time.monotonic() > deadline:
                    raise RuntimeError("another child never finished computing its run")
                time.sleep(0.005)
        return self.inner.step_with_uniforms(xs, us)


def test_collection_children_compute_their_runs_at_once_however_large_their_output(monkeypatch, tmp_path):
    # Each child's counts (8 blocks of K int64s, 256 KiB) outgrow its pipe and
    # write buffer, and each child's last kernel call waits until the other
    # child has made its own.  The parent reads one block from each child in
    # turn, so neither child stops at a full pipe while the other computes; a
    # parent that read the first child to its end before the second would
    # leave the second stopped at its full pipe, short of its last call.
    monkeypatch.setattr(sampling, "BLOCK_SIZE", 16)
    chain, K = BiasedLineChain(20, 0.7), 4096
    cfg = UcpiConfig(20, 2 * 8 * 16, K, 0.1)
    waits = KernelWaitsForEveryChild(chain, 8 * K, tmp_path)
    counts = rtf_collect(make_engine(waits, cfg, 5, workers=2)).counts
    assert len(os.listdir(tmp_path)) == 2
    assert np.array_equal(counts, rtf_collect(make_engine(chain, cfg, 5)).counts)
    assert multiprocessing.active_children() == []


def first_arrays_of(dtype):
    yield np.zeros(3, dtype)


def test_child_array_of_another_dtype_raises_instead_of_being_misread():
    died = "child exited with code {} before ending its stream"
    stream = sampling._in_children(sampling._fork_context(), first_arrays_of, [(float,)], np.int64, died)
    with pytest.raises(TypeError, match="float64.*int64"):
        list(stream)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("seed", [2.5, 2.9, True, "2", None, np.float64(2.0)])
def test_master_seed_must_be_an_integer(seed):
    # A float seed used to be truncated: 2.5 and 2.9 both ran seed 2's paths.
    cfg = UcpiConfig(2, 100, 5, 0.1)
    with pytest.raises(TypeError, match="^master_seed must be an integer, not "):
        RtfEngine(TWO_STATE, UniformSampler(2), cfg, seed)
    with pytest.raises(TypeError, match="^master_seed must be an integer, not "):
        estimate_nonlazy(TWO_STATE, cfg, UniformSampler(2), seed)
    with pytest.raises(TypeError, match="^master_seed must be an integer, not "):
        UspEngine([0, 1] * 50, 5, UniformSampler(2), seed)
    with pytest.raises(TypeError, match="^master_seed must be an integer, not "):
        next(trajectory_from_oracle(TWO_STATE, 0, seed))


def test_master_seed_accepts_numpy_integers():
    cfg = UcpiConfig(2, 100, 5, 0.1)
    numpy_seeded = rtf_collect(RtfEngine(TWO_STATE, UniformSampler(2), cfg, np.uint64(7)))
    assert np.array_equal(numpy_seeded.counts, rtf_collect(make_engine(TWO_STATE, cfg, 7)).counts)
    states = list(trajectory_from_oracle(TWO_STATE, 0, np.int64(7), max_steps=50))
    assert states == list(trajectory_from_oracle(TWO_STATE, 0, 7, max_steps=50))


@pytest.mark.parametrize("workers", [2.5, True, "2", None])
def test_worker_count_must_be_an_integer(workers):
    with pytest.raises(TypeError, match="worker_count must be an integer"):
        make_engine(TWO_STATE, UcpiConfig(2, 100, 5, 0.1), 0, workers)


def test_worker_count_accepts_numpy_integers():
    cfg = UcpiConfig(2, 2 * BLOCK_SIZE, 4, 0.1)
    pooled = rtf_collect(make_engine(TWO_STATE, cfg, 3, np.int64(2)))
    assert np.array_equal(pooled.counts, rtf_collect(make_engine(TWO_STATE, cfg, 3)).counts)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "mangle, shape, dtype",
    [
        (lambda xs: xs[:, None], (BLOCK_SIZE, 1), "int64"),  # would broadcast against x0
        (lambda xs: xs + 0.5, (BLOCK_SIZE,), "float64"),  # never equals a start
    ],
    ids=["column", "float"],
)
def test_bad_kernel_output_raises_collection_error(mangle, shape, dtype, workers):
    cfg = UcpiConfig(20, 2000, 4, 0.1)
    with pytest.raises(CollectionError, match="block of paths 0..1023") as exc_info:
        rtf_collect(make_engine(KernelReturns(mangle), cfg, 5, workers=workers))
    assert isinstance(exc_info.value.__cause__, TypeError)
    assert f"{dtype} of shape {shape}" in str(exc_info.value)
    assert exc_info.value.partial.paths_completed == 0
    assert not exc_info.value.partial.counts.any()


OUT_OF_RANGE = {
    # id: (oracle, start sampler, paths completed before the failure (by worker count
    # where they differ), message)
    "scalar-half": (
        lambda: ScalarReturns(lambda x: x + 0.5), lambda: UniformSampler(20), 0,
        "cannot be interpreted as an integer",
    ),
    "scalar-plus-100": (
        lambda: ScalarReturns(lambda x: x + 100), lambda: UniformSampler(20), 0,
        r"final state \d+ outside \[0, 20\)",
    ),
    "kernel-plus-100": (
        lambda: KernelReturns(lambda xs: xs + 100), lambda: UniformSampler(20), 0,
        r"final state \d+ outside \[0, 20\)",
    ),
    # Each forked child counts its own draws.  Serially the 1,501st draw falls in
    # the second block; at two workers the first child draws blocks 0 and 2, so
    # its 1,501st draw falls in the third block and the second block completes.
    "sampler-25": (
        lambda: BiasedLineChain(20, 0.7), lambda: SamplerLeavesAfter(20, 1500, 25),
        {1: BLOCK_SIZE, 2: 2 * BLOCK_SIZE}, r"start state 25 outside \[0, 20\)",
    ),
    "sampler-25-scalar": (
        lambda: ScalarOnly(BiasedLineChain(20, 0.7)), lambda: SamplerLeavesAfter(20, 1500, 25),
        1500, r"start state 25 outside \[0, 20\)",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_states_raise_collection_error(case, workers):
    make_oracle, make_sampler, completed, message = OUT_OF_RANGE[case]
    if isinstance(completed, dict):
        completed = completed[workers]
    cfg = UcpiConfig(20, 3000, 5, 0.1)
    engine = RtfEngine(make_oracle(), make_sampler(), cfg, 5, workers)
    with pytest.raises(CollectionError, match=message) as exc_info:
        rtf_collect(engine)
    assert isinstance(exc_info.value.__cause__, (TypeError, ValueError))
    partial = exc_info.value.partial
    assert np.all(partial.counts <= partial.paths_completed)
    assert partial.paths_completed == completed


# ---------------------------------------------------------------------------
# path streams
# ---------------------------------------------------------------------------


def draw_like_a_path(rng):
    return (
        UniformSampler(20).sample(rng),
        rng.random(7).tolist(),
        TabularSampler([0.2, 0.3, 0.5]).sample(rng),
        rng.random(261).tolist(),
        rng.integers(2**40, size=3).tolist(),
    )


LEFTOVER_STATES = {
    # each leaves the generator mid-buffer, which a reset must discard
    "uniform-sampler": (lambda rng: UniformSampler(20).sample(rng), {"has_uint32": 1}),
    "tabular-sampler": (lambda rng: TabularSampler([0.2, 0.3, 0.5]).sample(rng), {"buffer_pos": 1}),
    "odd-random": (lambda rng: rng.random(7), {"buffer_pos": 3}),
}


@pytest.mark.parametrize("master_seed", [0, 9, 2**63, 2**64 - 1, 2**64 + 5, -3])
@pytest.mark.parametrize("leftover", sorted(LEFTOVER_STATES))
def test_reset_stream_draws_exactly_what_path_rng_draws(master_seed, leftover):
    disturb, expected_state = LEFTOVER_STATES[leftover]
    streams = _PathStreams(master_seed)
    for j in (0, 1023, 1024, 2**64 - 1):
        rng = streams(777)
        disturb(rng)
        state = rng.bit_generator.state
        assert {name: state[name] for name in expected_state} == expected_state
        assert draw_like_a_path(streams(j)) == draw_like_a_path(path_rng(master_seed, j))


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------


def test_split_collection_merges_to_full_run():
    # same master seed, paths split across two engines by block boundaries
    cfg_full = UcpiConfig(2, 2 * BLOCK_SIZE, 4, 0.1)
    full = rtf_collect(make_engine(TWO_STATE, cfg_full, 11))
    # worker_count=2 is accepted and changes nothing
    split = rtf_collect(make_engine(TWO_STATE, cfg_full, 11, workers=2))
    assert np.array_equal(full.counts, split.counts)

    est_full = finalize_estimate(full, cfg_full)
    est_split = finalize_estimate(split, cfg_full)
    assert np.array_equal(est_full.ell_hat, est_split.ell_hat)
    assert est_full.ell_star == est_split.ell_star


# ---------------------------------------------------------------------------
# single-trajectory extraction
# ---------------------------------------------------------------------------


def test_usp_first_match_is_time_one():
    # X_1 equals the first target, so the first segment starts at t=1
    source = [4, 2, 2, 2, 2, 2]
    engine = UspEngine(source, segment_length=2, target_sampler=FixedTargets([2, 9]), master_seed=0)
    acc = usp_collect(engine, num_segments=1)
    assert acc.paths_completed == 1
    assert engine.stats.total_wait == 1  # tau^1 = 1
    # segment body is (2, 2): returns at both steps
    assert acc.counts.tolist() == [1, 1]


def test_usp_start_time_zero_is_excluded():
    # X_0 matches the target but the stopping time must be strictly positive
    source = [2, 5, 2, 7, 7]
    engine = UspEngine(source, segment_length=2, target_sampler=FixedTargets([2, 9]), master_seed=0)
    acc = usp_collect(engine, num_segments=1)
    assert acc.paths_completed == 1
    assert engine.stats.total_wait == 2  # matched at t=2, not t=0
    assert acc.counts.tolist() == [0, 0]  # body (7, 7) never returns to 2


def test_usp_single_state_chain_back_to_back_segments():
    K = 3
    source = [0] * 50
    engine = UspEngine(source, K, FixedTargets([0] * 12), master_seed=0)
    acc = usp_collect(engine, num_segments=12)
    assert acc.paths_completed == 12
    assert np.all(acc.counts == 12)  # every step of every segment returns
    # segments are spaced exactly K+1 source steps apart
    assert engine.stats.source_steps_consumed == 1 + 12 * (K + 1)
    assert engine.stats.max_wait == 1


def test_usp_segments_disjoint_and_consumption_invariant():
    chain = BiasedLineChain(10, 0.5)
    source = trajectory_from_oracle(chain, 0, master_seed=21, max_steps=50_000)
    engine = UspEngine(source, 10, UniformSampler(10), master_seed=21)
    acc = usp_collect(engine, num_segments=300)
    stats = engine.stats
    assert acc.paths_completed == 300
    assert stats.segments_emitted == 300
    assert stats.source_steps_consumed >= 300 * 11 - 10
    assert stats.mean_wait >= 1.0
    assert stats.max_wait >= stats.mean_wait
    assert not stats.exhausted


def test_usp_exhaustion_is_partial_not_fatal():
    source = [0, 1] * 20  # 40 elements, far too short for 100 segments
    engine = UspEngine(source, 4, UniformSampler(2), master_seed=3)
    acc = usp_collect(engine, num_segments=100)
    assert engine.stats.exhausted
    assert 0 < acc.paths_completed < 100
    assert engine.stats.source_steps_consumed == 40
    # the planned config finalizes the partial result as it is
    est = finalize_estimate(acc, UcpiConfig(2, 100, 4, 0.1))
    assert 0.0 <= est.ell_star <= 1.0


def test_usp_reused_engine_reports_each_call_alone():
    engine = UspEngine(list(np.random.default_rng(2).integers(0, 5, 5000)), 5, UniformSampler(5), 7)
    usp_collect(engine, 10)
    first = dataclasses.replace(engine.stats)
    acc = usp_collect(engine, 10)
    assert acc.paths_completed == engine.stats.segments_emitted == 10
    assert engine.stats == first
    usp_collect(engine, 10**6)
    assert engine.stats.exhausted
    usp_collect(engine, 10)
    assert engine.stats == first and not engine.stats.exhausted


def test_usp_one_shot_source_serves_one_call():
    states = np.random.default_rng(2).integers(0, 5, 5000).tolist()
    engine = UspEngine(iter(states), 5, UniformSampler(5), 7)
    first = usp_collect(engine, 10)
    assert first.paths_completed == 10
    with pytest.raises(ValueError, match="one-shot iterator"):
        usp_collect(engine, 10)
    # a fresh engine over a fresh iterator repeats the first call
    again = usp_collect(UspEngine(iter(states), 5, UniformSampler(5), 7), 10)
    assert np.array_equal(again.counts, first.counts)


def test_usp_copied_engine_shares_the_one_shot_guard():
    states = np.random.default_rng(2).integers(0, 5, 5000).tolist()
    engine = UspEngine(iter(states), 5, UniformSampler(5), 7)
    copy = dataclasses.replace(engine)
    assert usp_collect(engine, 10).paths_completed == 10
    with pytest.raises(ValueError, match="one-shot iterator"):
        usp_collect(copy, 10)
    # and the other way round: a copy made after the read is refused too
    with pytest.raises(ValueError, match="one-shot iterator"):
        usp_collect(dataclasses.replace(copy), 10)


@pytest.mark.parametrize(
    "source, bad, where, segments",
    [
        ("list", 5, 0, 1),
        ("list", -1, 1500, 10_000),
        ("file", 5, 1500, 10_000),
        ("file", 7, 4999, 10_000),
        # the first segment ends within a few states; the chunk it was read in is checked whole
        ("list", 5, 1000, 1),
        ("file", 5, 1000, 1),
    ],
)
def test_usp_source_state_outside_the_targets_names_its_index(tmp_path, source, bad, where, segments):
    states = np.random.default_rng(3).integers(0, 5, 5000)
    states[where] = bad
    if source == "file":
        path = tmp_path / "trace.txt"
        path.write_text("".join(f"{x}\n" for x in states.tolist()))
        states = states_from_file(path)
    else:
        states = states.tolist()
    with pytest.raises(ValueError, match=rf"source state {bad} at index {where} outside \[0, 5\)"):
        usp_collect(UspEngine(states, 3, UniformSampler(5), 1), segments)


@pytest.mark.parametrize(
    "source, bad, where",
    [
        ("list", 2.5, 1500),
        ("list", 2.0, 0),
        ("float-array", 1.0, 0),
        ("generator", 2.5, 4999),
    ],
)
def test_usp_source_state_that_is_not_an_integer_names_its_index(source, bad, where):
    # np.fromiter(..., np.int64) used to truncate 2.5 to 2 and extract segments from it.
    states = np.random.default_rng(3).integers(0, 5, 5000).tolist()
    states[where] = bad
    if source == "float-array":
        states = np.array(states, dtype=float)
        bad = states[where]  # shown as numpy shows it
    elif source == "generator":
        states = (x for x in states)
    message = rf"^source state {re.escape(repr(bad))} at index {where} is not an integer$"
    with pytest.raises(TypeError, match=message):
        usp_collect(UspEngine(states, 3, UniformSampler(5), 1), 10_000)


@pytest.mark.parametrize(
    "source, bad, where",
    [
        ("list", 2**63, 2),
        ("list", -(2**63) - 1, 1500),
        ("generator", 2**63, 4999),
        ("uint64-array", 2**64 - 1, 0),
    ],
)
def test_usp_source_state_outside_int64_names_its_index(source, bad, where):
    states = np.random.default_rng(3).integers(0, 5, 5000).tolist()
    states[where] = bad
    if source == "uint64-array":
        states = np.array(states, dtype=np.uint64)
    elif source == "generator":
        states = (x for x in states)
    with pytest.raises(ValueError, match=rf"^source state {bad} at index {where} does not fit in int64$"):
        usp_collect(UspEngine(states, 3, UniformSampler(5), 1), 10_000)


def test_usp_source_accepts_numpy_integers():
    states = np.random.default_rng(3).integers(0, 5, 5000)
    expected = usp_collect(UspEngine(states.tolist(), 3, UniformSampler(5), 1), 100)
    for source in (states, list(states), states.astype(np.uint8)):
        got = usp_collect(UspEngine(source, 3, UniformSampler(5), 1), 100)
        assert got.paths_completed == expected.paths_completed
        assert np.array_equal(got.counts, expected.counts)


def test_usp_targets_need_a_positive_min_pmf():
    with pytest.raises(ValueError, match="target min_pmf 0.0 is not positive"):
        usp_collect(UspEngine([0, 1, 0], 1, FixedTargets([0], size=math.inf), 1), 1)


def test_usp_file_source_matches_in_memory(tmp_path):
    rng = np.random.default_rng(31)
    states = rng.integers(0, 6, size=4000)
    path = tmp_path / "trajectory.txt"
    path.write_text("\n".join(map(str, states.tolist())) + "\n")

    mem = UspEngine(states.tolist(), 5, UniformSampler(6), master_seed=13)
    acc_mem = usp_collect(mem, num_segments=50)
    fil = UspEngine(states_from_file(path), 5, UniformSampler(6), master_seed=13)
    acc_fil = usp_collect(fil, num_segments=50)
    assert np.array_equal(acc_mem.counts, acc_fil.counts)
    assert acc_mem.paths_completed == acc_fil.paths_completed


def test_usp_segment_starts_are_uniform_smoke():
    # small-scale uniformity check; the acceptance suite runs the full one
    chain = BiasedLineChain(10, 0.5)
    source = trajectory_from_oracle(chain, 0, master_seed=37, max_steps=400_000)
    starts = []
    engine = UspEngine(source, 10, UniformSampler(10), master_seed=37, on_segment=starts.append)
    usp_collect(engine, num_segments=2000)
    observed = np.bincount(starts, minlength=10)
    _, pvalue = stats.chisquare(observed)
    assert pvalue > 1e-3


@pytest.mark.parametrize(
    "max_steps, error, message",
    [
        (-3, ValueError, "^max_steps must be >= 0$"),
        (True, TypeError, "^max_steps must be an integer, not True$"),
        (2.5, TypeError, "^max_steps must be an integer, not 2.5$"),
        ("3", TypeError, "^max_steps must be an integer, not '3'$"),
    ],
    ids=["negative", "bool", "float", "str"],
)
def test_trajectory_from_oracle_checks_max_steps_when_called(max_steps, error, message):
    # -3 used to yield nothing, True one state, and 2.5 one state before range's TypeError.
    oracle = CountingOracle(TWO_STATE)
    with pytest.raises(error, match=message):
        trajectory_from_oracle(oracle, 0, 5, max_steps)  # never iterated
    assert oracle.calls == 0


def test_trajectory_from_oracle_checks_master_seed_when_called():
    with pytest.raises(TypeError, match="^master_seed must be an integer, not 2.5$"):
        trajectory_from_oracle(TWO_STATE, 0, 2.5)  # never iterated


@pytest.mark.parametrize(
    "start, error, message",
    [
        (2.5, TypeError, "^start_state must be an integer, not 2.5$"),
        (True, TypeError, "^start_state must be an integer, not True$"),
        (25, ValueError, r"^start_state 25 outside \[0, 20\)$"),
        (20, ValueError, r"^start_state 20 outside \[0, 20\)$"),
        (-1, ValueError, r"^start_state -1 outside \[0, 20\)$"),
    ],
)
def test_trajectory_from_oracle_checks_start_state_when_called(start, error, message):
    # 25 on a 20-state line used to be yielded as a state, and 2.5 yielded floats.
    oracle = CountingOracle(BiasedLineChain(20, 0.5))
    with pytest.raises(error, match=message):
        trajectory_from_oracle(oracle, start, 1, 5000)  # never iterated
    assert oracle.calls == 0


def test_trajectory_from_oracle_accepts_numpy_start_states():
    chain = BiasedLineChain(20, 0.5)
    expected = list(trajectory_from_oracle(chain, 19, 1, 50))
    assert list(trajectory_from_oracle(chain, np.int64(19), 1, 50)) == expected
    assert list(trajectory_from_oracle(chain, np.uint8(19), 1, 50)) == expected


def test_trajectory_from_oracle_accepts_numpy_max_steps():
    expected = list(trajectory_from_oracle(TWO_STATE, 1, 7, 4))
    assert len(expected) == 4
    assert list(trajectory_from_oracle(TWO_STATE, 1, 7, np.int64(4))) == expected
    assert list(trajectory_from_oracle(TWO_STATE, 1, 7, np.uint8(4))) == expected


def test_trajectory_from_oracle_is_reproducible():
    chain = BiasedLineChain(6, 0.6)
    a = list(trajectory_from_oracle(chain, 2, master_seed=5, max_steps=100))
    b = list(trajectory_from_oracle(chain, 2, master_seed=5, max_steps=100))
    assert a == b
    assert a[0] == 2
    assert len(a) == 100


def test_trajectory_from_oracle_steps_once_per_state_after_the_first():
    oracle = CountingOracle(BiasedLineChain(6, 0.6))
    states = list(trajectory_from_oracle(oracle, 2, master_seed=5, max_steps=100))
    assert len(states) == 100
    assert oracle.calls == 99
    assert list(trajectory_from_oracle(oracle, 2, master_seed=5, max_steps=0)) == []
