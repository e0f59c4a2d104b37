import math
import threading

import numpy as np
import pytest
from scipy import stats

from specgap.chains import BiasedLineChain, DenseMatrixChain, TabularSampler, UniformSampler
from specgap.estimator import ReturnCountAccumulator, UcpiConfig, finalize_estimate
from specgap.extensions import WeightedReturnAccumulator
from specgap.sampling import (
    BLOCK_SIZE,
    CollectionError,
    RtfEngine,
    UspEngine,
    _PathStreams,
    merge_accumulators,
    path_rng,
    rtf_collect,
    states_from_file,
    trajectory_from_oracle,
    usp_collect,
)

TWO_STATE = DenseMatrixChain([[0.75, 0.25], [0.25, 0.75]])


class ScalarOnly:
    """Hides the vectorized kernel so the engine takes the next_state path."""

    def __init__(self, inner):
        self.inner = inner

    def state_space_size(self):
        return self.inner.state_space_size()

    def next_state(self, x, rng):
        return self.inner.next_state(x, rng)


class CountingOracle(ScalarOnly):
    def __init__(self, inner):
        super().__init__(inner)
        self.calls = 0

    def next_state(self, x, rng):
        self.calls += 1
        return super().next_state(x, rng)


class FixedTargets:
    """Deterministic target sequence standing in for the uniform sampler."""

    def __init__(self, targets):
        self.targets = iter(targets)

    def sample(self, rng):
        return next(self.targets)

    def pmf(self, x):
        return 0.0

    def min_pmf(self):
        return 0.0


class KernelFailsOnShortBlock:
    """Vectorized chain whose kernel raises on a block shorter than BLOCK_SIZE."""

    uniforms_per_step = 1

    def __init__(self, inner):
        self.inner = inner

    def state_space_size(self):
        return self.inner.state_space_size()

    def step_with_uniforms(self, xs, us):
        if len(xs) < BLOCK_SIZE:
            raise RuntimeError("kernel boom")
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
    """Raises on draw `limit + 1` only; counts draws under a lock, as threads share it."""

    def __init__(self, size, limit):
        super().__init__(size, limit)
        self.lock = threading.Lock()

    def sample(self, rng):
        with self.lock:
            self.draws += 1
            fail = self.draws == self.limit + 1
        if fail:
            raise RuntimeError("sampler boom")
        return self.inner.sample(rng)


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


def test_master_seed_changes_counts():
    cfg = UcpiConfig(2, 500, 5, 0.1)
    a = rtf_collect(make_engine(TWO_STATE, cfg, 7))
    b = rtf_collect(make_engine(TWO_STATE, cfg, 8))
    assert not np.array_equal(a.counts, b.counts)


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
    if workers == 1:
        assert partial.paths_completed == 1500
    # Threads interleave their draws, but what completed is still a prefix of the paths.
    assert 0 < partial.paths_completed < 3000
    assert np.all(partial.counts <= partial.paths_completed)
    clean = rtf_collect(make_engine(chain, UcpiConfig(20, partial.paths_completed, K, 0.1), 5))
    assert np.array_equal(partial.counts, clean.counts)


def test_failure_cancels_blocks_not_yet_started():
    blocks = 50
    sampler = SamplerFailsOnce(20, limit=9)  # fails inside block 0 or 1
    cfg = UcpiConfig(20, blocks * BLOCK_SIZE, 1, 0.1)
    with pytest.raises(CollectionError) as exc_info:
        rtf_collect(RtfEngine(BiasedLineChain(20, 0.7), sampler, cfg, 5, worker_count=2))
    assert str(exc_info.value.__cause__) == "sampler boom"
    # Fewer than half of the blocks drew any start: the rest were cancelled.
    assert sampler.draws < blocks // 2 * BLOCK_SIZE
    partial = exc_info.value.partial
    assert partial.paths_completed in (0, BLOCK_SIZE)
    assert np.all(partial.counts <= partial.paths_completed)


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
    # id: (oracle, start sampler, paths completed before the failure at workers=1, message)
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
    "sampler-25": (
        lambda: BiasedLineChain(20, 0.7), lambda: SamplerLeavesAfter(20, 1500, 25), BLOCK_SIZE,
        r"start state 25 outside \[0, 20\)",
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
    cfg = UcpiConfig(20, 3000, 5, 0.1)
    engine = RtfEngine(make_oracle(), make_sampler(), cfg, 5, workers)
    with pytest.raises(CollectionError, match=message) as exc_info:
        rtf_collect(engine)
    assert isinstance(exc_info.value.__cause__, (TypeError, ValueError))
    partial = exc_info.value.partial
    assert np.all(partial.counts <= partial.paths_completed)
    if workers == 1:
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


@pytest.mark.parametrize("master_seed", [0, 9, 2**64 + 5, -3])
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


def make_acc(counts, paths):
    acc = ReturnCountAccumulator(np.asarray(counts, dtype=np.int64))
    acc.paths_completed = paths
    return acc


def test_merge_with_empty_is_identity():
    a = make_acc([3, 1, 0], 5)
    merged = merge_accumulators([a, ReturnCountAccumulator.empty(3)])
    assert merged.counts.tolist() == [3, 1, 0]
    assert merged.paths_completed == 5


def test_merge_is_permutation_invariant():
    accs = [make_acc([1, 2, 3], 4), make_acc([0, 5, 1], 6), make_acc([2, 2, 2], 3)]
    ref = merge_accumulators(accs)
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        out = merge_accumulators([accs[i] for i in perm])
        assert np.array_equal(out.counts, ref.counts)
        assert out.paths_completed == ref.paths_completed


def test_merge_rejects_length_mismatch():
    with pytest.raises(ValueError, match="lengths"):
        merge_accumulators([make_acc([1, 2], 2), make_acc([1, 2, 3], 3)])


def test_merge_weighted_guards():
    def weighted(sums, paths, w_max):
        return WeightedReturnAccumulator(np.asarray(sums, dtype=float), w_max, paths)

    a, b = weighted([1.0, 0.5], 2, 2.0), weighted([0.5, 0.5], 1, 2.0)
    merged = merge_accumulators([a, b])
    assert isinstance(merged, WeightedReturnAccumulator)
    assert merged.scaled_counts.tolist() == [1.5, 1.0]
    assert (merged.w_max, merged.paths_completed) == (2.0, 3)
    with pytest.raises(ValueError, match="weighted and unweighted"):
        merge_accumulators([a, make_acc([1, 1], 2)])
    with pytest.raises(ValueError, match="weighted and unweighted"):
        merge_accumulators([make_acc([1, 1], 2), a])
    with pytest.raises(ValueError, match="w_max 2.0 and 4.0"):
        merge_accumulators([a, weighted([1.0, 0.0], 1, 4.0)])


def test_merge_does_not_mutate_inputs():
    a, b = make_acc([1, 1], 2), make_acc([2, 0], 2)
    merge_accumulators([a, b])
    assert a.counts.tolist() == [1, 1] and b.counts.tolist() == [2, 0]


def test_split_collection_merges_to_full_run():
    # same master seed, paths split across two engines by block boundaries
    cfg_full = UcpiConfig(2, 2 * BLOCK_SIZE, 4, 0.1)
    full = rtf_collect(make_engine(TWO_STATE, cfg_full, 11))
    # re-run with worker_count=2: same blocks, different scheduling
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
    # a shrunk config finalizes the partial result
    cfg = UcpiConfig(2, acc.paths_completed, 4, 0.1)
    est = finalize_estimate(acc, cfg)
    assert 0.0 <= est.ell_star <= 1.0


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
