import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from specgap.chains import (
    BiasedLineChain,
    DenseMatrixChain,
    SquaredChainOracle,
    TabularSampler,
    UniformSampler,
)
from specgap.estimator import (
    ReturnCountAccumulator,
    UcpiConfig,
    WeightedReturnAccumulator,
    config_for_budget,
    finalize_estimate,
    finalize_weighted,
)
from specgap.sampling import (
    BLOCK_SIZE,
    CollectionError,
    RtfEngine,
    estimate_nonlazy,
    path_rng,
    rtf_collect,
    weighted_collect,
)

from helpers import ScalarOnly, odd_heavy

FLIP_HEAVY = DenseMatrixChain([[0.1, 0.9], [0.9, 0.1]])  # eigenvalues 1, -0.8
TWO_STATE = DenseMatrixChain([[0.75, 0.25], [0.25, 0.75]])  # eigenvalues 1, 0.5


class CallCounter:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def state_space_size(self):
        return self.inner.state_space_size()

    def next_state(self, x, rng):
        self.calls += 1
        return self.inner.next_state(x, rng)


# ---------------------------------------------------------------------------
# squared-chain oracle
# ---------------------------------------------------------------------------


def test_squared_oracle_makes_exactly_two_inner_calls():
    counter = CallCounter(FLIP_HEAVY)
    squared = SquaredChainOracle(counter)
    rng = np.random.default_rng(0)
    for _ in range(50):
        squared.next_state(0, rng)
    assert counter.calls == 100


def test_squared_oracle_frequencies_match_explicit_square():
    P = FLIP_HEAVY.transition_matrix()
    P2 = P @ P
    squared = SquaredChainOracle(FLIP_HEAVY)
    rng = np.random.default_rng(1)
    draws = 20_000
    for x in range(2):
        observed = np.bincount([squared.next_state(x, rng) for _ in range(draws)], minlength=2)
        _, pvalue = stats.chisquare(observed, draws * P2[x])
        assert pvalue > 1e-3


def test_squared_oracle_three_state_vectorized_vs_square():
    chain = DenseMatrixChain([[0.6, 0.3, 0.1], [0.3, 0.5, 0.2], [0.1, 0.2, 0.7]])
    squared = SquaredChainOracle(chain)
    assert squared.uniforms_per_step == 2
    P2 = chain.transition_matrix() @ chain.transition_matrix()
    rng = np.random.default_rng(2)
    draws = 30_000
    us = rng.random((draws, 2))
    for x in range(3):
        ys = squared.step_with_uniforms(np.full(draws, x, dtype=np.int64), us)
        observed = np.bincount(ys, minlength=3)
        _, pvalue = stats.chisquare(observed, draws * P2[x])
        assert pvalue > 1e-3


def test_squared_oracle_demotes_to_scalar_with_scalar_inner():
    squared = SquaredChainOracle(ScalarOnly(TWO_STATE))
    assert getattr(squared, "uniforms_per_step", None) is None


# ---------------------------------------------------------------------------
# non-lazy estimation
# ---------------------------------------------------------------------------


def test_nonlazy_square_root_mapping():
    cfg = config_for_budget(10**4 // 2, 2)
    result = estimate_nonlazy(FLIP_HEAVY, cfg, UniformSampler(2), master_seed=5)
    assert result.spectral_radius_bound == math.sqrt(result.squared_estimate.ell_star)
    assert result.inner_calls == 2 * cfg.num_paths * cfg.max_path_length
    # zeta_2 = 0.64 for eigenvalues {1, -0.8}; the bound must sit above |lambda| = 0.8
    assert result.spectral_radius_bound >= 0.8


def test_nonlazy_coverage_on_negative_spectrum():
    cfg = config_for_budget(5000, 2)
    hits = 0
    trials = 60
    for seed in range(trials):
        result = estimate_nonlazy(FLIP_HEAVY, cfg, UniformSampler(2), master_seed=seed)
        hits += result.spectral_radius_bound >= 0.8
    assert hits == trials  # conservative bound: violations should be rare to absent


def test_nonlazy_on_lazy_chain_still_covers():
    cfg = config_for_budget(5000, 2)
    for seed in range(30):
        result = estimate_nonlazy(TWO_STATE, cfg, UniformSampler(2), master_seed=seed)
        assert result.spectral_radius_bound >= 0.5


# ---------------------------------------------------------------------------
# importance-weighted starts
# ---------------------------------------------------------------------------


def test_weighted_accumulator_scaled_counts_bounds():
    acc = WeightedReturnAccumulator.empty(4, w_max=3.0)
    assert acc.max_path_length == 4
    assert np.array_equal(acc.weighted_sums, np.zeros(4))
    with pytest.raises(ValueError):
        WeightedReturnAccumulator.empty(0, w_max=2.0)
    with pytest.raises(ValueError):
        WeightedReturnAccumulator.empty(3, w_max=0.5)
    with pytest.raises(ValueError, match="w_max"):
        WeightedReturnAccumulator.empty(3, w_max=float("nan"))  # used to fail later, in finalize


def test_weighted_uniform_reduces_to_plain_counts():
    chain = BiasedLineChain(20, 0.7)
    cfg = UcpiConfig(20, 3000, 12, 0.05)
    sampler = UniformSampler(20)
    weighted = weighted_collect(chain, sampler, cfg, master_seed=9)
    plain = rtf_collect(RtfEngine(chain, sampler, cfg, 9))
    assert np.array_equal(weighted.scaled_counts, plain.counts.astype(float))
    assert np.array_equal(weighted.weighted_sums, plain.counts * 20.0)


def test_weighted_uniform_finalizes_identically_to_plain_pipeline():
    chain = BiasedLineChain(20, 0.7)
    cfg = UcpiConfig(20, 3000, 12, 0.05)
    sampler = UniformSampler(20)
    est_w = finalize_weighted(weighted_collect(chain, sampler, cfg, master_seed=9), cfg)
    est_p = finalize_estimate(rtf_collect(RtfEngine(chain, sampler, cfg, 9)), cfg)
    assert np.array_equal(est_w.m_hat, est_p.m_hat)
    assert np.array_equal(est_w.u_hat, est_p.u_hat)
    assert np.array_equal(est_w.ell_hat, est_p.ell_hat)
    assert est_w.ell_star == est_p.ell_star
    assert est_w.argmin_k == est_p.argmin_k


def test_weighted_single_state_support():
    # A point mass on a 1-state chain leaves state 1 of an |S| = 2 config
    # without mass, so its counts would bound nothing: no path runs.
    absorbing = CallCounter(DenseMatrixChain([[1.0]]))
    sampler = TabularSampler([1.0])
    cfg = UcpiConfig(2, 25, 3, 0.1)
    with pytest.raises(ValueError, match="min_pmf 1.0 cannot give mass to all 2 states"):
        weighted_collect(absorbing, sampler, cfg, master_seed=1)
    with pytest.raises(ValueError, match="min_pmf 1.0 cannot give mass to all 2 states"):
        rtf_collect(RtfEngine(absorbing, sampler, cfg, 1))
    assert absorbing.calls == 0


def test_weighted_terms_are_one_on_an_identity_chain():
    # every path stays at its uniform start: every weighted term is 1
    cfg = UcpiConfig(2, 25, 3, 0.1)
    acc = weighted_collect(DenseMatrixChain(np.eye(2)), TabularSampler([0.5, 0.5]), cfg, 1)
    assert np.array_equal(acc.scaled_counts, np.full(3, 25.0))
    assert np.array_equal(acc.weighted_sums, np.full(3, 50.0))
    assert acc.paths_completed == 25


SKEWED = TabularSampler([0.01] * 5 + [0.95])  # min_pmf * |S| = 0.06


def test_skewed_start_law_is_weighted_by_every_fresh_path_collector():
    # Counted as integers, these returns gave ell_star = 0.0, far below
    # lambda* = 0.7598; the rule weights them wherever the law comes in.
    chain = BiasedLineChain(6, 0.9)
    cfg = config_for_budget(10**6, 6)
    lam_star = 0.7598076211353315
    weighted = weighted_collect(chain, SKEWED, cfg, master_seed=0)
    plain = rtf_collect(RtfEngine(chain, SKEWED, cfg, 0))
    assert isinstance(plain, WeightedReturnAccumulator) and plain.w_max == weighted.w_max
    assert np.array_equal(plain.scaled_counts, weighted.scaled_counts)
    ell_star = finalize_estimate(plain, cfg).ell_star
    assert ell_star == finalize_estimate(weighted, cfg).ell_star >= lam_star

    nonlazy = estimate_nonlazy(chain, cfg, SKEWED, master_seed=0)
    squared = weighted_collect(SquaredChainOracle(chain), SKEWED, cfg, master_seed=0)
    assert nonlazy.squared_estimate.ell_star == finalize_estimate(squared, cfg).ell_star
    assert nonlazy.spectral_radius_bound >= lam_star


class ReportsMinPmf:
    """Draws and pmf of ``inner``, with any reported min_pmf."""

    def __init__(self, min_pmf, inner=UniformSampler(6)):
        self.inner, self.reported = inner, min_pmf

    def sample(self, rng):
        return self.inner.sample(rng)

    def pmf(self, x):
        return self.inner.pmf(x)

    def min_pmf(self):
        return self.reported


@pytest.mark.parametrize(
    "sampler",
    [UniformSampler(3), TabularSampler([0.5, 0.5]), ReportsMinPmf(0.0), ReportsMinPmf(-0.1),
     ReportsMinPmf(float("nan")), ReportsMinPmf(1 / 6 + 1e-12)],
    ids=["uniform-on-3", "tabular-on-2", "zero", "negative", "nan", "above-1/6"],
)
def test_start_law_without_full_support_runs_no_path(sampler):
    # UniformSampler(3) on BiasedLineChain(6, 0.6) gave ell_star = 0.0,
    # below lambda* = 0.9243: states 3..5 never start a path.
    chain = CallCounter(BiasedLineChain(6, 0.6))
    cfg = UcpiConfig(6, 100, 5, 0.1)
    for collect in (
        lambda: weighted_collect(chain, sampler, cfg, master_seed=0),
        lambda: rtf_collect(RtfEngine(chain, sampler, cfg, 0)),
        lambda: estimate_nonlazy(chain, cfg, sampler, master_seed=0),
    ):
        with pytest.raises(ValueError, match="cannot give mass to all 6 states"):
            collect()
    assert chain.calls == 0


def test_start_law_within_the_sum_tolerance_is_accepted():
    # TabularSampler accepts sums within 1e-12 of 1, so min_pmf * |S| may
    # exceed 1 by as much; such a law is weighted with w_max < |S|.
    sampler = TabularSampler([1 / 6 + 1e-13] * 6)
    assert sampler.min_pmf() * 6 > 1.0
    cfg = UcpiConfig(6, 100, 5, 0.1)
    acc = rtf_collect(RtfEngine(BiasedLineChain(6, 0.6), sampler, cfg, 0))
    assert isinstance(acc, WeightedReturnAccumulator) and acc.w_max < 6.0
    assert np.array_equal(acc.scaled_counts, np.floor(acc.scaled_counts))  # every weight is 1
    assert acc.paths_completed == 100


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(2, 8),
    weights=st.lists(st.floats(0.05, 1.0), min_size=8, max_size=8),
    uniform=st.booleans(),
    scalar=st.booleans(),
    num_paths=st.integers(1, 2 * BLOCK_SIZE + 5),
    K=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
def test_rtf_collect_matches_weighted_collect_under_any_start_law(
    size, weights, uniform, scalar, num_paths, K, seed
):
    chain = BiasedLineChain(size, 0.7)
    oracle = CallCounter(chain) if scalar else chain
    if uniform:
        sampler = UniformSampler(size)
    else:
        w = np.array(weights[:size])
        sampler = TabularSampler(w / w.sum())
    cfg = UcpiConfig(size, num_paths, K, 0.1)
    weighted = weighted_collect(oracle, sampler, cfg, seed)
    got = rtf_collect(RtfEngine(oracle, sampler, cfg, seed))
    assert got.paths_completed == weighted.paths_completed == num_paths
    if sampler.min_pmf() == 1.0 / size:  # uniform: integer counts, each weight 1
        assert type(got) is ReturnCountAccumulator and got.counts.dtype == np.int64
        assert np.array_equal(got.counts, weighted.scaled_counts)
    else:
        assert isinstance(got, WeightedReturnAccumulator) and got.w_max == weighted.w_max
        assert got.counts.dtype == np.float64
        assert np.array_equal(got.scaled_counts, weighted.scaled_counts)


def test_weighted_sums_unbiased_for_trace():
    # E[weighted_sums / I] = tr(P^k) = 1 + 0.5^k on the two-state chain
    cfg = UcpiConfig(2, 10**5, 6, 0.05)
    mu = TabularSampler([0.4, 0.6])
    acc = weighted_collect(TWO_STATE, mu, cfg, master_seed=23)
    I = cfg.num_paths
    P = TWO_STATE.transition_matrix()
    Pk = np.eye(2)
    for k in range(1, 7):
        Pk = Pk @ P
        trace = float(np.trace(Pk))
        # exact per-path variance of 1{return}/mu(start) under start ~ mu
        second_moment = sum(Pk[x, x] / mu.pmf(x) for x in range(2))
        se = math.sqrt((second_moment - trace**2) / I)
        assert abs(acc.weighted_sums[k - 1] / I - trace) <= 5 * se


def test_weighted_zero_mean_closed_form():
    # s_k = 0 forces the trace bound (1 - (delta/2K)^(1/I)) * w_max
    never_return = DenseMatrixChain([[0.0, 1.0], [1.0, 0.0]])
    cfg = UcpiConfig(2, 50, 1, 0.1)
    mu = TabularSampler([0.5, 0.5])
    acc = weighted_collect(never_return, mu, cfg, master_seed=2)
    assert acc.scaled_counts[0] == 0.0
    est = finalize_weighted(acc, cfg)
    expected_trace_bound = (1.0 - (0.1 / 2.0) ** (1.0 / 50)) * 2.0
    assert est.u_hat[0] * 2.0 == pytest.approx(expected_trace_bound, abs=1e-15)


def test_weighted_coverage_near_uniform():
    # min_pmf * |S| = 0.8 >= 0.5, where the rescaled bound stays usable
    cfg = config_for_budget(10**4, 2)
    mu = TabularSampler([0.4, 0.6])
    hits = 0
    trials = 200
    for seed in range(trials):
        est = finalize_weighted(weighted_collect(TWO_STATE, mu, cfg, master_seed=seed), cfg)
        hits += est.ell_star >= 0.5
    assert hits / trials >= 1.0 - cfg.confidence


def test_weighted_rejects_zero_pmf_draws():
    class LyingSampler:
        def sample(self, rng):
            return 1

        def pmf(self, x):
            return 0.0  # inconsistent with sample()

        def min_pmf(self):
            return 0.25

    cfg = UcpiConfig(2, 10, 2, 0.1)
    with pytest.raises(CollectionError, match="zero pmf"):
        weighted_collect(TWO_STATE, LyingSampler(), cfg, master_seed=0)


# pmf (0.1, 0.3, 0.3, 0.3) but min_pmf() = 0.2, inside (0, 1/4]: the law passes
# the up-front check, and only a path that starts at state 0 (weight 2) fails.
OVERSTATES_MIN_PMF = ReportsMinPmf(0.2, TabularSampler([0.1, 0.3, 0.3, 0.3]))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scalar", [False, True])
def test_weighted_rejects_weights_above_one(scalar, workers):
    chain = BiasedLineChain(4, 0.5)
    oracle = CallCounter(chain) if scalar else chain
    cfg = UcpiConfig(4, 2000, 4, 0.1)
    seed = 2
    starts = (OVERSTATES_MIN_PMF.sample(path_rng(seed, j)) for j in range(cfg.num_paths))
    first_bad = next(j for j, x0 in enumerate(starts) if x0 == 0)
    assert first_bad == 34
    with pytest.raises(CollectionError, match="pmf 0.1 below min_pmf 0.2") as exc_info:
        weighted_collect(oracle, OVERSTATES_MIN_PMF, cfg, master_seed=seed, worker_count=workers)
    partial = exc_info.value.partial
    assert isinstance(partial, WeightedReturnAccumulator)
    assert isinstance(exc_info.value.__cause__, ValueError)
    if scalar:  # the paths before the first bad start are committed
        clean = weighted_collect(oracle, OVERSTATES_MIN_PMF, UcpiConfig(4, first_bad, 4, 0.1), seed)
        assert partial.paths_completed == first_bad
        assert np.array_equal(partial.scaled_counts, clean.scaled_counts)
        assert partial.scaled_counts.any()
    else:  # the whole first block fails
        assert partial.paths_completed == 0
        assert np.array_equal(partial.scaled_counts, np.zeros(4))


def test_weighted_vectorized_zero_pmf_names_the_block():
    class LyingSampler:
        def sample(self, rng):
            return 1

        def pmf(self, x):
            return 0.0

        def min_pmf(self):
            return 0.25

    with pytest.raises(CollectionError) as exc_info:
        weighted_collect(TWO_STATE, LyingSampler(), UcpiConfig(2, 10, 2, 0.1), master_seed=0)
    assert str(exc_info.value) == (
        "simulator failed in block of paths 0..9: sampler produced state 1 with zero pmf"
    )


def test_finalize_weighted_rejects_scaled_sums_above_paths():
    # Weights above 1 could push a scaled sum past I; finalize must not clip it.
    acc = WeightedReturnAccumulator(np.array([3618.0, 3316.0, 2994.0, 2784.0]), 2.0, 2000)
    with pytest.raises(ValueError, match="must lie in"):
        finalize_weighted(acc, UcpiConfig(4, 2000, 4, 0.1))


def test_weighted_scalar_failure_after_first_block_keeps_partial_sums():
    class FailsAfterCalls(CallCounter):
        def __init__(self, inner, limit):
            super().__init__(inner)
            self.limit = limit

        def next_state(self, x, rng):
            if self.calls >= self.limit:
                raise RuntimeError("transition backend went away")
            return super().next_state(x, rng)

    chain, K = BiasedLineChain(20, 0.7), 5
    oracle = FailsAfterCalls(chain, limit=1500 * K)  # dies on path 1500 of 3000
    with pytest.raises(CollectionError) as exc_info:
        weighted_collect(oracle, odd_heavy(20), UcpiConfig(20, 3000, K, 0.1), master_seed=2)
    partial = exc_info.value.partial
    assert isinstance(partial, WeightedReturnAccumulator)
    assert partial.paths_completed == 1500
    assert isinstance(exc_info.value.__cause__, RuntimeError)
    clean = weighted_collect(
        CallCounter(chain), odd_heavy(20), UcpiConfig(20, 1500, K, 0.1), master_seed=2
    )
    assert np.array_equal(partial.scaled_counts, clean.scaled_counts)


@pytest.mark.parametrize("workers", [1, 2])
def test_weighted_vectorized_kernel_failure_keeps_completed_blocks(workers):
    class KernelFailsOnShortBlock:
        uniforms_per_step = 1

        def state_space_size(self):
            return 20

        def step_with_uniforms(self, xs, us):
            if len(xs) < BLOCK_SIZE:
                raise RuntimeError("kernel boom")
            return BiasedLineChain(20, 0.7).step_with_uniforms(xs, us)

    cfg = UcpiConfig(20, 3000, 5, 0.1)  # blocks of 1024, 1024 and 952 paths
    with pytest.raises(CollectionError) as exc_info:
        weighted_collect(KernelFailsOnShortBlock(), odd_heavy(20), cfg, 3, worker_count=workers)
    partial = exc_info.value.partial
    assert partial.paths_completed % BLOCK_SIZE == 0
    assert partial.paths_completed == 2 * BLOCK_SIZE
    assert np.all(partial.scaled_counts <= partial.paths_completed)
    assert str(exc_info.value.__cause__) == "kernel boom"


@pytest.mark.parametrize("workers", [1, 2])
def test_weighted_scalar_sampler_failure_raises_collection_error(workers):
    class FailsAfterDraws:
        def __init__(self, inner, limit):
            self.inner, self.limit, self.draws = inner, limit, 0

        def sample(self, rng):
            self.draws += 1
            if self.draws > self.limit:
                raise RuntimeError("sampler boom")
            return self.inner.sample(rng)

        def pmf(self, x):
            return self.inner.pmf(x)

        def min_pmf(self):
            return self.inner.min_pmf()

    chain, K = BiasedLineChain(20, 0.7), 5
    sampler = FailsAfterDraws(odd_heavy(20), limit=1500)
    with pytest.raises(CollectionError) as exc_info:
        weighted_collect(
            CallCounter(chain), sampler, UcpiConfig(20, 3000, K, 0.1), 2, worker_count=workers
        )
    partial = exc_info.value.partial
    assert isinstance(partial, WeightedReturnAccumulator)
    assert str(exc_info.value.__cause__) == "sampler boom"
    assert partial.paths_completed == 1500
    clean = weighted_collect(CallCounter(chain), odd_heavy(20), UcpiConfig(20, 1500, K, 0.1), 2)
    assert np.array_equal(partial.scaled_counts, clean.scaled_counts)


@pytest.mark.parametrize(
    "start_weights",
    [np.arange(1.0, 21.0), np.random.default_rng(8).random(20) + 0.1, np.array([1.0, 3.0] * 10)],
    ids=["1..20", "random", "1-3"],
)
def test_weighted_sums_identical_scalar_and_vectorized(start_weights):
    # Non-dyadic weights: the scalar block must add each k as the vectorized one does.
    chain = BiasedLineChain(20, 0.7)
    mu = TabularSampler(start_weights / start_weights.sum())
    cfg = UcpiConfig(20, 3000, 40, 0.1)
    vectorized = rtf_collect(RtfEngine(chain, mu, cfg, 4))
    scalar = rtf_collect(RtfEngine(CallCounter(chain), mu, cfg, 4))
    assert vectorized.counts.dtype == np.float64 and vectorized.counts.any()
    assert np.array_equal(vectorized.counts, scalar.counts)


def test_finalize_weighted_validation():
    cfg = UcpiConfig(2, 10, 3, 0.1)
    acc = WeightedReturnAccumulator.empty(3, w_max=2.0)
    acc.paths_completed = 10
    short = WeightedReturnAccumulator.empty(2, w_max=2.0)
    short.paths_completed = 10
    with pytest.raises(ValueError, match="path lengths"):
        finalize_weighted(short, cfg)
    acc.paths_completed = 0
    with pytest.raises(ValueError, match="no completed path"):
        finalize_weighted(acc, cfg)


def test_weighted_worker_counts_agree():
    chain = BiasedLineChain(20, 0.5)
    cfg = UcpiConfig(20, 2500, 6, 0.05)
    mu = TabularSampler(np.full(20, 0.05))
    base = weighted_collect(chain, mu, cfg, master_seed=4, worker_count=1)
    many = weighted_collect(chain, mu, cfg, master_seed=4, worker_count=8)
    assert np.array_equal(base.scaled_counts, many.scaled_counts)


@pytest.mark.parametrize("scalar", [False, True])
def test_weighted_sums_identical_across_worker_counts(scalar):
    # A non-dyadic pmf makes every weight inexact, so summation order would show.
    chain = BiasedLineChain(20, 0.7)
    weights = np.random.default_rng(8).random(20) + 0.1
    mu = TabularSampler(weights / weights.sum())
    cfg = UcpiConfig(20, 3 * BLOCK_SIZE + 77, 6, 0.05)  # ragged last block
    oracle = CallCounter(chain) if scalar else chain
    sums = [
        weighted_collect(oracle, mu, cfg, master_seed=4, worker_count=workers).scaled_counts
        for workers in (1, 2, 3)
    ]
    assert sums[0].dtype == np.float64 and sums[0].any()
    assert np.array_equal(sums[0], sums[1])
    assert np.array_equal(sums[0], sums[2])
