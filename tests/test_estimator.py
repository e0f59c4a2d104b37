import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap.estimator import (
    CB_TOLERANCE,
    ReturnCountAccumulator,
    UcpiConfig,
    WeightedReturnAccumulator,
    bernoulli_kl,
    confidence_upper_bound,
    config_for_budget,
    finalize_estimate,
    plugin_bound,
    relaxation_upper_bound,
    theory_diagnostics,
    validity_check,
)


def cb_bisection_oracle(m, num_paths, confidence, iters=200):
    """Independent root finder: plain bisection on the KL budget excess."""
    if m >= 1.0:
        return 1.0
    budget = math.log(1.0 / confidence) / num_paths
    lo, hi = m, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid >= 1.0 or bernoulli_kl(m, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# bernoulli_kl
# ---------------------------------------------------------------------------


def test_kl_of_equal_arguments_is_zero():
    assert bernoulli_kl(0.3, 0.3) == 0.0
    assert bernoulli_kl(0.0, 0.0) == 0.0
    assert bernoulli_kl(1.0, 1.0) == 0.0


def test_kl_closed_form_at_zero():
    assert bernoulli_kl(0.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)


def test_kl_direct_formula_value():
    # 0.5*ln(0.5/0.75) + 0.5*ln(0.5/0.25) = 0.5*ln(4/3)
    assert bernoulli_kl(0.5, 0.75) == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-15)


def test_kl_boundary_conventions():
    assert bernoulli_kl(0.5, 0.0) == math.inf
    assert bernoulli_kl(0.5, 1.0) == math.inf
    assert bernoulli_kl(0.0, 0.9) == pytest.approx(math.log(10.0), abs=1e-12)


@pytest.mark.parametrize("u,v", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.01), (0.5, 1.5)])
def test_kl_domain_errors(u, v):
    with pytest.raises(ValueError):
        bernoulli_kl(u, v)


def test_kl_quadratic_lower_bound_random_sweep():
    # D(u||v) >= (u-v)^2 / (2 max(u, v)) on 10^4 random pairs
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        u, v = rng.random(), rng.random()
        top = max(u, v)
        if top == 0.0:
            continue
        assert bernoulli_kl(u, v) >= (u - v) ** 2 / (2.0 * top) - 1e-15


# ---------------------------------------------------------------------------
# confidence_upper_bound
# ---------------------------------------------------------------------------


def test_cb_closed_form_at_zero_mean_is_exact():
    for num_paths, delta in [(10, 0.05), (117, 5.9e-5), (1, 0.5), (100_000, 1e-3)]:
        assert confidence_upper_bound(0.0, num_paths, delta) == 1.0 - delta ** (1.0 / num_paths)


def test_cb_vanishing_budget_returns_mean():
    assert confidence_upper_bound(0.37, 50, 1.0 - 1e-12) == pytest.approx(0.37, abs=1e-6)


def test_cb_frozen_reference_value():
    # root of 100*D(0.5||u) = ln 20, cross-checked by the bisection oracle
    expected = cb_bisection_oracle(0.5, 100, 0.05)
    assert expected == pytest.approx(0.6205768210695699, abs=1e-12)
    assert confidence_upper_bound(0.5, 100, 0.05) == pytest.approx(expected, abs=1e-10)


def test_cb_saturates_at_one():
    assert confidence_upper_bound(1.0, 10, 0.1) == 1.0
    assert confidence_upper_bound(0.99, 2, 1e-6) == 1.0  # tiny sample, huge budget


def test_cb_dominates_mean():
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = rng.random()
        num_paths = int(rng.integers(1, 5000))
        delta = float(rng.uniform(1e-8, 0.999))
        assert confidence_upper_bound(m, num_paths, delta) >= m


def test_cb_monotonicity():
    # non-decreasing in m; non-increasing in I; non-increasing in delta
    ms = np.linspace(0.0, 1.0, 21)
    bounds = [confidence_upper_bound(m, 50, 0.1) for m in ms]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))

    for smaller, larger in [(10, 20), (100, 1000), (5000, 50_000)]:
        assert confidence_upper_bound(0.3, larger, 0.1) <= confidence_upper_bound(0.3, smaller, 0.1) + 1e-12

    deltas = [1e-6, 1e-3, 0.05, 0.5, 0.99]
    bounds = [confidence_upper_bound(0.3, 100, d) for d in deltas]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


def test_cb_matches_bisection_oracle_on_random_inputs():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        m = float(rng.random())
        num_paths = int(rng.integers(1, 10**6))
        delta = float(rng.uniform(1e-9, 0.999))
        newton = confidence_upper_bound(m, num_paths, delta)
        reference = cb_bisection_oracle(m, num_paths, delta)
        if reference > 1.0 - 1e-9:
            assert newton >= 1.0 - 1e-9
        else:
            assert newton == pytest.approx(reference, abs=1e-10)


def test_cb_is_a_valid_upper_confidence_bound():
    # Binomial simulation of the coverage guarantee
    m, num_paths, delta, trials = 0.3, 200, 0.1, 4000
    rng = np.random.default_rng(99)
    draws = rng.binomial(num_paths, m, size=trials) / num_paths
    violations = sum(confidence_upper_bound(float(d), num_paths, delta) < m for d in draws)
    slack = 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    assert violations / trials <= delta + slack


@pytest.mark.parametrize("m,I,delta", [(-0.1, 10, 0.1), (1.1, 10, 0.1), (0.5, 0, 0.1), (0.5, 10, 0.0), (0.5, 10, 1.0)])
def test_cb_domain_errors(m, I, delta):
    with pytest.raises(ValueError):
        confidence_upper_bound(m, I, delta)


# Properties of the KL upper confidence bound (Garivier & Cappe, "The KL-UCB
# algorithm", COLT 2011) on reachable inputs: m = c/I for c returns out of I
# paths.  The root finder's tolerance is absolute in u, so comparisons allow
# CB_TOLERANCE and the root is bracketed in u, not checked as a residual.
DELTAS = st.floats(1e-12, 0.9)


@st.composite
def counts_and_paths(draw, max_paths=10**7):
    num_paths = draw(st.integers(1, max_paths))
    return draw(st.integers(0, num_paths)), num_paths


@settings(max_examples=200, deadline=None)
@given(counts_and_paths(), DELTAS)
def test_cb_property_dominates_mean(case, delta):
    c, num_paths = case
    assert confidence_upper_bound(c / num_paths, num_paths, delta) >= c / num_paths


@settings(max_examples=200, deadline=None)
@given(counts_and_paths(), DELTAS)
def test_cb_property_nondecreasing_in_count(case, delta):
    c, num_paths = case
    c = min(c, num_paths - 1)
    lower = confidence_upper_bound(c / num_paths, num_paths, delta)
    assert confidence_upper_bound((c + 1) / num_paths, num_paths, delta) >= lower - CB_TOLERANCE


@settings(max_examples=200, deadline=None)
@given(counts_and_paths(max_paths=10**6), st.integers(2, 10), DELTAS)
def test_cb_property_nonincreasing_in_paths_at_fixed_mean(case, factor, delta):
    c, num_paths = case
    m = c / num_paths
    assert (factor * c) / (factor * num_paths) == m
    more = confidence_upper_bound(m, factor * num_paths, delta)
    assert more <= confidence_upper_bound(m, num_paths, delta) + CB_TOLERANCE


@settings(max_examples=200, deadline=None)
@given(counts_and_paths(), DELTAS)
def test_cb_property_brackets_the_kl_root(case, delta):
    c, num_paths = case
    m = c / num_paths
    u = confidence_upper_bound(m, num_paths, delta)
    if u < 1.0:
        def excess(v):
            return num_paths * bernoulli_kl(m, v) - math.log(1.0 / delta)

        assert excess(u - 2e-12) <= 0.0 <= excess(min(u + 2e-12, 1.0))


# ---------------------------------------------------------------------------
# plugin_bound
# ---------------------------------------------------------------------------


def test_plugin_clamps_small_u_to_zero():
    assert plugin_bound(0.05, 3, 20) == 0.0
    assert plugin_bound(1.0 / 20, 1, 20) == 0.0


def test_plugin_saturates_at_one():
    assert plugin_bound(1.0, 4, 2) == 1.0
    assert plugin_bound(1.0, 1, 50) == 1.0


def test_plugin_direct_value():
    # 20*0.07 - 1 = 0.4; sqrt(0.4)
    assert plugin_bound(0.07, 2, 20) == pytest.approx(math.sqrt(0.4), abs=1e-15)


def test_plugin_monotone_in_u():
    us = np.linspace(0.0, 1.0, 101)
    vals = [plugin_bound(u, 5, 30) for u in us]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_plugin_recovers_second_eigenvalue_of_two_point_spectrum():
    for lam2 in (0.2, 0.5, 0.93):
        for k in (1, 2, 7, 30):
            if lam2**k < 1e-12:
                continue  # below double resolution of 1 + lam2^k
            u = (1.0 + lam2**k) / 10
            assert plugin_bound(u, k, 10) == pytest.approx(lam2, abs=1e-8)


def test_plugin_domain_errors():
    with pytest.raises(ValueError):
        plugin_bound(1.2, 1, 5)
    with pytest.raises(ValueError):
        plugin_bound(0.5, 0, 5)


# ---------------------------------------------------------------------------
# parameter selection / validity / relaxation
# ---------------------------------------------------------------------------


def test_default_parameters_large_budget():
    cfg = config_for_budget(10**6, 20)
    assert cfg.max_path_length == 191
    assert cfg.num_paths == 5235
    assert cfg.confidence == pytest.approx(1e-3, rel=1e-12)


def test_default_parameters_small_budget():
    cfg = config_for_budget(55, 20)
    assert cfg.max_path_length == 17
    assert cfg.num_paths == 3
    assert cfg.confidence == pytest.approx(1.0 / math.sqrt(55), rel=1e-12)


def test_default_parameters_respect_budget():
    for n in [*range(16, 2000), 10**4, 10**6, 10**8]:
        cfg = config_for_budget(n, 20)
        assert cfg.num_paths * cfg.max_path_length <= n
        assert cfg.num_paths >= 1


def test_default_parameters_reject_tiny_budget():
    with pytest.raises(ValueError):
        config_for_budget(15, 20)


def test_relaxation_upper_bound_values():
    assert relaxation_upper_bound(0.99) == pytest.approx(100.0, rel=1e-12)
    assert relaxation_upper_bound(0.0) == 1.0
    assert relaxation_upper_bound(0.8) == pytest.approx(5.0, rel=1e-12)
    assert relaxation_upper_bound(1.0) == math.inf


def test_validity_check_examples():
    assert validity_check(UcpiConfig(20, 5235, 191, 1e-3)) is True
    assert validity_check(UcpiConfig(1000, 1, 1, 0.5)) is False


def test_validity_check_monotone_in_delta():
    # relaxing delta toward 1 can only help
    lax = validity_check(UcpiConfig(50, 400, 1, 0.9999))
    strict = validity_check(UcpiConfig(50, 400, 1, 1e-9))
    assert lax or not strict


def test_validity_boundary_as_delta_approaches_one():
    # K = 1 and delta -> 1: the requirement tends to 2*ln(2)/I <= 1/|S|
    assert validity_check(UcpiConfig(10, 1000, 1, 1.0 - 1e-12))
    assert not validity_check(UcpiConfig(10, 13, 1, 1.0 - 1e-12))  # 2 ln 2 / 13 > 0.1


def test_config_validation():
    with pytest.raises(ValueError):
        UcpiConfig(1, 10, 10, 0.1)
    with pytest.raises(ValueError):
        UcpiConfig(10, 0, 10, 0.1)
    with pytest.raises(ValueError):
        UcpiConfig(10, 10, 0, 0.1)
    with pytest.raises(ValueError):
        UcpiConfig(10, 10, 10, 1.0)


@pytest.mark.parametrize(
    "args, name",
    [
        ((20.0, 2500, 5, 0.1), "state_space_size"),
        ((20, 2500.5, 5, 0.1), "num_paths"),
        ((20, 2500, 5.0, 0.1), "max_path_length"),
        ((True, 2500, 5, 0.1), "state_space_size"),
        ((20, "2500", 5, 0.1), "num_paths"),
    ],
)
def test_config_sizes_must_be_integers(args, name):
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        UcpiConfig(*args)


def test_config_sizes_accept_numpy_integers():
    cfg = UcpiConfig(np.int64(20), np.int32(2500), np.int64(5), 0.1)
    assert validity_check(cfg) == validity_check(UcpiConfig(20, 2500, 5, 0.1))


def test_config_for_budget_names_a_non_integer_budget():
    with pytest.raises(TypeError, match=r"budget n must be an integer, not 1000000\.0"):
        config_for_budget(1e6, 20)


def test_config_for_budget():
    cfg = config_for_budget(10**4, 20)
    assert (cfg.num_paths, cfg.max_path_length) == (117, 85)
    # the guarantee hypothesis holds at this budget for 2 states, not for 20
    assert not validity_check(cfg)
    assert validity_check(config_for_budget(10**4, 2))


# ---------------------------------------------------------------------------
# finalize_estimate
# ---------------------------------------------------------------------------


def make_acc(counts, paths):
    acc = ReturnCountAccumulator(np.asarray(counts, dtype=np.int64))
    acc.paths_completed = paths
    return acc


def test_finalize_saturated_counts():
    cfg = UcpiConfig(5, 40, 6, 0.1)
    est = finalize_estimate(make_acc([40] * 6, 40), cfg)
    assert np.all(est.m_hat == 1.0)
    assert np.all(est.u_hat == 1.0)
    assert np.all(est.ell_hat == 1.0)
    assert est.ell_star == 1.0
    assert est.relaxation_upper == math.inf
    assert not est.informative


def test_finalize_zero_counts_with_many_paths():
    cfg = UcpiConfig(10, 100_000, 5, 0.05)
    est = finalize_estimate(make_acc([0] * 5, 100_000), cfg)
    expected_u = 1.0 - (0.05 / 10.0) ** (1.0 / 100_000)
    assert np.allclose(est.u_hat, expected_u, atol=1e-15)
    assert est.ell_star == 0.0
    assert est.argmin_k == 1  # ties broken toward the smallest k
    assert est.relaxation_upper == 1.0
    assert est.informative


def test_finalize_two_state_seeded_pipeline():
    # frozen from a fixed-seed run of the full sampling pipeline; the exact
    # second eigenvalue of [[0.75, 0.25], [0.25, 0.75]] is 0.5
    from specgap.chains import DenseMatrixChain, UniformSampler
    from specgap.sampling import RtfEngine, rtf_collect

    chain = DenseMatrixChain([[0.75, 0.25], [0.25, 0.75]])
    cfg = UcpiConfig(2, 10**5, 10, 0.05)
    est = finalize_estimate(rtf_collect(RtfEngine(chain, UniformSampler(2), cfg, 42)), cfg)
    assert est.ell_star == pytest.approx(0.508806150486855, abs=1e-12)
    assert 0.5 <= est.ell_star <= 0.75
    assert est.argmin_k == 2


def test_finalize_shape_and_count_errors():
    cfg = UcpiConfig(5, 40, 6, 0.1)
    with pytest.raises(ValueError):
        finalize_estimate(make_acc([0] * 5, 40), cfg)  # wrong K
    with pytest.raises(ValueError):
        finalize_estimate(make_acc([0] * 6, 39), cfg)  # wrong path count
    with pytest.raises(ValueError):
        finalize_estimate(make_acc([41, 0, 0, 0, 0, 0], 40), cfg)  # count > paths


def test_finalize_is_pure():
    cfg = UcpiConfig(8, 500, 4, 0.2)
    acc = make_acc([321, 250, 199, 180], 500)
    a = finalize_estimate(acc, cfg)
    b = finalize_estimate(acc, cfg)
    assert np.array_equal(a.m_hat, b.m_hat)
    assert np.array_equal(a.u_hat, b.u_hat)
    assert np.array_equal(a.ell_hat, b.ell_hat)
    assert a.ell_star == b.ell_star and a.argmin_k == b.argmin_k


def test_finalize_invariants_on_random_counts():
    rng = np.random.default_rng(5)
    cfg = UcpiConfig(12, 300, 9, 0.07)
    for _ in range(20):
        counts = rng.integers(0, 301, size=9)
        est = finalize_estimate(make_acc(counts, 300), cfg)
        assert np.all(est.m_hat <= est.u_hat + 1e-15)
        assert np.all((0.0 <= est.ell_hat) & (est.ell_hat <= 1.0))
        assert est.ell_star == est.ell_hat.min()
        assert est.ell_hat[est.argmin_k - 1] == est.ell_star


@st.composite
def repeated_counts(draw):
    """(accumulator, config) whose K counts repeat a few values, unweighted or weighted."""
    paths, K = draw(st.integers(1, 10**6)), draw(st.integers(1, 60))
    weighted = draw(st.booleans())
    value = st.floats(0.0, float(paths)) if weighted else st.integers(0, paths)
    values = draw(st.lists(value, min_size=1, max_size=4))
    counts = draw(st.lists(st.sampled_from(values), min_size=K, max_size=K))
    if weighted:
        acc = WeightedReturnAccumulator(np.array(counts), draw(st.floats(1.0, 1e3)), paths)
    else:
        acc = make_acc(counts, paths)
    cfg = UcpiConfig(draw(st.integers(2, 10**4)), paths, K, draw(st.floats(1e-6, 0.5)))
    return acc, cfg


@settings(max_examples=60, deadline=None)
@given(repeated_counts())
def test_finalize_matches_per_k_loop_bit_for_bit(case):
    # One KL solve per distinct count must change no bit of the per-k answer.
    acc, cfg = case
    est = finalize_estimate(acc, cfg)
    I, K = cfg.num_paths, cfg.max_path_length
    u = [confidence_upper_bound(c / I, I, cfg.confidence / (2.0 * K)) for c in acc.counts]
    scale = getattr(acc, "w_max", cfg.state_space_size)
    ell = [plugin_bound(v, k, scale) for k, v in enumerate(u, start=1)]
    assert est.u_hat.tolist() == u
    assert est.ell_hat.tolist() == ell


# ---------------------------------------------------------------------------
# theory diagnostics
# ---------------------------------------------------------------------------


def test_diagnostics_two_point_spectrum_has_zero_bias():
    cfg = UcpiConfig(2, 1000, 12, 0.05)
    diag = theory_diagnostics([1.0, 0.5], cfg)
    assert np.allclose(diag.bias, 0.0, atol=1e-12)
    assert diag.lambda2 == 0.5
    assert diag.lambda3 == 0.0
    assert diag.r == math.inf and diag.k_star == math.inf  # degenerate third eigenvalue


def test_diagnostics_variance_at_k_equal_one():
    cfg = UcpiConfig(4, 500, 3, 0.1)
    spectrum = [1.0, 0.6, 0.4, 0.2]
    diag = theory_diagnostics(spectrum, cfg)
    m1 = np.mean(spectrum)
    assert diag.asymptotic_variance[0] == pytest.approx(m1 * (1 - m1) * 16, rel=1e-12)


def test_diagnostics_r_is_one_for_tied_eigenvalues():
    cfg = UcpiConfig(3, 100, 5, 0.1)
    diag = theory_diagnostics([1.0, 0.7, 0.7], cfg)
    assert diag.r == 1.0


def test_diagnostics_r_between_zero_and_one():
    cfg = UcpiConfig(3, 100, 5, 0.1)
    diag = theory_diagnostics([1.0, 0.9, 0.5], cfg)
    assert diag.r == pytest.approx(math.log(1 / 0.9) / math.log(1 / 0.5), rel=1e-12)
    assert 0.0 < diag.r < 1.0
    assert math.isfinite(diag.k_star)
    assert diag.delta_quantity == pytest.approx(64 * math.log(5 / 0.1) / (3 * 100), rel=1e-12)
    assert 0.0 < diag.scaling_bound_64 < math.inf


def test_diagnostics_error_decomposition():
    cfg = UcpiConfig(4, 2000, 25, 0.05)
    diag = theory_diagnostics([1.0, 0.8, 0.5, 0.3], cfg)
    assert np.allclose(diag.total, diag.bias + diag.stddev, equal_nan=True)
    assert np.all(diag.bias >= -1e-12)
    # bias decays to zero once k separates the second and third eigenvalues
    assert diag.bias[-1] < diag.bias[0]
    assert diag.bias[-1] == pytest.approx(0.0, abs=1e-3)


def test_diagnostics_input_validation():
    cfg = UcpiConfig(3, 100, 5, 0.1)
    with pytest.raises(ValueError):
        theory_diagnostics([1.0, 0.5, 0.7], cfg)  # unsorted
    with pytest.raises(ValueError):
        theory_diagnostics([0.99, 0.5, 0.3], cfg)  # leading eigenvalue not 1
    with pytest.raises(ValueError):
        theory_diagnostics([1.0, 0.5, -0.3], cfg)  # outside [0, 1]
    with pytest.raises(ValueError):
        theory_diagnostics([1.0, 0.5], cfg)  # wrong length
