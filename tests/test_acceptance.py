"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.  Budgets are chosen so the whole module finishes in well under
a minute on a laptop-class machine.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from specgap.chains import (
    BiasedLineChain,
    DenseMatrixChain,
    UniformSampler,
    exact_spectrum,
    generate_regular_graph,
    return_probability_curve,
)
from specgap.estimator import (
    UcpiConfig,
    bernoulli_kl,
    config_for_budget,
    confidence_upper_bound,
    finalize_estimate,
    validity_check,
)
from specgap.sampling import (
    RtfEngine,
    UspEngine,
    estimate_nonlazy,
    rtf_collect,
    trajectory_from_oracle,
    usp_collect,
)
from specgap.cli import ExperimentSpec, run_experiment

TWO_STATE = DenseMatrixChain([[0.75, 0.25], [0.25, 0.75]])


def test_criterion_1_exact_spectrum_reproduction():
    targets = {0.5: 0.99, 0.7: 0.95, 0.9: 0.80}
    started = time.perf_counter()
    for p, target in targets.items():
        lam_star = exact_spectrum(BiasedLineChain(20, p))[1]
        assert lam_star == pytest.approx(target, abs=0.005), f"p={p}"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 exact-spectrum reproduction (0.99/0.95/0.80 +-0.005, {elapsed:.2f}s): PASS")


def test_criterion_2_benchmark_estimates():
    report = run_experiment(
        ExperimentSpec(chain="line", size=20, p=0.9, n=10**6, seed=0), with_timing=False
    )
    trial = report.trials[0]
    assert 0.80 <= trial.ell_star <= 0.96
    assert trial.informative

    report_small = run_experiment(
        ExperimentSpec(chain="line", size=20, p=0.5, n=10**4, seed=0), with_timing=False
    )
    assert report_small.trials[0].ell_star == 1.0
    assert report_small.trials[0].t_r_upper == math.inf
    print(
        f"ACCEPTANCE 2 benchmark estimates (bound {trial.ell_star:.3f} in [0.80,0.96]; "
        "uninformative at n=1e4): PASS"
    )


def test_criterion_3_informativeness_at_one_million():
    instances = [
        ("line", dict(size=20, p=0.5)),
        ("line", dict(size=20, p=0.7)),
        ("line", dict(size=20, p=0.9)),
        ("regular", dict(size=100, d=5)),
        ("regular", dict(size=100, d=10)),
    ]
    frequencies = []
    for kind, params in instances:
        report = run_experiment(
            ExperimentSpec(chain=kind, n=10**6, trials=20, seed=101, **params),
            with_timing=False,
        )
        informative = sum(t.informative for t in report.trials)
        assert informative >= 19, f"{kind} {params}: {informative}/20"
        frequencies.append(informative / 20)
    print(f"ACCEPTANCE 3 informativeness at n=1e6 (frequencies {frequencies}): PASS")


def test_criterion_4_coverage_two_state_chain():
    trials = 500
    cfg = config_for_budget(10**4, 2)
    assert validity_check(cfg)
    violations = 0
    for seed in range(trials):
        engine = RtfEngine(TWO_STATE, UniformSampler(2), cfg, master_seed=seed)
        est = finalize_estimate(rtf_collect(engine), cfg)
        violations += est.ell_star < 0.5
    delta = cfg.confidence
    tolerance = delta + 3.0 * math.sqrt(delta / trials)
    assert violations / trials <= tolerance
    print(
        f"ACCEPTANCE 4 coverage over {trials} trials "
        f"(violations {violations}, tolerance {tolerance:.4f}): PASS"
    )


def test_criterion_5_cb_oracle_equivalence():
    def cb_bisection(m, num_paths, delta, iters=200):
        budget = math.log(1.0 / delta) / num_paths
        lo, hi = m, 1.0
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if mid >= 1.0 or bernoulli_kl(m, mid) <= budget:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    rng = np.random.default_rng(55)
    max_err = 0.0
    for _ in range(1000):
        m = float(rng.random())
        num_paths = int(rng.integers(1, 10**6))
        delta = float(rng.uniform(1e-9, 0.999))
        newton = confidence_upper_bound(m, num_paths, delta)
        reference = cb_bisection(m, num_paths, delta)
        if reference > 1.0 - 1e-9:
            assert newton >= 1.0 - 1e-9
        else:
            max_err = max(max_err, abs(newton - reference))
            assert abs(newton - reference) <= 1e-10

    for num_paths, delta in [(7, 0.3), (117, 5.9e-5), (5235, 1e-3)]:
        assert confidence_upper_bound(0.0, num_paths, delta) == 1.0 - delta ** (1.0 / num_paths)
    print(f"ACCEPTANCE 5 CB oracle equivalence (max |newton-bisection| {max_err:.2e}): PASS")


def test_criterion_6_trace_identities_and_monte_carlo():
    chains = [
        BiasedLineChain(20, 0.5),
        BiasedLineChain(20, 0.9),
        generate_regular_graph(100, 5, seed=0),
        TWO_STATE,
    ]
    for chain in chains:
        n = chain.state_space_size()
        lam = exact_spectrum(chain)
        curve = return_probability_curve(chain, 50)
        for k in range(1, 51):
            assert curve[k - 1] == pytest.approx(float((lam**k).sum()) / n, abs=1e-6)

        # Monte Carlo consistency at I = 1e5, uniform starts
        K = 10
        cfg = UcpiConfig(n, 10**5, K, 0.05)
        acc = rtf_collect(RtfEngine(chain, UniformSampler(n), cfg, master_seed=77))
        for k in range(1, K + 1):
            m_k = curve[k - 1]
            se = math.sqrt(m_k * (1.0 - m_k) / cfg.num_paths)
            assert abs(acc.counts[k - 1] / cfg.num_paths - m_k) <= 5.0 * se, f"k={k}"
    print("ACCEPTANCE 6 trace identities (1e-6, k<=50) and Monte Carlo 5-sigma at I=1e5: PASS")


def test_criterion_7_usp_reduction():
    chain = BiasedLineChain(10, 0.5)

    # segment starts are uniform: chi-square over 1e4 segments at sig 1e-3
    starts = []
    source = trajectory_from_oracle(chain, 0, master_seed=7, max_steps=2_000_000)
    engine = UspEngine(source, 10, UniformSampler(10), master_seed=7, on_segment=starts.append)
    usp_collect(engine, num_segments=10_000)
    assert len(starts) == 10_000
    _, pvalue = stats.chisquare(np.bincount(starts, minlength=10))
    assert pvalue > 1e-3

    # segments-per-budget converges toward the fresh-path count as n grows
    ratios = []
    for n in (10**4, 10**5, 10**6):
        cfg = config_for_budget(n, 10)
        source = trajectory_from_oracle(chain, 0, master_seed=11, max_steps=n)
        engine = UspEngine(source, cfg.max_path_length, UniformSampler(10), master_seed=11)
        acc = usp_collect(engine, num_segments=cfg.num_paths)
        ratios.append(acc.paths_completed / cfg.num_paths)
    assert ratios[0] < ratios[1] < ratios[2] <= 1.0
    print(f"ACCEPTANCE 7 single-trajectory reduction (uniform starts p={pvalue:.3f}, "
          f"ratios {[round(r, 3) for r in ratios]} increasing): PASS")


def test_criterion_8_nonlazy_wrapper_coverage():
    flip_heavy = DenseMatrixChain([[0.1, 0.9], [0.9, 0.1]])  # eigenvalues 1, -0.8
    cfg = config_for_budget(10**4 // 2, 2)  # 1e4 one-step calls per trial
    trials = 200
    hits = 0
    for seed in range(trials):
        result = estimate_nonlazy(flip_heavy, cfg, UniformSampler(2), master_seed=seed)
        hits += result.spectral_radius_bound >= 0.8
    assert hits / trials >= 1.0 - cfg.confidence
    print(f"ACCEPTANCE 8 non-lazy wrapper coverage ({hits}/{trials} at delta "
          f"{cfg.confidence:.4f}): PASS")


class HugeLazyCycle:
    """Synthetic oracle over an enormous state space; stores no per-state data."""

    uniforms_per_step = 1

    def __init__(self, size):
        self.size = size

    def state_space_size(self):
        return self.size

    def next_state(self, x, rng):
        u = rng.random()
        return x if u < 0.5 else (x + 1) % self.size

    def step_with_uniforms(self, xs, us):
        return np.where(us[:, 0] < 0.5, xs, (xs + 1) % self.size)


def test_criterion_9_memory_independent_of_state_space():
    def peak_bytes(size):
        cfg = UcpiConfig(size, 512, 20, 0.05)
        engine = RtfEngine(HugeLazyCycle(size), UniformSampler(size), cfg, master_seed=1)
        tracemalloc.start()
        acc = rtf_collect(engine)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert acc.max_path_length == 20  # O(K) counters, nothing sized by the state space
        assert acc.paths_completed == 512
        return peak

    small = peak_bytes(10**3)
    large = peak_bytes(10**6)
    assert large < 2 * 2**20  # far below the 8 MB a single |S|-sized vector would need
    assert large <= small + 2**18  # growing |S| a thousandfold adds nothing material
    print(f"ACCEPTANCE 9 memory invariant (peak {large/1024:.0f} KiB at |S|=1e6): PASS")


def test_criterion_10_worker_count_determinism():
    cfg = config_for_budget(10**5, 20)
    chain = BiasedLineChain(20, 0.7)
    estimates = []
    for workers in (1, 4, 16):
        engine = RtfEngine(chain, UniformSampler(20), cfg, master_seed=9, worker_count=workers)
        estimates.append(finalize_estimate(rtf_collect(engine), cfg))
    base = estimates[0]
    for other in estimates[1:]:
        assert np.array_equal(base.m_hat, other.m_hat)
        assert np.array_equal(base.u_hat, other.u_hat)
        assert np.array_equal(base.ell_hat, other.ell_hat)
        assert base.ell_star == other.ell_star
        assert base.argmin_k == other.argmin_k
        assert base.relaxation_upper == other.relaxation_upper
    print("ACCEPTANCE 10 determinism across worker counts {1,4,16} (bit-exact): PASS")
