import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from specgap.chains import (
    BiasedLineChain,
    DenseMatrixChain,
    RegularGraphChain,
    TabularSampler,
    UniformSampler,
    exact_spectrum,
    generate_regular_graph,
    line_stationary,
    load_matrix_chain,
    return_probability_curve,
    save_matrix_chain,
)

TWO_STATE = [[0.75, 0.25], [0.25, 0.75]]


def small_chains():
    return [
        BiasedLineChain(20, 0.5),
        BiasedLineChain(20, 0.7),
        BiasedLineChain(20, 0.9),
        generate_regular_graph(100, 5, seed=0),
        DenseMatrixChain(TWO_STATE),
    ]


# ---------------------------------------------------------------------------
# stationary distribution of the line walk
# ---------------------------------------------------------------------------


def test_line_stationary_uniform_at_half():
    pi = line_stationary(20, 0.5)
    assert np.allclose(pi, 1.0 / 20, atol=1e-15)


def test_line_stationary_two_states_ratio():
    for p in (0.3, 0.6, 0.9):
        pi = line_stationary(2, p)
        assert pi[1] / pi[0] == pytest.approx(1.0 / p - 1.0, rel=1e-12)


def test_line_stationary_matches_closed_form():
    for size, p in [(20, 0.7), (10, 0.9), (15, 0.2)]:
        pi = line_stationary(size, p)
        ratio = 1.0 / p - 1.0
        closed = ratio ** np.arange(size) * (2.0 - 1.0 / p) / (1.0 - ratio**size)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pi, closed, atol=1e-12)


def test_line_stationary_detailed_balance():
    for p in (0.5, 0.7, 0.9):
        chain = BiasedLineChain(20, p)
        pi = chain.stationary_distribution()
        P = chain.transition_matrix()
        flows = pi[:, None] * P
        assert np.abs(flows - flows.T).max() < 1e-10


# ---------------------------------------------------------------------------
# structural invariants of the built-in chains
# ---------------------------------------------------------------------------


def test_rows_sum_to_one_and_laziness():
    for chain in small_chains():
        P = chain.transition_matrix()
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
        assert P.diagonal().min() >= 0.5 - 1e-12  # lazy


def test_detailed_balance_all_chains():
    for chain in small_chains():
        P = chain.transition_matrix()
        pi = chain.stationary_distribution()
        flows = pi[:, None] * P
        assert np.abs(flows - flows.T).max() < 1e-10


# ---------------------------------------------------------------------------
# exact spectrum
# ---------------------------------------------------------------------------


def test_spectrum_two_state():
    lam = exact_spectrum(DenseMatrixChain(TWO_STATE))
    assert lam[0] == pytest.approx(1.0, abs=1e-10)
    assert lam[1] == pytest.approx(0.5, abs=1e-10)


def test_spectrum_line_walks_match_known_values():
    targets = {0.5: 0.99, 0.7: 0.95, 0.9: 0.80}
    frozen = {0.5: 0.993844170297569, 0.7: 0.9526156583802544, 0.9: 0.796306502178541}
    for p, rounded in targets.items():
        lam2 = exact_spectrum(BiasedLineChain(20, p))[1]
        assert lam2 == pytest.approx(rounded, abs=5e-3)
        assert lam2 == pytest.approx(frozen[p], abs=1e-9)


def test_spectrum_rejects_non_reversible_chain():
    cycle3 = DenseMatrixChain([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    with pytest.raises(ValueError, match="reversible"):
        exact_spectrum(cycle3)


def test_spectrum_sorted_descending():
    lam = exact_spectrum(BiasedLineChain(20, 0.7))
    assert np.all(np.diff(lam) <= 1e-12)


@pytest.mark.parametrize(
    "oracle",
    [exact_spectrum, lambda chain: return_probability_curve(chain, 5)],
    ids=["exact_spectrum", "return_probability_curve"],
)
def test_exact_oracles_refuse_a_large_chain_before_building_its_matrix(oracle):
    # The state count is checked before the matrix is built: 5000 states would take 200 MB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^exact oracles support at most 2000 states, got 5000$"):
            oracle(BiasedLineChain(5000, 0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def test_trace_k1_is_diagonal_sum():
    for chain in small_chains():
        P = chain.transition_matrix()
        assert return_probability_curve(chain, 1)[0] == pytest.approx(P.diagonal().mean(), rel=1e-12)


def test_trace_two_state_k3():
    curve = return_probability_curve(DenseMatrixChain(TWO_STATE), 3)
    assert curve[2] == pytest.approx((1.0 + 0.5**3) / 2, abs=1e-12)


def test_trace_identity_chain():
    curve = return_probability_curve(DenseMatrixChain(np.eye(4)), 20)
    for k in (1, 5, 20):
        assert curve[k - 1] == pytest.approx(1.0, abs=1e-12)


def test_trace_matches_eigenvalue_sums_up_to_k50():
    for chain in small_chains():
        lam = exact_spectrum(chain)
        curve = return_probability_curve(chain, 50)
        n = chain.state_space_size()
        for k in (1, 2, 10, 50):
            assert curve[k - 1] == pytest.approx(float((lam**k).sum()) / n, abs=1e-6)


# ---------------------------------------------------------------------------
# regular graphs
# ---------------------------------------------------------------------------


def test_generate_k4_is_unique_cubic_graph():
    g = generate_regular_graph(4, 3, seed=11)
    for x in range(4):
        assert sorted(g.neighbors[x].tolist()) == [y for y in range(4) if y != x]


def test_generate_rejects_odd_degree_sum():
    with pytest.raises(ValueError, match="even"):
        generate_regular_graph(5, 3, seed=0)


def test_generate_rejects_degree_out_of_range():
    with pytest.raises(ValueError):
        generate_regular_graph(5, 5, seed=0)


@pytest.mark.parametrize("degree", [5, 10])
def test_generated_graph_is_simple_regular_connected(degree):
    g = generate_regular_graph(100, degree, seed=3)
    assert g.neighbors.shape == (100, degree)
    for x in range(100):
        row = g.neighbors[x]
        assert len(set(row.tolist())) == degree  # no multi-edges
        assert x not in row  # no loops
        for y in row:
            assert x in g.neighbors[y]  # symmetric adjacency
    # connected: spectrum has a single eigenvalue 1
    lam = exact_spectrum(g)
    assert lam[1] < 1.0 - 1e-8


def test_generated_graph_deterministic_in_seed():
    a = generate_regular_graph(60, 4, seed=5)
    b = generate_regular_graph(60, 4, seed=5)
    c = generate_regular_graph(60, 4, seed=6)
    assert np.array_equal(a.neighbors, b.neighbors)
    assert not np.array_equal(a.neighbors, c.neighbors)


def test_regular_graph_lambda2_in_plausible_band():
    # instance-dependent; typical lazy-walk values sit near 0.88 for d=5
    lam2 = exact_spectrum(generate_regular_graph(100, 5, seed=0))[1]
    assert 0.85 <= lam2 <= 0.93


# ---------------------------------------------------------------------------
# one-step simulation agrees with the matrix rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "chain",
    [
        BiasedLineChain(5, 0.7),
        generate_regular_graph(4, 3, seed=1),
        DenseMatrixChain(TWO_STATE),
        DenseMatrixChain([[0.6, 0.3, 0.1], [0.3, 0.5, 0.2], [0.1, 0.2, 0.7]]),
    ],
)
def test_next_state_rows_pass_chi_square(chain):
    P = chain.transition_matrix()
    n = chain.state_space_size()
    draws = 10_000
    rng = np.random.default_rng(8)
    for x in range(n):
        observed = np.bincount(
            [chain.next_state(x, rng) for _ in range(draws)], minlength=n
        )
        support = P[x] > 0
        assert observed[~support].sum() == 0
        _, pvalue = stats.chisquare(observed[support], draws * P[x, support])
        assert pvalue > 1e-3


def test_vectorized_step_matches_scalar():
    chain = BiasedLineChain(7, 0.6)
    us = np.random.default_rng(4).random((64, 1))
    xs = np.random.default_rng(5).integers(0, 7, size=64)
    vec = chain.step_with_uniforms(xs, us)
    sca = np.array([chain._move(int(x), float(u)) for x, u in zip(xs, us[:, 0])])
    assert np.array_equal(vec, sca)


class FixedDraw:
    """A stand-in generator whose ``random()`` returns one given uniform."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def around(points):
    """Each point with its float neighbours, kept inside [0, 1)."""
    near = {float(w) for v in points for w in (v, np.nextafter(v, -1.0), np.nextafter(v, 2.0))}
    return sorted(w for w in near if 0.0 <= w < 1.0)


def kernel_inputs(size, cuts, seed):
    """int64 states and (n, 1) uniforms: every edge uniform at states 0, size - 1 and
    one drawn state, then 64 drawn pairs.  The edges are 0, 1/2, ``cuts``, their float
    neighbours and 1 - 2**-53."""
    rng = np.random.default_rng(seed)
    edges = around([0.0, 0.5, *cuts]) + [1.0 - 2**-53]
    xs = np.concatenate([np.repeat([0, size - 1, rng.integers(size)], len(edges)), rng.integers(0, size, 64)])
    us = np.concatenate([np.tile(edges, 3), rng.random(64)])
    return xs.astype(np.int64), us.reshape(-1, 1)


def assert_kernel_is_its_scalar_rule(chain, xs, us):
    """The kernel gives int64 ``next_state`` of every state under its uniform and leaves ``xs`` alone."""
    before = xs.copy()
    out = chain.step_with_uniforms(xs, us)
    assert out.dtype == np.int64
    assert np.array_equal(xs, before)
    assert out.tolist() == [chain.next_state(int(x), FixedDraw(u)) for x, u in zip(xs, us[:, 0])]


BIASES = st.sampled_from([5e-324, 2**-54, 0.5, 1.0 - 2**-53]) | st.floats(
    0.0, 1.0, exclude_min=True, exclude_max=True
)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30), BIASES, st.integers(0, 2**32))
def test_line_kernel_equals_its_scalar_rule(size, bias, seed):
    chain = BiasedLineChain(size, bias)
    xs, us = kernel_inputs(size, [0.5 + (1.0 - bias) / 2.0], seed)
    assert_kernel_is_its_scalar_rule(chain, xs, us)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30), st.sampled_from([1, 2]) | st.integers(1, 8), st.sampled_from("CF"), st.integers(0, 2**32))
def test_graph_kernel_equals_its_scalar_rule(size, degree, order, seed):
    # Any (size, degree) table will do: the kernel does not rely on the graph being simple.
    table = np.random.default_rng(seed).integers(0, size, (size, degree))
    chain = RegularGraphChain(size, degree, np.asarray(table, order=order))
    xs, us = kernel_inputs(size, [0.5 + i / (2.0 * degree) for i in range(1, degree)], seed)
    assert_kernel_is_its_scalar_rule(chain, xs, us)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_uniform_sampler_pmf():
    s = UniformSampler(8)
    assert s.pmf(3) == 0.125
    assert s.pmf(8) == 0.0
    assert s.min_pmf() == 0.125


@pytest.mark.parametrize("size", [2.5, True, "2", np.float64(2.0)])
def test_uniform_sampler_size_must_be_an_integer(size):
    # UniformSampler(2.5) used to report min_pmf 0.4 and silently weight every start.
    with pytest.raises(TypeError, match="^size must be an integer, not "):
        UniformSampler(size)


def test_uniform_sampler_accepts_numpy_integers():
    assert UniformSampler(np.int64(8)).min_pmf() == UniformSampler(8).min_pmf() == 0.125


def test_tabular_sampler_draws_match_pmf():
    probs = [0.5, 0.3, 0.2]
    s = TabularSampler(probs)
    rng = np.random.default_rng(12)
    draws = np.bincount([s.sample(rng) for _ in range(20_000)], minlength=3)
    _, pvalue = stats.chisquare(draws, 20_000 * np.array(probs))
    assert pvalue > 1e-3
    assert s.min_pmf() == 0.2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=20))
def test_tabular_sampler_matches_searchsorted_at_every_cdf_edge(weights):
    # Tiny weights give tied cdf values, where side="right" must pass every tie.
    p = np.array(weights) / sum(weights)
    sampler = TabularSampler(p)
    cdf = sampler._cdf
    for u in around(cdf.tolist()) + [0.0, 1.0 - 2**-53]:
        assert sampler.sample(FixedDraw(u)) == np.searchsorted(cdf, u, side="right")


def test_tabular_sampler_validation():
    with pytest.raises(ValueError):
        TabularSampler([0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        TabularSampler([0.5, 0.4])
    with pytest.raises(ValueError, match="finite"):
        TabularSampler([math.nan, -0.5, 1.5])  # NaN hides the negative entry and the sum
    with pytest.raises(ValueError, match="finite"):
        TabularSampler([math.inf, 0.5, 0.5])


# ---------------------------------------------------------------------------
# dense-matrix chain plumbing
# ---------------------------------------------------------------------------


def test_dense_chain_validation():
    with pytest.raises(ValueError):
        DenseMatrixChain([[0.5, 0.4], [0.5, 0.5]])  # bad row sum
    with pytest.raises(ValueError):
        DenseMatrixChain([[1.1, -0.1], [0.5, 0.5]])  # negative entry
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            DenseMatrixChain([[bad, 0.5, 0.5], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])


def test_matrix_file_round_trip(tmp_path):
    chain = DenseMatrixChain([[0.75, 0.25], [0.25, 0.75]])
    path = tmp_path / "chain.txt"
    save_matrix_chain(chain, path)
    loaded = load_matrix_chain(path)
    assert np.array_equal(loaded.transition_matrix(), chain.transition_matrix())
    with open(path, "a") as fh:
        fh.write("\n \n")  # trailing blank lines are allowed
    assert np.array_equal(load_matrix_chain(path).transition_matrix(), chain.transition_matrix())


def test_matrix_file_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0.5 0.5\n")
    with pytest.raises(ValueError, match="expected 2"):
        load_matrix_chain(bad)
    bad.write_text("2\n0.5 0.5\n0.5 0.5\n1 0\n")
    with pytest.raises(ValueError, match="line 4: expected only blank lines"):
        load_matrix_chain(bad)
