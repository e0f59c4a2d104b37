"""Independent reference values the benchmark checks every estimate against.

Nothing here calls into ``specgap``: spectra come from closed forms or from
``numpy.linalg.eigvalsh`` on matrices built here, the k-step return curves
from those spectra, and the KL upper confidence bound from plain bisection.
The checks compare one estimation's output with these references and with
the invariants the estimator promises, and return a list of problems (empty
when the estimate passes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: One-sided Chernoff level for the return-frequency check.  An m_hat_k that
#: honestly estimates m_k fails with probability below 2e-12 per k.
TOLERANCE_LEVEL = 1e-12

#: Agreement required between the library's u_hat and the bisection oracle.
U_HAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Reference:
    """What an estimate is checked against.

    ``spectrum`` is the full spectrum of the chain the estimator sees (for
    ``blackbox-nonlazy``, of the one-step chain).  ``target`` is the value
    the reported bound must dominate: lambda_star, or max|lambda_i| for the
    non-lazy workload.  ``mean_curve[k-1]`` is the expectation of m_hat_k.
    """

    spectrum: np.ndarray
    target: float
    mean_curve: np.ndarray


def line_spectrum(size: int, bias: float) -> np.ndarray:
    """Lazy biased line walk: 1 and 1/2 + sqrt(p(1-p)) cos(pi j/N), sorted descending."""
    j = np.arange(1, size)
    rest = 0.5 + math.sqrt(bias * (1.0 - bias)) * np.cos(np.pi * j / size)
    return np.sort(np.concatenate([[1.0], rest]))[::-1]


def cycle_spectrum(size: int) -> np.ndarray:
    """Lazy symmetric walk on a cycle: 1/2 + cos(2 pi j/N)/2, sorted descending."""
    j = np.arange(size)
    return np.sort(0.5 + 0.5 * np.cos(2.0 * np.pi * j / size))[::-1]


def ehrenfest_spectrum(bits: int) -> np.ndarray:
    """Walk on {0,1}^d that flips one of d bits or holds, each w.p. 1/(d+1).

    Eigenvalue 1 - 2j/(d+1) has multiplicity C(d, j).
    """
    values = [1.0 - 2.0 * j / (bits + 1) for j in range(bits + 1) for _ in range(math.comb(bits, j))]
    return np.sort(np.array(values))[::-1]


def graph_transition_matrix(neighbors: np.ndarray) -> np.ndarray:
    """Lazy walk on a regular graph: hold w.p. 1/2, else a uniform neighbor."""
    size, degree = neighbors.shape
    P = 0.5 * np.eye(size)
    for x in range(size):
        for y in neighbors[x]:
            P[x, y] += 0.5 / degree
    return P


def ehrenfest_transition_matrix(bits: int) -> np.ndarray:
    """The Ehrenfest walk of ``ehrenfest_spectrum`` as a dense matrix."""
    size = 2**bits
    P = np.eye(size) / (bits + 1)
    for x in range(size):
        for i in range(bits):
            P[x, x ^ (1 << i)] += 1.0 / (bits + 1)
    return P


def cycle_transition_matrix(size: int) -> np.ndarray:
    """Lazy symmetric walk on a cycle: hold w.p. 1/2, step -1 or +1 w.p. 1/4 each."""
    P = 0.5 * np.eye(size)
    for x in range(size):
        P[x, (x + 1) % size] += 0.25
        P[x, (x - 1) % size] += 0.25
    return P


def symmetric_spectrum(P: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric transition matrix, sorted descending."""
    if np.abs(P - P.T).max() > 1e-15:
        raise ValueError("reference matrix must be symmetric")
    return np.linalg.eigvalsh(P)[::-1]


def trace_curve(spectrum: np.ndarray, max_k: int, power: int = 1) -> np.ndarray:
    """tr(P^(power k)) = sum_i lambda_i^(power k) for k = 1..max_k."""
    ks = power * np.arange(1, max_k + 1)
    return (np.asarray(spectrum)[None, :] ** ks[:, None]).sum(axis=1)


def bernoulli_kl(m, u):
    """Vectorized D(m||u) with the 0 ln 0 = 0 convention."""
    m = np.asarray(m, dtype=float)
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(m > 0.0, m * np.log(m / u), 0.0)
        b = np.where(m < 1.0, (1.0 - m) * np.log((1.0 - m) / (1.0 - u)), 0.0)
    return np.maximum(a + b, 0.0)


def kl_upper_bisection(m, num_paths: int, level: float) -> np.ndarray:
    """Largest u in [m, 1] with num_paths * D(m||u) <= ln(1/level), by bisection."""
    m = np.asarray(m, dtype=float)
    budget = math.log(1.0 / level) / num_paths
    lo = m.copy()
    hi = np.ones_like(m)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        inside = bernoulli_kl(m, mid) <= budget
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return np.where(m >= 1.0, 1.0, lo)


def frequency_outliers(m_hat, mean, num_paths: int, level: float = TOLERANCE_LEVEL) -> np.ndarray:
    """1-based k where m_hat_k is further from its mean than a Chernoff bound allows.

    For a mean of num_paths independent [0, 1] variables with mean m,
    P(num_paths * D(m_hat||m) >= ln(1/level)) <= 2 level, the binomial tail
    bound, which also covers the importance-weighted terms in [0, 1].
    """
    mean = np.clip(np.asarray(mean, dtype=float), 1e-300, 1.0 - 1e-16)
    excess = num_paths * bernoulli_kl(np.clip(m_hat, 0.0, 1.0), mean) > math.log(1.0 / level)
    return np.flatnonzero(excess) + 1


def plugin_bounds(u_hat: np.ndarray, trace_scale: float) -> np.ndarray:
    """ell_k = min(max(trace_scale * u_k - 1, 0)^(1/k), 1)."""
    ks = np.arange(1, len(u_hat) + 1)
    base = np.maximum(trace_scale * np.asarray(u_hat) - 1.0, 0.0)
    return np.minimum(base ** (1.0 / ks), 1.0)


def check_estimate(
    est, counts, num_paths: int, trace_scale: float, reported_bound: float, ref: Reference, confidence: float
) -> list[str]:
    """Problems with one UcpiEstimate (plus the bound it reports), or [].

    ``counts`` are the per-k return counts (scaled counts when weighted),
    ``trace_scale`` maps u_hat to a bound on tr(P^k): |S|, or w_max when the
    starts are importance-weighted.
    """
    problems = []
    K = len(counts)
    counts = np.asarray(counts)
    if counts.min() < 0 or counts.max() > num_paths:
        problems.append(f"counts outside [0, paths_completed={num_paths}]")
    if not reported_bound >= ref.target:
        problems.append(f"bound {reported_bound!r} below the exact value {ref.target!r}")
    outliers = frequency_outliers(est.m_hat, ref.mean_curve, num_paths)
    if len(outliers):
        k = int(outliers[0])
        problems.append(
            f"m_hat at {len(outliers)} k outside the binomial tolerance "
            f"(first k={k}: {est.m_hat[k - 1]!r} vs exact {ref.mean_curve[k - 1]!r})"
        )
    oracle = kl_upper_bisection(est.m_hat, num_paths, confidence / (2.0 * K))
    gap = float(np.abs(oracle - est.u_hat).max())
    if not gap <= U_HAT_TOLERANCE:
        problems.append(f"u_hat differs from the bisection oracle by {gap:.3e}")
    ell = plugin_bounds(est.u_hat, trace_scale)
    if not abs(float(ell.min()) - est.ell_star) <= 1e-12:
        problems.append(f"ell_star {est.ell_star!r} is not min_k of the plug-in bounds {ell.min()!r}")
    return problems
