"""Upper-confidence estimation of the second eigenvalue from return counts.

The estimator never touches a Markov chain directly: it consumes per-step
return counts (how many of I simulated paths sit in their start state after
k steps, for k = 1..K) and turns them into a high-probability upper bound
on the second eigenvalue, hence on the relaxation time.  The chain of
transformations is

    counts -> return frequencies m_k -> KL upper confidence bounds u_k
           -> eigenvalue bounds ell_k = min((max(|S|*u_k - 1, 0))^(1/k), 1)
           -> ell_star = min_k ell_k,   t_r <= 1 / (1 - ell_star).

Starts drawn from a known pmf weight each return by min_pmf/pmf(start), in
(0, 1], and the plug-in uses w_max = 1/min_pmf in place of |S|; the same KL
bound then holds, more conservatively as min_pmf drifts below uniform.

All functions here are pure and operate on scalars or length-K arrays, so
the whole estimation path uses O(K) memory regardless of state-space size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UcpiConfig",
    "ReturnCountAccumulator",
    "WeightedReturnAccumulator",
    "UcpiEstimate",
    "TheoryDiagnostics",
    "bernoulli_kl",
    "confidence_upper_bound",
    "plugin_bound",
    "finalize_estimate",
    "finalize_weighted",
    "config_for_budget",
    "relaxation_upper_bound",
    "validity_check",
    "theory_diagnostics",
]

#: Absolute tolerance of the confidence-bound root finder.
CB_TOLERANCE = 1e-12


def _require_integer(name, value):
    """Raise TypeError unless ``value`` is an int or a numpy integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class UcpiConfig:
    """Estimation parameters: state-space size, path count I, path length K, confidence delta."""

    state_space_size: int
    num_paths: int
    max_path_length: int
    confidence: float

    def __post_init__(self):
        for name in ("state_space_size", "num_paths", "max_path_length"):
            _require_integer(name, getattr(self, name))
        if self.state_space_size < 2:
            raise ValueError("state_space_size must be >= 2")
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        if self.max_path_length < 1:
            raise ValueError("max_path_length must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")


@dataclass
class ReturnCountAccumulator:
    """Streaming per-k return counts over completed paths.

    counts[k-1] is the number of finished paths that were back in their
    start state after k steps.  The sampling engines add block results
    together componentwise, in block order.  Storage is K integers; nothing
    scales with the state-space size.
    """

    counts: np.ndarray
    paths_completed: int = 0

    @classmethod
    def empty(cls, max_path_length: int) -> "ReturnCountAccumulator":
        if max_path_length < 1:
            raise ValueError("max_path_length must be >= 1")
        return cls(counts=np.zeros(max_path_length, dtype=np.int64))

    @property
    def max_path_length(self) -> int:
        return len(self.counts)


@dataclass(init=False)
class WeightedReturnAccumulator(ReturnCountAccumulator):
    """Importance-weighted return sums, stored in w_max-rescaled form.

    ``counts[k-1]`` (also ``scaled_counts``) sums min_pmf/pmf(start) as
    float64 over paths that returned at step k; each term lies in (0, 1],
    so scaled_counts/I is a mean of [0, 1]-bounded variables.
    ``weighted_sums`` recovers the raw importance-weighted sums (unbiased
    for the trace of the k-th power).
    """

    w_max: float

    def __init__(self, scaled_counts: np.ndarray, w_max: float, paths_completed: int = 0):
        super().__init__(scaled_counts, paths_completed)
        self.w_max = w_max

    @classmethod
    def empty(cls, max_path_length: int, w_max: float) -> "WeightedReturnAccumulator":
        if max_path_length < 1:
            raise ValueError("max_path_length must be >= 1")
        if w_max < 1.0:
            raise ValueError("w_max = 1/min_pmf must be >= 1")
        return cls(np.zeros(max_path_length), w_max)

    @property
    def scaled_counts(self) -> np.ndarray:
        return self.counts

    @property
    def weighted_sums(self) -> np.ndarray:
        return self.counts * self.w_max


@dataclass(frozen=True)
class UcpiEstimate:
    """Full per-k output of one estimation run.

    m_hat/u_hat/ell_hat are length-K arrays (return frequency, its KL upper
    confidence bound, and the plug-in eigenvalue bound).  ell_star is the
    smallest eigenvalue bound, attained at k = argmin_k (1-based, ties
    resolved toward the smallest k).  relaxation_upper is 1/(1 - ell_star),
    infinite when the run is uninformative (ell_star = 1).
    """

    m_hat: np.ndarray
    u_hat: np.ndarray
    ell_hat: np.ndarray
    ell_star: float
    argmin_k: int
    relaxation_upper: float
    informative: bool


def bernoulli_kl(u: float, v: float) -> float:
    """KL divergence D(u||v) between Bernoulli(u) and Bernoulli(v).

    Follows the 0*ln(0) = 0 convention; infinite when v sits on the
    boundary of [0, 1] but u puts mass on the other side.
    """
    if not 0.0 <= u <= 1.0 or not 0.0 <= v <= 1.0:
        raise ValueError(f"bernoulli_kl requires u, v in [0, 1], got u={u}, v={v}")
    total = 0.0
    if u > 0.0:
        if v == 0.0:
            return math.inf
        total += u * math.log(u / v)
    if u < 1.0:
        if v == 1.0:
            return math.inf
        total += (1.0 - u) * math.log((1.0 - u) / (1.0 - v))
    # Rounding can push D(u||u) a hair below zero.
    return max(total, 0.0)


def confidence_upper_bound(m: float, num_paths: int, confidence: float) -> float:
    """Largest u in [m, 1] with num_paths * D(m||u) <= ln(1/confidence).

    For an observed Bernoulli mean m over num_paths trials this exceeds the
    true mean with probability at least 1 - confidence.  Solved by Newton
    iteration on u -> num_paths * D(m||u) - ln(1/confidence), which is
    strictly increasing and convex on (m, 1); every iterate is clamped to a
    shrinking bisection bracket, so convergence is unconditional.  Absolute
    tolerance 1e-12; returns exactly 1.0 when the root would land above
    1 - 1e-12.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"m must lie in [0, 1], got {m}")
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")

    if m == 1.0:
        return 1.0
    if m == 0.0:
        # Closed form: D(0||u) = ln(1/(1-u)).
        return 1.0 - confidence ** (1.0 / num_paths)

    budget = math.log(1.0 / confidence) / num_paths
    hi = 1.0 - CB_TOLERANCE
    if bernoulli_kl(m, hi) <= budget:
        return 1.0

    lo = m  # excess(lo) = -budget < 0 < excess(hi)
    u = min(hi, m + math.sqrt(2.0 * m * budget) + budget)
    for _ in range(200):
        excess = bernoulli_kl(m, u) - budget
        if excess > 0.0:
            hi = u
        else:
            lo = u
        if hi - lo <= CB_TOLERANCE:
            break
        slope = (u - m) / (u * (1.0 - u))
        if slope > 0.0:
            u_next = u - excess / slope
        else:
            u_next = math.nan
        if not lo < u_next < hi:
            u_next = 0.5 * (lo + hi)
        u = u_next
    return 0.5 * (lo + hi)


def plugin_bound(u: float, k: int, state_space_size: int) -> float:
    """Map a bound u on the k-step return probability to an eigenvalue bound.

    Computes min((max(|S|*u - 1, 0))^(1/k), 1).  The max-with-0 clamp covers
    the regime where u is too small for the trace relation to say anything
    positive about the second eigenvalue.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if state_space_size < 1:
        raise ValueError("state_space_size must be >= 1")
    base = state_space_size * u - 1.0
    if base <= 0.0:
        return 0.0
    return min(base ** (1.0 / k), 1.0)


def finalize_estimate(acc: ReturnCountAccumulator, cfg: UcpiConfig) -> UcpiEstimate:
    """Turn accumulated return counts into the final eigenvalue bound.

    Per k: m_hat = counts/I, u_hat = KL upper bound at level delta/(2K),
    ell_hat = plug-in eigenvalue bound; ell_star is the minimum over k.
    A ``WeightedReturnAccumulator`` holds scaled sums in [0, I] and carries
    ``w_max``, which replaces |S| in the plug-in.  Pure function of (acc,
    cfg): identical inputs give identical outputs.
    """
    K = cfg.max_path_length
    I = cfg.num_paths
    if acc.max_path_length != K:
        raise ValueError(
            f"accumulator tracks {acc.max_path_length} path lengths, config expects {K}"
        )
    if acc.paths_completed != I:
        raise ValueError(
            f"accumulator holds {acc.paths_completed} completed paths, config expects {I}"
        )
    counts = np.asarray(acc.counts)
    if counts.min() < 0 or counts.max() > I:
        raise ValueError("return counts must lie in [0, paths_completed]")

    m_hat = counts / I
    per_k_confidence = cfg.confidence / (2.0 * K)
    u_hat = np.empty(K)
    for m in np.unique(m_hat):  # one KL solve per distinct count
        u_hat[m_hat == m] = confidence_upper_bound(m, I, per_k_confidence)
    trace_scale = getattr(acc, "w_max", cfg.state_space_size)
    ell_hat = np.array([plugin_bound(u, k, trace_scale) for k, u in enumerate(u_hat, start=1)])
    argmin_k = int(np.argmin(ell_hat)) + 1
    ell_star = float(ell_hat[argmin_k - 1])
    return UcpiEstimate(
        m_hat=m_hat,
        u_hat=u_hat,
        ell_hat=ell_hat,
        ell_star=ell_star,
        argmin_k=argmin_k,
        relaxation_upper=relaxation_upper_bound(ell_star),
        informative=ell_star < 1.0,
    )


#: Importance-weighted accumulators need no finalize of their own.
finalize_weighted = finalize_estimate


def config_for_budget(n: int, state_space_size: int) -> UcpiConfig:
    """The default split of a budget of n simulated transitions.

    delta = 1/sqrt(n), K = ceil((ln n)^2), I = floor(n/K); the total number
    of transitions I*K never exceeds n, and I >= 1 because (ln n)^2 < n.
    """
    _require_integer("budget n", n)
    if n < 16:
        raise ValueError("budget n must be >= 16")
    max_path_length = math.ceil(math.log(n) ** 2)
    return UcpiConfig(state_space_size, n // max_path_length, max_path_length, n**-0.5)


def relaxation_upper_bound(ell_star: float) -> float:
    """Relaxation-time bound 1/(1 - ell_star); infinite when ell_star = 1."""
    if not 0.0 <= ell_star <= 1.0:
        raise ValueError(f"ell_star must lie in [0, 1], got {ell_star}")
    if ell_star == 1.0:
        return math.inf
    return 1.0 / (1.0 - ell_star)


def validity_check(cfg: UcpiConfig) -> bool:
    """True when 2*ln(2K/delta)/I <= 1/|S|, the hypothesis of the coverage guarantee."""
    lhs = 2.0 * math.log(2.0 * cfg.max_path_length / cfg.confidence) / cfg.num_paths
    return lhs <= 1.0 / cfg.state_space_size


@dataclass(frozen=True)
class TheoryDiagnostics:
    """Error-decomposition quantities computable from an exact spectrum.

    bias[k-1] is the deterministic error of the k-step plug-in value,
    stddev[k-1] the sampling-noise term at budget (I, K, delta), and
    total their sum.  delta_quantity, k_star and r describe the predicted
    optimal path length and rate; r and k_star are +inf sentinels when the
    third eigenvalue is 0 (two-point spectra) and the definitions degenerate.
    scaling_bound_64 evaluates the error-rate bound with the constant 64
    that delta_quantity uses.
    """

    lambda2: float
    lambda3: float
    r: float
    bias: np.ndarray
    stddev: np.ndarray
    total: np.ndarray
    delta_quantity: float
    k_star: float
    asymptotic_variance: np.ndarray
    scaling_bound_64: float


def theory_diagnostics(spectrum, cfg: UcpiConfig) -> TheoryDiagnostics:
    """Evaluate the error decomposition for a chain with known spectrum.

    The spectrum must be sorted descending with leading eigenvalue 1 and
    all eigenvalues in [0, 1] (lazy reversible chain).  m_k is computed
    exactly as the k-th moment mean of the spectrum.
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.ndim != 1 or len(lam) != cfg.state_space_size:
        raise ValueError("spectrum length must equal cfg.state_space_size")
    if np.any(np.diff(lam) > 1e-12):
        raise ValueError("spectrum must be sorted in descending order")
    if abs(lam[0] - 1.0) > 1e-8:
        raise ValueError(f"leading eigenvalue must be 1, got {lam[0]}")
    if lam.min() < -1e-8 or lam.max() > 1.0 + 1e-8:
        raise ValueError("all eigenvalues must lie in [0, 1]")
    lam = np.clip(lam, 0.0, 1.0)

    n = cfg.state_space_size
    I = cfg.num_paths
    K = cfg.max_path_length
    delta = cfg.confidence
    lambda2 = float(lam[1])
    lambda3 = float(lam[2]) if n >= 3 else 0.0

    ks = np.arange(1, K + 1, dtype=float)
    m_k = (lam[None, :] ** ks[:, None]).mean(axis=1)
    excess = n * m_k - 1.0  # sum_{i>=2} lambda_i^k, nonnegative for a valid spectrum
    excess = np.maximum(excess, 0.0)

    log_budget = math.log(K / delta)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bias = excess ** (1.0 / ks) - lambda2
        stddev = n * np.sqrt(32.0 * m_k * log_budget) / (np.sqrt(I) * ks * excess ** (1.0 - 1.0 / ks))
        variance = m_k * (1.0 - m_k) * n**2 / ks**2 * excess ** (2.0 * (1.0 - ks) / ks)

    delta_quantity = 64.0 * log_budget / (n * I)

    if lambda2 == lambda3:
        r = 1.0
    elif lambda3 == 0.0:
        r = math.inf  # undefined: no decay ratio against a vanished third eigenvalue
    else:
        r = math.log(1.0 / lambda2) / math.log(1.0 / lambda3)

    if 0.0 < lambda3 < 1.0:
        k_star = math.log(1.0 / delta_quantity) / (2.0 * math.log(1.0 / lambda3))
    else:
        k_star = math.inf

    if math.isfinite(r) and 0.0 < lambda3 < 1.0 and delta_quantity < n * I / 64.0:
        log_term = math.log(n * I / (64.0 * log_budget))
        prefactor = 4.0 * n * math.log(1.0 / lambda3) / log_term if log_term != 0.0 else math.inf
        scaling_64 = prefactor * delta_quantity ** ((1.0 - r) / 2.0)
    else:
        scaling_64 = math.inf

    return TheoryDiagnostics(
        lambda2=lambda2,
        lambda3=lambda3,
        r=r,
        bias=bias,
        stddev=stddev,
        total=bias + stddev,
        delta_quantity=delta_quantity,
        k_star=k_star,
        asymptotic_variance=variance,
        scaling_bound_64=scaling_64,
    )
