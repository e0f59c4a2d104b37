"""Estimator extensions: non-lazy chains and non-uniform start distributions.

A reversible but non-lazy chain can have negative eigenvalues; running the
estimator on the two-step chain (every transition = two one-step calls)
bounds the squared subdominant magnitude, and the square root of that bound
upper-bounds the largest absolute eigenvalue itself.

When uniform start states are unavailable, starts are drawn from a known
pmf and the return indicators are importance-weighted by 1/pmf(start).
Rescaling the weighted indicators into [0, 1] by w_max = 1/min_pmf lets the
same Bernoulli-KL confidence machinery bound the weighted mean, at the cost
of conservatism growing as min_pmf drifts below uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import InitialSampler, TransitionOracle
from .estimator import (
    UcpiConfig,
    UcpiEstimate,
    confidence_upper_bound,
    relaxation_upper_bound,
)
from .sampling import (
    CollectionError,
    RtfEngine,
    _block_failure,
    _draw_block,
    _PathStreams,
    _run_blocks,
    _step_block,
    rtf_collect,
)

__all__ = [
    "SquaredChainOracle",
    "WeightedReturnAccumulator",
    "NonLazyEstimate",
    "estimate_nonlazy",
    "weighted_collect",
    "finalize_weighted",
]


@dataclass(frozen=True)
class SquaredChainOracle:
    """Simulates the two-step chain: each transition makes exactly two inner calls."""

    inner: TransitionOracle

    def state_space_size(self) -> int:
        return self.inner.state_space_size()

    def next_state(self, x: int, rng: np.random.Generator) -> int:
        return self.inner.next_state(self.inner.next_state(x, rng), rng)

    @property
    def uniforms_per_step(self) -> int:
        # AttributeError propagates when the inner oracle is scalar-only,
        # which correctly demotes this wrapper to the scalar path too.
        return 2 * self.inner.uniforms_per_step

    def step_with_uniforms(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        half = self.inner.uniforms_per_step
        mid = self.inner.step_with_uniforms(xs, us[:, :half])
        return self.inner.step_with_uniforms(mid, us[:, half:])


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
    2 * I * K inner calls.
    """
    from .estimator import finalize_estimate  # local to avoid cycle at import time

    squared = SquaredChainOracle(oracle)
    engine = RtfEngine(
        oracle=squared,
        initial=initial,
        config=cfg,
        master_seed=master_seed,
        worker_count=worker_count,
    )
    acc = rtf_collect(engine)
    raw = finalize_estimate(acc, cfg)
    mapped = math.sqrt(raw.ell_star)
    return NonLazyEstimate(
        squared_estimate=raw,
        spectral_radius_bound=mapped,
        relaxation_upper=relaxation_upper_bound(mapped),
        inner_calls=2 * cfg.num_paths * cfg.max_path_length,
    )


@dataclass
class WeightedReturnAccumulator:
    """Importance-weighted return sums, stored in w_max-rescaled form.

    ``scaled_counts[k-1]`` sums min_pmf/pmf(start) over paths that returned
    at step k; each term lies in (0, 1], so scaled_counts/I is a mean of
    [0, 1]-bounded variables.  ``weighted_sums`` recovers the raw
    importance-weighted sums (unbiased for the trace of the k-th power).
    """

    scaled_counts: np.ndarray
    w_max: float
    paths_completed: int = 0

    @classmethod
    def empty(cls, max_path_length: int, w_max: float) -> "WeightedReturnAccumulator":
        if max_path_length < 1:
            raise ValueError("max_path_length must be >= 1")
        if w_max < 1.0:
            raise ValueError("w_max = 1/min_pmf must be >= 1")
        return cls(scaled_counts=np.zeros(max_path_length), w_max=w_max)

    @property
    def max_path_length(self) -> int:
        return len(self.scaled_counts)

    @property
    def weighted_sums(self) -> np.ndarray:
        return self.scaled_counts * self.w_max

    def copy(self) -> "WeightedReturnAccumulator":
        return WeightedReturnAccumulator(self.scaled_counts.copy(), self.w_max, self.paths_completed)


def _merge_weighted(accs):
    out = accs[0].copy()
    for acc in accs[1:]:
        out.scaled_counts = out.scaled_counts + acc.scaled_counts
        out.paths_completed += acc.paths_completed
    return out


def _weighted_block(oracle, initial, K, master_seed, start, stop, min_pmf):
    ups = getattr(oracle, "uniforms_per_step", None)
    w_max = 1.0 / min_pmf
    acc = WeightedReturnAccumulator.empty(K, w_max=w_max)
    if ups is not None:
        # All or nothing: a failure anywhere in the block commits none of its paths.
        try:
            x0, uniforms = _draw_block(initial, ups, K, master_seed, start, stop)
        except Exception as exc:
            raise _block_failure(start, stop, exc, acc) from exc
        p = np.fromiter((initial.pmf(int(x)) for x in x0), float, len(x0))
        if (p <= 0.0).any():
            bad = x0[np.argmax(p <= 0.0)]
            raise CollectionError(f"sampler produced state {bad} with zero pmf", partial=acc)
        weights = min_pmf / p
        try:
            steps = _step_block(oracle, x0, uniforms, K)
            scaled_counts = np.fromiter((weights @ (xs == x0) for xs in steps), float, K)
        except Exception as exc:
            raise _block_failure(start, stop, exc, acc) from exc
        return WeightedReturnAccumulator(scaled_counts, w_max, paths_completed=stop - start)
    returns = np.empty(K, dtype=bool)
    streams = _PathStreams(master_seed)
    for j in range(start, stop):
        rng = streams(j)
        try:
            x = x0 = initial.sample(rng)
            p = initial.pmf(x0)
            if p <= 0.0:
                raise ValueError(f"sampler produced state {x0} with zero pmf")
            for k in range(K):
                x = oracle.next_state(x, rng)
                returns[k] = x == x0
        except Exception as exc:
            raise CollectionError(f"simulator failed on path {j}: {exc}", partial=acc) from exc
        acc.scaled_counts += returns * (min_pmf / p)
        acc.paths_completed += 1
    return acc


def weighted_collect(
    oracle: TransitionOracle,
    initial: InitialSampler,
    cfg: UcpiConfig,
    master_seed: int,
    worker_count: int = 1,
) -> WeightedReturnAccumulator:
    """Collect importance-weighted return indicators under starts from ``initial``.

    Per path: draw a start from the sampler's pmf, simulate K steps, and add
    min_pmf/pmf(start) to every k at which the path sits in its start state.
    With a uniform sampler this reduces exactly to unweighted counting.
    """
    min_pmf = initial.min_pmf()
    if min_pmf <= 0.0:
        raise ValueError("initial sampler must have strictly positive min_pmf")
    K = cfg.max_path_length

    def block_fn(start, stop):
        return _weighted_block(oracle, initial, K, master_seed, start, stop, min_pmf)

    return _run_blocks(cfg.num_paths, worker_count, block_fn, _merge_weighted)


def finalize_weighted(
    acc: WeightedReturnAccumulator, cfg: UcpiConfig, min_pmf: float | None = None
) -> UcpiEstimate:
    """Eigenvalue bound from importance-weighted sums.

    The rescaled per-path terms are [0, 1]-bounded, so the Bernoulli-KL
    bound applied to their mean s_k yields an upper confidence bound on
    E[s_k]; multiplying back by w_max bounds the trace of the k-th power,
    which the usual plug-in map turns into an eigenvalue bound.  With a
    uniform sampler the output matches the unweighted pipeline exactly.
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
    if min_pmf is not None and not math.isclose(1.0 / min_pmf, acc.w_max, rel_tol=1e-12):
        raise ValueError(
            f"min_pmf={min_pmf} is inconsistent with accumulator w_max={acc.w_max}"
        )
    scaled_mean = np.clip(acc.scaled_counts / I, 0.0, 1.0)
    per_k_confidence = cfg.confidence / (2.0 * K)
    u_scaled = np.array(
        [confidence_upper_bound(s, I, per_k_confidence) for s in scaled_mean]
    )
    trace_bounds = u_scaled * acc.w_max
    ell_values = []
    for k, t in enumerate(trace_bounds, start=1):
        base = t - 1.0
        ell_values.append(0.0 if base <= 0.0 else min(base ** (1.0 / k), 1.0))
    ell_hat = np.array(ell_values)
    argmin_k = int(np.argmin(ell_hat)) + 1
    ell_star = float(ell_hat[argmin_k - 1])
    return UcpiEstimate(
        m_hat=scaled_mean,
        u_hat=u_scaled,
        ell_hat=ell_hat,
        ell_star=ell_star,
        argmin_k=argmin_k,
        relaxation_upper=relaxation_upper_bound(ell_star),
        informative=ell_star < 1.0,
    )
