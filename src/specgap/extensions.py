"""Estimator extensions: non-lazy chains and non-uniform start distributions.

A reversible but non-lazy chain can have negative eigenvalues; running the
estimator on the two-step chain (every transition = two one-step calls)
bounds the squared subdominant magnitude, and the square root of that bound
upper-bounds the largest absolute eigenvalue itself.

When uniform start states are unavailable, starts are drawn from a known
pmf and the return indicators are importance-weighted by 1/pmf(start).
Weighted estimation is the unweighted pipeline with two changes: each path
adds its start weight min_pmf/pmf(x0), in (0, 1], in place of 1, and the
plug-in uses w_max = 1/min_pmf in place of |S|.  Rescaling into [0, 1] this
way lets the same Bernoulli-KL confidence machinery bound the weighted
mean, at the cost of conservatism growing as min_pmf drifts below uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import InitialSampler, TransitionOracle
from .estimator import (
    ReturnCountAccumulator,
    UcpiConfig,
    UcpiEstimate,
    finalize_estimate,
    relaxation_upper_bound,
)
from .sampling import RtfEngine, _collect, rtf_collect

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
    engine = RtfEngine(SquaredChainOracle(oracle), initial, cfg, master_seed, worker_count)
    raw = finalize_estimate(rtf_collect(engine), cfg)
    mapped = math.sqrt(raw.ell_star)
    return NonLazyEstimate(
        squared_estimate=raw,
        spectral_radius_bound=mapped,
        relaxation_upper=relaxation_upper_bound(mapped),
        inner_calls=2 * cfg.num_paths * cfg.max_path_length,
    )


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
    A start whose pmf is zero or below ``initial.min_pmf()`` (a weight
    above 1) fails its path with ``CollectionError``.  With a uniform
    sampler this reduces exactly to unweighted counting.
    """
    min_pmf = initial.min_pmf()
    if min_pmf <= 0.0:
        raise ValueError("initial sampler must have strictly positive min_pmf")

    def weight(x0):
        p = initial.pmf(x0)
        if not p >= min_pmf:  # zero, or a weight above 1
            reason = "zero pmf" if p <= 0.0 else f"pmf {p} below min_pmf {min_pmf}"
            raise ValueError(f"sampler produced state {x0} with {reason}")
        return min_pmf / p

    empty = WeightedReturnAccumulator.empty(cfg.max_path_length, w_max=1.0 / min_pmf)
    return _collect(RtfEngine(oracle, initial, cfg, master_seed, worker_count), empty, weight)


def finalize_weighted(
    acc: WeightedReturnAccumulator, cfg: UcpiConfig, min_pmf: float | None = None
) -> UcpiEstimate:
    """Eigenvalue bound from importance-weighted sums: ``finalize_estimate``.

    The rescaled per-path terms are [0, 1]-bounded, so the Bernoulli-KL
    bound on their mean s_k bounds E[s_k]; times w_max (in place of |S|) it
    bounds the trace of the k-th power, which the plug-in map turns into an
    eigenvalue bound.  ``min_pmf``, when given, must agree with ``acc.w_max``.
    """
    if min_pmf is not None and not math.isclose(1.0 / min_pmf, acc.w_max, rel_tol=1e-12):
        raise ValueError(
            f"min_pmf={min_pmf} is inconsistent with accumulator w_max={acc.w_max}"
        )
    return finalize_estimate(acc, cfg)
