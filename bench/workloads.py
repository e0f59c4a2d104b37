"""The benchmark's four workloads: inputs, one estimation, and its checks.

Each workload drives one sampling mode of specgap through the public API:

- ``line-vec``: fresh paths with the built-in vectorized kernel, serial.
- ``graph-weighted-w2``: importance-weighted starts, a gather kernel and
  two worker threads.
- ``blackbox-nonlazy``: a chain known only through ``next_state``,
  estimated through the two-step chain.
- ``usp-trace``: one long trajectory read from a file.

``setup`` builds what a user builds before estimating (chain, sampler,
config, input file); ``reference`` derives the independent references;
``estimate`` runs one estimation; ``check`` and ``properties`` test its
output.  Inputs depend on the run's seed only through the master seed of
each estimation and, for ``usp-trace``, the trajectory written at setup.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

import reference as refs
from tracing import NullTracer

import specgap
from specgap import sampling as specgap_sampling

NULL = NullTracer()

#: Paths in the prefix configuration of the property checks: two blocks of
#: the library's fixed block size, so two workers both get work.
PROPERTY_PATHS = 1100

#: Smallest chi-square p-value accepted for uniform USP segment starts.
CHI_SQUARE_LEVEL = 1e-6


def master_seed(seed: int, estimation: int) -> int:
    """Master seed of the estimation-th estimation in a run with ``seed``."""
    return seed * 1000 + estimation


@dataclass
class Problem:
    """Everything built before the first estimation."""

    chain: object
    sampler: object
    cfg: specgap.UcpiConfig
    n: int
    workers: int
    path: Path | None = None
    max_steps: int | None = None


@dataclass
class Outcome:
    """One estimation's result, in the form the checks need.

    ``estimate`` is the UcpiEstimate the library finalized (of the two-step
    chain for ``blackbox-nonlazy``); ``bound`` and ``relaxation`` are what
    the user reads off; ``counts`` are the per-k return counts, scaled
    counts when weighted.
    """

    estimate: specgap.UcpiEstimate
    counts: np.ndarray
    paths: int
    trace_scale: float
    bound: float
    relaxation: float
    transitions: int
    layers: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        """SHA-256 of the per-k counts as little-endian int64 or float64."""
        counts = np.asarray(self.counts)
        dtype = "<i8" if counts.dtype.kind in "iu" else "<f8"
        return hashlib.sha256(counts.astype(dtype).tobytes()).hexdigest()


class ScalarOnly:
    """A chain seen through the black-box interface alone."""

    def __init__(self, inner):
        self._inner = inner

    def state_space_size(self):
        return self._inner.state_space_size()

    def next_state(self, x, rng):
        return self._inner.next_state(x, rng)


class EhrenfestChain:
    """User-defined chain on {0,1}^bits: flip one of the bits or hold, each w.p. 1/(bits+1).

    Only the black-box interface; ``calls`` counts ``next_state`` calls.
    """

    def __init__(self, bits: int):
        self.bits = bits
        self.calls = 0

    def state_space_size(self) -> int:
        return 2**self.bits

    def next_state(self, x: int, rng) -> int:
        self.calls += 1
        i = int(rng.random() * (self.bits + 1))
        return x ^ (1 << i) if i < self.bits else x


def write_states(path: Path, states: np.ndarray) -> None:
    """Write states in [0, 100) one per line, as ``states_from_file`` reads them.

    Formats all lines at once in a byte buffer: ``ndarray.tofile`` with a
    separator takes four times longer on a 1e7-state trace.
    """
    if states.min() < 0 or states.max() >= 100:
        raise ValueError("write_states formats states in [0, 100) only")
    tens = states >= 10
    ends = np.cumsum(2 + tens)  # one past each line's newline
    buf = np.full(ends[-1], ord("\n"), dtype=np.uint8)
    buf[ends - 2] = ord("0") + states % 10
    buf[(ends - 3)[tens]] = ord("0") + states[tens] // 10
    path.write_bytes(buf.tobytes())


class Workload:
    name: str
    n: int
    workers: int
    #: Paths simulated in the tracemalloc pass.
    alloc_paths: int
    #: One-step simulator calls per path step.
    calls_per_step = 1
    #: Whether the estimation takes a worker count.
    pooled = True

    def setup(self, seed: int, out_dir: Path) -> Problem:
        raise NotImplementedError

    def reference(self, problem: Problem) -> tuple[refs.Reference, list[str]]:
        raise NotImplementedError

    def estimate(self, problem: Problem, seed: int, tracer=NULL) -> Outcome:
        raise NotImplementedError

    def alloc_problem(self, problem: Problem) -> Problem:
        cfg = dataclasses.replace(problem.cfg, num_paths=min(problem.cfg.num_paths, self.alloc_paths))
        return dataclasses.replace(problem, cfg=cfg)

    def check(self, problem: Problem, ref: refs.Reference, out: Outcome) -> list[str]:
        cfg = problem.cfg
        problems = refs.check_estimate(
            out.estimate, out.counts, out.paths, out.trace_scale, out.bound, ref, cfg.confidence
        )
        if out.paths != cfg.num_paths:
            problems.append(f"{out.paths} paths completed, {cfg.num_paths} configured")
        if self.calls_per_step * cfg.num_paths * cfg.max_path_length > problem.n:
            problems.append("I*K exceeds the budget n")
        return problems

    def properties(self, problem: Problem, seed: int) -> list[str]:
        """Bit-identity of counts at 1 and 2 workers, scalar and vectorized, on a prefix."""
        prefix = dataclasses.replace(
            problem, cfg=dataclasses.replace(problem.cfg, num_paths=PROPERTY_PATHS)
        )
        problems = []
        one = self.estimate(dataclasses.replace(prefix, workers=1), seed)
        two = self.estimate(dataclasses.replace(prefix, workers=2), seed)
        if not np.array_equal(one.counts, two.counts):
            problems.append("counts differ between workers=1 and workers=2")
        if getattr(problem.chain, "uniforms_per_step", None) is not None:
            scalar = self.estimate(dataclasses.replace(prefix, chain=ScalarOnly(problem.chain)), seed)
            if not np.array_equal(one.counts, scalar.counts):
                problems.append("counts differ between the scalar and vectorized paths")
        return problems


def _rtf_layers(problem: Problem, chain, vectorized: bool) -> dict:
    cfg = problem.cfg
    block = getattr(specgap_sampling, "BLOCK_SIZE", 0)
    ups = getattr(problem.chain, "uniforms_per_step", 0) if vectorized else 0
    return {
        "sampling.paths": cfg.num_paths,
        "sampling.blocks": math.ceil(cfg.num_paths / block) if block else 0,
        "sampling.uniform_bytes": cfg.num_paths * cfg.max_path_length * ups * 8,
        "chains.step_with_uniforms.states": getattr(chain, "states", 0),
    }


class LineVec(Workload):
    name = "line-vec"
    n = 10**7
    workers = 1
    alloc_paths = 4096
    size, bias = 20, 0.9

    def setup(self, seed, out_dir):
        chain = specgap.BiasedLineChain(self.size, self.bias)
        cfg = specgap.config_for_budget(self.n, self.size)
        return Problem(chain, specgap.UniformSampler(self.size), cfg, self.n, self.workers)

    def reference(self, problem):
        spectrum = refs.line_spectrum(self.size, self.bias)
        problems = []
        # Two ulps of 1.0: the dense eigensolver's rounding on this 20-state chain.
        error = float(np.abs(specgap.exact_spectrum(problem.chain) - spectrum).max())
        if error > 2 * np.finfo(float).eps:
            problems.append(f"exact_spectrum is {error:.2e} from the closed form")
        K = problem.cfg.max_path_length
        curve = refs.trace_curve(spectrum, K) / self.size
        return refs.Reference(spectrum, float(spectrum[1]), curve), problems

    def estimate(self, problem, seed, tracer=NULL):
        chain = tracer.chain(problem.chain)
        engine = specgap.RtfEngine(
            chain, tracer.sampler(problem.sampler), problem.cfg, seed, worker_count=problem.workers
        )
        acc = tracer.call("sampling.rtf_collect", specgap.rtf_collect, engine)
        est = tracer.call("estimator.finalize_estimate", specgap.finalize_estimate, acc, problem.cfg)
        return Outcome(
            est, acc.counts, acc.paths_completed, self.size, est.ell_star, est.relaxation_upper,
            problem.cfg.num_paths * problem.cfg.max_path_length,
            _rtf_layers(problem, chain, vectorized=True),
        )


class GraphWeightedW2(Workload):
    name = "graph-weighted-w2"
    n = 10**7
    workers = 2
    alloc_paths = 4096
    size, degree, graph_seed = 100, 5, 0

    def setup(self, seed, out_dir):
        chain = specgap.generate_regular_graph(self.size, self.degree, seed=self.graph_seed)
        # Odd states twice as likely as even ones; min_pmf/pmf is then 1 or
        # exactly 0.5, so weighted sums are exact in any summation order.
        weights = np.tile([1.0, 2.0], self.size // 2)
        sampler = specgap.TabularSampler(weights / weights.sum())
        cfg = specgap.config_for_budget(self.n, self.size)
        return Problem(chain, sampler, cfg, self.n, self.workers)

    def reference(self, problem):
        P = refs.graph_transition_matrix(problem.chain.neighbors)
        problems = []
        if not np.allclose(P, problem.chain.transition_matrix(), rtol=0.0, atol=1e-15):
            problems.append("graph transition matrix differs from the one built from neighbors")
        spectrum = refs.symmetric_spectrum(P)
        K = problem.cfg.max_path_length
        traces = refs.trace_curve(spectrum, K)
        for k in (1, 2, 17):
            direct = float(np.trace(np.linalg.matrix_power(P, k)))
            if not math.isclose(direct, traces[k - 1], rel_tol=1e-12):
                problems.append(f"tr(P^{k}) = {direct!r} but the eigenvalue sum is {traces[k - 1]!r}")
        curve = problem.sampler.min_pmf() * traces
        return refs.Reference(spectrum, float(spectrum[1]), curve), problems

    def estimate(self, problem, seed, tracer=NULL):
        chain = tracer.chain(problem.chain)
        acc = tracer.call(
            "extensions.weighted_collect", specgap.weighted_collect,
            chain, tracer.sampler(problem.sampler), problem.cfg, seed, worker_count=problem.workers,
        )
        est = tracer.call("extensions.finalize_weighted", specgap.finalize_weighted, acc, problem.cfg)
        return Outcome(
            est, acc.scaled_counts, acc.paths_completed, acc.w_max, est.ell_star, est.relaxation_upper,
            problem.cfg.num_paths * problem.cfg.max_path_length,
            _rtf_layers(problem, chain, vectorized=True),
        )


class BlackboxNonlazy(Workload):
    name = "blackbox-nonlazy"
    n = 10**6
    workers = 1
    alloc_paths = 256
    calls_per_step = 2
    # On {0,1}^6 the bound at n = 1e6 is noise-dominated: 1/(1 - bound) had a
    # 42% coefficient of variation and run medians spread 20%; on {0,1}^4, 17%.
    bits = 4

    def setup(self, seed, out_dir):
        chain = EhrenfestChain(self.bits)
        size = chain.state_space_size()
        # n one-step calls: the two-step chain makes two per transition.
        cfg = specgap.config_for_budget(self.n // 2, size)
        return Problem(chain, specgap.UniformSampler(size), cfg, self.n, self.workers)

    def reference(self, problem):
        spectrum = refs.ehrenfest_spectrum(self.bits)
        problems = []
        dense = refs.symmetric_spectrum(refs.ehrenfest_transition_matrix(self.bits))
        error = float(np.abs(dense - spectrum).max())
        if error > 1e-12:
            problems.append(f"Ehrenfest matrix spectrum is {error:.2e} from the closed form")
        size = len(spectrum)
        curve = refs.trace_curve(spectrum, problem.cfg.max_path_length, power=2) / size
        target = float(np.abs(spectrum[1:]).max())
        return refs.Reference(spectrum, target, curve), problems

    def estimate(self, problem, seed, tracer=NULL):
        cfg = problem.cfg
        problem.chain.calls = 0
        res = tracer.call(
            "extensions.estimate_nonlazy", specgap.estimate_nonlazy,
            tracer.chain(problem.chain), cfg, tracer.sampler(problem.sampler), seed,
            worker_count=problem.workers,
        )
        est = res.squared_estimate
        counts = np.rint(est.m_hat * cfg.num_paths).astype(np.int64)
        layers = _rtf_layers(problem, None, vectorized=False)
        layers["next_state_calls"] = problem.chain.calls
        return Outcome(
            est, counts, cfg.num_paths, cfg.state_space_size, res.spectral_radius_bound,
            res.relaxation_upper, 2 * cfg.num_paths * cfg.max_path_length, layers,
        )

    def check(self, problem, ref, out):
        problems = super().check(problem, ref, out)
        expected = 2 * problem.cfg.num_paths * problem.cfg.max_path_length
        if out.layers["next_state_calls"] != expected:
            problems.append(f"next_state called {out.layers['next_state_calls']} times, expected {expected}")
        return problems


class UspTrace(Workload):
    name = "usp-trace"
    # 2.5e6 states keep a 20 s run at about ten estimations; with 1e7 a run
    # held three, and the median moved 18% from run to run on a shared host.
    n = 2_500_000
    workers = 1
    pooled = False
    size = 16
    #: Trajectory prefix read in the tracemalloc pass.
    alloc_states = 2**18

    def setup(self, seed, out_dir):
        # Lazy symmetric walk on the cycle: hold w.p. 1/2, step -1 or +1 w.p. 1/4 each,
        # started from its (uniform) stationary law.
        rng = np.random.default_rng(seed)
        steps = rng.choice(np.array([-1, 0, 0, 1], dtype=np.int64), size=self.n - 1)
        walk = np.empty(self.n, dtype=np.int64)
        walk[0] = rng.integers(self.size)
        walk[1:] = walk[0] + np.cumsum(steps)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "usp-trace.txt"
        write_states(path, np.mod(walk, self.size))
        cfg = specgap.config_for_budget(self.n, self.size)
        return Problem(None, specgap.UniformSampler(self.size), cfg, self.n, self.workers, path=path)

    def reference(self, problem):
        spectrum = refs.cycle_spectrum(self.size)
        problems = []
        dense = refs.symmetric_spectrum(refs.cycle_transition_matrix(self.size))
        error = float(np.abs(dense - spectrum).max())
        if error > 1e-12:
            problems.append(f"cycle matrix spectrum is {error:.2e} from the closed form")
        curve = refs.trace_curve(spectrum, problem.cfg.max_path_length) / self.size
        return refs.Reference(spectrum, float(spectrum[1]), curve), problems

    def alloc_problem(self, problem):
        return dataclasses.replace(problem, max_steps=self.alloc_states)

    def estimate(self, problem, seed, tracer=NULL):
        cfg = problem.cfg
        starts = []
        source = tracer.iterate(
            "sampling.states_from_file", specgap.states_from_file(problem.path, problem.max_steps)
        )
        engine = specgap.UspEngine(
            source, cfg.max_path_length, tracer.sampler(problem.sampler), seed, on_segment=starts.append
        )
        acc = tracer.call("sampling.usp_collect", specgap.usp_collect, engine, cfg.num_paths)
        effective = dataclasses.replace(cfg, num_paths=acc.paths_completed)
        est = tracer.call("estimator.finalize_estimate", specgap.finalize_estimate, acc, effective)
        stats_ = engine.stats
        layers = {
            "sampling.paths": acc.paths_completed,
            "sampling.usp.states_consumed": stats_.source_steps_consumed,
            "sampling.usp.segments": stats_.segments_emitted,
            "sampling.usp.yield": stats_.segments_emitted / cfg.num_paths,
            "sampling.usp.mean_wait": stats_.mean_wait,
            "starts": starts,
        }
        return Outcome(
            est, acc.counts, acc.paths_completed, self.size, est.ell_star, est.relaxation_upper,
            stats_.source_steps_consumed, layers,
        )

    def check(self, problem, ref, out):
        cfg = problem.cfg
        problems = refs.check_estimate(
            out.estimate, out.counts, out.paths, out.trace_scale, out.bound, ref, cfg.confidence
        )
        if not 1 <= out.layers["sampling.usp.segments"] <= cfg.num_paths:
            problems.append(f"{out.layers['sampling.usp.segments']} segments for {cfg.num_paths} requested")
        if out.transitions > problem.n:
            problems.append(f"consumed {out.transitions} states of a {problem.n}-state trace")
        observed = np.bincount(out.layers["starts"], minlength=self.size)
        pvalue = stats.chisquare(observed).pvalue
        if not pvalue >= CHI_SQUARE_LEVEL:
            problems.append(f"segment starts fail the chi-square uniformity test (p={pvalue:.2e})")
        return problems

    def properties(self, problem, seed):
        # One trajectory, no worker pool and no vectorized kernel: nothing to compare.
        return []


WORKLOADS = {w.name: w for w in (LineVec(), GraphWeightedW2(), BlackboxNonlazy(), UspTrace())}
