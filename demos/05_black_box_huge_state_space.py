"""The point of the method: state spaces far too large for any matrix.

Supply any object with `state_space_size()` and `next_state(x, rng)` and
the estimator runs in O(K) memory - here a lazy random walk on a cycle of
ten million states, which no dense eigensolver could touch.  An optional
vectorized kernel (`uniforms_per_step` + `step_with_uniforms`) speeds up
the simulation without changing any result.
"""

import time
import tracemalloc

import numpy as np

from specgap import RtfEngine, UniformSampler, config_for_budget, finalize_estimate, rtf_collect


class LazyCycleWalk:
    """x -> x+1 (mod size) with probability 1/2, else stay."""

    uniforms_per_step = 1

    def __init__(self, size):
        self.size = size

    def state_space_size(self):
        return self.size

    def next_state(self, x, rng):
        return x if rng.random() < 0.5 else (x + 1) % self.size

    def step_with_uniforms(self, xs, us):
        return np.where(us[:, 0] < 0.5, xs, (xs + 1) % self.size)


SIZE = 10_000_000
chain = LazyCycleWalk(SIZE)
cfg = config_for_budget(10**6, SIZE)
print(f"|S| = {SIZE:,}; budget 1e6 -> I={cfg.num_paths}, K={cfg.max_path_length}, "
      f"delta={cfg.confidence:.4g}")

tracemalloc.start()
started = time.perf_counter()
engine = RtfEngine(chain, UniformSampler(SIZE), cfg, master_seed=0)
estimate = finalize_estimate(rtf_collect(engine), cfg)
elapsed = time.perf_counter() - started
_, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()

print(f"ran {cfg.num_paths * cfg.max_path_length:,} transitions in {elapsed:.2f}s "
      f"with a {peak / 1024:.0f} KiB peak working set")
print(f"bound on lambda_star: {estimate.ell_star:.6f}")
print(f"storing this chain's transition matrix would need ~{SIZE**2 * 8 / 1e12:.0f} TB;")
print("the estimator never allocates anything proportional to |S|.")
print("\n(A cycle this large mixes in ~|S|^2 steps, so with only 1e6 samples the bound")
print("is rightly close to 1 - the interesting part is the resource profile.)")
