"""Bound the spectral gap of a chain whose answer we can check exactly.

A two-state chain with P = [[0.75, 0.25], [0.25, 0.75]] has eigenvalues
{1, 0.5}, so the true relaxation time is 1/(1-0.5) = 2.  We simulate
fresh paths, build the per-k confidence bounds, and compare.
"""

import numpy as np

from specgap import (
    DenseMatrixChain,
    RtfEngine,
    UcpiConfig,
    UniformSampler,
    exact_spectrum,
    finalize_estimate,
    rtf_collect,
    theory_diagnostics,
)

chain = DenseMatrixChain([[0.75, 0.25], [0.25, 0.75]])
spectrum = exact_spectrum(chain)
print("exact spectrum:", spectrum)
print(f"true lambda_star = {spectrum[1]:.3f}, true t_r = {1 / (1 - spectrum[1]):.3f}")

cfg = UcpiConfig(state_space_size=2, num_paths=100_000, max_path_length=10, confidence=0.05)
engine = RtfEngine(chain, UniformSampler(2), cfg, master_seed=42)
estimate = finalize_estimate(rtf_collect(engine), cfg)

print(f"\nper-k view (I={cfg.num_paths}, delta={cfg.confidence}):")
print(f"{'k':>3} {'m_hat':>9} {'u_hat':>9} {'ell_hat':>9}")
for k in range(1, cfg.max_path_length + 1):
    print(
        f"{k:>3} {estimate.m_hat[k-1]:>9.5f} {estimate.u_hat[k-1]:>9.5f} "
        f"{estimate.ell_hat[k-1]:>9.5f}"
    )

print(f"\nupper bound on lambda_star: {estimate.ell_star:.5f} (attained at k={estimate.argmin_k})")
print(f"upper bound on t_r:         {estimate.relaxation_upper:.3f}")
print("the bound sits above the truth with high probability:", estimate.ell_star >= spectrum[1])

# With the exact spectrum in hand, the error decomposition bounds the
# per-k bias and noise.  It is a loose envelope: its minimising k need not
# be the run's argmin_k.
diag = theory_diagnostics(spectrum, cfg)
best_k = int(np.argmin(diag.total)) + 1
print(f"\nk minimising the loose error envelope (not a prediction of argmin_k): {best_k}")
print("bias term:", np.round(diag.bias, 4))
print("noise term:", np.round(diag.stddev, 4))
