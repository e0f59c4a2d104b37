"""Counts fingerprints: SHA-256 of the per-k counts of each workload's first estimation.

    python3 bench/fingerprint.py [--seeds 0 1]

Prints one line per workload and seed.  The counts are a pure function of
the seed, so a change that claims to keep the sampled counts unchanged
shows the same lines before and after.  Weighted workloads hash their
scaled counts.  This is information, not a gate: the benchmark's checks
compare estimates with independent references, never with stored output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    from harness import OUT_DIR
    from workloads import WORKLOADS, master_seed

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args()
    for name, wl in WORKLOADS.items():
        for seed in args.seeds:
            problem = wl.setup(seed, OUT_DIR)
            try:
                out = wl.estimate(problem, master_seed(seed, 0))
            finally:
                if problem.path is not None:
                    problem.path.unlink(missing_ok=True)
            print(f"{name} seed {seed} counts sha256 {out.fingerprint()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
