"""Benchmark: from a budget of simulated transitions to ell_star, per workload.

Run from the repository root:

    python3 bench/run.py --workload line-vec --seed 0 --seconds 15 --trace 0

With ``--trace 0`` the command times estimations back to back for
``--seconds`` seconds (at least one), checks every estimate against
independent references, and prints the end-to-end metrics.  With
``--trace 1`` it runs the same estimations through timing proxies and
prints the per-layer metrics instead, and writes the spans to
``bench/out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout the script sits in;
without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specgap" / "__init__.py").is_file():
        print(f"error: no specgap package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    run = harness.Run(WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            values, units = harness.per_layer(run, args.seconds), harness.metric_units("per_layer")
        else:
            values, units = harness.end_to_end(run, args.seconds), harness.metric_units("end_to_end")
    finally:
        if run.problem.path is not None:
            run.problem.path.unlink(missing_ok=True)
    result = {
        "correct": not run.problems and set(values) >= set(units),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
