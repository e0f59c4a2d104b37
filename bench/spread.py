"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 bench/spread.py --workload line-vec --seeds 0 1 2 3 4

Runs the benchmark command once per seed, one run at a time, for the run
length BENCHMARK.json fixes.  Prints for every end-to-end metric its
median, quartiles and quartile spread (Q3 - Q1) as a share of the median,
next to a third of the bound that BENCHMARK.json fixes, and the failed
share and wall time of each run.  To compare two commits, run it on each,
alternating.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"
        ]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        share = result["failed"] / result["attempted"]
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed share={share:.4f} run wall={wall:.1f} s"
        )
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
        print(
            f"{metric['name']:20s} median {median:.6g} {metric['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"spread {spread:.4f}  bound/3 {metric['bound'] / 3:.4f}{flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
