"""Measurement loops of the benchmark: set-up, timed estimations, traced pass.

``run.py`` is the command; this module does the work once ``src/`` is on
``sys.path``.  A ``Run`` times the set-up, derives the references, and
then runs estimations back to back, checking each one outside its timed
interval.  ``end_to_end`` and ``per_layer`` turn a run into the metrics
``BENCHMARK.json`` names.

Times are scaled to a reference machine speed.  The host this benchmark
was written on shares its cores: the same fixed work takes up to 1.6x
longer for minutes at a time, with CPU time equal to wall time, so raw
medians of two 20 s runs can differ by 30% with nothing changed.  Each
timed interval is therefore bracketed by a calibration (fixed interpreted
and numpy work that does not touch specgap), and its wall time is
multiplied by ``CAL_REFERENCE_S`` over the calibration's mean duration.
The result reads as seconds on the reference machine; a change to the
program moves it exactly as much as it moves the wall time.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer, layer_times
from workloads import NULL, master_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 3

#: Calibration units timed on each side of a timed interval (median taken).
CAL_UNITS = 5
#: Typical duration of one calibration unit on the machine the benchmark was
#: built on (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6); it fixes the unit
#: of scaled seconds and nothing else.
CAL_REFERENCE_S = 0.010
CAL_ARRAY = np.random.default_rng(12345).random(100_000)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def fresh_import() -> None:
    """Start a new interpreter that imports specgap, and wait for it to exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import specgap"], env=env, cwd=ROOT, check=True, timeout=120)


def calibration_s() -> float:
    """Median duration of ``CAL_UNITS`` units of fixed interpreted and numpy work."""
    times = []
    for _ in range(CAL_UNITS):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        np.sort(CAL_ARRAY)
        times.append(perf_counter() - start)
    return statistics.median(times)


def timed(fn, *args):
    """(result, wall seconds, wall seconds scaled to the reference speed) of fn(*args)."""
    before = calibration_s()
    start = perf_counter()
    result = fn(*args)
    wall = perf_counter() - start
    after = calibration_s()
    return result, wall, wall * CAL_REFERENCE_S / (0.5 * (before + after))


class Run:
    """One benchmark run of one workload: set-up, estimations, checks."""

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        setups = []
        for _ in range(SETUP_REPEATS):
            self.problem, _, scaled = timed(self._setup_once)
            setups.append(scaled)
        self.setup_s = statistics.median(setups)
        self.ref, problems = workload.reference(self.problem)
        self.note(problems, "reference")

    def _setup_once(self):
        fresh_import()
        return self.wl.setup(self.seed, OUT_DIR)

    def note(self, problems: list[str], where: str) -> None:
        for p in problems:
            print(f"CHECK FAILED [{where}]: {p}", file=sys.stderr)
        self.problems += problems

    def estimate(self, index: int, tracer=None, problem=None):
        """One checked estimation: (outcome, wall s, scaled wall s), or None if it failed."""
        self.attempted += 1
        problem = problem or self.problem
        try:
            out, wall, scaled = timed(self.wl.estimate, problem, master_seed(self.seed, index), tracer or NULL)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = self.wl.check(problem, self.ref, out)
        if problems:
            self.failed += 1
            self.note(problems, f"estimation {index}")
        print(
            f"estimation {index}: {wall:.4f} s wall, {scaled:.4f} s scaled, bound {out.bound:.6f}, "
            f"relaxation {out.relaxation:.4f}, counts sha256 {out.fingerprint()}"
        )
        return out, wall, scaled

    def timed_loop(self, seconds: float, tracer_factory=None):
        """Estimations back to back until ``seconds`` have passed (at least one)."""
        results = []
        start = perf_counter()
        index = 0
        while True:
            tracer = tracer_factory(index) if tracer_factory else None
            res = self.estimate(index, tracer)
            if res is not None:
                results.append((index, *res))
            index += 1
            if perf_counter() - start >= seconds:
                return results

    def peak_alloc_mib(self) -> float:
        """Peak traced allocation of one estimation on the workload's reduced problem."""
        problem = self.wl.alloc_problem(self.problem)
        tracemalloc.start()
        try:
            self.wl.estimate(problem, master_seed(self.seed, 0), NULL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20


def end_to_end(run: Run, seconds: float) -> dict:
    results = run.timed_loop(seconds)
    run.note(run.wl.properties(run.problem, master_seed(run.seed, 0)), "properties")
    metrics = {"setup_s": run.setup_s, "peak_alloc_mib": run.peak_alloc_mib()}
    if results:
        metrics["estimate_s"] = statistics.median(scaled for _, _, _, scaled in results)
        metrics["transitions_per_s"] = statistics.median(out.transitions / scaled for _, out, _, scaled in results)
        metrics["relaxation_bound"] = statistics.median(out.relaxation for _, out, _, _ in results)
    return metrics


def per_layer(run: Run, seconds: float) -> dict:
    base = run.estimate(0)
    units = metric_units("per_layer")
    metrics = {name: 0.0 for name in units}
    if run.wl.pooled and base is not None:
        other = 2 if run.problem.workers == 1 else 1
        alt = run.estimate(0, problem=dataclasses.replace(run.problem, workers=other))
        if alt is not None:
            if not (alt[0].counts == base[0].counts).all():
                run.note(["counts differ between workers=1 and workers=2"], "properties")
            walls = {run.problem.workers: base[2], other: alt[2]}
            metrics["sampling.workers_speedup"] = walls[1] / walls[2]

    tracer = Tracer()

    def tracer_for(index):
        tracer.estimation = index
        return tracer

    results = run.timed_loop(seconds, tracer_for)
    rows = []
    for index, out, _, scaled in results:
        row = {}
        for name, t in layer_times(tracer, index).items():
            row[f"{name}.s"] = t["busy"]
            row[f"{name}.calls"] = t["calls"]
            if "self" in t:
                row[f"{name}.self_s"] = t["self"]
        row.update({k: v for k, v in out.layers.items() if k in units})
        row["estimator.kl_solves"] = len(out.counts)
        row["trace.overhead_s"] = scaled - base[2] if base is not None else 0.0
        rows.append(row)
    for name in units:
        values = [row[name] for row in rows if name in row]
        if values:
            metrics[name] = statistics.median(values)
    tracer.write(
        OUT_DIR,
        f"trace-{run.wl.name}",
        {"workload": run.wl.name, "seed": run.seed, "per_estimation": rows, "metrics": metrics},
    )
    return metrics
