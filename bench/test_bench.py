"""Smoke tests of the benchmark itself: python3 -m pytest bench/test_bench.py

Every workload runs end to end at a tiny budget, a wrong reference makes
the checks report a failed estimation, and the command refuses to run
without the program's sources.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import reference as refs  # noqa: E402
from tracing import Tracer, layer_times, union_length  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"line-vec": 50_000, "graph-weighted-w2": 50_000, "blackbox-nonlazy": 20_000, "usp-trace": 200_000}


def small(name: str, n: int):
    wl = copy.copy(WORKLOADS[name])
    wl.n = n
    return wl


@pytest.fixture(autouse=True)
def _one_setup(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_and_passes_its_checks(name):
    run = harness.Run(small(name, TINY[name]), seed=3)
    metrics = harness.end_to_end(run, seconds=0)
    assert run.problems == []
    assert (run.attempted, run.failed) == (1, 0)
    assert set(metrics) == set(harness.metric_units("end_to_end"))
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass_reports_every_layer(name):
    run = harness.Run(small(name, TINY[name]), seed=3)
    metrics = harness.per_layer(run, seconds=0)
    assert run.problems == []
    assert set(metrics) == set(harness.metric_units("per_layer"))
    assert metrics["estimator.kl_solves"] == run.problem.cfg.max_path_length


def test_wrong_reference_fails_the_estimation():
    run = harness.Run(small("line-vec", 10**6), seed=3)
    assert run.estimate(0) is not None and run.failed == 0
    # The p = 0.8 walk in place of the p = 0.9 one: a lambda_star 0.1 higher
    # and a different return curve.
    wrong = refs.line_spectrum(20, 0.8)
    K = run.problem.cfg.max_path_length
    run.ref = refs.Reference(wrong, float(wrong[1]), refs.trace_curve(wrong, K) / 20)
    run.estimate(1)
    assert run.failed == 1
    assert any("binomial tolerance" in p for p in run.problems)


def test_check_rejects_each_kind_of_wrong_output():
    run = harness.Run(small("line-vec", 10**5), seed=3)
    out, _, _ = run.estimate(0)
    cfg, ref = run.problem.cfg, run.ref
    assert run.wl.check(run.problem, ref, out) == []

    def problems(**changes):
        est = dataclasses.replace(out.estimate, **changes)
        return refs.check_estimate(est, out.counts, out.paths, out.trace_scale, est.ell_star, ref, cfg.confidence)

    assert any("bisection" in p for p in problems(u_hat=out.estimate.u_hat + 1e-8))
    assert any("plug-in" in p for p in problems(ell_star=out.estimate.ell_star - 1e-9))
    high = dataclasses.replace(ref, target=out.bound + 0.05)
    assert any("below the exact value" in p for p in run.wl.check(run.problem, high, out))


def test_kl_oracle_solves_the_defining_equation():
    m = np.array([0.0, 0.01, 0.3, 0.999])
    u = refs.kl_upper_bisection(m, 1000, 1e-3)
    assert np.all(u >= m)
    assert np.allclose(1000 * refs.bernoulli_kl(m, u), np.log(1e3), rtol=0, atol=1e-9)


def test_union_length_and_self_time():
    assert union_length(np.array([0.0, 1.0, 5.0]), np.array([2.0, 3.0, 6.0])) == 4.0
    tracer = Tracer()
    tracer.estimation = 0
    leaf = tracer.name_id("chains.sample")

    def body():
        start = perf_counter()
        total = sum(range(10**5))
        tracer.record(leaf, start, perf_counter())
        return total

    tracer.call("sampling.rtf_collect", body)
    times = layer_times(tracer, 0)
    parent, child = times["sampling.rtf_collect"], times["chains.sample"]
    assert child["calls"] == 1 and "self" not in child
    assert parent["self"] == pytest.approx(parent["busy"] - child["busy"], abs=1e-12)


def test_command_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "line-vec", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
