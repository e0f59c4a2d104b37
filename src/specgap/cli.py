"""Command-line harness: configure a chain and budget, run the estimator, report.

Subcommands:
  run       one experiment (several independent trials) on a configured chain
  tables    the standard benchmark grid: line walks and regular-graph walks
            across budgets, plus an informative-output frequency study
  coverage  empirical violation frequency of the upper bound against the
            exact second eigenvalue, with a Wilson interval check

Exit codes: 0 on success, 1 on a failed coverage check, 2 on configuration
errors.  Reports are emitted as human tables, CSV, or JSON (schema in the
README); pass --no-timing to drop wall-clock fields so that identical
(spec, seed) pairs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .chains import (
    BiasedLineChain,
    TabularSampler,
    UniformSampler,
    exact_spectrum,
    generate_regular_graph,
    load_matrix_chain,
)
from .estimator import (
    UcpiConfig,
    config_for_budget,
    finalize_estimate,
    relaxation_upper_bound,
    validity_check,
)
from .extensions import SquaredChainOracle, weighted_collect
from .sampling import (
    RtfEngine,
    UspEngine,
    rtf_collect,
    states_from_file,
    trajectory_from_oracle,
    usp_collect,
)

__all__ = ["ExperimentSpec", "ExperimentReport", "run_experiment", "reproduce_tables", "coverage_study", "main"]

CSV_COLUMNS = ["trial", "k_argmin", "ell_star", "t_r_upper", "informative", "oracle_calls", "seed"]

TABLE_BUDGETS = [10**4, 10**5, 10**6, 10**7, 10**8]
LINE_BIASES = [0.5, 0.7, 0.9]
GRAPH_DEGREES = [5, 10]


class ConfigError(ValueError):
    """User-facing configuration problem; reported on stderr with exit code 2."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to rerun an experiment deterministically."""

    chain: str                      # line | regular | matrix
    size: int = 20
    p: float = 0.5
    d: int = 5
    graph_seed: int = 0
    matrix_file: str | None = None
    model: str = "rtf"              # rtf | usp
    n: int = 10**6
    num_paths: int | None = None    # overrides; None -> defaults from n
    max_path_length: int | None = None
    confidence: float | None = None
    seed: int = 0
    workers: int = 1
    trials: int = 1
    nonlazy: bool = False
    mu_file: str | None = None
    usp_path: str | None = None
    output_format: str = "table"


@dataclass(frozen=True)
class TrialResult:
    trial: int
    seed: int
    ell_star: float
    t_r_upper: float
    argmin_k: int
    informative: bool
    oracle_calls: int
    raw_ell_star: float | None = None   # squared-chain bound when --nonlazy
    segments: int | None = None         # usp only
    mean_wait: float | None = None      # usp only


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    config: UcpiConfig
    guaranteed: bool
    exact_lambda_star: float | None
    exact_relaxation: float | None
    exact_skipped_reason: str | None
    trials: list[TrialResult]
    wall_time_seconds: float | None

    @property
    def informative_frequency(self) -> float:
        return sum(t.informative for t in self.trials) / len(self.trials)

    @property
    def coverage_frequency(self) -> float | None:
        if self.exact_lambda_star is None:
            return None
        lam = self.exact_lambda_star
        return sum(t.ell_star >= lam for t in self.trials) / len(self.trials)


def _trial_master_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial]).generate_state(1, dtype=np.uint64)[0])


def build_chain(spec: ExperimentSpec):
    if spec.chain == "line":
        if spec.size < 2:
            raise ConfigError("--size must be >= 2")
        if not 0.0 < spec.p < 1.0:
            raise ConfigError("--p must lie strictly between 0 and 1")
        return BiasedLineChain(size=spec.size, bias=spec.p)
    if spec.chain == "regular":
        try:
            return generate_regular_graph(spec.size, spec.d, seed=spec.graph_seed)
        except (ValueError, RuntimeError) as exc:
            raise ConfigError(f"cannot build regular graph: {exc}") from exc
    if spec.chain == "matrix":
        if not spec.matrix_file:
            raise ConfigError("--matrix-file is required with --chain matrix")
        try:
            return load_matrix_chain(spec.matrix_file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load matrix chain: {exc}") from exc
    raise ConfigError(f"unknown chain kind {spec.chain!r}")


def resolve_config(spec: ExperimentSpec, state_space_size: int) -> UcpiConfig:
    """Apply the default budget split, then any explicit overrides."""
    if spec.n < 16:
        raise ConfigError("--n must be >= 16")
    if spec.nonlazy and spec.n < 32:
        raise ConfigError("--n must be >= 32 with --nonlazy")
    budget = spec.n // 2 if spec.nonlazy else spec.n  # two one-step calls per squared step
    names = ("num_paths", "max_path_length", "confidence")
    overrides = {name: getattr(spec, name) for name in names if getattr(spec, name) is not None}
    try:
        return dataclasses.replace(config_for_budget(budget, state_space_size), **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _exact_values(chain, nonlazy: bool):
    """(lambda_star, t_r, skip_reason): exact targets when the chain is reversible."""
    try:
        spectrum = exact_spectrum(chain)
    except ValueError as exc:
        return None, None, f"exact oracle unavailable: {exc}"
    lam_star = max(abs(spectrum[1]), abs(spectrum[-1])) if nonlazy else float(spectrum[1])
    t_r = relaxation_upper_bound(min(lam_star, 1.0)) if lam_star < 1.0 else math.inf
    return float(lam_star), float(t_r), None


def _load_mu_sampler(path, state_space_size):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            probs = [float(line.strip()) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read pmf file: {exc}") from exc
    if len(probs) != state_space_size:
        raise ConfigError(
            f"pmf file has {len(probs)} entries, chain has {state_space_size} states"
        )
    try:
        return TabularSampler(probs)
    except ValueError as exc:
        raise ConfigError(f"invalid pmf: {exc}") from exc


def _run_trial(spec, chain, cfg, sampler, trial_index) -> TrialResult:
    """Collect return counts under the spec's model, finalize them, report the trial."""
    master = _trial_master_seed(spec.seed, trial_index)
    usp_fields = {}
    if spec.model == "usp":
        if spec.usp_path is not None:
            source = states_from_file(spec.usp_path, max_steps=spec.n)
        else:
            source = trajectory_from_oracle(chain, start_state=0, master_seed=master, max_steps=spec.n)
        engine = UspEngine(source, cfg.max_path_length, sampler, master)
        try:
            acc = usp_collect(engine, num_segments=cfg.num_paths)
        except (OSError, ValueError) as exc:
            # The trace file is opened and parsed lazily, while segments are extracted.
            if spec.usp_path is None:
                raise
            raise ConfigError(f"cannot read trajectory file: {exc}") from exc
        oracle_calls = engine.stats.source_steps_consumed
        usp_fields = {"segments": acc.paths_completed, "mean_wait": engine.stats.mean_wait}
    else:
        oracle = SquaredChainOracle(chain) if spec.nonlazy else chain
        if spec.mu_file is not None:
            acc = weighted_collect(oracle, sampler, cfg, master, worker_count=spec.workers)
        else:
            acc = rtf_collect(RtfEngine(oracle, sampler, cfg, master, worker_count=spec.workers))
        oracle_calls = cfg.num_paths * cfg.max_path_length * (2 if spec.nonlazy else 1)
    if acc.paths_completed == 0:  # no segment completed: the uninformative answer
        raw_ell_star, argmin_k = 1.0, 0
    else:
        est = finalize_estimate(acc, dataclasses.replace(cfg, num_paths=acc.paths_completed))
        raw_ell_star, argmin_k = est.ell_star, est.argmin_k
    # The two-step chain bounds the squared spectral radius.
    ell_star = math.sqrt(raw_ell_star) if spec.nonlazy else raw_ell_star
    return TrialResult(
        trial=trial_index, seed=master, ell_star=ell_star,
        t_r_upper=relaxation_upper_bound(ell_star), argmin_k=argmin_k,
        informative=ell_star < 1.0,
        oracle_calls=oracle_calls,
        raw_ell_star=raw_ell_star if spec.nonlazy else None, **usp_fields,
    )


def run_experiment(spec: ExperimentSpec, with_timing: bool = True) -> ExperimentReport:
    """Run `spec.trials` independent seeded estimations and assemble the report."""
    if spec.model not in ("rtf", "usp"):
        raise ConfigError(f"unknown model {spec.model!r}")
    if spec.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if spec.workers < 1:
        raise ConfigError("--workers must be >= 1")
    if spec.model == "usp" and (spec.nonlazy or spec.mu_file):
        raise ConfigError("--nonlazy and --mu-file require the fresh-path model (rtf)")
    chain = build_chain(spec)
    n_states = chain.state_space_size()
    cfg = resolve_config(spec, n_states)
    if spec.mu_file is None:
        sampler = UniformSampler(n_states)
    else:
        sampler = _load_mu_sampler(spec.mu_file, n_states)
    lam_star, t_r, skip = _exact_values(chain, spec.nonlazy)

    started = time.perf_counter()
    trials = [_run_trial(spec, chain, cfg, sampler, i) for i in range(spec.trials)]
    elapsed = time.perf_counter() - started

    return ExperimentReport(
        spec=spec,
        config=cfg,
        guaranteed=validity_check(cfg),
        exact_lambda_star=lam_star,
        exact_relaxation=t_r,
        exact_skipped_reason=skip,
        trials=trials,
        wall_time_seconds=elapsed if with_timing else None,
    )


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------


def _json_safe(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            return "nan"
    return value


def report_to_dict(report: ExperimentReport) -> dict:
    spec = dataclasses.asdict(report.spec)
    trials = []
    for t in report.trials:
        row = {k: _json_safe(v) for k, v in dataclasses.asdict(t).items() if v is not None}
        trials.append(row)
    summary = {
        "trials": len(report.trials),
        "informative_frequency": report.informative_frequency,
        "coverage_frequency": report.coverage_frequency,
    }
    if report.wall_time_seconds is not None:
        summary["wall_time_seconds"] = report.wall_time_seconds
    return {
        "spec": spec,
        "parameters": {**dataclasses.asdict(report.config), "guaranteed": report.guaranteed},
        "exact": (
            None
            if report.exact_lambda_star is None
            else {
                "lambda_star": report.exact_lambda_star,
                "relaxation_time": _json_safe(report.exact_relaxation),
            }
        ),
        "exact_skipped_reason": report.exact_skipped_reason,
        "trials": trials,
        "summary": summary,
    }


def format_report(report: ExperimentReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for t in report.trials:
            writer.writerow(
                [t.trial, t.argmin_k, repr(t.ell_star), repr(t.t_r_upper),
                 t.informative, t.oracle_calls, t.seed]
            )
        return buf.getvalue()
    if fmt == "table":
        lines = []
        cfg = report.config
        lines.append(
            f"chain={report.spec.chain} model={report.spec.model} n={report.spec.n} "
            f"I={cfg.num_paths} K={cfg.max_path_length} delta={cfg.confidence:.6g} "
            f"guaranteed={report.guaranteed}"
        )
        if report.exact_lambda_star is not None:
            lines.append(
                f"exact lambda_star={report.exact_lambda_star:.6f} "
                f"t_r={report.exact_relaxation:.4g}"
            )
        elif report.exact_skipped_reason:
            lines.append(f"exact comparison skipped: {report.exact_skipped_reason}")
        lines.append(f"{'trial':>6} {'k*':>5} {'bound':>10} {'t_r bound':>12} {'informative':>12} {'calls':>12}")
        for t in report.trials:
            lines.append(
                f"{t.trial:>6} {t.argmin_k:>5} {t.ell_star:>10.6f} {t.t_r_upper:>12.4g} "
                f"{str(t.informative):>12} {t.oracle_calls:>12}"
            )
        summary = f"informative {report.informative_frequency:.3f}"
        if report.coverage_frequency is not None:
            summary += f" | coverage {report.coverage_frequency:.3f}"
        if report.wall_time_seconds is not None:
            summary += f" | wall {report.wall_time_seconds:.2f}s"
        lines.append(summary)
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# Benchmark grid
# ---------------------------------------------------------------------------


def reproduce_tables(max_n: int, trials: int, seed: int, graph_seed: int, workers: int) -> str:
    """Run the standard grid and render the three summary tables."""
    budgets = [n for n in TABLE_BUDGETS if n <= max_n]
    if not budgets:
        raise ConfigError("--max-n must be at least 10^4")
    instances = [("line", {"size": 20, "p": p}, f"line walk |S|=20 p={p}") for p in LINE_BIASES]
    instances += [
        ("regular", {"size": 100, "d": d, "graph_seed": graph_seed}, f"regular graph |S|=100 d={d}")
        for d in GRAPH_DEGREES
    ]

    blocks = []
    freq_rows = []
    for kind, params, label in instances:
        spec0 = ExperimentSpec(chain=kind, seed=seed, workers=workers, **params)
        reports = [run_experiment(dataclasses.replace(spec0, n=n), with_timing=False) for n in budgets]
        first = reports[0]
        lines = [
            f"=== {label}: exact lambda_star={first.exact_lambda_star:.6f}, "
            f"t_r={first.exact_relaxation:.4g} ==="
        ]
        lines.append(f"{'n':>10} {'est bound':>12} {'est t_r':>10}")
        for n, report in zip(budgets, reports):
            t = report.trials[0]
            lines.append(f"{n:>10} {t.ell_star:>12.6f} {t.t_r_upper:>10.4g}")
        blocks.append("\n".join(lines))

        freq_n = min(10**6, max_n)
        spec = dataclasses.replace(spec0, n=freq_n, trials=trials, seed=seed + 1)
        report = run_experiment(spec, with_timing=False)
        freq_rows.append((label, freq_n, report.informative_frequency))

    lines = [f"=== Informative-output frequency ({trials} trials) ==="]
    lines.append(f"{'instance':<30} {'n':>10} {'est P(bound<1)':>16}")
    for label, freq_n, freq in freq_rows:
        lines.append(f"{label:<30} {freq_n:>10} {freq:>16.3f}")
    blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# Coverage study
# ---------------------------------------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def coverage_study(spec: ExperimentSpec, with_timing: bool = True):
    """Violation frequency of the upper bound vs the exact second eigenvalue.

    Returns (report, violation_frequency, wilson_low, wilson_high, passed);
    the check passes when the Wilson interval's lower edge does not exceed
    the configured confidence level delta.
    """
    if spec.trials < 200:
        raise ConfigError("coverage studies need --trials >= 200")
    report = run_experiment(spec, with_timing=with_timing)
    if report.exact_lambda_star is None:
        raise ConfigError(
            f"coverage study needs an enumerable chain ({report.exact_skipped_reason})"
        )
    violations = sum(t.ell_star < report.exact_lambda_star for t in report.trials)
    low, high = wilson_interval(violations, len(report.trials))
    passed = low <= report.config.confidence
    return report, violations / len(report.trials), low, high, passed


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    # Every dest but "out" and "no_timing" names an ExperimentSpec field.
    parser.add_argument("--chain", choices=["line", "regular", "matrix"], default="line")
    parser.add_argument("--size", type=int, default=20, help="number of states (line/regular)")
    parser.add_argument("--p", type=float, default=0.5, help="line-walk bias")
    parser.add_argument("--d", type=int, default=5, help="regular-graph degree")
    parser.add_argument("--graph-seed", type=int, default=0)
    parser.add_argument("--matrix-file", type=str, default=None)
    parser.add_argument("--model", choices=["rtf", "usp"], default="rtf")
    parser.add_argument("--n", type=int, default=10**6, help="one-step simulation budget")
    parser.add_argument("--I", dest="num_paths", type=int, default=None, help="override path count")
    parser.add_argument("--K", dest="max_path_length", type=int, default=None, help="override path length")
    parser.add_argument("--delta", dest="confidence", type=float, default=None, help="override confidence level")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--nonlazy", action="store_true", help="estimate via the two-step chain")
    parser.add_argument("--mu-file", type=str, default=None, help="start pmf, one probability per line")
    parser.add_argument("--usp-path", type=str, default=None, help="trajectory file for the usp model")
    parser.add_argument("--format", dest="output_format", choices=["table", "csv", "json"], default="table")
    parser.add_argument("--out", type=str, default=None, help="write the report to this file")
    parser.add_argument("--no-timing", action="store_true", help="omit wall-clock fields")


def _spec_from_args(args) -> ExperimentSpec:
    return ExperimentSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentSpec)})


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="specgap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment")
    _add_common_arguments(run_parser)

    tables_parser = sub.add_parser("tables", help="run the benchmark grid")
    tables_parser.add_argument("--max-n", type=int, default=10**6,
                               help="largest budget in the grid (10^7/10^8 are opt-in)")
    tables_parser.add_argument("--trials", type=int, default=20,
                               help="trials for the informative-frequency table")
    tables_parser.add_argument("--seed", type=int, default=0)
    tables_parser.add_argument("--graph-seed", type=int, default=0)
    tables_parser.add_argument("--workers", type=int, default=1)
    tables_parser.add_argument("--out", type=str, default=None)

    cov_parser = sub.add_parser("coverage", help="empirical coverage check")
    _add_common_arguments(cov_parser)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            report = run_experiment(_spec_from_args(args), with_timing=not args.no_timing)
            _emit(format_report(report, args.output_format), args.out)
            return 0
        if args.command == "tables":
            text = reproduce_tables(
                max_n=args.max_n, trials=args.trials, seed=args.seed,
                graph_seed=args.graph_seed, workers=args.workers,
            )
            _emit(text, args.out)
            return 0
        if args.command == "coverage":
            report, freq, low, high, passed = coverage_study(
                _spec_from_args(args), with_timing=not args.no_timing
            )
            delta = report.config.confidence
            text = format_report(report, args.output_format)
            text += (
                f"violation frequency {freq:.4f}, wilson [{low:.4f}, {high:.4f}], "
                f"delta {delta:.4f}: {'PASS' if passed else 'FAIL'}\n"
            )
            _emit(text, args.out)
            return 0 if passed else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
