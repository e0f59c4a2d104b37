import csv
import dataclasses
import hashlib
import io
import json
import math
import multiprocessing

import numpy as np
import pytest

from specgap import cli, sampling
from specgap.chains import DenseMatrixChain, save_matrix_chain
from specgap.cli import (
    CSV_COLUMNS,
    ExperimentSpec,
    coverage_study,
    format_report,
    main,
    run_experiment,
    wilson_interval,
)
from specgap.estimator import UcpiConfig, validity_check

TWO_STATE = [[0.75, 0.25], [0.25, 0.75]]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------


def test_run_table_output(capsys):
    code, out, err = run_cli(
        capsys, ["run", "--chain", "line", "--p", "0.9", "--n", "50000", "--seed", "1"]
    )
    assert code == 0 and err == ""
    assert "exact lambda_star=0.796307" in out
    assert "informative" in out


def test_run_csv_columns_and_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "--chain", "line", "--n", "20000", "--trials", "3", "--seed", "2", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert len(rows) == 3
    for row in rows:
        float(row["ell_star"])  # parses losslessly
        assert row["informative"] in ("True", "False")
        assert int(row["oracle_calls"]) <= 20000


def test_run_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "--chain", "line", "--p", "0.7", "--n", "20000", "--format", "json", "--no-timing"],
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"spec", "parameters", "exact", "exact_skipped_reason", "trials", "summary"}
    assert doc["parameters"]["num_paths"] * doc["parameters"]["max_path_length"] <= 20000
    # budget ledger: fresh-path trials make exactly I*K one-step calls
    expected_calls = doc["parameters"]["num_paths"] * doc["parameters"]["max_path_length"]
    assert doc["trials"][0]["oracle_calls"] == expected_calls
    assert doc["exact"]["lambda_star"] == pytest.approx(0.9526156583802544)
    trial = doc["trials"][0]
    for key in ("trial", "seed", "ell_star", "t_r_upper", "argmin_k", "informative", "oracle_calls"):
        assert key in trial
    assert "wall_time_seconds" not in doc["summary"]


def test_run_byte_reproducible_without_timing(capsys):
    argv = ["run", "--chain", "line", "--n", "30000", "--seed", "5", "--format", "json", "--no-timing"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_run_writes_output_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["run", "--chain", "line", "--n", "20000", "--format", "json", "--out", str(out_file)],
    )
    assert code == 0
    assert out == ""
    json.loads(out_file.read_text())


def test_run_matrix_file(tmp_path, capsys):
    path = tmp_path / "two_state.txt"
    save_matrix_chain(DenseMatrixChain(TWO_STATE), path)
    code, out, _ = run_cli(
        capsys,
        ["run", "--chain", "matrix", "--matrix-file", str(path), "--n", "20000",
         "--format", "json", "--no-timing"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"]["lambda_star"] == pytest.approx(0.5, abs=1e-10)
    assert doc["trials"][0]["ell_star"] >= 0.5


def test_run_non_reversible_matrix_skips_exact(tmp_path, capsys):
    cycle = DenseMatrixChain([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    path = tmp_path / "cycle.txt"
    save_matrix_chain(cycle, path)
    code, out, _ = run_cli(
        capsys,
        ["run", "--chain", "matrix", "--matrix-file", str(path), "--n", "20000",
         "--format", "json", "--no-timing"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is None
    assert "reversible" in doc["exact_skipped_reason"]
    code, out, _ = run_cli(
        capsys,
        ["run", "--chain", "matrix", "--matrix-file", str(path), "--n", "20000",
         "--format", "table", "--no-timing"],
    )
    assert code == 0
    assert f"exact comparison skipped: {doc['exact_skipped_reason']}" in out.splitlines()


FLIP = [[0.0, 1.0], [1.0, 0.0]]
WALK3 = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
NEGATIVE_LAMBDA2 = pytest.mark.parametrize(
    "matrix, lambda2, nonlazy_lambda_star", [(FLIP, -1.0, 1.0), (WALK3, -0.5, 0.5)], ids=["flip", "walk3"]
)


@NEGATIVE_LAMBDA2
def test_run_negative_second_eigenvalue_skips_exact_without_nonlazy(
    tmp_path, capsys, matrix, lambda2, nonlazy_lambda_star
):
    # relaxation_upper_bound used to raise on the negative eigenvalue: exit 1 and a traceback.
    path = tmp_path / "chain.txt"
    save_matrix_chain(DenseMatrixChain(matrix), path)
    argv = ["run", "--chain", "matrix", "--matrix-file", str(path), "--n", "20000", "--no-timing"]
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is None
    reason = doc["exact_skipped_reason"]
    assert reason.startswith("second eigenvalue ") and reason.endswith("use --nonlazy")
    assert float(reason.split()[2]) == pytest.approx(lambda2, abs=1e-12)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert f"exact comparison skipped: {reason}" in out.splitlines()
    code, out, _ = run_cli(capsys, argv + ["--format", "json", "--nonlazy"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_skipped_reason"] is None
    assert doc["exact"]["lambda_star"] == pytest.approx(nonlazy_lambda_star, abs=1e-10)


@NEGATIVE_LAMBDA2
def test_coverage_negative_second_eigenvalue_needs_nonlazy(
    tmp_path, capsys, matrix, lambda2, nonlazy_lambda_star
):
    path = tmp_path / "chain.txt"
    save_matrix_chain(DenseMatrixChain(matrix), path)
    argv = ["coverage", "--chain", "matrix", "--matrix-file", str(path), "--n", "2000",
            "--trials", "200", "--seed", "3", "--no-timing"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: coverage study needs the chain's exact eigenvalue: second eigenvalue -")
    code, out, _ = run_cli(capsys, argv + ["--nonlazy"])
    assert code == 0
    assert "PASS" in out


CYCLE = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]  # not reversible


@pytest.mark.parametrize(
    "matrix, reason",
    [(FLIP, "second eigenvalue -1.0 is negative"), (CYCLE, "exact oracle unavailable: chain is not reversible")],
    ids=["flip", "cycle"],
)
def test_coverage_refuses_a_chain_without_an_exact_value_before_any_trial(
    tmp_path, capsys, monkeypatch, matrix, reason
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a trial ran before the exact value was checked")

    monkeypatch.setattr(cli, "_run_trial", must_not_run)
    path = tmp_path / "chain.txt"
    save_matrix_chain(DenseMatrixChain(matrix), path)
    spec = ExperimentSpec(chain="matrix", matrix_file=str(path), n=100_000, trials=200)
    with pytest.raises(cli.ConfigError, match=f"^coverage study needs the chain's exact eigenvalue: {reason}"):
        coverage_study(spec)
    argv = ["coverage", "--chain", "matrix", "--matrix-file", str(path), "--n", "100000", "--trials", "200"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"configuration error: coverage study needs the chain's exact eigenvalue: {reason}")


def test_zero_second_eigenvalue_is_not_skipped_for_its_round_off():
    # The eigensolver returns the zero eigenvalue of a rank-one chain as about
    # +-1e-17; a negative round-off used to crash relaxation_upper_bound.
    for p in np.linspace(0.1, 0.9, 9):
        lam_star, t_r, skip = cli._exact_values(DenseMatrixChain([[p, 1 - p], [p, 1 - p]]), nonlazy=False)
        assert skip is None
        assert 0.0 <= lam_star <= 1e-12
        assert t_r == pytest.approx(1.0)


TOO_LARGE = "exact oracle unavailable: exact oracles support at most 2000 states, got 100000"


def test_run_on_a_chain_too_large_for_the_exact_oracle_skips_the_comparison(capsys):
    # Its 100000 x 100000 matrix (74.5 GiB) is never requested.
    argv = ["run", "--chain", "line", "--size", "100000", "--n", "20000", "--no-timing"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    assert f"exact comparison skipped: {TOO_LARGE}" in out.splitlines()


def test_coverage_refuses_a_chain_too_large_for_the_exact_oracle(capsys):
    argv = ["coverage", "--chain", "line", "--size", "100000", "--n", "20000", "--trials", "200", "--no-timing"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"configuration error: coverage study needs the chain's exact eigenvalue: {TOO_LARGE}")


def test_run_usp_model(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "--chain", "line", "--size", "10", "--model", "usp", "--n", "200000",
         "--format", "json", "--no-timing"],
    )
    assert code == 0
    doc = json.loads(out)
    trial = doc["trials"][0]
    assert trial["oracle_calls"] <= 200000
    assert trial["segments"] >= 1
    assert "mean_wait" in trial


def test_run_usp_from_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "walk.txt"
    path.write_text("\n".join(str(int(x)) for x in rng.integers(0, 4, size=30_000)))
    code, out, _ = run_cli(
        capsys,
        ["run", "--chain", "line", "--size", "4", "--model", "usp", "--usp-path", str(path),
         "--n", "30000", "--format", "json", "--no-timing"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"][0]["oracle_calls"] <= 30000


def test_run_nonlazy_reports_both_bounds(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "--chain", "line", "--p", "0.9", "--n", "40000", "--nonlazy",
         "--format", "json", "--no-timing"],
    )
    assert code == 0
    doc = json.loads(out)
    trial = doc["trials"][0]
    assert trial["ell_star"] == pytest.approx(math.sqrt(trial["raw_ell_star"]), rel=1e-12)
    assert trial["oracle_calls"] <= 40000


def test_run_mu_file(tmp_path, capsys):
    mu = tmp_path / "mu.txt"
    weights = np.full(20, 0.05)
    mu.write_text("\n".join(repr(float(w)) for w in weights))
    code, out, _ = run_cli(
        capsys,
        ["run", "--chain", "line", "--n", "30000", "--mu-file", str(mu),
         "--format", "json", "--no-timing"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"][0]["ell_star"] <= 1.0


# ---------------------------------------------------------------------------
# configuration errors exit with code 2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--chain", "line", "--p", "1.5", "--n", "20000"],
        ["run", "--chain", "line", "--n", "5"],
        ["run", "--chain", "matrix", "--n", "20000"],  # missing --matrix-file
        ["run", "--chain", "regular", "--size", "5", "--d", "3", "--n", "20000"],
        ["run", "--chain", "line", "--model", "usp", "--nonlazy", "--n", "20000"],
        ["run", "--chain", "line", "--n", "20000", "--trials", "0"],
        ["coverage", "--chain", "line", "--n", "20000", "--trials", "10"],
        ["run", "--chain", "line", "--nonlazy", "--n", "20"],  # 10 two-step transitions
        ["run", "--chain", "line", "--size", "1", "--n", "20000"],
        ["run", "--chain", "line", "--n", "20000", "--I", "0"],  # overrides fail in resolve_config
        ["run", "--chain", "line", "--n", "20000", "--delta", "1.5"],
        ["run", "--chain", "line", "--n", "20000", "--seed", "-1"],
        ["coverage", "--chain", "line", "--n", "20000", "--trials", "200", "--seed", "-1"],
        ["tables", "--max-n", "10000", "--trials", "1", "--seed", "-1"],
    ],
)
def test_config_errors_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert "configuration error" in err
    if "--nonlazy" in argv:
        assert "--nonlazy" in err
    if "--seed" in argv:
        assert "--seed must be >= 0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--chain", "line", "--n", "20000", "--usp-path", "/nonexistent.txt"],
         "--usp-path requires the single-trajectory model (usp)"),
        (["coverage", "--chain", "line", "--n", "20000", "--trials", "200", "--usp-path", "t.txt"],
         "--usp-path requires the single-trajectory model (usp)"),
        (["run", "--chain", "line", "--n", "20000", "--matrix-file", "/nonexistent.txt"],
         "--matrix-file requires --chain matrix"),
        (["run", "--chain", "regular", "--n", "20000", "--model", "usp", "--matrix-file", "m.txt"],
         "--matrix-file requires --chain matrix"),
    ],
)
def test_option_of_another_model_or_chain_exits_two(capsys, argv, message):
    # Each option used to be ignored: the run estimated from simulated fresh
    # paths, or from the named chain, and exited 0.
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"configuration error: {message}\n"


@pytest.mark.parametrize(
    "option, message",
    [
        (["--p", "1.5"], "cannot build line chain: bias must lie strictly between 0 and 1"),
        (["--size", "1"], "cannot build line chain: size must be >= 2"),
    ],
)
def test_line_chain_errors_quote_the_chain(capsys, option, message):
    # BiasedLineChain words its own checks; the CLI restates none of them.
    code, out, err = run_cli(capsys, ["run", "--chain", "line", *option, "--n", "20000"])
    assert code == 2 and out == ""
    assert err == f"configuration error: {message}\n"


@pytest.mark.parametrize("content", [None, "0\n1\nx\n2\n"])
def test_bad_usp_path_exits_two(tmp_path, capsys, content):
    # A missing file, and a malformed one (line 3 is not a state).
    path = tmp_path / "trace.txt"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(
        capsys,
        ["run", "--chain", "line", "--size", "4", "--model", "usp", "--usp-path", str(path),
         "--n", "1000"],
    )
    assert code == 2 and out == ""
    assert err.startswith("configuration error: cannot read trajectory file")
    if content is not None:
        assert "line 3" in err


@pytest.mark.parametrize("content", [None, "0\n1\nx\n2\n"])
def test_bad_usp_path_exits_two_through_the_forked_reader(tmp_path, capsys, monkeypatch, content):
    monkeypatch.setattr(sampling, "FORK_READ_STATES", 0)
    test_bad_usp_path_exits_two(tmp_path, capsys, content)
    assert multiprocessing.active_children() == []


def test_mu_file_wrong_length_exits_two(tmp_path, capsys):
    mu = tmp_path / "mu.txt"
    mu.write_text("0.5\n0.5\n")
    code, _, err = run_cli(
        capsys, ["run", "--chain", "line", "--n", "20000", "--mu-file", str(mu)]
    )
    assert code == 2
    assert "pmf" in err


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_non_finite_matrix_file_exits_two(tmp_path, capsys, entry):
    path = tmp_path / "chain.txt"
    path.write_text(f"3\n{entry} 0.5 0.5\n0.25 0.5 0.25\n0.25 0.25 0.5\n")
    code, out, err = run_cli(
        capsys, ["run", "--chain", "matrix", "--matrix-file", str(path), "--n", "100000"]
    )
    assert code == 2 and out == ""
    assert err.startswith("configuration error: cannot load matrix chain")
    assert "finite" in err


def test_matrix_file_with_extra_rows_exits_two(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text("2\n0.5 0.5\n0.5 0.5\n\n1 0\n")
    code, out, err = run_cli(
        capsys, ["run", "--chain", "matrix", "--matrix-file", str(path), "--n", "20000"]
    )
    assert code == 2 and out == ""
    assert err.startswith("configuration error: cannot load matrix chain")
    assert "line 5" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--chain", "line", "--n", "1000", "--no-timing"],
        ["tables", "--max-n", "10000", "--trials", "1"],
        ["coverage", "--chain", "line", "--n", "1000", "--trials", "200"],
    ],
)
def test_unwritable_out_exits_two(tmp_path, capsys, monkeypatch, argv):
    # The path is checked before any trial runs, not after the whole grid.
    def must_not_run(*args, **kwargs):
        raise AssertionError("a trial ran before the report path was checked")

    monkeypatch.setattr(cli, "run_experiment", must_not_run)
    monkeypatch.setattr(cli, "reproduce_tables", must_not_run)
    monkeypatch.setattr(cli, "_run_trial", must_not_run)  # coverage runs its trials without run_experiment
    code, out, err = run_cli(capsys, [*argv, "--out", str(tmp_path / "missing" / "report.txt")])
    assert code == 2 and out == ""
    assert err.startswith("configuration error: cannot write report")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--chain", "line", "--p", "1.5", "--n", "20000"],
        ["tables", "--max-n", "1000"],
    ],
)
def test_config_error_leaves_no_report_file(tmp_path, capsys, argv):
    # Checking a new --out path creates it; with no report it is removed again.
    new = tmp_path / "new.txt"
    code, out, err = run_cli(capsys, [*argv, "--out", str(new)])
    assert code == 2 and out == ""
    assert err.startswith("configuration error: ")
    assert not new.exists()
    old = tmp_path / "old.txt"
    old.write_bytes(b"an earlier report\r\n")
    code, out, err = run_cli(capsys, [*argv, "--out", str(old)])
    assert code == 2
    assert old.read_bytes() == b"an earlier report\r\n"


def test_failed_coverage_check_writes_its_report(tmp_path, capsys, monkeypatch):
    study = cli.coverage_study

    def failing(spec, with_timing=True):
        return (*study(spec, with_timing)[:4], False)

    monkeypatch.setattr(cli, "coverage_study", failing)
    new = tmp_path / "new.txt"
    argv = ["coverage", "--chain", "line", "--size", "4", "--n", "1000", "--trials", "200", "--no-timing"]
    code, out, err = run_cli(capsys, [*argv, "--out", str(new)])
    assert code == 1 and out == "" and err == ""
    assert new.read_text().endswith(": FAIL\n")


def test_non_finite_mu_file_exits_two(tmp_path, capsys):
    mu = tmp_path / "mu.txt"
    mu.write_text("nan\n-0.5\n1.5\n")
    code, out, err = run_cli(
        capsys, ["run", "--chain", "line", "--size", "3", "--n", "20000", "--mu-file", str(mu)]
    )
    assert code == 2 and out == ""
    assert err.startswith("configuration error: invalid pmf")


# ---------------------------------------------------------------------------
# coverage subcommand
# ---------------------------------------------------------------------------


def test_wilson_interval_basic():
    low, high = wilson_interval(0, 500)
    assert low == pytest.approx(0.0, abs=1e-12) and 0.0 < high < 0.02
    low, high = wilson_interval(250, 500)
    assert low < 0.5 < high


def test_coverage_study_two_state(tmp_path, capsys):
    path = tmp_path / "two_state.txt"
    save_matrix_chain(DenseMatrixChain(TWO_STATE), path)
    code, out, _ = run_cli(
        capsys,
        ["coverage", "--chain", "matrix", "--matrix-file", str(path), "--n", "2000",
         "--trials", "200", "--seed", "3", "--no-timing"],
    )
    assert code == 0
    assert "PASS" in out


def test_coverage_study_api():
    spec = ExperimentSpec(chain="line", size=4, p=0.5, n=2000, trials=200, seed=1)
    report, freq, low, high, passed = coverage_study(spec, with_timing=False)
    assert passed
    assert 0.0 <= low <= freq <= high <= 1.0


def test_coverage_study_vacuous_delta_passes():
    # delta = 0.5 tolerates any plausible violation frequency
    spec = ExperimentSpec(chain="line", size=4, p=0.5, n=2000, trials=200, seed=2, confidence=0.5)
    _, _, low, _, passed = coverage_study(spec, with_timing=False)
    assert passed
    assert low <= 0.5


# ---------------------------------------------------------------------------
# tables subcommand
# ---------------------------------------------------------------------------


def test_tables_smoke(capsys):
    code, out, _ = run_cli(
        capsys, ["tables", "--max-n", "10000", "--trials", "2", "--seed", "0"]
    )
    assert code == 0
    assert out.count("===") >= 6  # five instance blocks plus the frequency table
    assert "baseline" not in out
    assert "line walk |S|=20 p=0.5" in out
    assert "regular graph |S|=100 d=10" in out
    assert "exact lambda_star=0.993844" in out


def test_tables_rejects_tiny_max_n(capsys):
    code, _, err = run_cli(capsys, ["tables", "--max-n", "100"])
    assert code == 2
    assert "max-n" in err


# ---------------------------------------------------------------------------
# report formatting details
# ---------------------------------------------------------------------------


def test_format_report_rejects_unknown_format():
    spec = ExperimentSpec(chain="line", n=20000)
    report = run_experiment(spec, with_timing=False)
    with pytest.raises(ValueError):
        format_report(report, "yaml")


def test_infinite_relaxation_serializes(capsys):
    # uninformative regime: t_r bound is infinite and must survive JSON
    code, out, _ = run_cli(
        capsys,
        ["run", "--chain", "line", "--n", "10000", "--seed", "0", "--format", "json", "--no-timing"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"][0]["ell_star"] == 1.0
    assert doc["trials"][0]["t_r_upper"] == "inf"


def test_usp_run_without_a_segment_is_uninformative(capsys):
    # At seed 0 the trajectory's 16 states complete no segment of K = 8.
    argv = ["run", "--chain", "line", "--model", "usp", "--n", "16", "--no-timing"]
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0 and err == ""
    trial = json.loads(out)["trials"][0]
    assert (trial["segments"], trial["ell_star"], trial["argmin_k"]) == (0, 1.0, 0)
    assert (trial["t_r_upper"], trial["mean_wait"]) == ("inf", "nan")
    code, out, err = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0 and err == ""
    assert out.splitlines()[1] == f"0,0,1.0,inf,False,16,{cli._trial_master_seed(0, 0)}"


# ---------------------------------------------------------------------------
# golden reports: one per fresh-path mode, pinned byte for byte
# ---------------------------------------------------------------------------

GOLDEN_ARGV = ["run", "--chain", "line", "--size", "20", "--p", "0.7", "--n", "500000",
               "--trials", "2", "--seed", "3", "--no-timing"]

# SHA-256 of the report, with the --mu-file path replaced by "mu.txt".
GOLDEN_REPORTS = {
    ("plain", "json"):
        "16262778eaf0860161d7ede69f544c1ffd47c01bafa8fe3dfa70896bec850d64",
    ("plain", "csv"):
        "84bb9779f31cd4816459a4b4e3b1fd7063d31c52ff76b849d68d8b7b6a35b9d3",
    ("nonlazy", "json"):
        "032dea4f0fd05e06dcd80917d73d6d5bf885e6896afbf7fbd313cc33de53eaea",
    ("nonlazy", "csv"):
        "e417291db6453fd2749491d12272160363551bef7f453a4bf8735a81accaa254",
    ("mu", "json"):
        "662dfb322080f7fe91cda4e10633ae5f9db3bb00ed3b7a377b7045a38bbc54b5",
    ("mu", "csv"):
        "40b7ad7ccb46d72329f50c9b8b639b79f6500ae520d230d58fd357faaaaa764b",
    ("nonlazy-mu", "json"):
        "a8083af1372ffb12663b6d5b43397b7eca18f550d9d8658fcd1303ac970b4c27",
    ("nonlazy-mu", "csv"):
        "c0d724e1a5d000441b12db26f7d3bd3aa95f3c12802dd7bdfcc77912e194c29f",
}


@pytest.mark.parametrize("mode, fmt", sorted(GOLDEN_REPORTS))
def test_run_golden_report(tmp_path, capsys, mode, fmt):
    mu = tmp_path / "mu.txt"
    mu.write_text("\n".join(["0.025", "0.075"] * 10) + "\n")
    flags = {
        "plain": [],
        "nonlazy": ["--nonlazy"],
        "mu": ["--mu-file", str(mu)],
        "nonlazy-mu": ["--nonlazy", "--mu-file", str(mu)],
    }[mode]
    code, out, err = run_cli(capsys, GOLDEN_ARGV + flags + ["--format", fmt])
    assert code == 0 and err == ""
    out = out.replace(str(mu), "mu.txt")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORTS[mode, fmt]


# ---------------------------------------------------------------------------
# golden reports: the single-trajectory model, pinned byte for byte
# ---------------------------------------------------------------------------

USP_ARGV = ["run", "--chain", "line", "--size", "8", "--p", "0.7", "--model", "usp",
            "--n", "100000", "--trials", "2", "--seed", "3", "--no-timing"]

# SHA-256 of the report, with the --usp-path path replaced by "trace.txt".
# "oracle" simulates the trajectory; "file" reads a seeded trace of 8 states;
# "outside" reads a trace whose every state is 50, outside the 8 states: no
# report, exit 2 (None).  The "oracle" trials complete 128 and 113 of 751
# segments, fewer than the 182 the coverage hypothesis needs, so its JSON
# report says "guaranteed": false.
GOLDEN_USP_REPORTS = {
    ("oracle", "json"):
        "a2432f9405e5043fe9b7c8586c1a7b904d297d00d6d37e589394770c53789d7f",
    ("oracle", "csv"):
        "a6c000755d17cb2cfc761cf624c6f8a2e8f062b247bd89945d320c8f008a045e",
    ("file", "json"):
        "7033c05de67aa460e693979e877319922168a0c8ab58de12be135fe9e545e042",
    ("file", "csv"):
        "f415588988394041469d8225070de60291e423c637a8b2addd51a2664ecdd658",
    ("outside", "json"): None,
    ("outside", "csv"): None,
}


def write_usp_trace(path, source):
    if source == "file":
        states = np.random.default_rng(11).integers(0, 8, size=60_000)
    else:
        states = np.full(5_000, 50)
    path.write_text("".join(f"{int(x)}\n" for x in states))


@pytest.mark.parametrize("source, fmt", sorted(GOLDEN_USP_REPORTS))
def test_run_golden_usp_report(tmp_path, capsys, source, fmt):
    flags = []
    trace = tmp_path / "trace.txt"
    if source != "oracle":
        write_usp_trace(trace, source)
        flags = ["--usp-path", str(trace)]
    code, out, err = run_cli(capsys, USP_ARGV + flags + ["--format", fmt])
    if GOLDEN_USP_REPORTS[source, fmt] is None:
        assert code == 2 and out == ""
        return
    assert code == 0 and err == ""
    out = out.replace(str(trace), "trace.txt")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_USP_REPORTS[source, fmt]


def test_usp_guaranteed_is_judged_at_the_segments_completed(capsys):
    # The default split plans 353 segments of K = 113 at delta = 0.005, and
    # the coverage hypothesis needs 344 on 16 states; the 40000-state
    # trajectory completes 139, so the report must not claim it.
    argv = ["run", "--chain", "line", "--size", "16", "--p", "0.5", "--model", "usp",
            "--n", "40000", "--format", "json", "--no-timing"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    report = json.loads(out)
    cfg = UcpiConfig(**{k: v for k, v in report["parameters"].items() if k != "guaranteed"})
    assert cfg == UcpiConfig(16, 353, 113, 0.005)
    assert validity_check(cfg) and not validity_check(dataclasses.replace(cfg, num_paths=343))
    assert [t["segments"] for t in report["trials"]] == [139]
    assert report["parameters"]["guaranteed"] is False


def test_usp_trace_outside_the_chain_exits_two(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    write_usp_trace(trace, "outside")
    code, out, err = run_cli(capsys, USP_ARGV + ["--usp-path", str(trace), "--format", "json"])
    assert code == 2 and out == ""
    assert err.startswith("configuration error: ")
    assert "source state 50 at index 0 outside [0, 8)" in err


def test_usp_trace_state_outside_the_chain_is_reported_as_a_bad_state(tmp_path, capsys):
    # The file reads fine; one of its states is not a state of the chain.
    trace = tmp_path / "trace.txt"
    write_usp_trace(trace, "outside")
    code, out, err = run_cli(capsys, USP_ARGV + ["--usp-path", str(trace)])
    assert code == 2 and out == ""
    assert err == (
        f"configuration error: bad state in trajectory file {trace}: "
        "source state 50 at index 0 outside [0, 8)\n"
    )
