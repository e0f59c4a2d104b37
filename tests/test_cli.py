import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

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


def test_run_worker_counts_identical_reports(capsys):
    outs = []
    for workers in ("1", "4"):
        _, out, _ = run_cli(
            capsys,
            ["run", "--chain", "line", "--n", "30000", "--seed", "5", "--workers", workers,
             "--format", "json", "--no-timing"],
        )
        doc = json.loads(out)
        doc["spec"].pop("workers")
        outs.append(doc)
    assert outs[0] == outs[1]


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
    ],
)
def test_config_errors_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert "configuration error" in err
    if "--nonlazy" in argv:
        assert "--nonlazy" in err


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


# ---------------------------------------------------------------------------
# golden reports: one per fresh-path mode, pinned byte for byte
# ---------------------------------------------------------------------------

GOLDEN_ARGV = ["run", "--chain", "line", "--size", "20", "--p", "0.7", "--n", "500000",
               "--trials", "2", "--seed", "3", "--no-timing"]

# SHA-256 of the report, with the --mu-file path replaced by "mu.txt".
GOLDEN_REPORTS = {
    ("plain", "json"):
        "98cdd5211717b0e3b354587dad77e4cd4b55f820aff135365f96cde7cf5d836c",
    ("plain", "csv"):
        "84bb9779f31cd4816459a4b4e3b1fd7063d31c52ff76b849d68d8b7b6a35b9d3",
    ("nonlazy", "json"):
        "01c674c55ddf0e8e4d378b35e7b04b95be642cb6f680a8d6860acafb466cf9b1",
    ("nonlazy", "csv"):
        "e417291db6453fd2749491d12272160363551bef7f453a4bf8735a81accaa254",
    ("mu", "json"):
        "585184a8e91c0f2e5a46a4c4d120fb91410789d15984e696ffdb5c6a3862f115",
    ("mu", "csv"):
        "40b7ad7ccb46d72329f50c9b8b639b79f6500ae520d230d58fd357faaaaa764b",
    ("nonlazy-mu", "json"):
        "4bc80e261bb3e7ff2b143aade2c986b2cde211454dd60c6a63ffd446172d966d",
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
# "outside" reads a trace whose every state is 50, so no segment completes.
GOLDEN_USP_REPORTS = {
    ("oracle", "json"):
        "eab61c00e8e528f3a68c5b3de341d299177293dd141be1b2d807f3b76c36c046",
    ("oracle", "csv"):
        "a6c000755d17cb2cfc761cf624c6f8a2e8f062b247bd89945d320c8f008a045e",
    ("file", "json"):
        "931663e61a7eb8f4d970a95555aada9baf4165f2dacfeb418dda80396227d060",
    ("file", "csv"):
        "f415588988394041469d8225070de60291e423c637a8b2addd51a2664ecdd658",
    ("outside", "json"):
        "14f165282ef683593816b5d8d4713aab12b67bc2e39b54e20c0a6c098423f3d0",
    ("outside", "csv"):
        "238d1b0b62252e04adaa3be2c3e09a5d63dee34cfba9767e24e2abf9ceef219b",
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
    assert code == 0 and err == ""
    out = out.replace(str(trace), "trace.txt")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_USP_REPORTS[source, fmt]


def test_usp_trace_outside_the_chain_is_uninformative(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    write_usp_trace(trace, "outside")
    code, out, _ = run_cli(capsys, USP_ARGV + ["--usp-path", str(trace), "--format", "json"])
    assert code == 0
    for trial in json.loads(out)["trials"]:
        assert trial["ell_star"] == 1.0 and trial["t_r_upper"] == "inf"
        assert trial["segments"] == 0 and trial["argmin_k"] == 0
        assert trial["informative"] is False
        assert trial["oracle_calls"] == 5_000
