import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diffgabor import cli, diffsets, experiments, gabor, solvers


def _run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def _run_json(capsys, *argv):
    rc, out = _run(capsys, *argv)
    return rc, json.loads(out)


def test_version_flag(capsys):
    rc, _ = _run(capsys, "--version")
    assert rc == 0


def test_unknown_subcommand(capsys):
    assert cli.main(["frobnicate"]) == 2
    assert cli.main([]) == 2


def test_diffset_verify(capsys):
    rc, doc = _run_json(capsys, "diffset", "verify", "7", "1,2,4")
    assert rc == 0
    assert doc["version"]
    assert doc["config"]["N"] == 7
    rep = doc["report"]
    assert rep["is_difference_set"] is True
    assert rep["inferred_lambda"] == 1
    assert rep["difference_counts"]["6"] == 1


def test_diffset_verify_bad_residue(capsys):
    rc, out = _run(capsys, "diffset", "verify", "7", "1,2,9")
    assert rc == 3 and out == ""


def test_diffset_search(capsys):
    rc, doc = _run_json(capsys, "diffset", "search", "13", "4")
    assert rc == 0
    assert doc["report"]["status"] == "found"
    assert doc["report"]["set"]["elements"] == [0, 1, 3, 9]
    assert doc["report"]["nodes"] == 9


def test_diffset_catalog(capsys):
    rc, doc = _run_json(capsys, "diffset", "catalog")
    assert rc == 0
    assert len(doc["report"]["entries"]) >= 13

    rc, doc = _run_json(capsys, "diffset", "catalog", "--set", "6,3")
    assert rc == 0
    assert doc["report"] == {"found": False, "set": None}


def test_gabor_coherence(capsys):
    rc, doc = _run_json(capsys, "gabor", "coherence", "--set", "7,3")
    assert rc == 0
    rep = doc["report"]
    assert rep["mutual_coherence"] == pytest.approx(np.sqrt(4 / 18), abs=1e-10)
    assert rep["predicted"] == pytest.approx(np.sqrt(4 / 18), abs=1e-10)
    assert rep["tightness_error"] < 1e-9


def test_gabor_coherence_largest_catalog_set(capsys):
    # (101,25,6) has 10201 columns: measured block by block, no dense Gram
    rc, doc = _run_json(capsys, "gabor", "coherence", "--set", "101,25")
    assert rc == 0
    rep = doc["report"]
    assert rep["mutual_coherence"] == pytest.approx(0.24, abs=1e-10)
    assert rep["predicted"] == pytest.approx(0.24, abs=1e-10)
    assert rep["offdiag_block_max"] == pytest.approx(6 / 25, abs=1e-10)
    assert rep["argmax_pair"] == [0, 101]


def test_gabor_coherence_missing_set(capsys):
    rc, out = _run(capsys, "gabor", "coherence", "--set", "6,3")
    assert rc == 3 and out == ""


@pytest.mark.parametrize("n", ["0", "-1"])
def test_gabor_coherence_random_bad_dimension(capsys, n):
    rc = cli.main(["gabor", "coherence", "--random", n])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert f"N={n}" in captured.err


def test_gabor_table(capsys):
    rc, doc = _run_json(capsys, "gabor", "table", "--quadratic", "11",
                        "--quartic", "", "--singer", "2:2")
    assert rc == 0
    rows = doc["report"]["rows"]
    assert len(rows) == 2
    families = {r["family"] for r in rows}
    assert families == {"singer d=2", "quadratic"}


def test_gabor_table_default_measures_up_to_64(capsys):
    rc, doc = _run_json(capsys, "gabor", "table")
    assert rc == 0
    for row in doc["report"]["rows"]:
        if row["N"] <= 64:
            assert row["measured_mu_squared"] == pytest.approx(row["predicted_mu_squared"],
                                                               abs=1e-10)
        else:
            assert row["measured_mu_squared"] is None


def test_fusion_report(capsys):
    rc, doc = _run_json(capsys, "fusion", "report", "--set", "7,3")
    assert rc == 0
    rep = doc["report"]
    assert rep["tight_bound"] == 3.0
    assert rep["dc_squared"] == 2.0
    assert rep["equidistant"] is True and rep["optimal_packing"] is True
    assert rep["sparsity"] == 21


def test_fusion_distances(capsys, tmp_path):
    out_path = tmp_path / "d.csv"
    rc, _ = _run(capsys, "fusion", "distances", "--set", "7,3", "--out", str(out_path))
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "a,b,dc_squared"
    assert len(lines) == 1 + 7 * 6 // 2
    assert all(ln.endswith(",2") for ln in lines[1:])


def _write_instance(tmp_path):
    ds = diffsets.catalog_lookup(7, 3)
    frame = gabor.build_gabor_frame(gabor.difference_set_generator(ds))
    x = np.zeros(49, dtype=complex)
    x[[4, 22]] = [1.0 + 0.5j, -0.75]
    A_path, y_path = tmp_path / "A.csv", tmp_path / "y.csv"
    solvers.write_complex_matrix_csv(A_path, frame.columns)
    solvers.write_complex_matrix_csv(y_path, frame.columns @ x)
    return A_path, y_path, x


def test_solve_bp_roundtrip(capsys, tmp_path):
    A_path, y_path, x = _write_instance(tmp_path)
    x_path = tmp_path / "x.csv"
    rc, doc = _run_json(capsys, "solve", "bp", "--matrix", str(A_path),
                        "--y", str(y_path), "--out", str(x_path))
    assert rc == 0
    assert doc["report"]["status"] == "converged"
    assert doc["report"]["feasibility_gap"] < 1e-9
    x_hat = solvers.read_complex_matrix_csv(x_path).reshape(-1)
    assert np.linalg.norm(x_hat - x) / np.linalg.norm(x) < 1e-6


def test_solve_bp_inline_solution(capsys, tmp_path):
    A_path, y_path, x = _write_instance(tmp_path)
    rc, doc = _run_json(capsys, "solve", "bp", "--matrix", str(A_path), "--y", str(y_path))
    assert rc == 0
    sol = np.array([re + 1j * im for re, im in doc["report"]["solution"]])
    assert np.linalg.norm(sol - x) / np.linalg.norm(x) < 1e-6


def test_solve_bp_iteration_cap_exit_code(capsys, tmp_path):
    A_path, y_path, _ = _write_instance(tmp_path)
    rc, doc = _run_json(capsys, "solve", "bp", "--matrix", str(A_path),
                        "--y", str(y_path), "--max-iters", "2")
    assert rc == 4
    assert doc["report"]["status"] == "max_iters_reached"
    assert doc["report"]["iterations"] == 2


def test_solve_bp_reports_certified_stop(capsys, tmp_path):
    A_path, y_path, _ = _write_instance(tmp_path)
    rc, doc = _run_json(capsys, "solve", "bp", "--matrix", str(A_path), "--y", str(y_path))
    assert rc == 0
    assert doc["report"]["certified"] is True
    assert doc["report"]["status"] == "converged"
    rc, doc = _run_json(capsys, "solve", "bp", "--matrix", str(A_path),
                        "--y", str(y_path), "--max-iters", "2")
    assert rc == 4 and doc["report"]["certified"] is False


def test_solve_bp_missing_file(capsys, tmp_path):
    rc, out = _run(capsys, "solve", "bp", "--matrix", str(tmp_path / "nope.csv"),
                   "--y", str(tmp_path / "nope2.csv"))
    assert rc == 3 and out == ""


def test_solve_bp_rejects_non_finite_input(capsys, tmp_path):
    A_path, y_path, _ = _write_instance(tmp_path)
    rc = cli.main(["solve", "bp", "--matrix", str(A_path), "--y", str(y_path),
                   "--rho", "nan"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and "rho" in captured.err

    lines = A_path.read_text().splitlines()
    lines[5] = "nan,0"
    A_path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["solve", "bp", "--matrix", str(A_path), "--y", str(y_path)])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and str(A_path) in captured.err


def _write_scalar_instance(tmp_path, a, y):
    A_path, y_path = tmp_path / "A.csv", tmp_path / "y.csv"
    A_path.write_text(f"1,2\n{a},0\n{a},0\n")
    y_path.write_text(f"1,1\n{y},0\n")
    return ["--matrix", str(A_path), "--y", str(y_path)]


@pytest.mark.parametrize("command", [["bp"], ["block-bp", "--blocks", "2,1"]])
def test_solve_rhs_whose_squared_norm_overflows(capsys, tmp_path, command):
    # ||y||^2 = 1e400 overflows; the minimiser [5e199, 5e199] does not
    rc, doc = _run_json(capsys, "solve", *command, *_write_scalar_instance(tmp_path, 1, 1e200))
    report = doc["report"]
    assert rc == 0 and report["status"] == "converged"
    assert report["objective"] == pytest.approx(1e200, rel=1e-12)
    assert report["feasibility_gap"] < 1e-12
    np.testing.assert_allclose(report["solution"], [[5e199, 0.0]] * 2, rtol=1e-12)


@pytest.mark.parametrize("command", [["bp"], ["block-bp", "--blocks", "2,1"]])
@pytest.mark.parametrize("a, y", [(1e-308, 1e300), (0.5, 1e308)],
                         ids=["minimiser", "objective"])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_solve_beyond_double_precision_exit_code(capsys, tmp_path, command, a, y):
    rc = cli.main(["solve", *command, *_write_scalar_instance(tmp_path, a, y)])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and "beyond double precision" in captured.err


@pytest.mark.parametrize("rows", [0, 2])
def test_solve_bp_rejects_a_matrix_with_no_columns(capsys, tmp_path, rows):
    A_path, y_path = tmp_path / "A.csv", tmp_path / "y.csv"
    A_path.write_text(f"{rows},0\n")
    y_path.write_text(f"{rows},1\n" + "1,0\n" * rows)
    rc = cli.main(["solve", "bp", "--matrix", str(A_path), "--y", str(y_path)])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and "matrix has no columns" in captured.err


def test_solve_block_bp(capsys, tmp_path):
    from diffgabor import fusion as fu
    ff = fu.build_fusion_frame(diffsets.catalog_lookup(7, 3))
    a = solvers.gaussian_measurement_coefficients(4, 7, seed=12)
    op = solvers.assemble_fusion_operator(a, ff)
    rng = np.random.default_rng(13)
    c = np.zeros(21, dtype=complex)
    c[6:9] = rng.standard_normal(3)
    A_path, y_path = tmp_path / "A.csv", tmp_path / "y.csv"
    solvers.write_complex_matrix_csv(A_path, op.effective)
    solvers.write_complex_matrix_csv(y_path, op.effective @ c)
    rc, doc = _run_json(capsys, "solve", "block-bp", "--matrix", str(A_path),
                        "--y", str(y_path), "--blocks", "7,3")
    assert rc == 0
    sol = np.array([re + 1j * im for re, im in doc["report"]["solution"]])
    assert np.linalg.norm(sol - c) / np.linalg.norm(c) < 1e-6


@pytest.mark.parametrize("command, extra", [("bp", []), ("block-bp", ["--blocks", "4,2"])])
def test_solve_never_reports_refuted(capsys, tmp_path, command, extra):
    # 3 active blocks from 2 measurements: a recovery trial refutes this solve
    rng = np.random.default_rng(4)
    A = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
    x = np.zeros(8, dtype=complex)
    x[[0, 1, 4, 5, 6, 7]] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    y = A @ x
    if command == "bp":
        trial = solvers.basis_pursuit(A, y, _refute=(x, experiments.DEFAULT_THRESHOLD))
    else:
        blocks = solvers.BlockStructure(4, 2)
        trial = solvers.block_basis_pursuit(A, y, blocks,
                                            _refute=(x, experiments.DEFAULT_THRESHOLD))
    assert trial.status == solvers.STATUS_REFUTED
    A_path, y_path = tmp_path / "A.csv", tmp_path / "y.csv"
    solvers.write_complex_matrix_csv(A_path, A)
    solvers.write_complex_matrix_csv(y_path, y)
    rc, doc = _run_json(capsys, "solve", command, "--matrix", str(A_path), "--y", str(y_path),
                        *extra)
    assert rc == 0 and doc["report"]["status"] == solvers.STATUS_CONVERGED


def test_experiment_classic_csv(capsys, tmp_path):
    out_path = tmp_path / "classic.csv"
    rc, doc = _run_json(capsys, "experiment", "classic", "--n", "7",
                        "--generators", "alltop", "--ks", "1", "--trials", "4",
                        "--seed", "2", "--out", str(out_path))
    assert rc == 0
    text = out_path.read_text()
    assert text.startswith("experiment,label,x,successes,trials,rate\n")
    assert "classic,alltop,1,4,4,1.000000" in text
    assert doc["report"]["curves"][0]["points"] == [[1, 4, 4]]


def test_experiment_classic_deterministic_bytes(capsys, tmp_path):
    args = ["experiment", "classic", "--n", "7", "--generators", "random_torus",
            "--ks", "1,2", "--trials", "3", "--seed", "8"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_experiment_fusion_csv(capsys, tmp_path):
    out_path = tmp_path / "fusion.csv"
    rc, doc = _run_json(capsys, "experiment", "fusion", "--set", "7,3",
                        "--measurements", "4", "--ks", "1,3", "--trials", "3",
                        "--seed", "2", "--out", str(out_path))
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[1].startswith("fusion,n=4,1,")


@pytest.mark.parametrize("experiment", [
    ["classic", "--n", "7", "--generators", "alltop", "--ks", "1"],
    ["fusion", "--set", "7,3", "--measurements", "4", "--ks", "1"],
])
def test_experiment_workers_below_one_exit_code(capsys, tmp_path, experiment):
    rc = cli.main(["experiment", *experiment, "--trials", "1", "--workers", "0",
                   "--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and "workers" in captured.err
    assert not (tmp_path / "out.csv").exists()


def test_experiment_reports_diagnostics(capsys, tmp_path):
    rc, doc = _run_json(capsys, "experiment", "fusion", "--set", "7,3",
                        "--measurements", "2", "--ks", "1,3", "--trials", "3",
                        "--seed", "5", "--out", str(tmp_path / "fusion.csv"))
    assert rc == 0
    curve = doc["report"]["curves"][0]
    assert [d["x"] for d in curve["diagnostics"]] == [1, 3]
    for diag in curve["diagnostics"]:
        assert sum(diag[o] for o in experiments.TRIAL_OUTCOMES) == 3
        assert 0 <= diag["median_iterations"] <= diag["max_iterations"]
    assert curve["diagnostics"][1]["refuted"] == 3


@pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
@pytest.mark.parametrize("experiment", [
    ["classic", "--n", "7", "--generators", "alltop", "--ks", "1"],
    ["fusion", "--set", "7,3", "--measurements", "4", "--ks", "1"],
])
def test_experiment_bad_threshold_exit_code(capsys, tmp_path, experiment, threshold):
    rc = cli.main(["experiment", *experiment, "--trials", "1", "--threshold", threshold,
                   "--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert f"success_threshold={float(threshold)}" in captured.err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_fusion_report_bad_tol_exit_code(capsys, tol):
    rc = cli.main(["fusion", "report", "--set", "7,3", "--tol", tol])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and f"tol={float(tol)}" in captured.err


@pytest.mark.parametrize("pair", ["1:1", "2:0", "0:2", "2:1"])
def test_gabor_table_bad_singer_pair_exit_code(capsys, pair):
    rc = cli.main(["gabor", "table", "--singer", pair])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and f"q:d = {pair}" in captured.err


_FAMILY_REJECTS = [
    ("--quadratic", "15", "q=15 is not a prime congruent to 3 mod 4"),
    ("--quadratic", "13", "q=13 is not a prime congruent to 3 mod 4"),
    ("--quadratic", "3", "q=3 too small: residue set is degenerate"),
    ("--quadratic", "1000000000039", "modulus limit 1000000000000"),
    ("--quartic", "21", "p=21 is not a prime 4t^2 + 1 with t odd and t >= 3"),
    ("--quartic", "5", "p=5 is not a prime 4t^2 + 1 with t odd and t >= 3"),
    ("--quartic", "65", "p=65 is not a prime 4t^2 + 1 with t odd and t >= 3"),
    ("--quartic", "17", "p=17 is not a prime 4t^2 + 1 with t odd and t >= 3"),
]


@pytest.mark.parametrize("flag, value, message", _FAMILY_REJECTS,
                         ids=[f"{flag[2:]}-{value}" for flag, value, _ in _FAMILY_REJECTS])
def test_gabor_table_value_outside_its_family_exit_code(capsys, flag, value, message):
    # 15 is not prime, 13 = 1 mod 4, 21 is not 4t^2 + 1, 65 = 4*4^2 + 1 is not
    # prime, 17 = 4*2^2 + 1 has t even: none gives the family's difference set
    rc = cli.main(["gabor", "table", flag, value])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert message in captured.err and f"row N={value}" in captured.err


def test_gabor_table_default_bytes(capsys):
    # the default table's bytes, version line aside, as before the family checks
    rc, out = _run(capsys, "gabor", "table")
    assert rc == 0
    body = "\n".join(line for line in out.split("\n") if not line.startswith('  "version": '))
    assert hashlib.sha256(body.encode("ascii")).hexdigest() == (
        "0293576fb58b7be51dcd9a04447932dc3b7acd542bb61a7b374f8be4d57a87aa")
    rc, doc = _run_json(capsys, "gabor", "table", "--quartic", "197", "--quadratic", "7")
    assert rc == 0
    assert [(r["N"], r["K"], r["lambda"]) for r in doc["report"]["rows"][-2:]] == [
        (7, 3, 1), (197, 49, 12)]


def test_gabor_table_singer_pair_beyond_float_range(capsys):
    # N = 2^1101 - 1 has no float form, so 1/(N + 1) cannot be a float
    rc = cli.main(["gabor", "table", "--singer", "2:1100"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and "q:d = 2:1100" in captured.err
    # the largest q = 2 pair below the bound still gives its row
    rc, doc = _run_json(capsys, "gabor", "table", "--singer", "2:1022", "--quadratic", ",",
                        "--quartic", ",")
    assert rc == 0 and doc["report"]["rows"][0]["N"] == 2 ** 1023 - 1


@pytest.mark.parametrize("argv, value", [
    (["classic", "--n", "7", "--generators", "alltop", "--kmax", "0"], "kmax=0"),
    (["classic", "--n", "7", "--generators", "alltop", "--ks", ","], "grid []"),
    (["fusion", "--set", "7,3", "--measurements", "4", "--ks", ","], "grid []"),
])
def test_experiment_empty_sparsity_grid_exit_code(capsys, tmp_path, argv, value):
    rc = cli.main(["experiment", *argv, "--trials", "1", "--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and value in captured.err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("lam", ["0", "-1"])
def test_diffset_search_lambda_below_one_exit_code(capsys, lam):
    rc = cli.main(["diffset", "search", "7", "3", "--lam", lam])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and f"lam={lam}" in captured.err


@pytest.mark.parametrize("argv", [
    ["experiment", "classic", "--n", "99999999999999999999", "--ks", "1", "--trials", "1",
     "--generators", "random_torus", "--out", "x.csv"],
    ["gabor", "coherence", "--random", "99999999999999999999"],
    ["gabor", "coherence", "--alltop", "99999999999999999999"],
])
def test_dimension_beyond_any_frame_exit_code(capsys, tmp_path, monkeypatch, argv):
    # rejected by its size alone, before any array of that length is asked for
    monkeypatch.chdir(tmp_path)
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and "N=99999999999999999999" in captured.err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv, value", [
    (["classic", "--n", "7", "--generators", "alltop,alltop", "--ks", "1"], "generators"),
    (["classic", "--n", "7", "--generators", "alltop", "--ks", "1,1"], "sparsity grid [1, 1]"),
    (["fusion", "--set", "7,3", "--measurements", "2,2", "--ks", "1"], "measurement grid [2, 2]"),
])
def test_experiment_repeated_grid_entry_exit_code(capsys, tmp_path, argv, value):
    rc = cli.main(["experiment", *argv, "--trials", "1", "--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and value in captured.err
    assert not (tmp_path / "out.csv").exists()


def test_experiment_empty_measurement_grid_exit_code(capsys, tmp_path):
    rc = cli.main(["experiment", "fusion", "--set", "7,3", "--measurements", ",",
                   "--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and "measurement grid []" in captured.err


@pytest.mark.parametrize("max_iters", ["1000000000000", "99999999999999999999"])
def test_experiment_huge_iteration_cap(capsys, tmp_path, max_iters):
    # the cap bounds the loop; the trial certifies long before it
    rc, doc = _run_json(capsys, "experiment", "classic", "--n", "7", "--ks", "1",
                        "--trials", "1", "--generators", "alltop", "--max-iters", max_iters,
                        "--out", str(tmp_path / "out.csv"))
    assert rc == 0
    diag = doc["report"]["curves"][0]["diagnostics"][0]
    assert diag["certified"] == 1 and diag["max_iterations"] <= 10


@pytest.mark.parametrize("argv", [
    ["diffset", "search", "7", "3", "--budget", "-1"],
    ["gabor", "table", "--measure-limit", "-1"],
])
def test_negative_limits_exit_code(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and "-1" in captured.err


@pytest.mark.parametrize("experiment", ["classic", "fusion"])
def test_negative_seed_exit_code(capsys, tmp_path, experiment):
    rc = cli.main(["gabor", "coherence", "--random", "7", "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and "seed=-1" in captured.err
    # experiment seeds reach the generators only through derive_seed
    grid = ["--n", "7", "--set", "7,3"] if experiment == "classic" else [
        "--set", "7,3", "--measurements", "3"]
    rc, doc = _run_json(capsys, "experiment", experiment, *grid, "--ks", "1", "--trials", "2",
                        "--seed", "-1", "--out", str(tmp_path / "out.csv"))
    assert rc == 0 and doc["config"]["seed"] == -1


def _stock_encode(doc, newline="\n"):
    """The stdlib encoder that cli._encode must match byte for byte."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                      default=cli._json_default)


def _outcome(encode, doc):
    try:
        return encode(doc)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
                   1e-7, 1e22, 0.1, 1.7976931348623157e308]


def _json_values(floats):
    """Nested dicts, lists and tuples of str, int, float, bool, None and NumPy
    values, with repeated and signed-zero floats in float-only lists."""
    float_values = st.one_of(floats, st.sampled_from(_SPECIAL_FLOATS))
    scalars = st.one_of(
        st.text(),
        st.integers(),
        st.integers(min_value=-(10 ** 400), max_value=10 ** 400),
        float_values,
        st.booleans(),
        st.none(),
        float_values.map(np.float64),
        st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1).map(np.int64),
        st.booleans().map(np.bool_),
        arrays(np.float64, st.sampled_from([(3,), (2, 3), (0,)]), elements=float_values),
    )
    rows = st.lists(st.sampled_from([0.0, -0.0, 1.5, 1e16, 5e-324, -2.5]), max_size=12)
    keys = st.one_of(st.text(), st.integers(), float_values, st.booleans(), st.none())
    return st.recursive(
        st.one_of(scalars, rows, st.lists(float_values, max_size=8)),
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(children, max_size=5).map(tuple),
            st.dictionaries(st.text(), children, max_size=5),
            st.dictionaries(keys, children, max_size=4),
        ),
        max_leaves=30,
    )


@settings(max_examples=400, deadline=None)
@given(_json_values(st.floats(allow_nan=False, allow_infinity=False)))
@example({"row": [0.0, -0.0, 0.0, 1.5, 1.5, -0.0]})
@example({1.5: [[]], True: {}, None: (), 2: "\u00e9\x00\n\"", "k": [[[1, 2.5]]]})
@example({"big": 10 ** 4300})  # int's string conversion limit: ValueError both ways
def test_encoder_matches_json_dumps(value):
    assert _outcome(lambda v: cli._encode(v, "\n"), value) == _outcome(_stock_encode, value)


@settings(max_examples=200, deadline=None)
@given(_json_values(st.floats()))
@example([1.0, float("nan"), float("inf")])
@example({"a": [[2.0, 2.0], [2.0, float("-inf")]]})
@example({float("nan"): 1})
@example({"b": np.array([1.0, np.inf])})
def test_encoder_rejects_what_json_dumps_rejects(value):
    # NaN and infinity included: the same exception, at the same value
    assert _outcome(lambda v: cli._encode(v, "\n"), value) == _outcome(_stock_encode, value)


def _analytics_commands(tmp_path):
    """Every command of the benchmark's cli-analytics mix, with experiment
    and solve commands that write their report inline."""
    entries = diffsets.catalog_entries()
    commands = [["gabor", "coherence", "--set", f"{ds.N},{ds.params.K}"]
                for ds in entries if ds.N <= 64]
    commands += [["gabor", "coherence", "--alltop", "43"],
                 ["gabor", "coherence", "--random", "43", "--seed", "12345"],
                 ["gabor", "table"], ["diffset", "search", "16", "6"], ["diffset", "catalog"],
                 ["diffset", "catalog", "--set", "13,4"], ["diffset", "verify", "13", "1,3,4,10"]]
    for ds in entries:
        commands += [["fusion", "report", "--set", f"{ds.N},{ds.params.K}"],
                     ["fusion", "distances", "--set", f"{ds.N},{ds.params.K}"]]
    rng = np.random.default_rng(3)
    tight = gabor.build_gabor_frame(gabor.difference_set_generator(
        diffsets.catalog_lookup(13, 4))).columns
    generic = rng.standard_normal((24, 64)) + 1j * rng.standard_normal((24, 64))
    for label, A, blocks in (("tight", tight, "13,13"), ("generic", generic, "16,4")):
        x = np.zeros(A.shape[1], dtype=complex)
        x[[3, 40]] = [1.0 - 0.5j, 2.0]
        paths = [str(tmp_path / f"{label}-{name}.csv") for name in ("A", "y", "out")]
        solvers.write_complex_matrix_csv(paths[0], A)
        solvers.write_complex_matrix_csv(paths[1], A @ x)
        common = ["--matrix", paths[0], "--y", paths[1]]
        commands += [["solve", "bp", *common], ["solve", "bp", *common, "--out", paths[2]],
                     ["solve", "block-bp", *common, "--blocks", blocks]]
    out = str(tmp_path / "curves.csv")
    commands += [["experiment", "classic", "--n", "7", "--set", "7,3", "--ks", "1,3",
                  "--trials", "2", "--out", out],
                 ["experiment", "fusion", "--set", "7,3", "--measurements", "2,4",
                  "--ks", "1,2", "--trials", "2", "--out", out]]
    return commands


def test_commands_print_the_bytes_of_json_dumps(capsys, tmp_path, monkeypatch):
    commands = _analytics_commands(tmp_path)
    outputs = {}
    for encode in (cli._encode, _stock_encode):
        monkeypatch.setattr(cli, "_encode", encode)
        for argv in commands:
            rc = cli.main(argv)
            outputs.setdefault(" ".join(argv), []).append((rc, capsys.readouterr().out))
    assert all(rc == 0 and out for (rc, out), _ in outputs.values())
    assert {k: v for k, v in outputs.items() if v[0] != v[1]} == {}


def test_emit_rejects_non_finite_values(capsys):
    args = cli.build_parser().parse_args(["diffset", "catalog"])
    with pytest.raises(ValueError):
        cli._emit(args, {"value": float("nan")})
    assert capsys.readouterr().out == ""


def test_repeated_commands_in_one_process(capsys, tmp_path):
    # the parser is built once and shared, so no call may leave state for the next
    A_path, y_path, _ = _write_instance(tmp_path)
    commands = [
        ["gabor", "coherence", "--set", "13,4"],
        ["gabor", "table"],
        ["fusion", "report", "--set", "7,3"],
        ["solve", "bp", "--matrix", str(A_path), "--y", str(y_path)],
        ["diffset", "verify", "7", "1,2,4"],
        ["gabor", "table", "--singer", "1:1"],
    ]
    rounds = []
    for _ in range(2):
        results = []
        for argv in commands:
            rc = cli.main(argv)
            captured = capsys.readouterr()
            results.append((rc, captured.out, captured.err))
        rounds.append(results)
    assert rounds[0] == rounds[1]
    assert [rc for rc, _, _ in rounds[0]] == [0, 0, 0, 0, 0, 3]
    assert cli.build_parser() is cli.build_parser()


def test_out_of_memory_exit_code(capsys, monkeypatch):
    def no_memory(generator):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(gabor, "build_gabor_frame", no_memory)
    rc = cli.main(["gabor", "coherence", "--random", "200000"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert "--random 200000" in captured.err and "298. GiB" in captured.err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diffgabor", "diffset", "verify", "7", "1,2,4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["is_difference_set"] is True


_HUGE = "1180591620717411303424"  # 2^70
_SWEEP_VALUES = ("-" + _HUGE, "-1", "0", "1", _HUGE, "nan", "inf")


def _numeric_flag_cases(matrix, y, out):
    """(argv, value, parses) for each numeric argument of a tiny, otherwise
    valid command and each sweep value; ``parses`` is whether the argument's
    type accepts the value (an integer argument rejects nan and inf)."""
    solver = [("--rho", float), ("--max-iters", int), ("--tol-primal", float),
              ("--tol-dual", float)]
    experiment = [("--trials", int), ("--ks", int), ("--seed", int), ("--threshold", float),
                  ("--workers", int)]
    commands = [
        (["diffset", "search", "7", "3"], [("--lam", int), ("--budget", int)]),
        (["gabor", "coherence"], [("--alltop", int), ("--random", int)]),
        (["gabor", "coherence", "--set={},3"], [(None, int)]),
        (["gabor", "coherence", "--random", "7"], [("--seed", int)]),
        (["gabor", "table", "--quartic", "37", "--singer", "2:2"],
         [("--quadratic", int), ("--measure-limit", int)]),
        (["gabor", "table", "--quadratic", "11", "--singer", "2:2"], [("--quartic", int)]),
        (["gabor", "table", "--quadratic", "11", "--quartic", "37", "--singer={}:2"],
         [(None, int)]),
        (["fusion", "report", "--set", "7,3"], [("--tol", float)]),
        (["fusion", "report", "--set={},3"], [(None, int)]),
        (["fusion", "distances", "--set=7,{}"], [(None, int)]),
        (["solve", "bp", "--matrix", matrix, "--y", y], solver),
        (["solve", "block-bp", "--matrix", matrix, "--y", y, "--blocks={},7"],
         [(None, int)]),
        (["experiment", "classic", "--n", "7", "--ks", "1", "--trials", "1",
          "--generators", "alltop", "--out", out], experiment + solver),
        (["experiment", "classic", "--n", "7", "--generators", "alltop", "--trials", "1",
          "--out", out], [("--kmax", int)]),
        (["experiment", "classic", "--n={}", "--ks", "1", "--trials", "1",
          "--generators", "alltop", "--out", out], [(None, int)]),
        (["experiment", "fusion", "--set", "7,3", "--measurements", "2", "--ks", "1",
          "--trials", "1", "--out", out], experiment + solver),
        (["experiment", "fusion", "--set", "7,3", "--ks", "1", "--trials", "1", "--out", out],
         [("--measurements", int)]),
    ]
    cases = []
    for base, flags in commands:
        for flag, kind in flags:
            for value in _SWEEP_VALUES:
                # values that would start real work rather than be rejected:
                # 2^70 trials, and 2^70 iterations of a solve that may not
                # converge (its residual history grows every iteration)
                if value == _HUGE and (flag == "--trials" or (
                        flag == "--max-iters" and "alltop" not in base)):
                    continue
                try:
                    kind(value)
                    parses = True
                except ValueError:
                    parses = False
                # --flag=value: a separate "-1,3" would read as an option
                if flag is None:
                    argv = [a.replace("{}", value) for a in base]
                else:
                    argv = base + [f"{flag}={value}"]
                cases.append((argv, value, parses))
    return cases


def test_numeric_arguments_exit_zero_or_three(capsys, tmp_path, monkeypatch):
    # every numeric argument of a tiny, otherwise valid command, at the values
    # most likely to slip past a check.  Besides 0 and 3, two documented codes
    # are expected: 2 for a value the argument's type cannot parse, and 4 for
    # a solve stopped at its iteration cap.  Nothing may raise or exit 1.
    monkeypatch.chdir(tmp_path)
    A_path, y_path, _ = _write_instance(tmp_path)
    unexpected = []
    for argv, value, parses in _numeric_flag_cases(str(A_path), str(y_path),
                                                   str(tmp_path / "out.csv")):
        rc = cli.main(argv)
        capsys.readouterr()
        expected = ({0, 3, 4} if argv[0] == "solve" else {0, 3}) if parses else {2}
        if rc not in expected:
            unexpected.append((" ".join(argv), rc))
    assert unexpected == []


@pytest.mark.parametrize("argv, message", [
    (["gabor", "coherence", "--random", "1"], "at least two columns"),
    (["experiment", "classic", "--n", "7", "--set", "7,3", "--kmax", _HUGE, "--out", "x.csv"],
     f"kmax={_HUGE}"),
    (["experiment", "classic", "--n", "7", "--kmax", "99999999999999999999", "--out", "x.csv"],
     "kmax=99999999999999999999"),
    (["experiment", "fusion", "--set", "7,3", "--measurements", _HUGE, "--out", "x.csv"],
     f"n={_HUGE}"),
    (["experiment", "classic", "--n", "7", "--ks", "1", "--generators", "alltop",
      "--rho", "1e-320", "--out", "x.csv"], "rho=1e-320"),
    (["gabor", "table", "--quadratic", "1"], "N=1"),
    (["gabor", "table", "--quartic", "1"], "N=1"),
    (["diffset", "verify", "1180591620717411303424", "1,2,4"], "verification limit 1000000"),
    (["diffset", "verify", str(diffsets.VERIFY_MODULUS_LIMIT + 1), "1,2,4"],
     f"N={diffsets.VERIFY_MODULUS_LIMIT + 1}"),
])
def test_degenerate_or_unallocatable_inputs_exit_code(capsys, tmp_path, monkeypatch, argv,
                                                      message):
    # each is rejected before any array it names is asked for, with no traceback
    monkeypatch.chdir(tmp_path)
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and message in captured.err
    assert not (tmp_path / "x.csv").exists()
