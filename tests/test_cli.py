import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from qnls.cli import main
from qnls import CompositionError, ConditioningError


def run_cli(*args, capsys=None):
    rc = main(list(args))
    return rc


def lv_file(tmp_path, name="lv.qnls"):
    path = tmp_path / name
    rc = main(["gen-lv", "--alpha", "1", "--beta", "1", "--gamma", "1",
               "--delta", "1", "--dt", "0.1", "--steps", "3",
               "--v0", "1.2", "--p0", "0.9", "--out", str(path)])
    assert rc == 0
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_gen_lv_roundtrip_and_guess_file(tmp_path):
    path = lv_file(tmp_path)
    from qnls.problem_io import parse_problem_file, dumps_problem
    p = parse_problem_file(str(path))
    assert dumps_problem(p) == path.read_text()
    guess = np.loadtxt(str(path) + ".x0")
    assert guess.shape == (6,)
    assert np.linalg.norm(guess) < 1.0


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.qnls", tmp_path / "b.qnls"
    for out in (a, b):
        rc = main(["gen-random", "--n", "2", "--p", "1", "--s", "1",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
    assert a.read_text() == b.read_text()


def test_gen_gpe_small_grid_usage_error(tmp_path):
    rc = main(["gen-gpe", "--nx", "2", "--g", "1", "--dt", "0.05",
               "--dx", "0.5", "--out", str(tmp_path / "g.qnls")])
    assert rc == 1


def test_solve_classical_writes_trace(tmp_path):
    path = lv_file(tmp_path)
    trace = tmp_path / "t.csv"
    rc = main(["solve", "--problem", str(path), "--iters", "5",
               "--backend", "classical", "--x0", str(path) + ".x0",
               "--trace", str(trace)])
    assert rc == 0
    rows = read_rows(trace)
    assert len(rows) <= 6
    assert rows[0]["sigma_k"] == "" and rows[0]["gamma_k"] == ""
    assert float(rows[-1]["residual"]) <= 1e-9


def test_solve_backends_agree_per_row(tmp_path):
    path = lv_file(tmp_path)
    t_exact, t_classical = tmp_path / "e.csv", tmp_path / "c.csv"
    for backend, out in (("exact", t_exact), ("classical", t_classical)):
        rc = main(["solve", "--problem", str(path), "--iters", "4",
                   "--backend", backend, "--x0", str(path) + ".x0",
                   "--trace", str(out)])
        assert rc == 0
    for re_, rc_ in zip(read_rows(t_exact), read_rows(t_classical)):
        assert abs(float(re_["residual"]) - float(rc_["residual"])) <= 1e-6


def test_solve_zero_iters_initial_row_only(tmp_path, capsys):
    path = lv_file(tmp_path)
    rc = main(["solve", "--problem", str(path), "--iters", "0",
               "--x0", str(path) + ".x0"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 2        # header + initial row
    assert lines[0].startswith("iter,residual,x_norm_sq,sigma_k,gamma_k")


def test_solve_homogeneous_warns(tmp_path, capsys):
    path = tmp_path / "r.qnls"
    main(["gen-random", "--n", "2", "--p", "1", "--s", "2", "--seed", "3",
          "--out", str(path)])
    rc = main(["solve", "--problem", str(path), "--iters", "1", "--seed", "5"])
    err = capsys.readouterr().err
    assert rc in (0, 3)
    assert "homogeneous" in err


def test_solve_missing_problem_is_parse_error(tmp_path):
    rc = main(["solve", "--problem", str(tmp_path / "nope.qnls"),
               "--iters", "1"])
    assert rc == 2


@pytest.mark.parametrize("content", [None, b"\xff\xfe not utf-8\n"])
@pytest.mark.parametrize("command", ["solve", "check", "resources"])
def test_unreadable_problem_is_parse_error(tmp_path, capsys, command, content):
    path = tmp_path / "p.qnls"
    if content is not None:
        path.write_bytes(content)
    args = ["--suite", "all"] if command == "check" else ["--iters", "1"]
    rc = main([command, "--problem", str(path)] + args)
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "parse error: cannot read problem file:")


def test_solve_corrupt_problem_is_parse_error(tmp_path):
    bad = tmp_path / "bad.qnls"
    bad.write_text("version 1\nkind mixed\nn notanumber\n")
    rc = main(["solve", "--problem", str(bad), "--iters", "1"])
    assert rc == 2


def test_solve_nan_guess_is_input_error(tmp_path, capsys):
    path = lv_file(tmp_path)
    guess = tmp_path / "x0.txt"
    guess.write_text("nan\n" + "0.1\n" * 5)
    rc = main(["solve", "--problem", str(path), "--iters", "1",
               "--x0", str(guess)])
    assert rc == 1
    assert "error: guess file values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("directive", ["a", "const"])
@pytest.mark.parametrize("command", ["solve", "check"])
def test_nan_coefficient_is_parse_error(tmp_path, capsys, directive, command):
    path = lv_file(tmp_path)
    lines = path.read_text().splitlines()
    k = next(i for i, line in enumerate(lines)
             if line.startswith(directive + " "))
    lines[k] = " ".join(lines[k].split()[:-1] + ["nan"])
    path.write_text("\n".join(lines) + "\n")
    args = (["--iters", "1", "--x0", str(path) + ".x0"] if command == "solve"
            else ["--suite", "all"])
    rc = main([command, "--problem", str(path)] + args)
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_solve_singular_halt_exit_code(tmp_path, capsys):
    # homogeneous system started near the origin: sigma under the floor
    path = tmp_path / "r.qnls"
    main(["gen-random", "--n", "2", "--p", "1", "--s", "2", "--seed", "3",
          "--out", str(path)])
    guess = tmp_path / "x0.txt"
    guess.write_text("0.05\n0.05\n")
    rc = main(["solve", "--problem", str(path), "--iters", "2",
               "--x0", str(guess), "--sigma-floor", "0.5",
               "--trace", str(tmp_path / "t.csv")])
    assert rc == 3


@pytest.mark.parametrize("error", [CompositionError, ConditioningError,
                                   np.linalg.LinAlgError])
def test_numerical_failure_mid_run_keeps_partial_trace(tmp_path, capsys,
                                                       monkeypatch, error):
    import qnls.quantum_newton as qn

    real = qn.sv_invert
    calls = []

    def failing_second_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise error("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(qn, "sv_invert", failing_second_call)
    path = lv_file(tmp_path)
    trace = tmp_path / "t.csv"
    rc = main(["solve", "--problem", str(path), "--iters", "3",
               "--x0", str(path) + ".x0", "--trace", str(trace)])
    assert rc == 3
    assert len(read_rows(trace)) == 2
    assert "halted: injected failure" in capsys.readouterr().err


@pytest.mark.parametrize("option", [
    ("--eps", "inf"), ("--eps", "inf", "--backend", "classical"),
    ("--eps", "inf", "--backend", "poly"), ("--eps", "nan"), ("--eps", "0"),
    ("--sigma-floor", "1")], ids=["eps-inf", "eps-inf-classical", "eps-inf-poly",
                                  "eps-nan", "eps-0", "sigma-floor-1"])
@pytest.mark.parametrize("command", ["solve", "resources"])
def test_bad_run_option_is_input_error(tmp_path, capsys, command, option):
    path = lv_file(tmp_path)
    out = tmp_path / "out.txt"
    flag = "--trace" if command == "solve" else "--out"
    rc = main([command, "--problem", str(path), "--iters", "1",
               "--x0", str(path) + ".x0", *option, flag, str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_usage_errors(tmp_path, capsys):
    assert main(["solve"]) == 1                       # missing required args
    assert main(["frobnicate"]) == 1                  # unknown command
    path = lv_file(tmp_path)
    assert main(["check", "--problem", str(path), "--suite", ""]) == 1
    assert main(["check", "--problem", str(path), "--suite", "nosuch"]) == 1


def test_check_all_passes_and_reports(tmp_path, capsys):
    path = lv_file(tmp_path)
    rc = main(["check", "--problem", str(path), "--suite", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("appendixA", "appendixB", "euler", "gradient", "scaling"):
        assert f"CHECK {name} PASS" in out


def test_check_broken_appendix_a_fails(tmp_path, capsys):
    # hand-broken file: p * ||A_1|| far above sqrt(n)
    text = "\n".join([
        "version 1", "kind homogeneous", "n 2", "p 1", "s 2",
        "equation 0", "a 0 0 9.0", "end",
        "equation 1", "a 1 1 1.0", "end", ""])
    path = tmp_path / "broken.qnls"
    path.write_text(text)
    rc = main(["check", "--problem", str(path), "--suite", "appendixA"])
    out = capsys.readouterr().out
    assert rc == 4
    assert "CHECK appendixA FAIL" in out


def test_resources_report_keys_and_t0(tmp_path):
    path = lv_file(tmp_path)
    rep = tmp_path / "rep.txt"
    rc = main(["resources", "--problem", str(path), "--iters", "0",
               "--x0", str(path) + ".x0", "--out", str(rep)])
    assert rc == 0
    text = rep.read_text()
    keys = dict(line.split(" = ", 1) for line in text.strip().splitlines())
    for key in ("problem.n", "run.iters", "ledger.oracle_queries",
                "quantum.dominant_term", "classical.K", "classical.n3",
                "classical.np1s", "classical.total"):
        assert key in keys
    assert keys["classical.K"] == "not represented"
    assert keys["run.iters"] == "0"
    assert float(keys["classical.total"]) == 0.0


def test_resources_rejects_report_option(tmp_path, capsys):
    path = lv_file(tmp_path)
    rep = tmp_path / "rep.txt"
    rc = main(["resources", "--problem", str(path), "--iters", "0",
               "--x0", str(path) + ".x0", "--report", str(rep)])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("backend", ["exact", "classical"])
def test_solve_report_matches_resources_out(tmp_path, backend):
    path = lv_file(tmp_path)
    run = ["--problem", str(path), "--iters", "2", "--backend", backend,
           "--x0", str(path) + ".x0", "--sigma-floor", "0.01"]
    from_solve, from_resources = tmp_path / "s.txt", tmp_path / "r.txt"
    assert main(["solve", *run, "--trace", str(tmp_path / "t.csv"),
                 "--report", str(from_solve)]) == 0
    assert main(["resources", *run, "--out", str(from_resources)]) == 0
    assert from_solve.read_bytes() == from_resources.read_bytes()


def test_cap_rejected_before_the_first_step(tmp_path, capsys, monkeypatch):
    import qnls.quantum_newton as qn

    def no_step(*args, **kwargs):
        pytest.fail("newton_step ran")

    monkeypatch.setattr(qn, "newton_step", no_step)
    path = tmp_path / "big.qnls"
    assert main(["gen-random", "--n", "65", "--p", "1", "--s", "1",
                 "--seed", "1", "--out", str(path)]) == 0
    out = tmp_path / "out.txt"
    for command, flag in (("solve", "--trace"), ("resources", "--out")):
        rc = main([command, "--problem", str(path), "--iters", "1",
                   flag, str(out)])
        assert rc == 1
        assert ("error: logical_dim 4225 exceeds cap 4096"
                in capsys.readouterr().err)
        assert not out.exists()
    rc = main(["solve", "--problem", str(path), "--iters", "1",
               "--backend", "classical", "--trace", str(out)])
    assert rc in (0, 3)
    assert len(read_rows(out)) >= 1


def test_resources_inversion_scales_with_floor(tmp_path):
    path = lv_file(tmp_path)
    vals = {}
    for floor in ("0.02", "0.01"):
        rep = tmp_path / f"rep{floor}.txt"
        rc = main(["resources", "--problem", str(path), "--iters", "2",
                   "--x0", str(path) + ".x0", "--sigma-floor", floor,
                   "--out", str(rep)])
        assert rc == 0
        keys = dict(line.split(" = ", 1)
                    for line in rep.read_text().strip().splitlines())
        vals[floor] = float(keys["ledger.note.inversion"])
    assert vals["0.01"] >= 2.0 * vals["0.02"]


def test_resources_classical_term_formula(tmp_path):
    for n, expected in ((2, 2 ** 2 * 1), (4, 4 ** 2 * 1)):
        path = tmp_path / f"r{n}.qnls"
        main(["gen-random", "--n", str(n), "--p", "1", "--s", "1",
              "--seed", "1", "--out", str(path)])
        rep = tmp_path / f"rep{n}.txt"
        rc = main(["resources", "--problem", str(path), "--iters", "1",
                   "--backend", "classical", "--seed", "2",
                   "--out", str(rep)])
        assert rc == 0
        keys = dict(line.split(" = ", 1)
                    for line in rep.read_text().strip().splitlines())
        assert float(keys["classical.np1s"]) == expected


def test_debug_mode_runs_clean(tmp_path):
    path = lv_file(tmp_path)
    env = dict(os.environ, QNLS_DEBUG="1")
    proc = subprocess.run(
        [sys.executable, "-m", "qnls.cli", "solve", "--problem", str(path),
         "--iters", "2", "--x0", str(path) + ".x0",
         "--trace", str(tmp_path / "t.csv")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_inhomogeneous_classical_only(tmp_path, capsys):
    from qnls import InhomogeneousPolynomial, InhomogeneousSystem, SparseMatrix
    from qnls.problem_io import write_problem_file
    b = SparseMatrix.from_dense(np.array([[0.4, 0.1], [0.1, 0.3]]))
    g1 = InhomogeneousPolynomial(((np.array([1.0, 0.2]), ()),
                                  (np.array([0.5, 0.0]), (b,))))
    g2 = InhomogeneousPolynomial(((np.array([-0.3, 1.0]), ()),
                                  (np.array([0.0, 0.4]), (b,))))
    path = tmp_path / "inhomog.qnls"
    write_problem_file(InhomogeneousSystem(2, (g1, g2)), str(path))
    guess = tmp_path / "x0.txt"
    guess.write_text("0.3\n-0.2\n")
    trace = tmp_path / "t.csv"
    rc = main(["solve", "--problem", str(path), "--iters", "6",
               "--backend", "classical", "--x0", str(guess),
               "--trace", str(trace)])
    assert rc == 0
    rows = read_rows(trace)
    assert float(rows[-1]["residual"]) <= 1e-9
    # the encoded pipeline refuses inhomogeneous systems (experimental)
    for command in ("solve", "resources"):
        rc = main([command, "--problem", str(path), "--iters", "1",
                   "--backend", "exact", "--x0", str(guess)])
        assert rc == 1
        assert ("error: encoded pipeline for inhomogeneous systems"
                in capsys.readouterr().err)
    rc = main(["check", "--problem", str(path), "--suite", "gradient"])
    assert rc == 0


def test_trace_is_valid_csv_on_halt(tmp_path):
    path = tmp_path / "r.qnls"
    main(["gen-random", "--n", "2", "--p", "1", "--s", "2", "--seed", "3",
          "--out", str(path)])
    guess = tmp_path / "x0.txt"
    guess.write_text("0.05\n0.05\n")
    trace = tmp_path / "t.csv"
    rc = main(["solve", "--problem", str(path), "--iters", "2",
               "--x0", str(guess), "--sigma-floor", "0.5",
               "--trace", str(trace)])
    assert rc == 3
    rows = read_rows(trace)
    assert len(rows) >= 1
    assert set(rows[0]) == {"iter", "residual", "x_norm_sq", "sigma_k",
                            "gamma_k", "oracle_queries", "primitive_ops",
                            "amplification_cost"}
