import csv
import os
import subprocess
import sys
import warnings

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


def test_gen_gpe_above_the_cap_is_refused(tmp_path, capsys):
    out = tmp_path / "g.qnls"
    rc = main(["gen-gpe", "--nx", "2000", "--g", "1", "--dt", "0.05",
               "--dx", "0.5", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: 4001^2 = 16008001 exceeds desk-scale cap 4096\n")
    assert not out.exists()


@pytest.mark.parametrize("option", [["--dt", "inf"], ["--hbar2m", "nan"],
                                    ["--scale", "nan"]],
                         ids=["dt-inf", "hbar2m-nan", "scale-nan"])
def test_gen_gpe_non_finite_parameter_is_input_error(tmp_path, capsys, option):
    base = {"--nx": "3", "--g": "1", "--dt": "0.05", "--dx": "0.5"}
    base[option[0]] = option[1]
    out = tmp_path / "g.qnls"
    rc = main(["gen-gpe", *[t for kv in base.items() for t in kv],
               "--out", str(out)])
    assert rc == 1
    assert "error: parameters must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_gen_lv_overflowing_orbit_asks_for_a_scale(tmp_path, capsys):
    # from about 1128 steps the Euler orbit of these parameters squares past
    # the float range, so the auto scale has no finite norm to read
    out = tmp_path / "lv.qnls"
    args = ["gen-lv", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--delta", "1", "--dt", "0.1", "--steps", "1128", "--v0", "1.2",
            "--p0", "0.9", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "error: the norm of the forward-Euler orbit overflows; "
            "give a --scale\n")
        assert not out.exists()
        assert main(args + ["--scale", "4"]) == 0
    assert out.exists()


@pytest.mark.parametrize("command, shown", [
    (["gen-lv", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta", "1",
      "--dt", "1", "--steps", "20", "--v0", "1.2", "--p0", "0.9"],
     "2.2e-261, below the 1e-12 at which a solve halts, as the automatic "
     "variable scale is 1.4e+131"),
    (["gen-gpe", "--nx", "3", "--g", "0", "--dt", "0.05", "--dx", "0.5",
      "--scale", "1e10"],
     "7.8e-21, below the 1e-12 at which a solve halts, as the given "
     "variable scale is 1e+10"),
], ids=["gen-lv-automatic-scale", "gen-gpe-given-scale"])
def test_a_guess_under_the_norm_floor_is_noted(tmp_path, capsys, command,
                                               shown):
    from qnls.quantum_newton import NORM_FLOOR
    out = tmp_path / "g.qnls"
    assert main(command + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        f"note: the written guess has ||x||^2 = {shown}; give a --scale or "
        "a smaller --dt\n")
    guess = np.loadtxt(f"{out}.x0")
    assert np.dot(guess, guess) < NORM_FLOOR


def test_gen_lv_non_finite_scale_is_input_error(tmp_path, capsys):
    out = tmp_path / "lv.qnls"
    rc = main(["gen-lv", "--alpha", "1", "--beta", "1", "--gamma", "1",
               "--delta", "1", "--dt", "0.1", "--steps", "3", "--v0", "1.2",
               "--p0", "0.9", "--scale", "inf", "--out", str(out)])
    assert rc == 1
    assert "error: parameters must be finite" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("content", [
    b"0.1\nabc\n" + b"0.1\n" * 4,
    b"0.1 0.2\n0.3\n",
    b"0.1\n\xff\xfe0.2\n" + b"0.1\n" * 4,
], ids=["non-numeric", "ragged", "non-utf8"])
@pytest.mark.parametrize("command", ["solve", "resources"])
def test_malformed_guess_is_input_error(tmp_path, capsys, command, content):
    path = lv_file(tmp_path)
    guess = tmp_path / "x0.txt"
    guess.write_bytes(content)
    rc = main([command, "--problem", str(path), "--iters", "1",
               "--x0", str(guess)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: malformed guess file:")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("content", ["", "# no values\n"],
                         ids=["empty", "comment-only"])
def test_guess_file_without_values_is_input_error(tmp_path, capsys, content):
    path = lv_file(tmp_path)
    guess = tmp_path / "x0.txt"
    guess.write_text(content)
    rc = main(["solve", "--problem", str(path), "--iters", "1",
               "--x0", str(guess)])
    assert rc == 1
    assert capsys.readouterr().err == "error: guess file must hold 6 values\n"


@pytest.mark.parametrize("line", ["lin 0 1", "const 1"])
def test_homogeneous_block_with_lin_or_const_is_parse_error(tmp_path, capsys,
                                                            line):
    path = tmp_path / "hom.qnls"
    path.write_text("version 1\nkind homogeneous\nn 2\np 1\ns 1\n"
                    f"equation 0\na 0 0 1\nend\nequation 1\n{line}\nend\n")
    assert main(["solve", "--problem", str(path), "--iters", "1"]) == 2
    assert capsys.readouterr().err == (
        "parse error: homogeneous problems carry only 'a' entries\n")


def test_written_files_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        path = lv_file(tmp_path)
        trace, report = tmp_path / "t.csv", tmp_path / "r.txt"
        assert main(["solve", "--problem", str(path), "--x0", f"{path}.x0",
                     "--iters", "1", "--trace", str(trace),
                     "--report", str(report)]) == 0
    finally:
        os.umask(old)
    for written in (path, tmp_path / "lv.qnls.x0", trace, report):
        assert written.stat().st_mode & 0o777 == 0o644, written


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


def test_check_without_a_homogeneous_part_passes_every_suite(tmp_path, capsys):
    # a mixed file of lin and const lines only: the gradient suite checks the
    # homogeneous part, not the linear one, so it has nothing to check either
    path = tmp_path / "linear.qnls"
    path.write_text("version 1\nkind mixed\nn 2\np 1\ns 1\n" + "".join(
        f"equation {i}\nlin {i} 0.5\nlin {1 - i} 0.2\nconst 0.1\nend\n"
        for i in range(2)))
    assert main(["check", "--problem", str(path), "--suite", "all"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"CHECK {name} PASS no homogeneous part" for name in
        ("appendixA", "appendixB", "euler", "gradient", "scaling")]


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
        assert ("error: 65^2 = 4225 exceeds desk-scale cap 4096"
                in capsys.readouterr().err)
        assert not out.exists()
    rc = main(["solve", "--problem", str(path), "--iters", "1",
               "--backend", "classical", "--trace", str(out)])
    assert rc in (0, 3)
    assert len(read_rows(out)) >= 1


def _mixed_file(n, p):
    """A mixed problem over n variables whose nonlinear part has degree 2p."""
    return (f"version 1\nkind mixed\nn {n}\np {p}\ns 1\nequation 0\n"
            "a 0 0 1\nend\n" + "".join(f"equation {i}\nend\n"
                                         for i in range(1, n)))


@pytest.mark.parametrize("command, refused", [
    (["solve", "--problem", "{file}", "--iters", "1"], "3^8 = 6561"),
    (["gen-lv", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta", "1",
      "--dt", "0.1", "--steps", "2049", "--v0", "1.2", "--p0", "0.9"], "4098"),
    (["gen-gpe", "--nx", "32", "--g", "1", "--dt", "0.05", "--dx", "0.5"],
     "65^2 = 4225"),
    (["gen-random", "--n", "2", "--p", "13", "--s", "1", "--seed", "0"],
     "2^13 = 8192"),
    (["solve", "--problem", "{sandwich}", "--iters", "1"], "17^3 = 4913"),
], ids=["problem-file-n^p", "gen-lv", "gen-gpe", "gen-random",
        "solve-n^(p+1)"])
def test_every_refusal_above_the_cap_has_the_one_message(tmp_path, capsys,
                                                         command, refused):
    (tmp_path / "file.qnls").write_text(_mixed_file(3, 8))
    (tmp_path / "sandwich.qnls").write_text(_mixed_file(17, 2))
    out = tmp_path / "out"
    args = [a.format(file=tmp_path / "file.qnls",
                     sandwich=tmp_path / "sandwich.qnls") for a in command]
    flag = "--trace" if args[0] == "solve" else "--out"
    assert main(args + [flag, str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {refused} exceeds desk-scale cap 4096\n")
    assert not out.exists()


def test_problem_file_above_the_cap_is_input_error(tmp_path, capsys):
    path = tmp_path / "big.qnls"
    path.write_text("version 1\nkind homogeneous\nn 2\np 100\ns 1\n"
                    "equation 0\na 0 0 1\nend\nequation 1\nend\n")
    rc = main(["solve", "--problem", str(path), "--iters", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: 2^100 = {2 ** 100} exceeds desk-scale cap 4096")


def test_problem_file_far_above_the_cap_is_input_error(tmp_path, capsys):
    path = tmp_path / "huge.qnls"
    path.write_text("version 1\nkind homogeneous\nn 2\np 100000\ns 1\n"
                    "equation 0\na 0 0 1\nend\nequation 1\nend\n")
    rc = main(["solve", "--problem", str(path), "--iters", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: 2^100000 exceeds desk-scale cap 4096")


@pytest.mark.parametrize("kind, block, room", [
    ("mixed", "const 1\n", 1), ("mixed", "const 1\nlin 0 1\na 0 0 1\n", 2)])
def test_equation_count_beyond_the_file_is_parse_error(tmp_path, capsys, kind,
                                                       block, room):
    # an n the remaining lines cannot hold is rejected before n-sized arrays
    path = tmp_path / "long_n.qnls"
    path.write_text(f"version 1\nkind {kind}\nn 100000000000\np 1\ns 1\n"
                    f"equation 0\n{block}end\n")
    rc = main(["solve", "--problem", str(path), "--iters", "1"])
    assert rc == 2
    assert capsys.readouterr().err == ("parse error: n = 100000000000, but "
                                       f"the file has room for {room} "
                                       "equation blocks\n")


@pytest.mark.parametrize("extra", ["equation 2\n{block}end\n", "end\n"],
                         ids=["third-block", "stray-line"])
@pytest.mark.parametrize("kind, block", [
    ("homogeneous", "a {i} {i} 1\n"), ("mixed", "const 1\nlin {i} 1\n")],
    ids=["homogeneous", "mixed"])
def test_content_after_the_last_block_is_parse_error(tmp_path, capsys, kind,
                                                     block, extra):
    text = f"version 1\nkind {kind}\nn 2\np 1\ns 1\n" + "".join(
        f"equation {i}\n{block.format(i=i)}end\n" for i in range(2))
    path = tmp_path / "extra.qnls"
    path.write_text(text)
    assert main(["check", "--problem", str(path), "--suite", "gradient"]) == 0
    capsys.readouterr()
    path.write_text(text + extra.format(block=block.format(i=0)))
    rc = main(["solve", "--problem", str(path), "--iters", "1",
               "--backend", "classical"])
    assert rc == 2
    lineno = text.count("\n") + 1
    assert capsys.readouterr().err == (
        f"parse error: line {lineno}: content after the last equation block\n")


# the numpy.ma and numpy.polynomial packages that the process has loaded
NUMPY_EXTRAS = ("extras = {'.'.join(m.split('.')[:2]) for m in sys.modules\n"
                "          if m.split('.')[:2] in (['numpy', 'ma'],\n"
                "                                  ['numpy', 'polynomial'])}")


def test_exact_commands_import_no_scipy(tmp_path):
    # scipy is loaded only by the classical oracle,
    # numpy.polynomial and numpy.ma by no command
    lv, gpe = tmp_path / "lv.qnls", tmp_path / "gpe.qnls"
    commands = [
        ["gen-lv", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta",
         "1", "--dt", "0.1", "--steps", "3", "--v0", "1.2", "--p0", "0.9",
         "--out", str(lv)],
        ["gen-gpe", "--nx", "3", "--g", "1", "--dt", "0.05", "--dx", "0.5",
         "--out", str(gpe)],
        ["solve", "--problem", str(lv), "--x0", f"{lv}.x0", "--iters", "2",
         "--trace", str(tmp_path / "t.csv")]]
    debug_solve = ["solve", "--problem", str(lv), "--x0", f"{lv}.x0",
                   "--iters", "2", "--trace", str(tmp_path / "debug.csv")]
    script = ("import os, sys\nfrom qnls.cli import main\n"
              f"assert [main(c) for c in {commands!r}] == [0, 0, 0]\n"
              "os.environ['QNLS_DEBUG'] = '1'\n"
              f"assert main({debug_solve!r}) == 0\n"
              f"{NUMPY_EXTRAS}\n"
              "assert not extras, extras\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {k: v for k, v in os.environ.items() if k != "QNLS_DEBUG"}
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def assert_poly_solve_imports_no_scipy(command):
    """Runs a poly-backend solve in a fresh process: it exits 0 and loads
    none of scipy, numpy.polynomial and numpy.ma."""
    script = ("import sys\nfrom qnls.cli import main\n"
              f"assert main({command!r}) == 0\n"
              f"{NUMPY_EXTRAS}\n"
              "assert 'numpy.polynomial' not in extras, extras\n"
              "assert 'numpy.ma' not in extras, extras\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {k: v for k, v in os.environ.items() if k != "QNLS_DEBUG"}
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_poly_solve_imports_no_scipy(tmp_path):
    # the closed-form inverse polynomial is built and evaluated by its own
    # recurrence, with no Chebyshev basis, so it loads no numpy.polynomial
    lv = lv_file(tmp_path)
    assert_poly_solve_imports_no_scipy(
        ["solve", "--problem", str(lv), "--x0", f"{lv}.x0", "--backend",
         "poly", "--sigma-floor", "0.05", "--eps", "3e-2", "--iters", "3",
         "--trace", str(tmp_path / "t.csv")])


def test_poly_solve_at_the_default_eps_needs_no_lp(tmp_path):
    # per-step target 6.7e-8 at sigma 0.025: the degree-689 q breaks the unit
    # cap and is scaled under it, where a capped LP took 15 s and 800 MB
    lv = lv_file(tmp_path)
    assert_poly_solve_imports_no_scipy(
        ["solve", "--problem", str(lv), "--x0", f"{lv}.x0", "--backend",
         "poly", "--sigma-floor", "0.05", "--iters", "5",
         "--trace", str(tmp_path / "t.csv")])


def test_a_poly_solve_whose_degree_passes_the_ceiling_is_one_error(tmp_path):
    # sigma' below 1e-30 needs degree about 1e31: refused before any build,
    # where a degree-3 q near 0 let the residuals grow to 1e11 with exit 0
    lv = lv_file(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "QNLS_DEBUG"}
    proc = subprocess.run(
        [sys.executable, "-m", "qnls.cli", "solve", "--problem", str(lv),
         "--x0", f"{lv}.x0", "--backend", "poly", "--sigma-floor", "1e-30",
         "--iters", "2"], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "error: inverse polynomial for sigma=")
    assert "above the ceiling 4095" in lines[0]


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


def test_a_failed_debug_check_exits_4(tmp_path, capsys, monkeypatch):
    # a QNLS_DEBUG=1 solve whose Jacobian sandwich is checked against a
    # doubled J: the encoding's verify raises out of the step to main
    import qnls.quantum_newton as qn

    real = qn.jacobian
    monkeypatch.setattr(qn, "jacobian", lambda system, x: 2.0 * real(system, x))
    monkeypatch.setenv("QNLS_DEBUG", "1")
    path = lv_file(tmp_path)
    rc = main(["solve", "--problem", str(path), "--iters", "1",
               "--x0", str(path) + ".x0", "--trace", str(tmp_path / "t.csv")])
    assert rc == 4
    assert capsys.readouterr().err.startswith(
        "invariant violation: encoded block off intended by ")


def test_a_conditioning_error_out_of_a_command_exits_3(tmp_path, capsys,
                                                       monkeypatch):
    import qnls.cli as cli

    def ill_conditioned(*args):
        raise ConditioningError("injected")

    monkeypatch.setattr(cli, "random_system", ill_conditioned)
    rc = main(["gen-random", "--n", "2", "--p", "1", "--s", "1", "--seed", "1",
               "--out", str(tmp_path / "r.qnls")])
    assert rc == 3
    assert capsys.readouterr().err == "numerical failure: injected\n"


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


@pytest.mark.parametrize("command, option", [
    ("solve", "--seed"), ("resources", "--seed"), ("check", "--seed"),
    ("gen-random", "--seed"), ("gen-gpe", "--psi-seed")])
def test_negative_seed_is_usage_error(tmp_path, capsys, command, option):
    # numpy's generators reject a negative seed; the parser says so first
    path = lv_file(tmp_path)
    args = {
        "solve": ["--problem", str(path), "--iters", "1"],
        "resources": ["--problem", str(path), "--iters", "1"],
        "check": ["--problem", str(path), "--suite", "all"],
        "gen-random": ["--n", "2", "--p", "1", "--s", "1",
                       "--out", str(tmp_path / "r.qnls")],
        "gen-gpe": ["--nx", "4", "--g", "1", "--dt", "0.05", "--dx", "0.5",
                    "--out", str(tmp_path / "g.qnls")],
    }[command]
    capsys.readouterr()
    assert main([command, *args, option, "-1"]) == 1
    err = capsys.readouterr().err
    assert f"usage error: argument {option}: must be non-negative" in err
    assert not (tmp_path / "r.qnls").exists()
    assert not (tmp_path / "g.qnls").exists()


@pytest.mark.parametrize("kind", ["homogeneous", "mixed"])
def test_empty_problem_is_parse_error(tmp_path, capsys, kind):
    path = tmp_path / "empty.qnls"
    path.write_text(f"version 1\nkind {kind}\nn 0\np 1\ns 0\n")
    for args in (["solve", "--problem", str(path), "--iters", "1",
                  "--backend", "classical"],
                 ["check", "--problem", str(path), "--suite", "all"]):
        assert main(args) == 2
        assert "parse error" in capsys.readouterr().err


def test_inhomogeneous_kind_is_unknown(tmp_path, capsys):
    # (c^T x) prod_k (x^T B_k x) terms have no encoded pipeline
    path = tmp_path / "inh.qnls"
    path.write_text("version 1\nkind inhomogeneous\nn 1\np 1\ns 1\n"
                    "equation 0\nterm\nc 0 1\nend\n")
    run = ["--problem", str(path), "--iters", "1"]
    for args in ([["solve", *run, "--backend", backend]
                  for backend in ("exact", "poly", "classical")]
                 + [["resources", *run],
                    ["check", "--problem", str(path), "--suite", "all"]]):
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "parse error: unknown kind 'inhomogeneous'\n")


@pytest.mark.parametrize("line", ["term", "c 0 1", "B 0 0 0 1"])
@pytest.mark.parametrize("kind", ["homogeneous", "mixed"])
def test_term_lines_are_unknown_directives(tmp_path, capsys, kind, line):
    path = tmp_path / "term.qnls"
    path.write_text(f"version 1\nkind {kind}\nn 1\np 1\ns 1\n"
                    f"equation 0\na 0 0 1\n{line}\nend\n")
    assert main(["solve", "--problem", str(path), "--iters", "1"]) == 2
    assert capsys.readouterr().err == (
        f"parse error: line 8: unknown directive {line.split()[0]!r}\n")


def test_repeated_const_is_parse_error(tmp_path, capsys):
    # as a repeated 'lin' or 'a' entry is: the constants are not summed
    path = tmp_path / "const.qnls"
    path.write_text("version 1\nkind mixed\nn 1\np 1\ns 0\n"
                    "equation 0\nconst 0.1\nconst 0.2\nend\n")
    assert main(["solve", "--problem", str(path), "--iters", "1"]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 8: repeated 'const' in equation 0\n")


@pytest.mark.parametrize("backend", ["exact", "poly", "classical"])
@pytest.mark.parametrize("const", ["", "const 0.1\n"], ids=["zero", "const"])
def test_a_system_without_a_jacobian_part_halts_at_step_0(tmp_path, capsys,
                                                           const, backend):
    # J = 0, so no Newton step exists; classically F = 0 needs none
    path = tmp_path / "flat.qnls"
    path.write_text("version 1\nkind mixed\nn 2\np 1\ns 0\n"
                    f"equation 0\n{const}end\nequation 1\nend\n")
    trace = tmp_path / "t.csv"
    rc = main(["solve", "--problem", str(path), "--iters", "3",
               "--backend", backend, "--trace", str(trace)])
    assert len(read_rows(trace)) == 1
    if backend != "classical":
        expected = (3, "halted: the system has no linear or nonlinear part: "
                       "its Jacobian is zero\n")
    elif const:
        expected = (3, "halted: Jacobian pivot below 1e-12\n")
    else:
        expected = (0, "")
    assert (rc, capsys.readouterr().err) == expected


@pytest.mark.parametrize("kind, block, note", [
    ("homogeneous", "a {i} {i} 4\n", "note: canonical rescale factor 0.25\n"),
    ("mixed", "a {i} {i} {v}\nconst 0.1\n",
     "note: per-row canonical factors in [0.25, 0.5]\n")],
    ids=["homogeneous", "mixed"])
def test_non_canonical_problem_prints_its_rescale_note(tmp_path, capsys, kind,
                                                       block, note):
    # entries above 1 are rescaled on load, and solve says by how much
    path = tmp_path / "big.qnls"
    eqs = "".join(f"equation {i}\n" + block.format(i=i, v=2 + 2 * i) + "end\n"
                  for i in range(2))
    path.write_text(f"version 1\nkind {kind}\nn 2\np 1\ns 1\n{eqs}")
    guess = tmp_path / "x0.txt"
    guess.write_text("0.5\n0.4\n")
    rc = main(["solve", "--problem", str(path), "--iters", "1",
               "--x0", str(guess), "--backend", "classical"])
    out, err = capsys.readouterr()
    assert rc == 0 and out.startswith("iter,residual")
    assert note in err


@pytest.mark.parametrize("command, base", [
    ("gen-lv", ["--alpha", "1", "--beta", "1", "--gamma", "1", "--delta", "1",
                "--dt", "0.1", "--steps", "3", "--v0", "1.2", "--p0", "0.9"]),
    ("gen-gpe", ["--nx", "3", "--g", "1", "--dt", "0.05", "--dx", "0.5"])])
def test_gen_given_scale_divides_the_guess(tmp_path, command, base):
    # a given --scale is the variable scale: the guess is the physical one
    # divided by it (GPE keeps its auxiliary unknown at its pin)
    guesses = {}
    for scale in ("2", "4"):
        out = tmp_path / f"s{scale}.qnls"
        assert main([command, *base, "--scale", scale, "--out", str(out)]) == 0
        guesses[scale] = np.loadtxt(str(out) + ".x0")
    head = slice(None) if command == "gen-lv" else slice(0, -1)
    assert np.allclose(guesses["2"][head], 2.0 * guesses["4"][head],
                       rtol=1e-15, atol=0)
    if command == "gen-lv":
        assert np.allclose(4.0 * guesses["4"], [1.2] * 3 + [0.9] * 3,
                           rtol=1e-15, atol=0)
    else:
        assert guesses["2"][-1] == guesses["4"][-1]


def noroot_solve(tmp_path, guess, *args):
    """main's exit code on f = x^2 + 0.01 (no real root) from the guess."""
    path = tmp_path / "noroot.qnls"
    path.write_text("version 1\nkind mixed\nn 1\np 1\ns 1\n"
                    "equation 0\nconst 0.01\na 0 0 2\nend\n")
    (tmp_path / "x0.txt").write_text(f"{guess}\n")
    return main(["solve", "--problem", str(path), "--iters", "3", "--x0",
                 str(tmp_path / "x0.txt"), *args])


def test_solve_classical_singular_jacobian_halts_with_partial_trace(tmp_path,
                                                                   capsys):
    # from x0 = 0.1 the first Newton step lands on x = 0 (to roundoff),
    # where the Jacobian 2x is singular
    trace = tmp_path / "t.csv"
    rc = noroot_solve(tmp_path, 0.1, "--backend", "classical",
                      "--trace", str(trace))
    assert rc == 3
    assert "halted: Jacobian pivot below 1e-12" in capsys.readouterr().err
    rows = read_rows(trace)
    assert [r["iter"] for r in rows] == ["0", "1"]
    assert abs(float(rows[1]["x_norm_sq"])) < 1e-24


NOROOT_NOTE = "note: per-row canonical factors in [0.5, 0.5]\n"


def test_solve_classical_non_finite_residual_halts_with_partial_trace(
        tmp_path, capsys):
    # F(1e160) overflows to inf; the classical route halts at that iterate,
    # keeps its row and warns of nothing (scipy's lu_solve raised a
    # ValueError on the inf, after numpy's overflow warnings)
    trace = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = noroot_solve(tmp_path, 1e160, "--backend", "classical",
                          "--trace", str(trace))
    assert rc == 3
    assert capsys.readouterr().err == (
        NOROOT_NOTE + "halted: F(x) or J(x) not finite at iterate 0\n")
    rows = read_rows(trace)
    assert [(r["iter"], r["residual"], r["x_norm_sq"]) for r in rows] == [
        ("0", "inf", "inf")]


def test_a_residual_past_the_plain_norms_overflow_stays_finite(tmp_path,
                                                               capsys):
    # F(1e154) = 5e307 is finite but its square overflows: the residual is
    # read through max|F_i|, where the plain norm wrote inf on every row
    trace = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = noroot_solve(tmp_path, 1e154, "--backend", "classical",
                          "--trace", str(trace))
    assert rc == 0
    assert capsys.readouterr().err == NOROOT_NOTE
    residuals = [float(r["residual"]) for r in read_rows(trace)]
    assert residuals == pytest.approx([5e307, 1.25e307, 3.125e306, 7.8125e305],
                                      rel=1e-12)


def test_a_guess_whose_norm_overflows_is_one_input_error(tmp_path, capsys):
    # ||1e160||^2 overflows inside the norm, which warned before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = noroot_solve(tmp_path, 1e160, "--backend", "exact")
    assert rc == 1
    assert capsys.readouterr().err == (
        NOROOT_NOTE + "error: ||x|| = inf exceeds 1\n")


def test_classical_trace_stops_at_an_exact_root(tmp_path):
    # f_i = 0.5 x_i + 0.1 is linear, so classical Newton lands on the root
    # in one step and stops at its residual 0; the exact backend writes a
    # row for every iterate
    path = tmp_path / "linear.qnls"
    path.write_text("version 1\nkind mixed\nn 2\np 1\ns 1\n" + "".join(
        f"equation {i}\nconst 0.1\nlin {i} 0.5\nend\n" for i in range(2)))
    guess = tmp_path / "x0.txt"
    guess.write_text("0.3\n0.3\n")
    rows = {}
    for backend in ("classical", "exact"):
        trace = tmp_path / f"{backend}.csv"
        assert main(["solve", "--problem", str(path), "--iters", "3", "--x0",
                     str(guess), "--backend", backend, "--trace", str(trace)]) == 0
        rows[backend] = read_rows(trace)
    assert [r["iter"] for r in rows["classical"]] == ["0", "1"]
    assert [r["iter"] for r in rows["exact"]] == ["0", "1", "2", "3"]
    assert float(rows["classical"][1]["residual"]) == 0.0


def test_resources_without_out_prints_the_report(tmp_path, capsys):
    path = lv_file(tmp_path)
    run = ["--problem", str(path), "--iters", "2", "--x0", str(path) + ".x0",
           "--backend", "classical"]
    rep = tmp_path / "rep.txt"
    capsys.readouterr()
    assert main(["resources", *run]) == 0
    printed = capsys.readouterr().out
    assert main(["resources", *run, "--out", str(rep)]) == 0
    assert printed == rep.read_text() and printed.startswith("problem.kind = ")


def test_resources_says_why_it_halted(tmp_path, capsys):
    # x0 = (0, 0.5) has no overlap with e1, so both commands halt at step 0
    # and print the same reason
    path = tmp_path / "lin.qnls"
    path.write_text("version 1\nkind mixed\nn 2\np 1\ns 1\n"
                    "equation 0\nlin 0 0.5\nlin 1 0.2\nconst 0.1\nend\n"
                    "equation 1\nlin 0 0.2\nlin 1 0.5\nconst -0.15\nend\n")
    guess = tmp_path / "lin0.x0"
    guess.write_text("0\n0.5\n")
    run = ["--problem", str(path), "--x0", str(guess), "--iters", "3",
           "--gamma-ref", "e1"]
    expected = (3, "halted: overlap 0.00e+00 below 0.0001\n")
    assert (main(["solve", *run, "--trace", str(tmp_path / "t.csv")]),
            capsys.readouterr().err) == expected
    assert (main(["resources", *run, "--out", str(tmp_path / "r.txt")]),
            capsys.readouterr().err) == expected
