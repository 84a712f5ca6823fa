"""Batch command-line frontend.

Commands: solve, check, gen-gpe, gen-lv, gen-random, resources.
Exit codes: 0 success, 1 usage, 2 parse failure, 3 numerical failure,
4 invariant/check failure.  QNLS_DEBUG=1 turns on intended-block
verification inside every encoding operation.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from . import __version__
from .block_encoding import CostLedger
from .classical_oracle import classical_newton
from .errors import (ConditioningError, DegenerateReferenceError, InputError,
                     InvariantViolationError, ParseError, QnlsError,
                     SingularJacobianError)
from .poly_system import (PolynomialSystem, canonicalize, canonicalize_mixed,
                          euler_check, evaluate, system_evaluators,
                          system_parts)
from .problem_io import (atomic_write, parse_problem_file, problem_kind,
                         write_problem_file)
from .problems import (GpeParams, LvParams, gpe_default_guess, gpe_discretize,
                       lv_default_guess, lv_discretize, random_system)
from .quantum_newton import NewtonTrace, TraceRow, newton_solve
from .svt import InversionConfig, degree_budget

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def nonnegative_int(text: str) -> int:
    """argparse type of the seed options: numpy rejects a negative seed."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="qnls", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the Newton solver on a problem file")
    _add_run_args(solve)
    solve.add_argument("--trace", help="trace CSV output path")
    solve.add_argument("--report", help="resource report output path")

    check = sub.add_parser("check", help="run invariant suites on a problem file")
    check.add_argument("--problem", required=True)
    check.add_argument("--suite", required=True,
                       help="comma list of appendixA,appendixB,euler,gradient,"
                            "scaling or 'all'")
    check.add_argument("--seed", type=nonnegative_int, default=0)

    lv = sub.add_parser("gen-lv", help="generate a Lotka-Volterra problem")
    for name in ("alpha", "beta", "gamma", "delta", "dt", "v0", "p0"):
        lv.add_argument(f"--{name}", type=float, required=True)
    lv.add_argument("--steps", type=int, required=True)
    lv.add_argument("--scale", type=float, default=None)
    lv.add_argument("--out", required=True)

    gpe = sub.add_parser("gen-gpe", help="generate a Gross-Pitaevskii problem")
    gpe.add_argument("--nx", type=int, required=True)
    gpe.add_argument("--hbar2m", type=float, default=0.5,
                     help="hbar^2 / 2m coefficient")
    gpe.add_argument("--g", type=float, required=True)
    gpe.add_argument("--vconst", type=float, default=0.0,
                     help="constant potential value")
    gpe.add_argument("--dt", type=float, required=True)
    gpe.add_argument("--dx", type=float, required=True)
    gpe.add_argument("--psi-seed", type=nonnegative_int, default=0,
                     help="seed for the random previous slice")
    gpe.add_argument("--scale", type=float, default=None)
    gpe.add_argument("--out", required=True)

    rnd = sub.add_parser("gen-random", help="generate a random homogeneous system")
    rnd.add_argument("--n", type=int, required=True)
    rnd.add_argument("--p", type=int, required=True)
    rnd.add_argument("--s", type=int, required=True)
    rnd.add_argument("--seed", type=nonnegative_int, required=True)
    rnd.add_argument("--out", required=True)

    res = sub.add_parser("resources", help="ledger-only run plus classical count")
    _add_run_args(res)
    res.add_argument("--out", help="report output path")
    return parser


def _add_run_args(p) -> None:
    p.add_argument("--problem", required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--backend", choices=("exact", "poly", "classical"),
                   default="exact")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--sigma-floor", type=float, default=1e-3)
    p.add_argument("--x0", help="initial guess file (one value per line)")
    p.add_argument("--seed", type=nonnegative_int, default=0,
                   help="seed for the random initial guess")
    p.add_argument("--gamma-ref", choices=("e1", "x0", "previous"),
                   default="previous")


def _load_run(args):
    """Check the run options; return the canonical problem and rescale note."""
    if args.iters < 0:
        raise InputError("iterations must be non-negative")
    InversionConfig(args.sigma_floor, args.eps)   # range-checks both
    problem = parse_problem_file(args.problem)
    factors_note = None
    if isinstance(problem, PolynomialSystem):
        problem, factor = canonicalize(problem)
        if factor != 1.0:
            factors_note = f"canonical rescale factor {factor:.6g}"
    else:
        problem, factors = canonicalize_mixed(problem)
        if np.any(factors != 1.0):
            factors_note = (f"per-row canonical factors in "
                            f"[{factors.min():.6g}, {factors.max():.6g}]")
    return problem, factors_note


def _initial_guess(problem, args) -> np.ndarray:
    if args.x0:
        try:
            with warnings.catch_warnings():   # an empty file warns, then fails below
                warnings.simplefilter("ignore", UserWarning)
                vals = np.loadtxt(args.x0, ndmin=1)
        except ValueError as exc:     # UnicodeDecodeError included
            raise InputError(f"malformed guess file: {exc}") from exc
        if vals.shape != (problem.n,):
            raise InputError(f"guess file must hold {problem.n} values")
        if not np.all(np.isfinite(vals)):
            raise InputError("guess file values must be finite")
        return vals
    rng = np.random.default_rng(args.seed)
    v = rng.normal(size=problem.n)
    return 0.9 * v / np.linalg.norm(v)


def _run_solver(problem, args):
    x0 = _initial_guess(problem, args)
    if args.backend == "classical":
        ledger = CostLedger()
        f_eval, j_eval = system_evaluators(problem)
        try:
            tr, halted = classical_newton(f_eval, j_eval, x0, args.iters), None
        except SingularJacobianError as exc:
            tr, halted = exc.partial, str(exc)
        lu, grad, ev = _classical_counts(problem)
        steps = len(tr.iterates) - 1
        ledger.charge("classical_lu", primitive=float(steps * lu))
        ledger.charge("classical_gradient", primitive=float(steps * grad))
        ledger.charge("classical_evaluate", oracle=float(steps * ev))
        # the counts are integers far below 2^53 for any n whose dense
        # Jacobian fits in memory, so these products equal the running sums
        rows = [TraceRow(k, float(r), float(np.dot(x, x)), None, None,
                         float(k * ev), float(k * (lu + grad)), 0.0)
                for k, (x, r) in enumerate(zip(tr.iterates, tr.residuals))]
        return NewtonTrace(rows, halted), ledger, 0.0
    inv_cfg = InversionConfig(args.sigma_floor, args.eps, args.backend)
    state, trace = newton_solve(problem, x0, args.iters, inv_cfg,
                                gamma_reference=args.gamma_ref)
    return trace, state.ledger, state.be_xxT.cost


def _problem_nps(problem) -> tuple[int, int, int]:
    nl = system_parts(problem)[0]
    if nl is None:
        return problem.n, 1, 1
    return problem.n, nl.p, nl.sparsity


def _classical_counts(problem) -> tuple[int, int, int]:
    """Per-iteration classical counts: LU n^3, gradient p^2 n s, F n^{p+1} s."""
    n, p, s = _problem_nps(problem)
    return n ** 3, p * p * n * s, n ** (p + 1) * s


def _report_text(problem, args, ledger: CostLedger, dominant: float) -> str:
    n, p, s = _problem_nps(problem)
    t = args.iters
    lines = [
        f"problem.kind = {problem_kind(problem)}",
        f"problem.n = {n}",
        f"problem.p = {p}",
        f"problem.s = {s}",
        f"run.iters = {t}",
        f"run.backend = {args.backend}",
        f"run.eps = {args.eps:.17g}",
        f"run.sigma_floor = {args.sigma_floor:.17g}",
        f"ledger.oracle_queries = {ledger.oracle_queries:.17g}",
        f"ledger.primitive_ops = {ledger.primitive_ops:.17g}",
        f"ledger.amplification_cost = {ledger.amplification_cost:.17g}",
    ]
    for key in sorted(ledger.notes):
        lines.append(f"ledger.note.{key} = {ledger.notes[key]:.17g}")
    lines.append(f"quantum.dominant_term = {dominant:.17g}")
    lines.append(
        "quantum.inversion_charge_unit = "
        f"{degree_budget(args.sigma_floor, args.eps):.17g}")
    lines.append("classical.K = not represented")
    lu, grad, ev = _classical_counts(problem)
    lines.append(f"classical.n3 = {lu}")
    lines.append(f"classical.Kp2ns_unit = {grad}")
    lines.append(f"classical.np1s = {ev}")
    total = lu + grad + ev
    lines.append(f"classical.total_per_iter = {total}")
    lines.append(f"classical.total = {t * total}")
    return "\n".join(lines) + "\n"


def _cmd_solve(args) -> int:
    problem, note = _load_run(args)
    if problem_kind(problem) == "homogeneous":
        print("warning: purely homogeneous systems contract toward the "
              "origin under Newton; use a mixed problem unless the "
              "contraction itself is under test", file=sys.stderr)
    if note:
        print(f"note: {note}", file=sys.stderr)
    trace, ledger, dominant = _run_solver(problem, args)
    if args.trace:
        atomic_write(args.trace, trace.to_csv())
    else:
        sys.stdout.write(trace.to_csv())
    if args.report:
        atomic_write(args.report, _report_text(problem, args, ledger, dominant))
    if trace.halted:
        print(f"halted: {trace.halted}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_resources(args) -> int:
    problem, _ = _load_run(args)
    trace, ledger, dominant = _run_solver(problem, args)
    text = _report_text(problem, args, ledger, dominant)
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_NUMERIC if trace.halted else EXIT_OK


_SUITES = ("appendixA", "appendixB", "euler", "gradient", "scaling")


def _cmd_check(args) -> int:
    names = [s for s in args.suite.split(",") if s]
    if not names:
        print("error: empty suite selector", file=sys.stderr)
        return EXIT_USAGE
    if names == ["all"]:
        names = list(_SUITES)
    for name in names:
        if name not in _SUITES:
            print(f"error: unknown suite {name!r}", file=sys.stderr)
            return EXIT_USAGE
    problem = parse_problem_file(args.problem)
    rng = np.random.default_rng(args.seed)
    ok = True
    for name in names:
        passed, detail = _run_check(name, problem, rng)
        ok = ok and passed
        print(f"CHECK {name} {'PASS' if passed else 'FAIL'} {detail}")
    return EXIT_OK if ok else EXIT_CHECK


def _run_check(name: str, problem, rng) -> tuple[bool, str]:
    nl = system_parts(problem)[0]
    if nl is None:
        return True, "no homogeneous part"
    if name == "appendixA":
        lhs = nl.p * nl.max_norm()
        rhs = np.sqrt(nl.n)
        return lhs <= rhs + 1e-9, f"p*max||A|| = {lhs:.6g} vs sqrt(n) = {rhs:.6g}"
    if name == "appendixB":
        worst = 0.0
        bound_ref = np.sqrt(nl.n) * nl.max_norm()
        for _ in range(20):
            x = rng.normal(size=nl.n)
            x *= rng.uniform(0.1, 1.0) / np.linalg.norm(x)
            fn = np.linalg.norm(evaluate(nl, x))
            bound = bound_ref * np.linalg.norm(x) ** (2 * nl.p)
            worst = max(worst, fn - bound)
        return worst <= 1e-9, f"max ||F|| excess over bound = {worst:.3g}"
    if name == "euler":
        worst = 0.0
        for _ in range(20):
            x = rng.normal(size=nl.n)
            defect = euler_check(nl, x)
            rel = defect / max(1.0, np.linalg.norm(evaluate(nl, x)))
            worst = max(worst, rel)
        return worst <= 1e-10, f"max relative Euler defect = {worst:.3g}"
    if name == "gradient":
        return _check_gradient(nl, rng)
    if name == "scaling":
        worst = 0.0
        for _ in range(10):
            x = rng.normal(size=nl.n)
            lam = rng.uniform(0.2, 2.0)
            lhs = evaluate(nl, lam * x)
            rhs = lam ** (2 * nl.p) * evaluate(nl, x)
            worst = max(worst, np.linalg.norm(lhs - rhs)
                        / max(1.0, np.linalg.norm(rhs)))
        return worst <= 1e-10, f"max relative scaling defect = {worst:.3g}"
    raise InputError(f"unknown check {name}")


def _check_gradient(system, rng) -> tuple[bool, str]:
    """Each row i of J against central differences of f_i, at one random x
    per row."""
    f_eval, j_eval = system_evaluators(system)
    n, h = system.n, 1e-5
    worst = 0.0
    for i in range(n):
        x = rng.uniform(-1.0, 1.0, n)
        grad = j_eval(x)[i]
        fd = np.zeros(n)
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            fd[k] = (f_eval(x + e)[i] - f_eval(x - e)[i]) / (2 * h)
        worst = max(worst, np.linalg.norm(grad - fd)
                    / max(1.0, np.linalg.norm(fd)))
    return worst <= 1e-6, f"max relative FD gap = {worst:.3g}"


def _write_with_guess(problem, guess: np.ndarray, out: str) -> None:
    """Write the problem file and its one-value-per-line `.x0` guess file."""
    write_problem_file(problem, out)
    atomic_write(out + ".x0", "\n".join(f"{v:.17g}" for v in guess) + "\n")


def _cmd_gen_lv(args) -> int:
    params = LvParams(args.alpha, args.beta, args.gamma, args.delta,
                      args.dt, args.steps, args.v0, args.p0, args.scale)
    _write_with_guess(lv_discretize(params), lv_default_guess(params), args.out)
    return EXIT_OK


def _cmd_gen_gpe(args) -> int:
    rng = np.random.default_rng(args.psi_seed)
    psi = rng.uniform(-0.5, 0.5, args.nx) + 1j * rng.uniform(-0.5, 0.5, args.nx)
    params = GpeParams(args.nx, args.hbar2m, args.g,
                       np.full(args.nx, args.vconst), args.dt, args.dx, psi,
                       args.scale)
    _write_with_guess(gpe_discretize(params), gpe_default_guess(params),
                      args.out)
    return EXIT_OK


def _cmd_gen_random(args) -> int:
    system = random_system(args.n, args.p, args.s, args.seed)
    write_problem_file(system, args.out)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "check": _cmd_check,
    "gen-lv": _cmd_gen_lv,
    "gen-gpe": _cmd_gen_gpe,
    "gen-random": _cmd_gen_random,
    "resources": _cmd_resources,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (SingularJacobianError, DegenerateReferenceError,
            ConditioningError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InputError, QnlsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
