#!/usr/bin/env python3
"""Run tier 1 against a fixed list of one-line mutants of the package.

    python3 scripts/mutants.py [PYTEST_ARGS...]

It first checks that every mutant's fragment occurs exactly once in its
file, and exits 2 at once, naming each fragment that is missing or
repeated, since the list no longer matches the source. Then for each
mutant it copies the tree to a temporary directory, replaces the fragment,
and runs the tier-1 command there with `-x -q`:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors -x

Extra arguments go to pytest after those, for example test files that
narrow the run. It prints one `<mutant>: killed by <test>` or
`<mutant>: survived` line per mutant, and exits 1 when any survived. It
imports only the standard library; the runs need pytest and the package's
test dependencies.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BE = "src/qnls/block_encoding.py"
PS = "src/qnls/poly_system.py"
QN = "src/qnls/quantum_newton.py"
SVT = "src/qnls/svt.py"
CO = "src/qnls/classical_oracle.py"

# (name, file, fragment, replacement): each fragment occurs once in its file
MUTANTS = [
    # the cost and error budgets
    ("amplify-to-half-alpha", QN,
     "factor = be.alpha if nrm is None else min(be.alpha, ",
     "factor = be.alpha / 2 if nrm is None else min(be.alpha / 2, "),
    ("degree-budget-without-sigma-in-log", SVT,
     "_log2(1.0 / (sigma * _eps_units(eps)))", "_log2(1.0 / _eps_units(eps))"),
    ("product-eps-one-term", BE,
     "left.alpha * right.eps + right.alpha * left.eps,",
     "left.alpha * right.eps,"),
    ("sum-eps-max", BE,
     "sum(t.eps for t in terms)", "max(t.eps for t in terms)"),
    ("invert-eps-not-divided", SVT,
     "eps_out = be.eps / sigma + ", "eps_out = be.eps + "),
    ("product-cost-without-one", BE,
     "left.cost + right.cost + 1.0)", "left.cost + right.cost)"),
    ("tensor-cost-without-one", BE,
     "sum(f.cost for f in factors) + 1.0)", "sum(f.cost for f in factors))"),
    ("sum-charge-one", BE,
     'ledger.charge("sum", primitive=float(m))',
     'ledger.charge("sum", primitive=1.0)'),
    ("amplify-charge-without-factor", BE,
     "charge = factor * _log2(", "charge = _log2("),
    ("norm-removal-without-eps-units", QN,
     "/ (nx2 * _eps_units(cfg.eps)))", "/ nx2)"),
    ("invert-charge-without-cost", SVT,
     "charge = be.cost * degree_budget(", "charge = degree_budget("),
    # the one desk-scale guard
    ("cap-guard-refuses-the-cap", PS,
     "d <= DESK_SCALE_CAP", "d < DESK_SCALE_CAP"),
    # the one spectral norm and the bounds its callers ask it with
    ("spectral-norm-frobenius", PS,
     "nrm = np.linalg.norm(m, 2)", "nrm = np.linalg.norm(m)"),
    ("overflowed-frobenius-answers-inf", PS,
     "if not np.isfinite(fro) and not np.isfinite(vals).all():",
     "if not np.isfinite(fro):"),
    ("sparse-col-sums-read-as-rows", PS,
     "(np.bincount(c, a), np.bincount(r, a))",
     "(np.bincount(r, a), np.bincount(r, a))"),
    ("canonical-bound-without-p", PS,
     "_norm_above(a, np.sqrt(n) / p * (1.0 - 1e-12))",
     "_norm_above(a, np.sqrt(n) * (1.0 - 1e-12))"),
    ("amplify-bound-without-alpha", QN,
     "(1.0 - 1e-6) / be.alpha * (1.0 - 1e-12)",
     "(1.0 - 1e-6) * (1.0 - 1e-12)"),
    ("canonical-bound-without-margin", PS,
     "np.sqrt(n) / p * (1.0 - 1e-12))", "np.sqrt(n) / p)"),
    ("amplify-bound-without-margin", QN,
     "/ be.alpha * (1.0 - 1e-12))", "/ be.alpha)"),
    ("debug-m-bound-without-alpha", QN,
     "b.alpha * (1.0 + 1e-9)", "(1.0 + 1e-9)"),
    # the reads of a system's coefficients
    ("contraction-cols-read-as-rows", PS,
     "right[blocks.cols % d]", "right[blocks.rows % d]"),
    ("contraction-open-digit-leading", PS,
     "blocks.rows // d * k + r % k", "blocks.rows // d * k + r // (d // k)"),
    ("contraction-without-float-cast", PS,
     ").astype(np.float64).reshape(-1, k)", ").reshape(-1, k)"),
    ("matvec-without-minlength", PS,
     "self.vals * x[self.cols],\n                           minlength=self.dim_rows)",
     "self.vals * x[self.cols])"),
    # the step's sandwich corners and four-term update
    ("jacobian-corner-untransposed", QN,
     "_sandwich(jac.T / (", "_sandwich(jac / ("),
    ("jacobian-corner-n-for-sqrt-n", QN,
     "jac.T / (np.sqrt(n) * m.alpha)", "jac.T / (n * m.alpha)"),
    ("rhs-corner-b-on-the-left", QN, "half_s @ b", "b @ half_s"),
    ("reference-is-e1", QN,
     "        r = self.refu\n", "        r = np.eye(self.refu.size)[0]\n"),
    ("gamma-power-2p", QN,
     "ghat = gamma ** (2 * p_half - 1)", "ghat = gamma ** (2 * p_half)"),
    ("linear-part-rootn-is-n", QN, "rootn = np.sqrt(n)", "rootn = float(n)"),
    ("four-term-dd-sign", QN, "[1, -1, -1, 1]", "[1, -1, -1, -1]"),
    ("four-term-transpose-sign", QN, "[1, -1, -1, 1]", "[1, -1, 1, 1]"),
    # the classical route's halt on a non-finite F or J
    ("classical-without-finiteness-check", CO,
     "if not (np.isfinite(fx).all() and np.isfinite(j).all()):", "if False:"),
    # the exact step at the agreement criterion 7 asserts
    ("exact-kernel-scaled-1e-10", SVT,
     "np.clip(sigma / np.maximum(s, 1e-300), 0.0, 1.0)",
     "np.clip(sigma / np.maximum(s, 1e-300), 0.0, 1.0) * (1 - 1e-10)"),
    # the closed-form inverse polynomial and its unit-cap certificate
    ("degree-from-sigma-not-atanh", SVT,
     "(2.0 * np.arctanh(sigma)))", "(2.0 * sigma))"),
    ("recurrence-z-is-a-plus-by", SVT,
     "w = 2.0 * b * (s - x) * (s + x)", "w = 2.0 * b * (s * s + x * x)"),
    ("certificate-without-bernstein-margin", SVT,
     "max(above, on_grid / (1.0 - c))", "max(above, on_grid)"),
    ("cap-scaling-keeps-h", SVT,
     "scale * q.scale), _HEADROOM * scale", "scale * q.scale), _HEADROOM"),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                 ".pytest_cache", "*.egg-info", ".bench_build")


def run_mutant(path: str, fragment: str, replacement: str,
               pytest_args: list[str]) -> str | None:
    """The first failing test id (or the pytest exit status) of tier 1 on
    the mutated copy, or None when every test passes."""
    with tempfile.TemporaryDirectory(prefix="qnls-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        source = (tree / path).read_text()
        (tree / path).write_text(source.replace(fragment, replacement))
        env = dict(os.environ, PYTHONPATH="src")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors", "-x", "-p", "no:cacheprovider",
             *pytest_args],
            cwd=tree, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"pytest exit {run.returncode}"


def stale_fragments() -> list[str]:
    """One line per mutant whose fragment does not occur exactly once in
    its file of this tree."""
    stale = []
    for name, path, fragment, _ in MUTANTS:
        count = (ROOT / path).read_text().count(fragment)
        if count != 1:
            stale.append(f"{name}: {path}: fragment {fragment!r} occurs "
                         f"{count} times, not once")
    return stale


def main(argv: list[str]) -> int:
    if stale := stale_fragments():
        print("\n".join(stale), file=sys.stderr)
        return 2
    survivors = 0
    for name, path, fragment, replacement in MUTANTS:
        killer = run_mutant(path, fragment, replacement, argv)
        survivors += killer is None
        print(f"{name}: " + ("survived" if killer is None
                             else f"killed by {killer}"), flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
