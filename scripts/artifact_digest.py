#!/usr/bin/env python3
"""Digest of every CLI artifact of a fixed command set, for byte-identity checks.

Runs the README's CLI commands, the `--gamma-ref e1` and `x0` solves (LV
and GPE), a 3-step GPE solve (whose later steps reuse the encodings built
on the first), a classical `resources` run, an LV solve and the 3-step
GPE solve with QNLS_DEBUG=1 (set for those commands only), a solve and a
check of the random homogeneous problem, a one-step poly-backend LV solve
and a 3-step one whose fits are scaled under the unit cap, an LV
generation with a given `--scale`, a `resources` run that prints its
report, a solve of a mixed problem with entries above 1 that is rescaled
on load, and a solve of a mixed problem with only linear and constant
parts, once from a good guess and once from a guess orthogonal to e1 under
`--gamma-ref e1`, and a check of it (both problems written by this
script), through `qnls.cli.main` in a temporary directory. Prints one
`exit <code>  <command name>` line per command, then one
`<sha256>  <name>` line per written file and per captured stdout and
stderr. To check that a change keeps every artifact, run it against both
trees and compare:

    PYTHONPATH=old/src python3 scripts/artifact_digest.py > old.txt
    PYTHONPATH=new/src python3 scripts/artifact_digest.py > new.txt
    diff old.txt new.txt

`run_commands(workdir)` runs the commands and returns their exit codes
and artifacts. `write_golden(dest)` writes those artifacts as files, which
is how `tests/golden/` is regenerated:

    PYTHONPATH=src:scripts python3 -c \
        "import artifact_digest; artifact_digest.write_golden('tests/golden')"

Compare only digests made at the same OpenBLAS thread count: the
`lv_poly_cap.csv` and `lv_poly_cap.txt` hashes depend on it (94ba4409… and
1984097b… with OPENBLAS_NUM_THREADS=1, 8e62ee02… and a5fc5a84… with 2).
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from qnls import cli

# f_i = c_i x_i^2 + x_i - 0.2, c = (1.5, 1): rows rescaled by 1/3 and 1/2
NON_CANONICAL_MIXED = """version 1
kind mixed
n 2
p 1
s 1
equation 0
a 0 0 3
lin 0 1
const -0.2
end
equation 1
a 1 1 2
lin 1 1
const -0.2
end
"""
# f_i = 0.5 x_i + 0.2 x_{1-i} + b_i, b = (0.1, -0.15): no nonlinear part
LINEAR_MIXED = """version 1
kind mixed
n 2
p 1
s 1
equation 0
lin 0 0.5
lin 1 0.2
const 0.1
end
equation 1
lin 0 0.2
lin 1 0.5
const -0.15
end
"""
LV_RUN = "--problem lv.qnls --x0 lv.qnls.x0"
GPE_RUN = "--problem gpe.qnls --x0 gpe.qnls.x0 --iters 1"
COMMANDS = [
    ("gen-lv", "gen-lv --alpha 1 --beta 1 --gamma 1 --delta 1 --dt 0.1 "
               "--steps 3 --v0 1.2 --p0 0.9 --out lv.qnls"),
    ("gen-gpe", "gen-gpe --nx 4 --g 1 --dt 0.05 --dx 0.5 --out gpe.qnls"),
    ("gen-random", "gen-random --n 3 --p 2 --s 2 --seed 7 --out rnd.qnls"),
    ("solve", f"solve {LV_RUN} --iters 5 --trace trace.csv"),
    ("solve-classical", f"solve {LV_RUN} --iters 5 --backend classical"),
    ("check", "check --problem lv.qnls --suite all"),
    ("resources", f"resources {LV_RUN} --iters 3 --out report.txt"),
    ("resources-classical",
     f"resources {LV_RUN} --iters 3 --backend classical --out report_classical.txt"),
    ("solve-lv-e1", f"solve {LV_RUN} --iters 5 --gamma-ref e1 "
                    "--trace lv_e1.csv --report lv_e1.txt"),
    ("solve-lv-x0", f"solve {LV_RUN} --iters 5 --gamma-ref x0 "
                    "--trace lv_x0.csv --report lv_x0.txt"),
    # gamma = x_1 = 0.067 puts sigma near 2.5e-5, below the default floor
    ("solve-gpe-e1", f"solve {GPE_RUN} --gamma-ref e1 --sigma-floor 1e-5 "
                     "--trace gpe_e1.csv --report gpe_e1.txt"),
    ("solve-gpe-x0", f"solve {GPE_RUN} --gamma-ref x0 "
                     "--trace gpe_x0.csv --report gpe_x0.txt"),
    ("solve-gpe3", "solve --problem gpe.qnls --x0 gpe.qnls.x0 --iters 3 "
                   "--trace gpe3.csv --report gpe3.txt"),
    ("solve-lv-debug", f"solve {LV_RUN} --iters 5 --trace lv_debug.csv "
                       "--report lv_debug.txt"),
    # p = 2, so M merges two permuted copies of each A_i
    ("solve-gpe3-debug", "solve --problem gpe.qnls --x0 gpe.qnls.x0 --iters 3 "
                         "--trace gpe3_debug.csv --report gpe3_debug.txt"),
    # homogeneous: canonicalized on load, and warned about on solve
    ("solve-random", "solve --problem rnd.qnls --iters 2 --trace rnd.csv "
                     "--report rnd.txt"),
    ("check-random", "check --problem rnd.qnls --suite all"),
    # degree-67 inverse polynomial, one search
    ("solve-lv-poly", f"solve {LV_RUN} --iters 1 --backend poly "
                      "--sigma-floor 0.07 --eps 0.3 --trace lv_poly.csv "
                      "--report lv_poly.txt"),
    # the fits break the unit cap and are scaled under it
    ("solve-lv-poly-cap", f"solve {LV_RUN} --iters 3 --backend poly "
                          "--sigma-floor 0.05 --eps 5e-3 "
                          "--trace lv_poly_cap.csv --report lv_poly_cap.txt"),
    ("gen-lv-scale", "gen-lv --alpha 1 --beta 1 --gamma 1 --delta 1 --dt 0.1 "
                     "--steps 3 --v0 1.2 --p0 0.9 --scale 4 --out lv4.qnls"),
    # the report goes to stdout
    ("resources-stdout", f"resources {LV_RUN} --iters 2"),
    # prints the per-row canonical factors note
    ("solve-mixed-rescaled", "solve --problem big.qnls --x0 big.qnls.x0 "
                             "--iters 3 --trace big.csv --report big.txt"),
    # encodes the constant part through be_outer with the reference
    ("solve-linear", "solve --problem lin.qnls --x0 lin.qnls.x0 --iters 3 "
                     "--trace lin.csv --report lin.txt"),
    # x0 = (0, 0.5) has no overlap with e1: halts at step 0
    ("solve-degenerate-e1", "solve --problem lin.qnls --x0 lin0.qnls.x0 "
                            "--iters 3 --gamma-ref e1 --trace lin0.csv "
                            "--report lin0.txt"),
    # every suite finds no homogeneous part
    ("check-linear", "check --problem lin.qnls --suite all"),
]
# commands run with QNLS_DEBUG=1, which every encoding verifies under
DEBUG_COMMANDS = {"solve-lv-debug", "solve-gpe3-debug"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(workdir) -> tuple[dict[str, int], dict[str, bytes]]:
    """Write the input files into workdir (made if missing, else empty) and
    run COMMANDS there.

    Returns each command's exit code by name, and every artifact by name:
    each file left in workdir, then `<command>.stdout` and
    `<command>.stderr`.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        Path("big.qnls").write_text(NON_CANONICAL_MIXED)
        Path("big.qnls.x0").write_text("0.3\n0.2\n")
        Path("lin.qnls").write_text(LINEAR_MIXED)
        Path("lin.qnls.x0").write_text("0.3\n0.2\n")
        Path("lin0.qnls.x0").write_text("0\n0.5\n")
        exits, streams = {}, {}
        for name, cmd in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            debug = {"QNLS_DEBUG": "1"} if name in DEBUG_COMMANDS else {}
            with (mock.patch.dict(os.environ, debug),
                  contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                exits[name] = cli.main(cmd.split())
            streams[f"{name}.stdout"] = out.getvalue().encode()
            streams[f"{name}.stderr"] = err.getvalue().encode()
    finally:
        os.chdir(home)
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    return exits, files | streams


def write_golden(dest) -> None:
    """Write every artifact of COMMANDS into dest under its name, and the
    exit codes as `exit_codes.txt` in this script's `exit` lines.  A file
    of dest that no artifact names is left as it is."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        exits, artifacts = run_commands(tmp)
    for name, data in artifacts.items():
        (dest / name).write_bytes(data)
    (dest / "exit_codes.txt").write_text(
        "".join(f"exit {rc}  {name}\n" for name, rc in exits.items()))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        exits, artifacts = run_commands(tmp)
    for name, rc in exits.items():
        print(f"exit {rc}  {name}")
    for name, data in artifacts.items():
        print(f"{_sha(data)}  {name}")


if __name__ == "__main__":
    main()
