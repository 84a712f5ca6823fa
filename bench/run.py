"""Benchmark of cold `qnls solve` runs, each checked against the classical oracle.

    python3 bench/run.py --workload gpe4_exact --seed 0 --seconds 25 --trace 0

A run generates its problem with `qnls gen-*` several times (set-up), then
starts one fresh `qnls solve` process after another until --seconds have
passed.  Every solve is gated: exit code 0, no `halted:` line, and a trace
whose residuals follow classical Newton.  With --trace 1 the run alternates
untraced and traced solves and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json.  bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# what the `qnls` console script runs
CONSOLE = "import sys; from qnls.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
RUN_LIMIT_S = 165.0          # a run must end within 180 s
EXACT_TOL = 1e-6             # acceptance criterion 7's per-iterate bound

BE_OPS = ("from_sparse", "from_vector", "outer", "product", "tensor", "sum",
          "amplify", "transpose", "rescale", "verify")
QN_PARTS = ("build_M", "build_A", "build_P", "gradient_sandwich",
            "rhs_sandwich", "recover_vector", "norm_estimate")


@dataclass(frozen=True)
class Workload:
    gen: tuple[str, ...]        # `qnls gen-*` arguments, without --out
    solve: tuple[str, ...]      # extra `qnls solve` arguments
    iters: int
    tol: float                  # oracle-gate tolerance per iterate
    debug: bool = False         # run the solve with QNLS_DEBUG=1


def _lv_gen(steps: int, seed: int) -> tuple[str, ...]:
    # seed 0 is the documented instance; other seeds move the initial
    # populations slightly, which keeps the poly backend's degree at 687
    rng = random.Random(seed)
    v0 = 1.2 + (rng.uniform(-0.02, 0.02) if seed else 0.0)
    p0 = 0.9 + (rng.uniform(-0.02, 0.02) if seed else 0.0)
    return ("gen-lv", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--delta", "1", "--dt", "0.1", "--steps", str(steps),
            "--v0", repr(v0), "--p0", repr(p0))


def make_workload(name: str, seed: int) -> Workload:
    if name == "gpe4_exact":
        return Workload(("gen-gpe", "--nx", "4", "--g", "1", "--dt", "0.05",
                         "--dx", "0.5", "--vconst", "0.2",
                         "--psi-seed", str(seed)),
                        ("--iters", "5"), 5, EXACT_TOL)
    if name == "lv_poly":
        return Workload(_lv_gen(3, seed),
                        ("--iters", "3", "--backend", "poly",
                         "--sigma-floor", "0.05", "--eps", "3e-2"), 3, 3e-2)
    if name == "lv_verify":
        return Workload(_lv_gen(8, seed), ("--iters", "5"), 5, EXACT_TOL,
                        debug=True)
    raise ValueError(f"unknown workload {name}")


WORKLOADS = ("gpe4_exact", "lv_poly", "lv_verify")


@dataclass
class Attempt:
    """One cold solve: its timings, gate failures and fingerprint."""

    traced: bool
    wall_s: float
    rss_mb: float
    check_s: float
    failures: list[str]
    fingerprint: dict
    layers: dict[str, float] | None = None    # per-layer metrics when traced


@dataclass
class Run:
    wl: Workload
    work: Path
    env: dict
    limit: float                # perf_counter value the run must end by
    attempts: list[Attempt] = field(default_factory=list)


def child_env(work: Path, debug: bool) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("QNLS_", "PYTHON"))}
    env.update({var: str(NPROC) for var in THREAD_VARS})
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(work))
    if debug:
        env["QNLS_DEBUG"] = "1"
    return env


def run_child(args: list[str], env: dict, cwd: Path, log: Path,
              timeout: float) -> tuple[int, float, float]:
    """Run the interpreter on args; return exit code, wall s and peak RSS MB.

    The child is waited for without being reaped first, so a timeout kill
    can never hit a recycled process id; reaping with wait4 then gives the
    child's own resource usage.
    """
    lock = threading.Lock()
    exited = False
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)

    def kill():
        with lock:
            if not exited:
                proc.kill()

    timer = threading.Timer(max(timeout, 1.0), kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            exited = True
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def report_degree(path: Path) -> float:
    """The ledger's summed inverse_poly_degree note, 0 when absent."""
    if not path.exists():
        return 0.0
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key == "ledger.note.inverse_poly_degree":
            return float(value)
    return 0.0


def set_up(run: Run, traced: bool) -> tuple[list[float], list | None]:
    """Generate the problem SETUP_REPEATS times; with traced, once more traced.

    Returns the set-up wall times and the traced generation's spans.
    """
    out = run.work / "problem.qnls"
    times = []
    for i in range(1 if traced else SETUP_REPEATS):
        rc, wall, _ = run_child(["-c", CONSOLE, *run.wl.gen, "--out", str(out)],
                                run.env, run.work, run.work / f"gen{i}.log",
                                run.limit - time.perf_counter())
        if rc != 0:
            raise RuntimeError(f"`qnls {run.wl.gen[0]}` exited with {rc}: "
                               + (run.work / f"gen{i}.log").read_text())
        times.append(wall)
    if not traced:
        return times, None
    twin = run.work / "traced.qnls"
    spans_path = run.work / "gen.spans.json"
    rc, _, _ = run_child([str(BENCH / "tracer.py"), str(spans_path),
                          *run.wl.gen, "--out", str(twin)],
                         run.env, run.work, run.work / "gen-traced.log",
                         run.limit - time.perf_counter())
    for suffix in ("", ".x0"):
        a, b = Path(f"{out}{suffix}"), Path(f"{twin}{suffix}")
        if rc != 0 or sha256(a) != sha256(b):
            raise RuntimeError(f"traced `qnls {run.wl.gen[0]}` wrote {b.name} "
                               f"unlike the untraced run (exit code {rc})")
    return times, json.loads(spans_path.read_text())


def solve(run: Run, traced: bool) -> Attempt:
    import gate

    i = len(run.attempts)
    problem = run.work / "problem.qnls"
    x0 = Path(f"{problem}.x0")
    trace, report = run.work / f"solve{i}.csv", run.work / f"solve{i}.report"
    log, spans_path = run.work / f"solve{i}.log", run.work / f"solve{i}.spans.json"
    qnls_args = ["solve", "--problem", str(problem), "--x0", str(x0),
                 "--trace", str(trace), "--report", str(report),
                 *run.wl.solve]
    prefix = [str(BENCH / "tracer.py"), str(spans_path)] if traced else ["-c", CONSOLE]
    rc, wall, rss = run_child(prefix + qnls_args, run.env, run.work, log,
                              run.limit - time.perf_counter())
    output = log.read_text(errors="replace").splitlines()
    failures = [] if rc == 0 else [f"exit code {rc}"]
    failures += [line for line in output if line.startswith("halted:")]
    start = time.perf_counter()
    failures += gate.check(trace.read_text() if trace.exists() else "",
                           str(problem), str(x0), run.wl.iters, run.wl.tol)
    check_s = time.perf_counter() - start
    attempt = Attempt(traced, wall, rss, check_s, failures,
                      {"trace_sha256": sha256(trace),
                       "report_sha256": sha256(report),
                       "svt.poly_degree": report_degree(report)})
    if traced and spans_path.exists():
        attempt.layers = solve_layers(json.loads(spans_path.read_text()),
                                      wall, attempt.fingerprint["svt.poly_degree"])
        attempt.fingerprint.update(exact_counts(attempt.layers))
    elif traced:
        failures.append("the traced solve recorded no spans")
    # every solve of one run must leave the same artifacts and counts
    mine = attempt.fingerprint
    differ = sorted({k for earlier in run.attempts if not earlier.failures
                     for k in mine.keys() & earlier.fingerprint.keys()
                     if mine[k] != earlier.fingerprint[k]})
    if differ and not failures:
        failures.append(f"fingerprint differs from an earlier solve in {differ}")
    status = "ok" if not failures else "FAILED: " + "; ".join(failures)
    print(f"solve {i} ({'traced' if traced else 'untraced'}): {wall:.4f} s, "
          f"{rss:.1f} MB, gate {check_s:.4f} s: {status}")
    for line in output[-5:] if failures else []:
        print(f"  | {line}")
    run.attempts.append(attempt)
    return attempt


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def solve_layers(spans: list, wall_s: float, poly_degree: float) -> dict[str, float]:
    """Per-layer metrics of one traced solve, from its spans."""
    import tracer

    summary = tracer.summarize(spans)

    def self_s(name: str) -> float:
        return summary[name]["self_s"] if name in summary else 0.0

    def calls(name: str) -> int:
        return summary[name]["calls"] if name in summary else 0

    def module_self_s(module: str) -> float:
        return sum(v["self_s"] for k, v in summary.items()
                   if k.startswith(module + "."))

    m: dict[str, float] = {}
    for op in BE_OPS:
        m[f"block_encoding.{op}.s"] = self_s(f"block_encoding.{op}")
        m[f"block_encoding.{op}.calls"] = calls(f"block_encoding.{op}")
    for part in QN_PARTS:
        m[f"quantum_newton.{part}.s"] = self_s(f"quantum_newton.{part}")
    steps = summary.get("quantum_newton.newton_step", {}).get("durations", [])
    m["quantum_newton.newton_step.p50_s"] = quantile(steps, 0.5)
    m["quantum_newton.newton_step.p90_s"] = quantile(steps, 0.9)
    inversions, fits = calls("svt.sv_invert"), calls("svt.lp_fit")
    m["svt.sv_invert.s"] = self_s("svt.sv_invert")
    m["svt.sv_invert.calls"] = inversions
    m["svt.inverse_poly.s"] = self_s("svt.inverse_poly")
    m["svt.lp_s"] = self_s("svt.lp_fit")
    m["svt.lp_fits"] = fits
    m["svt.lp_fits_per_inversion"] = fits / inversions if inversions else 0.0
    m["svt.poly_degree"] = poly_degree
    m["svt.eigen.s"] = self_s("svt.eigen")
    m["problem_io.parse_s"] = self_s("problem_io.parse")
    m["poly_system.canonicalize_s"] = self_s("poly_system.canonicalize")
    m["poly_system.evaluate_s"] = self_s("poly_system.evaluate")
    m["cli.self_s"] = self_s("cli.main")
    for module in ("block_encoding", "quantum_newton", "svt"):
        m[f"{module}.self_s"] = module_self_s(module)
    m["share.be_qn"] = ((m["block_encoding.self_s"] + m["quantum_newton.self_s"])
                        / wall_s)
    m["share.svt_lp"] = m["svt.lp_s"] / wall_s
    return m


def exact_counts(layers: dict[str, float]) -> dict[str, float]:
    """The per-layer values that repeat exactly within one commit."""
    return {k: v for k, v in layers.items()
            if k.endswith(".calls") or k in ("svt.lp_fits", "svt.poly_degree")}


def measure(run: Run, seconds: float, traced: bool) -> None:
    """Solve (with traced, an untraced then a traced solve) until time is up."""
    start = time.perf_counter()
    longest = 0.0
    while True:
        before = time.perf_counter()
        solve(run, traced=False)
        if traced:
            solve(run, traced=True)
        now = time.perf_counter()
        longest = max(longest, now - before)
        if now - start >= seconds or now + longest > run.limit:
            return


def passed(attempts: list[Attempt]) -> list[Attempt]:
    """Attempts that passed, or all of them when none did."""
    return [a for a in attempts if not a.failures] or attempts


def end_to_end(run: Run, setup_times: list[float]) -> dict[str, float]:
    ok = passed(run.attempts)
    return {"solve_s": statistics.median(a.wall_s for a in ok),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(a.rss_mb for a in ok)}


def per_layer(run: Run, setup_spans: list) -> dict[str, float]:
    import tracer

    traced = passed([a for a in run.attempts if a.layers is not None])
    plain = passed([a for a in run.attempts if not a.traced])
    if not traced:
        raise RuntimeError("no traced solve recorded spans")
    m = {k: statistics.median(a.layers[k] for a in traced) for k in traced[0].layers}
    setup = tracer.summarize(setup_spans)
    m["problems.generate_s"] = setup.get("problems.generate", {}).get("self_s", 0.0)
    m["problem_io.write_s"] = setup.get("problem_io.write", {}).get("self_s", 0.0)
    m["classical_oracle.check_s"] = statistics.median(a.check_s for a in run.attempts)
    m["trace.solve_s"] = statistics.median(a.wall_s for a in traced)
    m["trace.overhead_s"] = m["trace.solve_s"] - statistics.median(a.wall_s for a in plain)
    return m


def compare_committed(workload: str, fingerprint: dict) -> None:
    """Print whether a seed-0 fingerprint matches bench/fingerprints.json."""
    committed = json.loads((BENCH / "fingerprints.json").read_text()).get(workload, {})
    differ = sorted(k for k in fingerprint.keys() & committed.keys()
                    if fingerprint[k] != committed[k])
    if not committed:
        print("no committed seed-0 fingerprint for this workload")
    elif differ:
        print(f"FINGERPRINT DIFFERS from the committed seed-0 values in: {differ}")
    else:
        print("fingerprint matches the committed seed-0 values")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
            "machine": platform.machine()}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 spec: dict) -> dict:
    wl = make_workload(name, seed)
    work = WORK / f"qnls-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(wl, work, child_env(work, wl.debug),
              time.perf_counter() + RUN_LIMIT_S)
    print(f"workload {name} seed {seed} trace {int(traced)}: "
          f"qnls {' '.join(wl.gen)}; qnls solve {' '.join(wl.solve)}"
          + (" (QNLS_DEBUG=1)" if wl.debug else ""))
    try:
        setup_times, setup_spans = set_up(run, traced)
        measure(run, seconds, traced)
        if traced:
            values = per_layer(run, setup_spans)
        else:
            values = end_to_end(run, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(run.attempts)
    failed = sum(1 for a in run.attempts if a.failures)
    fingerprint = passed(run.attempts)[-1].fingerprint
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    if seed == 0:
        compare_committed(name, fingerprint)
    metrics = {}
    for entry in spec["per_layer" if traced else "end_to_end"]:
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}
        print(f"{entry['name']} = {values[entry['name']]:.6g} {entry['unit']}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g} "
          "(failed / attempted solves)")
    if traced:
        print_stress(name, values)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_stress(name: str, m: dict[str, float]) -> None:
    """Whether the workload still stresses the layer it was chosen for."""
    checks = {"gpe4_exact": ("share.be_qn >= 0.8", m["share.be_qn"] >= 0.8),
              "lv_poly": ("share.svt_lp >= 0.8", m["share.svt_lp"] >= 0.8)}
    verify = m["block_encoding.verify.calls"]
    if name in checks:
        label, ok = checks[name]
        print(f"stress {label}: {'yes' if ok else 'NO'}")
    wanted = name == "lv_verify"
    print(f"stress block_encoding.verify.calls {'> 0' if wanted else '== 0'}: "
          f"{'yes' if (verify > 0) == wanted else 'NO'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "qnls" / "cli.py").is_file():
        print(f"error: no qnls sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update({var: str(NPROC) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    rc, _, _ = run_child(["-m", "compileall", "-q", str(SRC), str(BENCH)],
                         child_env(WORK, False), ROOT, WORK / "compileall.log",
                         RUN_LIMIT_S)
    if rc != 0:
        print("error: the qnls sources do not compile", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment(), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), spec) for name in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if len(results) == 1:
        result = results[names[0]]
    else:
        for name, r in results.items():
            print(f"result {name} " + json.dumps(r))
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{k}": v for name, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
