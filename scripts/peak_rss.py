#!/usr/bin/env python3
"""Wall time and peak RSS of one cold `python -m qnls.cli ARGS...` run.

    PYTHONPATH=src python3 scripts/peak_rss.py solve --problem gpe.txt --iters 1 --trace t.csv

Starts one child process running `python -m qnls.cli ARGS...` with this
interpreter and environment, waits for it with os.wait4, and prints one line

    wall_s <seconds>  peak_rss_mb <MB>  exit <child exit code>

after the child's own output. peak_rss_mb is the child's ru_maxrss in MiB.
A child's ru_maxrss also counts the launcher's resident size at the fork,
so the launcher imports only the standard library: its own few MB stay far
below anything it measures. The launcher exits with the child's exit code
(1 for a child killed by a signal).
"""

import os
import sys
import time


def main(argv: list[str]) -> int:
    cmd = [sys.executable, "-m", "qnls.cli", *argv]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    print(f"wall_s {wall:.3f}  peak_rss_mb {usage.ru_maxrss / 1024.0:.1f}  "
          f"exit {code}", flush=True)
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
