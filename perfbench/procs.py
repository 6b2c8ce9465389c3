"""Child processes of the benchmark: environment, timing and exit status.

Importing this module sets OPENBLAS_NUM_THREADS for this process and its
children: numpy's OpenBLAS is threaded, and one BLAS thread per process
keeps ensemble workers x BLAS threads <= nproc.  Import it before numpy.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time

BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OP_TIMEOUT_S = 150


def worker_count() -> int:
    """Ensemble workers: one per CPU this process may run on."""
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str], log_stem: str) -> dict:
    """Run one child to completion; wall time, CPU and peak RSS of its process tree."""
    with open(log_stem + ".out", "w") as out, open(log_stem + ".err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4 reports the child plus every descendant it waited for,
            # which covers the ensemble's worker pool
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_stem + ".err") as handle:
        stderr = handle.read()
    with open(log_stem + ".out") as handle:
        stdout = handle.read()
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
        "stdout": stdout,
        "stderr": stderr,
    }


def cli_status(returncode: int, stderr: str) -> str:
    """ok, nonconverged (the program's documented exit 1 for a numeric failure) or a failure."""
    if returncode == 0:
        return "ok"
    if returncode == 1 and "NonConvergenceError" in stderr and "Traceback" not in stderr:
        return "nonconverged"
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    return f"exit {returncode}: {last}"
