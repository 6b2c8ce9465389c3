"""Diff the data files of every preset between a git revision and this checkout.

    python tests/presets_diff.py REV

Checks REV out with `git worktree add` into a temporary directory, runs every
bundled preset at full size with `--workers 2` there and in this checkout,
and prints one line per data file: "identical", or the largest absolute and
relative difference of its values. manifest.json is skipped, since its
timestamp always differs. Exits 1 if any data file differs or exists on one
side only. Takes about 50 s a side on 2 CPUs. The worktree and the outputs
are removed at the end, and every run is killed, forked ensemble workers
included, if the script is interrupted.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def kill(proc: subprocess.Popen):
    """Kill the process group of proc, started in a session of its own, and reap proc."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _run(cmd: list[str], env: dict) -> str:
    """stdout of cmd, run in a session of its own that is killed whole if this script stops early."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        kill(proc)
        raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def run_presets(tree: str, out: str) -> dict[str, str]:
    """Run every preset of the package in tree/src into out; path of each data file by its name under out."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    names = _run([sys.executable, "-c", "from aqwalk.presets import PRESETS; print(*PRESETS)"], env).split()
    for name in names:
        _run([sys.executable, "-m", "aqwalk", "run", "--preset", name, "-o", out, "--workers", "2"], env)
    return {os.path.relpath(os.path.join(directory, name), out): os.path.join(directory, name)
            for directory, _, files in os.walk(out) for name in files if name != "manifest.json"}


def difference(old: str, new: str) -> str:
    """"identical", or the largest absolute and relative difference of two CSV files' values."""
    with open(old, "rb") as a, open(new, "rb") as b:
        if a.read() == b.read():
            return "identical"
    try:
        a, b = (np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) for path in (old, new))
    except ValueError as exc:
        return f"differs, not comparable as CSV ({exc})"
    if a.shape != b.shape:
        return f"differs, shape {a.shape} -> {b.shape}"
    with np.errstate(invalid="ignore"):
        gap = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
    scale = np.maximum(np.abs(a), np.abs(b))
    relative = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0)
    return f"differs, max abs {gap.max(initial=0):.3g}, max rel {relative.max(initial=0):.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this checkout against")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so the cleanup below runs
    scratch = tempfile.mkdtemp(prefix="presets-diff-")
    tree = os.path.join(scratch, "tree")
    try:
        _run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet", tree, args.rev], dict(os.environ))
        try:
            old = run_presets(tree, os.path.join(scratch, "old"))
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", tree], check=False)
        new = run_presets(ROOT, os.path.join(scratch, "new"))
        differing = 0
        for name in sorted(old.keys() | new.keys()):
            if name in old and name in new:
                verdict = difference(old[name], new[name])
            else:
                verdict = f"only in {'the checkout' if name in new else args.rev}"
            differing += verdict != "identical"
            print(f"{name}: {verdict}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(old.keys() | new.keys())} data files, {differing} not identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
