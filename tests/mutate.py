"""Mutate the src/ lines a diff touches, one change at a time, and report which the tests kill.

    python tests/mutate.py REV [--all] [--jobs N]

Each mutant makes one change to one line of src/aqwalk: an arithmetic or
bitwise operator swapped (+ and -, * and /, ...), a comparison flipped
(< to >=, == to !=, in to not in, ...), 1 added to a numeric constant, or a
unary minus dropped.  By default only the src/ lines that `git diff REV`
adds or changes are mutated (the working tree's edits included); --all
mutates every line, which takes hours.

The checkout's tracked and untracked, not ignored, files are copied once per
job into a temporary directory.  Each mutant is written into a copy,
`pytest -x -q` runs there, and the file is restored: the mutant is killed
when pytest fails (or runs past TIMEOUT seconds), and survives when it passes.
One line per mutant gives the verdict, the place and the mutated line.  The
unmutated copy must pass first.  The checkout is never edited; the copies
are removed at the end, and every pytest still running is killed with its
process group if the script is interrupted.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from presets_diff import kill  # this script's directory is first on sys.path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = "src/aqwalk"
TIMEOUT = 600.0  # seconds a pytest run may take before its mutant counts as killed

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Mult,
         ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.MatMult: ast.Mult, ast.BitAnd: ast.BitOr,
         ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr, ast.LShift: ast.RShift, ast.RShift: ast.LShift}
FLIPS = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}


def changed_lines(rev: str) -> dict[str, set[int]]:
    """Line numbers, in the working tree, that `git diff rev` adds or changes, per file under SRC."""
    diff = subprocess.run(["git", "-C", ROOT, "diff", "-U0", rev, "--", SRC],
                          capture_output=True, text=True, check=True).stdout
    lines, path = {}, None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            path = line[6:] if line.startswith("+++ b/") else None
        elif line.startswith("@@") and path:
            start, _, count = re.match(r"@@ -\S+ \+(\d+)(,(\d+))? @@", line).groups()
            first = int(start)
            lines.setdefault(path, set()).update(range(first, first + (1 if count is None else int(count))))
    return lines


def _variants(node):
    """(line of the change, mutated copy of node) for each one-change mutant of node itself."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
        left = node.left if isinstance(node, ast.BinOp) else node.target
        mutant = copy.deepcopy(node)
        mutant.op = SWAPS[type(node.op)]()
        yield left.end_lineno, mutant
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in FLIPS:
                mutant = copy.deepcopy(node)
                mutant.ops[i] = FLIPS[type(op)]()
                yield ([node.left] + node.comparators)[i].end_lineno, mutant
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        yield node.lineno, ast.Constant(node.value + 1)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield node.lineno, node.operand


def mutants(path: str, lines: set[int] | None):
    """(path, line, mutated source, mutated line) for each mutant of the file at path
    (relative to ROOT) whose change is on one of lines (None: on any line)."""
    with open(os.path.join(ROOT, path)) as handle:
        source = handle.read()
    tree = ast.parse(source)
    in_fstring = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                  for inner in ast.walk(node)}  # positions inside f-strings are unreliable before 3.12
    rows = source.splitlines(keepends=True)
    starts = [0]
    for row in rows:
        starts.append(starts[-1] + len(row))

    def offset(lineno, col):  # ast columns count UTF-8 bytes
        return starts[lineno - 1] + len(rows[lineno - 1].encode()[:col].decode())

    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        for line, mutant in _variants(node):
            if lines is not None and line not in lines:
                continue
            text = ast.unparse(mutant)
            if not isinstance(node, (ast.AugAssign, ast.Constant)):
                text = f"({text})"
            mutated = (source[:offset(node.lineno, node.col_offset)] + text
                       + source[offset(node.end_lineno, node.end_col_offset):])
            try:
                compile(mutated, path, "exec")
            except SyntaxError:
                continue
            yield path, line, mutated, mutated.splitlines()[node.lineno - 1].strip()


def _copy_checkout(dest: str):
    """Copy the checkout's tracked and untracked, not ignored, files into dest."""
    files = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           capture_output=True, text=True, check=True).stdout.split("\0")
    for name in filter(None, files):
        if os.path.isfile(os.path.join(ROOT, name)):
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(dest, name))


def _start(tree: str) -> subprocess.Popen:
    """pytest -x -q in tree, in a session of its own, writing no bytecode (a restored file could reuse a stale one)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"], cwd=tree,
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)


def _wait(proc: subprocess.Popen) -> int:
    """proc's exit status; its process group is killed if the wait is interrupted."""
    try:
        return proc.wait()
    except BaseException:
        kill(proc)
        raise


def run(todo, jobs: int, scratch: str) -> int:
    """Run each mutant of todo on one of `jobs` copies under scratch; print its verdict; the survivor count."""
    free = []
    for i in range(jobs):
        tree = os.path.join(scratch, f"copy{i}")
        _copy_checkout(tree)
        free.append(tree)
    if _wait(_start(free[0])) != 0:
        raise SystemExit("the unmutated copy fails its tests; fix that first")
    running, survived, pending = {}, 0, list(todo)
    try:
        while pending or running:
            while pending and free:
                tree, (path, line, mutated, shown) = free.pop(), pending.pop(0)
                with open(os.path.join(tree, path), "w") as handle:
                    handle.write(mutated)
                running[_start(tree)] = (tree, path, line, shown, time.monotonic())
            time.sleep(0.2)
            for proc, (tree, path, line, shown, started) in list(running.items()):
                late = proc.poll() is None and time.monotonic() - started > TIMEOUT
                if proc.poll() is None and not late:
                    continue
                if late:
                    kill(proc)
                del running[proc]
                shutil.copy2(os.path.join(ROOT, path), os.path.join(tree, path))
                free.append(tree)
                verdict = "killed (timeout)" if late else "killed" if proc.returncode else "survived"
                survived += verdict == "survived"
                print(f"{verdict:16} {path}:{line}: {shown}", flush=True)
    finally:
        for proc in running:
            kill(proc)
    return survived


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("rev", help="git revision whose diff to this checkout picks the lines to mutate")
    parser.add_argument("--all", action="store_true", help="mutate every line of src/aqwalk, not only the diff's")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    parser.add_argument("--jobs", type=int, default=1, help=f"pytest runs at a time, 1 to {cpus}")
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= cpus:
        parser.error(f"--jobs must be between 1 and {cpus}")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so the cleanup below runs
    if args.all:
        targets = {os.path.join(SRC, name): None for name in sorted(os.listdir(os.path.join(ROOT, SRC)))
                   if name.endswith(".py")}
    else:
        targets = changed_lines(args.rev)
    todo = [m for path, lines in sorted(targets.items()) for m in mutants(path, lines)]
    todo.sort(key=lambda m: (m[0], m[1]))
    print(f"{len(todo)} mutants", flush=True)
    scratch = tempfile.mkdtemp(prefix="mutate-")
    try:
        survived = run(todo, args.jobs, scratch) if todo else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(todo)} mutants, {len(todo) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
