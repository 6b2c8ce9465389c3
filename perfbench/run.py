#!/usr/bin/env python3
"""aqwalk benchmark: time to dataset through the public CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  With --trace 0 every op of the
workload runs as `python -m aqwalk run CONFIG --workers N` in a child
process, one at a time, in passes repeated for --seconds; the end-to-end
metrics are medians over passes.  With --trace 1 a traced replay calls
the package's public functions in this process and reports per-layer
metrics instead (see replay.py).  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tomllib

# procs sets OPENBLAS_NUM_THREADS, so it comes before anything that loads numpy
from procs import BLAS_THREADS, HERE, ROOT, cli_status, run_child, worker_count
import checks
import workloads

SETUP_SAMPLES = 5
MIN_PASSES = 3

E2E_UNITS = {
    "wall_s": "s",
    "site_steps_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def environment(workers: int) -> dict:
    """What the numbers were measured on and with."""
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    # the ceiling keeps git from finding a repository above a checkout without .git
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.realpath(ROOT)))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    src_lines = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as handle:
                    src_lines += sum(1 for _ in handle)
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        deps = tomllib.load(handle)["project"]["dependencies"]
    return {
        "nproc": os.cpu_count(),
        "workers": workers,
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "git_sha": sha,
        "src_lines": src_lines,
        "runtime_dependencies": deps,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs right now.

    Reported next to the metrics, not folded into them, so that two runs
    far apart in time can be told apart from a change in the program.
    """
    def loop():
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        return (time.perf_counter() - start) * 1e3
    return statistics.median(loop() for _ in range(5))


def measure_end_to_end(workload: str, seed: int, seconds: float, ops: list[dict],
                       configs: dict, work: str, workers: int) -> dict:
    """Run passes over every op for `seconds`, taking set-up samples in between.

    The machine's speed drifts over seconds, so set-up samples are spread
    evenly over the run rather than taken in a burst, and a pass starts
    only if it is expected to end within `seconds`.
    """
    problems = []
    setup = []

    def validate():
        op = ops[len(setup) % len(ops)]
        res = run_child([sys.executable, "-m", "aqwalk", "validate", configs[op["name"]]],
                        os.path.join(work, "validate"))
        setup.append(res["wall"])
        if res["returncode"] != 0 or not res["stdout"].startswith("ok:"):
            problems.append(f"validate {op['name']}: exit {res['returncode']}")

    reference = checks.load_reference(workload, seed)
    out_root = os.path.join(work, "out")
    op_samples = {op["name"]: {"wall": [], "cpu": [], "rss_mb": []} for op in ops}
    pass_elapsed = []
    machine = []
    attempted = failed = nonconverged = 0
    start = time.perf_counter()
    while len(pass_elapsed) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(pass_elapsed) <= seconds):
        pass_start = time.perf_counter()
        if len(setup) < SETUP_SAMPLES * (pass_start - start) / seconds + 1:
            validate()
        machine.append(machine_ms())
        for op in ops:
            directory = os.path.join(out_root, op["name"])
            shutil.rmtree(directory, ignore_errors=True)
            res = run_child([sys.executable, "-m", "aqwalk", "run", configs[op["name"]],
                             "-o", out_root, "--workers", str(workers)],
                            os.path.join(work, f"run-{op['name']}"))
            op_samples[op["name"]]["wall"].append(res["wall"])
            op_samples[op["name"]]["cpu"].append(res["cpu"])
            op_samples[op["name"]]["rss_mb"].append(res["rss_mb"])
            status = cli_status(res["returncode"], res["stderr"])
            op_problems = checks.check_op(workload, op, directory, status, reference)
            attempted += 1
            nonconverged += status == "nonconverged"
            if op_problems:
                failed += 1
                problems += op_problems
        pass_elapsed.append(time.perf_counter() - pass_start)
    while len(setup) < SETUP_SAMPLES:
        validate()

    # a pass costs the sum of its ops; each op's median over passes keeps a
    # slow spell of the machine during one op out of the others
    wall_s = sum(statistics.median(s["wall"]) for s in op_samples.values())
    cpu_s = sum(statistics.median(s["cpu"]) for s in op_samples.values())
    site_steps = sum(op["site_steps"] for op in ops)

    def per_pass(key, combine):
        return [combine(values) for values in zip(*(s[key] for s in op_samples.values()))]

    pass_walls = per_pass("wall", sum)
    pass_rss = per_pass("rss_mb", max)
    values = {
        "wall_s": wall_s,
        "site_steps_per_s": site_steps / wall_s,
        "setup_s": statistics.median(setup),
        "cpu_s": cpu_s,
        "peak_rss_mb": max(pass_rss),
    }
    return {
        "metrics": {name: (values[name], E2E_UNITS[name]) for name in E2E_UNITS},
        "samples": {
            "wall_s": pass_walls,
            "site_steps_per_s": [site_steps / w for w in pass_walls],
            "setup_s": setup,
            "cpu_s": per_pass("cpu", sum),
            "peak_rss_mb": pass_rss,
        },
        "op_samples": op_samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "extra": {
            "passes": len(pass_elapsed),
            "ops_per_pass": len(ops),
            "site_steps_per_pass": site_steps,
            "failed_frac": failed / attempted,
            "lyapunov_nonconverged": nonconverged,
            "reference_checked": reference is not None,
            "machine_ms": statistics.median(machine),
        },
    }


def print_report(workload: str, seed: int, trace: int, result: dict, env: dict):
    print(f"aqwalk benchmark: workload {workload}, seed {seed}, trace {trace}")
    for name, (value, unit) in result["metrics"].items():
        samples = result["samples"].get(name, [])
        if len(samples) > 1:
            q1, _, q3 = quartiles(samples)
            spread = f"n={len(samples)}  q1 {q1:.6g}  q3 {q3:.6g}"
        else:
            spread = f"n={max(1, len(samples))}"
        print(f"  {name:<46} {value:>14.6g} {unit:<6} {spread}")
    for name, value in result["extra"].items():
        print(f"  {name:<46} {value}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for problem in result["problems"][:20]:
        print(f"  problem: {problem}")
    print(json.dumps({"environment": env}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "aqwalk", "__init__.py")):
        print(f"no aqwalk sources under {os.path.join(ROOT, 'src')}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(HERE, "_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ops = workloads.generate(args.workload, args.seed)
    configs = workloads.write_configs(ops, work)

    workers = worker_count()
    if args.trace:
        import replay
        result = replay.traced_run(args.workload, args.seed, args.seconds, ops, configs, work, workers)
    else:
        result = measure_end_to_end(args.workload, args.seed, args.seconds, ops, configs, work, workers)

    env = environment(workers)
    print_report(args.workload, args.seed, args.trace, result, env)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    with open(os.path.join(work, "result.json"), "w") as handle:
        json.dump({**result, "environment": env, "metrics": metrics}, handle, indent=1)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
