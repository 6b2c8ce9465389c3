"""Traced replay: per-layer metrics measured in one process.

The replay imports aqwalk from the checkout's src/ and runs the workload's
ops through config.load_config, config.parse_config and runner.execute:

* traced at 1 worker, so every realization runs in this process
  (ensemble.serial_s, ensemble.overhead_frac, observables.evaluations);
* untraced at N workers, as the CLI runs them (runner.execute_s);
* traced at N workers (trace.overhead_frac against the untraced replay,
  ensemble.parallel_s, io.*, spectral.*).

The last two alternate REPLAY_PAIRS times and report medians.

Tracing wraps the names each module imported from another, so a span
sits on every call that crosses a layer boundary.  Spans are kept in
memory as [name, start, end, parent] and summarised in trace.json when
the run ends.  Counts are taken at the same boundaries and must repeat
exactly between replays and between runs of one seed.

Layer probes then time fixed shapes taken from the workloads (bare
run_walk per layout, each observable on a final state, landscape
sampling, and recording against bare walks for observables.share) in
rounds until --seconds have passed, and report medians.  A workload that
bypasses the ensemble or spectral layer borrows those layers' ops from
the workload that exercises them (ens1p_temporal, clean_analysis), so
every time metric is measured on every workload; the counts come from
the workload's own ops only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict

import checks
import workloads
from procs import SRC, run_child

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "config.parse_ms": "ms",
    "evolve.sample_landscape_us": "us",
    "evolve.ns_per_site_step.xline_spatial": "ns",
    "evolve.ns_per_site_step.1p_temporal": "ns",
    "evolve.ns_per_site_step.xline_clean": "ns",
    "evolve.ns_per_site_step.full2d": "ns",
    "observables.negativity_particle_particle_us": "us",
    "observables.negativity_coin_position_us": "us",
    "observables.distribution_us": "us",
    "observables.sigma_us": "us",
    "observables.ipr_us": "us",
    "observables.share": "frac",
    "ensemble.serial_s": "s",
    "ensemble.parallel_s": "s",
    "ensemble.overhead_frac": "frac",
    "ensemble.parallel_efficiency": "frac",
    "runner.execute_s": "s",
    "io.write_rows_ms": "ms",
    "io.write_manifest_ms": "ms",
    "io.ns_per_byte": "ns/B",
    "spectral.lyapunov_s": "s",
    "spectral.lyapunov_ns_per_site": "ns",
    "spectral.lyapunov_failed": "count",
    "trace.overhead_frac": "frac",
    "evolve.site_steps": "count",
    "ensemble.realizations": "count",
    "observables.evaluations": "count",
    "io.files_written": "count",
    "io.bytes_written": "B",
    "spectral.chain_sites": "count",
}

COUNTS = ("evolve.site_steps", "ensemble.realizations", "observables.evaluations",
          "io.files_written", "io.bytes_written", "spectral.chain_sites")
# realizations at N workers evaluate their observables in the workers
REPLAY_COUNTS = tuple(key for key in COUNTS if key != "observables.evaluations")
OBSERVABLES = ("distribution", "sigma", "ipr", "negativity_coin_position",
               "negativity_particle_particle")
IMPORT_SAMPLES = 3
REPLAY_PAIRS = 3
MIN_PROBE_ROUNDS = 3
MIN_TIMED_S = 0.02


class Tracer:
    """Spans [name, start, end, parent index] and boundary counts, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index][1:3] = start, end

    def wrap(self, name, fn, count=None):
        """fn with a span around each call; count(counts, args) runs after it, raised or not."""
        def wrapper(*args, **kwargs):
            try:
                return self.call(name, fn, *args, **kwargs)
            finally:
                if count is not None:
                    count(self.counts, args)
        return wrapper

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def durations(self, name) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def child_time(self, parent_name) -> float:
        """Total time of the spans opened directly inside spans called parent_name."""
        parents = {i for i, span in enumerate(self.spans) if span[0] == parent_name}
        return sum(end - start for _, start, end, parent in self.spans if parent in parents)

    def summary(self) -> dict:
        """Per span name: calls, total and self time (total minus direct children)."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, start, end, parent in self.spans:
            out[name]["calls"] += 1
            out[name]["total_s"] += end - start
            out[name]["self_s"] += end - start
            if parent >= 0:
                out[self.spans[parent][0]]["self_s"] -= end - start
        return dict(out)


def _walk_site_steps(walk) -> int:
    return workloads.nominal_site_steps(walk.particle_count, walk.steps, walk.layout)


def _count_walk(counts, args):
    counts["evolve.site_steps"] += _walk_site_steps(args[0])


def _count_ensemble(counts, args):
    spec = args[0]
    counts["ensemble.realizations"] += spec.runs
    counts["evolve.site_steps"] += spec.runs * _walk_site_steps(spec.walk)


def _count_data_file(counts, args):
    counts["io.files_written"] += 1
    counts["io.bytes_written"] += os.path.getsize(args[0])


def _count_manifest(counts, args):
    counts["io.files_written"] += 1


def _count_chain(counts, args):
    counts["spectral.chain_sites"] += args[3]


@contextlib.contextmanager
def traced(tracer: Tracer, aq):
    """Wrap every cross-layer name the runner, ensemble and evolve modules call."""
    r, e, ev = aq.runner, aq.ensemble, aq.evolve
    patches = [
        (r, "run_walk", tracer.wrap("evolve.run_walk", r.run_walk, _count_walk)),
        (r, "run_ensemble", tracer.wrap("ensemble.run_ensemble", r.run_ensemble, _count_ensemble)),
        (r, "write_rows_atomic", tracer.wrap("io.write_rows_atomic", r.write_rows_atomic, _count_data_file)),
        (r, "write_json_atomic", tracer.wrap("io.write_json_atomic", r.write_json_atomic, _count_data_file)),
        (r, "write_manifest", tracer.wrap("io.write_manifest", r.write_manifest, _count_manifest)),
        (r, "lyapunov_localization_length",
         tracer.wrap("spectral.lyapunov_localization_length", r.lyapunov_localization_length, _count_chain)),
        (e, "sample_landscape", tracer.wrap("evolve.sample_landscape", e.sample_landscape)),
        (e, "run_walk", tracer.wrap("evolve.run_walk", e.run_walk)),
    ]
    patches += [(ev, name, tracer.counter("observables.evaluations", getattr(ev, name)))
                for name in OBSERVABLES]
    originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, wrapper in patches:
        setattr(module, name, wrapper)
    try:
        yield tracer
    finally:
        for module, name, original in reversed(originals):
            setattr(module, name, original)


def _untraced_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def replay(aq, ops, configs, out_root, workers, tracer=None):
    """Run ops through config and runner in this process; (execute seconds, status per op)."""
    call = tracer.call if tracer else _untraced_call
    execute_s = 0.0
    statuses = {}
    with traced(tracer, aq) if tracer else contextlib.nullcontext():
        for op in ops:
            shutil.rmtree(os.path.join(out_root, op["name"]), ignore_errors=True)
            raw = call("config.load_config", aq.config.load_config, configs[op["name"]])
            exp = call("config.parse_config", aq.config.parse_config, raw)
            start = time.perf_counter()
            try:
                call("runner.execute", aq.runner.execute, exp, out_root, workers)
                statuses[op["name"]] = "ok"
            except aq.errors.NonConvergenceError:
                statuses[op["name"]] = "nonconverged"
            except Exception as exc:  # any other failure is a failed op, reported below
                statuses[op["name"]] = f"{type(exc).__name__}: {exc}"
            execute_s += time.perf_counter() - start
    return execute_s, statuses


def per_call(fn, *args) -> float:
    """Mean seconds per call over at least MIN_TIMED_S of back-to-back calls."""
    calls = 0
    start = time.perf_counter()
    while True:
        fn(*args)
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_TIMED_S:
            return elapsed / calls


def _walk_of(aq, op):
    """The WalkSpec of one realization of a walk or ensemble op (first sweep point)."""
    exp = aq.config.parse_config(op["config"])
    if exp.kind == "ensemble":
        walk = exp.ensemble.walk
        walk = dataclasses.replace(walk, disorder=dataclasses.replace(walk.disorder, seed=exp.ensemble.base_seed))
    else:
        walk = exp.walk
    if exp.sweep_field == "acceleration":
        walk = dataclasses.replace(walk, schedule=dataclasses.replace(walk.schedule, a=exp.sweep_values[0]))
    return walk


def _with_landscape(aq, walk):
    return walk, aq.evolve.sample_landscape(walk.disorder, aq.evolve.landscape_size(walk), 0)


def _bare(walk):
    return dataclasses.replace(walk, record=())


def probe_shapes(aq, seed: int) -> dict:
    """Bare walks of the four step layouts, in the shapes the workloads run."""
    ens2p = workloads.generate("ens2p_spatial", seed)[0]
    ens1p = workloads.generate("ens1p_temporal", seed)[0]
    fig10, fig8 = workloads.generate("clean_analysis", seed)[:2]
    return {
        "xline_spatial": _with_landscape(aq, _bare(_walk_of(aq, ens2p))),
        "1p_temporal": _with_landscape(aq, _bare(_walk_of(aq, ens1p))),
        "xline_clean": _with_landscape(aq, _bare(_walk_of(aq, fig10))),
        "full2d": _with_landscape(aq, _bare(_walk_of(aq, fig8))),
    }


def probe_round(aq, shapes, share_walks, configs, samples):
    """One round of layer probes, appending one sample per probe."""
    run_walk = aq.evolve.run_walk
    for shape, (walk, landscape) in shapes.items():
        seconds = per_call(run_walk, walk, landscape)
        samples[f"evolve.ns_per_site_step.{shape}"].append(seconds / _walk_site_steps(walk) * 1e9)

    walk, landscape = shapes["xline_spatial"]
    size = aq.evolve.landscape_size(walk)
    samples["evolve.sample_landscape_us"].append(
        per_call(aq.evolve.sample_landscape, walk.disorder, size, 1) * 1e6)

    # observables on the final states of the ens2p_spatial and ens1p_temporal walks
    obs = aq.observables
    line2p = run_walk(walk, landscape).final_state
    line1p = run_walk(*shapes["1p_temporal"]).final_state
    dist1p = obs.distribution(line1p)
    for name, fn, arg in (
        ("negativity_particle_particle", obs.negativity_particle_particle, line2p),
        ("negativity_coin_position", obs.negativity_coin_position, line2p),
        ("distribution", obs.distribution, line1p),
        ("sigma", obs.sigma, dist1p),
        ("ipr", obs.ipr, dist1p),
    ):
        samples[f"observables.{name}_us"].append(per_call(fn, arg) * 1e6)

    for i, (walk, landscape) in enumerate(share_walks):
        samples[f"share.recording.{i}"].append(per_call(run_walk, walk, landscape))
        samples[f"share.bare.{i}"].append(per_call(run_walk, _bare(walk), landscape))

    def parse_all():
        for path in configs.values():
            aq.config.parse_config(aq.config.load_config(path))
    samples["config.parse_ms"].append(per_call(parse_all) / len(configs) * 1e3)


def import_seconds(work: str) -> list[float]:
    """Time `import aqwalk.cli` inside fresh interpreters."""
    code = "import time; t = time.perf_counter(); import aqwalk.cli; print(time.perf_counter() - t)"
    out = []
    for i in range(IMPORT_SAMPLES):
        res = run_child([sys.executable, "-c", code], os.path.join(work, f"import-{i}"))
        if res["returncode"] != 0:
            raise RuntimeError(f"importing aqwalk.cli failed: {res['stderr'].strip()}")
        out.append(float(res["stdout"]))
    return out


def _counts_seen_before(work: str, workload: str, seed: int, counts: dict) -> list[str]:
    """Compare counts with an earlier traced run of the same sources, workload and seed."""
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    path = os.path.join(os.path.dirname(work), f"counts-{workload}-seed{seed}-{digest.hexdigest()[:16]}.json")
    if os.path.exists(path):
        with open(path) as handle:
            before = json.load(handle)
        if before != counts:
            return [f"counts differ from an earlier run of this seed: {before} vs {counts}"]
        return []
    with open(path, "w") as handle:
        json.dump(counts, handle)
    return []


def traced_run(workload: str, seed: int, seconds: float, ops, configs, work: str, workers: int) -> dict:
    start = time.perf_counter()
    import_s = import_seconds(work)
    sys.path.insert(0, SRC)
    import aqwalk
    import aqwalk.cli  # noqa: F401  (loads every module the CLI loads)
    if not os.path.abspath(aqwalk.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported aqwalk from {aqwalk.__file__}, not from {SRC}")
    aq = aqwalk

    problems = []
    tally = Counter()

    def checked(label, run_ops, run_configs, run_workers, tracer, owner):
        """Replay ops of `owner` (a workload) and check their outputs."""
        out_root = os.path.join(work, label)
        execute_s, statuses = replay(aq, run_ops, run_configs, out_root, run_workers, tracer)
        reference = checks.load_reference(owner, seed)
        for op in run_ops:
            status = statuses[op["name"]]
            op_problems = checks.check_op(owner, op, os.path.join(out_root, op["name"]), status, reference)
            tally["attempted"] += 1
            tally["failed"] += bool(op_problems)
            if label == "serial":
                tally["lyapunov_failed"] += status == "nonconverged"
            problems.extend(f"{label}: {p}" for p in op_problems)
        return execute_s

    # the serial replay goes first and also warms the process up; then
    # untraced and traced replays at N workers alternate, so that drift of
    # the machine's speed falls on both sides of trace.overhead_frac
    serial = Tracer()
    checked("serial", ops, configs, 1, serial, workload)
    untraced_s, traced_s, parallel = [], [], []
    for _ in range(REPLAY_PAIRS):
        untraced_s.append(checked("untraced", ops, configs, workers, None, workload))
        parallel.append(Tracer())
        traced_s.append(checked("parallel", ops, configs, workers, parallel[-1], workload))
    for key in REPLAY_COUNTS:
        if any(serial.counts[key] != tracer.counts[key] for tracer in parallel):
            problems.append(f"{key} differs between replays")

    ens_serial, ens_parallel = serial, parallel
    if not serial.durations("ensemble.run_ensemble"):
        borrowed = workloads.generate("ens1p_temporal", seed)
        borrowed_configs = workloads.write_configs(borrowed, os.path.join(work, "borrowed"))
        ens_serial, ens_parallel = Tracer(), [Tracer()]
        checked("borrowed-serial", borrowed, borrowed_configs, 1, ens_serial, "ens1p_temporal")
        checked("borrowed-parallel", borrowed, borrowed_configs, workers, ens_parallel[0], "ens1p_temporal")
    spectral = parallel
    if not parallel[0].durations("spectral.lyapunov_localization_length"):
        borrowed = [op for op in workloads.generate("clean_analysis", seed) if op["kind"] == "lyapunov"]
        borrowed_configs = workloads.write_configs(borrowed, os.path.join(work, "borrowed"))
        spectral = [Tracer()]
        checked("borrowed-spectral", borrowed, borrowed_configs, workers, spectral[0], "clean_analysis")

    shapes = probe_shapes(aq, seed)
    share_walks = [_with_landscape(aq, _walk_of(aq, op)) for op in ops if op["kind"] != "lyapunov"]
    samples = defaultdict(list)
    rounds = 0
    while rounds < MIN_PROBE_ROUNDS or time.perf_counter() - start < seconds:
        probe_round(aq, shapes, share_walks, configs, samples)
        rounds += 1

    def total(tracer, *names):
        return sum(sum(tracer.durations(name)) for name in names)

    def median_over(tracers, fn):
        return statistics.median(fn(tracer) for tracer in tracers)

    med = {name: statistics.median(values) for name, values in samples.items()}
    recording = sum(med[f"share.recording.{i}"] for i in range(len(share_walks)))
    bare = sum(med[f"share.bare.{i}"] for i in range(len(share_walks)))
    serial_ens_s = total(ens_serial, "ensemble.run_ensemble")
    parallel_ens_s = median_over(ens_parallel, lambda t: total(t, "ensemble.run_ensemble"))
    lyapunov = [d for t in spectral for d in t.durations("spectral.lyapunov_localization_length")]
    chain_per_call = sum(t.counts["spectral.chain_sites"] for t in spectral) / len(lyapunov)
    counts = {key: serial.counts[key] for key in COUNTS}
    problems += _counts_seen_before(work, workload, seed, counts)

    values = {
        "cli.import_s": statistics.median(import_s),
        "runner.execute_s": statistics.median(untraced_s),
        "trace.overhead_frac": statistics.median(traced_s) / statistics.median(untraced_s) - 1.0,
        "observables.share": 1.0 - bare / recording,
        "ensemble.serial_s": serial_ens_s,
        "ensemble.parallel_s": parallel_ens_s,
        "ensemble.overhead_frac": 1.0 - ens_serial.child_time("ensemble.run_ensemble") / serial_ens_s,
        "ensemble.parallel_efficiency": serial_ens_s / (workers * parallel_ens_s),
        "io.write_rows_ms": median_over(parallel, lambda t: total(t, "io.write_rows_atomic")) * 1e3,
        "io.write_manifest_ms": median_over(parallel, lambda t: total(t, "io.write_manifest")) * 1e3,
        "io.ns_per_byte": median_over(
            parallel, lambda t: total(t, "io.write_rows_atomic", "io.write_json_atomic"))
        / counts["io.bytes_written"] * 1e9,
        "spectral.lyapunov_s": statistics.median(lyapunov),
        "spectral.lyapunov_ns_per_site": statistics.median(lyapunov) / chain_per_call * 1e9,
        "spectral.lyapunov_failed": tally["lyapunov_failed"],
        **counts,
        **{name: value for name, value in med.items() if not name.startswith("share.")},
    }
    with open(os.path.join(work, "trace.json"), "w") as handle:
        json.dump({label: tracer.summary() for label, tracer in
                   (("parallel", parallel[0]), ("serial", serial))}, handle, indent=1)

    sample_lists = {name: values for name, values in samples.items() if not name.startswith("share.")}
    sample_lists["cli.import_s"] = import_s
    sample_lists["runner.execute_s"] = untraced_s
    sample_lists["trace.overhead_frac"] = [t / u - 1.0 for t, u in zip(traced_s, untraced_s)]
    return {
        "metrics": {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()},
        "samples": sample_lists,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "problems": problems,
        "extra": {"probe_rounds": rounds, "lyapunov_calls_timed": len(lyapunov)},
    }
