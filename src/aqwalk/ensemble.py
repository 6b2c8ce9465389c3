"""Disorder-ensemble driver: many realizations, deterministic aggregation.

Realization i always uses the landscape drawn with realization index i
from the ensemble's base seed, so any subset of realizations can be
recomputed independently.  Chunks of consecutive indices, sized by a byte
budget, run in this process and in forked children (see _map), each as one
batch of the line kernel, whose rows do not depend on the batch they sit
in; a chunk returns the batch's arrays as they are, and a failing row names
its realization, without a rerun.  Results are concatenated in index order
before any reduction, so the output is bit-identical for every worker count
(including 1) and every chunk size.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

from .errors import AqwalkError, RealizationError
from .evolve import WalkSpec, landscape_size, run_walk_batch, sample_landscape
from .evolve import run_walk  # noqa: F401  (no longer called here: perfbench's traced replay patches it)
from .state import families

__all__ = [
    "EnsembleSpec",
    "EnsembleSummary",
    "run_ensemble",
]

# Bytes of frame planes per batch: large enough to amortize
# the per-step overhead of the kernel, small enough that memory stays flat
# as the ensemble grows and the planes stay near the CPU caches.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class EnsembleSpec:
    """A walk plus how many disorder realizations to average over.

    base_seed keys the landscape streams (it takes precedence over the
    seed inside walk.disorder, so the same WalkSpec can be reused across
    independent ensembles).
    """

    walk: WalkSpec
    runs: int
    base_seed: int = 0

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.walk.full2d and "distribution" in self.walk.record:
            raise ValueError("ensembles average 1D distributions; a full-2D walk cannot record distribution")


@dataclass
class EnsembleSummary:
    """Per-step mean and standard error of each recorded observable.

    mean/stderr map record keys to arrays of length steps+1; the final
    step distribution is aggregated per site.
    """

    runs: int
    steps: int
    mean: dict
    stderr: dict
    positions: np.ndarray | None = None
    mean_distribution: np.ndarray | None = None
    stderr_distribution: np.ndarray | None = None


def _effective_walk(spec: EnsembleSpec) -> WalkSpec:
    disorder = replace(spec.walk.disorder, seed=spec.base_seed)
    return replace(spec.walk, disorder=disorder)


def _chunk_rows(walk: WalkSpec) -> int:
    """Largest chunk for this walk: the rows that fit _CHUNK_BYTES, at 32 (T + 1) bytes per family of lines."""
    return max(1, _CHUNK_BYTES // (32 * (walk.steps + 1) * len(families(walk.confinement))))


def _chunks(runs: int, workers: int, rows: int) -> list[range]:
    """Consecutive index ranges of near-equal size, at most `rows` long and a
    multiple of workers in number."""
    count = -(-runs // rows)
    count = min(runs, -(-count // workers) * workers)
    bounds = [runs * i // count for i in range(count + 1)]
    return [range(bounds[i], bounds[i + 1]) for i in range(count)]


def _map(fn, tasks: list, workers: int) -> list:
    """fn over tasks in order, on min(workers, tasks) processes: this one runs the first
    contiguous share, and a child forked for this call each other share.  The earliest
    failing task's error is raised, and no child outlives the call."""
    if workers == 1 or len(tasks) == 1 or not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    import signal
    import numpy.random  # noqa: F401  (once here, not in each forked child's first sample_landscape)
    count = min(workers, len(tasks))
    shares = [tasks[len(tasks) * i // count:len(tasks) * (i + 1) // count] for i in range(count)]
    children, reaped = [], 0
    try:
        for share in shares[1:]:
            children.append(_fork(fn, share))
        results = [fn(task) for task in shares[0]]
        for pid, pipe in children:
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if status != 0:
                raise AqwalkError(f"an ensemble worker ended with exit status {status} before sending its results")
            value = pickle.loads(data)
            if isinstance(value, Exception):
                raise value
            results += value
        return results
    finally:
        for pid, pipe in children[reaped:]:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(fn, share: list):
    """(pid, read end of its pipe) of a child that pipes back the pickled results of fn over share, or its error."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    try:  # the child leaves only here: it never runs the caller's code or cleanup, nor flushes its buffers
        try:
            payload = [fn(task) for task in share]
        except Exception as exc:
            payload = exc
        with open(write, "wb") as pipe:
            pickle.dump(payload, pipe)
        os._exit(0)
    finally:
        os._exit(1)


def _run_chunk(args):
    """Run realizations `indices` as one batch: (scalar series by key, (rows, sites) distributions or None)."""
    walk, indices = args
    landscapes = []
    for index in indices:
        try:
            landscapes.append(sample_landscape(walk.disorder, landscape_size(walk), index))
        except Exception as exc:
            raise RealizationError(index, exc) from exc
    try:
        series, p, _ = run_walk_batch(walk, landscapes)
    except ValueError as exc:
        if not hasattr(exc, "row"):
            raise
        raise RealizationError(indices[exc.row], exc) from exc
    return series, None if p is None else np.ascontiguousarray(p[0].T)


def _stderr(samples: np.ndarray) -> np.ndarray:
    # sample standard error of the mean; zero for a single run
    runs = samples.shape[0]
    if runs < 2:
        return np.zeros(samples.shape[1])
    return np.std(samples, axis=0, ddof=1) / np.sqrt(runs)


def run_ensemble(spec: EnsembleSpec, workers: int | None = None) -> EnsembleSummary:
    """Run all realizations and aggregate means and standard errors.

    workers: how many processes compute, this one included (None: the CPU
    count).  The aggregation is order-fixed, so the result depends neither
    on the worker count nor on the chunking.
    """
    workers = max(1, (os.cpu_count() or 1) if workers is None else workers)
    walk = _effective_walk(spec)
    runs = spec.runs
    # without disorder every realization is the same computation, so a
    # clean ensemble of any size collapses to one run exactly
    computed = 1 if walk.disorder.kind == "none" else runs
    indices = _chunks(computed, min(workers, computed), _chunk_rows(walk))
    chunks = _map(_run_chunk, [(walk, chunk) for chunk in indices], workers)

    # chunks are consecutive index ranges in order, so this is index order
    scalar_keys = [k for k in walk.record if k != "distribution"]
    series = {k: np.concatenate([scalars[k] for scalars, _ in chunks]) for k in scalar_keys}
    dists = np.concatenate([d for _, d in chunks]) if "distribution" in walk.record else None

    mean = {k: np.mean(series[k], axis=0) for k in scalar_keys}
    stderr = {k: _stderr(series[k]) for k in scalar_keys}

    summary = EnsembleSummary(runs=runs, steps=walk.steps, mean=mean, stderr=stderr)
    if dists is not None:
        summary.mean_distribution = np.mean(dists, axis=0)
        summary.stderr_distribution = _stderr(dists)
        # every field is sized to its step count, so the axis is fixed
        summary.positions = np.arange(-walk.steps, walk.steps + 1)
    return summary
