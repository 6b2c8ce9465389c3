"""Disorder-ensemble driver for a specs.EnsembleSpec: many realizations, deterministic aggregation.

Realization i always uses the landscape drawn with realization index i
from the ensemble's base seed, so any subset of realizations can be
recomputed independently.  Chunks of consecutive indices, sized by a byte
budget, run in this process and in forked children (see _map), each as one
batch of the line kernel, whose rows do not depend on the batch they sit
in; a chunk returns only each recorded key's (rows, values) array, the
final distribution included, and drops the batch's planes, and a failing
row names its realization, without a rerun.  Each key is
concatenated in index order and reduced before the next is joined, so the
output is bit-identical for every worker count (including 1) and every
chunk size, and only one key's samples are held at a time.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

from .errors import AqwalkError, RealizationError
from .evolve import landscape_size, run_walk_batch, sample_landscape
from .evolve import run_walk  # noqa: F401  (no longer called here: perfbench's traced replay patches it)
from .specs import EnsembleSpec, WalkSpec, as_count, families

__all__ = [
    "EnsembleSummary",
    "run_ensemble",
]

# Bytes of frame planes per batch: large enough to amortize the per-step overhead of the kernel, small
# enough that memory stays flat as the ensemble grows and the planes stay near the CPU caches.  Only frame
# planes count: a chunk also holds its series and, with spatial disorder, 24 (2T + 1) bytes of phase planes
# per row and phased component, each about 1.5 times the row's 32 (T + 1) bytes of frame planes.
_CHUNK_BYTES = 1 << 20


@dataclass
class EnsembleSummary:
    """Mean and standard error of each recorded observable over the realizations.

    mean/stderr map each record key to an array: steps+1 values per step
    for a series, and for "distribution" one per site of the final state's
    lattice [-steps, steps].
    """

    runs: int
    steps: int
    mean: dict
    stderr: dict


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
    """Run realizations `indices` as one batch: each recorded key's (rows, values) array."""
    walk, indices = args
    landscapes = []
    for index in indices:
        try:
            landscapes.append(sample_landscape(walk.disorder, landscape_size(walk), index))
        except Exception as exc:
            raise RealizationError(index, exc) from exc
    try:
        return run_walk_batch(walk, landscapes)[0]
    except ValueError as exc:
        if not hasattr(exc, "row"):
            raise
        raise RealizationError(indices[exc.row], exc) from exc


def _stderr(samples: np.ndarray) -> np.ndarray:
    # sample standard error of the mean; zero for a single run
    runs = samples.shape[0]
    if runs < 2:
        return np.zeros(samples.shape[1])
    return np.std(samples, axis=0, ddof=1) / np.sqrt(runs)


def run_ensemble(spec: EnsembleSpec, workers: int | None = None) -> EnsembleSummary:
    """Run all realizations and aggregate means and standard errors.

    workers: how many processes compute, this one included (None: the CPUs
    this process may run on, its affinity set where the OS keeps one;
    anything but an integer >= 1 is a ConfigError).  The aggregation is
    order-fixed, so the result depends neither on the worker count nor on
    the chunking.
    """
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    as_count(workers, "workers")
    walk = _effective_walk(spec)
    # without disorder every realization is the same computation, so a
    # clean ensemble of any size collapses to one run exactly
    computed = 1 if walk.disorder.kind == "none" else spec.runs
    indices = _chunks(computed, min(workers, computed), _chunk_rows(walk))
    chunks = _map(_run_chunk, [(walk, chunk) for chunk in indices], workers)

    # chunks are consecutive index ranges in order, so this is index order; one key's samples
    # are held at a time, and each chunk's rows of a key are dropped as they are joined
    mean, stderr = {}, {}
    for key in walk.record:
        samples = np.concatenate([chunk.pop(key) for chunk in chunks])
        mean[key], stderr[key] = np.mean(samples, axis=0), _stderr(samples)
        del samples
    return EnsembleSummary(runs=spec.runs, steps=walk.steps, mean=mean, stderr=stderr)
