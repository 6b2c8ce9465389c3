"""Disorder-ensemble driver: many realizations, deterministic aggregation.

Realization i always uses the landscape drawn with realization index i
from the ensemble's base seed, so any subset of realizations can be
recomputed independently.  Realizations are handed out, on the processes
of a WorkerPool, in chunks of consecutive indices sized by a byte budget,
and each chunk runs as one batch of the line kernel, whose rows do not
depend on the batch they sit in.  Results are assembled into arrays
ordered by realization index before any reduction, which makes the output
bit-identical for every worker count (including 1) and every chunk size.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import RealizationError
from .evolve import WalkSpec, landscape_size, run_walk, run_walk_batch, sample_landscape
from .state import families

__all__ = [
    "EnsembleSpec",
    "EnsembleSummary",
    "WorkerPool",
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


class WorkerPool(contextlib.AbstractContextManager):
    """Up to `workers` processes (None: the CPU count) shared by every ensemble run with this
    pool.  The first ensemble with several chunks and workers starts them, one per chunk up to
    `workers`, so a serial run never imports multiprocessing; they stop when the with block exits."""

    def __init__(self, workers: int | None = None):
        self.workers = max(1, (os.cpu_count() or 1) if workers is None else workers)
        self._executor = None

    def __exit__(self, *exc_info):
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)

    def map(self, fn, tasks: list) -> list:
        """fn over tasks in order, in this process unless there are several of both."""
        if self.workers == 1 or len(tasks) == 1:
            return [fn(task) for task in tasks]
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        import numpy.random  # noqa: F401  (once here, not in each forked worker's first sample_landscape)
        self._executor = self._executor or ProcessPoolExecutor(max_workers=min(self.workers, len(tasks)))
        return list(self._executor.map(fn, tasks))


def _run_chunk(args):
    """Run realizations `indices` as one batch: (scalar series, distributions)."""
    walk, indices = args
    landscapes = []
    for index in indices:
        try:
            landscapes.append(sample_landscape(walk.disorder, landscape_size(walk), index))
        except Exception as exc:
            raise RealizationError(index, exc) from exc
    try:
        results = run_walk_batch(walk, landscapes)
    except Exception:
        # a batch fails as a whole: rerun its realizations alone to name the first failing one
        for index, landscape in zip(indices, landscapes):
            try:
                run_walk(walk, landscape)
            except Exception as exc:
                raise RealizationError(index, exc) from exc
        raise
    scalars = {k: np.array([r.series(k) for r in results]) for k in walk.record if k != "distribution"}
    dists = np.array([r.distribution.p for r in results]) if "distribution" in walk.record else None
    return scalars, dists


def _stderr(samples: np.ndarray) -> np.ndarray:
    # sample standard error of the mean; zero for a single run
    runs = samples.shape[0]
    if runs < 2:
        return np.zeros(samples.shape[1])
    return np.std(samples, axis=0, ddof=1) / np.sqrt(runs)


def run_ensemble(spec: EnsembleSpec, workers: int | WorkerPool | None = None) -> EnsembleSummary:
    """Run all realizations and aggregate means and standard errors.

    workers: a WorkerPool shared with other ensembles, or the process cap of a
    pool for this call alone (None: the CPU count).  The aggregation is order-fixed,
    so the result depends neither on the worker count nor on the chunking.
    """
    if not isinstance(workers, WorkerPool):
        with WorkerPool(workers) as pool:
            return run_ensemble(spec, pool)
    walk = _effective_walk(spec)
    runs = spec.runs
    # without disorder every realization is the same computation, so a
    # clean ensemble of any size collapses to one run exactly
    computed = 1 if walk.disorder.kind == "none" else runs
    indices = _chunks(computed, min(workers.workers, computed), _chunk_rows(walk))
    chunks = workers.map(_run_chunk, [(walk, chunk) for chunk in indices])

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
