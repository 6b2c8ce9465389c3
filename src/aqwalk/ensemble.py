"""Disorder-ensemble driver: many realizations, deterministic aggregation.

Realization i always uses the landscape drawn with realization index i
from the ensemble's base seed, so any subset of realizations can be
recomputed independently.  Realizations are handed out in chunks of
consecutive indices, and each chunk runs as one batch of the line kernel,
whose rows do not depend on the batch they sit in.  Results are assembled
into arrays ordered by realization index before any reduction, which
makes the output bit-identical for every worker count (including 1) and
every chunk size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import RealizationError
from .evolve import DisorderSpec, WalkSpec, landscape_size, run_walk, run_walk_batch, sample_landscape

__all__ = [
    "EnsembleSpec",
    "EnsembleSummary",
    "run_ensemble",
]

# Rows per batch of a line walk: large enough to amortize the per-step
# overhead of the kernel, small enough that memory stays flat as the
# ensemble grows.
_MAX_CHUNK_ROWS = 32


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
    """Largest chunk for this walk: the final state of a full-2D row is a
    whole 2D field, so full-2D walks run one realization per chunk and keep
    one such field per worker alive."""
    return 1 if walk.full2d else _MAX_CHUNK_ROWS


def _chunks(runs: int, workers: int, rows: int) -> list[range]:
    """Consecutive index ranges of near-equal size, at most `rows` long and a
    multiple of workers in number."""
    count = -(-runs // rows)
    count = min(runs, -(-count // workers) * workers)
    bounds = [runs * i // count for i in range(count + 1)]
    return [range(bounds[i], bounds[i + 1]) for i in range(count)]


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


def run_ensemble(spec: EnsembleSpec, workers: int | None = None) -> EnsembleSummary:
    """Run all realizations and aggregate means and standard errors.

    workers: process count for the realization map; None picks the CPU
    count.  The aggregation is order-fixed, so the result does not depend
    on the worker count or on how the realizations are chunked.
    """
    walk = _effective_walk(spec)
    runs = spec.runs
    # without disorder every realization is the same computation, so a
    # clean ensemble of any size collapses to one run exactly
    computed = 1 if walk.disorder.kind == "none" else runs
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, computed))
    tasks = [(walk, chunk) for chunk in _chunks(computed, workers, _chunk_rows(walk))]
    if workers == 1:
        chunks = [_run_chunk(task) for task in tasks]
    else:
        # the pool pulls in multiprocessing, so only a multi-worker run imports it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_chunk, tasks))

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
