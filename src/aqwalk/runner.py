"""Execute parsed experiments and write their datasets.

Each experiment kind has a runner here, listed with its fields and parser
in `config.KINDS`. A runner takes the kind's parsed spec and the ensemble worker
count, and yields one (stem, header, rows) triple per output file.

File schemas: distributions are `x,p` (`x,y,p` in 2D), per-step series
are `t,value` (`t,value,stderr` for ensembles), surfaces are `a,t,value`.
Every experiment directory also gets a manifest.json with the resolved
parameters and a content hash per data file.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

from . import __version__
from .coins import CoinSchedule, theta_at
from .ensemble import run_ensemble
from .errors import SingularParameterError
from .evolve import run_walk
from .io import write_json_atomic, write_manifest, write_rows_atomic
from .observables import Distribution1D
from .spectral import (
    dispersion_omega,
    group_velocity,
    lyapunov_localization_length,
    transfer_matrix_1p,
    transfer_matrix_2p,
)

__all__ = ["execute"]


def _jsonify(value):
    return value.item() if isinstance(value, (np.integer, np.floating)) else value


def _distribution_file(stem: str, dist):
    if isinstance(dist, Distribution1D):
        return stem, ["x", "p"], zip(dist.x.tolist(), dist.p.tolist())
    # p is indexed [x, y]: x is the outer loop of the rows
    xs = np.repeat(dist.x, len(dist.y)).tolist()
    ys = np.tile(dist.y, len(dist.x)).tolist()
    return stem, ["x", "y", "p"], zip(xs, ys, dist.p.ravel().tolist())


def walk_files(runs, workers):
    """runs: (file suffix, WalkSpec) per sweep point."""
    for suffix, walk in runs:
        result = run_walk(walk)
        for key in walk.record:
            if key == "distribution":
                yield _distribution_file(f"distribution{suffix}", result.distribution)
            else:
                yield f"{key}{suffix}", ["t", "value"], enumerate(result.series[key])


def ensemble_files(spec, workers):
    """spec: (EnsembleSpec, [(file suffix, WalkSpec) per sweep point]), each point on `workers` processes."""
    ensemble, runs = spec
    for suffix, walk in runs:
        summary = run_ensemble(dataclasses.replace(ensemble, walk=walk), workers=workers)
        for key in walk.record:
            if key == "distribution":
                dist = Distribution1D(np.arange(-walk.steps, walk.steps + 1), summary.mean[key])
                yield _distribution_file(f"distribution{suffix}", dist)
            else:
                rows = zip(range(walk.steps + 1), summary.mean[key], summary.stderr[key])
                yield f"{key}{suffix}", ["t", "value", "stderr"], rows


def surface_files(spec, workers):
    """spec: (one WalkSpec per acceleration, observable)."""
    walks, observable = spec
    rows = [(walk.schedule.a, t, value)
            for walk in walks for t, value in enumerate(run_walk(walk).series[observable])]
    yield observable + "_surface", ["a", "t", "value"], rows


def dispersion_files(spec, workers):
    """spec: (variant, theta0, phi, kappa grid)."""
    variant, theta0, phi, kappa = spec
    plus, minus = dispersion_omega(theta0, kappa, phi, variant)
    vg = []
    for k in kappa:
        try:
            vg.append(group_velocity(theta0, float(k), phi, variant))
        except SingularParameterError:
            vg.append(math.nan)
    yield "dispersion", ["kappa", "omega_plus", "omega_minus", "group_velocity"], zip(kappa, plus, minus, vg)


def transfer_files(spec, workers):
    """spec: (particles, theta, phi, omega)."""
    particles, theta, phi, omega = spec
    matrix = (transfer_matrix_1p if particles == 1 else transfer_matrix_2p)(theta, phi, omega)
    yield "transfer", ["row", "col", "re", "im"], [(i, j, v.real, v.imag) for (i, j), v in np.ndenumerate(matrix)]


def lyapunov_files(spec, workers):
    """spec: the arguments of lyapunov_localization_length."""
    est = lyapunov_localization_length(*spec)
    yield "lyapunov", ["gamma", "localization_length"], [(est.gamma, est.localization_length)]


def schedule_files(spec, workers):
    """spec: (theta0, accelerations, steps)."""
    theta0, accelerations, steps = spec
    schedules = [CoinSchedule(theta0, a) for a in accelerations]
    rows = [(s.a, t, math.cos(theta_at(s, t))) for s in schedules for t in range(1, steps + 1)]
    yield "schedule", ["a", "t", "value"], rows


def execute(exp, output_dir: str, workers: int | None = None) -> tuple[str, list[str]]:
    """Run one parsed config.Experiment, returning (directory, written files incl. manifest)."""
    directory = os.path.join(output_dir, exp.name)  # made by the first write, so a failed run leaves none
    files = []
    for stem, header, rows in exp.run(exp.spec, workers):
        path = os.path.join(directory, f"{stem}.{exp.fmt}")
        if exp.fmt == "csv":
            write_rows_atomic(path, header, rows)
        else:
            write_json_atomic(path, {"header": header, "rows": [[_jsonify(v) for v in row] for row in rows]})
        files.append(path)
    manifest = write_manifest(directory, exp.name, exp.raw, files, __version__)
    return directory, files + [manifest]
