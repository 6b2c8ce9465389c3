"""Execute parsed experiments and write their datasets.

Each experiment kind of `config.KINDS` has a runner here, named
`{kind}_files`. A runner takes the kind's parsed spec and the ensemble worker
count, and yields one (stem, header, rows) triple per output file.

File schemas: distributions are `x,p` (`x,y,p` in 2D), per-step series
are `t,value` (`t,value,stderr` for ensembles), surfaces are `a,t,value`.
A JSON file holds a NaN or an infinity as null; a CSV file as nan or inf.
Every experiment directory also gets a manifest.json with the resolved
parameters and the sha256 of each data file, as its writer returned it.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import __version__
from .ensemble import run_ensemble
from .errors import SingularParameterError
from .evolve import run_walk
from .io import write_json_atomic, write_manifest, write_rows_atomic
from .specs import theta_at
from .spectral import (
    dispersion_omega,
    group_velocity,
    lyapunov_localization_length,
    transfer_matrix_1p,
    transfer_matrix_2p,
)

__all__ = ["execute"]


def _jsonify(value):
    """A row value as a Python number, or None (JSON null) for a NaN or an infinity, which JSON cannot hold."""
    if isinstance(value, (np.integer, np.floating)):
        value = value.item()
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _distribution_file(stem: str, p):
    """The x,p file of a 1D distribution, or the x,y,p file of a 2D one indexed [x, y]: each axis
    is the lattice [-T, T] of its length, and x is the outer loop of the rows."""
    sites = np.indices(p.shape).reshape(p.ndim, -1) - np.array(p.shape)[:, None] // 2
    return stem, ["x", "y"][:p.ndim] + ["p"], zip(*sites.tolist(), p.ravel().tolist())


def walk_files(runs, workers):
    """runs: (file suffix, WalkSpec) per sweep point."""
    for suffix, walk in runs:
        series = run_walk(walk).series
        for key in walk.record:
            if key == "distribution":
                yield _distribution_file(f"distribution{suffix}", series[key])
            else:
                yield f"{key}{suffix}", ["t", "value"], enumerate(series[key])


def ensemble_files(runs, workers):
    """runs: (file suffix, EnsembleSpec) per sweep point, each run as given on `workers` processes."""
    for suffix, ensemble in runs:
        walk = ensemble.walk
        summary = run_ensemble(ensemble, workers=workers)
        for key in walk.record:
            if key == "distribution":
                yield _distribution_file(f"distribution{suffix}", summary.mean[key])
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
    """spec: (the arguments of dispersion_omega the config gives, theta0 and any of phi and variant;
    the kappa grid's (min, max, count))."""
    given, grid = spec
    kappa = np.linspace(*grid)
    plus, minus = dispersion_omega(kappa=kappa, **given)
    vg = []
    for k in kappa:
        try:
            vg.append(group_velocity(kappa=float(k), **given))
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
    """spec: (one CoinSchedule per acceleration, steps); config built and checked the schedules."""
    schedules, steps = spec
    rows = [(s.a, t, math.cos(theta_at(s, t))) for s in schedules for t in range(1, steps + 1)]
    yield "schedule", ["a", "t", "value"], rows


def execute(exp, output_dir: str, workers: int | None = None) -> tuple[str, list[str]]:
    """Run one parsed config.Experiment through its kind's runner, `{exp.kind}_files` of this
    module, returning (directory, written files incl. manifest)."""
    directory = os.path.join(output_dir, exp.name)  # made by the first write, so a failed run leaves none
    outputs = {}  # file name: the sha256 its writer returned
    for stem, header, rows in globals()[f"{exp.kind}_files"](exp.spec, workers):
        name = f"{stem}.{exp.fmt}"
        path = os.path.join(directory, name)
        if exp.fmt == "csv":
            outputs[name] = write_rows_atomic(path, header, rows)
        else:
            rows = [[_jsonify(v) for v in row] for row in rows]
            outputs[name] = write_json_atomic(path, {"header": header, "rows": rows})
    manifest = write_manifest(directory, exp.name, exp.raw, outputs, __version__)
    return directory, [os.path.join(directory, name) for name in outputs] + [manifest]
