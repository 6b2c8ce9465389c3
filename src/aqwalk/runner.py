"""Execute parsed experiments and write their datasets.

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
from .config import Experiment
from .ensemble import EnsembleSpec, run_ensemble
from .evolve import WalkSpec, run_walk
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


def _with_acceleration(walk: WalkSpec, a: float) -> WalkSpec:
    return dataclasses.replace(walk, schedule=dataclasses.replace(walk.schedule, a=a))


def _with_theta0(walk: WalkSpec, theta0: float) -> WalkSpec:
    return dataclasses.replace(walk, schedule=dataclasses.replace(walk.schedule, theta0=theta0))


def _sweep_runs(exp: Experiment):
    """Yield (suffix, walk or ensemble spec) for each sweep point."""
    base = exp.ensemble if exp.kind == "ensemble" else exp.walk
    if exp.sweep_field is None:
        yield "", base
        return
    for value in exp.sweep_values:
        suffix = f"_a{value:g}" if exp.sweep_field == "acceleration" else f"_theta{value:g}"
        if exp.kind == "ensemble":
            walk = base.walk
            walk = _with_acceleration(walk, value) if exp.sweep_field == "acceleration" else _with_theta0(walk, value)
            yield suffix, dataclasses.replace(base, walk=walk)
        else:
            walk = _with_acceleration(base, value) if exp.sweep_field == "acceleration" else _with_theta0(base, value)
            yield suffix, walk


class _Writer:
    """Accumulates output files in one directory, csv or json flavor."""

    def __init__(self, directory: str, fmt: str):
        self.directory = directory
        self.fmt = fmt
        self.files: list[str] = []

    def emit(self, stem: str, header: list[str], rows):
        path = os.path.join(self.directory, f"{stem}.{self.fmt}")
        if self.fmt == "csv":
            write_rows_atomic(path, header, rows)
        else:
            payload = {"header": header, "rows": [[_jsonify(v) for v in row] for row in rows]}
            write_json_atomic(path, payload)
        self.files.append(path)


def _jsonify(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _emit_distribution(writer: _Writer, stem: str, dist):
    if isinstance(dist, Distribution1D):
        writer.emit(stem, ["x", "p"], zip(dist.x.tolist(), dist.p))
    else:
        rows = []
        for i, xv in enumerate(dist.x.tolist()):
            for j, yv in enumerate(dist.y.tolist()):
                rows.append((xv, yv, dist.p[i, j]))
        writer.emit(stem, ["x", "y", "p"], rows)


def _run_walk_outputs(writer: _Writer, suffix: str, walk: WalkSpec):
    result = run_walk(walk)
    for key in walk.record:
        if key == "distribution":
            _emit_distribution(writer, f"distribution{suffix}", result.distribution)
        else:
            series = result.series(key)
            writer.emit(f"{key}{suffix}", ["t", "value"], enumerate(series))


def _run_ensemble_outputs(writer: _Writer, suffix: str, spec: EnsembleSpec, workers):
    summary = run_ensemble(spec, workers=workers)
    for key in spec.walk.record:
        if key == "distribution":
            dist = Distribution1D(summary.positions, summary.mean_distribution)
            _emit_distribution(writer, f"distribution{suffix}", dist)
        else:
            rows = zip(range(spec.walk.steps + 1), summary.mean[key], summary.stderr[key])
            writer.emit(f"{key}{suffix}", ["t", "value", "stderr"], rows)


def execute(exp: Experiment, output_dir: str, workers: int | None = None) -> tuple[str, list[str]]:
    """Run one experiment, returning (directory, written files incl. manifest)."""
    directory = os.path.join(output_dir, exp.name)
    os.makedirs(directory, exist_ok=True)
    writer = _Writer(directory, exp.fmt)

    if exp.kind == "walk":
        for suffix, walk in _sweep_runs(exp):
            _run_walk_outputs(writer, suffix, walk)
    elif exp.kind == "ensemble":
        for suffix, spec in _sweep_runs(exp):
            _run_ensemble_outputs(writer, suffix, spec, workers)
    elif exp.kind == "surface":
        observable = exp.payload["observable"]
        rows = []
        for a in exp.payload["accelerations"]:
            result = run_walk(_with_acceleration(exp.walk, a))
            for t, value in enumerate(result.series(observable)):
                rows.append((a, t, value))
        writer.emit(observable + "_surface", ["a", "t", "value"], rows)
    elif exp.kind == "dispersion":
        p = exp.payload
        kappa = np.linspace(p["kappa_min"], p["kappa_max"], p["kappa_count"])
        plus, minus = dispersion_omega(p["theta0"], kappa, p["phi"], p["variant"])
        vg = []
        for k in kappa:
            try:
                vg.append(group_velocity(p["theta0"], float(k), p["phi"]))
            except Exception:
                vg.append(math.nan)
        writer.emit(
            "dispersion",
            ["kappa", "omega_plus", "omega_minus", "group_velocity"],
            zip(kappa, plus, minus, vg),
        )
    elif exp.kind == "transfer":
        p = exp.payload
        builder = transfer_matrix_1p if p["particles"] == 1 else transfer_matrix_2p
        matrix = builder(p["theta"], p["phi"], p["omega"]).matrix
        rows = []
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                rows.append((i, j, matrix[i, j].real, matrix[i, j].imag))
        writer.emit("transfer", ["row", "col", "re", "im"], rows)
    elif exp.kind == "lyapunov":
        p = exp.payload
        est = lyapunov_localization_length(p["disorder"], p["theta"], p["omega"], p["chain_length"])
        writer.emit(
            "lyapunov",
            ["gamma", "localization_length"],
            [(est.gamma, est.localization_length)],
        )
    elif exp.kind == "schedule":
        p = exp.payload
        rows = []
        for a in p["accelerations"]:
            schedule = CoinSchedule(p["theta0"], a)
            for t in range(1, p["steps"] + 1):
                rows.append((a, t, math.cos(theta_at(schedule, t))))
        writer.emit("schedule", ["a", "t", "value"], rows)
    else:  # pragma: no cover - parse_config rejects unknown kinds
        raise ValueError(f"unknown experiment kind {exp.kind!r}")

    manifest = write_manifest(directory, exp.name, exp.raw, writer.files, __version__)
    return directory, writer.files + [manifest]
