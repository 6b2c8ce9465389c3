"""Declarative experiment configs: schema validation and spec construction.

Configs are YAML mappings with exactly one experiment kind.  `KINDS` lists
each kind once, with the fields its mapping may hold, its parser and its
runner.  Angles accept plain numbers or strings like "pi", "pi/4", "3pi/4",
"0.5*pi".  All validation errors carry the dotted field path (exit code 2
territory).
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import yaml

from . import runner
from .coins import CoinSchedule
from .errors import ConfigError
from .evolve import RECORD_KEYS, DisorderSpec, WalkSpec
from .ensemble import EnsembleSpec
from .spectral import DISPERSION_VARIANTS
from .state import InitialState

__all__ = ["Experiment", "KINDS", "load_config", "parse_config", "parse_angle"]

_NAMED_INITIALS_1P = ("up", "down", "symmetric")
_NAMED_INITIALS_2P = ("uu", "ud", "du", "dd")

_ANGLE_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(\d*\.?\d+))?$")


def parse_angle(value, where: str) -> float:
    """Number, numeric string or 'pi'-style string to a float; NaN and infinities are rejected.

    Every real number of a config is read here: YAML 1.1 reads an exponent
    without a dot, such as 1e-4, as a string.
    """
    angle = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        angle = float(value)
    elif isinstance(value, str):
        m = _ANGLE_RE.match(value.strip())
        if m:
            coef = m.group(1)
            coef_val = float(coef) if coef not in ("", "+", "-") else float(coef + "1")
            div = float(m.group(2)) if m.group(2) else 1.0
            angle = coef_val * math.pi / div if div else None
        else:
            try:
                angle = float(value)
            except ValueError:
                pass
    if angle is None or not math.isfinite(angle):
        raise ConfigError(where, f"expected a finite number or a 'pi/4'-style angle, got {value!r}")
    return angle


@dataclass
class Experiment:
    """Parsed config, ready to run: `run(spec, workers)` yields its files."""

    name: str
    kind: str
    run: Callable
    spec: object = None
    fmt: str = "csv"
    output_dir: str | None = None
    walk: WalkSpec | None = None
    ensemble: EnsembleSpec | None = None
    sweep_field: str | None = None
    sweep_values: list | None = None
    raw: dict = field(default_factory=dict)  # config as given, echoed in the manifest


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            data = yaml.safe_load(handle)
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, or not text
        raise ConfigError("config", f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"invalid YAML: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a mapping")
    return data


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}.{key}" if where else key, "missing required field")
    return mapping[key]


def _mapping(raw, where: str, fields) -> dict:
    """raw itself, once it is a mapping that holds no field outside fields."""
    if not isinstance(raw, dict):
        raise ConfigError(where, "expected a mapping")
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(where, f"unknown fields {sorted(unknown)}")
    return raw


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(where, f"expected an integer, got {value!r}")
    return value


def _parse_initial(raw, particles: int, where: str) -> InitialState:
    if isinstance(raw, str):
        label = raw.strip().lower()
        if particles == 1:
            if label not in _NAMED_INITIALS_1P:
                raise ConfigError(where, f"unknown one-particle initial state {raw!r}")
            return getattr(InitialState, label)()
        if label not in _NAMED_INITIALS_2P:
            raise ConfigError(where, f"unknown two-particle initial state {raw!r}")
        return InitialState.basis_two_particle(label)
    if isinstance(raw, list):
        if not all(isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in raw):
            raise ConfigError(where, "amplitudes must be [re, im] pairs")
        if len(raw) != 2 * particles:
            raise ConfigError(where, f"a {particles}-particle walk needs {2 * particles} amplitudes, "
                                     f"got {len(raw)}")
        amps = np.array([complex(parse_angle(re, where), parse_angle(im, where)) for re, im in raw])
        try:
            return InitialState(amps)
        except ValueError as exc:
            raise ConfigError(where, str(exc))
    raise ConfigError(where, "expected a named state or a list of [re, im] pairs")


def _parse_disorder(raw, where: str) -> DisorderSpec:
    if raw is None:
        return DisorderSpec()
    raw = _mapping(raw, where, ("kind", "phase_min", "phase_max", "seed"))
    try:
        return DisorderSpec(
            kind=raw.get("kind", "none"),
            phase_min=parse_angle(raw.get("phase_min", 0.0), f"{where}.phase_min"),
            phase_max=parse_angle(raw.get("phase_max", math.pi), f"{where}.phase_max"),
            seed=_as_int(raw.get("seed", 0), f"{where}.seed"),
        )
    except ValueError as exc:
        raise ConfigError(where, str(exc))


WALK_FIELDS = ("particles", "theta0", "acceleration", "steps", "initial", "disorder", "record", "layout")


def _parse_walk(raw, where: str, exp: Experiment | None = None) -> WalkSpec:
    raw = _mapping(raw, where, WALK_FIELDS)
    if exp is not None and exp.sweep_field is not None:
        # a field the sweep sets may be left out; the walk then holds its first value
        raw = {exp.sweep_field: exp.sweep_values[0], **raw}
    particles = _as_int(raw.get("particles", 1), f"{where}.particles")
    if particles not in (1, 2):
        raise ConfigError(f"{where}.particles", f"must be 1 or 2, got {particles}")
    theta0 = parse_angle(_require(raw, "theta0", where), f"{where}.theta0")
    accel = parse_angle(raw.get("acceleration", 0.0), f"{where}.acceleration")
    steps = _as_int(_require(raw, "steps", where), f"{where}.steps")
    init = _parse_initial(raw.get("initial", "symmetric" if particles == 1 else "uu"),
                          particles, f"{where}.initial")
    disorder = _parse_disorder(raw.get("disorder"), f"{where}.disorder")
    record = raw.get("record", ["distribution", "sigma"])
    if not isinstance(record, list) or not record:
        raise ConfigError(f"{where}.record", "expected a non-empty list")
    for i, key in enumerate(record):
        if key not in RECORD_KEYS:
            raise ConfigError(f"{where}.record", f"unknown record key {key!r}; known: {RECORD_KEYS}")
        if key in record[:i]:
            raise ConfigError(f"{where}.record", f"{key!r} is listed twice")
    layout = raw.get("layout", "auto")
    try:
        return WalkSpec(CoinSchedule(theta0, accel), init, steps, disorder, tuple(record), layout)
    except ValueError as exc:
        raise ConfigError(where, str(exc))


def _schedule_values(values, key: str, where: str) -> list[float]:
    """A non-empty list of theta0 or acceleration values, each valid in a CoinSchedule."""
    if not isinstance(values, list) or not values:
        raise ConfigError(where, "expected a non-empty list")
    parsed = [parse_angle(v, where) for v in values]
    for value in parsed:
        try:
            CoinSchedule(value) if key == "theta0" else CoinSchedule(0.0, value)
        except ValueError as exc:
            raise ConfigError(where, str(exc))
    return parsed


def _parse_sweep(raw, where: str):
    if raw is None:
        return None, None
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ConfigError(where, "sweep must map exactly one field to a list of values")
    (key, values), = raw.items()
    if key not in ("acceleration", "theta0"):
        raise ConfigError(where, f"sweep field must be 'acceleration' or 'theta0', got {key!r}")
    return key, _schedule_values(values, key, f"{where}.{key}")


def _with_schedule(walk: WalkSpec, **change) -> WalkSpec:
    return dataclasses.replace(walk, schedule=dataclasses.replace(walk.schedule, **change))


def _sweep_runs(exp: Experiment, walk: WalkSpec) -> list[tuple[str, WalkSpec]]:
    """(output file suffix, walk) per sweep point of exp; one unsuffixed run without a sweep."""
    if exp.sweep_field is None:
        return [("", walk)]
    attr, tag = {"acceleration": ("a", "_a"), "theta0": ("theta0", "_theta")}[exp.sweep_field]
    runs = [(f"{tag}{value:g}", _with_schedule(walk, **{attr: value})) for value in exp.sweep_values]
    for i, (suffix, _) in enumerate(runs):
        if suffix in (earlier for earlier, _ in runs[:i]):
            raise ConfigError(f"sweep.{exp.sweep_field}", f"two values write the same files (suffix {suffix!r})")
    return runs


# Kind parsers: each takes the kind's mapping (its fields already checked) and
# the Experiment under construction, and returns the spec its runner takes.

def _walk_kind(raw: dict, exp: Experiment):
    exp.walk = _parse_walk(raw, "walk", exp)
    return _sweep_runs(exp, exp.walk)


def _ensemble_kind(raw: dict, exp: Experiment):
    walk = _parse_walk(_require(raw, "walk", "ensemble"), "ensemble.walk", exp)
    if "seed" in (raw["walk"].get("disorder") or {}):
        # realization i draws stream (base_seed, i), so a walk seed would be ignored
        raise ConfigError("ensemble.walk.disorder.seed", "an ensemble takes its seed from ensemble.base_seed")
    runs = _as_int(_require(raw, "runs", "ensemble"), "ensemble.runs")
    base_seed = _as_int(raw.get("base_seed", 0), "ensemble.base_seed")
    try:
        exp.ensemble = EnsembleSpec(walk, runs, base_seed)
    except ValueError as exc:
        raise ConfigError("ensemble", str(exc))
    return exp.ensemble, _sweep_runs(exp, walk)


def _surface_kind(raw: dict, exp: Experiment):
    exp.walk = _parse_walk(_require(raw, "walk", "surface"), "surface.walk")
    accels = _schedule_values(raw.get("accelerations"), "acceleration", "surface.accelerations")
    observable = raw.get("observable", "negativity_particle_particle")
    if observable not in RECORD_KEYS or observable == "distribution":
        raise ConfigError("surface.observable", f"not a per-step observable: {observable!r}")
    if observable not in exp.walk.record:
        raise ConfigError("surface.walk.record", f"must include {observable!r}")
    return [_with_schedule(exp.walk, a=a) for a in accels], observable


def _dispersion_kind(raw: dict, exp: Experiment):
    variant = raw.get("variant", "single")
    if not isinstance(variant, str) or variant not in DISPERSION_VARIANTS:
        raise ConfigError("dispersion.variant", f"must be one of {tuple(DISPERSION_VARIANTS)}")
    kgrid = _mapping(raw.get("kappa", {}), "dispersion.kappa", ("min", "max", "count"))
    theta0 = parse_angle(_require(raw, "theta0", "dispersion"), "dispersion.theta0")
    phi = parse_angle(raw.get("phi", 0.0), "dispersion.phi")
    kappa_min = parse_angle(kgrid.get("min", -math.pi), "dispersion.kappa.min")
    kappa_max = parse_angle(kgrid.get("max", math.pi), "dispersion.kappa.max")
    count = _as_int(kgrid.get("count", 256), "dispersion.kappa.count")
    if count < 1:
        raise ConfigError("dispersion.kappa.count", f"must be >= 1, got {count}")
    return variant, theta0, phi, np.linspace(kappa_min, kappa_max, count)


def _transfer_kind(raw: dict, exp: Experiment):
    particles = _as_int(raw.get("particles", 1), "transfer.particles")
    if particles not in (1, 2):
        raise ConfigError("transfer.particles", "must be 1 or 2")
    return (particles, parse_angle(_require(raw, "theta", "transfer"), "transfer.theta"),
            parse_angle(raw.get("phi", 0.0), "transfer.phi"),
            parse_angle(_require(raw, "omega", "transfer"), "transfer.omega"))


def _lyapunov_kind(raw: dict, exp: Experiment):
    theta = parse_angle(_require(raw, "theta", "lyapunov"), "lyapunov.theta")
    omega = parse_angle(_require(raw, "omega", "lyapunov"), "lyapunov.omega")
    chain_length = _as_int(raw.get("chain_length", 200_000), "lyapunov.chain_length")
    if chain_length < 1000:
        raise ConfigError("lyapunov.chain_length", f"must be >= 1000, got {chain_length}")
    disorder = _parse_disorder(raw.get("disorder", {"kind": "spatial"}), "lyapunov.disorder")
    if disorder.kind == "temporal":
        raise ConfigError("lyapunov.disorder",
                          "transfer chains take spatial disorder only (kind 'none' or 'spatial')")
    return disorder, theta, omega, chain_length


def _schedule_kind(raw: dict, exp: Experiment):
    theta0 = _schedule_values([_require(raw, "theta0", "schedule")], "theta0", "schedule.theta0")[0]
    accelerations = _schedule_values(raw.get("accelerations"), "acceleration", "schedule.accelerations")
    steps = _as_int(raw.get("steps", 200), "schedule.steps")
    if steps < 1:
        raise ConfigError("schedule.steps", f"must be >= 1, got {steps}")
    return theta0, accelerations, steps


@dataclass(frozen=True)
class Kind:
    """An experiment kind: its mapping's fields, parser, runner, and whether a sweep applies."""

    fields: tuple[str, ...]
    parse: Callable
    run: Callable
    sweeps: bool = False


KINDS = {
    "walk": Kind(WALK_FIELDS, _walk_kind, runner.walk_files, sweeps=True),
    "ensemble": Kind(("walk", "runs", "base_seed"), _ensemble_kind, runner.ensemble_files, sweeps=True),
    "surface": Kind(("walk", "accelerations", "observable"), _surface_kind, runner.surface_files),
    "dispersion": Kind(("variant", "theta0", "phi", "kappa"), _dispersion_kind, runner.dispersion_files),
    "transfer": Kind(("particles", "theta", "phi", "omega"), _transfer_kind, runner.transfer_files),
    "lyapunov": Kind(("theta", "omega", "chain_length", "disorder"), _lyapunov_kind, runner.lyapunov_files),
    "schedule": Kind(("theta0", "accelerations", "steps"), _schedule_kind, runner.schedule_files),
}


def parse_config(data: dict) -> Experiment:
    """Validate a config mapping and build the corresponding specs."""
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ConfigError("name", f"experiment name must be a string, got {name!r}")
    if not name:
        raise ConfigError("name", "missing or empty experiment name")
    if name in (".", "..") or "/" in name or os.sep in name or "\0" in name:  # also rejects absolute paths
        raise ConfigError("name", f"must be a plain directory name, got {name!r}")
    present = [k for k in KINDS if k in data]
    if len(present) != 1:
        raise ConfigError("kind", f"config must contain exactly one of {tuple(KINDS)}, found {present}")
    kind = KINDS[present[0]]
    fmt = data.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("format", f"must be 'csv' or 'json', got {fmt!r}")
    output_dir = data.get("output_dir")
    if output_dir is not None and (not isinstance(output_dir, str) or "\0" in output_dir):
        raise ConfigError("output_dir", f"expected a path string without NUL bytes, got {output_dir!r}")
    _mapping(data, "config", ("name", "format", "output_dir", "sweep", present[0]))
    sweep_field, sweep_values = _parse_sweep(data.get("sweep"), "sweep")
    if sweep_field is not None and not kind.sweeps:
        raise ConfigError("sweep", f"the {present[0]!r} kind takes no sweep")
    exp = Experiment(name, present[0], kind.run, fmt=fmt, output_dir=output_dir,
                     sweep_field=sweep_field, sweep_values=sweep_values, raw=data)
    exp.spec = kind.parse(_mapping(data[exp.kind], exp.kind, kind.fields), exp)
    return exp
