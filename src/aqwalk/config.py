"""Declarative experiment configs: schema validation and spec construction.

Configs are YAML mappings with exactly one experiment kind.  `KINDS` lists
each kind once, with each field its mapping may hold and that field's
reader, and its parser; the kind's runner is `runner.{kind}_files`.
Angles accept plain numbers or strings like "pi", "pi/4", "3pi/4",
"0.5*pi".  Config checks the YAML's shape and the specs check their
values; either way an error names its field's dotted path (exit code 2
territory).  The specs need no numpy, so
validating a config loads neither numpy nor any layer that runs it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import yaml

from .errors import ConfigError
from .specs import (RECORD_KEYS, CoinSchedule, DisorderSpec, EnsembleSpec, InitialState, WalkSpec, as_count,
                    as_int, check_chain, dispersion_line)

__all__ = ["Experiment", "KINDS", "load_config", "parse_config", "parse_angle"]

_NAMED_INITIALS_1P = ("up", "down", "symmetric")

_ANGLE_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(\d*\.?\d+))?$")


def parse_angle(value, where: str) -> float:
    """Number, numeric string or 'pi'-style string to a float; NaN and infinities are rejected.

    Every real number of a config is read here: YAML 1.1 reads an exponent
    without a dot, such as 1e-4, as a string.
    """
    angle = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int too large for a float
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
    """Parsed config, ready to run: `runner.execute` runs its spec."""

    name: str
    kind: str
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


class _Given(dict):
    """The fields read from the mapping at `where`; indexing one it left out is a missing-field error."""

    def __missing__(self, key):
        raise ConfigError(f"{self.where}.{key}", "missing required field")


def _read(raw, where: str, fields: dict) -> _Given:
    """raw's fields, each read at where.field (at the top level, where "", at the bare field) by its
    reader in fields: a reader takes a value and its path and returns the value read or raises
    ConfigError on the path (None: as given).  A field outside fields is an error, and so is a null
    one; one raw leaves out is left out, so that its spec's default applies."""
    if not isinstance(raw, dict):
        raise ConfigError(where or "config", "expected a mapping")
    unknown = raw.keys() - fields.keys()
    if unknown:
        raise ConfigError(where or "config", f"unknown fields {sorted(unknown, key=str)}")
    given = _Given()
    given.where = where
    for key, read in fields.items():
        if key in raw:
            path = f"{where}.{key}" if where else key
            if raw[key] is None:
                raise ConfigError(path, "is null: give a value, or leave the field out")
            given[key] = raw[key] if read is None else read(raw[key], path)
    return given


def _particles(value, where: str) -> int:
    if as_int(value, where) not in (1, 2):
        raise ConfigError(where, f"must be 1 or 2, got {value}")
    return value


@contextlib.contextmanager
def _fields(where: str, **paths):
    """Re-raise a spec's ConfigError at where.field, or at the path paths gives the field."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(paths.get(exc.field, f"{where}.{exc.field}"), exc.message) from None


def _parse_initial(raw, particles: int, where: str) -> InitialState:
    if isinstance(raw, str):
        label = raw.strip().lower()
        if particles == 1:
            if label not in _NAMED_INITIALS_1P:
                raise ConfigError(where, f"unknown one-particle initial state {raw!r}")
            return getattr(InitialState, label)()
        with _fields(where, initial=where):
            try:
                return InitialState.basis_two_particle(label)
            except ConfigError:  # the label as given is no basis state either: quote it
                return InitialState.basis_two_particle(raw)
    if isinstance(raw, list):
        if not all(isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in raw):
            raise ConfigError(where, "amplitudes must be [re, im] pairs")
        if len(raw) != 2 * particles:
            raise ConfigError(where, f"a {particles}-particle walk needs {2 * particles} amplitudes, "
                                     f"got {len(raw)}")
        amps = [complex(parse_angle(re, where), parse_angle(im, where)) for re, im in raw]
        try:
            return InitialState(amps)
        except ValueError as exc:
            raise ConfigError(where, str(exc))
    raise ConfigError(where, "expected a named state or a list of [re, im] pairs")


def _parse_disorder(raw, where: str) -> DisorderSpec:
    given = _read(raw, where, DISORDER_FIELDS)
    unused = sorted(given.keys() - {"kind"})
    if given.get("kind", DisorderSpec.kind) == "none" and unused:
        raise ConfigError(f"{where}.kind", f"is 'none' (the default), which draws no phases, "
                                           f"so {', '.join(unused)} would have no effect")
    with _fields(where):
        return DisorderSpec(**given)


def _list(value, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(where, "expected a non-empty list")
    return value


# the fields of the mappings nested in a kind; initial needs particles, so _walk reads it
DISORDER_FIELDS = {"kind": None, "phase_min": parse_angle, "phase_max": parse_angle, "seed": as_int}
WALK_FIELDS = {"particles": _particles, "theta0": parse_angle, "acceleration": parse_angle, "steps": as_int,
               "initial": None, "disorder": _parse_disorder, "record": _list, "layout": None}
KAPPA_FIELDS = {"min": parse_angle, "max": parse_angle, "count": as_count}


def _walk(given: _Given, where: str, exp: Experiment | None = None) -> WalkSpec:
    paths = {}
    if exp is not None and exp.sweep_field is not None and exp.sweep_field not in given:
        # a field the sweep sets may be left out; the walk then holds its first value, named as a sweep value
        given[exp.sweep_field] = exp.sweep_values[0]
        paths[exp.sweep_field] = f"sweep.{exp.sweep_field}"
    theta0, steps, particles = given["theta0"], given["steps"], given.get("particles", 1)
    init = _parse_initial(given.get("initial", "symmetric" if particles == 1 else "uu"), particles, f"{where}.initial")
    optional = {key: given[key] for key in ("disorder", "record", "layout") if key in given}
    with _fields(where, **paths):
        return WalkSpec(CoinSchedule(theta0, given.get("acceleration", CoinSchedule.a)), init, steps, **optional)


def _parse_walk(raw, where: str, exp: Experiment | None = None) -> WalkSpec:
    return _walk(_read(raw, where, WALK_FIELDS), where, exp)


def _schedule_values(values, where: str) -> list[float]:
    """A non-empty list of numbers; the CoinSchedules built from them check each value."""
    return [parse_angle(v, where) for v in _list(values, where)]


def _parse_sweep(raw, where: str):
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ConfigError(where, "sweep must map exactly one field to a list of values")
    (key, values), = raw.items()
    if key not in ("acceleration", "theta0"):
        raise ConfigError(where, f"sweep field must be 'acceleration' or 'theta0', got {key!r}")
    return key, _schedule_values(values, f"{where}.{key}")


def _with_schedule(walk: WalkSpec, **change) -> WalkSpec:
    return dataclasses.replace(walk, schedule=dataclasses.replace(walk.schedule, **change))


def _sweep_runs(exp: Experiment, walk: WalkSpec) -> list[tuple[str, WalkSpec]]:
    """(output file suffix, walk) per sweep point of exp; one unsuffixed run without a sweep."""
    if exp.sweep_field is None:
        return [("", walk)]
    attr, tag = {"acceleration": ("a", "_a"), "theta0": ("theta0", "_theta")}[exp.sweep_field]
    with _fields("sweep"):  # the walk's schedules check each value
        runs = [(f"{tag}{value:g}", _with_schedule(walk, **{attr: value})) for value in exp.sweep_values]
    for i, (suffix, _) in enumerate(runs):
        if suffix in (earlier for earlier, _ in runs[:i]):
            raise ConfigError(f"sweep.{exp.sweep_field}", f"two values write the same files (suffix {suffix!r})")
    return runs


# Kind parsers: each takes the kind's fields as read and the Experiment under construction, and returns
# the spec its runner takes.  Required fields are indexed before `_fields`, which would prefix their paths again.

def _walk_kind(given: _Given, exp: Experiment):
    exp.walk = _walk(given, "walk", exp)
    return _sweep_runs(exp, exp.walk)


def _ensemble_kind(given: _Given, exp: Experiment):
    walk = _parse_walk(given["walk"], "ensemble.walk", exp)
    if "seed" in given["walk"].get("disorder", {}):
        # realization i draws stream (base_seed, i), so a walk seed would be ignored
        raise ConfigError("ensemble.walk.disorder.seed", "an ensemble takes its seed from ensemble.base_seed")
    if "base_seed" in given and walk.disorder.kind == "none":
        raise ConfigError("ensemble.base_seed", "a clean ensemble draws no phases, so a seed has no effect")
    fields = dict(given, walk=walk, runs=given["runs"])
    with _fields("ensemble"):
        exp.ensemble = EnsembleSpec(**fields)
    return [(suffix, dataclasses.replace(exp.ensemble, walk=point)) for suffix, point in _sweep_runs(exp, walk)]


def _surface_kind(given: _Given, exp: Experiment):
    exp.walk, accels = given["walk"], given["accelerations"]
    observable = given.get("observable", "negativity_particle_particle")
    if observable not in RECORD_KEYS or observable == "distribution":
        raise ConfigError("surface.observable", f"not a per-step observable: {observable!r}")
    if observable not in exp.walk.record:
        raise ConfigError("surface.walk.record", f"must include {observable!r}")
    with _fields("surface", acceleration="surface.accelerations"):
        return [_with_schedule(exp.walk, a=a) for a in accels], observable


def _dispersion_kind(given: _Given, exp: Experiment):
    if "variant" in given:
        with _fields("dispersion"):
            dispersion_line(given["variant"])
    kappa = given.pop("kappa", {})
    kgrid = kappa.get("min", -math.pi), kappa.get("max", math.pi), kappa.get("count", 256)
    return dict(given, theta0=given["theta0"]), kgrid


def _transfer_kind(given: _Given, exp: Experiment):
    return given.get("particles", 1), given["theta"], given.get("phi", 0.0), given["omega"]


def _lyapunov_kind(given: _Given, exp: Experiment):
    theta, omega = given["theta"], given["omega"]
    disorder, chain_length = given.get("disorder", DisorderSpec("spatial")), given.get("chain_length", 200_000)
    with _fields("lyapunov"):
        check_chain(disorder, chain_length)
    return disorder, theta, omega, chain_length


def _schedule_kind(given: _Given, exp: Experiment):
    theta0, accelerations = given["theta0"], given["accelerations"]
    with _fields("schedule", acceleration="schedule.accelerations"):
        return [CoinSchedule(theta0, a) for a in accelerations], given.get("steps", 200)


@dataclass(frozen=True)
class Kind:
    """An experiment kind: its mapping's fields, each with its reader (None: the parser reads it),
    its parser, and whether a sweep applies.  Its runner is `runner.{kind}_files`, which takes the
    spec the parser returns; naming it here would load the runner, and every layer, to validate a config."""

    fields: dict[str, Callable | None]
    parse: Callable
    sweeps: bool = False


KINDS = {
    "walk": Kind(WALK_FIELDS, _walk_kind, sweeps=True),
    # the ensemble's walk needs the sweep, and its raw disorder.seed
    "ensemble": Kind({"walk": None, "runs": as_int, "base_seed": as_int}, _ensemble_kind, sweeps=True),
    "surface": Kind({"walk": _parse_walk, "accelerations": _schedule_values, "observable": None}, _surface_kind),
    "dispersion": Kind({"variant": None, "theta0": parse_angle, "phi": parse_angle,
                        "kappa": functools.partial(_read, fields=KAPPA_FIELDS)}, _dispersion_kind),
    "transfer": Kind({"particles": _particles, "theta": parse_angle, "phi": parse_angle, "omega": parse_angle},
                     _transfer_kind),
    "lyapunov": Kind({"theta": parse_angle, "omega": parse_angle, "chain_length": as_int,
                      "disorder": _parse_disorder}, _lyapunov_kind),
    "schedule": Kind({"theta0": parse_angle, "accelerations": _schedule_values, "steps": as_count}, _schedule_kind),
}

# the top level; each kind's mapping is read once the config is known to hold one kind
_CONFIG = {"name": None, "format": None, "output_dir": None, "sweep": _parse_sweep, **dict.fromkeys(KINDS)}


def parse_config(data: dict) -> Experiment:
    """Validate a config mapping and build the corresponding specs."""
    given = _read(data, "", _CONFIG)
    name, fmt, output_dir = given.get("name"), given.get("format", "csv"), given.get("output_dir")
    if name is not None and not isinstance(name, str):
        raise ConfigError("name", f"experiment name must be a string, got {name!r}")
    if not name:
        raise ConfigError("name", "missing or empty experiment name")
    if name in (".", "..") or "/" in name or os.sep in name or "\0" in name:  # also rejects absolute paths
        raise ConfigError("name", f"must be a plain directory name, got {name!r}")
    present = [k for k in KINDS if k in given]
    if len(present) != 1:
        raise ConfigError("kind", f"config must contain exactly one of {tuple(KINDS)}, found {present}")
    kind = KINDS[present[0]]
    if fmt not in ("csv", "json"):
        raise ConfigError("format", f"must be 'csv' or 'json', got {fmt!r}")
    if output_dir is not None and (not isinstance(output_dir, str) or not output_dir or "\0" in output_dir):
        raise ConfigError("output_dir", f"expected a non-empty path string without NUL bytes, got {output_dir!r}")
    sweep_field, sweep_values = given.get("sweep", (None, None))
    if sweep_field is not None and not kind.sweeps:
        raise ConfigError("sweep", f"the {present[0]!r} kind takes no sweep")
    exp = Experiment(name, present[0], fmt=fmt, output_dir=output_dir,
                     sweep_field=sweep_field, sweep_values=sweep_values, raw=data)
    exp.spec = kind.parse(_read(given[exp.kind], exp.kind, kind.fields), exp)
    return exp
