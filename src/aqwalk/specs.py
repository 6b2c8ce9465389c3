"""Specs: the plain values that describe a walk, an ensemble and the
analytic kinds, and the rules they obey.

No spec needs numpy, so every config validates without loading it; the
engines (evolve, ensemble, observables, spectral) take their specs from
here and keep only the numpy work.  Each spec is a frozen dataclass of
plain values, so equal specs compare equal and hash equal.

The coin's parameters are the exponential angle schedule that accelerates
the walk and the phase disorder of the phase operator after it.  The coins
themselves, [[cos, -i sin], [-i sin, cos]] with the phase diagonal applied
after it, are inlined in the evolution engine (see evolve._COIN_SIGNS and
the phase powers in LINES).

A one-particle walk is a line of two coin components (up, down).  A
two-particle walk holds the four coin components (uu, ud, du, dd) as
lines: the coin mixes uu with dd and ud with du, and the shift moves uu
and dd along x and ud and du along y.  A start with coin support in
{uu, dd} stays on one x line, support in {ud, du} on one y line, and a
mixed start (a full-2D walk) on the x and the y line through the origin,
which is all of the 2D grid it ever reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = [
    "CoinSchedule",
    "DISPERSION_VARIANTS",
    "DisorderSpec",
    "EnsembleSpec",
    "InitialState",
    "LINES",
    "RECORD_KEYS",
    "WalkSpec",
    "confinement",
    "theta_at",
]

DISORDER_KINDS = ("none", "spatial", "temporal")

RECORD_KEYS = (
    "distribution",
    "sigma",
    "ipr",
    "negativity_coin_position",
    "negativity_particle_particle",
)

COIN_NORM_TOL = 1e-9

# basis index order for the two-particle coin space
_BASIS_2P = {"uu": 0, "ud": 1, "du": 2, "dd": 3}
_BASIS = {"up": 0, "down": 1, **_BASIS_2P}


def as_int(value, where: str) -> int:
    """value, if it is an integer (a bool is not); ConfigError on where otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(where, f"expected an integer, got {value!r}")
    return value


def as_count(value, where: str) -> int:
    """value, if it is an integer >= 1; ConfigError on where otherwise."""
    if as_int(value, where) < 1:
        raise ConfigError(where, f"must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class CoinSchedule:
    """Exponentially decaying coin angle: step t uses theta0 * exp(-a*t).

    Parameters
    ----------
    theta0 : float
        Base coin angle in radians, 0 <= theta0 <= pi/2.
    a : float
        Decay rate per step, a >= 0.  a = 0 keeps the angle constant
        (homogeneous walk); larger a drives the angle to zero and the
        walker toward full speed.
    """

    theta0: float
    a: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta0 <= math.pi / 2:
            raise ConfigError("theta0", f"must be in [0, pi/2], got {self.theta0}")
        if not self.a >= 0.0:  # also rejects NaN
            raise ConfigError("acceleration", f"must be >= 0, got {self.a}")


def theta_at(schedule: CoinSchedule, t: int) -> float:
    """Coin angle for step t (t = 1, 2, ... counts applied steps).

    Strictly decreasing in t for a > 0, constant for a = 0.
    """
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    return schedule.theta0 * math.exp(-schedule.a * t)


@dataclass(frozen=True)
class DisorderSpec:
    """What kind of phase disorder to draw and from which seeded stream.

    kind "none" means phi = 0 everywhere; "spatial" draws one phi per
    lattice site (frozen in time); "temporal" draws one phi per step
    (uniform in space).
    """

    kind: str = "none"
    phase_min: float = 0.0
    phase_max: float = math.pi
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DISORDER_KINDS:
            raise ConfigError("kind", f"must be one of {DISORDER_KINDS}, got {self.kind!r}")
        for name in ("phase_max", "phase_min"):
            if not math.isfinite(2 * getattr(self, name)):
                raise ConfigError(name, "must be finite, and so must twice it (a phase factor takes e^{2i phi})")
        if self.phase_min > self.phase_max:
            raise ConfigError("phase_min", "must be <= phase_max")
        as_int(self.seed, "seed")


@dataclass(frozen=True)
class Line:
    """A one-line layout: the two components (L, R) it stores, L the one that
    moves toward lower positions, and their phase powers (k down spins pick
    up e^{i k phi})."""

    fields: tuple[str, str]
    powers: tuple[int, int]

    @property
    def slots(self) -> tuple[int, int]:
        """Indices of L and R in the coin vector."""
        return _BASIS[self.fields[0]], _BASIS[self.fields[1]]


# up moves to x-1, uu to x-1, du to y-1
LINES = {
    "1p": Line(("up", "down"), (0, 1)),
    "xline": Line(("uu", "dd"), (0, 2)),
    "yline": Line(("du", "ud"), (1, 1)),
}

DISPERSION_VARIANTS = {"single": LINES["1p"], "two_particle_xline": LINES["xline"],
                       "two_particle_yline": LINES["yline"]}


@dataclass(frozen=True)
class InitialState:
    """Coin amplitudes of a walk at site 0.

    coin: a flat sequence (a list, a tuple, a 1D array) of 2 numbers (one
    particle) or 4 (two particles, order uu, ud, du, dd), kept as a tuple
    of complex.
    """

    coin: tuple[complex, ...]

    def __post_init__(self):
        try:
            amps = list(self.coin)
            if any(getattr(a, "ndim", 0) for a in amps):  # an array inside: older numpy lets complex() unwrap one
                raise TypeError
            coin = tuple(map(complex, amps))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"coin vector must be a flat sequence of numbers, got {self.coin!r}") from None
        object.__setattr__(self, "coin", coin)
        if len(coin) not in (2, 4):
            raise ValueError(f"coin vector must have length 2 or 4, got {len(coin)}")
        try:
            nrm = sum(abs(a) * abs(a) for a in coin)
        except OverflowError:  # an |amp| beyond the largest float
            nrm = math.inf
        if not abs(nrm - 1.0) <= COIN_NORM_TOL:  # also rejects NaN
            raise ValueError(f"coin vector must be normalized, |amp|^2 sums to {nrm!r}")

    @classmethod
    def up(cls) -> "InitialState":
        return cls((1.0, 0.0))

    @classmethod
    def down(cls) -> "InitialState":
        return cls((0.0, 1.0))

    @classmethod
    def symmetric(cls) -> "InitialState":
        """(|up> + |down>)/sqrt(2)."""
        r = 1.0 / math.sqrt(2.0)
        return cls((r, r))

    @classmethod
    def basis_two_particle(cls, label: str) -> "InitialState":
        """One of the four coin basis states 'uu', 'ud', 'du', 'dd'; ConfigError on 'initial' for any other label."""
        if not isinstance(label, str) or label not in _BASIS_2P:
            raise ConfigError("initial", f"must be one of {tuple(_BASIS_2P)}, got {label!r}")
        return cls([float(i == _BASIS_2P[label]) for i in range(4)])


def confinement(coin, force_full2d: bool = False) -> str:
    """Layout a walk from this coin vector keeps for all time.

    A one-particle coin gives "1p".  Two-particle coin support in {uu, dd}
    gives "xline", support in {ud, du} "yline", anything mixed (or
    force_full2d) "full2d".
    """
    if len(coin) == 2:
        return "1p"
    if not force_full2d:
        support = {i for i in range(4) if coin[i] != 0}
        for name in ("xline", "yline"):
            if support <= set(LINES[name].slots):
                return name
    return "full2d"


def families(layout: str) -> tuple[str, ...]:
    """Keys of LINES for the families of lines a layout is made of.

    A one-line layout is one line.  A full-2D field is an x line (uu, dd)
    and a y line (du, ud): the coin mixes only uu with dd and ud with du,
    and the shift moves each pair along its own axis.
    """
    return (layout,) if layout in LINES else ("xline", "yline")


@dataclass(frozen=True)
class WalkSpec:
    """Complete description of a single walk run; it starts at 0 with the coin vector init.coin."""

    schedule: CoinSchedule
    init: InitialState
    steps: int
    disorder: DisorderSpec = field(default_factory=DisorderSpec)
    record: tuple[str, ...] = ("distribution", "sigma")
    layout: str = "auto"  # "full2d" keeps confined 2p walks on the 2D grid

    def __post_init__(self):
        as_count(self.steps, "steps")
        if self.layout not in ("auto", "full2d"):
            raise ConfigError("layout", f"must be 'auto' or 'full2d', got {self.layout!r}")
        if self.layout == "full2d" and self.particle_count != 2:
            raise ConfigError("layout", "'full2d' requires particle_count = 2")
        object.__setattr__(self, "record", tuple(self.record))
        for i, key in enumerate(self.record):
            if key not in RECORD_KEYS:
                raise ConfigError("record", f"unknown record key {key!r}; known keys: {RECORD_KEYS}")
            if key in self.record[:i]:
                raise ConfigError("record", f"{key!r} is listed twice")
        if "negativity_particle_particle" in self.record and self.particle_count != 2:
            raise ConfigError("record", "negativity_particle_particle requires particle_count = 2")
        if self.full2d:
            for key in self.record:
                if key in ("sigma", "ipr", "negativity_coin_position"):
                    raise ConfigError("record", f"{key} needs a one-line walk; a full-2D walk records "
                                                "distribution and negativity_particle_particle")
            if self.disorder.kind == "spatial":
                raise ConfigError("disorder", "spatial disorder is only supported on confined (single-line) walks")

    @property
    def particle_count(self) -> int:
        """1 or 2, from the length of the coin vector."""
        return len(self.init.coin) // 2

    @property
    def confinement(self) -> str:
        """The layout the walk keeps for all time: "1p", "xline", "yline" or "full2d"."""
        return confinement(self.init.coin, self.layout == "full2d")

    @property
    def full2d(self) -> bool:
        """True for a two-particle walk on the x and y lines: a mixed start or layout 'full2d'."""
        return self.confinement == "full2d"


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
        as_count(self.runs, "runs")
        as_int(self.base_seed, "base_seed")
        if self.walk.full2d and "distribution" in self.walk.record:
            raise ConfigError("walk.record",
                              "ensembles average 1D distributions; a full-2D walk cannot record distribution")


def dispersion_line(variant) -> Line:
    """The line whose dispersion relation a variant of DISPERSION_VARIANTS names;
    ConfigError on 'variant' for anything else."""
    if not isinstance(variant, str) or variant not in DISPERSION_VARIANTS:
        raise ConfigError("variant", f"must be one of {tuple(DISPERSION_VARIANTS)}, got {variant!r}")
    return DISPERSION_VARIANTS[variant]


def check_chain(disorder: DisorderSpec, chain_length: int):
    """A Lyapunov transfer chain's rules: at least 1000 sites, and spatial disorder or none."""
    if as_int(chain_length, "chain_length") < 1000:
        raise ConfigError("chain_length", f"must be >= 1000, got {chain_length}")
    if disorder.kind == "temporal":
        raise ConfigError("disorder", "transfer chains take spatial disorder only (kind 'none' or 'spatial')")
