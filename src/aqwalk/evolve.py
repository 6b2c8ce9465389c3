"""Evolution engine: shift+coin steps, phase disorder, walk driver.

Conventions (fixed throughout the package):

* One particle: each step applies the combined coin at every site and
  then the shift that moves the up component one site left (x -> x-1)
  and the down component one site right (x -> x+1).  With the phase
  operator on the down branch, amplitudes update as

      up[x]   <-  cos(th) up[x+1] - i sin(th) down[x+1]
      down[x] <-  e^{i phi_{x-1}} (-i sin(th) up[x-1] + cos(th) down[x-1])

  i.e. the phase of the site where the coin acted travels with the
  down-moving branch.

* Two particles: uu moves to x-1, dd to x+1, ud to y+1, du to y-1, and
  the row phases (1, e^{i phi}, e^{i phi}, e^{2i phi}) of the combined
  4x4 coin travel with their components the same way.

* Disorder lives only in the phase angle phi (uniform over
  [phase_min, phase_max]); acceleration lives only in the coin angle
  schedule theta0 * exp(-a t).

* A one-particle walk and a confined two-particle walk are the same
  two-component update: a component L that moves to lower positions, a
  component R that moves to higher ones, and row phases e^{i k phi} with
  k the number of down spins of each.  A full-2D field is two such lines
  through the origin, (uu, dd) along x and (du, ud) along y.  One batched kernel
  steps every layout, in frames that move with L and R (see _Frame).

* A walk starts at 0, so its lattice [-steps, steps] is exactly its light
  cone and no amplitude leaves it.

All steps are unitary: the norm of the state is preserved to machine
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coins import CoinSchedule, theta_at
from .observables import (
    Distribution1D,
    Distribution2D,
    crossing_coin_density,
    line_observables,
    particle_particle_from_density,
    site_distribution,
)
# unused here: perfbench's replay patches them
from .observables import (  # noqa: F401
    distribution, ipr, negativity_coin_position, negativity_particle_particle, sigma)
from .state import LINES, Field, InitialState, confinement, families, new_field, site_probabilities

__all__ = [
    "DisorderSpec",
    "WalkSpec",
    "RunResult",
    "sample_landscape",
    "run_walk",
    "run_walk_batch",
]

DISORDER_KINDS = ("none", "spatial", "temporal")

RECORD_KEYS = (
    "distribution",
    "sigma",
    "ipr",
    "negativity_coin_position",
    "negativity_particle_particle",
)

_SEED_MASK = (1 << 64) - 1
_REALIZATION_0 = object()  # run_walk's default landscape


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
            raise ValueError(f"disorder kind must be one of {DISORDER_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.phase_min) and math.isfinite(self.phase_max)):
            raise ValueError("phase_min and phase_max must be finite")
        if self.phase_min > self.phase_max:
            raise ValueError("phase_min must be <= phase_max")


def sample_landscape(disorder: DisorderSpec, size: int, realization_index: int = 0) -> np.ndarray | None:
    """Draw one disorder realization, deterministic in (seed, index).

    A landscape is its phases: one per lattice site (spatial disorder) or
    per step (temporal), size of them, and None for the clean walk.  Each
    realization index keys an independent, reproducible stream.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if realization_index < 0:
        raise ValueError("realization_index must be >= 0")
    if disorder.kind == "none":
        return None
    rng = np.random.default_rng([disorder.seed & _SEED_MASK, realization_index])
    return rng.uniform(disorder.phase_min, disorder.phase_max, size)


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
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.layout not in ("auto", "full2d"):
            raise ValueError(f"layout must be 'auto' or 'full2d', got {self.layout!r}")
        if self.layout == "full2d" and self.particle_count != 2:
            raise ValueError("layout 'full2d' requires particle_count = 2")
        object.__setattr__(self, "record", tuple(self.record))
        for key in self.record:
            if key not in RECORD_KEYS:
                raise ValueError(f"unknown record key {key!r}; known keys: {RECORD_KEYS}")
        if "negativity_particle_particle" in self.record and self.particle_count != 2:
            raise ValueError("negativity_particle_particle requires particle_count = 2")
        if self.full2d:
            for key in self.record:
                if key in ("sigma", "ipr", "negativity_coin_position"):
                    raise ValueError(f"{key} needs a one-line walk; a full-2D walk records "
                                     "distribution and negativity_particle_particle")
            if self.disorder.kind == "spatial":
                raise ValueError("spatial disorder is only supported on confined (single-line) walks")

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


@dataclass
class RunResult:
    """Recorded time series of one walk (index 0 is the initial state)."""

    sigma: np.ndarray | None = None
    ipr: np.ndarray | None = None
    negativity_coin_position: np.ndarray | None = None
    negativity_particle_particle: np.ndarray | None = None
    distribution: Distribution1D | Distribution2D | None = None
    final_state: Field | None = None

    def series(self, key: str) -> np.ndarray:
        value = getattr(self, key)
        if value is None:
            raise KeyError(f"observable {key!r} was not recorded")
        return value


# On the (Re, Im) planes of one component the coin [[c, -i s], [-i s, c]] adds
# s * (Im X, -Re X) of the other component X: its planes reversed, times these signs.
_COIN_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)


def _phase_planes(rows, power: int):
    """Factors e^{i power phi} as planes (cos, -sin, sin); None without a phase.

    rows holds, per batch row, an array of phases (per site or per step);
    the planes have shape (3, m, rows).  Each row is computed by its own
    call, so its values do not depend on the batch it sits in.
    """
    if power == 0 or not rows or rows[0] is None:
        return None
    angles = [power * np.asarray(phi, dtype=float) for phi in rows]
    cos = np.array([np.cos(a) for a in angles]).T
    sin = np.array([np.sin(a) for a in angles]).T
    return np.stack([cos, -sin, sin])


def _by_parity(values):
    """A per-site array, lattice sites on axis 1, as its even and its odd sites (see _Frame.at_cone)."""
    return np.ascontiguousarray(values[:, 0::2]), np.ascontiguousarray(values[:, 1::2])


class _Frame:
    """The line kernel: rows of one-line walks advanced together in a moving frame.

    At time t a walk from the origin holds amplitude only on the sites
    x = 2k - t, k = 0..t, of the lattice [-T, T] of a T-step walk.  L moves
    to x - 1 and R to x + 1 at every step, so L at that site is kept in
    slot k and R in slot k - t + T: neither moves in memory, the shift
    costs nothing, and T + 1 slots hold the whole walk.  The cone of time
    T is the lattice, so no amplitude can leave it.

    planes has shape (2, 2, T + 1, rows): component (L, R), part (Re, Im),
    slot, row, so the slots of one step are a contiguous block.  Every
    value is made by single multiplies and adds, each rounded once.
    numpy's complex loops may round differently with the array layout;
    the planes keep each row bit-identical to the same walk run alone.
    """

    def __init__(self, layout: str, rows: int, steps: int, coin):
        """Rows of a walk in `layout` from the coin vector at the origin."""
        self.layout = layout
        self.steps = steps
        self.t = 0
        self.planes = np.zeros((2, 2, steps + 1, rows))
        x = np.arange(-steps, steps + 1.0)
        self.positions = _by_parity(np.stack([x, x * x]))
        for planes, slot in zip(self.cone(), LINES[layout].slots):
            planes[0], planes[1] = coin[slot].real, coin[slot].imag

    def cone(self):
        """(L, R) at time t: the site-aligned (2, sites, rows) planes of the cone."""
        return self.planes[0, :, :self.t + 1], self.planes[1, :, self.steps - self.t:]

    def at_cone(self, halves):
        """A per-site array split by _by_parity at the cone's sites, lattice indices T - t, T - t + 2, ..., T + t."""
        start = self.steps - self.t
        return halves[start % 2][:, start // 2:start // 2 + self.t + 1]

    def line(self):
        """(layout, planes (Re L, Im L, Re R, Im R) of the cone)."""
        left, right = self.cone()
        return self.layout, (*left, *right)

    def step(self, c: float, s: float, phases):
        """Coin [[c, -i s], [-i s, c]] and row phases at time t, then the shift to t + 1.

        phases holds one entry per component (L, R): None, or planes from
        _phase_planes at the cone's sites or one entry for all sites.
        """
        left, right = self.cone()
        mix = s * _COIN_SIGNS
        turned = left[::-1] * mix
        left *= c
        left += right[::-1] * mix
        right *= c
        right += turned
        for block, phase in zip((left, right), phases):
            if phase is not None:
                turned = block[::-1] * phase[1:]  # (-Im sin, Re sin)
                block *= phase[0]
                block += turned
        self.t += 1

    def observe(self, keys) -> dict:
        """The scalar observables named in keys, one value per row."""
        left, right = self.cone()
        return line_observables(keys, *left, *right, self.at_cone(self.positions))


def _complex(planes):
    """(L, R) of planes ((Re L, Im L), (Re R, Im R)); exact, as 1j * x only moves x."""
    return planes[0, 0] + 1j * planes[0, 1], planes[1, 0] + 1j * planes[1, 1]


def landscape_size(spec: WalkSpec) -> int:
    """Number of random draws one realization of this walk needs."""
    if spec.disorder.kind == "temporal":
        return spec.steps
    return 2 * spec.steps + 1


def _check_landscape(spec: WalkSpec, landscape: np.ndarray | None):
    if (landscape is None) != (spec.disorder.kind == "none"):
        raise ValueError(f"a walk with disorder kind {spec.disorder.kind!r} "
                         f"{'needs a' if landscape is None else 'takes no'} landscape")
    if landscape is not None and len(landscape) != landscape_size(spec):
        raise ValueError(f"landscape has {len(landscape)} phases, walk needs {landscape_size(spec)}")
    if landscape is not None and not np.all(np.isfinite(landscape)):
        raise ValueError("landscape phases must be finite")


def run_walk(spec: WalkSpec, landscape: np.ndarray | None = _REALIZATION_0) -> RunResult:
    """Run a full walk, recording the requested observables at every step.

    landscape (see sample_landscape; None only for the clean walk) defaults
    to realization 0 of spec.disorder.  Scalar series (sigma, ipr,
    negativities) have steps+1 entries with index 0 the initial state; the
    distribution is of the final state only.  The one row of run_walk_batch.
    """
    if landscape is _REALIZATION_0:
        landscape = sample_landscape(spec.disorder, landscape_size(spec), 0)
    series, p, final = run_walk_batch(spec, [landscape])
    return RunResult(**{key: line[0] for key, line in series.items()},
                     distribution=None if p is None else site_distribution([line[:, 0] for line in p]),
                     final_state=new_field(spec.confinement, [_complex(planes[..., 0]) for planes in final]))


def run_walk_batch(spec: WalkSpec, landscapes):
    """run_walk once per landscape, all landscapes as one batch: (series, p, planes).

    series maps each recorded scalar key to a (rows, T + 1) array; p is None
    unless distribution is recorded, else the final site_probabilities of
    each family of lines, (2T + 1, rows) each; planes holds each family's
    final planes (L, R) x (Re, Im), (2, 2, 2T + 1, rows).  Row i is
    bit-identical to run_walk(spec, landscapes[i]) whatever the batch size,
    and a failing norm check's ValueError names its first failing `row`.
    A full-2D walk runs as two frames in lockstep, its x and its y line.
    Memory grows by 32 (T + 1) bytes per row and family; callers cap it.
    """
    for landscape in landscapes:
        _check_landscape(spec, landscape)
    layout, rows, steps = spec.confinement, len(landscapes), spec.steps
    frames = [_Frame(name, rows, steps, spec.init.coin) for name in families(layout)]
    phases = [[_phase_planes(landscapes, power) for power in LINES[frame.layout].powers] for frame in frames]
    if spec.disorder.kind == "spatial":
        phases = [[None if f is None else _by_parity(f) for f in planes] for planes in phases]
    scalar_keys = [k for k in spec.record if k != "distribution"]
    series = {k: np.zeros((rows, steps + 1)) for k in scalar_keys}

    def record(t):
        if len(frames) == 1:
            observed = frames[0].observe(scalar_keys) if scalar_keys else {}
        else:  # the spec lets a full-2D walk record no other scalar; its lines cross at the origin at even t
            observed = {key: particle_particle_from_density(crossing_coin_density(
                [frame.line() for frame in frames], None if t % 2 else t // 2)) for key in scalar_keys}
        for key, value in observed.items():
            series[key][:, t] = value

    record(0)
    for t in range(1, steps + 1):
        theta = theta_at(spec.schedule, t)
        c, s = math.cos(theta), math.sin(theta)
        for frame, planes in zip(frames, phases):
            at = frame.at_cone if spec.disorder.kind == "spatial" else lambda f: f[:, t - 1:t]
            frame.step(c, s, [None if f is None else at(f) for f in planes])
        record(t)

    final = [np.zeros((2, 2, 2 * steps + 1, rows)) for _ in frames]
    for frame, planes in zip(frames, final):
        planes[:, :, ::2] = frame.planes  # at t = T, slot k of L and of R holds lattice site 2k
    p = None
    if "distribution" in spec.record:  # elementwise, so each row gets the bits of its own state's distribution
        p = [site_probabilities(*planes.reshape(4, 2 * steps + 1, rows)) for planes in final]
    return series, p, final
