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
  k the number of down spins of each.  A full-2D field is two families of
  such lines, (uu, dd) along x and (du, ud) along y.  One batched kernel
  steps every layout, in frames that move with L and R (see _Frame).

All steps are unitary: the norm of the state is preserved to machine
precision, and boundary overflow is a hard error rather than a silent
truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coins import CoinSchedule, theta_at
from .errors import BoundaryOverflowError
# sigma, ipr and the per-state negativities are unused here: perfbench's replay patches them
from .observables import (  # noqa: F401
    Distribution1D,
    Distribution2D,
    crossing_coin_density,
    distribution,
    ipr,
    line_observables,
    negativity_coin_position,
    negativity_particle_particle,
    particle_particle_from_density,
    sigma,
)
from .state import (
    LINES,
    InitialState,
    SpinorField1P,
    TwoParticleField,
    lines,
    new_one_particle,
    new_two_particle,
    two_particle_confinement,
    with_lines,
)

__all__ = [
    "DisorderSpec",
    "PhaseLandscape",
    "WalkSpec",
    "RunResult",
    "sample_landscape",
    "step_one_particle",
    "step_two_particle",
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


@dataclass(frozen=True)
class PhaseLandscape:
    """One realization of the phase disorder.

    values is a per-site array for spatial disorder, a per-step array for
    temporal disorder, and None for the clean walk.
    """

    kind: str
    values: np.ndarray | None = None


def sample_landscape(disorder: DisorderSpec, size: int, realization_index: int = 0) -> PhaseLandscape:
    """Draw one disorder realization, deterministic in (seed, index).

    size is the number of lattice sites (spatial) or steps (temporal).
    Each realization index keys an independent, reproducible stream.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if realization_index < 0:
        raise ValueError("realization_index must be >= 0")
    if disorder.kind == "none":
        return PhaseLandscape("none", None)
    rng = np.random.default_rng([disorder.seed & _SEED_MASK, realization_index])
    values = rng.uniform(disorder.phase_min, disorder.phase_max, size)
    return PhaseLandscape(disorder.kind, values)


@dataclass(frozen=True)
class WalkSpec:
    """Complete description of a single walk run."""

    particle_count: int
    schedule: CoinSchedule
    init: InitialState
    steps: int
    disorder: DisorderSpec = field(default_factory=DisorderSpec)
    record: tuple[str, ...] = ("distribution", "sigma")
    layout: str = "auto"  # "full2d" keeps confined 2p walks on the 2D grid

    def __post_init__(self):
        if self.particle_count not in (1, 2):
            raise ValueError(f"particle_count must be 1 or 2, got {self.particle_count}")
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
        expected_len = 2 if self.particle_count == 1 else 4
        if self.init.coin.shape != (expected_len,):
            raise ValueError(
                f"initial coin vector length {self.init.coin.shape[0]} does not match "
                f"particle_count {self.particle_count}"
            )
        if self.full2d:
            for key in self.record:
                if key in ("sigma", "ipr", "negativity_coin_position"):
                    raise ValueError(f"{key} needs a one-line walk; a full-2D walk records "
                                     "distribution and negativity_particle_particle")
            if self.disorder.kind == "spatial":
                raise ValueError("spatial disorder is only supported on confined (single-line) walks")

    @property
    def full2d(self) -> bool:
        """True for a two-particle walk kept on the 2D grid: a mixed start or layout 'full2d'."""
        return (self.particle_count == 2
                and two_particle_confinement(self.init.coin, self.layout == "full2d") == "full2d")


@dataclass
class RunResult:
    """Recorded time series of one walk (index 0 is the initial state)."""

    steps: int
    sigma: np.ndarray | None = None
    ipr: np.ndarray | None = None
    negativity_coin_position: np.ndarray | None = None
    negativity_particle_particle: np.ndarray | None = None
    distribution: Distribution1D | Distribution2D | None = None
    final_state: SpinorField1P | TwoParticleField | None = None

    def series(self, key: str) -> np.ndarray:
        value = getattr(self, key)
        if value is None:
            raise KeyError(f"observable {key!r} was not recorded")
        return value


# On the (Re, Im) planes of one component the coin [[c, -i s], [-i s, c]] adds
# s * (Im X, -Re X) of the other component X: its planes reversed, times these signs.
_COIN_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)


def _phase_planes(rows, power: int):
    """Factors e^{i power phi} as (cos, [-sin, sin]); None without a phase.

    rows holds, per batch row, a scalar phi or an array of phases (per
    site or per step); the planes have shapes (m, rows) and (2, m, rows).
    Each row is computed by its own call, so its values do not depend on
    the batch it sits in.
    """
    if power == 0 or rows[0] is None:
        return None
    angles = [power * np.atleast_1d(np.asarray(phi, dtype=float)) for phi in rows]
    cos = np.array([np.cos(a) for a in angles]).T
    sin = np.array([np.sin(a) for a in angles]).T
    return np.ascontiguousarray(cos), np.stack([-sin, sin])


class _Frame:
    """The line kernel: rows of one-line walks advanced together in a moving frame.

    At time t a walk from x0 holds amplitude only on the sites
    x = x0 + 2k - t, k = 0..t.  L moves to x - 1 and R to x + 1 at every
    step, so L at that site is kept in slot k and R in slot k - t + T:
    neither moves in memory, the shift costs nothing, and T + 1 slots hold
    a walk of up to T steps.  Slots whose site lies off the lattice
    [-H, H] are never stepped, and amplitude that would shift onto one
    raises BoundaryOverflowError.

    planes has shape (2, 2, T + 1, rows): component (L, R), part (Re, Im),
    slot, row, so the slots of one step are a contiguous block.  Every
    value is made by single multiplies and adds, each rounded once.
    numpy's complex loops may round differently with the array layout;
    the planes keep each row bit-identical to the same walk run alone.
    """

    def __init__(self, layout: str, rows: int, half_width: int, origin: int, t: int, capacity: int):
        self.layout = layout
        self.half_width = half_width
        self.origin = origin
        self.t = t
        self.capacity = capacity
        self.planes = np.zeros((2, 2, capacity + 1, rows))

    def cone(self):
        """(L, R, sites) at time t: the site-aligned (2, sites, rows) planes of
        the cone on the lattice, and the lattice indices of those sites."""
        index = self.origin + self.half_width - self.t  # of slot 0, which may lie off the lattice
        first = max(0, (1 - index) // 2)
        last = min(self.t, (2 * self.half_width - index) // 2)
        offset = self.capacity - self.t
        start = index + 2 * first
        return (self.planes[0, :, first:last + 1], self.planes[1, :, first + offset:last + offset + 1],
                slice(start, start + 2 * (last - first) + 1, 2))

    def load(self, planes):
        """Take the cone at time t from planes over the whole lattice, shape (2, 2, 2H + 1, rows or 1)."""
        left, right, sites = self.cone()
        left[...], right[...] = planes[0][:, sites], planes[1][:, sites]

    def unload(self, planes):
        """Write the cone at time t into planes over the whole lattice, shape (2, 2, 2H + 1, rows)."""
        left, right, sites = self.cone()
        planes[0][:, sites], planes[1][:, sites] = left, right

    def crossing(self):
        """Planes (Re L, Im L, Re R, Im R) of the cone and the origin's index in them (None at odd t)."""
        left, right, sites = self.cone()
        offset = self.origin + self.half_width - sites.start
        return (*left, *right), None if offset % 2 else offset // 2

    def step(self, c: float, s: float, phases):
        """Coin [[c, -i s], [-i s, c]] and row phases at time t, then the shift to t + 1.

        phases holds one entry per component (L, R): None, or planes from
        _phase_planes with one entry per lattice site or one for all sites.
        """
        left, right, sites = self.cone()
        mix = s * _COIN_SIGNS
        turned = left[::-1] * mix
        left *= c
        left += right[::-1] * mix
        right *= c
        right += turned
        for block, phase in zip((left, right), phases):
            if phase is not None:
                cos, signed_sin = phase
                if len(cos) > 1:
                    cos, signed_sin = cos[sites], signed_sin[:, sites]
                turned = block[::-1] * signed_sin  # (-Im sin, Re sin)
                block *= cos
                block += turned
        left_name, right_name = LINES[self.layout].fields
        if sites.start == 0 and left[:, 0].any():
            raise BoundaryOverflowError(f"{left_name} amplitude would leave the lattice at the lower edge")
        if sites.stop - 1 == 2 * self.half_width and right[:, -1].any():
            raise BoundaryOverflowError(f"{right_name} amplitude would leave the lattice at the upper edge")
        self.t += 1

    def observe(self, keys) -> dict:
        """The scalar observables named in keys, one value per row."""
        left, right, sites = self.cone()
        x = None
        if "sigma" in keys:
            x = 2.0 * np.arange(left.shape[1])[:, None] + float(sites.start - self.half_width)
        return line_observables(keys, *left, *right, x)


def _planes(left, right) -> np.ndarray:
    return np.array([[left.real, left.imag], [right.real, right.imag]])


def _complex(planes):
    """(L, R) of planes ((Re L, Im L), (Re R, Im R)); exact, as 1j * x only moves x."""
    return planes[0, 0] + 1j * planes[0, 1], planes[1, 0] + 1j * planes[1, 1]


def _step(state, theta: float, phases):
    """One step of every line of a state on the line kernel.

    The coin acts on one site and the shift moves by one, so the two
    parity classes of sites never mix: each runs as a frame of its own,
    the sites -H, -H + 2, ..., H as the cone of time H and the others as
    that of time H - 1, both from origin 0.
    """
    state_lines = lines(state)
    if np.ndim(phases) == 1:
        if len(state_lines) > 1:
            raise ValueError("spatial disorder is only supported on confined (single-line) walks")
        n = len(state_lines[0][1])
        if len(phases) != n:
            raise ValueError(f"per-site phases need {n} values, got {len(phases)}")
    c, s = math.cos(theta), math.sin(theta)
    stepped = []
    for layout, left, right in state_lines:
        planes = _planes(left, right)
        half = (len(left) - 1) // 2
        out = np.zeros_like(planes)
        for t in range(max(half - 1, 0), half + 1):
            frame = _Frame(layout, left.shape[1], half, 0, t, t + 1)
            frame.load(planes)
            frame.step(c, s, [_phase_planes([phases], power) for power in LINES[layout].powers])
            frame.unload(out)
        stepped.append(_complex(out))
    return with_lines(state, stepped)


def step_one_particle(state: SpinorField1P, theta: float, phases=None) -> SpinorField1P:
    """Advance a one-particle field by one coin+shift step.

    phases: None for the clean walk, a scalar phi (temporal disorder) or a
    per-site array of length 2*half_width+1 (spatial disorder).
    """
    return _step(state, theta, phases)


def step_two_particle(state: TwoParticleField, theta: float, phases=None) -> TwoParticleField:
    """Advance a two-particle field by one interacting coin+shift step.

    For confined fields the per-site phase array is indexed along the
    active axis; the frozen coordinate never sees a phase difference.
    Full-2D fields take a scalar phase or none.
    """
    return _step(state, theta, phases)


def landscape_size(spec: WalkSpec) -> int:
    """Number of random draws one realization of this walk needs."""
    if spec.disorder.kind == "temporal":
        return spec.steps
    return 2 * spec.steps + 1


def _new_state(spec: WalkSpec):
    if spec.particle_count == 1:
        return new_one_particle(spec.init, spec.steps)
    return new_two_particle(spec.init, spec.steps, force_full2d=(spec.layout == "full2d"))


def _check_landscape(spec: WalkSpec, landscape: PhaseLandscape):
    if landscape.kind != spec.disorder.kind:
        raise ValueError(
            f"landscape kind {landscape.kind!r} does not match disorder kind {spec.disorder.kind!r}"
        )
    if landscape.kind != "none" and len(landscape.values) != landscape_size(spec):
        raise ValueError(
            f"landscape has {len(landscape.values)} values, walk needs {landscape_size(spec)}"
        )
    if landscape.kind != "none" and not np.all(np.isfinite(landscape.values)):
        raise ValueError("landscape phases must be finite")


def run_walk(spec: WalkSpec, landscape: PhaseLandscape | None = None) -> RunResult:
    """Run a full walk, recording the requested observables at every step.

    landscape defaults to realization 0 of spec.disorder.  Scalar series
    (sigma, ipr, negativities) have steps+1 entries with index 0 the
    initial state; the distribution is recorded for the final state only.
    """
    if landscape is None:
        landscape = sample_landscape(spec.disorder, landscape_size(spec), 0)
    return run_walk_batch(spec, [landscape])[0]


def run_walk_batch(spec: WalkSpec, landscapes) -> list[RunResult]:
    """run_walk once per landscape, all landscapes as one batch.

    Result i is bit-identical to run_walk(spec, landscapes[i]) whatever
    the batch size.  A full-2D walk runs as two frames stepped in
    lockstep, the x line and the y line through its origin.  Memory grows
    with the batch, so callers keep it to a few dozen rows.
    """
    for landscape in landscapes:
        _check_landscape(spec, landscape)
    if not landscapes:
        return []
    state = _new_state(spec)
    rows, steps = len(landscapes), spec.steps
    state_lines = lines(state)
    one_line = len(state_lines) == 1
    coords = spec.init.coords
    # a walk started at one site stays on the line through it in each family (line 0 of a
    # one-line state); the x and y lines of a full-2D walk cross there
    starts = [(0 if one_line else coords[1 - LINES[layout].axis] + steps, coords[LINES[layout].axis])
              for layout, _, _ in state_lines]
    frames = []
    for (layout, left, right), (line, origin) in zip(state_lines, starts):
        frames.append(_Frame(layout, rows, steps, origin, 0, steps))
        frames[-1].load(_planes(left[:, line:line + 1], right[:, line:line + 1]))
    values = [landscape.values for landscape in landscapes]
    phases = [[_phase_planes(values, power) for power in LINES[frame.layout].powers] for frame in frames]
    scalar_keys = [k for k in spec.record if k != "distribution"]
    series = {k: np.zeros((rows, steps + 1)) for k in scalar_keys}

    def record(t):
        if one_line:
            observed = frames[0].observe(scalar_keys) if scalar_keys else {}
        else:  # the spec lets a full-2D walk record no other scalar
            observed = {key: particle_particle_from_density(crossing_coin_density(
                *frames[0].crossing(), *frames[1].crossing())) for key in scalar_keys}
        for key, value in observed.items():
            series[key][:, t] = value

    record(0)
    for t in range(1, steps + 1):
        theta = theta_at(spec.schedule, t)
        c, s = math.cos(theta), math.sin(theta)
        for frame, planes in zip(frames, phases):
            if spec.disorder.kind == "temporal":
                planes = [None if f is None else (f[0][t - 1:t], f[1][:, t - 1:t]) for f in planes]
            frame.step(c, s, planes)
        record(t)

    final = [np.zeros((2, 2, len(left), rows)) for _, left, _ in state_lines]
    for frame, planes in zip(frames, final):
        frame.unload(planes)
    results = []
    for row in range(rows):
        filled = []
        for (_, left, right), (line, _), planes in zip(state_lines, starts, final):
            filled.append((np.zeros_like(left), np.zeros_like(right)))
            filled[-1][0][:, line], filled[-1][1][:, line] = _complex(planes[..., row])
        result = RunResult(steps=steps, final_state=with_lines(state, filled))
        for key in scalar_keys:
            setattr(result, key, series[key][row])
        if "distribution" in spec.record:
            result.distribution = distribution(result.final_state)
        results.append(result)
    return results
