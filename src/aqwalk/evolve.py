"""Evolution engine for a specs.WalkSpec: shift+coin steps, phase disorder, walk driver.

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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .observables import cone_origin, observe, site_distribution
# unused here: perfbench's replay patches them
from .observables import (  # noqa: F401
    distribution, ipr, negativity_coin_position, negativity_particle_particle, sigma)
from .specs import LINES, DisorderSpec, WalkSpec, as_count, as_int, families, theta_at

__all__ = [
    "RunResult",
    "sample_landscape",
    "run_walk",
    "run_walk_batch",
]

_SEED_MASK = (1 << 64) - 1
_REALIZATION_0 = object()  # run_walk's default landscape
_PHASE_MAX = np.finfo(float).max / 2  # the largest phase phi whose 2 phi is finite (NaN is not below it)


def sample_landscape(disorder: DisorderSpec, size: int, realization_index: int = 0) -> np.ndarray | None:
    """Draw one disorder realization, deterministic in (seed, index).

    A landscape is its phases: one per lattice site (spatial disorder) or
    per step (temporal), size of them, and None for the clean walk.  Each
    realization index keys an independent, reproducible stream.  size is an
    integer >= 1 and the index one >= 0 (a ConfigError on the argument otherwise).
    """
    as_count(size, "size")
    if as_int(realization_index, "realization_index") < 0:
        raise ConfigError("realization_index", f"must be >= 0, got {realization_index}")
    if disorder.kind == "none":
        return None
    rng = np.random.default_rng([disorder.seed & _SEED_MASK, realization_index])
    return rng.uniform(disorder.phase_min, disorder.phase_max, size)


@dataclass
class RunResult:
    """One walk: series maps each recorded key to its array, a scalar's (T + 1,) with
    index 0 the initial state, and "distribution" the final state's (see site_distribution);
    final_state maps each family of lines to its final cone's planes (a state, see observables)."""

    series: dict
    final_state: dict


# On the (Re, Im) planes of one component the coin [[c, -i s], [-i s, c]] adds
# s * (Im X, -Re X) of the other component X: its planes reversed, times these signs.
_COIN_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)


class _Frame:
    """The line kernel: rows of one-line walks advanced together in a moving frame.

    At time t a walk from the origin holds amplitude only on the sites
    x = 2k - t, k = 0..t, of the lattice [-T, T] of a T-step walk.  L moves
    to x - 1 and R to x + 1 at every step, so L at that site is kept in
    slot k and R in slot k - t + T: neither moves in memory, the shift
    costs nothing, and T + 1 slots hold the whole walk.  The cone of time
    T is the lattice, so no amplitude can leave it.

    planes has shape (2, 2, T + 1, rows): component (L, R), part (Re, Im),
    slot, row, so the slots of one step are a contiguous block.  The cone
    holds every other lattice site, so each per-site array (the sigma
    positions, spatial phases) is kept as its even and its odd sites, and
    the cone's sites are one contiguous slice of one of them.  Every value
    is made by single multiplies and adds, each rounded once.  numpy's
    complex loops may round differently with the array layout; the planes
    keep each row bit-identical to the same walk run alone.
    """

    def __init__(self, layout: str, steps: int, coin, landscapes, kind: str):
        """Rows of a walk in `layout` from the coin vector at the origin, one per landscape of
        disorder `kind` (see sample_landscape)."""
        self.layout, self.steps, self.t = layout, steps, 0
        self.spatial = kind == "spatial"
        self.planes = np.zeros((2, 2, steps + 1, len(landscapes)))
        parity = (slice(0, None, 2), slice(1, None, 2))
        x = np.arange(-steps, steps + 1.0)
        self.positions = [np.stack([x[part], x[part] * x[part]]) for part in parity]
        # per component (L, R): None without a phase, else planes by parity (spatial) or by step (temporal)
        self.phases = [None, None]
        if kind != "none" and landscapes:
            for i, power in enumerate(LINES[layout].powers):
                if power:
                    self.phases[i] = ([self._phase_planes(landscapes, power, part) for part in parity]
                                      if self.spatial else self._phase_planes(landscapes, power))
        for planes, slot in zip(self.cone(), LINES[layout].slots):
            planes[0], planes[1] = coin[slot].real, coin[slot].imag

    @staticmethod
    def _phase_planes(landscapes, power: int, part=slice(None)):
        """Factors e^{i power phi} of each landscape's phases phi[part] as C-contiguous planes (cos,
        -sin, sin), shape (3, phases, rows), filled one row at a time.  Each row's cos and sin come
        from their own call on its contiguous angles, so its values do not depend on the batch."""
        planes = np.empty((3, len(landscapes[0][part]), len(landscapes)))
        for row, phi in enumerate(landscapes):
            angles = power * np.asarray(phi[part], dtype=float)
            planes[0, :, row], planes[2, :, row] = np.cos(angles), np.sin(angles)
        np.negative(planes[2], out=planes[1])
        return planes

    def cone(self):
        """(L, R) at time t: the site-aligned (2, sites, rows) planes of the cone."""
        return self.planes[0, :, :self.t + 1], self.planes[1, :, self.steps - self.t:]

    def at_cone(self, halves):
        """A per-site array, by parity, at the cone's sites: lattice indices T - t, T - t + 2, ..., T + t."""
        start = self.steps - self.t
        return halves[start % 2][:, start // 2:start // 2 + self.t + 1]

    def line(self):
        """The cone as a line (layout, planes, origin; see observables.observe and cone_origin)."""
        left, right = self.cone()
        return self.layout, (*left, *right), cone_origin(self.t)

    def step(self, c: float, s: float):
        """Coin [[c, -i s], [-i s, c]] and row phases at time t, then the shift to t + 1."""
        left, right = self.cone()
        mix = s * _COIN_SIGNS
        turned = left[::-1] * mix
        left *= c
        left += right[::-1] * mix
        right *= c
        right += turned
        for block, phase in zip((left, right), self.phases):
            if phase is not None:
                phase = self.at_cone(phase) if self.spatial else phase[:, self.t:self.t + 1]
                turned = block[::-1] * phase[1:]  # (-Im sin, Re sin)
                block *= phase[0]
                block += turned
        self.t += 1


def landscape_size(spec: WalkSpec) -> int:
    """Number of random draws one realization of this walk needs."""
    if spec.disorder.kind == "temporal":
        return spec.steps
    return 2 * spec.steps + 1


def _check_landscape(spec: WalkSpec, landscape: np.ndarray | None):
    if (landscape is None) != (spec.disorder.kind == "none"):
        raise ValueError(f"a walk with disorder kind {spec.disorder.kind!r} "
                         f"{'needs a' if landscape is None else 'takes no'} landscape")
    if landscape is None:
        return
    phases = np.asarray(landscape)
    if phases.shape != (landscape_size(spec),) or phases.dtype.kind not in "iuf":
        raise ValueError(f"a landscape must be a 1-D array of {landscape_size(spec)} real phases for this walk, "
                         f"got shape {phases.shape} of {phases.dtype}")
    if not np.all(np.abs(phases) <= _PHASE_MAX):
        raise ValueError("landscape phases must be finite, and so must twice each (a phase factor takes e^{2i phi})")


def run_walk(spec: WalkSpec, landscape: np.ndarray | None = _REALIZATION_0) -> RunResult:
    """Run a full walk, recording the requested observables at every step.

    landscape (see sample_landscape; None only for the clean walk) defaults
    to realization 0 of spec.disorder.  Each scalar series (sigma, ipr,
    negativities) has steps+1 entries with index 0 the initial state;
    series["distribution"] is of the final state only.  The one row of
    run_walk_batch; final_state is its planes, family by family.
    """
    if landscape is _REALIZATION_0:
        landscape = sample_landscape(spec.disorder, landscape_size(spec), 0)
    series, final = run_walk_batch(spec, [landscape])
    return RunResult({key: values[0] for key, values in series.items()},
                     {name: planes[..., 0] for name, planes in zip(families(spec.confinement), final)})


def run_walk_batch(spec: WalkSpec, landscapes):
    """run_walk once per landscape, all landscapes as one batch: (series, planes).

    series maps each recorded key to its rows: a scalar's (rows, T + 1),
    and "distribution" the final state's, (rows, 2T + 1) on a line and
    (rows, 2T + 1, 2T + 1) for a full-2D walk (see site_distribution);
    planes holds each family's final frame planes as they are,
    (L, R) x (Re, Im) x slot x row, shape (2, 2, T + 1, rows), slot k the
    site 2k - T (see observables).  Row i is bit-identical to
    run_walk(spec, landscapes[i]) whatever the batch size, and a failing
    norm check's ValueError names its first failing `row`.  A full-2D walk
    runs as two frames in lockstep, its x and its y line.  Per row, memory
    holds 32 (T + 1) bytes of planes per family, 24 bytes per landscape
    phase and phased component of a disordered walk while it runs, 8 (T + 1)
    per scalar key and 8 (2T + 1) for a distribution, 8 (2T + 1)^2 for a
    full-2D one.  Callers cap it.
    """
    for landscape in landscapes:
        _check_landscape(spec, landscape)
    rows, steps = len(landscapes), spec.steps
    frames = [_Frame(name, steps, spec.init.coin, landscapes, spec.disorder.kind)
              for name in families(spec.confinement)]
    scalar_keys = [k for k in spec.record if k != "distribution"]
    series = {k: np.zeros((rows, steps + 1)) for k in scalar_keys}

    for t in range(steps + 1):
        if t:
            theta = theta_at(spec.schedule, t)
            c, s = math.cos(theta), math.sin(theta)
            for frame in frames:
                frame.step(c, s)
        observed = observe(scalar_keys, [frame.line() for frame in frames], frames[0].at_cone(frames[0].positions))
        for key, value in observed.items():
            series[key][:, t] = value

    planes = [frame.planes for frame in frames]
    if "distribution" in spec.record:
        series["distribution"] = site_distribution(planes)
    return series, planes
