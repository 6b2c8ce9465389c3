"""State containers for one- and two-particle walkers on integer lattices.

A one-particle state is a pair of complex amplitude arrays (up, down) over
x in [-half_width, +half_width].  A two-particle state is either a full
2D field with the four coin components (uu, ud, du, dd), or a compact
one-line variant when the initial coin state confines the dynamics to a
single lattice axis: basis support in {uu, dd} evolves only along x,
support in {ud, du} only along y.

States are plain values; the evolution engine returns new states rather
than mutating in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "InitialState",
    "SpinorField1P",
    "TwoParticleField",
    "Line",
    "LINES",
    "families",
    "lines",
    "with_lines",
    "site_probabilities",
    "probabilities",
    "two_particle_confinement",
    "check_origin",
    "new_one_particle",
    "new_two_particle",
]

COIN_NORM_TOL = 1e-9

# basis index order for the two-particle coin space
UU, UD, DU, DD = 0, 1, 2, 3

_BASIS_2P = {"uu": UU, "ud": UD, "du": DU, "dd": DD}
_BASIS = {"up": 0, "down": 1, **_BASIS_2P}


@dataclass(frozen=True)
class Line:
    """A one-line layout: the two components (L, R) it stores, L the one that
    moves toward lower positions, the lattice axis they move along, and
    their phase powers (k down spins pick up e^{i k phi})."""

    fields: tuple[str, str]
    axis: int
    powers: tuple[int, int]

    @property
    def slots(self) -> tuple[int, int]:
        """Indices of L and R in the coin vector."""
        return _BASIS[self.fields[0]], _BASIS[self.fields[1]]


# up moves to x-1, uu to x-1, du to y-1
LINES = {
    "1p": Line(("up", "down"), 0, (0, 1)),
    "xline": Line(("uu", "dd"), 0, (0, 2)),
    "yline": Line(("du", "ud"), 1, (1, 1)),
}


@dataclass(frozen=True)
class InitialState:
    """Coin amplitudes plus lattice origin for a walk.

    coin: complex vector of length 2 (one particle) or 4 (two particles,
    order uu, ud, du, dd).  origin: int x0 for one particle, (x0, y0)
    for two.
    """

    coin: np.ndarray
    origin: int | tuple[int, int] = 0

    def __post_init__(self):
        vec = np.asarray(self.coin, dtype=np.complex128)
        object.__setattr__(self, "coin", vec)
        if vec.shape not in ((2,), (4,)):
            raise ValueError(f"coin vector must have length 2 or 4, got shape {vec.shape}")
        nrm = float(np.sum(np.abs(vec) ** 2))
        if not abs(nrm - 1.0) <= COIN_NORM_TOL:  # also rejects NaN
            raise ValueError(f"coin vector must be normalized, |amp|^2 sums to {nrm!r}")

    @property
    def coords(self) -> tuple[int, ...]:
        """The origin as one int per lattice axis."""
        return tuple(int(v) for v in np.atleast_1d(self.origin))

    @classmethod
    def up(cls, origin: int = 0) -> "InitialState":
        return cls(np.array([1.0, 0.0]), origin)

    @classmethod
    def down(cls, origin: int = 0) -> "InitialState":
        return cls(np.array([0.0, 1.0]), origin)

    @classmethod
    def symmetric(cls, origin: int = 0) -> "InitialState":
        """(|up> + |down>)/sqrt(2) at the origin."""
        r = 1.0 / math.sqrt(2.0)
        return cls(np.array([r, r]), origin)

    @classmethod
    def one_particle(cls, alpha: complex, beta: complex, origin: int = 0) -> "InitialState":
        return cls(np.array([alpha, beta]), origin)

    @classmethod
    def basis_two_particle(cls, label: str, origin: tuple[int, int] = (0, 0)) -> "InitialState":
        """One of the four coin basis states 'uu', 'ud', 'du', 'dd'."""
        vec = np.zeros(4, dtype=np.complex128)
        vec[_BASIS_2P[label]] = 1.0
        return cls(vec, origin)

    @classmethod
    def two_particle(cls, amplitudes, origin: tuple[int, int] = (0, 0)) -> "InitialState":
        return cls(np.asarray(amplitudes, dtype=np.complex128), origin)


@dataclass
class SpinorField1P:
    """Two-component complex field over x in [-half_width, half_width]."""

    half_width: int
    up: np.ndarray
    down: np.ndarray
    confinement = "1p"  # its key in LINES, as a two-particle field's confinement is

    @property
    def positions(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    def norm(self) -> float:
        return float(np.sum(probabilities(self)))


@dataclass
class TwoParticleField:
    """Four-component complex field for two walkers.

    confinement is one of:
      "full2d" : uu, ud, du, dd are (Nx, Ny) arrays
      "xline"  : only uu, dd as 1D arrays along x, state pinned at y = y0
      "yline"  : only ud, du as 1D arrays along y, state pinned at x = x0
    Absent components in the confined variants are identically zero by
    operator structure and are stored as None.
    """

    confinement: str
    half_width_x: int
    half_width_y: int
    uu: np.ndarray | None
    ud: np.ndarray | None
    du: np.ndarray | None
    dd: np.ndarray | None
    x0: int = 0
    y0: int = 0

    def norm(self) -> float:
        return float(np.sum(probabilities(self)))


def new_one_particle(init: InitialState, steps: int) -> SpinorField1P:
    """Fresh one-particle field sized for a walk of `steps` steps.

    The lattice spans [-steps, steps]; the origin must lie inside it.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if init.coin.shape != (2,):
        raise ValueError("one-particle walk needs a length-2 coin vector")
    if len(init.coords) != 1:
        raise ValueError("one-particle origin must be a single integer")
    x0, = init.coords
    if abs(x0) > steps:
        raise ValueError(f"origin {x0} outside lattice [-{steps}, {steps}]")
    return SpinorField1P(steps, **_placed(init, steps, "1p"))


def _placed(init: InitialState, steps: int, layout: str) -> dict:
    """The components of a layout, zero but for the coin at the origin: a one-line
    layout stores them along its axis only, a full-2D field on the whole grid."""
    moving = sorted({LINES[name].axis for name in families(layout)})
    site = tuple(init.coords[axis] + steps for axis in moving)
    arrays = {}
    for name in families(layout):
        for component in LINES[name].fields:
            arrays[component] = np.zeros((2 * steps + 1,) * len(moving), dtype=np.complex128)
            arrays[component][site] = init.coin[_BASIS[component]]
    return arrays


def two_particle_confinement(coin: np.ndarray, force_full2d: bool = False) -> str:
    """Layout a two-particle walk from this coin vector keeps for all time.

    Coin support in {uu, dd} gives "xline", support in {ud, du} "yline",
    anything mixed (or force_full2d) "full2d".
    """
    if not force_full2d:
        support = {i for i in range(4) if coin[i] != 0}
        for name in ("xline", "yline"):
            if support <= set(LINES[name].slots):
                return name
    return "full2d"


def check_origin(layout: str, coords: tuple[int, ...], steps: int):
    """Reject the origin of a `steps`-step walk in `layout` unless it has 1 (1p) or 2 coordinates,
    is 0 on each axis the walk moves along (its lattice is then its light cone) and in [-steps, steps] on the other."""
    if len(coords) != (1 if layout == "1p" else 2):
        raise ValueError(f"origin {coords} has the wrong number of coordinates for a {layout} walk")
    moving = {LINES[name].axis for name in families(layout)}
    if any(c if axis in moving else abs(c) > steps for axis, c in enumerate(coords)):
        shown = coords[0] if len(coords) == 1 else coords
        raise ValueError(f"origin must be 0 on each axis the walk moves along and within "
                         f"[-steps, steps] on the other, got {shown}")


def new_two_particle(init: InitialState, steps: int, force_full2d: bool = False) -> TwoParticleField:
    """Fresh two-particle field; picks the confined 1D layout when possible.

    Coin support in {uu, dd} gives an x-line field, support in {ud, du}
    a y-line field, anything mixed the full 2D field.  force_full2d keeps
    the full layout even for confined initial states (useful when the 2D
    distribution itself is the output).
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if init.coin.shape != (4,):
        raise ValueError("two-particle walk needs a length-4 coin vector")
    if len(init.coords) != 2:
        raise ValueError("two-particle origin must be a pair (x0, y0)")
    x0, y0 = init.coords
    if abs(x0) > steps or abs(y0) > steps:
        raise ValueError(f"origin {(x0, y0)} outside lattice [-{steps}, {steps}]^2")

    confinement = two_particle_confinement(init.coin, force_full2d)
    arrays = {**dict.fromkeys(_BASIS_2P), **_placed(init, steps, confinement)}
    moving = {LINES[name].axis for name in families(confinement)}
    widths = [steps if axis in moving else 0 for axis in (0, 1)]
    return TwoParticleField(confinement, *widths, x0=x0, y0=y0, **arrays)


def families(layout: str) -> tuple[str, ...]:
    """Keys of LINES for the families of lines a layout is made of.

    A one-line layout is one line.  A full-2D field is x lines (uu, dd
    along x, one per y) and y lines (du, ud along y, one per x): the coin
    mixes only uu with dd and ud with du, and the shift moves each pair
    along its own axis.
    """
    return (layout,) if layout in LINES else ("xline", "yline")


def lines(state):
    """(layout, L, R) of each family of lines of a state, L and R of shape (sites, lines)."""
    out = []
    for name in families(state.confinement):
        left, right = (getattr(state, component) for component in LINES[name].fields)
        if state.confinement in LINES:
            left, right = left[:, None], right[:, None]
        else:
            left, right = (np.moveaxis(a, LINES[name].axis, 0) for a in (left, right))
        out.append((name, left, right))
    return out


def with_lines(state, pairs):
    """state with each family of lines(state) replaced by an (L, R) pair of the same shapes."""
    arrays = {}
    for name, (left, right) in zip(families(state.confinement), pairs):
        if state.confinement in LINES:
            left, right = left[:, 0], right[:, 0]
        else:
            left, right = (np.ascontiguousarray(np.moveaxis(a, 0, LINES[name].axis)) for a in (left, right))
        arrays.update(zip(LINES[name].fields, (left, right)))
    return replace(state, **arrays)


def site_probabilities(lr, li, rr, ri):
    """|L|^2 + |R|^2 per site, summed plane by plane in this order: the line
    kernel, distribution and norm all take |psi|^2 from here, so they agree bitwise."""
    return lr * lr + li * li + rr * rr + ri * ri


def probabilities(state) -> np.ndarray:
    """|psi|^2 of a state per site of its layout, its families summed in order."""
    p = 0
    for name in families(state.confinement):
        left, right = (getattr(state, component) for component in LINES[name].fields)
        p = p + site_probabilities(left.real, left.imag, right.real, right.imag)
    return p
