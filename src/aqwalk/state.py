"""State containers for one- and two-particle walkers on integer lattices.

A one-particle state is a pair of complex amplitude arrays (up, down) over
x in [-half_width, +half_width].  A two-particle state holds the four coin
components (uu, ud, du, dd) as lines: the coin mixes uu with dd and ud
with du, and the shift moves uu and dd along x and ud and du along y.  A
start with coin support in {uu, dd} stays on one x line, support in
{ud, du} on one y line, and a mixed start (a full-2D field) on the x and
the y line through its origin, which is all of the 2D grid it ever reaches.

States are plain values; the evolution engine returns new states rather
than mutating in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InitialState",
    "SpinorField1P",
    "TwoParticleField",
    "Line",
    "LINES",
    "families",
    "lines",
    "new_field",
    "site_probabilities",
    "probabilities",
    "two_particle_confinement",
    "check_origin",
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
    """Four-component complex field for two walkers, stored as lines.

    confinement is one of:
      "xline"  : only uu, dd as 1D arrays along x, state pinned at y = y0
      "yline"  : only ud, du as 1D arrays along y, state pinned at x = x0
      "full2d" : uu, dd as 1D arrays along x at y = 0 and ud, du as 1D
                 arrays along y at x = 0, all of length 2T + 1; every other
                 site of the 2D grid holds zero (see probabilities)
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


def new_field(layout: str, coords: tuple[int, ...], pairs):
    """The state of a walk in `layout` from origin coords, given the (L, R) arrays
    of each of its families (see families), each over the lattice [-T, T]."""
    arrays = {component: line for name, pair in zip(families(layout), pairs)
              for component, line in zip(LINES[name].fields, pair)}
    half_width = len(pairs[0][0]) // 2
    if layout == "1p":
        return SpinorField1P(half_width, **arrays)
    moving = {LINES[name].axis for name in families(layout)}
    widths = [half_width if axis in moving else 0 for axis in (0, 1)]
    return TwoParticleField(layout, *widths, x0=coords[0], y0=coords[1], **{**dict.fromkeys(_BASIS_2P), **arrays})


def families(layout: str) -> tuple[str, ...]:
    """Keys of LINES for the families of lines a layout is made of.

    A one-line layout is one line.  A full-2D field is an x line (uu, dd)
    and a y line (du, ud): the coin mixes only uu with dd and ud with du,
    and the shift moves each pair along its own axis.
    """
    return (layout,) if layout in LINES else ("xline", "yline")


def lines(state):
    """(layout, L, R) of each family of lines of a state, L and R of shape (sites, 1)."""
    return [(name, *(getattr(state, component)[:, None] for component in LINES[name].fields))
            for name in families(state.confinement)]


def site_probabilities(lr, li, rr, ri):
    """|L|^2 + |R|^2 per site, summed plane by plane in this order: the line
    kernel, distribution and norm all take |psi|^2 from here, so they agree bitwise."""
    return lr * lr + li * li + rr * rr + ri * ri


def probabilities(state) -> np.ndarray:
    """|psi|^2 of a state per site: along its line, or on the 2D grid [x, y] of a
    full-2D field, which is zero off its two lines and sums the x line first where they cross."""
    p = []
    for name in families(state.confinement):
        left, right = (getattr(state, component) for component in LINES[name].fields)
        p.append(site_probabilities(left.real, left.imag, right.real, right.imag))
    if len(p) == 1:
        return p[0]
    x_line, y_line = p
    grid = np.zeros((len(x_line), len(y_line)))
    grid[:, len(y_line) // 2] = x_line
    grid[len(x_line) // 2, :] += y_line
    return grid
