"""The state of a walk: its layout and the complex arrays of its lines.

A one-particle state is a line of two coin components (up, down).  A
two-particle state holds the four coin components (uu, ud, du, dd) as
lines: the coin mixes uu with dd and ud with du, and the shift moves uu
and dd along x and ud and du along y.  A start with coin support in
{uu, dd} stays on one x line, support in {ud, du} on one y line, and a
mixed start (a full-2D field) on the x and the y line through the origin,
which is all of the 2D grid it ever reaches.

States are plain values; the evolution engine returns new states rather
than mutating in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InitialState",
    "Field",
    "LINES",
    "new_field",
    "site_probabilities",
    "confinement",
]

COIN_NORM_TOL = 1e-9

# basis index order for the two-particle coin space
_BASIS_2P = {"uu": 0, "ud": 1, "du": 2, "dd": 3}
_BASIS = {"up": 0, "down": 1, **_BASIS_2P}


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


@dataclass(frozen=True)
class InitialState:
    """Coin amplitudes of a walk at site 0.

    coin: complex vector of length 2 (one particle) or 4 (two particles,
    order uu, ud, du, dd).
    """

    coin: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.coin, dtype=np.complex128)
        object.__setattr__(self, "coin", vec)
        if vec.shape not in ((2,), (4,)):
            raise ValueError(f"coin vector must have length 2 or 4, got shape {vec.shape}")
        nrm = float(np.sum(np.abs(vec) ** 2))
        if not abs(nrm - 1.0) <= COIN_NORM_TOL:  # also rejects NaN
            raise ValueError(f"coin vector must be normalized, |amp|^2 sums to {nrm!r}")

    @classmethod
    def up(cls) -> "InitialState":
        return cls(np.array([1.0, 0.0]))

    @classmethod
    def down(cls) -> "InitialState":
        return cls(np.array([0.0, 1.0]))

    @classmethod
    def symmetric(cls) -> "InitialState":
        """(|up> + |down>)/sqrt(2)."""
        r = 1.0 / math.sqrt(2.0)
        return cls(np.array([r, r]))

    @classmethod
    def basis_two_particle(cls, label: str) -> "InitialState":
        """One of the four coin basis states 'uu', 'ud', 'du', 'dd'."""
        vec = np.zeros(4, dtype=np.complex128)
        vec[_BASIS_2P[label]] = 1.0
        return cls(vec)


@dataclass(frozen=True)
class Field:
    """The state of a walk: its layout (a key of LINES, or "full2d") and the
    arrays of its lines by component name, each over the lattice [-T, T].

    A one-line layout stores the two components (L, R) of its line, along
    the axis the line moves along.  A full-2D field stores uu and dd along
    the x line at y = 0 and ud and du along the y line at x = 0; every
    other site of the 2D grid holds zero.  A component a layout does not
    hold is not stored.
    """

    confinement: str
    components: dict[str, np.ndarray]


def confinement(coin: np.ndarray, force_full2d: bool = False) -> str:
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


def new_field(layout: str, pairs) -> Field:
    """The state of a walk in `layout`, given the (L, R) arrays of each of
    its families (see families), each over the lattice [-T, T]."""
    return Field(layout, {component: line for name, pair in zip(families(layout), pairs)
                          for component, line in zip(LINES[name].fields, pair)})


def families(layout: str) -> tuple[str, ...]:
    """Keys of LINES for the families of lines a layout is made of.

    A one-line layout is one line.  A full-2D field is an x line (uu, dd)
    and a y line (du, ud): the coin mixes only uu with dd and ud with du,
    and the shift moves each pair along its own axis.
    """
    return (layout,) if layout in LINES else ("xline", "yline")


def lines(state):
    """(layout, L, R) of each family of lines of a state, L and R of shape (sites, 1)."""
    return [(name, *(state.components[component][:, None] for component in LINES[name].fields))
            for name in families(state.confinement)]


def site_probabilities(lr, li, rr, ri):
    """|L|^2 + |R|^2 per site, summed plane by plane in this order: the line
    kernel and distribution both take |psi|^2 from here, so they agree bitwise."""
    p, square = np.square(lr), np.empty_like(lr)
    for plane in (li, rr, ri):
        p += np.square(plane, out=square)
    return p
