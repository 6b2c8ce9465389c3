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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InitialState",
    "SpinorField1P",
    "TwoParticleField",
    "LINE_FIELDS",
    "line_layout",
    "two_particle_confinement",
    "new_one_particle",
    "new_two_particle",
]

COIN_NORM_TOL = 1e-9

# basis index order for the two-particle coin space
UU, UD, DU, DD = 0, 1, 2, 3

_BASIS_2P = {"uu": UU, "ud": UD, "du": DU, "dd": DD}

# The two stored components of each one-line layout, the one that moves
# toward lower positions first: up moves to x-1, uu to x-1, du to y-1.
LINE_FIELDS = {"1p": ("up", "down"), "xline": ("uu", "dd"), "yline": ("du", "ud")}


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
        if abs(nrm - 1.0) > COIN_NORM_TOL:
            raise ValueError(f"coin vector must be normalized, |amp|^2 sums to {nrm!r}")

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

    @property
    def positions(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    def norm(self) -> float:
        return float(np.sum(np.abs(self.up) ** 2) + np.sum(np.abs(self.down) ** 2))


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

    @property
    def positions_x(self) -> np.ndarray:
        return np.arange(-self.half_width_x, self.half_width_x + 1)

    @property
    def positions_y(self) -> np.ndarray:
        return np.arange(-self.half_width_y, self.half_width_y + 1)

    def norm(self) -> float:
        total = 0.0
        for comp in (self.uu, self.ud, self.du, self.dd):
            if comp is not None:
                total += float(np.sum(np.abs(comp) ** 2))
        return total


def new_one_particle(init: InitialState, steps: int) -> SpinorField1P:
    """Fresh one-particle field sized for a walk of `steps` steps.

    The lattice spans [-steps, steps]; the origin must lie inside it.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if init.coin.shape != (2,):
        raise ValueError("one-particle walk needs a length-2 coin vector")
    if not np.isscalar(init.origin):
        raise ValueError("one-particle origin must be a single integer")
    x0 = int(init.origin)
    if abs(x0) > steps:
        raise ValueError(f"origin {x0} outside lattice [-{steps}, {steps}]")
    n = 2 * steps + 1
    up = np.zeros(n, dtype=np.complex128)
    down = np.zeros(n, dtype=np.complex128)
    idx = x0 + steps
    up[idx] = init.coin[0]
    down[idx] = init.coin[1]
    return SpinorField1P(steps, up, down)


def two_particle_confinement(coin: np.ndarray, force_full2d: bool = False) -> str:
    """Layout a two-particle walk from this coin vector keeps for all time.

    Coin support in {uu, dd} gives "xline", support in {ud, du} "yline",
    anything mixed (or force_full2d) "full2d".
    """
    support = {i for i in range(4) if coin[i] != 0}
    if force_full2d:
        return "full2d"
    if support <= {UU, DD}:
        return "xline"
    if support <= {UD, DU}:
        return "yline"
    return "full2d"


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
    origin = init.origin
    if np.isscalar(origin):
        raise ValueError("two-particle origin must be a pair (x0, y0)")
    x0, y0 = int(origin[0]), int(origin[1])
    if abs(x0) > steps or abs(y0) > steps:
        raise ValueError(f"origin {(x0, y0)} outside lattice [-{steps}, {steps}]^2")

    confinement = two_particle_confinement(init.coin, force_full2d)
    n = 2 * steps + 1

    if confinement == "xline":
        uu = np.zeros(n, dtype=np.complex128)
        dd = np.zeros(n, dtype=np.complex128)
        uu[x0 + steps] = init.coin[UU]
        dd[x0 + steps] = init.coin[DD]
        return TwoParticleField("xline", steps, 0, uu, None, None, dd, x0, y0)

    if confinement == "yline":
        ud = np.zeros(n, dtype=np.complex128)
        du = np.zeros(n, dtype=np.complex128)
        ud[y0 + steps] = init.coin[UD]
        du[y0 + steps] = init.coin[DU]
        return TwoParticleField("yline", 0, steps, None, ud, du, None, x0, y0)

    comps = [np.zeros((n, n), dtype=np.complex128) for _ in range(4)]
    for k in range(4):
        comps[k][x0 + steps, y0 + steps] = init.coin[k]
    return TwoParticleField("full2d", steps, steps, comps[0], comps[1], comps[2], comps[3], x0, y0)


def line_layout(state) -> str | None:
    """Key of LINE_FIELDS for a one-line state, None for a full-2D field."""
    if isinstance(state, SpinorField1P):
        return "1p"
    return state.confinement if state.confinement in LINE_FIELDS else None
