"""Local (position-independent) operators of the walk.

Everything here is a pure function of angles: the 2x2 single-walker coin,
the diagonal phase operator that carries disorder, the 4x4 interacting
two-walker coin, and the exponential angle schedule that accelerates the
walk.  All constructed matrices are unitary to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoinSchedule",
    "theta_at",
    "coin2",
    "coin2_with_phase",
    "coin4",
    "coin4_with_phase",
    "phase_diag2",
    "phase_diag4",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)

# Generator of the two-walker coin: couples |uu> with |dd> and |ud> with |du>.
SIGMA_XX = np.kron(SIGMA_X, SIGMA_X)


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
            raise ValueError(f"theta0 must be in [0, pi/2], got {self.theta0}")
        if not self.a >= 0.0:  # also rejects NaN
            raise ValueError(f"a must be >= 0, got {self.a}")


def theta_at(schedule: CoinSchedule, t: int) -> float:
    """Coin angle for step t (t = 1, 2, ... counts applied steps).

    Strictly decreasing in t for a > 0, constant for a = 0.
    """
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    return schedule.theta0 * math.exp(-schedule.a * t)


def coin2(theta: float) -> np.ndarray:
    """2x2 coin [[cos, -i sin], [-i sin, cos]].

    Identity at theta = 0; pure off-diagonal swap (-i sigma_x) at pi/2.
    """
    c = math.cos(theta)
    s = math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def phase_diag2(phi: float) -> np.ndarray:
    """Diagonal phase operator diag(1, e^{i phi}) on the spin-down branch."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]], dtype=np.complex128)


def coin2_with_phase(theta: float, phi: float) -> np.ndarray:
    """Combined coin: phase operator applied after the 2x2 coin.

    Equals phase_diag2(phi) @ coin2(theta); reduces to coin2(theta) at
    phi = 0.  The lower row carries the e^{i phi} factor.
    """
    c = math.cos(theta)
    s = math.sin(theta)
    e = np.exp(1j * phi)
    return np.array(
        [[c, -1j * s], [-1j * e * s, e * c]],
        dtype=np.complex128,
    )


def coin4(theta: float) -> np.ndarray:
    """4x4 interacting coin cos(theta) I4 - i sin(theta) (sigma_x x sigma_x).

    Basis order (uu, ud, du, dd).  Couples uu <-> dd and ud <-> du only,
    which is what confines basis-state walkers to a single lattice line.
    """
    c = math.cos(theta)
    s = math.sin(theta)
    return c * np.eye(4, dtype=np.complex128) - 1j * s * SIGMA_XX


def phase_diag4(phi: float) -> np.ndarray:
    """Two-walker phase operator diag(1, e^{i phi}, e^{i phi}, e^{2i phi})."""
    e = np.exp(1j * phi)
    return np.diag([1.0, e, e, e * e]).astype(np.complex128)


def coin4_with_phase(theta: float, phi: float) -> np.ndarray:
    """Combined two-walker coin: row k of coin4 scaled by the phase diagonal.

    Equals phase_diag4(phi) @ coin4(theta); reduces to coin4(theta) at
    phi = 0.
    """
    c = math.cos(theta)
    s = math.sin(theta)
    e = np.exp(1j * phi)
    e2 = e * e
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = c
    m[0, 3] = -1j * s
    m[1, 1] = e * c
    m[1, 2] = -1j * e * s
    m[2, 1] = -1j * e * s
    m[2, 2] = e * c
    m[3, 0] = -1j * e2 * s
    m[3, 3] = e2 * c
    return m
