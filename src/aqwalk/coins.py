"""The coin's parameters: the exponential angle schedule that accelerates
the walk, and the phase disorder of the phase operator after it.

Both specs need no numpy, so a config that holds no walk (a Lyapunov
chain, say) validates without loading it.  The coins themselves,
[[cos, -i sin], [-i sin, cos]] with the phase diagonal applied after it,
are inlined in the evolution engine (see evolve._COIN_SIGNS and the phase
powers in state.LINES).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["CoinSchedule", "DisorderSpec", "theta_at"]

DISORDER_KINDS = ("none", "spatial", "temporal")


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
        if not (math.isfinite(self.phase_min) and math.isfinite(self.phase_max)):
            raise ConfigError("phase_min" if math.isfinite(self.phase_max) else "phase_max", "must be finite")
        if self.phase_min > self.phase_max:
            raise ConfigError("phase_min", "must be <= phase_max")
