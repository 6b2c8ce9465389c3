"""Accelerated discrete-time quantum walks.

Simulation of one- and two-particle walks with an exponentially decaying
coin angle, phase-operator disorder (spatial or temporal), entanglement
negativity for the coin/position and particle/particle bipartitions,
dispersion and transfer-matrix analysis, and reproducible disorder
ensembles with a CSV/JSON experiment CLI.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .coins import CoinSchedule, theta_at
from .ensemble import EnsembleSpec, EnsembleSummary, run_ensemble
from .errors import (
    AqwalkError,
    ConfigError,
    NonConvergenceError,
    RealizationError,
    SingularParameterError,
)
from .evolve import (
    DisorderSpec,
    RunResult,
    WalkSpec,
    run_walk,
    run_walk_batch,
    sample_landscape,
)
from .observables import (
    Distribution1D,
    Distribution2D,
    distribution,
    ipr,
    negativity_coin_position,
    negativity_particle_particle,
    reduced_particle_density,
    sigma,
)
from .spectral import (
    LyapunovEstimate,
    dispersion_omega,
    group_velocity,
    lyapunov_localization_length,
    transfer_matrix_1p,
    transfer_matrix_2p,
)
from .state import Field, InitialState

# every public name but the submodules, which importing them binds here too
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
