"""Accelerated discrete-time quantum walks.

Simulation of one- and two-particle walks with an exponentially decaying
coin angle, phase-operator disorder (spatial or temporal), entanglement
negativity for the coin/position and particle/particle bipartitions,
dispersion and transfer-matrix analysis, and reproducible disorder
ensembles with a CSV/JSON experiment CLI.

The public names, and the submodules as attributes, load on first use
(PEP 562), so `import aqwalk` loads neither numpy nor any layer and a
process pays only for the layers it reads.  The specs (`specs`) need no
numpy: building or validating one loads no engine.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {  # public name: the submodule that defines it
    "CoinSchedule": "specs", "theta_at": "specs",
    "EnsembleSpec": "specs", "EnsembleSummary": "ensemble", "run_ensemble": "ensemble",
    "AqwalkError": "errors", "ConfigError": "errors", "NonConvergenceError": "errors",
    "RealizationError": "errors", "SingularParameterError": "errors",
    "DisorderSpec": "specs", "RunResult": "evolve", "WalkSpec": "specs",
    "run_walk": "evolve", "run_walk_batch": "evolve", "sample_landscape": "evolve",
    "distribution": "observables", "ipr": "observables", "negativity_coin_position": "observables",
    "negativity_particle_particle": "observables", "reduced_particle_density": "observables",
    "sigma": "observables",
    "LyapunovEstimate": "spectral", "dispersion_omega": "spectral", "group_velocity": "spectral",
    "lyapunov_localization_length": "spectral", "transfer_matrix_1p": "spectral",
    "transfer_matrix_2p": "spectral",
    "InitialState": "specs",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    """A public name from its submodule, or a submodule itself, imported on first use."""
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
        globals()[name] = value  # later reads skip this hook
        return value
    try:
        return importlib.import_module(f".{name}", __name__)  # binds aqwalk.<name> as it loads
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    return sorted(set(globals()) | set(__all__))
