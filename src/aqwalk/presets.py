"""Bundled experiment presets, one per figure-style dataset.

Each preset maps to one figure of the study this library reproduces and
bundles one or more configs (a figure with an inset or a multi-protocol
comparison needs several runs).  Where a figure does not pin its exact
acceleration grid, the defaults below span the regime where the angle
schedule saturates within a few hundred steps; they are a documented
choice, not a quoted value.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Preset", "PRESETS"]

# default acceleration sweeps (documented choice, see module docstring)
A_SWEEP_1P = [0.0, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 3e-2]
A_SWEEP_2P = [0.0, 0.002, 0.005, 0.01, 0.02]
A_SWEEP_2P_NONZERO = [0.002, 0.005, 0.01, 0.02]
A_SWEEP_DISORDER = [0.002, 0.01, 0.02, 0.05]
A_SURFACE = [0.0005, 0.001, 0.002, 0.003, 0.005, 0.008, 0.013, 0.02, 0.03, 0.05]


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    configs: tuple


BASE_SEED = 2024  # of every ensemble preset


def _config(name, particles, theta0, steps, record, initial, sweep_a=None, a=0.0, kind=None, runs=None):
    """One preset config: a walk or, given runs, an ensemble of the walk under
    disorder `kind`; with sweep_a, one run per acceleration.  A one-particle
    walk config leaves the acceleration out (its sweep sets it); the others state it."""
    walk = {"particles": particles, "theta0": theta0, "acceleration": a, "steps": steps, "initial": initial,
            "disorder": {"kind": kind}, "record": record}
    if runs is None:
        del walk["disorder"]
        if particles == 1:
            del walk["acceleration"]
        cfg = {"name": name, "walk": walk}
    else:
        cfg = {"name": name, "ensemble": {"runs": runs, "base_seed": BASE_SEED, "walk": walk}}
    if sweep_a is not None:
        cfg["sweep"] = {"acceleration": list(sweep_a)}
    return cfg


def _build_presets() -> dict[str, Preset]:
    presets = {}

    def add(name, description, *configs):
        presets[name] = Preset(name, description, tuple(configs))

    add(
        "fig1",
        "Angle schedule: cos(theta0 e^{-a t}) vs t for a range of a (theta0 = pi/2)",
        {
            "name": "fig1",
            "schedule": {
                "theta0": "pi/2",
                "accelerations": [1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1],
                "steps": 200,
            },
        },
    )
    add(
        "fig2",
        "1p distribution at t=200 for an a sweep; theta0 = pi/4 (inset pi/2), symmetric start",
        _config("fig2", 1, "pi/4", 200, ["distribution"], "symmetric", A_SWEEP_1P),
        _config("fig2-inset", 1, "pi/2", 200, ["distribution"], "symmetric", A_SWEEP_1P),
    )
    add(
        "fig3",
        "1p spread sigma(t) for an a sweep; theta0 = pi/4 (inset pi/2)",
        _config("fig3", 1, "pi/4", 200, ["sigma"], "symmetric", A_SWEEP_1P),
        _config("fig3-inset", 1, "pi/2", 200, ["sigma"], "symmetric", A_SWEEP_1P),
    )
    add(
        "fig4",
        "1p sigma at t=200 as a function of a, one series per theta0",
        *[
            _config(f"fig4-theta{i}", 1, th, 200, ["sigma"], "symmetric",
                    [0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
            for i, th in enumerate(["pi/6", "pi/4", "pi/3", "pi/2"])
        ],
    )
    add(
        "fig5",
        "1p coin-position negativity vs t for an a sweep; theta0 = pi/4 (inset pi/2)",
        _config("fig5", 1, "pi/4", 200, ["negativity_coin_position"], "symmetric", A_SWEEP_1P),
        _config("fig5-inset", 1, "pi/2", 200, ["negativity_coin_position"], "symmetric", A_SWEEP_1P),
    )
    fig6 = _config("fig6", 2, "pi/4", 10, ["distribution"], "uu")
    fig6["walk"]["layout"] = "full2d"
    add(
        "fig6",
        "2p 2D distribution after 10 steps from |uu>, theta0 = pi/4",
        fig6,
    )
    add(
        "fig7",
        "2p 2D distribution after 10 steps from (|uu>+|ud>)/sqrt2, theta0 = pi/4",
        {
            "name": "fig7",
            "walk": {
                "particles": 2,
                "theta0": "pi/4",
                "steps": 10,
                "initial": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0], [0.0, 0.0], [0.0, 0.0]],
                "record": ["distribution"],
            },
        },
    )
    add(
        "fig8",
        "2p 2D distribution after 10 steps from the uniform coin superposition, theta0 = pi/4",
        {
            "name": "fig8",
            "walk": {
                "particles": 2,
                "theta0": "pi/4",
                "steps": 10,
                "initial": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
                "record": ["distribution"],
            },
        },
    )
    add(
        "fig9",
        "2p line distribution from |uu>: theta0 = pi/2 at t=500 (inset pi/4 at t=400), a sweep",
        _config("fig9", 2, "pi/2", 500, ["distribution"], "uu", A_SWEEP_2P_NONZERO),
        _config("fig9-inset", 2, "pi/4", 400, ["distribution"], "uu", A_SWEEP_2P),
    )
    add(
        "fig10",
        "2p coin vs x-line negativity vs t from |uu>; theta0 = pi/2 (inset pi/4), a sweep",
        _config("fig10", 2, "pi/2", 500, ["negativity_coin_position"], "uu", A_SWEEP_2P),
        _config("fig10-inset", 2, "pi/4", 400, ["negativity_coin_position"], "uu", A_SWEEP_2P),
    )
    add(
        "fig11",
        "2p particle-particle negativity surface over (a, t); theta0 = pi/2, clean walk",
        {
            "name": "fig11",
            "surface": {
                "accelerations": A_SURFACE,
                "observable": "negativity_particle_particle",
                "walk": {
                    "particles": 2,
                    "theta0": "pi/2",
                    "steps": 500,
                    "initial": "uu",
                    "record": ["negativity_particle_particle"],
                },
            },
        },
    )
    add(
        "fig12",
        "1p disordered distributions (spatial and temporal), 500 runs, t=200, start |up>",
        _config("fig12-spatial", 1, "pi/2", 200, ["distribution"], "up", A_SWEEP_DISORDER,
                kind="spatial", runs=500),
        _config("fig12-temporal", 1, "pi/2", 200, ["distribution"], "up", A_SWEEP_DISORDER,
                kind="temporal", runs=500),
    )
    add(
        "fig13",
        "2p particle-particle negativity vs t, clean walk; theta0 = pi/2 (inset pi/4), a sweep",
        _config("fig13", 2, "pi/2", 500, ["negativity_particle_particle"], "uu", A_SWEEP_2P),
        _config("fig13-inset", 2, "pi/4", 400, ["negativity_particle_particle"], "uu", A_SWEEP_2P),
    )
    add(
        "fig14",
        "2p spatial-disorder distributions on the x line, 500 runs, theta0 = pi/2",
        _config("fig14", 2, "pi/2", 500, ["distribution"], "uu", A_SWEEP_2P_NONZERO,
                kind="spatial", runs=500),
    )
    add(
        "fig15",
        "2p temporal-disorder distributions on the x line, 500 runs, theta0 = pi/2",
        _config("fig15", 2, "pi/2", 500, ["distribution"], "uu", A_SWEEP_2P_NONZERO,
                kind="temporal", runs=500),
    )
    add(
        "fig16",
        "2p clean vs spatial vs temporal distributions at a in {0.002, 0.02}, theta0 = pi/2",
        _config("fig16-clean", 2, "pi/2", 500, ["distribution"], "uu", [0.002, 0.02]),
        _config("fig16-spatial", 2, "pi/2", 500, ["distribution"], "uu", [0.002, 0.02],
                kind="spatial", runs=500),
        _config("fig16-temporal", 2, "pi/2", 500, ["distribution"], "uu", [0.002, 0.02],
                kind="temporal", runs=500),
    )
    add(
        "fig17",
        "2p particle-particle negativity under spatial disorder, 1000 runs, a sweep",
        _config("fig17", 2, "pi/2", 500, ["negativity_particle_particle"], "uu", A_SWEEP_2P_NONZERO,
                kind="spatial", runs=1000),
    )
    add(
        "fig18",
        "1p localization diagnostics: mean distribution, sigma, IPR at a=0.002 vs 0.02 "
        "(spatial disorder, 500 runs, t=200)",
        _config("fig18", 1, "pi/2", 200, ["distribution", "sigma", "ipr"], "symmetric", [0.002, 0.02],
                kind="spatial", runs=500),
    )
    add(
        "fig19",
        "2p particle-particle negativity under temporal disorder, 1000 runs, a sweep",
        _config("fig19", 2, "pi/2", 500, ["negativity_particle_particle"], "uu", A_SWEEP_2P_NONZERO,
                kind="temporal", runs=1000),
    )
    add(
        "fig20",
        "2p coin vs x-line negativity under spatial disorder, 500 runs, a sweep",
        _config("fig20", 2, "pi/2", 500, ["negativity_coin_position"], "uu", A_SWEEP_2P_NONZERO,
                kind="spatial", runs=500),
    )
    add(
        "fig21",
        "2p coin vs x-line negativity under temporal disorder, 500 runs, a sweep",
        _config("fig21", 2, "pi/2", 500, ["negativity_coin_position"], "uu", A_SWEEP_2P_NONZERO,
                kind="temporal", runs=500),
    )
    add(
        "fig22",
        "2p particle-particle negativity at a=0.002: clean vs spatial vs temporal (1000 runs)",
        _config("fig22-clean", 2, "pi/2", 500, ["negativity_particle_particle"], "uu", a=0.002),
        _config("fig22-spatial", 2, "pi/2", 500, ["negativity_particle_particle"], "uu", a=0.002,
                kind="spatial", runs=1000),
        _config("fig22-temporal", 2, "pi/2", 500, ["negativity_particle_particle"], "uu", a=0.002,
                kind="temporal", runs=1000),
    )
    add(
        "fig23",
        "2p particle-particle negativity at a=0.02: clean vs spatial vs temporal (1000 runs)",
        _config("fig23-clean", 2, "pi/2", 500, ["negativity_particle_particle"], "uu", a=0.02),
        _config("fig23-spatial", 2, "pi/2", 500, ["negativity_particle_particle"], "uu", a=0.02,
                kind="spatial", runs=1000),
        _config("fig23-temporal", 2, "pi/2", 500, ["negativity_particle_particle"], "uu", a=0.02,
                kind="temporal", runs=1000),
    )
    return presets


PRESETS = _build_presets()
