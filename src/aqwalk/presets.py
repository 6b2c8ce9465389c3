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

__all__ = ["Preset", "PRESETS", "preset_configs"]

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


def _w1(name, theta0, steps, record, initial="symmetric", sweep_a=None):
    cfg = {
        "name": name,
        "walk": {
            "particles": 1,
            "theta0": theta0,
            "steps": steps,
            "initial": initial,
            "record": record,
        },
    }
    if sweep_a is not None:
        cfg["sweep"] = {"acceleration": list(sweep_a)}
    return cfg


def _w2(name, theta0, steps, record, initial="uu", sweep_a=None, a=0.0):
    cfg = {
        "name": name,
        "walk": {
            "particles": 2,
            "theta0": theta0,
            "acceleration": a,
            "steps": steps,
            "initial": initial,
            "record": record,
        },
    }
    if sweep_a is not None:
        cfg["sweep"] = {"acceleration": list(sweep_a)}
    return cfg


def _ens(name, particles, theta0, steps, record, kind, runs, initial, sweep_a=None, a=0.0, seed=2024):
    cfg = {
        "name": name,
        "ensemble": {
            "runs": runs,
            "base_seed": seed,
            "walk": {
                "particles": particles,
                "theta0": theta0,
                "acceleration": a,
                "steps": steps,
                "initial": initial,
                "disorder": {"kind": kind},
                "record": record,
            },
        },
    }
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
        _w1("fig2", "pi/4", 200, ["distribution"], sweep_a=A_SWEEP_1P),
        _w1("fig2-inset", "pi/2", 200, ["distribution"], sweep_a=A_SWEEP_1P),
    )
    add(
        "fig3",
        "1p spread sigma(t) for an a sweep; theta0 = pi/4 (inset pi/2)",
        _w1("fig3", "pi/4", 200, ["sigma"], sweep_a=A_SWEEP_1P),
        _w1("fig3-inset", "pi/2", 200, ["sigma"], sweep_a=A_SWEEP_1P),
    )
    add(
        "fig4",
        "1p sigma at t=200 as a function of a, one series per theta0",
        *[
            _w1(f"fig4-theta{i}", th, 200, ["sigma"],
                sweep_a=[0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
            for i, th in enumerate(["pi/6", "pi/4", "pi/3", "pi/2"])
        ],
    )
    add(
        "fig5",
        "1p coin-position negativity vs t for an a sweep; theta0 = pi/4 (inset pi/2)",
        _w1("fig5", "pi/4", 200, ["negativity_coin_position"], sweep_a=A_SWEEP_1P),
        _w1("fig5-inset", "pi/2", 200, ["negativity_coin_position"], sweep_a=A_SWEEP_1P),
    )
    fig6 = _w2("fig6", "pi/4", 10, ["distribution"], initial="uu")
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
        _w2("fig9", "pi/2", 500, ["distribution"], sweep_a=A_SWEEP_2P_NONZERO),
        _w2("fig9-inset", "pi/4", 400, ["distribution"], sweep_a=A_SWEEP_2P),
    )
    add(
        "fig10",
        "2p coin vs x-line negativity vs t from |uu>; theta0 = pi/2 (inset pi/4), a sweep",
        _w2("fig10", "pi/2", 500, ["negativity_coin_position"], sweep_a=A_SWEEP_2P),
        _w2("fig10-inset", "pi/4", 400, ["negativity_coin_position"], sweep_a=A_SWEEP_2P),
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
        _ens("fig12-spatial", 1, "pi/2", 200, ["distribution"], "spatial", 500, "up",
             sweep_a=A_SWEEP_DISORDER),
        _ens("fig12-temporal", 1, "pi/2", 200, ["distribution"], "temporal", 500, "up",
             sweep_a=A_SWEEP_DISORDER),
    )
    add(
        "fig13",
        "2p particle-particle negativity vs t, clean walk; theta0 = pi/2 (inset pi/4), a sweep",
        _w2("fig13", "pi/2", 500, ["negativity_particle_particle"], sweep_a=A_SWEEP_2P),
        _w2("fig13-inset", "pi/4", 400, ["negativity_particle_particle"], sweep_a=A_SWEEP_2P),
    )
    add(
        "fig14",
        "2p spatial-disorder distributions on the x line, 500 runs, theta0 = pi/2",
        _ens("fig14", 2, "pi/2", 500, ["distribution"], "spatial", 500, "uu",
             sweep_a=A_SWEEP_2P_NONZERO),
    )
    add(
        "fig15",
        "2p temporal-disorder distributions on the x line, 500 runs, theta0 = pi/2",
        _ens("fig15", 2, "pi/2", 500, ["distribution"], "temporal", 500, "uu",
             sweep_a=A_SWEEP_2P_NONZERO),
    )
    add(
        "fig16",
        "2p clean vs spatial vs temporal distributions at a in {0.002, 0.02}, theta0 = pi/2",
        _w2("fig16-clean", "pi/2", 500, ["distribution"], sweep_a=[0.002, 0.02]),
        _ens("fig16-spatial", 2, "pi/2", 500, ["distribution"], "spatial", 500, "uu",
             sweep_a=[0.002, 0.02]),
        _ens("fig16-temporal", 2, "pi/2", 500, ["distribution"], "temporal", 500, "uu",
             sweep_a=[0.002, 0.02]),
    )
    add(
        "fig17",
        "2p particle-particle negativity under spatial disorder, 1000 runs, a sweep",
        _ens("fig17", 2, "pi/2", 500, ["negativity_particle_particle"], "spatial", 1000, "uu",
             sweep_a=A_SWEEP_2P_NONZERO),
    )
    add(
        "fig18",
        "1p localization diagnostics: mean distribution, sigma, IPR at a=0.002 vs 0.02 "
        "(spatial disorder, 500 runs, t=200)",
        _ens("fig18", 1, "pi/2", 200, ["distribution", "sigma", "ipr"], "spatial", 500,
             "symmetric", sweep_a=[0.002, 0.02]),
    )
    add(
        "fig19",
        "2p particle-particle negativity under temporal disorder, 1000 runs, a sweep",
        _ens("fig19", 2, "pi/2", 500, ["negativity_particle_particle"], "temporal", 1000, "uu",
             sweep_a=A_SWEEP_2P_NONZERO),
    )
    add(
        "fig20",
        "2p coin vs x-line negativity under spatial disorder, 500 runs, a sweep",
        _ens("fig20", 2, "pi/2", 500, ["negativity_coin_position"], "spatial", 500, "uu",
             sweep_a=A_SWEEP_2P_NONZERO),
    )
    add(
        "fig21",
        "2p coin vs x-line negativity under temporal disorder, 500 runs, a sweep",
        _ens("fig21", 2, "pi/2", 500, ["negativity_coin_position"], "temporal", 500, "uu",
             sweep_a=A_SWEEP_2P_NONZERO),
    )
    add(
        "fig22",
        "2p particle-particle negativity at a=0.002: clean vs spatial vs temporal (1000 runs)",
        _w2("fig22-clean", "pi/2", 500, ["negativity_particle_particle"], a=0.002),
        _ens("fig22-spatial", 2, "pi/2", 500, ["negativity_particle_particle"], "spatial",
             1000, "uu", a=0.002),
        _ens("fig22-temporal", 2, "pi/2", 500, ["negativity_particle_particle"], "temporal",
             1000, "uu", a=0.002),
    )
    add(
        "fig23",
        "2p particle-particle negativity at a=0.02: clean vs spatial vs temporal (1000 runs)",
        _w2("fig23-clean", "pi/2", 500, ["negativity_particle_particle"], a=0.02),
        _ens("fig23-spatial", 2, "pi/2", 500, ["negativity_particle_particle"], "spatial",
             1000, "uu", a=0.02),
        _ens("fig23-temporal", 2, "pi/2", 500, ["negativity_particle_particle"], "temporal",
             1000, "uu", a=0.02),
    )
    return presets


PRESETS = _build_presets()


def preset_configs(name: str) -> tuple:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; run 'aqwalk presets' for the list")
    return PRESETS[name].configs

