"""Bundled experiment presets, one per figure-style dataset.

Each preset maps to one figure of the study this library reproduces and
bundles one or more configs.  The figures come in families, and one
builder states each family's shared walk once:

- a figure and its inset (`_with_inset`): fig2, fig3 and fig5 walk one
  particle from the symmetric start for T = 200 at theta0 = pi/4, the
  inset at pi/2; fig9, fig10 and fig13 walk two from |uu> for T = 500 at
  pi/2, the inset for T = 400 at pi/4;
- the 2p disorder walk (`_disorder_walk`): two particles from |uu> for
  T = 500 at theta0 = pi/2 over A_SWEEP_2P_NONZERO (fig14, fig15, fig17,
  fig19, fig20 and fig21);
- a protocol set (`_protocols`): one walk run clean, under spatial and
  under temporal disorder, a config `<fig>-<kind>` each (fig12's 1p walk;
  fig16, fig22 and fig23 on the 2p disorder walk);
- the 10-step 2D-grid walk at theta0 = pi/4 (`_grid_walk`): fig6, fig7
  and fig8, one start each.

Where a figure does not pin its exact acceleration grid, the defaults
below span the regime where the angle schedule saturates within a few
hundred steps; they are a documented choice, not a quoted value.
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


def _with_inset(name, particles, record, sweep_a=A_SWEEP_2P):
    """A figure's clean walk and its inset `<name>-inset`, recording one key.  1p: from the
    symmetric start over A_SWEEP_1P for T = 200, at theta0 = pi/4 (inset pi/2).  2p: from |uu>,
    at pi/2 for T = 500 over sweep_a (inset pi/4 for T = 400 over A_SWEEP_2P)."""
    if particles == 1:
        shapes = [("pi/4", 200, A_SWEEP_1P), ("pi/2", 200, A_SWEEP_1P)]
    else:
        shapes = [("pi/2", 500, sweep_a), ("pi/4", 400, A_SWEEP_2P)]
    initial = "symmetric" if particles == 1 else "uu"
    return tuple(_config(config_name, particles, theta0, steps, [record], initial, sweep)
                 for config_name, (theta0, steps, sweep) in zip([name, f"{name}-inset"], shapes))


def _disorder_walk(name, record, kind=None, runs=None, sweep_a=A_SWEEP_2P_NONZERO, a=0.0):
    """The 2p disorder walk, recording one key: from |uu> for T = 500 at theta0 = pi/2, over
    sweep_a (None: at acceleration a alone); given runs, an ensemble under disorder kind."""
    return _config(name, 2, "pi/2", 500, [record], "uu", sweep_a, a, kind, runs)


def _protocols(name, runs, build, *args, kinds=("clean", "spatial", "temporal"), **options):
    """A config `<name>-<kind>` per protocol, build(config name, *args, **options): a single walk
    for "clean", an ensemble of runs under that disorder for the others."""
    return tuple(build(f"{name}-{kind}", *args, **options) if kind == "clean"
                 else build(f"{name}-{kind}", *args, kind=kind, runs=runs, **options) for kind in kinds)


def _grid_walk(name, initial):
    """The 10-step 2D-grid walk at theta0 = pi/4 from `initial`.  |uu> alone keeps to its x line,
    so its config asks for the full grid (and states the acceleration); a coin superposition
    spreads over the grid by itself."""
    cfg = _config(name, 2, "pi/4", 10, ["distribution"], initial)
    if initial == "uu":
        cfg["walk"]["layout"] = "full2d"
    else:
        del cfg["walk"]["acceleration"]
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
    add("fig2", "1p distribution at t=200 for an a sweep; theta0 = pi/4 (inset pi/2), symmetric start",
        *_with_inset("fig2", 1, "distribution"))
    add("fig3", "1p spread sigma(t) for an a sweep; theta0 = pi/4 (inset pi/2)", *_with_inset("fig3", 1, "sigma"))
    add(
        "fig4",
        "1p sigma at t=200 as a function of a, one series per theta0",
        *[
            _config(f"fig4-theta{i}", 1, th, 200, ["sigma"], "symmetric",
                    [0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
            for i, th in enumerate(["pi/6", "pi/4", "pi/3", "pi/2"])
        ],
    )
    add("fig5", "1p coin-position negativity vs t for an a sweep; theta0 = pi/4 (inset pi/2)",
        *_with_inset("fig5", 1, "negativity_coin_position"))
    add("fig6", "2p 2D distribution after 10 steps from |uu>, theta0 = pi/4", _grid_walk("fig6", "uu"))
    add("fig7", "2p 2D distribution after 10 steps from (|uu>+|ud>)/sqrt2, theta0 = pi/4",
        _grid_walk("fig7", [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    add("fig8", "2p 2D distribution after 10 steps from the uniform coin superposition, theta0 = pi/4",
        _grid_walk("fig8", [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]))
    add("fig9", "2p line distribution from |uu>: theta0 = pi/2 at t=500 (inset pi/4 at t=400), a sweep",
        *_with_inset("fig9", 2, "distribution", A_SWEEP_2P_NONZERO))
    add("fig10", "2p coin vs x-line negativity vs t from |uu>; theta0 = pi/2 (inset pi/4), a sweep",
        *_with_inset("fig10", 2, "negativity_coin_position"))
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
    add("fig12", "1p disordered distributions (spatial and temporal), 500 runs, t=200, start |up>",
        *_protocols("fig12", 500, _config, 1, "pi/2", 200, ["distribution"], "up", A_SWEEP_DISORDER,
                    kinds=("spatial", "temporal")))
    add("fig13", "2p particle-particle negativity vs t, clean walk; theta0 = pi/2 (inset pi/4), a sweep",
        *_with_inset("fig13", 2, "negativity_particle_particle"))
    add("fig14", "2p spatial-disorder distributions on the x line, 500 runs, theta0 = pi/2",
        _disorder_walk("fig14", "distribution", "spatial", 500))
    add("fig15", "2p temporal-disorder distributions on the x line, 500 runs, theta0 = pi/2",
        _disorder_walk("fig15", "distribution", "temporal", 500))
    add("fig16", "2p clean vs spatial vs temporal distributions at a in {0.002, 0.02}, theta0 = pi/2",
        *_protocols("fig16", 500, _disorder_walk, "distribution", sweep_a=[0.002, 0.02]))
    add("fig17", "2p particle-particle negativity under spatial disorder, 1000 runs, a sweep",
        _disorder_walk("fig17", "negativity_particle_particle", "spatial", 1000))
    add(
        "fig18",
        "1p localization diagnostics: mean distribution, sigma, IPR at a=0.002 vs 0.02 "
        "(spatial disorder, 500 runs, t=200)",
        _config("fig18", 1, "pi/2", 200, ["distribution", "sigma", "ipr"], "symmetric", [0.002, 0.02],
                kind="spatial", runs=500),
    )
    add("fig19", "2p particle-particle negativity under temporal disorder, 1000 runs, a sweep",
        _disorder_walk("fig19", "negativity_particle_particle", "temporal", 1000))
    add("fig20", "2p coin vs x-line negativity under spatial disorder, 500 runs, a sweep",
        _disorder_walk("fig20", "negativity_coin_position", "spatial", 500))
    add("fig21", "2p coin vs x-line negativity under temporal disorder, 500 runs, a sweep",
        _disorder_walk("fig21", "negativity_coin_position", "temporal", 500))
    for name, a in [("fig22", 0.002), ("fig23", 0.02)]:
        add(name, f"2p particle-particle negativity at a={a}: clean vs spatial vs temporal (1000 runs)",
            *_protocols(name, 1000, _disorder_walk, "negativity_particle_particle", sweep_a=None, a=a))
    return presets


PRESETS = _build_presets()
