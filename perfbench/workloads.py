"""Benchmark workloads: aqwalk configs generated from a workload seed.

Each workload is a list of ops; one op is one `aqwalk run` of one config.
The seed only picks disorder seeds, sweep values and angles, never sizes,
so the nominal work of a workload is the same for every seed.  The shapes
copy the paper's presets (fig10, fig8, fig12/fig18, fig22) but are sized
so that one pass over a workload takes a few seconds.
"""

from __future__ import annotations

import json
import os
import random
import re

DEFAULT_SEED = 0

WORKLOADS = ("ens2p_spatial", "ens1p_temporal", "clean_analysis")

RUNS_2P = 40
RUNS_1P = 100
A_SWEEP_1P = [0.002, 0.01, 0.02, 0.05]
LYAPUNOV_OPS = 3


def nominal_site_steps(particles: int, steps: int, layout: str = "auto") -> int:
    """Site-steps of one realization as the config states them.

    (2T+1)*T on a line, (2T+1)^2*T on the full 2D grid.  This is not the
    work an engine actually does, so trimming to the light cone shows up
    as higher throughput.
    """
    width = 2 * steps + 1
    if particles == 2 and layout == "full2d":
        return width * width * steps
    return width * steps


def _suffixes(config: dict) -> list[str]:
    sweep = config.get("sweep")
    if not sweep:
        return [""]
    (field, values), = sweep.items()
    tag = "_a" if field == "acceleration" else "_theta"
    return [f"{tag}{v:g}" for v in values]


def _op(config: dict) -> dict:
    """Describe one op: its config plus what it must write and how big it is."""
    name = config["name"]
    if "lyapunov" in config:
        return {"name": name, "config": config, "kind": "lyapunov", "steps": None,
                "files": ["lyapunov.csv"], "site_steps": 0}
    if "ensemble" in config:
        kind, walk, runs = "ensemble", config["ensemble"]["walk"], config["ensemble"]["runs"]
    else:
        kind, walk, runs = "walk", config["walk"], 1
    suffixes = _suffixes(config)
    per_run = nominal_site_steps(walk["particles"], walk["steps"], walk.get("layout", "auto"))
    return {
        "name": name,
        "config": config,
        "kind": kind,
        "steps": walk["steps"],
        "files": [f"{key}{s}.csv" for s in suffixes for key in walk["record"]],
        "site_steps": per_run * runs * len(suffixes),
    }


def _ens2p_spatial(rng: random.Random) -> list[dict]:
    return [_op({
        "name": "ens2p_spatial",
        "ensemble": {
            "runs": RUNS_2P,
            "base_seed": rng.randrange(2**31),
            "walk": {"particles": 2, "theta0": "pi/2", "acceleration": 0.002, "steps": 500,
                     "initial": "uu", "disorder": {"kind": "spatial"},
                     "record": ["negativity_particle_particle"]},
        },
    })]


def _ens1p_temporal(rng: random.Random) -> list[dict]:
    return [_op({
        "name": "ens1p_temporal",
        "ensemble": {
            "runs": RUNS_1P,
            "base_seed": rng.randrange(2**31),
            "walk": {"particles": 1, "theta0": "pi/2", "steps": 200, "initial": "up",
                     "disorder": {"kind": "temporal"}, "record": ["distribution", "sigma", "ipr"]},
        },
        "sweep": {"acceleration": list(A_SWEEP_1P)},
    })]


def _clean_analysis(rng: random.Random) -> list[dict]:
    accelerations = [0.0]
    while len(accelerations) < 4:
        a = round(10 ** rng.uniform(-3.0, -1.3), 5)
        if a not in accelerations:
            accelerations.append(a)
    ops = [
        _op({
            "name": "fig10_coin_position",
            "walk": {"particles": 2, "theta0": "pi/2", "steps": 500, "initial": "uu",
                     "record": ["negativity_coin_position"]},
            "sweep": {"acceleration": sorted(accelerations)},
        }),
        _op({
            "name": "fig8_full2d",
            "walk": {"particles": 2, "theta0": round(rng.uniform(0.4, 1.2), 6), "steps": 120,
                     "layout": "full2d", "initial": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
                     "record": ["distribution", "negativity_particle_particle"]},
        }),
    ]
    # Lyapunov disorder seeds come from the workload seed as drawn, never
    # filtered: about half of them do not converge at (0.6, 0.3) today.
    for i in range(LYAPUNOV_OPS):
        ops.append(_op({
            "name": f"lyapunov_{i}",
            "lyapunov": {"theta": 0.6, "omega": 0.3,
                         "disorder": {"kind": "spatial", "seed": rng.randrange(2**31)}},
        }))
    return ops


_GENERATORS = {
    "ens2p_spatial": _ens2p_spatial,
    "ens1p_temporal": _ens1p_temporal,
    "clean_analysis": _clean_analysis,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The ops of one workload for one seed; the same seed gives the same ops."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def write_configs(ops: list[dict], directory: str) -> dict:
    """Write each op's config as YAML (JSON is a YAML subset); returns {op name: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for op in ops:
        text = json.dumps(op["config"], indent=1)
        # PyYAML reads '1e-05' as a string, so every number must be plain decimal
        if re.search(r"\d[eE][-+]?\d", text):
            raise ValueError(f"config {op['name']} has a number in exponent form")
        paths[op["name"]] = os.path.join(directory, op["name"] + ".yaml")
        with open(paths[op["name"]], "w") as handle:
            handle.write(text + "\n")
    return paths
