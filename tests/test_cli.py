import csv
import gc
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import aqwalk
from aqwalk.cli import main
from aqwalk.config import DISORDER_FIELDS, KAPPA_FIELDS, KINDS, WALK_FIELDS, parse_angle, parse_config
from aqwalk.errors import ConfigError
from aqwalk.presets import PRESETS
from aqwalk.specs import CoinSchedule, DisorderSpec, InitialState, WalkSpec


BASE_WALK = {
    "particles": 1,
    "theta0": "pi/4",
    "acceleration": 0.001,
    "steps": 40,
    "initial": "symmetric",
    "record": ["distribution", "sigma"],
}


def _write(tmp_path, cfg, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _file_hashes(directory):
    out = {}
    for fn in sorted(os.listdir(directory)):
        if fn == "manifest.json":
            continue
        with open(os.path.join(directory, fn), "rb") as handle:
            out[fn] = hashlib.sha256(handle.read()).hexdigest()
    return out


def test_run_walk_config_writes_csv_and_manifest(tmp_path):
    cfg = {"name": "basic", "walk": dict(BASE_WALK)}
    code = main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out")])
    assert code == 0
    outdir = tmp_path / "out" / "basic"
    names = sorted(os.listdir(outdir))
    assert names == ["distribution.csv", "manifest.json", "sigma.csv"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["name"] == "basic"
    assert set(manifest["outputs"]) == {"distribution.csv", "sigma.csv"}
    with open(outdir / "sigma.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "value"]
    assert len(rows) == 42  # header + t in 0..40


def test_sweep_emits_one_file_per_value(tmp_path):
    cfg = {
        "name": "sweep",
        "walk": dict(BASE_WALK, record=["distribution"]),
        "sweep": {"acceleration": [0.0, 0.001, 0.01]},
    }
    assert main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out")]) == 0
    names = sorted(os.listdir(tmp_path / "out" / "sweep"))
    assert names == [
        "distribution_a0.001.csv",
        "distribution_a0.01.csv",
        "distribution_a0.csv",
        "manifest.json",
    ]


@pytest.mark.parametrize("config, files", [
    ({"walk": {"particles": 1, "steps": 10}, "sweep": {"theta0": [0.3, 0.6]}},
     ["distribution_theta0.3.csv", "distribution_theta0.6.csv", "sigma_theta0.3.csv", "sigma_theta0.6.csv"]),
    ({"ensemble": {"runs": 2, "walk": {"steps": 10, "record": ["sigma"], "disorder": {"kind": "temporal"}}},
      "sweep": {"theta0": ["pi/4"]}}, ["sigma_theta0.785398.csv"]),
])
def test_swept_field_may_be_left_out_of_the_walk(tmp_path, config, files):
    path = _write(tmp_path, dict(config, name="swept"))
    assert main(["validate", path]) == 0
    assert main(["run", path, "-o", str(tmp_path / "out")]) == 0
    assert sorted(os.listdir(tmp_path / "out" / "swept")) == sorted(files + ["manifest.json"])


def test_csv_round_trip_exact(tmp_path):
    from aqwalk import CoinSchedule, InitialState, WalkSpec, run_walk

    cfg = {"name": "rt", "walk": dict(BASE_WALK)}
    main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out")])
    spec = WalkSpec(CoinSchedule(math.pi / 4, 0.001), InitialState.symmetric(), 40,
                    record=("distribution", "sigma"))
    expected = run_walk(spec)
    with open(tmp_path / "out" / "rt" / "sigma.csv") as handle:
        rows = list(csv.reader(handle))[1:]
    parsed = np.array([float(v) for _, v in rows])
    assert np.array_equal(parsed, expected.series["sigma"])
    with open(tmp_path / "out" / "rt" / "distribution.csv") as handle:
        rows = list(csv.reader(handle))[1:]
    parsed = np.array([float(p) for _, p in rows])
    assert np.array_equal(parsed, expected.series["distribution"])


def test_rerun_is_byte_identical(tmp_path):
    cfg = {
        "name": "det",
        "ensemble": {
            "runs": 6,
            "base_seed": 42,
            "walk": dict(BASE_WALK, disorder={"kind": "spatial"}, record=["sigma"]),
        },
    }
    path = _write(tmp_path, cfg)
    main(["run", path, "-o", str(tmp_path / "o1")])
    main(["run", path, "-o", str(tmp_path / "o2")])
    h1 = _file_hashes(tmp_path / "o1" / "det")
    h2 = _file_hashes(tmp_path / "o2" / "det")
    assert h1 == h2
    m1 = json.loads((tmp_path / "o1" / "det" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "o2" / "det" / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]


def test_worker_count_independence_via_cli(tmp_path):
    cfg = {
        "name": "workers",
        "ensemble": {
            "runs": 8,
            "base_seed": 11,
            "walk": dict(BASE_WALK, disorder={"kind": "temporal"}, record=["sigma", "distribution"]),
        },
    }
    path = _write(tmp_path, cfg)
    hashes = []
    for i, w in enumerate((1, 4)):
        main(["run", path, "-o", str(tmp_path / f"w{i}"), "--workers", str(w)])
        hashes.append(_file_hashes(tmp_path / f"w{i}" / "workers"))
    assert hashes[0] == hashes[1]


def test_chunk_size_independence_via_cli(tmp_path, monkeypatch):
    from aqwalk import ensemble

    cfg = {
        "name": "chunks",
        "ensemble": {
            "runs": 9,
            "base_seed": 5,
            "walk": dict(BASE_WALK, particles=2, initial="uu", disorder={"kind": "spatial"},
                         record=["distribution", "sigma", "ipr", "negativity_coin_position",
                                 "negativity_particle_particle"]),
        },
    }
    path = _write(tmp_path, cfg)
    hashes = []
    for rows in (1, 4):
        monkeypatch.setattr(ensemble, "_chunk_rows", lambda walk, rows=rows: rows)
        assert main(["run", path, "-o", str(tmp_path / f"c{rows}"), "--workers", "1"]) == 0
        hashes.append(_file_hashes(tmp_path / f"c{rows}" / "chunks"))
    assert len(hashes[0]) == 5
    assert hashes[0] == hashes[1]


SWEEP_ENSEMBLE = {
    "name": "sweep",
    "ensemble": {"runs": 6, "base_seed": 3, "walk": dict(BASE_WALK, disorder={"kind": "temporal"})},
    "sweep": {"acceleration": [0.0, 0.01, 0.02, 0.04]},
}


def _no_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_sweep_ensemble_forks_once_per_point(tmp_path, forks):
    path = _write(tmp_path, SWEEP_ENSEMBLE)
    hashes = []
    for workers in ("2", "1"):
        assert main(["run", path, "-o", str(tmp_path / f"w{workers}"), "--workers", workers]) == 0
        assert _no_children()
        hashes.append(_file_hashes(tmp_path / f"w{workers}" / "sweep"))
        assert len(forks) == 4  # four sweep points at --workers 2, none at --workers 1
    assert main(["run", _write(tmp_path, {"name": "walk", "walk": BASE_WALK}, "walk.yaml"),
                 "-o", str(tmp_path / "walk"), "--workers", "2"]) == 0
    assert len(forks) == 4
    assert len(hashes[0]) == 8
    assert hashes[0] == hashes[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the children are forked")
def test_failing_chunk_leaves_no_child(tmp_path, capsys, monkeypatch, forks):
    from aqwalk import ensemble

    real_size = ensemble.landscape_size

    def size(walk):
        if walk.schedule.a == 0.04:
            raise ValueError("synthetic failure at the last sweep point")
        return real_size(walk)

    monkeypatch.setattr(ensemble, "landscape_size", size)
    path = _write(tmp_path, SWEEP_ENSEMBLE)
    assert main(["run", path, "-o", str(tmp_path / "out"), "--workers", "2"]) == 1
    assert "RealizationError: realization 0: ValueError: synthetic failure" in capsys.readouterr().err
    assert len(forks) == 4
    assert _no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the children are forked")
@pytest.mark.parametrize("failing, first", [((7, 9), 7), ((3, 9), 3)], ids=["child", "caller"])
def test_failing_share_gives_exit_1_and_leaves_no_child(tmp_path, capsys, monkeypatch, forks, failing, first):
    # 12 realizations in two chunks at --workers 2: 0-5 in this process, 6-11 in the child
    from aqwalk import ensemble

    real_sample = ensemble.sample_landscape

    def sample(disorder, size, index):
        if index in failing:
            raise ValueError("synthetic sampling failure")
        return real_sample(disorder, size, index)

    monkeypatch.setattr(ensemble, "sample_landscape", sample)
    cfg = {"name": "fail", "ensemble": {"runs": 12, "walk": dict(BASE_WALK, disorder={"kind": "spatial"})}}
    assert main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out"), "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert f"RealizationError: realization {first}: ValueError: synthetic sampling failure" in err
    assert len(forks) == 1
    assert _no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the children are forked")
def test_dead_child_gives_a_clear_error(tmp_path, capsys, monkeypatch, forks):
    from aqwalk import ensemble

    parent, real_batch = os.getpid(), ensemble.run_walk_batch

    def batch(walk, landscapes):
        if os.getpid() != parent:
            os._exit(3)
        return real_batch(walk, landscapes)

    monkeypatch.setattr(ensemble, "run_walk_batch", batch)
    cfg = {"name": "dead", "ensemble": {"runs": 12, "walk": dict(BASE_WALK, disorder={"kind": "spatial"})}}
    assert main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out"), "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert "error: AqwalkError: " in err and "exit status 3" in err
    assert len(forks) == 1
    assert _no_children()


@pytest.mark.parametrize("walk_field", [{"acceleration": math.nan},
                                        {"disorder": {"kind": "spatial", "phase_max": math.nan}},
                                        {"disorder": {"kind": "spatial", "phase_min": -math.inf}}])
def test_non_finite_walk_parameters_give_exit_2(tmp_path, capsys, walk_field):
    cfg = {"name": "nan", "walk": dict(BASE_WALK, **walk_field)}
    assert main(["validate", _write(tmp_path, cfg)]) == 2
    assert "walk" in capsys.readouterr().err


WALK_2P = dict(BASE_WALK, particles=2, initial="uu", record=["sigma"])
WALK_MIXED = dict(BASE_WALK, particles=2, initial=[[0.5, 0.0]] * 4, record=["distribution"])


@pytest.mark.parametrize("config, field", [
    ({"dispersion": {"theta0": "pi/4", "kappa": 5}}, "dispersion.kappa"),
    ({"dispersion": {"theta0": "pi/4", "kappa": {"count": 0}}}, "dispersion.kappa.count"),
    ({"dispersion": {"theta0": math.nan}}, "dispersion.theta0"),
    ({"dispersion": {"theta0": "pi/4", "phi": math.inf}}, "dispersion.phi"),
    ({"transfer": {"theta": math.nan, "omega": 0.5}}, "transfer.theta"),
    ({"transfer": {"theta": "pi/4", "omega": "inf"}}, "transfer.omega"),
    ({"transfer": {"theta": "pi/4", "omega": 0.5, "phi": math.nan}}, "transfer.phi"),
    ({"lyapunov": {"theta": math.nan, "omega": 0.5}}, "lyapunov.theta"),
    ({"lyapunov": {"theta": "pi/4", "omega": -math.inf}}, "lyapunov.omega"),
    ({"walk": dict(WALK_2P, origin=[1.7, 0])}, "walk"),
    ({"walk": dict(WALK_2P, origin=["a", 0])}, "walk"),
    ({"walk": BASE_WALK, "sweep": {"acceleration": [0.0, math.nan]}}, "sweep.acceleration"),
    ({"walk": BASE_WALK, "sweep": {"acceleration": [-0.1]}}, "sweep.acceleration"),
    ({"walk": BASE_WALK, "sweep": {"theta0": ["pi/4", 2.0]}}, "sweep.theta0"),
    ({"walk": dict(WALK_2P, layout="full2d")}, "walk.record"),
    ({"walk": dict(WALK_MIXED, record=["negativity_coin_position"])}, "walk.record"),
    ({"ensemble": {"runs": 2, "walk": dict(WALK_MIXED, disorder={"kind": "temporal"})}}, "ensemble.walk.record"),
    ({"walk": dict(WALK_2P, layout="full2d", record=["distribution"], disorder={"kind": "spatial"})},
     "walk.disorder"),
    ({"walk": BASE_WALK, "output_dir": 5}, "output_dir"),
    ({"surface": {"walk": WALK_2P, "observable": "sigma", "accelerations": [math.nan]}},
     "surface.accelerations"),
    ({"surface": {"walk": WALK_2P, "observable": "sigma", "accelerations": [0.1, -0.5]}},
     "surface.accelerations"),
    ({"schedule": {"theta0": "pi/2", "accelerations": [-0.5, math.nan]}}, "schedule.accelerations"),
    ({"schedule": {"theta0": "pi/2", "accelerations": [0.1, math.nan]}}, "schedule.accelerations"),
    ({"schedule": {"theta0": "pi/2", "accelerations": [0.1], "steps": 0}}, "schedule.steps"),
    ({"schedule": {"theta0": 2.0, "accelerations": [0.1]}}, "schedule.theta0"),
    ({"lyapunov": {"theta": "pi/4", "omega": 0.5, "chain_length": 10}}, "lyapunov.chain_length"),
    ({"lyapunov": {"theta": "pi/4", "omega": 0.5, "disorder": {"kind": "temporal"}}}, "lyapunov.disorder"),
    ({"walk": dict(WALK_MIXED, steps=60, origin=[3, -2])}, "walk"),
    ({"walk": dict(BASE_WALK, origin=4)}, "walk"),
    ({"walk": dict(WALK_2P, origin=[2, 0])}, "walk"),
    ({"ensemble": {"runs": 2, "walk": dict(WALK_2P, origin=[0, 50])}}, "ensemble.walk"),
    ({"ensemble": {"runs": 2, "walk": BASE_WALK, "base_sed": 3}}, "ensemble"),
    ({"surface": {"walk": dict(WALK_2P, record=["negativity_particle_particle"]), "accelerations": [0.1],
                  "observabel": "sigma"}}, "surface"),
    ({"dispersion": {"theta0": "pi/4", "varaint": "single"}}, "dispersion"),
    ({"dispersion": {"theta0": "pi/4", "kappa": {"cont": 16}}}, "dispersion.kappa"),
    ({"transfer": {"theta": "pi/4", "omega": 0.5, "particle": 2}}, "transfer"),
    ({"lyapunov": {"theta": "pi/4", "omega": 0.5, "chain_lenght": 5000}}, "lyapunov"),
    ({"schedule": {"theta0": "pi/2", "accelerations": [0.1], "step": 5}}, "schedule"),
    ({"walk": BASE_WALK, "sweep": {"acceleration": [0.0001, 0.00010000001, 0.01, 0.01]}}, "sweep.acceleration"),
    ({"walk": BASE_WALK, "sweep": {"theta0": ["pi/4", 0.7853981633974483, 0.785398]}}, "sweep.theta0"),
    ({"ensemble": {"runs": 2, "walk": BASE_WALK}, "sweep": {"acceleration": [0.01, 0.010000001]}},
     "sweep.acceleration"),
    ({"walk": dict(BASE_WALK, record=["sigma", "sigma"])}, "walk.record"),
    ({"walk": dict(BASE_WALK, initial=[[math.nan, 0], [1, 0]])}, "walk.initial"),
    ({"walk": dict(BASE_WALK, initial=[[True, False], [False, False]])}, "walk.initial"),
    ({"walk": dict(BASE_WALK, acceleration=math.inf)}, "walk.acceleration"),
    ({"walk": dict(BASE_WALK, theta0="pi/0")}, "walk.theta0"),
    ({"dispersion": {"theta0": "pi/4", "phi": "3pi/0.0"}}, "dispersion.phi"),
    ({"dispersion": {"theta0": "pi/4", "variant": ["single"]}}, "dispersion.variant"),
    ({"walk": BASE_WALK, "output_dir": "out\0put"}, "output_dir"),
    ({"walk": dict(WALK_2P, steps=-1)}, "walk.steps"),
    ({"walk": dict(BASE_WALK, theta0=".pi")}, "walk.theta0"),
    ({"walk": dict(BASE_WALK, theta0="-.pi")}, "walk.theta0"),
    ({"walk": dict(BASE_WALK, theta0="+.pi")}, "walk.theta0"),
    ({"walk": dict(WALK_2P, initial=[[1, 0], [0, 0]])}, "walk.initial"),
    ({"walk": dict(BASE_WALK, initial=[[1, 0], [0, 0], [0, 0], [0, 0]])}, "walk.initial"),
    # a disorder kind defaults to none, which draws no phases: a seed or phase range would have no effect
    ({"walk": dict(BASE_WALK, disorder={"seed": 7, "phase_max": 1.0})}, "walk.disorder.kind"),
    ({"ensemble": {"runs": 2, "walk": dict(BASE_WALK, disorder={"phase_max": 1.0})}}, "ensemble.walk.disorder.kind"),
    ({"lyapunov": {"theta": 0.6, "omega": 0.3, "chain_length": 2000, "disorder": {"seed": 5}}},
     "lyapunov.disorder.kind"),
    # a clean ensemble draws no phases, so its base_seed would have no effect
    ({"ensemble": {"runs": 4, "base_seed": 5, "walk": dict(BASE_WALK, disorder={"kind": "none"})}}, "ensemble.base_seed"),
    # a spec's own rule names its field, under the config path of the spec
    ({"walk": dict(BASE_WALK, steps=0)}, "walk.steps"),
    ({"walk": dict(BASE_WALK, theta0=2.0)}, "walk.theta0"),
    ({"ensemble": {"runs": 0, "walk": BASE_WALK}}, "ensemble.runs"),
    ({"walk": dict(BASE_WALK, layout="full2d")}, "walk.layout"),
    ({"walk": dict(BASE_WALK, acceleration=-0.1)}, "walk.acceleration"),
    ({"walk": dict(BASE_WALK, disorder={"kind": "spatil"})}, "walk.disorder.kind"),
    ({"walk": dict(BASE_WALK, disorder={"kind": "spatial", "phase_min": 2.0, "phase_max": 1.0})},
     "walk.disorder.phase_min"),
    ({"walk": dict(BASE_WALK, layout="grid")}, "walk.layout"),
    # a walk without theta0 holds the sweep's first value, which is still named as a sweep value
    ({"walk": {k: v for k, v in BASE_WALK.items() if k != "theta0"}, "sweep": {"theta0": [2.0, "pi/4"]}},
     "sweep.theta0"),
    # an integer too large for a float
    ({"walk": {"theta0": 10**399, "steps": 3}}, "walk.theta0"),
    ({"walk": dict(BASE_WALK, acceleration=10**399)}, "walk.acceleration"),
    ({"walk": dict(BASE_WALK, initial=[[1.3e308, 1.3e308], [0, 0]])}, "walk.initial"),  # |amp| overflows
    # an empty output_dir would fall through to $AQWALK_OUTPUT_DIR or the default, without a word
    ({"walk": BASE_WALK, "output_dir": ""}, "output_dir"),
    # a phase factor takes up to e^{2i phi}: a bound whose double overflows cannot be drawn or applied
    ({"walk": dict(BASE_WALK, disorder={"kind": "spatial", "phase_min": -1e308, "phase_max": 1e308})},
     "walk.disorder.phase_max"),
    ({"lyapunov": {"theta": 0.6, "omega": 0.3, "chain_length": 2000,
                   "disorder": {"kind": "spatial", "phase_min": -1e308, "phase_max": 1e308}}},
     "lyapunov.disorder.phase_max"),
    ({"walk": dict(WALK_2P, record=["distribution", "negativity_particle_particle"],
                   disorder={"kind": "spatial", "phase_min": 1e308, "phase_max": 1.5e308})}, "walk.disorder.phase_max"),
    ({"walk": dict(BASE_WALK, disorder={"kind": "temporal", "phase_min": -1e308})}, "walk.disorder.phase_min"),
    ({"walk": dict(WALK_2P, initial="XX")}, "walk.initial"),
])
def test_bad_config_values_give_exit_2(tmp_path, capsys, config, field):
    path = _write(tmp_path, dict(config, name="bad"))
    for verb in (["validate", path], ["run", path, "-o", str(tmp_path / "out")]):
        assert main(verb) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, value", [
    ("pi", math.pi), ("-pi", -math.pi), ("+pi", math.pi), (".5pi", 0.5 * math.pi), ("3.pi", 3 * math.pi),
    ("3pi/4", 0.75 * math.pi), ("0.5*pi", 0.5 * math.pi), ("2 * pi / 3", 2 * math.pi / 3), ("1e-4", 1e-4),
])
def test_angle_strings_parse(text, value):
    assert parse_angle(text, "walk.theta0") == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("name", ["ABSOLUTE", "..", ".", "sub/dir", "../escape", "nul\0byte"])
def test_path_like_name_gives_exit_2_and_writes_nothing(tmp_path, capsys, name):
    # the name is one directory under the output directory, never a path out of it
    name = str(tmp_path / "absolute") if name == "ABSOLUTE" else name
    path = _write(tmp_path, {"name": name, "walk": BASE_WALK})
    for verb in (["validate", path], ["run", path, "-o", str(tmp_path / "run" / "out")]):
        assert main(verb) == 2
        assert "config error: name:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["exp.yaml"]


def test_walk_too_large_to_allocate_exits_1(tmp_path, capsys):
    # 2 * 10^17 + 1 complex sites per component: more than any address space holds
    path = _write(tmp_path, {"name": "huge", "walk": dict(BASE_WALK, steps=10**17)})
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["run", path, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MemoryError" in err and err.count("\n") == 1


@pytest.mark.parametrize("cfg, error", [
    ({"walk": dict(BASE_WALK, steps=10**17)}, "MemoryError"),
    ({"lyapunov": {"theta": 0.6, "omega": 0.3, "chain_length": 200_000}}, "NonConvergenceError"),
])
def test_failed_run_leaves_no_directory(tmp_path, capsys, cfg, error):
    path = _write(tmp_path, dict(cfg, name="failed"))
    assert main(["run", path, "-o", str(tmp_path / "out")]) == 1
    assert error in capsys.readouterr().err
    assert not (tmp_path / "out" / "failed").exists()


def test_package_all_holds_no_module():
    # `from aqwalk import *` gives the public names, not the submodules their imports bind
    assert aqwalk.__all__ and not [name for name in aqwalk.__all__ if inspect.ismodule(getattr(aqwalk, name))]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_gives_exit_2(tmp_path, capsys, workers):
    path = _write(tmp_path, {"name": "few", "walk": BASE_WALK})
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "-o", str(tmp_path / "out"), "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# one minimal config per experiment kind and the data files its run writes
KIND_SMOKE = {
    "walk": ({"walk": BASE_WALK}, ["distribution.csv", "sigma.csv"]),
    "ensemble": ({"ensemble": {"runs": 3, "walk": dict(BASE_WALK, disorder={"kind": "temporal"})}},
                 ["distribution.csv", "sigma.csv"]),
    "surface": ({"surface": {"walk": WALK_2P, "observable": "sigma", "accelerations": [0.0, 0.01]}},
                ["sigma_surface.csv"]),
    "dispersion": ({"dispersion": {"theta0": "pi/4", "kappa": {"count": 8}}}, ["dispersion.csv"]),
    "transfer": ({"transfer": {"theta": "pi/4", "omega": 0.5}}, ["transfer.csv"]),
    "lyapunov": ({"lyapunov": {"theta": "pi/4", "omega": 0.5, "chain_length": 5000,
                               "disorder": {"kind": "none"}}}, ["lyapunov.csv"]),
    "schedule": ({"schedule": {"theta0": "pi/2", "accelerations": [0.01], "steps": 5}}, ["schedule.csv"]),
}


@pytest.mark.parametrize("kind", sorted(set(KINDS) | set(KIND_SMOKE)))
def test_every_kind_validates_and_runs(tmp_path, kind):
    config, files = KIND_SMOKE[kind]
    path = _write(tmp_path, dict(config, name=kind))
    assert main(["validate", path]) == 0
    assert main(["run", path, "-o", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / kind / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == files


def _each_field_set_to(wrong):
    """(path, config) for every field of KINDS and of the mappings nested in a kind, each set to
    wrong: a mapping of an unknown field is wrong for a value and for a mapping alike."""
    for kind, spec in KINDS.items():
        mapping = KIND_SMOKE[kind][0][kind]
        for name in spec.fields:
            yield f"{kind}.{name}", {kind: dict(mapping, **{name: wrong})}
    for kind in ("ensemble", "surface"):
        mapping = KIND_SMOKE[kind][0][kind]
        for name in WALK_FIELDS:
            yield f"{kind}.walk.{name}", {kind: dict(mapping, walk=dict(mapping["walk"], **{name: wrong}))}
    for kind in ("walk", "lyapunov"):
        mapping = KIND_SMOKE[kind][0][kind]
        for name in DISORDER_FIELDS:
            # a spatial kind, so that the other fields have an effect
            yield f"{kind}.disorder.{name}", {kind: dict(mapping, disorder={"kind": "spatial", name: wrong})}
    mapping = KIND_SMOKE["dispersion"][0]["dispersion"]
    for name in KAPPA_FIELDS:
        yield f"dispersion.kappa.{name}", {"dispersion": dict(mapping, kappa={name: wrong})}


@pytest.mark.parametrize("path, config", [pytest.param(path, config, id=path)
                                          for path, config in _each_field_set_to({"x": 1})])
def test_every_wrong_field_names_its_path(tmp_path, capsys, path, config):
    assert main(["validate", _write(tmp_path, dict(config, name="bad"))]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


@pytest.mark.parametrize("path, config", [pytest.param(path, config, id=path) for path, config in [
    *_each_field_set_to(None),
    *((key, {"walk": BASE_WALK, key: None}) for key in ("name", "format", "output_dir", "sweep")),
    ("walk", {"walk": None}),
]])
def test_every_null_field_names_its_path(tmp_path, capsys, path, config):
    # a null field is neither its value nor its default: `disorder:` under lyapunov once ran a clean chain
    assert main(["validate", _write(tmp_path, dict({"name": "null"}, **config))]) == 2
    assert capsys.readouterr().err == f"config error: {path}: is null: give a value, or leave the field out\n"


@pytest.mark.parametrize("path, config, label", [
    ("walk.initial", {"walk": dict(WALK_2P, initial="xx")}, "xx"),
    ("ensemble.walk.initial", {"ensemble": {"runs": 2, "walk": dict(WALK_2P, initial="xx")}}, "xx"),
    ("surface.walk.initial", {"surface": {"accelerations": [0.1], "walk": dict(
        WALK_2P, initial="xx", record=["negativity_particle_particle"])}}, "xx"),
    # labels are read case-blind, but the error quotes the label the config holds
    ("walk.initial", {"walk": dict(WALK_2P, initial="XX")}, "XX"),
], ids=["walk", "ensemble", "surface", "as_given"])
def test_unknown_two_particle_label_gives_the_spec_rule_at_its_path(tmp_path, capsys, path, config, label):
    assert main(["validate", _write(tmp_path, dict(config, name="bad"))]) == 2
    assert capsys.readouterr().err == f"config error: {path}: must be one of ('uu', 'ud', 'du', 'dd'), got {label!r}\n"


def test_two_particle_labels_are_read_case_blind():
    walk = parse_config({"name": "case", "walk": dict(WALK_2P, initial=" Ud ")}).walk
    assert list(walk.init.coin) == [0.0, 1.0, 0.0, 0.0]


def test_non_string_name_gives_exit_2(tmp_path, capsys):
    # YAML 1.1 reads `off` as False: a name of the wrong type, not a missing one
    path = tmp_path / "exp.yaml"
    path.write_text("name: off\n" + yaml.safe_dump({"walk": BASE_WALK}))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error: name:" in err
    assert "experiment name must be a string, got False" in err


def test_missing_field_gives_exit_2(tmp_path, capsys):
    cfg = {"name": "broken", "walk": {"steps": 10}}  # theta0 missing
    code = main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "theta0" in err


def test_unknown_field_gives_exit_2(tmp_path, capsys):
    cfg = {"name": "broken", "walk": dict(BASE_WALK, typo_field=3)}
    code = main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out")])
    assert code == 2
    assert "typo_field" in capsys.readouterr().err


@pytest.mark.parametrize("data", [[1], "walk", None])
def test_parse_config_of_a_non_mapping_is_a_config_error(data):
    with pytest.raises(ConfigError, match=r"^config: expected a mapping$"):
        parse_config(data)


def test_unknown_fields_of_mixed_key_types_give_exit_2(tmp_path, capsys):
    # a YAML key need not be a string, and an int key cannot be ordered among str keys
    path = tmp_path / "exp.yaml"
    path.write_text("name: mixed\nwalk: {theta0: 0.5, steps: 3, 1: 2, zz: 3}\n")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "config error: walk: unknown fields [1, 'zz']\n"


def test_validate_verb(tmp_path, capsys):
    good = {"name": "ok", "walk": dict(BASE_WALK)}
    assert main(["validate", _write(tmp_path, good, "good.yaml")]) == 0
    bad = {"name": "bad", "walk": dict(BASE_WALK, record=["nope"])}
    assert main(["validate", _write(tmp_path, bad, "bad.yaml")]) == 2
    assert "record" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"name: bad\nwalk: \xff\n"], ids=["directory", "not-utf8"])
def test_unreadable_config_gives_exit_2(tmp_path, capsys, content):
    path = tmp_path / "cfg"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    for verb in (["validate", str(path)], ["run", str(path), "-o", str(tmp_path / "out")]):
        assert main(verb) == 2
        assert capsys.readouterr().err.startswith(f"config error: config: cannot read {path}: ")
    assert not (tmp_path / "out").exists()


def test_output_dir_under_a_file_gives_exit_1(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    path = _write(tmp_path, {"name": "blocked", "walk": dict(BASE_WALK)})
    assert main(["run", path, "-o", str(blocker)]) == 1
    monkeypatch.setenv("AQWALK_OUTPUT_DIR", str(blocker / "sub"))
    assert main(["run", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0:2] for line in err] == [["error", " NotADirectoryError"]] * 2
    assert sorted(os.listdir(tmp_path)) == ["exp.yaml", "taken"] and blocker.read_text() == ""


def test_presets_listing_count(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert f"{len(PRESETS)} presets:" in out
    assert len(PRESETS) == 23
    for name in PRESETS:
        assert name in out


def test_presets_cover_every_figure():
    names = sorted(PRESETS)
    assert names == sorted(f"fig{i}" for i in range(1, 24))


def test_preset_table_is_pinned():
    # the whole table, [name, description, configs] per preset, compared as text so that
    # every value and the order of every dict's keys count; the golden file was written
    # from the table as each figure's configs were first written out in full
    table = [[p.name, p.description, list(p.configs)] for p in PRESETS.values()]
    golden = Path(__file__).parent / "golden" / "presets.json"
    assert json.dumps(table, indent=1) + "\n" == golden.read_text()


@pytest.mark.parametrize("name", ["nope", ""])
@pytest.mark.parametrize("verb", [["run", "--preset"], ["presets", "--dump"]], ids=["run", "dump"])
def test_unknown_preset_gives_exit_2(tmp_path, capsys, monkeypatch, verb, name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("AQWALK_OUTPUT_DIR", raising=False)
    assert main(verb + [name]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"config error: preset: unknown preset {name!r}; run 'aqwalk presets' for the list\n")
    assert os.listdir(tmp_path) == []


def _shrunk(value):
    """A preset config with every walk cut to at most 40 steps and every ensemble to 8 runs."""
    if not isinstance(value, dict):
        return value
    caps = {"steps": 40, "runs": 8}
    return {key: min(item, caps[key]) if key in caps else _shrunk(item) for key, item in value.items()}


def test_every_preset_runs_the_same_at_one_and_two_workers(tmp_path):
    # every config of every preset, shrunk; seeds, sweeps and records are the presets' own
    from aqwalk.config import parse_config
    from aqwalk.runner import execute

    hashes = []
    for workers in (1, 2):
        files = {}
        for preset in PRESETS.values():
            for cfg in preset.configs:
                directory, _ = execute(parse_config(_shrunk(cfg)), str(tmp_path / f"w{workers}"), workers)
                files.update({(os.path.basename(directory), name): digest
                              for name, digest in _file_hashes(directory).items()})
        hashes.append(files)
    assert len(hashes[0]) == 158
    assert hashes[0] == hashes[1]


def test_preset_dump_is_valid_yaml(capsys):
    assert main(["presets", "--dump", "fig2"]) == 0
    docs = [d for d in yaml.safe_load_all(capsys.readouterr().out) if d]
    assert len(docs) == len(PRESETS["fig2"].configs)
    assert docs[0]["name"] == "fig2"


def test_all_preset_configs_parse():
    from aqwalk.config import parse_config

    for preset in PRESETS.values():
        for cfg in preset.configs:
            exp = parse_config(cfg)
            assert exp.kind in ("walk", "ensemble", "surface", "dispersion", "transfer",
                                "lyapunov", "schedule")


def test_omitted_disorder_fields_take_the_spec_defaults():
    from aqwalk import DisorderSpec
    from aqwalk.config import parse_config

    exp = parse_config({"name": "defaults", "walk": dict(BASE_WALK, disorder={"kind": "spatial"})})
    assert exp.walk.disorder == DisorderSpec("spatial")  # seed 0, phases on [0, pi]


def test_omitted_walk_fields_take_the_spec_defaults():
    # config passes only the fields a config gives, so each default lives in its spec, with these values
    from aqwalk.config import parse_config

    walk = {"theta0": "pi/4", "steps": 40, "disorder": {"kind": "spatial"}}
    exp = parse_config({"name": "defaults", "walk": walk})
    assert exp.walk.schedule.a == 0.0
    assert exp.walk.record == ("distribution", "sigma")
    assert exp.walk.layout == "auto"
    disorder = exp.walk.disorder
    assert (disorder.phase_min, disorder.phase_max, disorder.seed) == (0.0, math.pi, 0)
    walk = dict(walk, disorder={"kind": "temporal"})
    assert parse_config({"name": "defaults", "ensemble": {"runs": 2, "walk": walk}}).ensemble.base_seed == 0


def test_json_format(tmp_path):
    cfg = {"name": "asjson", "format": "json", "walk": dict(BASE_WALK, record=["sigma"])}
    assert main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "asjson" / "sigma.json").read_text())
    assert payload["header"] == ["t", "value"]
    assert len(payload["rows"]) == 41


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON token")


def test_json_writes_non_finite_values_as_null_and_csv_keeps_them(tmp_path):
    # the group velocity is singular at theta0 = 0, kappa = 0; a clean chain's gamma is -1.27e-6 here
    configs = {
        "dispersion": {"theta0": 0, "kappa": {"min": 0, "max": 1, "count": 3}},
        "lyapunov": {"theta": 0.6, "omega": 0.65, "chain_length": 2000, "disorder": {"kind": "none"}},
    }
    cells = {"dispersion": (0, 3), "lyapunov": (0, 1)}
    for kind, config in configs.items():
        path = _write(tmp_path, {"name": kind, kind: config}, kind + ".yaml")
        for fmt in ("json", "csv"):
            assert main(["run", path, "--format", fmt, "-o", str(tmp_path / fmt)]) == 0
        payload = json.loads((tmp_path / "json" / kind / f"{kind}.json").read_text(), parse_constant=_reject_constant)
        row, column = cells[kind]
        assert payload["rows"][row][column] is None
        assert sum(value is None for line in payload["rows"] for value in line) == 1
        with open(tmp_path / "csv" / kind / f"{kind}.csv") as handle:
            assert list(csv.reader(handle))[row + 1][column] in ("nan", "inf")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", sorted(KIND_SMOKE))
def test_manifest_records_the_sha256_of_each_file(tmp_path, kind, fmt):
    config, files = KIND_SMOKE[kind]
    assert main(["run", _write(tmp_path, dict(config, name=kind)), "--format", fmt, "-o", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / kind / "manifest.json").read_text())
    assert manifest["outputs"] == _file_hashes(tmp_path / kind)
    assert sorted(manifest["outputs"]) == [name.replace(".csv", f".{fmt}") for name in files]


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("AQWALK_OUTPUT_DIR", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    cfg = {"name": "envy", "walk": dict(BASE_WALK, record=["sigma"])}
    assert main(["run", _write(tmp_path, cfg)]) == 0
    assert (tmp_path / "envout" / "envy" / "sigma.csv").exists()


def test_output_dir_flag_wins_over_config_and_env(tmp_path, monkeypatch):
    # -o, then the config's output_dir, then $AQWALK_OUTPUT_DIR
    monkeypatch.setenv("AQWALK_OUTPUT_DIR", str(tmp_path / "envout"))
    cfg = {"name": "where", "output_dir": str(tmp_path / "cfgout"), "walk": dict(BASE_WALK, record=["sigma"])}
    path = _write(tmp_path, cfg)
    assert main(["run", path, "-o", str(tmp_path / "flagout")]) == 0
    assert (tmp_path / "flagout" / "where" / "sigma.csv").exists()
    assert not (tmp_path / "cfgout").exists() and not (tmp_path / "envout").exists()
    assert main(["run", path]) == 0
    assert (tmp_path / "cfgout" / "where" / "sigma.csv").exists()
    assert not (tmp_path / "envout").exists()


@pytest.mark.parametrize("flag, env, source", [
    ([], "", "AQWALK_OUTPUT_DIR"),  # would write ./<name>/ straight into the working directory
    (["-o", ""], None, "--output-dir"),  # would fall through to ./aqwalk-out
])
def test_empty_output_dir_gives_exit_2_and_writes_nothing(tmp_path, capsys, monkeypatch, flag, env, source):
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("AQWALK_OUTPUT_DIR", raising=False)
    else:
        monkeypatch.setenv("AQWALK_OUTPUT_DIR", env)
    path = _write(tmp_path, {"name": "demo", "schedule": {"theta0": "pi/2", "accelerations": [0.01], "steps": 5}})
    assert main(["run", path, *flag]) == 2
    assert capsys.readouterr().err == f"config error: {source}: must not be empty\n"
    assert os.listdir(tmp_path) == ["exp.yaml"]
    # a source of higher precedence still wins
    monkeypatch.setenv("AQWALK_OUTPUT_DIR", "")
    assert main(["run", path, "-o", "out"]) == 0
    assert os.listdir(tmp_path / "out") == ["demo"]


def test_ensemble_walk_seed_gives_exit_2(tmp_path, capsys):
    # realization i always draws (base_seed, i): a seed in the walk would be ignored
    walk = dict(BASE_WALK, disorder={"kind": "temporal", "seed": 99})
    path = _write(tmp_path, {"name": "seeded", "ensemble": {"runs": 2, "base_seed": 5, "walk": walk}})
    for verb in (["validate", path], ["run", path, "-o", str(tmp_path / "out")]):
        assert main(verb) == 2
        err = capsys.readouterr().err
        assert "config error: ensemble.walk.disorder.seed:" in err and "ensemble.base_seed" in err
    assert not (tmp_path / "out").exists()


def test_walk_and_ensemble_write_the_same_distribution_file(tmp_path):
    # one writer for both: a clean ensemble's mean distribution is its walk's, to the byte
    walk = dict(BASE_WALK, particles=2, theta0="pi/4", acceleration=0.01, steps=30, initial="uu",
                record=["distribution"])
    for cfg in ({"name": "walk", "walk": walk}, {"name": "ensemble", "ensemble": {"runs": 3, "walk": walk}}):
        assert main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out")]) == 0
    walk_file, ensemble_file = ((tmp_path / "out" / name / "distribution.csv").read_bytes()
                                for name in ("walk", "ensemble"))
    assert walk_file == ensemble_file
    assert walk_file.startswith(b"x,p\n-30,")


def test_readme_example_config_validates(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.yaml"
    path.write_text(block)
    assert main(["validate", str(path)]) == 0, capsys.readouterr().err


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    assert names["mean_curve"].shape == (names["spec"].steps + 1,)


def test_dispersion_transfer_lyapunov_schedule_kinds(tmp_path):
    configs = [
        {"name": "disp", "dispersion": {"theta0": "pi/4", "kappa": {"count": 16}}},
        {"name": "trans", "transfer": {"theta": "pi/4", "omega": 0.5, "phi": 0.3, "particles": 2}},
        {"name": "sched", "schedule": {"theta0": "pi/2", "accelerations": [0.01], "steps": 20}},
        {"name": "lyap", "lyapunov": {"theta": "pi/4", "omega": 0.5, "chain_length": 5000,
                                      "disorder": {"kind": "none"}}},
    ]
    for cfg in configs:
        assert main(["run", _write(tmp_path, cfg, cfg["name"] + ".yaml"),
                     "-o", str(tmp_path / "out")]) == 0
    disp = (tmp_path / "out" / "disp" / "dispersion.csv").read_text().splitlines()
    assert disp[0] == "kappa,omega_plus,omega_minus,group_velocity"
    trans = (tmp_path / "out" / "trans" / "transfer.csv").read_text().splitlines()
    assert trans[0] == "row,col,re,im"
    assert len(trans) == 17  # header + 16 entries
    sched = (tmp_path / "out" / "sched" / "schedule.csv").read_text().splitlines()
    assert sched[0] == "a,t,value"
    lyap = (tmp_path / "out" / "lyap" / "lyapunov.csv").read_text().splitlines()
    assert lyap[0] == "gamma,localization_length"


@pytest.mark.parametrize("config, spec", [
    ({"walk": {"theta0": 0.5, "steps": 3}}, [("", WalkSpec(CoinSchedule(0.5), InitialState.symmetric(), 3))]),
    ({"walk": {"particles": 2, "theta0": 0.5, "steps": 3}},
     [("", WalkSpec(CoinSchedule(0.5), InitialState.basis_two_particle("uu"), 3))]),
    ({"surface": {"walk": dict(WALK_2P, record=["negativity_particle_particle"]), "accelerations": [0.1]}},
     ([WalkSpec(CoinSchedule(math.pi / 4, 0.1), InitialState.basis_two_particle("uu"), 40,
                record=("negativity_particle_particle",))], "negativity_particle_particle")),
    ({"dispersion": {"theta0": 0.5}}, ({"theta0": 0.5}, (-math.pi, math.pi, 256))),
    ({"transfer": {"theta": 0.5, "omega": 0.3}}, (1, 0.5, 0.0, 0.3)),
    ({"lyapunov": {"theta": 0.5, "omega": 0.3}}, (DisorderSpec("spatial"), 0.5, 0.3, 200_000)),
    ({"schedule": {"theta0": 0.5, "accelerations": [0.1]}}, ([CoinSchedule(0.5, 0.1)], 200)),
])
def test_omitted_fields_take_their_defaults(config, spec):
    assert parse_config(dict(config, name="defaults")).spec == spec


@pytest.mark.parametrize("config, file", [
    ({"schedule": {"theta0": "pi/2", "accelerations": [0.01], "steps": 1}}, "schedule.csv"),
    ({"dispersion": {"theta0": "pi/4", "kappa": {"count": 1}}}, "dispersion.csv"),
])
def test_a_count_of_one_gives_one_row(tmp_path, config, file):
    # schedule.steps and dispersion.kappa.count must be >= 1, and 1 itself is accepted
    assert main(["run", _write(tmp_path, dict(config, name="one")), "-o", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "one" / file).read_text().splitlines()) == 2  # header + 1 row


@pytest.mark.parametrize("phi", [0.0, 0.7])
@pytest.mark.parametrize("variant", ["single", "two_particle_xline", "two_particle_yline"])
def test_group_velocity_is_the_slope_of_omega_plus(tmp_path, variant, phi):
    # both the function and the file's column follow the variant's own relation
    from aqwalk import dispersion_omega, group_velocity

    cfg = {"name": "disp", "dispersion": {"theta0": "pi/4", "phi": phi, "variant": variant, "kappa": {"count": 33}}}
    assert main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out")]) == 0
    kappa, _, _, column = np.loadtxt(tmp_path / "out" / "disp" / "dispersion.csv", delimiter=",",
                                     skiprows=1, unpack=True)
    h = 1e-5
    slope = (dispersion_omega(math.pi / 4, kappa + h, phi, variant)[0]
             - dispersion_omega(math.pi / 4, kappa - h, phi, variant)[0]) / (2 * h)
    assert np.max(np.abs(group_velocity(math.pi / 4, kappa, phi, variant) - slope)) < 1e-6
    assert np.max(np.abs(column - slope)) < 1e-6


def test_lyapunov_next_to_half_pi_is_finite(tmp_path):
    # 16-site products near sec(theta) ~ 1e10 reach ~1e164, whose square overflows
    cfg = {"name": "steep", "lyapunov": {"theta": 1.5707963267, "omega": 0.3, "chain_length": 2000,
                                         "disorder": {"kind": "none"}}}
    assert main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "steep" / "lyapunov.csv").read_text().splitlines()
    gamma, length = map(float, rows[1].split(","))
    assert math.isfinite(gamma) and gamma > 0
    assert gamma * length == pytest.approx(1.0)


def test_fig2_preset_writes_one_distribution_per_acceleration(tmp_path):
    assert main(["run", "--preset", "fig2", "-o", str(tmp_path)]) == 0
    from aqwalk.presets import A_SWEEP_1P

    main_dir = tmp_path / "fig2"
    csvs = sorted(f for f in os.listdir(main_dir) if f.endswith(".csv"))
    assert len(csvs) == len(A_SWEEP_1P)
    assert all(f.startswith("distribution_a") for f in csvs)
    assert (tmp_path / "fig2-inset" / "manifest.json").exists()


def test_run_requires_exactly_one_source(tmp_path, capsys):
    assert main(["run"]) == 2
    cfg = {"name": "x", "walk": dict(BASE_WALK)}
    assert main(["run", _write(tmp_path, cfg), "--preset", "fig1"]) == 2


def test_config_with_two_kinds_rejected(tmp_path, capsys):
    cfg = {
        "name": "two-kinds",
        "walk": dict(BASE_WALK),
        "schedule": {"theta0": "pi/2", "accelerations": [0.1], "steps": 5},
    }
    assert main(["validate", _write(tmp_path, cfg)]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_surface_kind(tmp_path):
    cfg = {
        "name": "surf",
        "surface": {
            "accelerations": [0.005, 0.02],
            "observable": "negativity_particle_particle",
            "walk": {
                "particles": 2, "theta0": "pi/2", "steps": 30, "initial": "uu",
                "record": ["negativity_particle_particle"],
            },
        },
    }
    assert main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "surf" / "negativity_particle_particle_surface.csv").read_text().splitlines()
    assert lines[0] == "a,t,value"
    assert len(lines) == 1 + 2 * 31  # two accelerations, t in 0..30


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; the runtime needs numpy and PyYAML
    code = "import sys, aqwalk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aqwalk.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_loads_the_pool_and_presets_only_on_demand(tmp_path):
    # multiprocessing (which no run loads) and the preset table would cost
    # every run their import; a plain import and a validate load neither
    path = _write(tmp_path, dict(KIND_SMOKE["ensemble"][0], name="ens"))
    code = ("import sys, aqwalk.cli\n"
            "def loaded(): return sorted(m for m in sys.modules if m in {"
            "'multiprocessing', 'concurrent.futures.process', 'aqwalk.presets'})\n"
            "print(loaded())\n"
            "assert aqwalk.cli.main(['validate', sys.argv[1]]) == 0\n"
            "print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aqwalk.__file__)))
    out = subprocess.run([sys.executable, "-c", code, path], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines() == ["[]", "ok: ens (ensemble)", "[]"]


def test_runs_load_no_multiprocessing(tmp_path):
    # a walk, and ensembles at one and at two workers (forked children), load no process pool
    walk = _write(tmp_path, {"name": "walk", "walk": BASE_WALK}, "walk.yaml")
    ens = _write(tmp_path, dict(KIND_SMOKE["ensemble"][0], name="ens"), "ens.yaml")
    code = ("import sys, aqwalk.cli\n"
            "out = sys.argv[3]\n"
            "assert aqwalk.cli.main(['run', sys.argv[1], '-o', out]) == 0\n"
            "assert aqwalk.cli.main(['run', sys.argv[2], '-o', out, '--workers', '1']) == 0\n"
            "assert aqwalk.cli.main(['run', sys.argv[2], '-o', out, '--workers', '2']) == 0\n"
            "print(sorted(m for m in sys.modules if m in {'multiprocessing', 'concurrent.futures.process'}))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aqwalk.__file__)))
    out = subprocess.run([sys.executable, "-c", code, walk, ens, str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


# the package's public names, in the order of its __all__
PUBLIC_NAMES = [
    "CoinSchedule", "theta_at", "EnsembleSpec", "EnsembleSummary", "run_ensemble", "AqwalkError", "ConfigError",
    "NonConvergenceError", "RealizationError", "SingularParameterError", "DisorderSpec", "RunResult", "WalkSpec",
    "run_walk", "run_walk_batch", "sample_landscape", "distribution", "ipr", "negativity_coin_position",
    "negativity_particle_particle", "reduced_particle_density", "sigma", "LyapunovEstimate", "dispersion_omega",
    "group_velocity", "lyapunov_localization_length", "transfer_matrix_1p", "transfer_matrix_2p", "InitialState",
]
# modules that only a run calls
RUN_ONLY = ("aqwalk.runner", "aqwalk.io", "aqwalk.spectral", "aqwalk.ensemble", "hashlib")


def _python(args, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aqwalk.__file__)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)


@pytest.mark.parametrize("verb", [["presets"], ["presets", "--dump", "fig22"]], ids=["list", "dump"])
def test_closed_stdout_exits_quietly(verb):
    # stdout is a pipe whose read end is closed before the process starts, so every write
    # fails, whatever the timing: a non-zero exit, and nothing on stderr
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aqwalk.__file__)))
    try:
        proc = subprocess.run([sys.executable, "-m", "aqwalk", *verb], stdout=write, stderr=subprocess.PIPE,
                              text=True, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_package_names_and_submodules_resolve_on_first_use():
    assert aqwalk.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(aqwalk))
    for name in PUBLIC_NAMES:
        value = getattr(aqwalk, name)
        assert getattr(sys.modules[value.__module__], name) is value
    # a fresh process lists the names before it loads them, and reaches each submodule as an
    # attribute, as perfbench's replay does
    modules = ["runner", "ensemble", "evolve", "observables", "config"]
    code = ("import sys, aqwalk\n"
            "print(sorted(set(aqwalk.__all__) - set(dir(aqwalk))))\n"
            "print([getattr(aqwalk, name).__name__ for name in sys.argv[1:]])\n"
            "print(hasattr(aqwalk, 'no_such_name'))\n")
    out = _python(["-c", code, *modules])
    assert out.stdout.splitlines() == ["[]", str([f"aqwalk.{name}" for name in modules]), "False"], out.stderr


def test_each_verb_loads_only_the_layers_it_runs(tmp_path):
    # neither the package nor the CLI loads numpy on import, nor does validating a config of any
    # kind, nor any module that only a run calls; a run loads them
    paths = {kind: _write(tmp_path, dict(config, name=kind), f"{kind}.yaml")
             for kind, (config, _) in KIND_SMOKE.items()}
    verbs = [["validate", paths[kind]] for kind in sorted(paths)]
    verbs.append(["run", paths["walk"], "-o", str(tmp_path / "out")])
    watched = ("numpy",) + RUN_ONLY
    code = ("import json, sys, aqwalk\n"
            f"def loaded(): return sorted(m for m in sys.modules if m in {watched!r})\n"
            "print(loaded())\n"
            "import aqwalk.cli\n"
            "print(loaded())\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert aqwalk.cli.main(argv) == 0\n"
            "    print(loaded())\n")
    out = _python(["-c", code, json.dumps(verbs)])
    loaded = [line for line in out.stdout.splitlines() if line.startswith("[")]
    assert loaded == ["[]"] * (2 + len(paths)) + [str(sorted(watched))], out.stderr


def test_cli_main_leaves_the_garbage_collector_as_it_was(tmp_path, capsys):
    # only the process entry point freezes and pauses the collector; library callers keep theirs
    path = _write(tmp_path, {"name": "gc", "walk": BASE_WALK})
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["validate", path]) == 0
    assert main(["run", path, "-o", str(tmp_path / "out")]) == 0
    assert main(["validate", str(tmp_path / "missing.yaml")]) == 2
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_module_and_console_script_give_the_same_output_and_exit_code(tmp_path):
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")) as fh:
        module, function = re.search(r'^aqwalk = "(.+):(.+)"$', fh.read(), re.M).groups()
    script = f"import sys; from {module} import {function}; sys.argv[0] = 'aqwalk'; sys.exit({function}())"
    _write(tmp_path, {"name": "walk", "walk": BASE_WALK}, "walk.yaml")
    _write(tmp_path, {"name": "huge", "walk": dict(BASE_WALK, steps=10**17)}, "huge.yaml")
    _write(tmp_path, {"name": "bad", "walk": dict(BASE_WALK, theta0=2.0)}, "bad.yaml")
    cases = [
        (["validate", "walk.yaml"], 0, "ok: walk (walk)\n", ""),
        (["run", "walk.yaml", "-o", "out"], 0, f"walk: wrote 3 files to {os.path.join('out', 'walk')}\n", ""),
        (["run", "huge.yaml", "-o", "out"], 1, "", "error: MemoryError: "),
        (["validate", "bad.yaml"], 2, "", "config error: walk.theta0: "),
    ]
    for verb, code, stdout, stderr in cases:
        for entry in (["-m", "aqwalk"], ["-c", script]):
            out = _python(entry + verb, cwd=tmp_path)
            assert (out.returncode, out.stdout) == (code, stdout), (entry, out.stderr)
            assert out.stderr.startswith(stderr) and out.stderr.count("\n") == (1 if stderr else 0)
