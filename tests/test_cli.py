import csv
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import aqwalk
from aqwalk.cli import main
from aqwalk.config import KINDS, parse_angle
from aqwalk.presets import PRESETS


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
    assert np.array_equal(parsed, expected.sigma)
    with open(tmp_path / "out" / "rt" / "distribution.csv") as handle:
        rows = list(csv.reader(handle))[1:]
    parsed = np.array([float(p) for _, p in rows])
    assert np.array_equal(parsed, expected.distribution.p)


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
    ({"walk": dict(WALK_2P, layout="full2d")}, "walk"),
    ({"walk": dict(WALK_MIXED, record=["negativity_coin_position"])}, "walk"),
    ({"ensemble": {"runs": 2, "walk": dict(WALK_MIXED, disorder={"kind": "temporal"})}}, "ensemble"),
    ({"walk": dict(WALK_2P, layout="full2d", record=["distribution"], disorder={"kind": "spatial"})}, "walk"),
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
    ({"walk": dict(WALK_2P, steps=-1)}, "walk"),
    ({"walk": dict(BASE_WALK, theta0=".pi")}, "walk.theta0"),
    ({"walk": dict(BASE_WALK, theta0="-.pi")}, "walk.theta0"),
    ({"walk": dict(BASE_WALK, theta0="+.pi")}, "walk.theta0"),
    ({"walk": dict(WALK_2P, initial=[[1, 0], [0, 0]])}, "walk.initial"),
    ({"walk": dict(BASE_WALK, initial=[[1, 0], [0, 0], [0, 0], [0, 0]])}, "walk.initial"),
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


def test_json_format(tmp_path):
    cfg = {"name": "asjson", "format": "json", "walk": dict(BASE_WALK, record=["sigma"])}
    assert main(["run", _write(tmp_path, cfg), "-o", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "asjson" / "sigma.json").read_text())
    assert payload["header"] == ["t", "value"]
    assert len(payload["rows"]) == 41


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


def test_ensemble_walk_seed_gives_exit_2(tmp_path, capsys):
    # realization i always draws (base_seed, i): a seed in the walk would be ignored
    walk = dict(BASE_WALK, disorder={"kind": "temporal", "seed": 99})
    path = _write(tmp_path, {"name": "seeded", "ensemble": {"runs": 2, "base_seed": 5, "walk": walk}})
    for verb in (["validate", path], ["run", path, "-o", str(tmp_path / "out")]):
        assert main(verb) == 2
        err = capsys.readouterr().err
        assert "config error: ensemble.walk.disorder.seed:" in err and "ensemble.base_seed" in err
    assert not (tmp_path / "out").exists()


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
