import dataclasses
import math
import os

import numpy as np
import pytest

from aqwalk import (
    CoinSchedule,
    DisorderSpec,
    EnsembleSpec,
    InitialState,
    WalkSpec,
    run_ensemble,
    run_walk,
    sample_landscape,
)
from aqwalk.errors import ConfigError
from aqwalk.observables import check_normalized

from oracles import convergence_report


def _walk(kind="spatial", steps=60, a=0.01, record=("sigma",), particles=1, theta0=math.pi / 2):
    init = InitialState.symmetric() if particles == 1 else InitialState.basis_two_particle("uu")
    return WalkSpec(CoinSchedule(theta0, a), init, steps,
                    disorder=DisorderSpec(kind), record=record)


def test_single_run_ensemble_equals_walk():
    spec = EnsembleSpec(_walk(kind="none"), runs=1, base_seed=5)
    summary = run_ensemble(spec, workers=1)
    direct = run_walk(spec.walk)
    assert np.array_equal(summary.mean["sigma"], direct.series["sigma"])
    assert np.all(summary.stderr["sigma"] == 0.0)


def test_clean_limit_collapse():
    # without disorder every realization is the same walk
    spec = EnsembleSpec(_walk(kind="none", record=("sigma", "distribution")), runs=5, base_seed=1)
    summary = run_ensemble(spec, workers=1)
    direct = run_walk(spec.walk)
    assert np.array_equal(summary.mean["sigma"], direct.series["sigma"])
    assert np.max(summary.stderr["sigma"]) == 0.0
    assert np.array_equal(summary.mean["distribution"], direct.series["distribution"])


def test_worker_count_independence():
    spec = EnsembleSpec(_walk(record=("sigma", "distribution")), runs=12, base_seed=9)
    s1 = run_ensemble(spec, workers=1)
    s4 = run_ensemble(spec, workers=4)
    assert np.array_equal(s1.mean["sigma"], s4.mean["sigma"])
    assert np.array_equal(s1.stderr["sigma"], s4.stderr["sigma"])
    assert np.array_equal(s1.mean["distribution"], s4.mean["distribution"])


def test_base_seed_controls_landscapes():
    spec_a = EnsembleSpec(_walk(), runs=6, base_seed=1)
    spec_b = EnsembleSpec(_walk(), runs=6, base_seed=2)
    sa = run_ensemble(spec_a, workers=1)
    sb = run_ensemble(spec_b, workers=1)
    assert not np.array_equal(sa.mean["sigma"], sb.mean["sigma"])
    again = run_ensemble(spec_a, workers=1)
    assert np.array_equal(sa.mean["sigma"], again.mean["sigma"])


def test_two_run_stderr_is_the_sample_standard_error():
    # the two realizations run one by one and reduced here with numpy's sample std
    spec = EnsembleSpec(_walk(kind="temporal", record=("sigma", "distribution")), runs=2, base_seed=3)
    summary = run_ensemble(spec, workers=1)
    walk = dataclasses.replace(spec.walk, disorder=DisorderSpec("temporal", seed=3))
    runs = [run_walk(walk, sample_landscape(walk.disorder, walk.steps, i)) for i in range(2)]
    for got, samples in ((summary.stderr["sigma"], [r.series["sigma"] for r in runs]),
                         (summary.stderr["distribution"], [r.series["distribution"] for r in runs])):
        expected = np.std(samples, axis=0, ddof=1) / math.sqrt(2)
        assert np.max(expected) > 0.01  # the two landscapes give different walks
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-15)


def test_mean_distribution_normalized():
    spec = EnsembleSpec(_walk(record=("distribution",)), runs=20, base_seed=3)
    summary = run_ensemble(spec, workers=1)
    assert summary.mean["distribution"].sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(summary.stderr["distribution"] >= 0.0)


def test_acceleration_increases_mean_spread():
    slow = run_ensemble(EnsembleSpec(_walk(a=0.002, steps=200), runs=60, base_seed=4), workers=1)
    fast = run_ensemble(EnsembleSpec(_walk(a=0.02, steps=200), runs=60, base_seed=4), workers=1)
    assert fast.mean["sigma"][-1] > slow.mean["sigma"][-1]


@pytest.mark.parametrize("start", ["ud", "du"])
def test_temporal_disorder_on_a_y_line_is_a_global_phase(start):
    # both y-line components carry e^{i phi} (phase powers (1, 1)), so a phase that is the
    # same at every site multiplies the whole state: every realization is the clean walk
    record = ("distribution", "negativity_particle_particle", "negativity_coin_position")
    walk = WalkSpec(CoinSchedule(math.pi / 4, 0.01), InitialState.basis_two_particle(start), 60,
                    disorder=DisorderSpec("temporal"), record=record)
    summary = run_ensemble(EnsembleSpec(walk, runs=64, base_seed=5), workers=1)
    clean = run_walk(dataclasses.replace(walk, disorder=DisorderSpec()))
    assert np.max(np.abs(summary.mean["distribution"] - clean.series["distribution"])) <= 1e-14
    assert np.max(summary.stderr["distribution"]) <= 1e-14
    for key in record[1:]:
        assert np.max(np.abs(summary.mean[key] - clean.series[key])) <= 1e-14
        assert np.max(summary.stderr[key]) <= 1e-14


def test_convergence_report_identical_clean():
    small = run_ensemble(EnsembleSpec(_walk(kind="none"), runs=3, base_seed=7), workers=1)
    large = run_ensemble(EnsembleSpec(_walk(kind="none"), runs=6, base_seed=7), workers=1)
    report = convergence_report(small, large)
    assert report.max_abs_diff["sigma"] == 0.0
    assert not report.any_flagged


def test_convergence_report_statistical():
    small = run_ensemble(EnsembleSpec(_walk(steps=100), runs=120, base_seed=21), workers=1)
    large = run_ensemble(EnsembleSpec(_walk(steps=100), runs=240, base_seed=22), workers=1)
    report = convergence_report(small, large)
    assert report.frac_steps_within["sigma"] >= 0.95
    assert not report.any_flagged


def test_convergence_report_disjoint_seeds_same_size():
    walk = _walk(steps=120, a=0.002, particles=2,
                 record=("negativity_particle_particle",))
    a = run_ensemble(EnsembleSpec(walk, runs=150, base_seed=100), workers=1)
    b = run_ensemble(EnsembleSpec(walk, runs=150, base_seed=200), workers=1)
    report = convergence_report(a, b)
    assert report.frac_steps_within["negativity_particle_particle"] >= 0.95


def test_convergence_report_rejects_smaller_reference():
    a = run_ensemble(EnsembleSpec(_walk(), runs=4, base_seed=1), workers=1)
    b = run_ensemble(EnsembleSpec(_walk(), runs=2, base_seed=1), workers=1)
    with pytest.raises(ValueError, match="reference"):
        convergence_report(a, b)


def test_runs_validation():
    with pytest.raises(ValueError, match="runs"):
        EnsembleSpec(_walk(), runs=0, base_seed=1)
    # counts are integers: a float or a bool is a ConfigError on its field, not a later numpy TypeError
    for fields, field in [({"runs": 2.5}, "runs"), ({"runs": True}, "runs"),
                          ({"runs": 2, "base_seed": 1.0}, "base_seed"), ({"runs": 2, "base_seed": False}, "base_seed")]:
        with pytest.raises(ConfigError, match="expected an integer") as info:
            EnsembleSpec(_walk(), **fields)
        assert info.value.field == field


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_below_one_is_rejected(workers):
    with pytest.raises(ValueError, match=f"workers: must be >= 1, got {workers}"):
        run_ensemble(EnsembleSpec(_walk(), runs=2, base_seed=1), workers=workers)


def _fail_norm_at(monkeypatch, row, here=lambda: True):
    """Make every batch's norm check (in the processes where here() holds) see row `row` off by 1."""
    from aqwalk import observables

    def check(total):
        if here() and len(total) > row:
            total = total.copy()
            total[row] += 1.0
        return check_normalized(total)

    monkeypatch.setattr(observables, "check_normalized", check)


def _checked_walk():
    """A walk whose batches check their norm at every step."""
    return _walk(record=("sigma", "negativity_coin_position"))


def test_failing_realization_is_tagged(monkeypatch):
    from aqwalk import RealizationError
    from aqwalk import ensemble as ens_module

    _fail_norm_at(monkeypatch, 0)
    with pytest.raises(RealizationError, match=r"realization 0: ValueError: state must be normalized") as info:
        run_ensemble(EnsembleSpec(_checked_walk(), runs=3, base_seed=1), workers=1)
    assert info.value.index == 0 and info.value.original.row == 0

    # an error that names no row is not a realization's: it propagates as it is
    def explode(walk, landscapes):
        raise ValueError("synthetic engine failure")

    monkeypatch.setattr(ens_module, "run_walk_batch", explode)
    with pytest.raises(ValueError, match="synthetic engine failure") as info:
        run_ensemble(EnsembleSpec(_checked_walk(), runs=3, base_seed=1), workers=1)
    assert info.type is ValueError


def test_failing_chunk_names_first_failing_realization(monkeypatch):
    from aqwalk import RealizationError
    from aqwalk import ensemble as ens_module

    # row 5 of every chunk fails: one chunk of 12 rows, then two of 6
    _fail_norm_at(monkeypatch, 5)
    for rows in (12, 6):
        monkeypatch.setattr(ens_module, "_chunk_rows", lambda walk, rows=rows: rows)
        chunk = ens_module._chunks(12, 1, rows)[0]
        with pytest.raises(RealizationError, match=rf"realization {chunk.start + 5}:") as info:
            run_ensemble(EnsembleSpec(_checked_walk(), runs=12, base_seed=1), workers=1)
        assert info.value.index == chunk.start + 5 == 5
        assert info.value.original.row == 5


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the patched check reaches the child only through fork")
def test_failing_row_is_named_across_workers(monkeypatch, forks):
    from aqwalk import RealizationError
    from aqwalk import ensemble as ens_module

    # four chunks of 3: this process runs realizations 0-5, the child 6-11
    monkeypatch.setattr(ens_module, "_chunk_rows", lambda walk: 3)
    spec = EnsembleSpec(_checked_walk(), runs=12, base_seed=1)
    chunks = ens_module._chunks(12, 2, 3)
    _fail_norm_at(monkeypatch, 1)
    with pytest.raises(RealizationError, match=r"realization 1:") as info:
        run_ensemble(spec, workers=2)
    assert info.value.index == chunks[0].start + 1  # the caller's share wins over the child's
    # failing only in the child, the error and its row come back through the pipe
    parent = os.getpid()
    _fail_norm_at(monkeypatch, 1, here=lambda: os.getpid() != parent)
    with pytest.raises(RealizationError, match=r"realization 7:") as info:
        run_ensemble(spec, workers=2)
    assert info.value.index == chunks[2].start + 1 == 7
    assert isinstance(info.value.original, ValueError) and info.value.original.row == 1
    assert len(forks) == 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are forked")
def test_default_worker_count_is_the_cpus_this_process_may_run_on(monkeypatch, forks):
    from aqwalk import ensemble as ens_module

    # four chunks of 2 on a 4-CPU machine, of which this process may use one
    monkeypatch.setattr(ens_module, "_chunk_rows", lambda walk: 2)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    spec = EnsembleSpec(_walk(kind="temporal", steps=20), runs=8, base_seed=2)
    expected = run_ensemble(spec, workers=1)
    assert np.array_equal(run_ensemble(spec).mean["sigma"], expected.mean["sigma"])
    assert len(forks) == 0
    # without an affinity set the CPU count stands: this process and three children
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert np.array_equal(run_ensemble(spec).mean["sigma"], expected.mean["sigma"])
    assert len(forks) == 3


def test_errors_survive_pickling():
    import pickle

    from aqwalk import ConfigError, RealizationError

    err = pickle.loads(pickle.dumps(RealizationError(3, ValueError("boom"))))
    assert (err.index, str(err)) == (3, "realization 3: ValueError: boom")
    assert isinstance(err.original, ValueError)
    cfg = pickle.loads(pickle.dumps(ConfigError("walk.steps", "must be >= 1")))
    assert (cfg.field, str(cfg)) == ("walk.steps", "walk.steps: must be >= 1")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the patched sampler reaches the workers only through fork")
def test_failing_realization_is_tagged_across_workers(monkeypatch):
    from aqwalk import RealizationError
    from aqwalk import ensemble as ens_module

    real_sample = ens_module.sample_landscape

    def sample(disorder, size, index):
        if index in (7, 9):
            raise ValueError("synthetic sampling failure")
        return real_sample(disorder, size, index)

    monkeypatch.setattr(ens_module, "sample_landscape", sample)
    with pytest.raises(RealizationError, match=r"realization 7:") as info:
        run_ensemble(EnsembleSpec(_walk(), runs=12, base_seed=1), workers=2)
    assert info.value.index == 7


def test_chunking_does_not_change_results(monkeypatch):
    from aqwalk import ensemble as ens_module

    mixed = InitialState(np.array([0.5, 0.5, 0.5, 0.5]))
    full2d = WalkSpec(CoinSchedule(0.8, 0.01), mixed, 30, disorder=DisorderSpec("temporal"),
                      record=("negativity_particle_particle",))
    specs = [EnsembleSpec(_walk(particles=2, record=("sigma", "ipr", "distribution",
                                                     "negativity_particle_particle")),
                          runs=11, base_seed=8),
             EnsembleSpec(full2d, runs=11, base_seed=8)]
    for spec in specs:
        summaries = []
        for rows in (1, 4, 32):
            monkeypatch.setattr(ens_module, "_chunk_rows", lambda walk, rows=rows: rows)
            summaries.append(run_ensemble(spec, workers=1))
        for other in summaries[1:]:
            for key in summaries[0].mean:
                assert summaries[0].mean[key].tobytes() == other.mean[key].tobytes()
                assert summaries[0].stderr[key].tobytes() == other.stderr[key].tobytes()


def test_summaries_are_byte_identical_at_one_two_and_three_workers(monkeypatch, forks):
    # six chunks of two: at 3 workers this process runs 0-3 and two children 4-7 and 8-11, read in order
    from aqwalk import ensemble as ens_module

    monkeypatch.setattr(ens_module, "_chunk_rows", lambda walk: 2)
    spec = EnsembleSpec(_walk(particles=2, record=("sigma", "distribution", "negativity_particle_particle")),
                        runs=12, base_seed=4)
    summaries = [run_ensemble(spec, workers=w) for w in (1, 2, 3)]
    assert len(forks) == 3  # none at 1 worker, one child at 2, two at 3
    for other in summaries[1:]:
        for key in summaries[0].mean:
            assert summaries[0].mean[key].tobytes() == other.mean[key].tobytes()
            assert summaries[0].stderr[key].tobytes() == other.stderr[key].tobytes()


def test_chunks_cover_every_index_once():
    from aqwalk.ensemble import _chunks

    for runs in (1, 2, 7, 40, 100, 1000):
        for workers in (1, 2, 3, 8):
            for rows in (1, 5, 32):
                chunks = _chunks(runs, min(workers, runs), rows)
                assert [i for chunk in chunks for i in chunk] == list(range(runs))
                assert max(len(chunk) for chunk in chunks) <= rows
                assert len(chunks) % min(workers, runs) == 0 or len(chunks) == runs


def test_full2d_ensembles_chunk_by_bytes():
    from aqwalk.ensemble import _CHUNK_BYTES, _chunk_rows

    # a chunk holds the rows whose frames fit the budget, 32 (T + 1) bytes per family of lines
    mixed = InitialState(np.array([0.5, 0.5, 0.5, 0.5]))
    walk = WalkSpec(CoinSchedule(0.8, 0.01), mixed, 8, disorder=DisorderSpec("temporal"),
                    record=("negativity_particle_particle",))
    assert _chunk_rows(walk) == _CHUNK_BYTES // (2 * 32 * 9)
    # line walks: the 1p shape of fig12/fig18 and the x line of fig22
    assert _chunk_rows(_walk(kind="temporal", steps=200)) == _CHUNK_BYTES // (32 * 201) >= 32
    assert _chunk_rows(_walk(particles=2, steps=500)) == _CHUNK_BYTES // (32 * 501) >= 32
    forced = WalkSpec(CoinSchedule(0.8, 0.01), InitialState.basis_two_particle("uu"), 8,
                      disorder=DisorderSpec("temporal"), record=("negativity_particle_particle",),
                      layout="full2d")
    assert _chunk_rows(forced) == _chunk_rows(walk)
    assert _chunk_rows(dataclasses.replace(walk, steps=_CHUNK_BYTES)) == 1
    spec = EnsembleSpec(walk, runs=5, base_seed=2)
    serial, parallel = run_ensemble(spec, workers=1), run_ensemble(spec, workers=2)
    key = "negativity_particle_particle"
    assert serial.mean[key].tobytes() == parallel.mean[key].tobytes()
    assert serial.stderr[key].tobytes() == parallel.stderr[key].tobytes()
