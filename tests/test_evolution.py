import math
from dataclasses import replace

import numpy as np
import pytest

from aqwalk import (
    CoinSchedule,
    DisorderSpec,
    EnsembleSpec,
    InitialState,
    WalkSpec,
    distribution,
    lyapunov_localization_length,
    run_ensemble,
    run_walk,
    run_walk_batch,
    sample_landscape,
    theta_at,
)
from aqwalk.errors import ConfigError
from aqwalk.evolve import landscape_size
from aqwalk.specs import RECORD_KEYS

from oracles import amplitudes, evolve_dense
from test_line_kernel import assert_rows_are_single_runs

R = 1.0 / math.sqrt(2.0)


def _final_state(init, theta0, steps, a=0.0, landscape=None, layout="auto"):
    """Final state of a walk recording nothing else; landscape holds spatial phases, None for the clean walk."""
    disorder = DisorderSpec("none" if landscape is None else "spatial")
    spec = WalkSpec(CoinSchedule(theta0, a), init, steps, disorder=disorder, record=(), layout=layout)
    return run_walk(spec, landscape).final_state


def test_single_step_hand_values():
    # (1, 0) at the origin, theta = pi/4: up half goes left, down half right
    state = _final_state(InitialState.up(), math.pi / 4, 1)
    assert amplitudes(state)["up"][0] == pytest.approx(R, abs=1e-15)
    assert amplitudes(state)["down"][2] == pytest.approx(-1j * R, abs=1e-15)
    assert distribution(state).sum() == pytest.approx(1.0, abs=1e-15)


def test_zero_angle_is_pure_shift():
    init = InitialState(np.array([0.6, 0.8j]))
    state = _final_state(init, 0.0, 3)
    x = np.arange(-3, 4)
    assert amplitudes(state)["up"][x == -3] == 0.6
    assert amplitudes(state)["down"][x == 3] == 0.8j


def test_half_pi_angle_stays_localized():
    spec = WalkSpec(CoinSchedule(math.pi / 2, 0.0), InitialState.symmetric(), 60,
                    record=("distribution",))
    p = run_walk(spec).series["distribution"]
    inner = np.abs(np.arange(-60, 61)) <= 1
    assert p[inner].sum() == pytest.approx(1.0, abs=1e-12)


def test_two_particle_single_step_hand_values():
    state = _final_state(InitialState.basis_two_particle("uu"), math.pi / 4, 1)
    assert amplitudes(state)["uu"][0] == pytest.approx(R, abs=1e-15)
    assert amplitudes(state)["dd"][2] == pytest.approx(-1j * R, abs=1e-15)


def test_two_particle_identity_coin_shifts_ud_up_in_y():
    state = _final_state(InitialState.basis_two_particle("ud"), 0.0, 6)
    assert amplitudes(state)["ud"][12] == 1.0  # y = +6
    assert np.count_nonzero(amplitudes(state)["ud"]) == 1
    assert np.count_nonzero(amplitudes(state)["du"]) == 0


def test_two_particle_half_pi_no_spread():
    spec = WalkSpec(CoinSchedule(math.pi / 2, 0.0), InitialState.basis_two_particle("uu"), 40,
                    record=("distribution",))
    p = run_walk(spec).series["distribution"]
    inner = np.abs(np.arange(-40, 41)) <= 1
    assert p[inner].sum() == pytest.approx(1.0, abs=1e-12)


def test_homogeneous_reduction_matches_dense_oracle():
    # a = 0, phi = 0, theta0 = pi/4, symmetric start, t = 100, pointwise
    steps = 100
    spec = WalkSpec(CoinSchedule(math.pi / 4, 0.0), InitialState.symmetric(), steps,
                    record=("distribution",))
    result = run_walk(spec)
    up, down = evolve_dense(R, R, steps, [math.pi / 4] * steps)
    assert np.max(np.abs(amplitudes(result.final_state)["up"] - up)) < 1e-12
    assert np.max(np.abs(amplitudes(result.final_state)["down"] - down)) < 1e-12


def test_accelerated_disordered_walk_matches_dense_oracle():
    # spatial disorder plus acceleration, t = 40, pointwise against the
    # dense matrix-on-statevector path
    steps = 40
    disorder = DisorderSpec("spatial", seed=97)
    spec = WalkSpec(CoinSchedule(1.1, 0.02), InitialState(np.array([0.6, 0.8j])), steps,
                    disorder=disorder, record=("distribution",))
    landscape = sample_landscape(disorder, 2 * steps + 1, 0)
    result = run_walk(spec, landscape)
    thetas = [theta_at(spec.schedule, t) for t in range(1, steps + 1)]
    up, down = evolve_dense(0.6, 0.8j, steps, thetas, [landscape] * steps)
    assert np.max(np.abs(amplitudes(result.final_state)["up"] - up)) < 1e-12
    assert np.max(np.abs(amplitudes(result.final_state)["down"] - down)) < 1e-12


def test_temporal_disorder_matches_dense_oracle():
    steps = 40
    disorder = DisorderSpec("temporal", seed=5)
    spec = WalkSpec(CoinSchedule(0.9, 0.0), InitialState.symmetric(), steps,
                    disorder=disorder, record=("distribution",))
    landscape = sample_landscape(disorder, steps, 0)
    result = run_walk(spec, landscape)
    up, down = evolve_dense(R, R, steps, [0.9] * steps, list(landscape))
    assert np.max(np.abs(amplitudes(result.final_state)["up"] - up)) < 1e-12
    assert np.max(np.abs(amplitudes(result.final_state)["down"] - down)) < 1e-12


def test_two_particle_line_equals_single_particle_with_doubled_phase():
    # uu/dd pair follows the one-particle recurrence with phi -> 2 phi
    steps = 50
    disorder = DisorderSpec("spatial", seed=11)
    landscape = sample_landscape(disorder, 2 * steps + 1, 0)
    one = _final_state(InitialState.up(), math.pi / 3, steps, 0.01, 2.0 * landscape)
    two = _final_state(InitialState.basis_two_particle("uu"), math.pi / 3, steps, 0.01, landscape)
    assert np.max(np.abs(amplitudes(two)["uu"] - amplitudes(one)["up"])) < 1e-12
    assert np.max(np.abs(amplitudes(two)["dd"] - amplitudes(one)["down"])) < 1e-12


def test_confined_and_full2d_paths_agree():
    steps = 12
    line = _final_state(InitialState.basis_two_particle("uu"), math.pi / 4, steps, 0.02)
    full = _final_state(InitialState.basis_two_particle("uu"), math.pi / 4, steps, 0.02, layout="full2d")
    assert np.max(np.abs(amplitudes(full)["ud"])) == 0.0
    assert np.max(np.abs(amplitudes(full)["du"])) == 0.0
    assert np.max(np.abs(amplitudes(full)["uu"] - amplitudes(line)["uu"])) < 1e-15
    assert np.max(np.abs(amplitudes(full)["dd"] - amplitudes(line)["dd"])) < 1e-15


def test_light_cone_exact_zeros():
    steps = 30
    spec = WalkSpec(CoinSchedule(0.8, 0.0), InitialState.symmetric(), steps,
                    record=("distribution",))
    state = run_walk(spec).final_state
    # field is sized exactly to the cone, so just check norm stays inside
    assert distribution(state).sum() == pytest.approx(1.0, abs=1e-12)


def test_norm_preservation_random_configs():
    rng = np.random.default_rng(123)
    for _ in range(20):
        theta0 = rng.uniform(0.0, math.pi / 2)
        a = rng.uniform(0.0, 0.05)
        kind = rng.choice(["none", "spatial", "temporal"])
        steps = 300
        spec = WalkSpec(CoinSchedule(theta0, a), InitialState.symmetric(), steps,
                        disorder=DisorderSpec(kind, seed=int(rng.integers(1 << 32))),
                        record=("distribution",))
        state = run_walk(spec).final_state
        assert abs(distribution(state).sum() - 1.0) < 1e-10


def test_run_is_deterministic_bit_for_bit():
    spec = WalkSpec(CoinSchedule(math.pi / 2, 0.0), InitialState.symmetric(), 120,
                    disorder=DisorderSpec("spatial", seed=77), record=("sigma", "distribution"))
    a = run_walk(spec)
    b = run_walk(spec)
    assert np.array_equal(a.series["sigma"], b.series["sigma"])
    assert np.array_equal(a.series["distribution"], b.series["distribution"])


@pytest.mark.parametrize("steps", [400, 401])
@pytest.mark.parametrize("kind", ["spatial", "temporal"])
@pytest.mark.parametrize("slots", [(0, 1), (0, 3), (2, 1)], ids=["1p", "xline", "yline"])
def test_long_walk_rows_are_bit_identical_to_single_runs(slots, kind, steps):
    # rows of up to 2 (T + 1) values per sum, and cones starting on both parities of lattice site
    coin = np.zeros(2 if slots == (0, 1) else 4, dtype=complex)
    coin[list(slots)] = 0.6, 0.8j
    keys = [k for k in RECORD_KEYS if len(coin) == 4 or k != "negativity_particle_particle"]
    spec = WalkSpec(CoinSchedule(math.pi / 3, 0.003), InitialState(coin), steps,
                    disorder=DisorderSpec(kind, seed=19), record=keys)
    assert_rows_are_single_runs(spec, [sample_landscape(spec.disorder, landscape_size(spec), i) for i in range(3)])


def test_rejects_unknown_record_key():
    with pytest.raises(ValueError, match="unknown record key"):
        WalkSpec(CoinSchedule(1.0, 0.0), InitialState.up(), 5, record=("entropy",))


def test_rejects_a_record_key_listed_twice():
    # a result holds one series per key, so a repeated key would be written twice
    with pytest.raises(ValueError, match="'sigma' is listed twice"):
        WalkSpec(CoinSchedule(1.0, 0.0), InitialState.up(), 5, record=("sigma", "distribution", "sigma"))


def test_spec_error_is_a_value_error_naming_its_field():
    # library callers that catch ValueError keep working; config adds the path to .field
    with pytest.raises(ValueError, match="must be >= 1, got 0") as info:
        WalkSpec(CoinSchedule(1.0, 0.0), InitialState.up(), 0)
    assert info.value.field == "steps"
    # counts are integers: a float or a bool is a ConfigError on its field, not a later numpy TypeError
    for steps in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="expected an integer") as info:
            WalkSpec(CoinSchedule(1.0, 0.0), InitialState.up(), steps)
        assert info.value.field == "steps"
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="expected an integer") as info:
            DisorderSpec("spatial", seed=seed)
        assert info.value.field == "seed"


_SPATIAL = DisorderSpec("spatial")
_ENSEMBLE = EnsembleSpec(WalkSpec(CoinSchedule(1.0, 0.0), InitialState.up(), 3, disorder=_SPATIAL), runs=2, base_seed=1)


@pytest.mark.parametrize("call, field", [
    (lambda: sample_landscape(_SPATIAL, 5, True), "realization_index"),
    (lambda: sample_landscape(_SPATIAL, 5, 1.5), "realization_index"),
    (lambda: sample_landscape(_SPATIAL, 5, np.int64(1)), "realization_index"),
    (lambda: sample_landscape(_SPATIAL, 5.0, 0), "size"),
    (lambda: sample_landscape(DisorderSpec("none"), True, 0), "size"),
    (lambda: run_ensemble(_ENSEMBLE, workers=2.0), "workers"),
    (lambda: run_ensemble(_ENSEMBLE, workers=True), "workers"),
    (lambda: lyapunov_localization_length(_SPATIAL, 0.6, 0.3, 2000.0), "chain_length"),
    (lambda: lyapunov_localization_length(_SPATIAL, 0.6, 0.3, 2000, True), "realization_index"),
], ids=["index-bool", "index-float", "index-numpy", "size-float", "size-bool-clean", "workers-float",
        "workers-bool", "chain-float", "chain-index-bool"])
def test_integer_arguments_follow_the_spec_rule(call, field):
    # like a spec's fields: a bool, a float or a numpy integer is a ConfigError naming the argument
    with pytest.raises(ConfigError, match="expected an integer") as info:
        call()
    assert info.value.field == field


def test_particle_particle_record_needs_two_particles():
    with pytest.raises(ValueError, match="particle_count = 2"):
        WalkSpec(CoinSchedule(1.0, 0.0), InitialState.up(), 5,
                 record=("negativity_particle_particle",))


def test_sample_landscape_contract():
    assert sample_landscape(DisorderSpec("none"), 10, 0) is None

    a = sample_landscape(DisorderSpec("spatial", seed=1), 401, 0)
    b = sample_landscape(DisorderSpec("spatial", seed=1), 401, 1)
    assert a.shape == (401,)
    assert not np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= math.pi
    again = sample_landscape(DisorderSpec("spatial", seed=1), 401, 0)
    assert np.array_equal(a, again)


def test_the_widest_phase_range_is_drawn_and_applied():
    # a phase factor takes up to e^{2i phi}: bounds of 8e307 keep 2 |phi| finite, 1e308 does not
    disorder = DisorderSpec("spatial", -8e307, 8e307, seed=2)
    spec = WalkSpec(CoinSchedule(1.0, 0.0), InitialState.basis_two_particle("uu"), 6, disorder=disorder,
                    record=("distribution", "negativity_particle_particle"))
    series = run_walk(spec).series
    assert np.isfinite(series["negativity_particle_particle"]).all()
    assert series["distribution"].sum() == pytest.approx(1.0, abs=1e-12)
    for bounds, field in [((-1e308, 0.0), "phase_min"), ((0.0, 1e308), "phase_max"), ((-1e308, 1e308), "phase_max")]:
        with pytest.raises(ValueError, match="twice it") as info:
            DisorderSpec("spatial", *bounds)
        assert info.value.field == field


def test_sample_landscape_uniform_mean():
    # mean of n uniform draws is (lo+hi)/2 within 3 sigma / sqrt(n)
    n = 100_000
    values = sample_landscape(DisorderSpec("spatial", seed=3), n, 0)
    expected = math.pi / 2.0
    tol = 3.0 * (math.pi / math.sqrt(12.0)) / math.sqrt(n)
    assert abs(values.mean() - expected) < tol


def test_landscape_size_matches_kind():
    spec_sp = WalkSpec(CoinSchedule(1.0, 0.0), InitialState.up(), 30,
                       disorder=DisorderSpec("spatial"), record=("sigma",))
    spec_tm = WalkSpec(CoinSchedule(1.0, 0.0), InitialState.up(), 30,
                       disorder=DisorderSpec("temporal"), record=("sigma",))
    assert landscape_size(spec_sp) == 61
    assert landscape_size(spec_tm) == 30


def test_mismatched_landscape_rejected():
    spec = WalkSpec(CoinSchedule(1.0, 0.0), InitialState.up(), 30,
                    disorder=DisorderSpec("spatial", seed=2), record=("sigma",))
    wrong = sample_landscape(DisorderSpec("spatial", seed=2), 11, 0)
    with pytest.raises(ValueError, match="landscape"):
        run_walk(spec, wrong)
    values = sample_landscape(DisorderSpec("spatial", seed=2), 61, 0)
    values[30] = math.nan
    with pytest.raises(ValueError, match="landscape"):
        run_walk(spec, values)
    # a complex landscape would lose its imaginary part, and a 2-D one would fail inside the step
    values = sample_landscape(DisorderSpec("spatial", seed=2), 61, 0)
    for bad in (values + 0.5j, np.stack([values, values], axis=1)):
        with pytest.raises(ValueError, match="a landscape must be a 1-D array of 61 real phases"):
            run_walk(spec, bad)


def test_landscape_phase_whose_double_overflows_rejected():
    # e^{2i phi} of such a phase is NaN: a distribution-only batch would return NaN with no error
    spec = WalkSpec(CoinSchedule(math.pi / 4, 0.0), InitialState.basis_two_particle("uu"), 4,
                    disorder=DisorderSpec("spatial"), record=("distribution",))
    with pytest.raises(ValueError, match="twice"):
        run_walk_batch(spec, [np.zeros(9), np.full(9, 1e308)])
    # the largest phase whose double is finite still walks, and stays normalized
    series, _ = run_walk_batch(spec, [np.zeros(9), np.full(9, np.finfo(float).max / 2)])
    assert np.all(np.isfinite(series["distribution"]))
    assert np.allclose(series["distribution"].sum(axis=1), 1.0)


def test_landscape_is_none_exactly_for_a_clean_walk():
    # phases given to a clean walk would be applied, and a None row of a
    # disordered batch would run clean
    clean = WalkSpec(CoinSchedule(1.0, 0.0), InitialState.up(), 30, record=("sigma",))
    phases = sample_landscape(DisorderSpec("spatial", seed=2), landscape_size(clean), 0)
    with pytest.raises(ValueError, match="takes no landscape"):
        run_walk(clean, phases)
    spatial = replace(clean, disorder=DisorderSpec("spatial", seed=2))
    with pytest.raises(ValueError, match="needs a landscape"):
        run_walk_batch(spatial, [phases, None])
    with pytest.raises(ValueError, match="needs a landscape"):
        run_walk(spatial, None)
    # only a landscape left out draws realization 0
    assert run_walk(spatial).series["sigma"].tobytes() == run_walk(spatial, phases).series["sigma"].tobytes()


def test_full2d_spatial_disorder_unsupported():
    with pytest.raises(ValueError, match="confined"):
        spec = WalkSpec(CoinSchedule(1.0, 0.0), InitialState.basis_two_particle("uu"), 5,
                        disorder=DisorderSpec("spatial"), record=("distribution",), layout="full2d")
        run_walk(spec)


def test_full2d_temporal_disorder_supported():
    spec = WalkSpec(CoinSchedule(0.7, 0.0), InitialState.basis_two_particle("uu"), 10,
                    disorder=DisorderSpec("temporal", seed=4), record=("distribution",),
                    layout="full2d")
    result = run_walk(spec)
    assert distribution(result.final_state).sum() == pytest.approx(1.0, abs=1e-12)


def test_larger_acceleration_dominates_spread_pointwise():
    # the sigma(t) curves for two accelerations separate and stay separated
    curves = {}
    for a in (0.01, 0.03):
        spec = WalkSpec(CoinSchedule(math.pi / 2, a), InitialState.symmetric(), 200,
                        record=("sigma",))
        curves[a] = run_walk(spec).series["sigma"]
    diff = curves[0.03] - curves[0.01]
    assert np.all(diff[1:] > 0)  # separated from the very first step here


def test_clean_walk_distribution_is_mirror_symmetric():
    spec = WalkSpec(CoinSchedule(math.pi / 4, 0.0), InitialState.symmetric(), 80,
                    record=("distribution",))
    p = run_walk(spec).series["distribution"]
    assert np.max(np.abs(p - p[::-1])) < 1e-14
