import math

import numpy as np
import pytest

from aqwalk import (
    CoinSchedule,
    DisorderSpec,
    InitialState,
    PhaseLandscape,
    WalkSpec,
    run_walk,
    sample_landscape,
    theta_at,
)
from aqwalk.evolve import landscape_size

from oracles import evolve_dense

R = 1.0 / math.sqrt(2.0)


def _final_state(particles, init, theta0, steps, a=0.0, landscape=None, layout="auto"):
    """Final state of a walk recording nothing else; landscape None is the clean walk."""
    disorder = DisorderSpec("none" if landscape is None else landscape.kind)
    spec = WalkSpec(particles, CoinSchedule(theta0, a), init, steps, disorder=disorder, record=(), layout=layout)
    return run_walk(spec, landscape).final_state


def test_single_step_hand_values():
    # (1, 0) at the origin, theta = pi/4: up half goes left, down half right
    state = _final_state(1, InitialState.up(), math.pi / 4, 1)
    assert state.up[0] == pytest.approx(R, abs=1e-15)
    assert state.down[2] == pytest.approx(-1j * R, abs=1e-15)
    assert state.norm() == pytest.approx(1.0, abs=1e-15)


def test_zero_angle_is_pure_shift():
    init = InitialState.one_particle(0.6, 0.8j)
    state = _final_state(1, init, 0.0, 3)
    assert state.up[state.positions == -3] == 0.6
    assert state.down[state.positions == 3] == 0.8j


def test_half_pi_angle_stays_localized():
    spec = WalkSpec(1, CoinSchedule(math.pi / 2, 0.0), InitialState.symmetric(), 60,
                    record=("distribution",))
    dist = run_walk(spec).distribution
    inner = np.abs(dist.x) <= 1
    assert dist.p[inner].sum() == pytest.approx(1.0, abs=1e-12)


def test_two_particle_single_step_hand_values():
    state = _final_state(2, InitialState.basis_two_particle("uu"), math.pi / 4, 1)
    assert state.uu[0] == pytest.approx(R, abs=1e-15)
    assert state.dd[2] == pytest.approx(-1j * R, abs=1e-15)


def test_two_particle_identity_coin_shifts_ud_up_in_y():
    state = _final_state(2, InitialState.basis_two_particle("ud"), 0.0, 6)
    assert state.ud[12] == 1.0  # y = +6
    assert np.count_nonzero(state.ud) == 1
    assert np.count_nonzero(state.du) == 0


def test_two_particle_half_pi_no_spread():
    spec = WalkSpec(2, CoinSchedule(math.pi / 2, 0.0), InitialState.basis_two_particle("uu"), 40,
                    record=("distribution",))
    dist = run_walk(spec).distribution
    inner = np.abs(dist.x) <= 1
    assert dist.p[inner].sum() == pytest.approx(1.0, abs=1e-12)


def test_homogeneous_reduction_matches_dense_oracle():
    # a = 0, phi = 0, theta0 = pi/4, symmetric start, t = 100, pointwise
    steps = 100
    spec = WalkSpec(1, CoinSchedule(math.pi / 4, 0.0), InitialState.symmetric(), steps,
                    record=("distribution",))
    result = run_walk(spec)
    up, down = evolve_dense(R, R, steps, [math.pi / 4] * steps)
    assert np.max(np.abs(result.final_state.up - up)) < 1e-12
    assert np.max(np.abs(result.final_state.down - down)) < 1e-12


def test_accelerated_disordered_walk_matches_dense_oracle():
    # spatial disorder plus acceleration, t = 40, pointwise against the
    # dense matrix-on-statevector path
    steps = 40
    disorder = DisorderSpec("spatial", seed=97)
    spec = WalkSpec(1, CoinSchedule(1.1, 0.02), InitialState.one_particle(0.6, 0.8j), steps,
                    disorder=disorder, record=("distribution",))
    landscape = sample_landscape(disorder, 2 * steps + 1, 0)
    result = run_walk(spec, landscape)
    thetas = [theta_at(spec.schedule, t) for t in range(1, steps + 1)]
    up, down = evolve_dense(0.6, 0.8j, steps, thetas, [landscape.values] * steps)
    assert np.max(np.abs(result.final_state.up - up)) < 1e-12
    assert np.max(np.abs(result.final_state.down - down)) < 1e-12


def test_temporal_disorder_matches_dense_oracle():
    steps = 40
    disorder = DisorderSpec("temporal", seed=5)
    spec = WalkSpec(1, CoinSchedule(0.9, 0.0), InitialState.symmetric(), steps,
                    disorder=disorder, record=("distribution",))
    landscape = sample_landscape(disorder, steps, 0)
    result = run_walk(spec, landscape)
    up, down = evolve_dense(R, R, steps, [0.9] * steps, list(landscape.values))
    assert np.max(np.abs(result.final_state.up - up)) < 1e-12
    assert np.max(np.abs(result.final_state.down - down)) < 1e-12


def test_two_particle_line_equals_single_particle_with_doubled_phase():
    # uu/dd pair follows the one-particle recurrence with phi -> 2 phi
    steps = 50
    disorder = DisorderSpec("spatial", seed=11)
    landscape = sample_landscape(disorder, 2 * steps + 1, 0)
    doubled = PhaseLandscape("spatial", 2.0 * landscape.values)
    one = _final_state(1, InitialState.up(), math.pi / 3, steps, 0.01, doubled)
    two = _final_state(2, InitialState.basis_two_particle("uu"), math.pi / 3, steps, 0.01, landscape)
    assert np.max(np.abs(two.uu - one.up)) < 1e-12
    assert np.max(np.abs(two.dd - one.down)) < 1e-12


def test_confined_and_full2d_paths_agree():
    steps = 12
    line = _final_state(2, InitialState.basis_two_particle("uu"), math.pi / 4, steps, 0.02)
    full = _final_state(2, InitialState.basis_two_particle("uu"), math.pi / 4, steps, 0.02, layout="full2d")
    assert np.max(np.abs(full.ud)) == 0.0
    assert np.max(np.abs(full.du)) == 0.0
    assert np.max(np.abs(full.uu - line.uu)) < 1e-15
    assert np.max(np.abs(full.dd - line.dd)) < 1e-15


def test_light_cone_exact_zeros():
    steps = 30
    spec = WalkSpec(1, CoinSchedule(0.8, 0.0), InitialState.symmetric(), steps,
                    record=("distribution",))
    state = run_walk(spec).final_state
    # field is sized exactly to the cone, so just check norm stays inside
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_norm_preservation_random_configs():
    rng = np.random.default_rng(123)
    for _ in range(20):
        theta0 = rng.uniform(0.0, math.pi / 2)
        a = rng.uniform(0.0, 0.05)
        kind = rng.choice(["none", "spatial", "temporal"])
        steps = 300
        spec = WalkSpec(1, CoinSchedule(theta0, a), InitialState.symmetric(), steps,
                        disorder=DisorderSpec(kind, seed=int(rng.integers(1 << 32))),
                        record=("distribution",))
        state = run_walk(spec).final_state
        assert abs(state.norm() - 1.0) < 1e-10


def test_run_is_deterministic_bit_for_bit():
    spec = WalkSpec(1, CoinSchedule(math.pi / 2, 0.0), InitialState.symmetric(), 120,
                    disorder=DisorderSpec("spatial", seed=77), record=("sigma", "distribution"))
    a = run_walk(spec)
    b = run_walk(spec)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.distribution.p, b.distribution.p)


@pytest.mark.parametrize("coin, origin, layout", [
    ([1.0, 0.0], 1, "auto"),
    ([1.0, 0.0, 0.0, 0.0], (-2, 0), "auto"),  # an x line moves along x
    ([0.0, 1.0, 0.0, 0.0], (0, 3), "auto"),  # a y line moves along y
    ([0.5, 0.5, 0.5, 0.5], (0, 1), "auto"),  # a mixed start moves along both
    ([1.0, 0.0, 0.0, 0.0], (0, 1), "full2d"),
    ([1.0, 0.0, 0.0, 0.0], (0, 6), "auto"),  # the frozen y lies off the lattice
    ([1.0, 0.0], (0, 3), "auto"),  # one particle, two coordinates
    ([1.0, 0.0, 0.0, 0.0], 0, "auto"),  # two particles, one coordinate
    ([1.0, 0.0, 0.0, 0.0], (0, 0, 0), "auto"),
])
def test_walk_starts_at_zero_on_every_moving_axis(coin, origin, layout):
    init = InitialState(np.array(coin), origin)
    with pytest.raises(ValueError, match="origin"):
        WalkSpec(len(coin) // 2, CoinSchedule(0.5), init, 5, record=("distribution",), layout=layout)


@pytest.mark.parametrize("label, origin", [("uu", (0, 5)), ("dd", (0, -5)), ("ud", (5, 0)), ("du", (-3, 0))])
def test_confined_walk_may_start_off_its_frozen_axis(label, origin):
    spec = WalkSpec(2, CoinSchedule(0.5), InitialState.basis_two_particle(label, origin), 5, record=("distribution",))
    assert run_walk(spec).final_state.norm() == pytest.approx(1.0, abs=1e-12)


def test_rejects_unknown_record_key():
    with pytest.raises(ValueError, match="unknown record key"):
        WalkSpec(1, CoinSchedule(1.0, 0.0), InitialState.up(), 5, record=("entropy",))


def test_particle_particle_record_needs_two_particles():
    with pytest.raises(ValueError, match="particle_count = 2"):
        WalkSpec(1, CoinSchedule(1.0, 0.0), InitialState.up(), 5,
                 record=("negativity_particle_particle",))


def test_sample_landscape_contract():
    none = sample_landscape(DisorderSpec("none"), 10, 0)
    assert none.values is None

    a = sample_landscape(DisorderSpec("spatial", seed=1), 401, 0)
    b = sample_landscape(DisorderSpec("spatial", seed=1), 401, 1)
    assert a.values.shape == (401,)
    assert not np.array_equal(a.values, b.values)
    assert a.values.min() >= 0.0 and a.values.max() <= math.pi
    again = sample_landscape(DisorderSpec("spatial", seed=1), 401, 0)
    assert np.array_equal(a.values, again.values)


def test_sample_landscape_uniform_mean():
    # mean of n uniform draws is (lo+hi)/2 within 3 sigma / sqrt(n)
    n = 100_000
    values = sample_landscape(DisorderSpec("spatial", seed=3), n, 0).values
    expected = math.pi / 2.0
    tol = 3.0 * (math.pi / math.sqrt(12.0)) / math.sqrt(n)
    assert abs(values.mean() - expected) < tol


def test_landscape_size_matches_kind():
    spec_sp = WalkSpec(1, CoinSchedule(1.0, 0.0), InitialState.up(), 30,
                       disorder=DisorderSpec("spatial"), record=("sigma",))
    spec_tm = WalkSpec(1, CoinSchedule(1.0, 0.0), InitialState.up(), 30,
                       disorder=DisorderSpec("temporal"), record=("sigma",))
    assert landscape_size(spec_sp) == 61
    assert landscape_size(spec_tm) == 30


def test_mismatched_landscape_rejected():
    spec = WalkSpec(1, CoinSchedule(1.0, 0.0), InitialState.up(), 30,
                    disorder=DisorderSpec("spatial", seed=2), record=("sigma",))
    wrong = sample_landscape(DisorderSpec("spatial", seed=2), 11, 0)
    with pytest.raises(ValueError, match="landscape"):
        run_walk(spec, wrong)
    values = sample_landscape(DisorderSpec("spatial", seed=2), 61, 0).values.copy()
    values[30] = math.nan
    with pytest.raises(ValueError, match="landscape"):
        run_walk(spec, PhaseLandscape("spatial", values))


def test_full2d_spatial_disorder_unsupported():
    with pytest.raises(ValueError, match="confined"):
        spec = WalkSpec(2, CoinSchedule(1.0, 0.0), InitialState.basis_two_particle("uu"), 5,
                        disorder=DisorderSpec("spatial"), record=("distribution",), layout="full2d")
        run_walk(spec)


def test_full2d_temporal_disorder_supported():
    spec = WalkSpec(2, CoinSchedule(0.7, 0.0), InitialState.basis_two_particle("uu"), 10,
                    disorder=DisorderSpec("temporal", seed=4), record=("distribution",),
                    layout="full2d")
    result = run_walk(spec)
    assert result.final_state.norm() == pytest.approx(1.0, abs=1e-12)


def test_larger_acceleration_dominates_spread_pointwise():
    # the sigma(t) curves for two accelerations separate and stay separated
    curves = {}
    for a in (0.01, 0.03):
        spec = WalkSpec(1, CoinSchedule(math.pi / 2, a), InitialState.symmetric(), 200,
                        record=("sigma",))
        curves[a] = run_walk(spec).sigma
    diff = curves[0.03] - curves[0.01]
    assert np.all(diff[1:] > 0)  # separated from the very first step here


def test_clean_walk_distribution_is_mirror_symmetric():
    spec = WalkSpec(1, CoinSchedule(math.pi / 4, 0.0), InitialState.symmetric(), 80,
                    record=("distribution",))
    dist = run_walk(spec).distribution
    assert np.max(np.abs(dist.p - dist.p[::-1])) < 1e-14
