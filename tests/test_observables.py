import math

import numpy as np
import pytest

from aqwalk import (
    CoinSchedule,
    Distribution1D,
    InitialState,
    WalkSpec,
    distribution,
    ipr,
    negativity_coin_position,
    negativity_particle_particle,
    reduced_particle_density,
    run_walk,
    sigma,
)
from aqwalk.observables import partial_transpose_second
from aqwalk.state import SpinorField1P, TwoParticleField

from oracles import amplitude_matrix, front_position, negativity_pt_loops, pp_negativity_loops

R = 1.0 / math.sqrt(2.0)


def _at_origin(amp, half):
    """A line over [-half, half] that holds amp at the origin and zero elsewhere."""
    line = np.zeros(2 * half + 1, dtype=complex)
    line[half] = amp
    return line


def test_distribution_one_step_symmetric():
    spec = WalkSpec(1, CoinSchedule(math.pi / 4, 0.0), InitialState.symmetric(), 1,
                    record=("distribution",))
    dist = run_walk(spec).distribution
    assert dist.p[0] == pytest.approx(0.5, abs=1e-15)  # x = -1
    assert dist.p[2] == pytest.approx(0.5, abs=1e-15)  # x = +1
    assert dist.total() == pytest.approx(1.0, abs=1e-14)


def test_distribution_localized_support():
    spec = WalkSpec(1, CoinSchedule(math.pi / 2, 0.0), InitialState.symmetric(), 200,
                    record=("distribution",))
    dist = run_walk(spec).distribution
    outside = np.abs(dist.x) > 1
    assert dist.p[outside].sum() < 1e-12


def test_distribution_bimodal_within_velocity_bound():
    spec = WalkSpec(1, CoinSchedule(math.pi / 4, 0.0), InitialState.symmetric(), 200,
                    record=("distribution",))
    dist = run_walk(spec).distribution
    peak_x = abs(int(dist.x[np.argmax(dist.p)]))
    assert peak_x <= 200 * math.cos(math.pi / 4)
    assert peak_x > 100  # peaks sit near the front, not at the origin


def test_sigma_two_point():
    dist = Distribution1D(np.array([-1, 0, 1]), np.array([0.5, 0.0, 0.5]))
    assert sigma(dist) == pytest.approx(1.0, abs=1e-15)


def test_sigma_point_mass():
    dist = Distribution1D(np.array([-1, 0, 1]), np.array([0.0, 1.0, 0.0]))
    assert sigma(dist) == 0.0


def test_ipr_values():
    point = Distribution1D(np.array([0]), np.array([1.0]))
    assert ipr(point) == pytest.approx(1.0)
    uniform = Distribution1D(np.arange(101), np.full(101, 1.0 / 101))
    assert ipr(uniform) == pytest.approx(1.0 / 101, rel=1e-12)


def test_front_position_simple():
    dist = Distribution1D(np.arange(-2, 3), np.array([0.005, 0.09, 0.81, 0.09, 0.005]))
    assert front_position(dist, 0.01) == 1
    assert front_position(dist, 0.5) == 0


def test_negativity_product_state_is_zero():
    state = SpinorField1P(3, _at_origin(R, 3), _at_origin(R, 3))
    assert negativity_coin_position(state) == pytest.approx(0.0, abs=1e-15)


def test_negativity_bell_like_state_is_half():
    up = np.zeros(3, dtype=complex)
    down = np.zeros(3, dtype=complex)
    up[0] = R  # |up> at x = -1
    down[2] = R  # |down> at x = +1
    state = SpinorField1P(1, up, down)
    result = negativity_coin_position(state)
    assert result == pytest.approx(0.5, abs=1e-12)


def test_negativity_walk_state_matches_dense_oracle():
    spec = WalkSpec(1, CoinSchedule(math.pi / 4, 0.0), InitialState.symmetric(), 10,
                    record=("distribution",))
    state = run_walk(spec).final_state
    fast = negativity_coin_position(state)
    loops = negativity_pt_loops(amplitude_matrix(state))
    assert fast == pytest.approx(loops, abs=1e-10)


def test_negativity_rejects_unnormalized():
    state = SpinorField1P(2, _at_origin(1.0, 2), _at_origin(0.0, 2))
    state.up *= 1.1
    with pytest.raises(ValueError, match="normalized"):
        negativity_coin_position(state)
    bad2 = TwoParticleField("xline", 2, 0, _at_origin(1.0, 2), None, None, _at_origin(0.0, 2))
    bad2.uu *= 1.1
    with pytest.raises(ValueError, match="normalized"):
        negativity_particle_particle(bad2)


def test_negativity_bound_along_walk():
    spec = WalkSpec(1, CoinSchedule(math.pi / 2, 0.03), InitialState.symmetric(), 300,
                    record=("negativity_coin_position",))
    series = run_walk(spec).negativity_coin_position
    assert series.max() <= 0.5 + 1e-12
    assert series.min() >= 0.0


def test_negativity_full2d_unsupported():
    state = TwoParticleField("full2d", 3, 3, _at_origin(1.0, 3), *(_at_origin(0.0, 3) for _ in range(3)))
    with pytest.raises(ValueError, match="full-2D"):
        negativity_coin_position(state)


def test_pp_negativity_initial_product_state():
    state = TwoParticleField("xline", 3, 0, _at_origin(1.0, 3), None, None, _at_origin(0.0, 3))
    assert negativity_particle_particle(state) == pytest.approx(0.0, abs=1e-15)


def _uu_walk(theta, steps):
    """Final state of the clean two-particle walk from uu at a fixed coin angle."""
    spec = WalkSpec(2, CoinSchedule(theta, 0.0), InitialState.basis_two_particle("uu"), steps, record=())
    return run_walk(spec).final_state


def test_pp_negativity_half_pi_always_zero():
    for steps in range(1, 51):
        assert negativity_particle_particle(_uu_walk(math.pi / 2, steps)) < 1e-12


def test_pp_negativity_one_step_matches_loop_oracle():
    # one step from |uu> puts the two branches on disjoint sites; tracing
    # position decoheres them, so the reduced state is separable
    state = _uu_walk(math.pi / 4, 1)
    value = negativity_particle_particle(state)
    zeros = np.zeros_like(state.uu)
    oracle = pp_negativity_loops(state.uu, zeros, zeros, state.dd)
    assert value == pytest.approx(oracle, abs=1e-12)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_pp_negativity_builds_after_overlap():
    state = _uu_walk(math.pi / 4, 2)
    value = negativity_particle_particle(state)
    zeros = np.zeros_like(state.uu)
    assert value == pytest.approx(pp_negativity_loops(state.uu, zeros, zeros, state.dd), abs=1e-12)
    # amplitude overlap at the origin: cos * sin^3 for two fixed-angle steps
    assert value == pytest.approx(math.cos(math.pi / 4) * math.sin(math.pi / 4) ** 3, abs=1e-12)


def test_pp_negativity_walk_series_matches_loops():
    spec = WalkSpec(2, CoinSchedule(math.pi / 2, 0.02), InitialState.basis_two_particle("uu"), 30,
                    record=("negativity_particle_particle",))
    result = run_walk(spec)
    state = result.final_state
    zeros = np.zeros_like(state.uu)
    expected = pp_negativity_loops(state.uu, zeros, zeros, state.dd)
    assert result.negativity_particle_particle[-1] == pytest.approx(expected, abs=1e-12)


def test_pp_negativity_symmetric_under_transposed_side():
    spec = WalkSpec(2, CoinSchedule(math.pi / 2, 0.01), InitialState.basis_two_particle("uu"), 25,
                    record=("distribution",))
    state = run_walk(spec).final_state
    rho = reduced_particle_density(state)
    pt2 = partial_transpose_second(rho)
    pt1 = rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    lam2 = np.linalg.eigvalsh(pt2)
    lam1 = np.linalg.eigvalsh(pt1)
    neg = lambda lam: float(-lam[lam < 0].sum())
    assert neg(lam1) == pytest.approx(neg(lam2), abs=1e-12)


def test_reduced_density_positive_unit_trace():
    spec = WalkSpec(2, CoinSchedule(math.pi / 2, 0.005), InitialState.basis_two_particle("uu"), 60,
                    record=("distribution",))
    state = run_walk(spec).final_state
    rho = reduced_particle_density(state)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert abs(np.trace(rho).imag) < 1e-14
    lam = np.linalg.eigvalsh(rho)
    assert lam.min() > -1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-14


def test_eigensolver_contract_on_partial_transpose():
    # residual check for the Hermitian solve used inside the negativity
    spec = WalkSpec(2, CoinSchedule(math.pi / 2, 0.01), InitialState.basis_two_particle("uu"), 40,
                    record=("distribution",))
    state = run_walk(spec).final_state
    pt = partial_transpose_second(reduced_particle_density(state))
    lam, vecs = np.linalg.eigh(pt)
    assert not np.iscomplexobj(lam)  # Hermitian solver returns real spectrum
    for i in range(4):
        residual = np.linalg.norm(pt @ vecs[:, i] - lam[i] * vecs[:, i])
        assert residual < 1e-8


def test_observables_mirror_invariant():
    spec = WalkSpec(1, CoinSchedule(0.9, 0.01), InitialState.one_particle(0.6, 0.8j), 40,
                    record=("distribution",))
    state = run_walk(spec).final_state
    mirrored = SpinorField1P(state.half_width, state.down[::-1].copy(), state.up[::-1].copy())
    d0, d1 = distribution(state), distribution(mirrored)
    assert np.allclose(d1.p, d0.p[::-1], atol=1e-15)
    assert sigma(d1) == pytest.approx(sigma(d0), abs=1e-12)
    assert ipr(d1) == pytest.approx(ipr(d0), abs=1e-12)
    n0 = negativity_coin_position(state)
    n1 = negativity_coin_position(mirrored)
    assert n1 == pytest.approx(n0, abs=1e-12)


def test_two_particle_coin_position_negativity_confined():
    spec = WalkSpec(2, CoinSchedule(math.pi / 2, 0.03), InitialState.basis_two_particle("uu"), 12,
                    record=("negativity_coin_position",))
    result = run_walk(spec)
    state = result.final_state
    loops = negativity_pt_loops(amplitude_matrix(state))
    assert result.negativity_coin_position[-1] == pytest.approx(loops, abs=1e-10)
    assert result.negativity_coin_position.max() <= 0.5 + 1e-12


def _random_line_state(rng, layout):
    """Random normalized one-line state on a random window, off-center origin."""
    half = int(rng.integers(0, 6))
    n = 2 * half + 1
    left, right = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    if rng.random() < 0.3:  # near-product: R almost parallel to L
        right = (0.3 - 0.7j) * left + 1e-7 * right
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo, n))
    for comp in (left, right):
        comp[:lo] = 0.0
        comp[hi + 1:] = 0.0
    scale = math.sqrt(np.sum(np.abs(left) ** 2) + np.sum(np.abs(right) ** 2))
    left, right = left / scale, right / scale
    x0, y0 = (int(v) for v in rng.integers(-half, half + 1, size=2))
    if layout == "1p":
        return SpinorField1P(half, left, right)
    if layout == "xline":
        return TwoParticleField("xline", half, 0, left, None, None, right, x0, y0)
    return TwoParticleField("yline", 0, half, None, right, left, None, x0, y0)


def test_closed_form_negativities_match_loop_oracles():
    rng = np.random.default_rng(1729)
    for _ in range(150):
        layout = str(rng.choice(["1p", "xline", "yline"]))
        state = _random_line_state(rng, layout)
        m = amplitude_matrix(state)
        assert abs(negativity_coin_position(state) - negativity_pt_loops(m)) < 1e-12
        if layout == "1p":
            with pytest.raises(ValueError, match="two-particle"):
                negativity_particle_particle(state)
        else:
            oracle = pp_negativity_loops(*(m[i] for i in range(4)))
            assert abs(negativity_particle_particle(state) - oracle) < 1e-12


@pytest.mark.parametrize("particles, coin, steps, confinement", [
    (1, [R, R], 200, "1p"),
    (2, [R, 0, 0, 1j * R], 60, "xline"),
    (2, [0, R, R, 0], 60, "yline"),
    (2, [0.5, 0.5, 0.5, 0.5], 40, "full2d"),
])
def test_norm_is_the_total_of_the_distribution(particles, coin, steps, confinement):
    # one |psi|^2 formula: norm() sums exactly what distribution records
    origin = 0 if particles == 1 else (0, 0)
    spec = WalkSpec(particles, CoinSchedule(math.pi / 4, 0.0), InitialState(np.array(coin), origin), steps,
                    record=("distribution",))
    state = run_walk(spec).final_state
    assert state.confinement == confinement
    assert state.norm() == distribution(state).total()
