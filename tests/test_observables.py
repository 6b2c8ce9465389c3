import math

import numpy as np
import pytest

from aqwalk import (
    CoinSchedule,
    DisorderSpec,
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
from aqwalk.evolve import run_walk_batch
from aqwalk.observables import check_normalized, crossing_coin_density, lines, line_sums, observe, partial_transpose_second
from aqwalk.specs import families

from oracles import amplitude_matrix, amplitudes, front_position, negativity_pt_loops, pp_negativity_loops, state_of

R = 1.0 / math.sqrt(2.0)


def _at_origin(amp, half):
    """A line over [-half, half] that holds amp at the origin and zero elsewhere."""
    line = np.zeros(2 * half + 1, dtype=complex)
    line[half] = amp
    return line


def test_distribution_one_step_symmetric():
    spec = WalkSpec(CoinSchedule(math.pi / 4, 0.0), InitialState.symmetric(), 1,
                    record=("distribution",))
    p = run_walk(spec).series["distribution"]
    assert p[0] == pytest.approx(0.5, abs=1e-15)  # x = -1
    assert p[2] == pytest.approx(0.5, abs=1e-15)  # x = +1
    assert p.sum() == pytest.approx(1.0, abs=1e-14)


def test_distribution_localized_support():
    spec = WalkSpec(CoinSchedule(math.pi / 2, 0.0), InitialState.symmetric(), 200,
                    record=("distribution",))
    p = run_walk(spec).series["distribution"]
    outside = np.abs(np.arange(-200, 201)) > 1
    assert p[outside].sum() < 1e-12


def test_distribution_bimodal_within_velocity_bound():
    spec = WalkSpec(CoinSchedule(math.pi / 4, 0.0), InitialState.symmetric(), 200,
                    record=("distribution",))
    p = run_walk(spec).series["distribution"]
    peak_x = abs(int(np.arange(-200, 201)[np.argmax(p)]))
    assert peak_x <= 200 * math.cos(math.pi / 4)
    assert peak_x > 100  # peaks sit near the front, not at the origin


def test_sigma_two_point():
    assert sigma(np.array([0.5, 0.0, 0.5])) == pytest.approx(1.0, abs=1e-15)


def test_sigma_point_mass():
    assert sigma(np.array([0.0, 1.0, 0.0])) == 0.0


def test_ipr_values():
    assert ipr(np.array([1.0])) == pytest.approx(1.0)
    assert ipr(np.full(101, 1.0 / 101)) == pytest.approx(1.0 / 101, rel=1e-12)


def test_front_position_simple():
    p = np.array([0.005, 0.09, 0.81, 0.09, 0.005])  # over x = -2..2
    assert front_position(p, 0.01) == 1
    assert front_position(p, 0.5) == 0


def test_row_sums_of_a_batch_are_those_of_each_row_alone():
    # strided (sites, rows) planes, as the kernel's cone is: each row must reduce to the bits
    # it has alone, and to its sum in exact arithmetic up to 1e-15 of the sum of |terms|
    def reduce(planes):  # p, q, Re c, Im c and the IPR sum_x p(x)^2
        return (*line_sums(*planes)[:4], observe(("ipr",), [("1p", planes, None)])["ipr"])

    frame = np.random.default_rng(3).standard_normal((2, 2, 260, 10))
    planes = (*frame[0, :, :251, 1::2], *frame[1, :, 9:, 1::2])
    lr, li, rr, ri = planes
    p = lr * lr + li * li + rr * rr + ri * ri
    terms = ((lr * lr, li * li), (rr * rr, ri * ri), (lr * rr, li * ri), (li * rr, -lr * ri), (p * p,))
    sums = reduce(planes)
    for row in range(5):
        for got, single, parts in zip(sums, reduce([plane[:, row:row + 1] for plane in planes]), terms):
            assert got[row].tobytes() == single[0].tobytes()
            values = np.concatenate([part[:, row] for part in parts])
            assert abs(got[row] - math.fsum(values)) <= 1e-15 * math.fsum(np.abs(values))


def test_negativity_product_state_is_zero():
    state = state_of("1p", [(_at_origin(R, 3), _at_origin(R, 3))])
    assert negativity_coin_position(state) == pytest.approx(0.0, abs=1e-15)


def test_negativity_bell_like_state_is_half():
    up = np.zeros(3, dtype=complex)
    down = np.zeros(3, dtype=complex)
    up[0] = R  # |up> at x = -1
    down[2] = R  # |down> at x = +1
    state = state_of("1p", [(up, down)])
    result = negativity_coin_position(state)
    assert result == pytest.approx(0.5, abs=1e-12)


def test_negativity_walk_state_matches_dense_oracle():
    spec = WalkSpec(CoinSchedule(math.pi / 4, 0.0), InitialState.symmetric(), 10,
                    record=("distribution",))
    state = run_walk(spec).final_state
    fast = negativity_coin_position(state)
    loops = negativity_pt_loops(amplitude_matrix(state))
    assert fast == pytest.approx(loops, abs=1e-10)


def test_negativity_rejects_unnormalized():
    state = state_of("1p", [(_at_origin(1.0, 2), _at_origin(0.0, 2))])
    state["1p"][0] *= 1.1
    with pytest.raises(ValueError, match="normalized"):
        negativity_coin_position(state)
    bad2 = state_of("xline", [(_at_origin(1.0, 2), _at_origin(0.0, 2))])
    bad2["xline"][0] *= 1.1
    with pytest.raises(ValueError, match="normalized"):
        negativity_particle_particle(bad2)


def test_negativity_bound_along_walk():
    spec = WalkSpec(CoinSchedule(math.pi / 2, 0.03), InitialState.symmetric(), 300,
                    record=("negativity_coin_position",))
    series = run_walk(spec).series["negativity_coin_position"]
    assert series.max() <= 0.5 + 1e-12
    assert series.min() >= 0.0


def test_negativity_full2d_unsupported():
    state = state_of("full2d", [(_at_origin(1.0, 3), _at_origin(0.0, 3)), (_at_origin(0.0, 3), _at_origin(0.0, 3))])
    with pytest.raises(ValueError, match="full-2D"):
        negativity_coin_position(state)


def test_pp_negativity_initial_product_state():
    state = state_of("xline", [(_at_origin(1.0, 3), _at_origin(0.0, 3))])
    assert negativity_particle_particle(state) == pytest.approx(0.0, abs=1e-15)


def _uu_walk(theta, steps):
    """Final state of the clean two-particle walk from uu at a fixed coin angle."""
    spec = WalkSpec(CoinSchedule(theta, 0.0), InitialState.basis_two_particle("uu"), steps, record=())
    return run_walk(spec).final_state


def test_pp_negativity_half_pi_always_zero():
    for steps in range(1, 51):
        assert negativity_particle_particle(_uu_walk(math.pi / 2, steps)) < 1e-12


def test_pp_negativity_one_step_matches_loop_oracle():
    # one step from |uu> puts the two branches on disjoint sites; tracing
    # position decoheres them, so the reduced state is separable
    state = _uu_walk(math.pi / 4, 1)
    value = negativity_particle_particle(state)
    zeros = np.zeros_like(amplitudes(state)["uu"])
    oracle = pp_negativity_loops(amplitudes(state)["uu"], zeros, zeros, amplitudes(state)["dd"])
    assert value == pytest.approx(oracle, abs=1e-12)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_pp_negativity_builds_after_overlap():
    state = _uu_walk(math.pi / 4, 2)
    value = negativity_particle_particle(state)
    uu, dd = amplitudes(state)["uu"], amplitudes(state)["dd"]
    zeros = np.zeros_like(uu)
    assert value == pytest.approx(pp_negativity_loops(uu, zeros, zeros, dd), abs=1e-12)
    # amplitude overlap at the origin: cos * sin^3 for two fixed-angle steps
    assert value == pytest.approx(math.cos(math.pi / 4) * math.sin(math.pi / 4) ** 3, abs=1e-12)


def test_pp_negativity_walk_series_matches_loops():
    spec = WalkSpec(CoinSchedule(math.pi / 2, 0.02), InitialState.basis_two_particle("uu"), 30,
                    record=("negativity_particle_particle",))
    result = run_walk(spec)
    state = result.final_state
    zeros = np.zeros_like(amplitudes(state)["uu"])
    expected = pp_negativity_loops(amplitudes(state)["uu"], zeros, zeros, amplitudes(state)["dd"])
    assert result.series["negativity_particle_particle"][-1] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("steps", [6, 7])
@pytest.mark.parametrize("pad", [1, 4])
def test_each_line_is_read_at_its_own_origin(steps, pad):
    # a full-2D state's x line padded with zero slots below x = -T: its origin index is no longer
    # the y line's, and the density and the negativity must read each line at its own
    spec = WalkSpec(CoinSchedule(1.1, 0.02), InitialState(np.array([0.5, 0.5j, -0.5, 0.5])), steps,
                    record=("distribution",), layout="full2d")
    (x, x_planes, origin), y = lines(run_walk(spec).final_state)
    assert origin == y[2] == (None if steps % 2 else steps // 2)  # slot k is the site 2k - T
    padded_origin = None if origin is None else origin + pad
    padded = [(x, np.concatenate([np.zeros((4, pad, 1)), x_planes], axis=1), padded_origin), y]
    assert steps % 2 or padded[0][2] != y[2]
    rho, rho_padded = crossing_coin_density([(x, x_planes, origin), y]), crossing_coin_density(padded)
    assert np.max(np.abs(rho_padded - rho)) <= 1e-15
    assert steps % 2 or np.max(np.abs(rho[0, [0, 3]][:, [1, 2]])) > 1e-3  # the lines meet at x = 0
    key = "negativity_particle_particle"
    assert abs(observe((key,), padded)[key][0] - observe((key,), [(x, x_planes, origin), y])[key][0]) <= 1e-15


def test_a_total_that_is_not_one_fails_the_norm_check_nan_too(monkeypatch):
    from aqwalk import evolve

    with pytest.raises(ValueError, match="normalized, .* nan") as info:
        check_normalized(np.array([1.0, 1.0 + 1e-12, np.nan, 1.0]))
    assert info.value.row == 2
    # a phase whose factor e^{2i phi} overflows leaves NaN amplitudes in its row, which the check names
    # (the landscape check rejects such a phase first: see test_evolution)
    monkeypatch.setattr(evolve, "_check_landscape", lambda spec, landscape: None)
    spec = WalkSpec(CoinSchedule(math.pi / 4, 0.0), InitialState.basis_two_particle("uu"), 4,
                    disorder=DisorderSpec("spatial"), record=("negativity_particle_particle",))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="normalized") as info:
        run_walk_batch(spec, [np.zeros(9), np.full(9, 1e308)])
    assert info.value.row == 1


def test_pp_negativity_symmetric_under_transposed_side():
    spec = WalkSpec(CoinSchedule(math.pi / 2, 0.01), InitialState.basis_two_particle("uu"), 25,
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
    spec = WalkSpec(CoinSchedule(math.pi / 2, 0.005), InitialState.basis_two_particle("uu"), 60,
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
    spec = WalkSpec(CoinSchedule(math.pi / 2, 0.01), InitialState.basis_two_particle("uu"), 40,
                    record=("distribution",))
    state = run_walk(spec).final_state
    pt = partial_transpose_second(reduced_particle_density(state))
    lam, vecs = np.linalg.eigh(pt)
    assert not np.iscomplexobj(lam)  # Hermitian solver returns real spectrum
    for i in range(4):
        residual = np.linalg.norm(pt @ vecs[:, i] - lam[i] * vecs[:, i])
        assert residual < 1e-8


def test_observables_mirror_invariant():
    spec = WalkSpec(CoinSchedule(0.9, 0.01), InitialState(np.array([0.6, 0.8j])), 40,
                    record=("distribution",))
    state = run_walk(spec).final_state
    # x -> -x takes slot k to slot T - k and swaps L and R
    mirrored = {"1p": state["1p"][::-1, :, ::-1].copy()}
    d0, d1 = distribution(state), distribution(mirrored)
    assert np.allclose(d1, d0[::-1], atol=1e-15)
    assert sigma(d1) == pytest.approx(sigma(d0), abs=1e-12)
    assert ipr(d1) == pytest.approx(ipr(d0), abs=1e-12)
    n0 = negativity_coin_position(state)
    n1 = negativity_coin_position(mirrored)
    assert n1 == pytest.approx(n0, abs=1e-12)


def test_two_particle_coin_position_negativity_confined():
    spec = WalkSpec(CoinSchedule(math.pi / 2, 0.03), InitialState.basis_two_particle("uu"), 12,
                    record=("negativity_coin_position",))
    result = run_walk(spec)
    state = result.final_state
    loops = negativity_pt_loops(amplitude_matrix(state))
    assert result.series["negativity_coin_position"][-1] == pytest.approx(loops, abs=1e-10)
    assert result.series["negativity_coin_position"].max() <= 0.5 + 1e-12


def _random_line_state(rng, layout):
    """Random normalized one-line state on a random window."""
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
    return state_of(layout, [(left / scale, right / scale)])


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
def test_coin_gives_the_layout_and_particle_count(particles, coin, steps, confinement):
    spec = WalkSpec(CoinSchedule(math.pi / 4, 0.0), InitialState(np.array(coin)), steps,
                    record=("distribution",))
    assert spec.particle_count == particles
    state = run_walk(spec).final_state
    assert tuple(state) == families(confinement)
