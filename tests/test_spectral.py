import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aqwalk import (
    CoinSchedule,
    DisorderSpec,
    InitialState,
    NonConvergenceError,
    SingularParameterError,
    WalkSpec,
    dispersion_omega,
    group_velocity,
    lyapunov_localization_length,
    run_walk,
    transfer_matrix_1p,
    transfer_matrix_2p,
)

from oracles import dispersion_residual, golden_section_max, lyapunov_loop


def test_dispersion_massless_limit():
    # theta0 = 0: omega = +-kappa
    for kappa in (0.3, 1.0, 2.5):
        plus, minus = dispersion_omega(0.0, kappa)
        assert plus == pytest.approx(kappa, abs=1e-14)
        assert minus == pytest.approx(-kappa, abs=1e-14)


def test_dispersion_flat_band():
    for kappa in (0.0, 0.7, 3.0):
        plus, minus = dispersion_omega(math.pi / 2, kappa)
        assert plus == pytest.approx(math.pi / 2, abs=1e-14)
        assert minus == pytest.approx(-math.pi / 2, abs=1e-14)


def test_dispersion_quarter_angle_value():
    plus, _ = dispersion_omega(math.pi / 4, math.pi / 3)
    assert plus == pytest.approx(math.acos(math.cos(math.pi / 4) * math.cos(math.pi / 3)), abs=1e-14)


@pytest.mark.parametrize("variant", ["single", "two_particle_xline", "two_particle_yline"])
def test_dispersion_back_substitution(variant):
    rng = np.random.default_rng(31)
    for _ in range(200):
        theta0 = rng.uniform(0.0, math.pi / 2)
        kappa = rng.uniform(-math.pi, math.pi)
        phi = rng.uniform(0.0, math.pi)
        for omega in dispersion_omega(theta0, kappa, phi, variant):
            assert abs(dispersion_residual(theta0, kappa, omega, phi, variant)) < 1e-12


def test_group_velocity_peak_value():
    for theta0 in (0.3, math.pi / 4, 1.2):
        assert group_velocity(theta0, math.pi / 2) == pytest.approx(math.cos(theta0), abs=1e-14)


def test_group_velocity_flat_band_zero():
    for kappa in (0.1, 1.0, 2.0):
        assert group_velocity(math.pi / 2, kappa) == pytest.approx(0.0, abs=1e-14)


def test_group_velocity_bounded_by_cos():
    rng = np.random.default_rng(8)
    for _ in range(300):
        theta0 = rng.uniform(0.05, math.pi / 2)
        kappa = rng.uniform(-math.pi, math.pi)
        phi = rng.uniform(0.0, math.pi)
        assert abs(group_velocity(theta0, kappa, phi)) <= math.cos(theta0) + 1e-12


def test_group_velocity_singular_input():
    with pytest.raises(SingularParameterError):
        group_velocity(0.0, 0.0)


def test_max_group_velocity_against_golden_section():
    # group_velocity depends on kappa through kappa + phi/2 and peaks at
    # kappa* = pi/2 - phi/2 with v = cos(theta0).  The objective is flat to
    # machine precision within ~1e-8 of the peak, so value-comparison
    # maximizers localize the argmax to ~1e-7 at best; the peak value
    # itself is quadratic-accurate (well below 1e-9)
    theta0 = math.pi / 4
    for phi in (0.0, 0.7):
        k_gold, v_gold = golden_section_max(lambda k: group_velocity(theta0, k, phi),
                                            1e-9 - phi / 2, math.pi - 1e-9 - phi / 2)
        assert k_gold == pytest.approx(math.pi / 2 - phi / 2, abs=1e-6)
        assert v_gold == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)


@pytest.mark.parametrize("theta0, a", [(math.pi / 4, 0.0), (math.pi / 4, 0.005), (1.0, 0.02), (1.2, 0.1)])
def test_group_velocity_predicts_the_spread_of_an_accelerated_walk(theta0, a):
    # A clean walk conserves kappa, and under a slow schedule each mode stays in its band, moving by
    # X(kappa) = sum_s v_g(theta_s, kappa); the two bands of one kappa move in opposite directions, so
    # <x^2>(T) ~ mean over kappa of X^2.  theta_s is taken half a step late, theta0 exp(-a (s + 1/2)):
    # an empirical offset (relative error 6e-6 to 7e-5 here, 1.0e-3 to 1.5e-3 with theta0 exp(-a s)).
    # theta_s is computed here, not by theta_at, so that a schedule defect moves only the walk side.
    steps, count = 500, 4000
    kappa = -math.pi + (np.arange(count) + 0.5) * (2 * math.pi / count)
    shift = sum(group_velocity(theta0 * math.exp(-a * (s + 0.5)), kappa) for s in range(1, steps + 1))
    p = run_walk(WalkSpec(CoinSchedule(theta0, a), InitialState.symmetric(), steps,
                          record=("distribution",))).series["distribution"]
    x = np.arange(-steps, steps + 1)
    assert np.dot(x ** 2, p) == pytest.approx(np.mean(shift ** 2), rel=3e-4)


def test_transfer_1p_zero_angle_limit():
    m = transfer_matrix_1p(1e-14, 0.0, 0.8)
    assert np.allclose(m, np.diag([np.exp(0.8j), np.exp(-0.8j)]), atol=1e-12)


def test_transfer_1p_determinant_law():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        theta = rng.uniform(0.05, 1.45)
        phi = rng.uniform(0.0, math.pi)
        omega = rng.uniform(-math.pi, math.pi)
        det = np.linalg.det(transfer_matrix_1p(theta, phi, omega))
        assert abs(abs(det) - 1.0) < 1e-12
        assert abs(det - np.exp(-1j * phi)) < 1e-12


def test_transfer_1p_singular_at_half_pi():
    with pytest.raises(SingularParameterError):
        transfer_matrix_1p(math.pi / 2, 0.0, 0.5)


def test_transfer_1p_allowed_band_is_unimodular():
    theta = math.pi / 4
    kappa = math.pi / 3
    omega, _ = dispersion_omega(theta, kappa)
    evals = np.linalg.eigvals(transfer_matrix_1p(theta, 0.0, omega))
    assert np.allclose(np.abs(evals), 1.0, atol=1e-12)
    assert np.allclose(sorted(np.angle(evals)), sorted([-kappa, kappa]), atol=1e-12)


def test_transfer_1p_bloch_propagation():
    theta = math.pi / 4
    kappa = math.pi / 3
    omega, _ = dispersion_omega(theta, kappa)
    t = transfer_matrix_1p(theta, 0.0, omega)
    evals, evecs = np.linalg.eig(t)
    i = int(np.argmin(np.abs(evals - np.exp(1j * kappa))))
    v = evecs[:, i]
    n = 9
    prop = np.linalg.matrix_power(t, n) @ v
    assert np.max(np.abs(prop - np.exp(1j * kappa * n) * v)) < 1e-8


def test_transfer_2p_zero_angle_limit():
    m = transfer_matrix_2p(1e-14, 0.0, 0.8)
    expected = np.diag([np.exp(0.8j), np.exp(-0.8j), np.exp(0.8j), np.exp(-0.8j)])
    assert np.allclose(m, expected, atol=1e-12)


def test_transfer_2p_block_structure_and_determinant():
    rng = np.random.default_rng(12)
    off_block = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]
    for _ in range(1000):
        theta = rng.uniform(0.05, 1.45)
        phi = rng.uniform(0.0, math.pi)
        omega = rng.uniform(-math.pi, math.pi)
        m = transfer_matrix_2p(theta, phi, omega)
        for row, col in off_block:
            assert m[row, col] == 0.0
        det = np.linalg.det(m)
        assert abs(abs(det) - 1.0) < 1e-12
        assert abs(det - np.exp(-2j * phi)) < 1e-12


def test_transfer_2p_singular_at_half_pi():
    with pytest.raises(SingularParameterError):
        transfer_matrix_2p(math.pi / 2, 0.1, 0.5)


def test_transfer_2p_blocks_unimodular_on_their_dispersion_curves():
    # the uu/dd block propagates at the x-line dispersion frequency, the
    # ud/du block at the y-line one; in the allowed band both are Bloch
    # factors of unit modulus
    rng = np.random.default_rng(64)
    for _ in range(50):
        theta = float(rng.uniform(0.1, 1.4))
        phi = float(rng.uniform(0.0, math.pi))
        kappa = float(rng.uniform(-math.pi, math.pi))

        omega_x, _ = dispersion_omega(theta, kappa, phi, "two_particle_xline")
        m = transfer_matrix_2p(theta, phi, omega_x)
        block_uu_dd = m[np.ix_([0, 3], [0, 3])]
        assert np.allclose(np.abs(np.linalg.eigvals(block_uu_dd)), 1.0, atol=1e-10)

        omega_y, _ = dispersion_omega(theta, kappa, phi, "two_particle_yline")
        m = transfer_matrix_2p(theta, phi, omega_y)
        block_ud_du = m[np.ix_([1, 2], [1, 2])]
        assert np.allclose(np.abs(np.linalg.eigvals(block_ud_du)), 1.0, atol=1e-10)


def test_lyapunov_clean_chain_vanishes():
    theta = math.pi / 4
    omega, _ = dispersion_omega(theta, math.pi / 3)
    small = lyapunov_localization_length(DisorderSpec("none"), theta, omega, 20_000)
    big = lyapunov_localization_length(DisorderSpec("none"), theta, omega, 100_000)
    assert abs(big.gamma) < abs(small.gamma) + 1e-6
    assert abs(big.gamma) < 1e-4
    assert big.localization_length > 1e3


def test_lyapunov_disorder_positive_and_seed_stable():
    theta = math.pi / 2 - 0.2
    a = lyapunov_localization_length(DisorderSpec("spatial", seed=1), theta, 0.5, 200_000)
    b = lyapunov_localization_length(DisorderSpec("spatial", seed=2), theta, 0.5, 200_000)
    assert a.gamma > 0.0
    assert abs(a.gamma - b.gamma) / a.gamma < 0.05
    assert a.localization_length == pytest.approx(1.0 / a.gamma)
    # weaker localization, 0 < gamma < 1 (about 0.275): the length is still 1/gamma
    c = lyapunov_localization_length(DisorderSpec("spatial", seed=0), 1.0, 0.5, 200_000)
    assert 0.0 < c.gamma < 1.0
    assert c.localization_length == pytest.approx(1.0 / c.gamma)


def test_lyapunov_chain_doubling_converges():
    theta = math.pi / 2 - 0.2
    a = lyapunov_localization_length(DisorderSpec("spatial", seed=5), theta, 0.5, 100_000)
    b = lyapunov_localization_length(DisorderSpec("spatial", seed=5), theta, 0.5, 200_000)
    assert abs(a.gamma - b.gamma) / b.gamma < 0.02


def test_lyapunov_rejects_short_chain_and_temporal():
    with pytest.raises(ValueError, match="chain_length"):
        lyapunov_localization_length(DisorderSpec("spatial"), 1.0, 0.5, 100)
    with pytest.raises(ValueError, match="spatial"):
        lyapunov_localization_length(DisorderSpec("temporal"), 1.0, 0.5, 5000)


def test_lyapunov_nonconvergence_reported():
    # at the minimum chain length the two halves of a strongly disordered
    # chain fluctuate well beyond the 1% band; this seed trips the check
    with pytest.raises(NonConvergenceError):
        lyapunov_localization_length(DisorderSpec("spatial", seed=0), 1.45, 0.3, 1000)


# chain lengths around the 16-site blocks, the 2^14-site segments and the
# middle of the chain: odd, one short of or one past a multiple, exact halves
EDGE_LENGTHS = [1000, 1001, 1023, 1055, 32_768, 32_769, 32_770, 32_799, 32_800, 39_999]


@st.composite
def chains(draw):
    """Arguments of lyapunov_localization_length for one transfer chain."""
    theta = draw(st.floats(0.0, math.pi / 2 - 1.01e-12))
    omega = draw(st.floats(-math.pi, math.pi))
    length = draw(st.one_of(st.integers(1000, 40_000), st.sampled_from(EDGE_LENGTHS)))
    kind = draw(st.sampled_from(["none", "spatial"]))
    seed = draw(st.integers(0, 2**32 - 1))
    phase_min = draw(st.floats(-math.pi, math.pi))
    phase_max = phase_min + draw(st.floats(0.0, 2 * math.pi))
    index = draw(st.integers(0, 1000))
    return DisorderSpec(kind, phase_min, phase_max, seed), theta, omega, length, index


def _assert_matches_loop(disorder, theta, omega, length, index=0):
    gamma, halves, spread, threshold = lyapunov_loop(disorder, theta, omega, length, index)
    # per-site rounding grows with the condition number of one transfer
    # matrix, ((1 + sin)/cos)^2, and a clean chain in or at the edge of its
    # band never forgets it, so two multiplication orders can drift apart by
    # up to its square (measured: below 3e-15 cond^2 max(1, |gamma|))
    cond = ((1.0 + math.sin(theta)) / math.cos(theta)) ** 2
    tol = 1e-12 * max(1.0, abs(gamma)) * cond**2
    borderline = abs(spread - threshold) <= 1e-9 * threshold + 3 * tol
    try:
        est = lyapunov_localization_length(disorder, theta, omega, length, index)
    except NonConvergenceError:
        assert spread > threshold or borderline
        return
    except SingularParameterError:
        assert cond * np.finfo(float).eps >= 1.0  # each matrix singular to working precision
        return
    assert spread <= threshold or borderline
    assert abs(est.gamma - gamma) <= tol
    assert all(abs(got - want) <= tol for got, want in zip(est.half_estimates, halves))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chains())
def test_lyapunov_block_products_match_per_site_loop(chain):
    _assert_matches_loop(*chain)


@pytest.mark.parametrize("seed", [0, 3])  # seed 3 raises NonConvergenceError
def test_lyapunov_matches_per_site_loop_at_default_length(seed):
    _assert_matches_loop(DisorderSpec("spatial", seed=seed), 1.0, 0.5, 200_000)


def test_lyapunov_singular_chain_is_reported():
    # sin(theta) rounds to 1 here, each matrix is singular in float64 and
    # at the flat-band frequency a 16-site product cancels to exactly zero
    with pytest.raises(SingularParameterError, match="working precision"):
        lyapunov_localization_length(DisorderSpec("none"), math.pi / 2 - 1.01e-12, math.pi / 2, 2000)


def test_lyapunov_finite_next_to_half_pi():
    # a 16-site product reaches ~1e196 here; squaring it in the norm overflowed
    theta = math.pi / 2 - 1.01e-12
    for disorder in (DisorderSpec("none"), DisorderSpec("spatial", seed=4)):
        est = lyapunov_localization_length(disorder, theta, 0.3, 2000)
        assert math.isfinite(est.gamma) and est.gamma > 0
        assert est.localization_length == pytest.approx(1.0 / est.gamma)
