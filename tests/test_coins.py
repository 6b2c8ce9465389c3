import math

import numpy as np
import pytest
from scipy.linalg import expm

from aqwalk import CoinSchedule, DisorderSpec, InitialState, WalkSpec, run_walk
from aqwalk.specs import theta_at

from oracles import amplitudes

# The coin matrices below are read off the engine: one step from each
# coin basis state at the origin, with the amplitude read where the shift
# puts it (up/uu to x-1, down/dd to x+1, ud to y+1, du to y-1).  They are
# checked against oracles built here from the generators.

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_XX = np.kron(SIGMA_X, SIGMA_X)

BASIS_2P = ("uu", "ud", "du", "dd")

# index on its line (uu, dd along x; ud, du along y) where each component lands
LANDING_2D = (0, 2, 0, 2)


def one_step(init, theta, phi=None, layout="auto"):
    """The state one engine step after init: a clean step, or one with the temporal phase phi."""
    disorder = DisorderSpec("none" if phi is None else "temporal")
    spec = WalkSpec(CoinSchedule(theta, 0.0), init, 1, disorder=disorder, record=(),
                    layout=layout)
    return run_walk(spec, None if phi is None else np.array([phi])).final_state


def engine_coin2(theta, phi=None):
    """One-particle coin with phase, columns (up, down), from one step of run_walk."""
    cols = []
    for init in (InitialState.up(), InitialState.down()):
        out = one_step(init, theta, phi)
        cols.append([amplitudes(out)["up"][0], amplitudes(out)["down"][2]])
    return np.array(cols).T


def engine_coin4_lines(theta, phi=None):
    """Two-particle coin with phase: uu/dd columns from x-line steps, ud/du from y-line."""
    m = np.zeros((4, 4), dtype=complex)
    for k, label in enumerate(BASIS_2P):
        out = one_step(InitialState.basis_two_particle(label), theta, phi)
        if "xline" in out:
            m[0, k], m[3, k] = amplitudes(out)["uu"][0], amplitudes(out)["dd"][2]
        else:
            m[1, k], m[2, k] = amplitudes(out)["ud"][2], amplitudes(out)["du"][0]
    return m


def engine_coin4_full2d(theta, phi=None):
    """Two-particle coin with phase, all four columns from full-2D steps."""
    cols = []
    for label in BASIS_2P:
        out = one_step(InitialState.basis_two_particle(label), theta, phi, layout="full2d")
        cols.append([amplitudes(out)[name][site] for name, site in zip(BASIS_2P, LANDING_2D)])
    return np.array(cols).T


ENGINE_COIN4 = (engine_coin4_lines, engine_coin4_full2d)


def oracle_coin2(theta, phi=0.0):
    return np.diag([1.0, np.exp(1j * phi)]) @ expm(-1j * theta * SIGMA_X)


def oracle_coin4(theta, phi=0.0):
    e = np.exp(1j * phi)
    return np.diag([1.0, e, e, e * e]) @ expm(-1j * theta * SIGMA_XX)


def test_theta_at_constant_for_zero_acceleration():
    sched = CoinSchedule(math.pi / 4, 0.0)
    assert theta_at(sched, 57) == math.pi / 4


def test_theta_at_vanishes_for_huge_acceleration():
    sched = CoinSchedule(math.pi / 2, 1e6)
    assert theta_at(sched, 1) == 0.0


def test_theta_at_exponential_value():
    # direct numerical evaluation of the exponential as the oracle
    sched = CoinSchedule(math.pi / 4, 0.01)
    expected = (math.pi / 4) * math.exp(-0.01 * 100)
    assert theta_at(sched, 100) == pytest.approx(expected, abs=1e-15)
    assert theta_at(sched, 100) == pytest.approx(0.28893183744773043, abs=1e-12)


def test_theta_at_strictly_decreasing():
    sched = CoinSchedule(1.2, 0.03)
    values = [theta_at(sched, t) for t in range(1, 50)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_theta_at_rejects_step_zero():
    with pytest.raises(ValueError):
        theta_at(CoinSchedule(1.0, 0.1), 0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        CoinSchedule(-0.1, 0.0)
    with pytest.raises(ValueError):
        CoinSchedule(math.pi / 2 + 0.1, 0.0)
    with pytest.raises(ValueError):
        CoinSchedule(1.0, -1e-9)


def test_coin2_identity_and_swap():
    assert np.allclose(engine_coin2(0.0), np.eye(2), atol=1e-15)
    swap = np.array([[0, -1j], [-1j, 0]])
    assert np.allclose(engine_coin2(math.pi / 2), swap, atol=1e-15)


def test_coin2_quarter_angle_entries():
    m = engine_coin2(math.pi / 4)
    r = 1.0 / math.sqrt(2.0)
    assert m[0, 0] == pytest.approx(r)
    assert m[1, 1] == pytest.approx(r)
    assert m[0, 1] == pytest.approx(-1j * r)
    assert m[1, 0] == pytest.approx(-1j * r)


def test_coin2_with_phase_reduces_at_zero():
    for theta in (0.0, 0.3, 1.1):
        assert np.array_equal(engine_coin2(theta, 0.0), engine_coin2(theta))


def test_coin2_with_phase_diagonal_case():
    m = engine_coin2(0.0, math.pi)
    assert np.allclose(m, np.diag([1.0, -1.0]), atol=1e-15)


def test_coin2_with_phase_matches_product():
    # oracle: the phase diagonal times the exponential of the generator
    for theta, phi in [(math.pi / 4, math.pi / 2), (0.7, 1.9), (1.3, 0.4)]:
        assert np.allclose(engine_coin2(theta, phi), oracle_coin2(theta, phi), atol=1e-15)


def test_coin4_identity_and_swap():
    for engine in ENGINE_COIN4:
        assert np.allclose(engine(0.0), np.eye(4), atol=1e-15)
        assert np.allclose(engine(math.pi / 2), -1j * SIGMA_XX, atol=1e-15)


def test_coin4_matches_matrix_exponential():
    # generator identity: the coin is exp(-i theta sigma_x x sigma_x)
    for engine in ENGINE_COIN4:
        for theta in (math.pi / 4, 0.2, 1.5, math.pi / 2):
            assert np.max(np.abs(engine(theta) - oracle_coin4(theta))) < 1e-12


def test_coin4_with_phase_reduces_and_diagonal():
    for engine in ENGINE_COIN4:
        assert np.array_equal(engine(0.9, 0.0), engine(0.9))
        m = engine(0.0, math.pi / 3)
        e = np.exp(1j * math.pi / 3)
        assert np.allclose(m, np.diag([1.0, e, e, e * e]), atol=1e-15)


def test_coin4_with_phase_matches_product():
    for engine in ENGINE_COIN4:
        for theta, phi in [(math.pi / 4, 1.1), (0.5, 2.3)]:
            assert np.allclose(engine(theta, phi), oracle_coin4(theta, phi), atol=1e-15)


def test_unitarity_random_sweep():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(0.0, math.pi)
        for engine in (engine_coin2, *ENGINE_COIN4):
            for m in (engine(theta), engine(theta, phi)):
                dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
                worst = max(worst, dev)
    assert worst < 1e-12


def test_coin4_preserves_both_pair_subspaces():
    # uu/dd and ud/du blocks never mix: this is what pins confined walks
    rng = np.random.default_rng(7)
    for _ in range(50):
        theta = rng.uniform(0, math.pi / 2)
        phi = rng.uniform(0, math.pi)
        m = engine_coin4_full2d(theta, phi)
        for row, col in [(0, 1), (0, 2), (3, 1), (3, 2), (1, 0), (1, 3), (2, 0), (2, 3)]:
            assert m[row, col] == 0.0
