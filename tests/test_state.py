import math

import numpy as np
import pytest

from aqwalk import InitialState, new_one_particle, new_two_particle


def test_up_placement():
    field = new_one_particle(InitialState.up(), 3)
    assert field.half_width == 3
    assert field.up[3] == 1.0
    assert np.count_nonzero(field.up) == 1
    assert np.count_nonzero(field.down) == 0
    assert field.norm() == pytest.approx(1.0, abs=1e-15)


def test_symmetric_placement_large():
    field = new_one_particle(InitialState.symmetric(), 200)
    assert field.norm() == pytest.approx(1.0, abs=1e-12)
    support = np.nonzero(np.abs(field.up) + np.abs(field.down))[0]
    assert list(support) == [200]  # only the origin


def test_complex_amplitudes_placed_directly():
    init = InitialState.one_particle(0.6, 0.8j)
    field = new_one_particle(init, 5)
    assert field.up[5] == 0.6
    assert field.down[5] == 0.8j


def test_rejects_non_normalized_coin():
    with pytest.raises(ValueError, match="normalized"):
        InitialState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="normalized"):
        InitialState(np.array([0.6, 0.8 + 1e-4]))
    # NaN compares false with every bound, so the norm check must not pass it
    with pytest.raises(ValueError, match="normalized"):
        InitialState(np.array([math.nan, 1.0]))
    with pytest.raises(ValueError, match="normalized"):
        InitialState.two_particle([1.0, 0.0, 0.0, complex(0.0, math.nan)])


def test_rejects_origin_outside_lattice():
    with pytest.raises(ValueError, match="origin"):
        new_one_particle(InitialState.up(origin=4), 3)
    with pytest.raises(ValueError, match="origin"):
        new_two_particle(InitialState.basis_two_particle("uu", origin=(0, 7)), 5)


def test_two_particle_confinement_detection():
    assert new_two_particle(InitialState.basis_two_particle("uu"), 4).confinement == "xline"
    assert new_two_particle(InitialState.basis_two_particle("dd"), 4).confinement == "xline"
    assert new_two_particle(InitialState.basis_two_particle("ud"), 4).confinement == "yline"
    assert new_two_particle(InitialState.basis_two_particle("du"), 4).confinement == "yline"
    r = 1.0 / math.sqrt(2.0)
    mixed = InitialState.two_particle([r, r, 0.0, 0.0])
    assert new_two_particle(mixed, 4).confinement == "full2d"


def test_uu_dd_superposition_stays_on_x_line():
    r = 1.0 / math.sqrt(2.0)
    init = InitialState.two_particle([r, 0.0, 0.0, r])
    field = new_two_particle(init, 4)
    assert field.confinement == "xline"
    assert field.ud is None and field.du is None


def test_force_full2d_layout():
    field = new_two_particle(InitialState.basis_two_particle("uu"), 4, force_full2d=True)
    assert field.confinement == "full2d"
    assert field.uu.shape == (9, 9)
    assert field.uu[4, 4] == 1.0
    assert field.norm() == pytest.approx(1.0, abs=1e-15)


def test_norm_scaling():
    field = new_one_particle(InitialState.symmetric(), 2)
    field.up *= 2.0
    field.down *= 2.0
    assert field.norm() == pytest.approx(4.0, abs=1e-12)


def test_two_particle_needs_pair_origin():
    with pytest.raises(ValueError, match="pair"):
        new_two_particle(InitialState(np.array([1.0, 0, 0, 0]), 0), 3)


def test_wrong_coin_length_rejected():
    with pytest.raises(ValueError, match="length-2"):
        new_one_particle(InitialState.basis_two_particle("uu"), 3)
    with pytest.raises(ValueError, match="length-4"):
        new_two_particle(InitialState(np.array([1.0, 0.0]), (0, 0)), 3)
