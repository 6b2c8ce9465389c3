import math

import numpy as np
import pytest

from aqwalk import CoinSchedule, InitialState, SpinorField1P, WalkSpec, run_walk
from aqwalk.state import two_particle_confinement


def _spec(init, steps, particles=None, layout="auto"):
    particles = particles or len(init.coin) // 2
    return WalkSpec(particles, CoinSchedule(0.5), init, steps, record=(), layout=layout)


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
        _spec(InitialState.up(origin=4), 3)
    with pytest.raises(ValueError, match="origin"):
        _spec(InitialState.basis_two_particle("uu", origin=(0, 7)), 5)


def test_two_particle_confinement_detection():
    for label, layout in (("uu", "xline"), ("dd", "xline"), ("ud", "yline"), ("du", "yline")):
        init = InitialState.basis_two_particle(label)
        assert two_particle_confinement(init.coin) == layout
        assert _spec(init, 4).confinement == layout
    r = 1.0 / math.sqrt(2.0)
    mixed = InitialState.two_particle([r, r, 0.0, 0.0])
    assert two_particle_confinement(mixed.coin) == "full2d"
    assert _spec(mixed, 4).confinement == "full2d"
    assert _spec(InitialState.up(), 4).confinement == "1p"


def test_uu_dd_superposition_stays_on_x_line():
    r = 1.0 / math.sqrt(2.0)
    init = InitialState.two_particle([r, 0.0, 0.0, r])
    field = run_walk(_spec(init, 4)).final_state
    assert field.confinement == "xline"
    assert field.ud is None and field.du is None


def test_force_full2d_layout():
    # a full-2D field is its x line and its y line, each over [-T, T]
    spec = _spec(InitialState.basis_two_particle("uu"), 4, layout="full2d")
    assert spec.confinement == "full2d" and spec.full2d
    field = run_walk(spec).final_state
    assert field.confinement == "full2d"
    assert {getattr(field, name).shape for name in ("uu", "ud", "du", "dd")} == {(9,)}
    assert np.count_nonzero(field.ud) == np.count_nonzero(field.du) == 0
    assert field.norm() == pytest.approx(1.0, abs=1e-15)


def test_norm_scaling():
    r = 1.0 / math.sqrt(2.0)
    field = SpinorField1P(2, np.array([0, 0, r, 0, 0], dtype=complex), np.array([0, 0, r, 0, 0], dtype=complex))
    assert field.norm() == pytest.approx(1.0, abs=1e-15)
    field.up *= 2.0
    field.down *= 2.0
    assert field.norm() == pytest.approx(4.0, abs=1e-12)


def test_two_particle_needs_pair_origin():
    with pytest.raises(ValueError, match="origin"):
        _spec(InitialState(np.array([1.0, 0, 0, 0]), 0), 3)
    with pytest.raises(ValueError, match="origin"):
        _spec(InitialState(np.array([1.0, 0]), (0, 0)), 3)


def test_wrong_coin_length_rejected():
    with pytest.raises(ValueError, match="length 4 does not match particle_count 1"):
        _spec(InitialState.basis_two_particle("uu"), 3, particles=1)
    with pytest.raises(ValueError, match="length 2 does not match particle_count 2"):
        _spec(InitialState(np.array([1.0, 0.0]), (0, 0)), 3, particles=2)
