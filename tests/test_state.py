import math

import numpy as np
import pytest

from aqwalk import CoinSchedule, InitialState, WalkSpec, distribution, run_walk
from aqwalk.state import confinement

from oracles import amplitudes, state_of


def _spec(init, steps, layout="auto"):
    return WalkSpec(CoinSchedule(0.5), init, steps, record=(), layout=layout)


def test_rejects_non_normalized_coin():
    with pytest.raises(ValueError, match="normalized"):
        InitialState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="normalized"):
        InitialState(np.array([0.6, 0.8 + 1e-4]))
    # NaN compares false with every bound, so the norm check must not pass it
    with pytest.raises(ValueError, match="normalized"):
        InitialState(np.array([math.nan, 1.0]))
    with pytest.raises(ValueError, match="normalized"):
        InitialState(np.array([1.0, 0.0, 0.0, complex(0.0, math.nan)]))


def test_two_particle_confinement_detection():
    for label, layout in (("uu", "xline"), ("dd", "xline"), ("ud", "yline"), ("du", "yline")):
        init = InitialState.basis_two_particle(label)
        assert confinement(init.coin) == layout
        assert _spec(init, 4).confinement == layout
    r = 1.0 / math.sqrt(2.0)
    mixed = InitialState(np.array([r, r, 0.0, 0.0]))
    assert confinement(mixed.coin) == "full2d"
    assert _spec(mixed, 4).confinement == "full2d"
    assert confinement(InitialState.up().coin) == confinement(InitialState.up().coin, True) == "1p"
    assert _spec(InitialState.up(), 4).confinement == "1p"


def test_uu_dd_superposition_stays_on_x_line():
    r = 1.0 / math.sqrt(2.0)
    init = InitialState(np.array([r, 0.0, 0.0, r]))
    field = run_walk(_spec(init, 4)).final_state
    assert set(field) == {"xline"}  # a confined 2p state holds one family


def test_force_full2d_layout():
    # a full-2D field is its x line and its y line, each over [-T, T]
    spec = _spec(InitialState.basis_two_particle("uu"), 4, layout="full2d")
    assert spec.confinement == "full2d" and spec.full2d
    field = run_walk(spec).final_state
    assert list(field) == ["xline", "yline"]
    assert sorted(amplitudes(field)) == ["dd", "du", "ud", "uu"]
    assert {line.shape for line in amplitudes(field).values()} == {(9,)}
    assert np.count_nonzero(amplitudes(field)["ud"]) == np.count_nonzero(amplitudes(field)["du"]) == 0
    assert distribution(field).sum() == pytest.approx(1.0, abs=1e-15)


def test_norm_scaling():
    r = 1.0 / math.sqrt(2.0)
    field = state_of("1p", [(np.array([0, 0, r, 0, 0], dtype=complex), np.array([0, 0, r, 0, 0], dtype=complex))])
    assert distribution(field).sum() == pytest.approx(1.0, abs=1e-15)
    field["1p"] *= 2.0  # both components
    assert distribution(field).sum() == pytest.approx(4.0, abs=1e-12)


def test_coin_must_have_length_2_or_4():
    # the coin's length is the particle count, so no other length makes a walk
    for coin in ([1.0], [1.0, 0.0, 0.0], [1.0] + [0.0] * 7):
        with pytest.raises(ValueError, match="length 2 or 4"):
            InitialState(np.array(coin))
