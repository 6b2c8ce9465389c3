import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aqwalk import CoinSchedule, DisorderSpec, EnsembleSpec, InitialState, WalkSpec, distribution, run_walk
from aqwalk.errors import ConfigError
from aqwalk.specs import confinement

from oracles import amplitudes, numpy_coin_rule, state_of


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


@pytest.mark.parametrize("label", ["xx", "UU", "up", "", ["uu"]])
def test_unknown_two_particle_label_names_the_four(label):
    # a ConfigError, which is a ValueError, on the spec's field, not a bare KeyError
    with pytest.raises(ConfigError, match=r"must be one of \('uu', 'ud', 'du', 'dd'\)") as info:
        InitialState.basis_two_particle(label)
    assert info.value.field == "initial"
    assert isinstance(info.value, ValueError)


def test_an_amplitude_beyond_the_largest_float_is_not_normalized():
    # |1.3e308 (1 + i)| overflows a float: a ValueError, not an OverflowError from abs
    with pytest.raises(ValueError, match=r"must be normalized, \|amp\|\^2 sums to inf"):
        InitialState([0.0, 0.0, 0.0, complex(1.3e308, 1.3e308)])


def test_coin_must_have_length_2_or_4():
    # the coin's length is the particle count, so no other length makes a walk
    for coin in ([1.0], [1.0, 0.0, 0.0], [1.0] + [0.0] * 7):
        with pytest.raises(ValueError, match="length 2 or 4"):
            InitialState(np.array(coin))


def test_equal_specs_compare_and_hash_equal():
    def walk(coin):
        return WalkSpec(CoinSchedule(0.5, 0.01), InitialState(coin), 10, DisorderSpec("temporal", seed=3))

    r = 1.0 / math.sqrt(2.0)
    assert InitialState.symmetric() == InitialState([r, r]) == InitialState(np.array([r, r]))
    assert walk([1.0, 0.0]) == walk(np.array([1, 0])) == walk((1 + 0j, 0.0))
    assert EnsembleSpec(walk([r, r]), 5) == EnsembleSpec(walk(np.array([r, r])), 5)
    assert len({InitialState.up(), InitialState([1.0, 0.0])}) == 1
    assert len({walk([1.0, 0.0]), walk(np.array([1.0, 0.0]))}) == 1
    assert len({EnsembleSpec(walk([r, r]), 5), EnsembleSpec(walk((r, r)), 5)}) == 1
    # one amplitude's phase apart: the same |amp|^2, another state
    assert InitialState([r, r]) != InitialState([r, 1j * r])
    assert walk([r, r]) != walk([r, -r])
    assert EnsembleSpec(walk([r, 0.0, 0.0, r]), 5) != EnsembleSpec(walk([r, 0.0, 0.0, r * 1j]), 5)


def _amplitudes(length):
    number = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-2, 2),
                       st.complex_numbers(allow_nan=True, allow_infinity=True))
    return st.lists(number, min_size=length, max_size=length)


@st.composite
def _near_normalized(draw, length):
    # a unit vector scaled so that its |amp|^2 sum is 1 + d, d around the tolerance
    amps = draw(st.lists(st.complex_numbers(max_magnitude=10.0), min_size=length, max_size=length))
    total = math.fsum(abs(a) ** 2 for a in amps)
    assume(total > 1e-6)
    d = draw(st.one_of(st.floats(-3e-9, 3e-9), st.sampled_from([0.0, 1e-9, -1e-9, 1e-9 * (1 + 1e-7)])))
    return [a * math.sqrt((1.0 + d) / total) for a in amps]


@st.composite
def _coins(draw):
    amps = draw(st.integers(1, 5).flatmap(lambda n: st.one_of(_amplitudes(n), _near_normalized(n))))
    container = draw(st.sampled_from(["list", "tuple", "array", "column", "nested", "row"]))
    if container == "tuple":
        return tuple(amps)
    if container == "array":
        return np.array(amps, dtype=complex)
    if container == "column":  # shape (n, 1)
        return np.array(amps, dtype=complex).reshape(-1, 1)
    if container == "nested":
        return [[a] for a in amps]
    if container == "row":
        return [amps]
    return amps


@settings(max_examples=400, deadline=None)
@given(coin=_coins())
def test_initial_state_accepts_what_the_numpy_rule_accepted(coin):
    expected, nrm = numpy_coin_rule(coin)
    try:
        got = InitialState(coin).coin
    except ValueError:
        got = None
    if (got is None) != (expected is None):
        # numpy's abs and sum may round the |amp|^2 sum a few ulps away from the Python one,
        # which can move a sum that sits on the tolerance across it
        assert nrm is not None and abs(abs(nrm - 1.0) - 1e-9) < 1e-15, (coin, nrm)
    elif got is not None:
        assert type(got) is tuple and all(type(a) is complex for a in got)
        assert np.array_equal(np.array(got).view(np.uint64), expected.view(np.uint64))
