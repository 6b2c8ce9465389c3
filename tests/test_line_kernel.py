"""Properties of the batched line kernel behind run_walk and the ensembles.

Each row of a batch must be bit-identical to the same walk run alone, and
a walk run alone must match the dense matrix-on-statevector oracle: the
one-line oracle for line walks, the whole-grid oracle for full-2D walks.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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
    sample_landscape,
    sigma,
    theta_at,
)
from aqwalk.evolve import RECORD_KEYS, landscape_size, run_walk_batch
from aqwalk.observables import site_distribution
from aqwalk.state import LINES, families

from oracles import coin_density_loops, evolve_dense, evolve_dense_2d, negativity_pt_loops, pp_negativity_loops

# per layout: coin-vector slots of the (L, R) components and their phase powers
LAYOUTS = {
    "1p": ((0, 1), (0, 1)),
    "xline": ((0, 3), (0, 2)),
    "yline": ((2, 1), (1, 1)),  # L = du moves to y - 1, R = ud to y + 1
}

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@st.composite
def walks(draw):
    """(layout, WalkSpec, L and R start amplitudes)."""
    layout = draw(st.sampled_from(sorted(LAYOUTS)))
    steps = draw(st.integers(1, 60))
    mix = draw(st.floats(0.0, math.pi / 2))
    amps = (math.cos(mix), math.sin(mix) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi))))
    slots, _ = LAYOUTS[layout]
    coin = np.zeros(2 if layout == "1p" else 4, dtype=complex)
    coin[list(slots)] = amps
    init = InitialState(coin)
    keys = [k for k in RECORD_KEYS if layout != "1p" or k != "negativity_particle_particle"]
    record = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    disorder = DisorderSpec(draw(st.sampled_from(["none", "spatial", "temporal"])),
                            seed=draw(st.integers(0, 2**32 - 1)))
    # angles in (0, 1e-6) only add subnormal amplitudes, on which the dense
    # eigensolver of the loop oracle loses accuracy (the walk does not)
    theta0 = draw(st.one_of(st.just(0.0), st.floats(1e-6, math.pi / 2)))
    schedule = CoinSchedule(theta0, draw(st.floats(0.0, 0.2)))
    spec = WalkSpec(schedule, init, steps, disorder=disorder, record=record)
    return layout, spec, amps


def _landscapes(spec, count):
    return [sample_landscape(spec.disorder, landscape_size(spec), i) for i in range(count)]


def _components(layout, state):
    names = {"1p": ("up", "down"), "xline": ("uu", "dd"), "yline": ("du", "ud")}[layout]
    return [state.components[name] for name in names]


def assert_rows_are_single_runs(spec, landscapes):
    """Row i of run_walk_batch(spec, landscapes), its series, distribution and
    final planes, is tobytes()-equal to run_walk(spec, landscapes[i]) and to a batch of one."""
    series, p, planes = run_walk_batch(spec, landscapes)
    assert (p is None) == ("distribution" not in spec.record)
    for i, landscape in enumerate(landscapes):
        single = run_walk(spec, landscape)
        alone_series, alone_p, alone_planes = run_walk_batch(spec, [landscape])
        for key in spec.record:
            if key == "distribution":
                got = site_distribution([line[:, i] for line in p])
                assert got.p.tobytes() == single.distribution.p.tobytes()
                assert np.array_equal(got.x, single.distribution.x)
                assert all(line[:, i].tobytes() == alone[:, 0].tobytes() for line, alone in zip(p, alone_p))
            else:
                assert series[key][i].tobytes() == single.series(key).tobytes() == alone_series[key][0].tobytes()
        for name, family, alone in zip(families(spec.confinement), planes, alone_planes, strict=True):
            assert family[..., i].tobytes() == alone[..., 0].tobytes()
            for component, part in zip(LINES[name].fields, family[..., i]):
                assert (part[0] + 1j * part[1]).tobytes() == single.final_state.components[component].tobytes()


@PROPERTY_SETTINGS
@given(walk=walks(), rows=st.integers(2, 7))
def test_batch_rows_are_bit_identical_to_single_runs(walk, rows):
    _, spec, _ = walk
    assert_rows_are_single_runs(spec, _landscapes(spec, rows))


@pytest.mark.parametrize("coin, record", [
    ([0.6, 0.8j], ("sigma", "ipr", "negativity_coin_position", "distribution")),
    ([0.6, 0, 0, 0.8j], ("negativity_particle_particle", "distribution")),
    ([0.5, 0.5, 0.5, 0.5], ("negativity_particle_particle", "distribution")),
], ids=["1p", "xline", "full2d"])
def test_empty_batch_is_empty_arrays(coin, record):
    spec = WalkSpec(CoinSchedule(1.0, 0.01), InitialState(np.array(coin)), 7,
                    disorder=DisorderSpec("temporal"), record=record)
    series, p, planes = run_walk_batch(spec, [])
    count = len(families(spec.confinement))
    assert {key: line.shape for key, line in series.items()} == {key: (0, 8) for key in record[:-1]}
    assert [line.shape for line in p] == [(15, 0)] * count
    assert [family.shape for family in planes] == [(2, 2, 15, 0)] * count


@PROPERTY_SETTINGS
@given(walk=walks())
def test_single_run_matches_dense_oracle(walk):
    layout, spec, (alpha, beta) = walk
    landscape = _landscapes(spec, 1)[0]
    result = run_walk(spec, landscape)
    steps = spec.steps
    thetas = [theta_at(spec.schedule, t) for t in range(1, steps + 1)]
    phis = {"none": None, "spatial": [landscape] * steps,
            "temporal": None if landscape is None else list(landscape)}[spec.disorder.kind]
    left, right = evolve_dense(alpha, beta, steps, thetas, phis, powers=LAYOUTS[layout][1])
    got_left, got_right = _components(layout, result.final_state)
    assert np.max(np.abs(got_left - left)) < 1e-12
    assert np.max(np.abs(got_right - right)) < 1e-12

    p = np.abs(left) ** 2 + np.abs(right) ** 2
    x = np.arange(-steps, steps + 1)
    second = np.dot(x * x, p)
    expected = {
        # sigma^2 = second - mean^2 carries rounding of order eps * second
        "sigma": (np.sqrt(max(second - np.dot(x, p) ** 2, 0.0)), 1e-12 * max(1.0, second)),
        "ipr": (float(np.sum(p * p)), 1e-12),
        "negativity_particle_particle": (pp_negativity_loops(left, np.zeros_like(left),
                                                             np.zeros_like(left), right), 1e-12),
    }
    if steps <= 20:  # the loop partial transpose is O(sites^2) Python steps
        expected["negativity_coin_position"] = (negativity_pt_loops(np.vstack([left, right])), 1e-12)
    for key in spec.record:
        if key == "distribution":
            assert np.max(np.abs(result.distribution.p - p)) < 1e-12
        elif key == "sigma":
            value, tol = expected[key]
            assert abs(result.sigma[-1] ** 2 - value ** 2) < tol
        elif key in expected:
            value, tol = expected[key]
            assert abs(result.series(key)[-1] - value) < tol


@PROPERTY_SETTINGS
@given(walk=walks())
def test_per_state_observables_agree_with_the_walk(walk):
    # the public per-state functions read the final state the way the kernel reads its frame
    layout, spec, _ = walk
    keys = tuple(k for k in RECORD_KEYS if layout != "1p" or k != "negativity_particle_particle")
    spec = replace(spec, record=keys)
    result = run_walk(spec, _landscapes(spec, 1)[0])
    state = result.final_state
    dist = distribution(state)
    assert dist.p.tobytes() == result.distribution.p.tobytes()
    assert dist.x.tobytes() == result.distribution.x.tobytes()
    # sigma^2 = second - mean^2 carries rounding of order eps * second
    second = float(np.dot(dist.x * dist.x, dist.p))
    assert abs(sigma(dist) ** 2 - result.sigma[-1] ** 2) < 1e-12 * max(1.0, second)
    assert abs(ipr(dist) - result.ipr[-1]) < 1e-12
    assert abs(negativity_coin_position(state) - result.negativity_coin_position[-1]) < 1e-12
    if layout != "1p":
        assert abs(negativity_particle_particle(state) - result.negativity_particle_particle[-1]) < 1e-12


@PROPERTY_SETTINGS
@given(walk=walks())
def test_norm_is_preserved_on_random_walks(walk):
    _, spec, _ = walk
    result = run_walk(spec, _landscapes(spec, 1)[0])
    assert abs(distribution(result.final_state).total() - 1.0) < 1e-10


@PROPERTY_SETTINGS
@given(walk=walks())
def test_mirrored_start_gives_the_mirrored_walk(walk):
    # x -> -x with L and R swapped maps the clean walk onto itself, so the start
    # (beta, alpha) gives the mirror image of the start (alpha, beta)
    layout, spec, (alpha, beta) = walk
    keys = tuple(k for k in RECORD_KEYS if layout != "1p" or k != "negativity_particle_particle")
    spec = replace(spec, disorder=DisorderSpec("none"), record=keys)
    coin = spec.init.coin.copy()
    coin[list(LAYOUTS[layout][0])] = beta, alpha
    mirrored = replace(spec, init=InitialState(coin))
    result, image = run_walk(spec), run_walk(mirrored)
    t = np.arange(spec.steps + 1)
    # sigma^2 = second - mean^2 carries rounding of order eps * second <= eps * t^2
    assert np.all(np.abs(result.sigma ** 2 - image.sigma ** 2) < 1e-12 * np.maximum(1.0, t ** 2))
    for key in set(keys) - {"distribution", "sigma"}:
        assert np.max(np.abs(result.series(key) - image.series(key))) < 1e-12
    assert np.max(np.abs(result.distribution.p - image.distribution.p[::-1])) < 1e-12


@st.composite
def grid_walks(draw):
    """(WalkSpec of a full-2D walk of at most 5 steps, its start amplitudes)."""
    steps = draw(st.integers(1, 5))
    # components drawn as zero give confined starts kept on the grid by layout 'full2d'
    amps = np.array([0.0 if draw(st.booleans()) else complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
                     for _ in range(4)])
    assume(np.sum(np.abs(amps) ** 2) > 1e-3)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    theta0 = draw(st.one_of(st.just(0.0), st.floats(1e-6, math.pi / 2)))
    spec = WalkSpec(CoinSchedule(theta0, draw(st.floats(0.0, 0.2))), InitialState(amps), steps,
                    disorder=DisorderSpec(draw(st.sampled_from(["none", "temporal"])),
                                          seed=draw(st.integers(0, 2**32 - 1))),
                    record=("distribution", "negativity_particle_particle"),
                    layout=draw(st.sampled_from(["auto", "full2d"])))
    assume(spec.full2d)
    return spec, amps


@PROPERTY_SETTINGS
@given(walk=grid_walks(), rows=st.integers(2, 4))
def test_full2d_walk_matches_dense_grid_oracle(walk, rows):
    spec, amps = walk
    landscapes = _landscapes(spec, rows)
    result = run_walk(spec, landscapes[0])
    steps = spec.steps
    thetas = [theta_at(spec.schedule, t) for t in range(1, steps + 1)]
    states = evolve_dense_2d(amps, steps, thetas, landscapes[0])
    final = result.final_state
    # the state is its x line (uu, dd at y = 0) and its y line (ud, du at x = 0):
    # on the grid, every other site must hold zero
    got = np.zeros_like(states[-1])
    got[[0, 3], :, steps] = final.components["uu"], final.components["dd"]
    got[[1, 2], steps, :] = final.components["ud"], final.components["du"]
    assert np.max(np.abs(got - states[-1])) < 1e-12
    assert np.max(np.abs(result.distribution.p - np.sum(np.abs(states[-1]) ** 2, axis=0))) < 1e-12
    for t, state in enumerate(states):
        assert abs(result.negativity_particle_particle[t] - pp_negativity_loops(*state)) < 1e-12
    # the per-state functions read the two lines of the final state
    assert abs(negativity_particle_particle(final) - pp_negativity_loops(*states[-1])) < 1e-12
    assert abs(negativity_particle_particle(final) - result.negativity_particle_particle[-1]) < 1e-12
    assert np.max(np.abs(reduced_particle_density(final) - coin_density_loops(*states[-1]))) < 1e-12
    assert_rows_are_single_runs(spec, landscapes)
