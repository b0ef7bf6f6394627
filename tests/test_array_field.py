"""Array geometry, re-radiated field, pattern cuts, and CSV output."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squintsim import (CircuitParams, PatternCut, ScatteringState, build_array,
                       directivity_pattern, main_lobe_angle, pattern_to_csv,
                       reflected_field)
from squintsim import array_field
from squintsim.array_field import (_block_geometry, _distances, _feed_geometry, _incident,
                                   _outgoing_block, _phasor, _to_db)
from squintsim.circuit import SPEED_OF_LIGHT
from squintsim.errors import NumericalError

F_REF = 2.5e9
FULL_GRID = np.arange(-90.0, 90.0 + 1e-9, 0.25)


def axis_cut(array, radius=None, axis="u"):
    """The cut swept along the surface's column ("u") or row ("v") axis from broadside."""
    return PatternCut(radius, tuple(array.u_axis if axis == "u" else array.v_axis),
                      tuple(array.normal))


def brute_force_field(array, gammas, source, observation, far_field, amplitude=1.0,
                      frequency=F_REF):
    """Term-by-term reference sum through np.exp, no vectorization shared with the code."""
    k = 2.0 * np.pi * frequency / SPEED_OF_LIGHT
    total = 0.0 + 0.0j
    obs = np.asarray(observation, dtype=float)
    if far_field:
        obs = obs / np.linalg.norm(obs)
    for pos, g in zip(array.element_positions, gammas):
        d_in = np.linalg.norm(pos - source)
        a_in = amplitude / d_in * np.exp(-1j * k * d_in)
        if far_field:
            a_out = np.exp(1j * k * float(pos @ obs))
        else:
            d_out = np.linalg.norm(obs - pos)
            a_out = np.exp(-1j * k * d_out) / d_out
        term = a_in * g * a_out
        if array.element_pattern == "cosine":
            to_src = source - pos
            cos_in = float(to_src @ array.normal) / np.linalg.norm(to_src)
            if far_field:
                cos_out = float(obs @ array.normal)
            else:
                to_obs = obs - pos
                cos_out = float(to_obs @ array.normal) / np.linalg.norm(to_obs)
            term *= max(cos_in, 0.0) * max(cos_out, 0.0)
        total += term
    return total


def random_instance(rng, pattern="isotropic"):
    rows = int(rng.integers(1, 6))
    cols = int(rng.integers(1, 6))
    plane = rng.choice(["xz", "xy", "yz"])
    center = rng.uniform(-3, 3, 3)
    array = build_array(rows, cols, F_REF, center=center, plane=plane,
                        element_pattern=pattern)
    n = array.n_elements
    gammas = rng.uniform(0.2, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    state = ScatteringState(gammas=gammas, frequency=F_REF)
    if rng.random() < 0.5:
        source = center + rng.uniform(5, 30, 3)
        amplitude = float(rng.uniform(0.5, 2.0))
    else:
        # a distant unit source, in front of the surface whatever its plane
        source = center + 100.0 * np.abs(rng.normal(size=3))
        amplitude = 1.0
    return array, state, source, amplitude


def test_reflected_field_matches_brute_force(rng):
    for _ in range(40):
        array, state, source, amplitude = random_instance(rng)
        point = array.center + rng.uniform(3, 40, 3)
        got = amplitude * reflected_field(array, state, source, point)
        want = brute_force_field(array, state.gammas, source, point, False, amplitude)
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-30)


def test_reflected_field_far_field_matches_brute_force(rng):
    for _ in range(40):
        array, state, source, amplitude = random_instance(rng)
        direction = rng.normal(size=3)
        got = amplitude * reflected_field(array, state, source, direction, far_field=True)
        want = brute_force_field(array, state.gammas, source, direction, True, amplitude)
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-30)


def test_reflected_field_cosine_pattern(rng):
    for _ in range(20):
        array, state, source, amplitude = random_instance(rng, pattern="cosine")
        # every offset positive: in front of the surface whatever its plane
        for obs, far_field in [(array.center + rng.uniform(3, 40, 3), False),
                               (rng.uniform(0.1, 1.0, 3), True)]:
            got = amplitude * reflected_field(array, state, source, obs, far_field=far_field)
            want = brute_force_field(array, state.gammas, source, obs, far_field, amplitude)
            assert abs(got - want) <= 1e-10 * max(abs(want), 1e-30)


@pytest.mark.parametrize("far_field", [False, True])
def test_reflected_field_matches_brute_force_at_pattern_scale(far_field, rng):
    """fig3's surface at its probe carrier, fed from its feed's direction and observed
    at its cut radius: 400 elements whose incident and outgoing phases reach about
    300 rad, against the np.exp sum within 1e-12. (At fig3's own 73 m feed the
    incident phases reach 4,200 rad, where rounding k*d alone moves a phase by
    5e-13 rad in either sum.)"""
    f = 2.75e9
    array = build_array(20, 20, F_REF)
    feed = np.array([50.0, -50.0, 18.0])
    source = 4.4 * feed / np.linalg.norm(feed)
    gammas = np.exp(1j * rng.uniform(-np.pi, np.pi, array.n_elements))
    state = ScatteringState(gammas, f)
    k = 2.0 * np.pi * f / SPEED_OF_LIGHT
    # directions in front of the surface (its normal is y), points at the cut radius
    directions = rng.normal(size=(12, 3)) * [1.0, 0.0, 1.0] + [0.0, 0.5, 0.0]
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    observations = directions if far_field else np.hypot(3.0, 3.0) * directions
    for obs in observations:
        got = reflected_field(array, state, source, obs, far_field=far_field)
        want = brute_force_field(array, gammas, source, obs, far_field, frequency=f)
        assert abs(got - want) <= 1e-12 * abs(want)
    phases = k * _distances(np.vstack([source, observations]), array.element_positions)
    assert 250.0 < phases[0].max() < 350.0
    assert far_field or 250.0 < phases[1:].max() < 350.0


def phasor_reference(turns):
    """exp(-2 pi j turns) of the exactly reduced turns, f = turns - rint(turns)."""
    return np.exp(-2j * np.pi * (turns - np.rint(turns)))


def test_phasor_is_within_1e_15_of_the_reduced_exponential(rng):
    steps = np.arange(-4096, 4096)
    turns = np.concatenate([
        rng.uniform(-1e6, 1e6, 200_000),
        rng.uniform(-1.0, 1.0, 10_000),
        steps / 1024,                       # on the table's grid: the series at 0
        (steps + 0.5) / 1024,               # half-steps: ties of rint, |x| = pi/1024
        [0.0, -0.0, 0.5, -0.5, 2.0 ** 40 + 0.25]])
    got = _phasor(turns)
    assert got.shape == turns.shape and got.dtype == complex
    assert np.max(np.abs(got - phasor_reference(turns))) <= 1e-15
    assert np.max(np.abs(np.abs(got) - 1.0)) <= 1e-15
    assert np.all(_phasor(steps.astype(float) * 4.0) == 1.0)


def test_phasor_scales_by_its_amplitude_and_keeps_shapes(rng):
    turns = rng.uniform(-300.0, 300.0, (7, 40))
    amplitude = rng.uniform(0.01, 10.0, (7, 40))
    got = _phasor(turns, amplitude)
    assert got.shape == (7, 40)
    assert np.max(np.abs(got - amplitude * phasor_reference(turns)) / amplitude) <= 1e-15


def test_phasor_of_non_finite_or_huge_turns_warns_nothing():
    """Non-finite turns give NaN, which the field checks report; huge turns are whole
    turns. No RuntimeWarning either way: weighing a state calls it outside any errstate."""
    turns = np.array([np.inf, -np.inf, np.nan, 1e300, -1e300, 2.0 ** 60, -(2.0 ** 70)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _phasor(turns, np.full(turns.shape, 2.0))
    assert np.all(np.isnan(got[:3]))
    assert np.all(got[3:] == 2.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n_points=st.integers(1, 5), n_positions=st.integers(1, 5),
       exponents=st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_distances_equal_norm_of_each_difference(n_points, n_positions, exponents, seed):
    """The per-coordinate distances are np.linalg.norm of each difference, bit for bit,
    with coordinates of magnitudes anywhere from 1e-150 to 1e150."""
    rng = np.random.default_rng(seed)
    low, high = sorted(exponents)
    points, positions = (rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(low, high, (n, 3))
                         for n in (n_points, n_positions))
    want = np.linalg.norm(points[:, None, :] - positions[None, :, :], axis=-1)
    assert np.array_equal(_distances(points, positions), want)


def surface_3x3():
    """A 3x3 surface and a spread of phases; the tests feed it from [0, -50, 0]."""
    return build_array(3, 3, F_REF), ScatteringState(gammas=np.exp(0.7j * np.arange(9)),
                                                     frequency=F_REF)


@pytest.mark.parametrize("source, point", [
    ([0.0, -50.0, 0.0], [0.0, 1e300, 0.0]),     # the element-to-observation distances overflow
    ([0.0, -1e300, 0.0], [0.0, 10.0, 0.0]),     # the feed-to-element distances overflow
])
def test_reflected_field_overflow_fails_closed(source, point):
    """Returned nan+nanj with numpy's overflow and invalid-value warnings before; the
    suite turns any RuntimeWarning into an error, so none is printed now."""
    array, state = surface_3x3()
    with pytest.raises(NumericalError, match="reflected field is not finite"):
        reflected_field(array, state, source, point)


def test_reflected_field_rejects_a_direction_whose_length_overflows():
    """[0, 1e308, 1e308] normalized to zero and returned, with warnings, the field along
    any direction perpendicular to the surface's axes before."""
    array, state = surface_3x3()
    feed = [0.0, -50.0, 0.0]
    with pytest.raises(ValueError, match="far-field direction must be non-zero"):
        reflected_field(array, state, feed, [0.0, 1e308, 1e308], far_field=True)
    along = reflected_field(array, state, feed, [0.0, 1.0, 1.0], far_field=True)
    assert along == reflected_field(array, state, feed, [0.0, 2.0, 2.0], far_field=True)
    assert along != reflected_field(array, state, feed, [1.0, 0.0, 0.0], far_field=True)


def test_reflected_field_state_size_mismatch():
    array = build_array(2, 2, F_REF)
    state = ScatteringState(gammas=np.ones(3, dtype=complex), frequency=F_REF)
    with pytest.raises(ValueError):
        reflected_field(array, state, [0.0, 10.0, 0.0], np.array([5.0, 5.0, 0.0]))


def test_build_array_geometry():
    array = build_array(3, 4, F_REF, center=(1.0, 2.0, 3.0), plane="xz")
    lam = SPEED_OF_LIGHT / F_REF
    assert array.spacing == pytest.approx(0.5 * lam)
    assert array.n_elements == 12
    assert array.element_positions.shape == (12, 3)
    # centered grid: the mean element position is the center
    assert np.allclose(array.element_positions.mean(axis=0), [1.0, 2.0, 3.0])
    # xz plane: all y coordinates equal the center's y
    assert np.allclose(array.element_positions[:, 1], 2.0)
    assert np.allclose(array.normal, [0.0, 1.0, 0.0])
    # neighbor spacing along the column axis
    assert np.linalg.norm(array.element_positions[1] - array.element_positions[0]) \
        == pytest.approx(array.spacing)


@pytest.mark.parametrize("kwargs", [
    {"rows": 0, "cols": 2, "f_design": F_REF},
    {"rows": 2, "cols": 2, "f_design": 0.0},
    {"rows": 2, "cols": 2, "f_design": F_REF, "spacing_fraction": 0.0},
    {"rows": 2, "cols": 2, "f_design": F_REF, "plane": "ab"},
    {"rows": 2, "cols": 2, "f_design": F_REF, "element_pattern": "dipole"},
])
def test_build_array_validation(kwargs):
    with pytest.raises(ValueError):
        build_array(**kwargs)


def test_broadside_focus_peaks_at_zero():
    # uniform phases with a source far out on the normal: beam at broadside
    array = build_array(8, 8, F_REF)
    state = ScatteringState(gammas=np.ones(64, dtype=complex), frequency=F_REF)
    pattern = directivity_pattern(array, state, [0.0, 1e6, 0.0], FULL_GRID, axis_cut(array))
    assert main_lobe_angle(pattern) == pytest.approx(0.0, abs=0.05)
    assert np.max(pattern[:, 1]) == pytest.approx(0.0, abs=1e-12)


def test_directivity_pattern_arc_matches_pointwise():
    array = build_array(4, 4, F_REF)
    rng = np.random.default_rng(7)
    state = ScatteringState(gammas=np.exp(1j * rng.uniform(-np.pi, np.pi, 16)),
                            frequency=F_REF)
    source = [3.0, 20.0, 1.0]
    angles = np.array([-30.0, 0.0, 42.0])
    pattern = directivity_pattern(array, state, source, angles, axis_cut(array, 25.0))
    fields = []
    for th in np.radians(angles):
        direction = np.sin(th) * array.u_axis + np.cos(th) * array.normal
        obs = array.center + 25.0 * direction
        fields.append(abs(reflected_field(array, state, source, obs)) ** 2)
    fields = np.asarray(fields)
    expected_db = 10.0 * np.log10(fields / fields.max())
    assert np.allclose(pattern[:, 1], expected_db, atol=1e-9)


def test_directivity_pattern_validation():
    array = build_array(2, 2, F_REF)
    state = ScatteringState(gammas=np.ones(4, dtype=complex), frequency=F_REF)
    source = [0.0, 10.0, 0.0]
    with pytest.raises(ValueError):
        directivity_pattern(array, state, source, np.zeros((2, 2)), axis_cut(array))
    with pytest.raises(ValueError):
        directivity_pattern(array, state, source, np.array([]), axis_cut(array))


def test_pattern_floor_is_finite():
    # a null in the pattern must not produce -inf dB
    array = build_array(1, 2, F_REF)
    state = ScatteringState(gammas=np.array([1.0, -1.0], dtype=complex), frequency=F_REF)
    # on the broadside axis, so both elements are lit alike and broadside is a null
    pattern = directivity_pattern(array, state, [0.0, 1e3, 0.0], FULL_GRID, axis_cut(array))
    assert np.all(np.isfinite(pattern[:, 1]))
    assert np.min(pattern[:, 1]) >= -300.0 - 1e-9


def pointwise_power(array, state, source, angles, cut):
    """|field|^2 at each cut angle from one ``reflected_field`` call per angle."""
    power = []
    for th in np.radians(angles):
        direction = np.sin(th) * np.asarray(cut.sweep) + np.cos(th) * np.asarray(cut.reference)
        if cut.radius is None:
            f = reflected_field(array, state, source, direction, far_field=True)
        else:
            f = reflected_field(array, state, source, array.center + cut.radius * direction)
        power.append(abs(f) ** 2)
    return np.asarray(power)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8),
       plane=st.sampled_from(["xz", "xy", "yz"]),
       element_pattern=st.sampled_from(["isotropic", "cosine"]),
       radius=st.one_of(st.none(), st.floats(2.0, 60.0)),
       axis=st.sampled_from(["u", "v"]),
       n_angles=st.integers(1, 200),
       near=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_directivity_pattern_matches_pointwise_oracle(rows, cols, plane, element_pattern,
                                                      radius, axis, n_angles, near, seed):
    """The block evaluation reproduces a per-angle reflected_field loop.

    Up to 64 elements and 200 angles, so many cases span several angle
    blocks. Powers are compared on the pattern's own scale (peak 1).
    """
    rng = np.random.default_rng(seed)
    array = build_array(rows, cols, F_REF, center=rng.uniform(-3, 3, 3), plane=plane,
                        element_pattern=element_pattern)
    n = array.n_elements
    gammas = rng.uniform(0.2, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    state = ScatteringState(gammas=gammas, frequency=F_REF)
    # the source sits in front of the surface, so the cosine factor is not
    # zero on every element
    front = (array.normal * rng.uniform(0.5, 1.0)
             + 0.5 * rng.uniform(-1, 1) * array.u_axis + 0.5 * rng.uniform(-1, 1) * array.v_axis)
    source = array.center + (rng.uniform(2, 30) if near else 1e3) * front
    angles = np.sort(rng.uniform(-85.0, 85.0, n_angles))
    cut = axis_cut(array, radius, axis)

    pattern = directivity_pattern(array, state, source, angles, cut)
    want = pointwise_power(array, state, source, angles, cut)
    assert pattern.shape == (n_angles, 2)
    assert np.array_equal(pattern[:, 0], angles)
    np.testing.assert_allclose(10.0 ** (pattern[:, 1] / 10.0), want / want.max(),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("element_pattern", ["isotropic", "cosine"])
@pytest.mark.parametrize("radius", [None, 12.0])
def test_directivity_pattern_stack_equals_single_calls(radius, element_pattern, rng):
    # 400 elements and 150 angles: the cut spans four angle blocks
    array = build_array(20, 20, F_REF, element_pattern=element_pattern)
    source = [4.0, 30.0, 2.0]
    angles = np.linspace(-75.0, 75.0, 150)
    cut = axis_cut(array, radius)
    gammas = np.exp(1j * rng.uniform(-np.pi, np.pi, (3, array.n_elements)))
    stacked = directivity_pattern(array, ScatteringState(gammas, F_REF), source, angles, cut)
    assert stacked.shape == (3, len(angles), 2)
    for s in range(3):
        single = directivity_pattern(array, ScatteringState(gammas[s], F_REF), source,
                                     angles, cut)
        assert np.array_equal(stacked[s], single)


@pytest.mark.parametrize("element_pattern", ["isotropic", "cosine"])
@pytest.mark.parametrize("radius", [None, 12.0])
def test_directivity_pattern_mixed_carriers_equal_lone_calls(radius, element_pattern, rng):
    """States at several carriers, lone and stacked and handed over by an iterator,
    share one call and one geometry pass per block, yet each gets the bits of a call on
    it alone: in blocks of 40 angles, on a grid one past whole blocks (its last
    product a one-row dot), and in blocks of one angle."""
    array = build_array(20, 20, F_REF, element_pattern=element_pattern)
    source = [4.0, 30.0, 2.0]
    cut = axis_cut(array, radius)
    n = array.n_elements
    states = [ScatteringState(np.exp(1j * rng.uniform(-np.pi, np.pi, shape)), f)
              for shape, f in [((n,), 2.75e9), ((4, n), F_REF), ((n,), F_REF),
                               ((1, n), 2.52e9), ((2, n), 2.75e9)]]
    for n_angles, block_terms in [(170, array_field._BLOCK_TERMS),
                                  (161, array_field._BLOCK_TERMS), (41, n)]:
        angles = np.linspace(-80.0, 80.0, n_angles)
        with mock.patch.object(array_field, "_BLOCK_TERMS", block_terms):
            patterns = directivity_pattern(array, iter(states), source, angles, cut)
            assert isinstance(patterns, list) and len(patterns) == len(states)
            for state, pattern in zip(states, patterns):
                lone = directivity_pattern(array, state, source, angles, cut)
                assert pattern.shape == lone.shape
                assert np.array_equal(pattern, lone)
                for s, row in enumerate(np.atleast_2d(state.gammas)):
                    alone = directivity_pattern(array, ScatteringState(row, state.frequency),
                                                source, angles, cut)
                    assert np.array_equal(pattern.reshape(-1, n_angles, 2)[s], alone)


def blockwise_power(array, state, source, angles, cut, block):
    """|field|^2 per angle, taken the way a call takes its grid: blocks of ``block``
    angles, one matrix-vector product per block, and a one-angle block through numpy's
    one-row product."""
    k = 2.0 * np.pi * state.frequency / SPEED_OF_LIGHT
    d_in, cos_in = _feed_geometry(array, source)
    weights = (_incident(k, d_in) * state.gammas)[:, None]
    far = cut.radius is None
    obs = cut.directions(angles) if far else array.center + cut.radius * cut.directions(angles)
    power = [np.abs(np.matmul(_outgoing_block(k, *_block_geometry(
                 array, obs[start:start + block], far, cos_in), far), weights)[:, 0]) ** 2
             for start in range(0, len(angles), block)]
    return np.concatenate(power)


@pytest.mark.parametrize("radius", [None, 12.0])
@pytest.mark.parametrize("n_angles", [1, 39, 40, 41, 42, 81, 721])
def test_lone_call_keeps_its_blockwise_products(radius, n_angles, rng):
    """A lone call takes its grid block by block: a grid one past whole blocks ends in
    a one-angle product, whose bits differ from those of a row of a matrix-vector
    product."""
    array = build_array(20, 20, F_REF, element_pattern="cosine")
    state = ScatteringState(np.exp(1j * rng.uniform(-np.pi, np.pi, array.n_elements)), F_REF)
    angles, cut = FULL_GRID[:n_angles], axis_cut(array, radius)
    want = _to_db(blockwise_power(array, state, [4.0, 30.0, 2.0], angles, cut, 40)[None],
                  angles)[0]
    assert np.array_equal(directivity_pattern(array, state, [4.0, 30.0, 2.0], angles, cut), want)


def test_directivity_pattern_takes_one_grid_per_state():
    array = build_array(2, 2, F_REF)
    states = [ScatteringState(np.ones(4, dtype=complex), F_REF),
              ScatteringState(np.ones(4, dtype=complex), 2.6e9)]
    feed, cut = [0.0, 10.0, 0.0], axis_cut(array)
    # a grid per state, or any other list of grids, is not one grid
    for grids in ([FULL_GRID], [FULL_GRID] * 2, [FULL_GRID] * 3, (FULL_GRID,)):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            directivity_pattern(array, states, feed, grids, cut)
    with pytest.raises(ValueError):
        directivity_pattern(array, states, feed, [FULL_GRID, np.zeros((2, 2))], cut)
    # one grid as a list of angles is still one grid for every state
    shared = directivity_pattern(array, states, feed, [0.0, 30.0], cut)
    assert [p.shape for p in shared] == [(2, 2), (2, 2)]


def test_directivity_pattern_sequence_checks_every_state():
    array = build_array(2, 2, F_REF)
    good = ScatteringState(np.ones(4, dtype=complex), F_REF)
    bad = ScatteringState(np.ones(3, dtype=complex), 2.6e9)
    with pytest.raises(ValueError, match="array size"):
        directivity_pattern(array, [good, bad], [0.0, 10.0, 0.0], FULL_GRID, axis_cut(array))
    zero = ScatteringState(np.zeros(4, dtype=complex), 2.6e9)
    with pytest.raises(ValueError, match="identically zero"):
        directivity_pattern(array, [good, zero], [0.0, 10.0, 0.0], FULL_GRID, axis_cut(array))


def test_outgoing_block_matches_reflected_field_distances(rng):
    """Near-field factors are the phasors of the per-observation distances of
    reflected_field times their reciprocals, bit for bit."""
    array = build_array(20, 20, F_REF, center=rng.uniform(-3, 3, 3))
    k = 2.0 * np.pi * F_REF / SPEED_OF_LIGHT
    points = array.center + 7.5 * rng.normal(size=(50, 3))
    factors = _outgoing_block(k, *_block_geometry(array, points, False, None), False)
    for row, point in zip(factors, points):
        d = np.linalg.norm(point - array.element_positions, axis=1)
        assert np.array_equal(row, _phasor(k / (2.0 * np.pi) * d, 1.0 / d))


@pytest.mark.parametrize("plane", ["xz", "xy", "yz"])
def test_outgoing_block_cosines_match_full_vectors(plane, rng):
    """Cosine factors taken from the block's own distances equal those of the
    (B, N, 3) element-to-observation vectors and their norms, bit for bit."""
    array = build_array(6, 5, F_REF, center=rng.uniform(-3, 3, 3), plane=plane,
                        element_pattern="cosine")
    k = 2.0 * np.pi * F_REF / SPEED_OF_LIGHT
    dirs = rng.normal(size=(40, 3))
    cos_in = rng.uniform(0.0, 1.0, array.n_elements)
    to_obs = (array.center + 4.0 * dirs)[:, None, :] - array.element_positions
    d = np.linalg.norm(to_obs, axis=-1)
    cos_out = np.maximum((to_obs @ array.normal) / d, 0.0)
    want = _phasor(k / (2.0 * np.pi) * d, cos_in * cos_out / d)
    geometry = _block_geometry(array, array.center + 4.0 * dirs, False, cos_in)
    assert np.array_equal(_outgoing_block(k, *geometry, False), want)


@pytest.mark.parametrize("radius", [None, 12.0])
def test_directivity_pattern_memory_is_blocked(radius, rng):
    # the full (angles x elements) matrix would be 12.8 MB; the blocks stay far below
    array = build_array(20, 20, F_REF)
    state = ScatteringState(np.exp(1j * rng.uniform(-np.pi, np.pi, (3, array.n_elements))),
                            F_REF)
    angles = np.linspace(-90.0, 90.0, 2000)
    tracemalloc.start()
    try:
        pattern = directivity_pattern(array, state, [4.0, 30.0, 2.0], angles,
                                      axis_cut(array, radius))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pattern.nbytes + 2 * 2 ** 20


@pytest.mark.parametrize("shape", [(3,), (2, 5), (2, 2, 4), ()])
def test_directivity_pattern_state_shape_mismatch(shape):
    array = build_array(2, 2, F_REF)
    state = ScatteringState(gammas=np.ones(shape, dtype=complex), frequency=F_REF)
    with pytest.raises(ValueError, match="array size"):
        directivity_pattern(array, state, [0.0, 10.0, 0.0], FULL_GRID, axis_cut(array))


def test_directivity_pattern_observation_on_element():
    # zero angle points exactly along the row, so the arc of radius one
    # spacing passes through the last element
    array = build_array(1, 3, F_REF)
    state = ScatteringState(gammas=np.ones(3, dtype=complex), frequency=F_REF)
    cut = PatternCut(radius=array.spacing, sweep=(0.0, 1.0, 0.0), reference=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="coincides"):
        directivity_pattern(array, state, [0.0, 10.0, 0.0], np.array([30.0, 0.0]), cut)


def test_total_scattered_power_bounded(rng):
    """Far-field power integral never exceeds the per-element power budget."""
    array = build_array(3, 3, F_REF)
    n = array.n_elements
    gammas = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    state = ScatteringState(gammas=gammas, frequency=F_REF)
    source = np.array([0.0, 1e3, 0.0])
    # Fibonacci sphere quadrature of |field|^2 over all directions
    m = 1500
    i = np.arange(m)
    phi = np.arccos(1.0 - 2.0 * (i + 0.5) / m)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    dirs = np.column_stack([np.sin(phi) * np.cos(theta),
                            np.sin(phi) * np.sin(theta), np.cos(phi)])
    total = np.mean([abs(reflected_field(array, state, source, d, far_field=True)) ** 2
                     for d in dirs])
    k = 2.0 * np.pi * F_REF / SPEED_OF_LIGHT
    d_in = np.linalg.norm(array.element_positions - source, axis=1)
    a_in = np.exp(-1j * k * d_in) / d_in
    budget = float(np.sum(np.abs(a_in * gammas) ** 2))
    assert total <= budget * 1.05


# --- pattern cuts -----------------------------------------------------------

def test_cut_validation():
    with pytest.raises(ValueError):
        PatternCut(0.0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        PatternCut(None, (2.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        PatternCut(None, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def test_cut_angle_of_default_axes():
    array = build_array(2, 2, F_REF)
    cut = axis_cut(array)
    assert cut.angle_of(array, [0.0, 5.0, 0.0]) == pytest.approx(0.0)
    assert cut.angle_of(array, [5.0, 0.0, 0.0]) == pytest.approx(90.0)
    assert cut.angle_of(array, [-5.0, 5.0, 0.0]) == pytest.approx(-45.0)


def test_cut_through_points_geometry():
    array = build_array(20, 20, F_REF)
    bs = np.array([50.0, -50.0, 18.0])
    ue = np.array([3.0, 3.0, 0.0])
    cut = PatternCut.through_points(array, bs, ue, radius=float(np.linalg.norm(ue)))
    s = np.asarray(cut.sweep)
    r = np.asarray(cut.reference)
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-12)
    assert abs(float(s @ r)) < 1e-12
    # both scene points lie in the cut plane spanned by (sweep, reference)
    n = np.cross(s, r)
    assert abs(float(n @ bs)) < 1e-9
    assert abs(float(n @ ue)) < 1e-9
    # the second point is on the positive-angle side, inedpendently pinned
    assert cut.angle_of(array, ue) == pytest.approx(44.10079033417351, abs=1e-9)
    assert cut.angle_of(array, bs) == pytest.approx(134.10079033417351, abs=1e-6)


def test_cut_through_points_collinear():
    array = build_array(2, 2, F_REF)
    with pytest.raises(ValueError):
        PatternCut.through_points(array, [1.0, 1.0, 0.0], [2.0, 2.0, 0.0])


def test_cut_through_points_plane_contains_normal():
    # cut plane orthogonal to broadside has no zero-angle reference
    array = build_array(2, 2, F_REF)  # normal +y
    with pytest.raises(ValueError):
        PatternCut.through_points(array, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])


# --- main lobe refinement ---------------------------------------------------

def test_main_lobe_parabolic_refinement():
    # exact quadratic: the refined vertex must be recovered
    angles = np.arange(-5.0, 5.0 + 1e-9, 1.0)
    vertex = 1.37
    power = -(angles - vertex) ** 2
    pattern = np.column_stack([angles, power])
    assert main_lobe_angle(pattern) == pytest.approx(vertex, abs=1e-12)


def test_main_lobe_tie_resolves_to_first():
    angles = np.array([-1.0, 0.0, 1.0, 2.0])
    power = np.array([-3.0, 0.0, -1.0, 0.0])
    assert main_lobe_angle(np.column_stack([angles, power])) <= 0.5


def test_main_lobe_edge_and_flat():
    angles = np.array([0.0, 1.0, 2.0])
    assert main_lobe_angle(np.column_stack([angles, [0.0, -1.0, -2.0]])) == 0.0
    assert main_lobe_angle(np.column_stack([angles, [-2.0, -1.0, 0.0]])) == 2.0
    assert main_lobe_angle(np.column_stack([angles, [0.0, 0.0, 0.0]])) == 0.0


def test_main_lobe_stack_equals_single_calls(rng):
    """A (2, 3, A, 2) stack gets one angle per pattern, each the bits of a lone call,
    across interior peaks, edge peaks, plateaus and ties."""
    angles = np.linspace(-60.0, 60.0, 41)
    power = rng.normal(size=(2, 3, len(angles)))
    power[0, 1, 0] = power[1, 0, -1] = 10.0           # peaks on either edge
    power[0, 2, 5:8] = power.max() + 1.0               # plateau
    power[1, 1, [9, 30]] = power.max() + 2.0           # tie: the first wins
    stack = np.stack([np.broadcast_to(angles, power.shape), power], axis=-1)
    peaks = main_lobe_angle(stack)
    assert peaks.shape == (2, 3)
    for index in np.ndindex(2, 3):
        single = main_lobe_angle(stack[index])
        assert isinstance(single, float)
        assert peaks[index] == single
    assert peaks[0, 1] == angles[0] and peaks[1, 0] == angles[-1]
    assert angles[5] < peaks[0, 2] < angles[6] and abs(peaks[1, 1] - angles[9]) <= 3.0


@pytest.mark.parametrize("n_angles", [1, 2])
def test_main_lobe_short_patterns_keep_the_grid_angle(n_angles):
    pattern = np.column_stack([np.arange(n_angles, dtype=float), -np.arange(n_angles)[::-1]])
    assert main_lobe_angle(pattern) == n_angles - 1.0
    assert main_lobe_angle(pattern[None]).tolist() == [n_angles - 1.0]


def test_main_lobe_validation():
    with pytest.raises(ValueError):
        main_lobe_angle(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        main_lobe_angle(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        main_lobe_angle(np.zeros(2))
    with pytest.raises(ValueError):
        main_lobe_angle(np.zeros((4, 0, 2)))


def test_pattern_to_csv_format():
    pattern = np.array([[-46.25, 0.0], [44.125, -12.3456789123]])
    text = pattern_to_csv(pattern)
    lines = text.splitlines()
    assert lines[0] == "angle_deg,power_db"
    assert lines[1] == "-46.25,0"
    assert lines[2] == "44.125,-12.3456789"
    assert text.endswith("\n")
    parsed = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert np.allclose(parsed, pattern, atol=1e-7)


# signed zeros, the smallest subnormal, the largest magnitudes, non-finite dB, and
# exact binary values whose 10th significant digit is a 5: 9-digit rounding ties
CSV_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan, 1.0,
                   1234567.125, -1234567.375, 123456788.5, 123456789.5, 0.0078125, 2.0 ** -30]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(fields=st.lists(st.floats(), max_size=40), seed=st.integers(0, 2 ** 32 - 1))
def test_pattern_to_csv_equals_row_by_row_text(fields, seed):
    """The one-call CSV text is byte-equal to formatting each row with an f-string:
    on any floats, on a random 361-angle pattern, and on the edge values."""
    rng = np.random.default_rng(seed)
    patterns = [np.array(fields[:len(fields) // 2 * 2], dtype=float).reshape(-1, 2),
                np.column_stack([np.linspace(-90.0, 90.0, 361),
                                 rng.normal(size=361) * 10.0 ** rng.uniform(-8, 8, 361)]),
                np.array(CSV_EDGE_VALUES).reshape(-1, 2)]
    for pattern in patterns:
        rows = "".join(f"{angle:.9g},{db:.9g}\n" for angle, db in pattern.tolist())
        assert pattern_to_csv(pattern) == "angle_deg,power_db\n" + rows
