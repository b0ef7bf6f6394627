"""Element circuit: impedance, reflection, and phase inversion."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squintsim import (CircuitParams, ScatteringState, element_impedance, element_reflection,
                       evaluate_off_frequency, phase_to_capacitance, realize_capacitances)
from squintsim.circuit import _real_roots, wrap_phase

F_REF = 2.5e9

# Constants evaluated independently with 50-digit arithmetic.
Z_1PF_2P5GHZ = 8.5452388218882456 + 153.74615543535321j
PHASE_AT_CMIN = 2.8393438062823499
PHASE_AT_CMAX = -2.9977073678492217
MAG_AT_CMIN = 0.99889812666385701
MAG_AT_CMAX = 0.98497766600512415
SPAN_DEG = 334.43839707962081


def test_params_defaults(params):
    assert params.l_bottom == 2.5e-9
    assert params.l_top == 0.7e-9
    assert params.r_loss == 1.0
    assert params.c_min == 0.47e-12
    assert params.c_max == 2.35e-12
    assert params.z0 == pytest.approx(376.730313668, abs=0)


@pytest.mark.parametrize("kwargs", [
    {"l_bottom": 0.0},
    {"l_top": -1e-9},
    {"r_loss": -0.5},
    {"z0": 0.0},
    {"c_min": 0.0},
    {"c_min": 2e-12, "c_max": 1e-12},
    # per-case constants: one bad case rejects them all
    {"l_top": np.array([[1e-9], [-1e-9]])},
    {"c_max": np.array([[2e-12], [0.4e-12]])},
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        CircuitParams(**kwargs)


def test_impedance_pinned_value(params):
    z = element_impedance(1e-12, F_REF, params)
    assert abs(z - Z_1PF_2P5GHZ) <= 1e-12 * abs(Z_1PF_2P5GHZ)


def test_impedance_top_branch_resonance(params):
    # at f = 1/(2 pi sqrt(l_top c)) the series branch collapses to r_loss
    c = 1.2e-12
    f = 1.0 / (2.0 * np.pi * np.sqrt(params.l_top * c))
    z = element_impedance(c, f, params)
    zl1 = 1j * 2.0 * np.pi * f * params.l_bottom
    expected = zl1 * params.r_loss / (zl1 + params.r_loss)
    assert abs(z - expected) <= 1e-12 * abs(expected)


def test_impedance_lossless_is_purely_imaginary():
    p = CircuitParams(r_loss=0.0)
    for c in (0.5e-12, 1e-12, 2e-12):
        z = element_impedance(c, F_REF, p)
        assert z.real == pytest.approx(0.0, abs=1e-9)


def test_impedance_positive_real_part(params, rng):
    caps = rng.uniform(params.c_min, params.c_max, 200)
    freqs = rng.uniform(1e9, 6e9, 200)
    z = element_impedance(caps, freqs, params)
    assert np.all(z.real >= 0)


def test_impedance_domain_errors(params):
    with pytest.raises(ValueError):
        element_impedance(0.0, F_REF, params)
    with pytest.raises(ValueError):
        element_impedance(1e-12, 0.0, params)
    with pytest.raises(ValueError):
        element_impedance(np.array([1e-12, -1e-12]), F_REF, params)


def test_impedance_broadcasts(params):
    caps = np.array([0.5e-12, 1e-12, 2e-12])
    z = element_impedance(caps, F_REF, params)
    assert z.shape == (3,)
    for c, zi in zip(caps, z):
        assert zi == element_impedance(c, F_REF, params)


def test_reflection_pinned_endpoints(params):
    lo = element_reflection(params.c_min, F_REF, params)
    hi = element_reflection(params.c_max, F_REF, params)
    assert np.angle(lo) == pytest.approx(PHASE_AT_CMIN, abs=1e-12)
    assert np.angle(hi) == pytest.approx(PHASE_AT_CMAX, abs=1e-12)
    assert abs(lo) == pytest.approx(MAG_AT_CMIN, abs=1e-12)
    assert abs(hi) == pytest.approx(MAG_AT_CMAX, abs=1e-12)


def test_reflection_passive_on_grid(params):
    caps = np.linspace(params.c_min, params.c_max, 100)
    freqs = np.linspace(1e9, 6e9, 100)
    gamma = element_reflection(caps[None, :], freqs[:, None], params)
    assert gamma.shape == (100, 100)
    assert np.all(np.abs(gamma) <= 1.0 + 1e-12)


def test_reflection_lossless_unit_magnitude():
    p = CircuitParams(r_loss=0.0)
    caps = np.linspace(p.c_min, p.c_max, 100)
    freqs = np.linspace(1e9, 6e9, 100)
    gamma = element_reflection(caps[None, :], freqs[:, None], p)
    assert np.max(np.abs(np.abs(gamma) - 1.0)) < 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(r_loss=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
       l_bottom=st.floats(0.5e-9, 10e-9), z0=st.floats(50.0, 400.0),
       frequency=st.floats(1e9, 6e9),
       cases=st.lists(st.tuples(st.floats(0.1e-9, 3e-9), st.floats(0.1e-12, 2e-12),
                                st.floats(1.05, 10.0)), min_size=1, max_size=5),
       per_case=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_reflection_is_the_circuit_reflection(r_loss, l_bottom, z0, frequency, cases, per_case,
                                              seed):
    """The one Mobius map of the reactance is (Z - z0) / (Z + z0) of the circuit's
    impedance within 1e-13 relative, for scalar or (S, 1) constants and capacitances
    anywhere in range; |gamma| is 1 within 1e-15 without loss and at most 1 + 1e-15
    with it."""
    base = CircuitParams(r_loss=r_loss, l_bottom=l_bottom, z0=z0)
    column = np.array([[l_top, c_min, c_min * ratio] for l_top, c_min, ratio in cases]).T
    if per_case:
        params = replace(base, l_top=column[0, :, None], c_min=column[1, :, None],
                         c_max=column[2, :, None])
    else:
        params = replace(base, l_top=column[0, 0], c_min=column[1, 0], c_max=column[2, 0])
    spread = np.concatenate([[0.0, 1.0], np.random.default_rng(seed).uniform(0.0, 1.0, 30)])
    caps = params.c_min + (params.c_max - params.c_min) * spread
    z = element_impedance(caps, frequency, params)
    gamma = element_reflection(caps, frequency, params)
    assert gamma.shape == caps.shape
    assert np.all(np.abs(gamma - (z - z0) / (z + z0)) <= 1e-13 * np.abs((z - z0) / (z + z0)))
    if r_loss == 0.0:
        assert np.all(np.abs(np.abs(gamma) - 1.0) <= 1e-15)
    else:
        assert np.all(np.abs(gamma) <= 1.0 + 1e-15)


def test_reflection_phase_monotone_in_capacitance(params):
    caps = np.linspace(params.c_min, params.c_max, 10_000)
    phase = np.unwrap(np.angle(element_reflection(caps, F_REF, params)))
    assert np.all(np.diff(phase) < 0)


def test_phase_interval_span(params):
    lo, hi = np.angle(element_reflection([params.c_min, params.c_max], F_REF, params))
    assert lo == pytest.approx(PHASE_AT_CMIN, abs=1e-12)
    assert hi == pytest.approx(PHASE_AT_CMAX, abs=1e-12)
    span = np.degrees(lo - hi)
    assert span == pytest.approx(SPAN_DEG, abs=1e-6)
    assert span > 330.0


def test_phase_round_trip(params, rng):
    lo, hi = np.angle(element_reflection([params.c_min, params.c_max], F_REF, params))
    targets = rng.uniform(hi + 1e-9, lo - 1e-9, 1000)
    sol = phase_to_capacitance(targets, F_REF, params)
    assert not np.any(sol.clamped)
    err = np.abs(wrap_phase(np.angle(element_reflection(sol.capacitance, F_REF, params))
                            - targets))
    assert np.max(err) < 1e-6
    assert np.all(sol.capacitance >= params.c_min)
    assert np.all(sol.capacitance <= params.c_max)


def test_phase_round_trip_scalar(params):
    sol = phase_to_capacitance(0.5, F_REF, params)
    assert not sol.clamped
    gamma = element_reflection(sol.capacitance, F_REF, params)
    assert np.angle(gamma) == pytest.approx(0.5, abs=1e-6)


def test_phase_clamps_to_nearest_boundary(params):
    lo, hi = np.angle(element_reflection([params.c_min, params.c_max], F_REF, params))
    # just above the top of the achievable arc: clamp to c_min
    above = phase_to_capacitance(lo + 0.05, F_REF, params)
    assert above.clamped
    assert above.capacitance == params.c_min
    assert np.angle(element_reflection(above.capacitance, F_REF, params)) == \
        pytest.approx(lo, abs=1e-12)
    # just below the bottom (wrapped): clamp to c_max
    below = phase_to_capacitance(wrap_phase(hi - 0.05), F_REF, params)
    assert below.clamped
    assert below.capacitance == params.c_max
    assert np.angle(element_reflection(below.capacitance, F_REF, params)) == \
        pytest.approx(hi, abs=1e-12)


def test_phase_vectorized_matches_scalar(params, rng):
    targets = rng.uniform(-np.pi, np.pi, 16)
    batch = phase_to_capacitance(targets, F_REF, params)
    gammas = element_reflection(batch.capacitance, F_REF, params)
    for i, t in enumerate(targets):
        single = phase_to_capacitance(t, F_REF, params)
        assert batch.capacitance[i] == single.capacitance
        assert batch.clamped[i] == single.clamped
        assert np.angle(gammas[i]) == np.angle(element_reflection(single.capacitance, F_REF,
                                                                  params))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(r_loss=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
       l_bottom=st.floats(0.5e-9, 10e-9), z0=st.floats(50.0, 400.0),
       frequency=st.floats(1e9, 6e9), seed=st.integers(0, 2 ** 32 - 1))
def test_phase_inversion_matches_dense_sampling(r_loss, l_bottom, z0, frequency, seed):
    """Reachability and clamps agree with a dense sweep of the varactor range.

    With series loss the phase need not be monotone in c and may cover
    far less than a turn, so the reference is the phase sampled on a
    fine capacitance grid rather than the range-edge interval. Near a
    resonance adjacent samples lie up to about 0.01 rad apart, so a target
    counts as unreachable only when it is off every sample and off the
    short arc between every pair of adjacent samples.
    """
    p = CircuitParams(r_loss=r_loss, l_bottom=l_bottom, z0=z0)
    targets = np.random.default_rng(seed).uniform(-np.pi, np.pi, 64)
    sol = phase_to_capacitance(targets, frequency, p)
    assert np.all((sol.capacitance >= p.c_min) & (sol.capacitance <= p.c_max))
    achieved = np.angle(element_reflection(sol.capacitance, frequency, p))
    residual = np.abs(wrap_phase(targets - achieved))
    assert np.all(residual[~sol.clamped] <= 1e-9)

    grid = np.angle(element_reflection(np.linspace(p.c_min, p.c_max, 20_001),
                                       frequency, p))
    off = wrap_phase(targets[:, None] - grid[None, :])
    gap = np.abs(off)
    best = np.min(gap, axis=1)
    assert np.all(residual[sol.clamped] <= best[sol.clamped] + 1e-6)
    step = wrap_phase(np.diff(grid))
    between = np.any((off[:, :-1] * step >= 0) & (gap[:, :-1] <= np.abs(step)), axis=1)
    assert np.all(sol.clamped[(best > 1e-3) & ~between])


def tie_targets(params, frequency):
    """Targets a few ulps around both circular midpoints of the range-edge phases.

    Some of them are exactly as far from the phase at c_min as from the
    phase at c_max, so a clamp there has to break a tie.
    """
    p_lo, p_hi = np.angle(element_reflection(np.array([params.c_min, params.c_max]),
                                             frequency, params))
    mids = wrap_phase(np.array([(p_lo + p_hi) / 2, (p_lo + p_hi) / 2 + np.pi]))
    return (mids[:, None] + np.arange(-4, 5) * np.spacing(mids)[:, None]).ravel()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(r_loss=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
       l_bottom=st.floats(0.5e-9, 10e-9), z0=st.floats(50.0, 400.0),
       frequency=st.floats(1e9, 6e9),
       cases=st.lists(st.tuples(st.floats(0.1e-9, 3e-9), st.floats(0.1e-12, 2e-12),
                                st.floats(1.05, 10.0)), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
# 5 ohm: the phase has an extremum inside the range of both cases
@example(r_loss=5.0, l_bottom=2.5e-9, z0=376.730313668, frequency=2.5e9,
         cases=[(0.7e-9, 0.47e-12, 5.0), (0.4e-9, 0.3e-12, 8.0)], seed=0)
def test_phase_inversion_broadcasts_over_case_constants(r_loss, l_bottom, z0, frequency,
                                                        cases, seed):
    """S cases as (S, 1) constants give the bits of S calls with scalar constants.

    The targets are random, on each case's range edges, and at the edge
    midpoints where clamps tie; lossy constants put phase extrema inside
    the range, and narrow ranges leave most targets off the arc.
    """
    base = CircuitParams(r_loss=r_loss, l_bottom=l_bottom, z0=z0)
    singles = [replace(base, l_top=l_top, c_min=c_min, c_max=c_min * ratio)
               for l_top, c_min, ratio in cases]
    targets = np.concatenate(
        [np.random.default_rng(seed).uniform(-np.pi, np.pi, 32),
         *(np.angle(element_reflection(np.array([p.c_min, p.c_max]), frequency, p))
           for p in singles),
         *(tie_targets(p, frequency) for p in singles)])
    column = np.array([[p.l_top, p.c_min, p.c_max] for p in singles]).T[:, :, None]
    per_case = replace(base, l_top=column[0], c_min=column[1], c_max=column[2])
    stacked = phase_to_capacitance(targets, frequency, per_case)
    assert stacked.capacitance.shape == (len(singles), len(targets))
    gammas = element_reflection(stacked.capacitance, frequency, per_case)
    for s, p in enumerate(singles):
        single = phase_to_capacitance(targets, frequency, p)
        assert np.array_equal(stacked.capacitance[s], single.capacitance)
        assert np.array_equal(stacked.clamped[s], single.clamped)
        assert np.array_equal(gammas[s], element_reflection(single.capacitance, frequency, p))


def search_every_target(target_phase, frequency, params):
    """The closed-form inversion with the clamp search run over every target,
    reachable or not, on the broadcast shape of the solution."""
    target = wrap_phase(np.asarray(target_phase, dtype=float))
    w = 2.0 * np.pi * frequency
    z_b, z0, r = 1j * w * params.l_bottom, params.z0, params.r_loss
    a, b = 1j * (z_b - z0), r * (z_b - z0) - z0 * z_b
    c, d = 1j * (z_b + z0), r * (z_b + z0) + z0 * z_b
    p2, p1, p0 = a * np.conj(c), a * np.conj(d) + b * np.conj(c), b * np.conj(d)
    k = a * d - b * c
    rot = np.exp(-1j * target)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        wl_top = w * params.l_top
        y_lo, y_hi = (wl_top - 1.0 / (w * edge) for edge in (params.c_min, params.c_max))
        y = np.full(np.broadcast_shapes(target.shape, np.shape(y_lo), np.shape(y_hi)), np.nan)
        for root in _real_roots((rot * p2).imag, (rot * p1).imag, (rot * p0).imag):
            on_arc = (rot * ((p2 * root + p1) * root + p0)).real > 0
            y = np.where(np.isnan(y) & on_arc & (root >= y_lo) & (root <= y_hi), root, y)
        extrema = _real_roots((k * np.conj(a * c)).imag, (k * np.conj(a * d + b * c)).imag,
                              (k * np.conj(b * d)).imag)
        edges = [params.c_min, *(np.where((y_lo < e) & (e < y_hi), 1.0 / (w * (wl_top - e)),
                                          params.c_min) for e in extrema), params.c_max]
        reachable = ~np.isnan(y)
        cap = np.clip(1.0 / (w * (wl_top - y)), params.c_min, params.c_max)
    nearest, best = 0, np.inf
    for i, edge in enumerate(edges):
        gap = np.abs(wrap_phase(target - np.angle(element_reflection(edge, frequency, params))))
        nearest, best = np.where(gap < best, i, nearest), np.minimum(gap, best)
    cap = np.where(reachable, cap, np.choose(nearest, edges))
    return cap, ~reachable, element_reflection(cap, frequency, params)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(r_loss=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
       frequency=st.floats(1e9, 6e9),
       cases=st.lists(st.tuples(st.floats(0.1e-9, 3e-9), st.floats(0.1e-12, 2e-12),
                                st.floats(1.05, 10.0)), min_size=1, max_size=5),
       per_case=st.booleans(), n_targets=st.integers(0, 40),
       seed=st.integers(0, 2 ** 32 - 1))
@example(r_loss=5.0, frequency=2.5e9, cases=[(0.7e-9, 0.47e-12, 5.0), (0.4e-9, 0.3e-12, 8.0)],
         per_case=True, n_targets=40, seed=0)
def test_clamp_search_over_unreachable_targets_only(r_loss, frequency, cases, per_case,
                                                    n_targets, seed):
    """Searching the clamp edges only where a target is unreachable gives the bits of a
    search over every target: scalar or (S, 1) constants, 0-d or 1-d targets."""
    rng = np.random.default_rng(seed)
    base = CircuitParams(r_loss=r_loss)
    if per_case:
        column = np.array([[l_top, c_min, c_min * ratio] for l_top, c_min, ratio in cases]).T
        params = replace(base, l_top=column[0, :, None], c_min=column[1, :, None],
                         c_max=column[2, :, None])
    else:
        l_top, c_min, ratio = cases[0]
        params = replace(base, l_top=l_top, c_min=c_min, c_max=c_min * ratio)
    for targets in (rng.uniform(-np.pi, np.pi, n_targets), rng.uniform(-np.pi, np.pi)):
        got = phase_to_capacitance(targets, frequency, params)
        cap, clamped, gamma = search_every_target(targets, frequency, params)
        assert np.array_equal(got.capacitance, cap)
        assert np.array_equal(got.clamped, clamped)
        assert np.array_equal(element_reflection(got.capacitance, frequency, params), gamma)


@pytest.mark.parametrize("shape", [(1,), (1, 12), (3, 12), (2, 1, 12)])
def test_clamp_gathers_targets_of_any_broadcast_shape(shape, rng):
    """Targets of any shape that broadcasts against (S, 1) constants, one of one
    element, a row, the solution's shape or one with an extra axis, clamp as the
    search over every target does."""
    cases = np.array([[0.7e-9, 0.47e-12, 2.35e-12], [0.4e-9, 0.3e-12, 2.4e-12],
                      [1.1e-9, 0.9e-12, 1.35e-12]]).T[:, :, None]
    params = replace(CircuitParams(r_loss=5.0), l_top=cases[0], c_min=cases[1], c_max=cases[2])
    targets = rng.uniform(-np.pi, np.pi, shape)
    got = phase_to_capacitance(targets, F_REF, params)
    cap, clamped, _ = search_every_target(targets, F_REF, params)
    assert got.capacitance.shape == np.broadcast_shapes(shape, (3, 1))
    assert np.array_equal(got.capacitance, cap)
    assert np.array_equal(got.clamped, clamped)
    assert shape == (1,) or 0 < np.count_nonzero(clamped) < clamped.size


def case_sweep(rng):
    """fig3's sensitivity sweep: 90 (l_top, c_min, c_max) cases as (90, 1) constants,
    and 400 target phases."""
    l_top = np.repeat(np.linspace(0.4e-9, 1.2e-9, 9), 10)[:, None]
    c_min = np.tile(np.linspace(0.4e-12, 0.9e-12, 10), 9)[:, None]
    params = replace(CircuitParams(), l_top=l_top, c_min=c_min, c_max=3.0 * c_min)
    return params, rng.uniform(-np.pi, np.pi, 400)


def traced_peak(call, *args):
    """``call(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_phase_inversion_of_a_case_sweep_keeps_few_temporaries(rng):
    """fig3's sensitivity sweep, 90 cases by 400 targets: the inversion's peak stays
    near 3.3 times its capacitances and flags; it reads 3.8 times when the roots ``y``
    are held to the end."""
    params, targets = case_sweep(rng)
    solution, peak = traced_peak(phase_to_capacitance, targets, F_REF, params)
    assert 0 < np.count_nonzero(solution.clamped) < solution.clamped.size
    assert peak < 3.6 * (solution.capacitance.nbytes + solution.clamped.nbytes)


def test_evaluation_of_a_case_sweep_keeps_few_temporaries(rng):
    """The sweep's (90, 400) frozen capacitances evaluated at a carrier: one real
    reactance array, the Mobius map's numerator and denominator with the division
    written into the numerator, and numpy's buffer for casting the reactance to
    complex keep the peak near 2.7 times the result, not 4."""
    params, targets = case_sweep(rng)
    tuning = realize_capacitances(ScatteringState(np.exp(1j * targets), F_REF), params)
    state, peak = traced_peak(evaluate_off_frequency, tuning, 2.75e9, params)
    assert state.gammas.shape == (90, 400)
    assert peak < 3.0 * state.gammas.nbytes


def test_wrap_phase_range():
    assert wrap_phase(np.pi) == pytest.approx(np.pi)
    assert wrap_phase(-np.pi) == pytest.approx(np.pi)
    assert wrap_phase(3.0 * np.pi / 2.0) == pytest.approx(-np.pi / 2.0)
    x = np.linspace(-10, 10, 1001)
    w = wrap_phase(x)
    assert np.all(w > -np.pi - 1e-15)
    assert np.all(w <= np.pi + 1e-15)
    # wrapping preserves the angle modulo a full turn
    assert np.allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)
