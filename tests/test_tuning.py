"""Surface tuning: closed-form alignment, coordinate ascent, realization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squintsim import tuning
from squintsim import (ChannelSet, CircuitParams, OptimizationLog, ScatteringState,
                       align_phases_single_target, evaluate_off_frequency,
                       optimize_weighted_sum_power, realize_capacitances,
                       weighted_sum_power)
from squintsim.circuit import element_reflection, wrap_phase
from squintsim.errors import DegenerateChannelError

F1 = 2.5e9


def cplx(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def make_set(rng, rx=1, tx=1, n_el=16, frequency=F1, blocked=False):
    # a blocked user has a zero direct matrix; it is drawn anyway to keep the stream
    direct = cplx(rng, (rx, tx))
    return ChannelSet(direct=np.zeros_like(direct) if blocked else direct,
                      bs_to_ris=cplx(rng, (n_el, tx)), ris_to_ue=cplx(rng, (rx, n_el)),
                      frequency=frequency)


# --- closed-form single-target alignment ------------------------------------

def test_align_reaches_coherent_sum(rng):
    chs = make_set(rng)
    state = align_phases_single_target(chs)
    cascade = chs.ris_to_ue[0, :] * chs.bs_to_ris[:, 0]
    h = chs.direct[0, 0] + state.gammas @ cascade
    expected = abs(chs.direct[0, 0]) + np.abs(cascade).sum()
    assert abs(h) == pytest.approx(expected, rel=1e-12)
    # phase of the total equals the direct path's phase
    assert np.angle(h) == pytest.approx(np.angle(chs.direct[0, 0]), abs=1e-12)


def test_align_blocked_uses_zero_reference(rng):
    chs = make_set(rng, blocked=True)
    state = align_phases_single_target(chs)
    cascade = chs.ris_to_ue[0, :] * chs.bs_to_ris[:, 0]
    h = state.gammas @ cascade
    assert h.imag == pytest.approx(0.0, abs=1e-12 * abs(h))
    assert h.real == pytest.approx(np.abs(cascade).sum(), rel=1e-12)


def test_align_requires_single_antenna_pair(rng):
    with pytest.raises(ValueError, match="optimize_weighted_sum_power"):
        align_phases_single_target(make_set(rng, tx=2))


def test_align_zero_cascade_error(rng):
    chs = make_set(rng)
    chs.ris_to_ue = np.zeros_like(chs.ris_to_ue)
    with pytest.raises(DegenerateChannelError):
        align_phases_single_target(chs)


def test_align_is_global_optimum(rng):
    """No random phase profile beats the closed form."""
    chs = make_set(rng, n_el=8)
    state = align_phases_single_target(chs)
    best = weighted_sum_power([chs], state)
    for _ in range(500):
        trial = ScatteringState(gammas=np.exp(1j * rng.uniform(-np.pi, np.pi, 8)),
                                frequency=F1)
        assert weighted_sum_power([chs], trial) <= best * (1.0 + 1e-12)


# --- weighted objective ------------------------------------------------------

def test_weighted_sum_power_manual(rng):
    chs = make_set(rng, n_el=4)
    state = ScatteringState(gammas=np.exp(1j * rng.uniform(-np.pi, np.pi, 4)),
                            frequency=F1)
    h = chs.direct[0, 0] + (chs.ris_to_ue[0, :] * state.gammas) @ chs.bs_to_ris[:, 0]
    assert weighted_sum_power([chs], state) == pytest.approx(abs(h) ** 2, rel=1e-12)


def test_weighted_sum_power_validation(rng):
    state = ScatteringState(gammas=np.ones(4, dtype=complex), frequency=F1)
    with pytest.raises(ValueError):
        weighted_sum_power([], state)
    chs = make_set(rng, n_el=4)
    other = make_set(rng, n_el=4, frequency=2.6e9)
    with pytest.raises(ValueError):
        weighted_sum_power([chs, other], state)
    short = make_set(rng, n_el=3)
    with pytest.raises(ValueError):
        weighted_sum_power([chs, short], state)


# --- coordinate ascent -------------------------------------------------------

def test_ascent_monotone_trace(rng):
    for _ in range(10):
        sets = [make_set(rng, n_el=12), make_set(rng, n_el=12)]
        log = OptimizationLog()
        optimize_weighted_sum_power(sets, log=log)
        trace = np.asarray(log.objectives)
        assert len(trace) >= 2
        assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
        assert log.converged


def test_ascent_matches_closed_form_single_target(rng):
    for _ in range(10):
        chs = make_set(rng, n_el=10)
        closed = align_phases_single_target(chs)
        iterated = optimize_weighted_sum_power([chs], tol=1e-14)
        p_closed = weighted_sum_power([chs], closed)
        p_iter = weighted_sum_power([chs], iterated)
        assert p_iter == pytest.approx(p_closed, rel=1e-9)


def test_ascent_unit_magnitudes(rng):
    state = optimize_weighted_sum_power([make_set(rng), make_set(rng)])
    assert np.allclose(np.abs(state.gammas), 1.0, atol=1e-12)


def test_ascent_iteration_cap(rng):
    sets = [make_set(rng, n_el=16), make_set(rng, n_el=16)]
    log = OptimizationLog()
    optimize_weighted_sum_power(sets, max_iters=1, tol=0.0, log=log)
    assert len(log.objectives) == 2
    assert not log.converged
    with pytest.raises(ValueError):
        optimize_weighted_sum_power(sets, max_iters=0)
    with pytest.raises(ValueError):
        optimize_weighted_sum_power(sets, tol=-1.0)


def test_ascent_stack_matches_single_runs(rng):
    """Each realization of a stack gets the phases, trace and flag of a run on it alone."""
    sets = [make_set(rng, rx=2, tx=3, n_el=12) for _ in range(6)]
    stacked = ChannelSet(direct=np.stack([chs.direct for chs in sets]),
                         bs_to_ris=np.stack([chs.bs_to_ris for chs in sets]),
                         ris_to_ue=np.stack([chs.ris_to_ue for chs in sets]), frequency=F1)
    log = OptimizationLog()
    state = optimize_weighted_sum_power([stacked], max_iters=50, log=log)
    assert 0 < log.converged_each.sum() < len(sets)
    assert log.converged == bool(log.converged_each.all())
    for r, chs in enumerate(sets):
        alone = OptimizationLog()
        single = optimize_weighted_sum_power([chs], max_iters=50, log=alone)
        assert np.array_equal(state.gammas[r], single.gammas)
        trace = [float(objectives[r]) for objectives in log.objectives]
        assert trace[:len(alone.objectives)] == alone.objectives
        assert set(trace[len(alone.objectives) - 1:]) == {alone.objectives[-1]}
        assert log.converged_each[r] == alone.converged


def reference_ascent(channel_sets, max_iters=200, tol=1e-6):
    """The ascent stepped realization-major: (realizations x elements) phases, and per
    step a conjugated copy of the element's cascade and the correlation as a batched
    (R, 1, E) @ (R, E, 1) product. Returns the phases, per-sweep objectives and flags."""
    _, base, cascades = tuning._flat_terms(channel_sets)
    conj = cascades.conj()
    theta = np.ones((len(base), len(conj)), dtype=complex)
    residual = tuning._residual(theta, base, cascades)
    current = tuning._power(residual)
    trace = [current]
    converged = np.zeros(len(theta), dtype=bool)
    for _ in range(max_iters):
        for n, c in enumerate(conj):
            cascade = c.conj()
            residual -= theta[:, n, None] * cascade
            s = (residual[:, None, :] @ c[:, :, None])[:, 0, 0]
            mag = np.abs(s)
            np.divide(s, mag, out=theta[:, n], where=mag > 0)
            residual += theta[:, n, None] * cascade
        previous, current = current, tuning._power(residual)
        trace.append(current)
        done = ~converged & (current - previous <= tol * np.maximum(previous,
                                                                    np.finfo(float).tiny))
        converged |= done
        conj[:, done] = 0.0
        if converged.all():
            break
    return theta, trace, converged


# (users, BS antennas) of each target set: 1, 7, 8 and 41 entries per row
TARGET_SHAPES = [((1, 1),), ((1, 7),), ((2, 4),), ((1, 4), (2, 2)), ((4, 10), (1, 1))]


@pytest.mark.parametrize("shapes", TARGET_SHAPES, ids=lambda shapes: "+".join(
    f"{u}x{m}" for u, m in shapes))
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(n_real=st.none() | st.integers(1, 300), n_el=st.integers(1, 12),
       max_iters=st.sampled_from([1, 2, 200]), tol=st.sampled_from([0.0, 1e-6, 1e-3]),
       zeros=st.sampled_from(["none", "elements", "realizations", "all"]),
       blocked=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n_real=None, n_el=5, max_iters=200, tol=1e-6, zeros="none", blocked=False, seed=1)
@example(n_real=40, n_el=6, max_iters=1, tol=1e-6, zeros="none", blocked=True, seed=2)
@example(n_real=40, n_el=6, max_iters=200, tol=0.0, zeros="elements", blocked=True, seed=3)
@example(n_real=3, n_el=4, max_iters=200, tol=1e-6, zeros="all", blocked=True, seed=4)
@example(n_real=None, n_el=4, max_iters=200, tol=0.0, zeros="all", blocked=False, seed=5)
def test_ascent_matches_the_realization_major_reference(shapes, n_real, n_el, max_iters, tol,
                                                       zeros, blocked, seed):
    """Phases, every sweep's objectives and the convergence flags equal the reference's
    bits, unstacked (``n_real`` None) or stacked, over one or two target sets; a zero
    cascade, of some elements, some realizations or all, leaves its phases at 1."""
    rng = np.random.default_rng(seed)
    lead = () if n_real is None else (n_real,)
    zero_rows = rng.random(n_real or 1) < 0.5
    sets = []
    for n_ue, n_bs in shapes:
        direct = cplx(rng, lead + (n_ue, n_bs))
        ris_to_ue = cplx(rng, lead + (n_ue, n_el))
        if zeros == "elements":
            ris_to_ue[..., : (n_el + 1) // 2] = 0.0
        elif zeros == "realizations" and n_real is not None:
            ris_to_ue[zero_rows] = 0.0
        elif zeros == "all":
            ris_to_ue[...] = 0.0
        sets.append(ChannelSet(direct=0.0 * direct if blocked else direct,
                               bs_to_ris=cplx(rng, lead + (n_el, n_bs)), ris_to_ue=ris_to_ue,
                               frequency=F1))
    log = OptimizationLog()
    state = optimize_weighted_sum_power(sets, max_iters=max_iters, tol=tol, log=log)
    theta, trace, converged = reference_ascent(sets, max_iters=max_iters, tol=tol)
    if n_real is None:
        assert state.gammas.shape == (n_el,)
        assert np.array_equal(state.gammas, theta[0])
        assert log.objectives == [float(objective[0]) for objective in trace]
    else:
        assert np.array_equal(state.gammas, theta)
        assert len(log.objectives) == len(trace)
        assert all(np.array_equal(got, want) for got, want in zip(log.objectives, trace))
    assert np.array_equal(log.converged_each, converged)
    assert log.converged == bool(converged.all())


# --- hardware realization ----------------------------------------------------

def test_realize_caps_reproduce_circuit(params, rng):
    chs = make_set(rng)
    state = align_phases_single_target(chs)
    result = realize_capacitances(state, params)
    assert result.frequency == F1
    assert result.capacitances.shape == (16,)
    assert np.all(result.capacitances >= params.c_min)
    assert np.all(result.capacitances <= params.c_max)
    again = element_reflection(result.capacitances, F1, params)
    assert np.array_equal(evaluate_off_frequency(result, F1).gammas, again)
    realized = ScatteringState(gammas=again, frequency=F1)
    assert weighted_sum_power([chs], state) >= weighted_sum_power([chs], realized) > 0.0


def test_realize_clamp_report(params):
    lo, hi = np.angle(element_reflection([params.c_min, params.c_max], F1, params))
    # one achievable target, one inside the unreachable arc
    targets = np.array([0.5, hi - 0.05])
    state = ScatteringState(gammas=np.exp(1j * targets), frequency=F1)
    result = realize_capacitances(state, params)
    assert result.clamped.tolist() == [False, True]
    achieved = np.angle(element_reflection(result.capacitances, F1, params))[1]
    assert achieved == pytest.approx(hi, abs=1e-9)
    assert abs(wrap_phase(targets[1] - achieved)) == pytest.approx(0.05, abs=1e-9)


def test_realize_lossy_circuit_hits_every_unclamped_target(rng):
    # at 5 ohm the phase is not monotone in c and spans well under a turn
    lossy = CircuitParams(r_loss=5.0)
    targets = rng.uniform(-np.pi, np.pi, 400)
    state = ScatteringState(gammas=np.exp(1j * targets), frequency=F1)
    result = realize_capacitances(state, lossy)
    free = ~result.clamped
    assert 0 < np.count_nonzero(free) < len(targets)
    err = np.abs(wrap_phase(np.angle(element_reflection(result.capacitances, F1, lossy))
                            - targets))
    assert np.max(err[free]) <= 1e-9


def test_realize_without_channel_sets(params, rng):
    state = ScatteringState(gammas=np.exp(1j * rng.uniform(-2.9, 2.8, 6)),
                            frequency=F1)
    result = realize_capacitances(state, params)
    assert not result.clamped.any()


# --- off-frequency evaluation -------------------------------------------------

def test_off_frequency_identity_at_design_carrier(params, rng):
    chs = make_set(rng)
    state = align_phases_single_target(chs)
    result = realize_capacitances(state, params)
    at_f1 = evaluate_off_frequency(result, F1)
    assert np.array_equal(at_f1.gammas, element_reflection(result.capacitances, F1, params))
    assert at_f1.frequency == F1


def test_off_frequency_differs_off_tune(params, rng):
    chs = make_set(rng)
    state = align_phases_single_target(chs)
    result = realize_capacitances(state, params)
    shifted = evaluate_off_frequency(result, 2.75e9)
    assert shifted.frequency == 2.75e9
    assert not np.allclose(shifted.gammas, element_reflection(result.capacitances, F1, params),
                           atol=1e-3)
    with pytest.raises(ValueError, match="frequency must be positive"):
        evaluate_off_frequency(result, 0.0)


def test_off_frequency_small_shift_small_change(params, rng):
    chs = make_set(rng)
    result = realize_capacitances(align_phases_single_target(chs), params)
    nearby = evaluate_off_frequency(result, F1 * (1.0 + 1e-7))
    assert np.allclose(nearby.gammas, element_reflection(result.capacitances, F1, params),
                       atol=1e-4)

