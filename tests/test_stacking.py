"""A stacked call gives every realization the bits of a call on it alone.

A sweep point equals a lone run only if no result depends on how many
realizations share a stack, or on which buffers hold them. Each check
draws a stack, lays its operands out contiguously, as fresh copies or as
strided views, and compares sampled realizations with one-realization calls.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from squintsim import (ChannelSet, CircuitParams, ScatteringState, effective_channel,
                       link_metrics, mrt_precoder, optimize_weighted_sum_power, zf_precoder)
from squintsim import engine
from squintsim.circuit import element_reflection, phase_to_capacitance

F = 2.5e9
USERS, ANTENNAS, ELEMENTS = 4, 10, 4        # 40 owner entries, as fig5's owner has
LAYOUTS = ("contiguous", "copy", "strided")


def laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """``x`` as it is, as a fresh copy, or as every other row of a larger array."""
    if layout == "copy":
        return x.copy()
    if layout == "strided":
        wide = np.zeros((2 * len(x),) + x.shape[1:], dtype=x.dtype)
        wide[::2] = x
        return wide[::2]
    return x


def cplx(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def channel_set(parts, layout, rows=slice(None)) -> ChannelSet:
    return ChannelSet(*(laid_out(part[rows], layout) for part in parts), frequency=F)


def sampled(rng, n_real):
    """The first and last realization and a few between."""
    return sorted({0, n_real - 1, *rng.integers(0, n_real, size=3).tolist()})


stacks = st.fixed_dictionaries({
    "n_real": st.integers(1, engine._BLOCK_TERMS // (USERS * ANTENNAS * ELEMENTS)),
    "layout": st.sampled_from(LAYOUTS), "alone": st.sampled_from(LAYOUTS),
    "seed": st.integers(0, 2**32 - 1)})


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(stacks)
def test_stacked_linear_algebra_matches_one_realization_calls(stack):
    rng = np.random.default_rng(stack["seed"])
    n_real, layout, alone = stack["n_real"], stack["layout"], stack["alone"]
    parts = (cplx(rng, (n_real, USERS, ANTENNAS)), cplx(rng, (n_real, ELEMENTS, ANTENNAS)),
             cplx(rng, (n_real, USERS, ELEMENTS)))
    gammas = np.exp(1j * rng.uniform(-np.pi, np.pi, (n_real, ELEMENTS)))
    h = effective_channel(channel_set(parts, layout), ScatteringState(laid_out(gammas, layout), F))
    zf, mrt = zf_precoder(laid_out(h, layout)), mrt_precoder(laid_out(h, layout))
    metrics = link_metrics(laid_out(h, layout), zf, 1e-3)
    capacitance = phase_to_capacitance(laid_out(np.angle(gammas), layout), F, CircuitParams())
    reflection = element_reflection(capacitance.capacitance, F, CircuitParams())
    for r in sampled(rng, n_real):
        one = slice(r, r + 1)
        h_r = effective_channel(channel_set(parts, alone, one),
                                ScatteringState(laid_out(gammas[one], alone), F))
        assert np.array_equal(h_r[0], h[r])
        h_r = laid_out(h[one], alone)
        zf_r, mrt_r = zf_precoder(h_r), mrt_precoder(h_r)
        assert np.array_equal(zf_r.matrix[0], zf.matrix[r])
        assert np.array_equal(mrt_r.matrix[0], mrt.matrix[r])
        metrics_r = link_metrics(h_r, zf_r, 1e-3)
        assert np.array_equal(metrics_r.sinr[0], metrics.sinr[r])
        assert np.array_equal(metrics_r.se[0], metrics.se[r])
        capacitance_r = phase_to_capacitance(laid_out(np.angle(gammas[one]), alone), F,
                                             CircuitParams())
        for field in ("capacitance", "clamped"):
            assert np.array_equal(getattr(capacitance_r, field)[0],
                                  getattr(capacitance, field)[r])
        assert np.array_equal(element_reflection(capacitance_r.capacitance, F,
                                                 CircuitParams())[0], reflection[r])


@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(stacks.map(lambda s: {**s, "n_real": 480 + s["n_real"] % 340}))
def test_ascent_stack_matches_one_realization_runs(stack):
    """Stacks of 480 realizations and more at 40 owner entries differed in every
    realization when the correlation was an elementwise product and sum."""
    rng = np.random.default_rng(stack["seed"])
    n_real, layout, alone = stack["n_real"], stack["layout"], stack["alone"]
    parts = (cplx(rng, (n_real, USERS, ANTENNAS)), cplx(rng, (n_real, ELEMENTS, ANTENNAS)),
             cplx(rng, (n_real, USERS, ELEMENTS)))
    stacked = optimize_weighted_sum_power([channel_set(parts, layout)], max_iters=50)
    for r in sampled(rng, n_real):
        single = optimize_weighted_sum_power([channel_set(parts, alone, r)], max_iters=50)
        assert np.array_equal(single.gammas, stacked.gammas[r])
