"""Link models: pathloss, LoS links, Rician scatter, effective channels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squintsim import (ChannelSet, Node, ScatteringState, build_array, effective_channel,
                       freespace_pathloss, los_channel)
from squintsim.channels import rician_channel
from squintsim.circuit import SPEED_OF_LIGHT
from squintsim.errors import FrequencyMismatchError

# frozen against a high-precision reference evaluation
PATHLOSS_1M_2P5GHZ = 0.0095426903184738845
PATHLOSS_20M_2P75GHZ = 0.00043375865083972202


def test_pathloss_pinned_values():
    assert freespace_pathloss(1.0, 2.5e9) == pytest.approx(PATHLOSS_1M_2P5GHZ, rel=1e-14)
    assert freespace_pathloss(20.0, 2.75e9) == pytest.approx(PATHLOSS_20M_2P75GHZ, rel=1e-14)


def test_pathloss_scaling_and_type():
    val = freespace_pathloss(5.0, 2.5e9)
    assert isinstance(val, float)
    # amplitude falls as 1/d and as 1/f
    assert freespace_pathloss(10.0, 2.5e9) == pytest.approx(val / 2.0, rel=1e-14)
    assert freespace_pathloss(5.0, 5.0e9) == pytest.approx(val / 2.0, rel=1e-14)
    arr = freespace_pathloss(np.array([5.0, 10.0]), 2.5e9)
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(val, rel=1e-15)


@pytest.mark.parametrize("d,f", [(0.0, 2.5e9), (-1.0, 2.5e9), (1.0, 0.0), (1.0, -2.5e9)])
def test_pathloss_validation(d, f):
    with pytest.raises(ValueError):
        freespace_pathloss(d, f)


def test_node_antenna_positions():
    node = Node(position=(1.0, 2.0, 3.0), n_antennas=4, spacing_fraction=0.5,
                axis=(0.0, 0.0, 2.0))
    pos = node.antenna_positions(2.5e9)
    lam = SPEED_OF_LIGHT / 2.5e9
    assert pos.shape == (4, 3)
    assert np.allclose(pos.mean(axis=0), [1.0, 2.0, 3.0])
    assert np.allclose(pos[:, 0], 1.0)
    assert np.allclose(pos[:, 1], 2.0)
    assert np.linalg.norm(pos[1] - pos[0]) == pytest.approx(0.5 * lam)
    single = Node(position=(0.0, 0.0, 0.0))
    assert single.antenna_positions(2.5e9).shape == (1, 3)
    assert np.allclose(single.antenna_positions(2.5e9)[0], 0.0)


def test_node_validation():
    with pytest.raises(ValueError):
        Node(position=(1.0, 2.0))
    with pytest.raises(ValueError):
        Node(position=(0.0, 0.0, 0.0), n_antennas=0)
    with pytest.raises(ValueError):
        Node(position=(0.0, 0.0, 0.0), spacing_fraction=0.0)
    with pytest.raises(ValueError):
        Node(position=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 0.0))
    # a length that underflows to 0 or overflows cannot normalize the axis: the large
    # ones normalized it to zero and stacked every antenna on one point before
    for axis in [(1e-320, 0.0, 0.0), (1e300, 0.0, 0.0), (1e308, 1e308, 0.0),
                 (np.nan, 1.0, 0.0)]:
        with pytest.raises(ValueError, match="axis must be a non-zero 3-vector of finite length"):
            Node(position=(0.0, 0.0, 0.0), n_antennas=4, axis=axis)


def test_node_axis_is_normalized_by_its_length():
    axis = np.array([1e150, -3e149, 2e149])
    node = Node(position=(0.0, 0.0, 0.0), axis=axis)
    assert np.array_equal(node.axis, axis / np.linalg.norm(axis))


def test_node_normalizes_a_tiny_axis_exactly():
    """Squares below about 1e-154 are subnormal: (1e-160, 0, 0) gave a unit axis of
    length 1.0000056 before. A power-of-two scaling keeps every bit of the axis's
    direction, so a tiny axis normalizes to the bits of its exact scaling into range."""
    assert Node(position=(0.0, 0.0, 0.0), axis=(1e-160, 0.0, 0.0)).axis.tolist() == \
        [1.0, 0.0, 0.0]
    tiny = np.array([1e-160, 1e-160, 0.0])
    normal = np.ldexp(tiny, 600)
    assert Node(position=(0.0, 0.0, 0.0), axis=tiny).axis.tobytes() == \
        (normal / np.linalg.norm(normal)).tobytes()


_COMPONENT = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(axis=st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).filter(any))
def test_node_keeps_the_bits_of_normal_range_axes(axis):
    """Every axis whose squares stay normal normalizes to the bits of a / |a|."""
    axis = np.array(axis)
    assert Node(position=(0.0, 0.0, 0.0), axis=axis).axis.tobytes() == \
        (axis / np.linalg.norm(axis)).tobytes()


def test_los_channel_single_pair_exact():
    f = 2.5e9
    tx = Node(position=(0.0, 0.0, 0.0))
    rx = Node(position=(3.0, 4.0, 0.0))
    h = los_channel(tx, rx, f)
    assert h.shape == (1, 1)
    d = 5.0
    lam = SPEED_OF_LIGHT / f
    expected = freespace_pathloss(d, f) * np.exp(-2j * np.pi * d / lam)
    assert h[0, 0] == pytest.approx(expected, rel=1e-14)


def test_los_channel_reciprocity():
    f = 2.5e9
    a = Node(position=(0.0, 0.0, 0.0), n_antennas=3)
    b = Node(position=(10.0, 7.0, 2.0), n_antennas=2)
    h_ab = los_channel(a, b, f)
    h_ba = los_channel(b, a, f)
    assert h_ab.shape == (2, 3)
    assert np.allclose(h_ab, h_ba.T, rtol=1e-14)


def test_los_channel_equals_norm_formula(rng):
    """Entries are the np.linalg.norm form of the exact spherical link through np.exp,
    bit for bit. The links feed the coordinate ascent, whose local optimum moves with
    rounding-level changes of its inputs, so they keep np.exp's bits, not those of the
    pattern kernel's table-driven phasor: random scenes, then fig3's and fig5's scale
    at their carriers, a 4-antenna base station 73 m from a 20 x 20 surface."""
    def check(f, tx, rx):
        tx_pos, rx_pos = (t.element_positions if hasattr(t, "element_positions")
                          else t.antenna_positions(f) for t in (tx, rx))
        d = np.linalg.norm(rx_pos[:, None, :] - tx_pos[None, :, :], axis=2)
        want = freespace_pathloss(d, f) * np.exp(-2j * np.pi * d / (SPEED_OF_LIGHT / f))
        assert np.array_equal(los_channel(tx, rx, f), want)

    for _ in range(40):
        f = rng.uniform(1e9, 6e9)
        terminals = [
            Node(position=rng.uniform(-50, 50, 3), n_antennas=int(rng.integers(1, 5)),
                 axis=rng.normal(size=3)),
            build_array(int(rng.integers(1, 6)), int(rng.integers(1, 6)), f,
                        center=rng.uniform(-50, 50, 3), plane=rng.choice(["xz", "xy", "yz"]))]
        check(f, *(terminals if rng.random() < 0.5 else terminals[::-1]))
    for f in (2.5e9, 2.52e9, 2.75e9):
        check(f, Node(position=(50.0, -50.0, 18.0), n_antennas=4), build_array(20, 20, 2.5e9))


def test_los_channel_coincident_error():
    tx = Node(position=(1.0, 1.0, 1.0))
    rx = Node(position=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        los_channel(tx, rx, 2.5e9)


def seeded_normals(seed, shape):
    """The scatter normals of one link drawn from ``default_rng(seed)``."""
    return np.random.default_rng(seed).standard_normal((2,) + shape)


def test_rician_seeded_determinism():
    tx = Node(position=(0.0, 0.0, 0.0), n_antennas=4)
    rx = Node(position=(5.0, 8.0, 0.0), n_antennas=2)
    los = los_channel(tx, rx, 2.5e9)
    h1 = rician_channel(los, 10.0, seeded_normals(42, los.shape))
    h2 = rician_channel(los, 10.0, seeded_normals(42, los.shape))
    h3 = rician_channel(los, 10.0, seeded_normals(43, los.shape))
    assert np.array_equal(h1, h2)
    assert not np.array_equal(h1, h3)


def test_rician_writes_into_a_strided_out():
    """A stack filled in place equals the returned array, bit for bit."""
    tx = Node(position=(0.0, 0.0, 0.0), n_antennas=4)
    rx = Node(position=(5.0, 8.0, 0.0), n_antennas=2)
    los = los_channel(tx, rx, 2.5e9)
    normals = np.random.default_rng(3).standard_normal((5, 2) + los.shape)
    stack = np.zeros((5, 3, 4), dtype=complex)
    got = rician_channel(los, 10.0, normals, out=stack[:, 1:])
    assert got.base is stack
    assert np.array_equal(stack[:, 1:], rician_channel(los, 10.0, normals))
    assert not stack[:, 0].any()


def test_rician_large_k_collapses_to_los():
    tx = Node(position=(0.0, 0.0, 0.0), n_antennas=2)
    rx = Node(position=(6.0, 3.0, 1.0), n_antennas=2)
    los = los_channel(tx, rx, 2.5e9)
    near = rician_channel(los, 200.0, seeded_normals(0, los.shape))
    assert np.allclose(near, los, rtol=1e-8)


def test_rician_mean_power_preserved():
    """Per-entry mean power of the fading mix stays near the LoS power."""
    tx = Node(position=(0.0, 0.0, 0.0))
    rx = Node(position=(7.0, 2.0, 0.0))
    link = los_channel(tx, rx, 2.5e9)
    los = link[0, 0]
    # 4000 realizations in one stack: the same stream as 4000 draws one after another
    normals = np.random.default_rng(2024).standard_normal((4000, 2) + link.shape)
    draws = rician_channel(link, 3.0, normals)[:, 0, 0]
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(abs(los) ** 2, rel=0.08)
    # the LoS part dominates the mean
    k = 10.0 ** (3.0 / 10.0)
    expected_mean = np.sqrt(k / (k + 1.0)) * los
    assert np.mean(draws) == pytest.approx(expected_mean, rel=0.1)


# --- effective channel ------------------------------------------------------

def random_channel_set(rng, frequency=2.5e9, rx=1, tx=4, n_el=12, blocked=False):
    def cplx(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return ChannelSet(
        direct=np.zeros((rx, tx), dtype=complex) if blocked else cplx((rx, tx)),
        bs_to_ris=cplx((n_el, tx)),
        ris_to_ue=cplx((rx, n_el)),
        frequency=frequency,
    )


def state_of(gammas, frequency=2.5e9):
    return ScatteringState(gammas=np.asarray(gammas, dtype=complex),
                           frequency=frequency)


def test_effective_channel_zero_state_is_direct(rng):
    chs = random_channel_set(rng)
    h = effective_channel(chs, state_of(np.zeros(12)))
    assert np.array_equal(h, chs.direct)


def test_effective_channel_matches_brute_force(rng):
    for _ in range(30):
        chs = random_channel_set(rng, rx=int(rng.integers(1, 3)),
                                 tx=int(rng.integers(1, 6)),
                                 n_el=int(rng.integers(1, 20)))
        n = chs.bs_to_ris.shape[0]
        gammas = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = effective_channel(chs, state_of(gammas))
        want = chs.direct.copy()
        for r in range(chs.direct.shape[0]):
            for t in range(chs.direct.shape[1]):
                acc = 0.0 + 0.0j
                for e in range(n):
                    acc += chs.ris_to_ue[r, e] * gammas[e] * chs.bs_to_ris[e, t]
                want[r, t] += acc
        err = np.abs(got - want)
        assert np.all(err <= 1e-12 * np.maximum(np.abs(want), 1e-30))


def test_effective_channel_blocked_drops_direct(rng):
    chs = random_channel_set(rng, blocked=True)
    h = effective_channel(chs, state_of(np.ones(12)))
    expected = (chs.ris_to_ue * np.ones(12)[None, :]) @ chs.bs_to_ris
    assert np.allclose(h, expected, rtol=1e-14)


def test_effective_channel_frequency_guard(rng):
    chs = random_channel_set(rng)
    with pytest.raises(FrequencyMismatchError):
        effective_channel(chs, state_of(np.ones(12), frequency=2.6e9))
    # tiny relative offsets pass the tolerance
    h = effective_channel(chs, state_of(np.zeros(12), frequency=2.5e9 * (1.0 + 1e-9)))
    assert np.array_equal(h, chs.direct)


def test_effective_channel_length_guard(rng):
    chs = random_channel_set(rng)
    with pytest.raises(ValueError):
        effective_channel(chs, state_of(np.ones(11)))


def test_channel_set_validation(rng):
    with pytest.raises(ValueError):
        ChannelSet(direct=np.zeros((1, 4), dtype=complex),
                   bs_to_ris=np.zeros((12, 3), dtype=complex),
                   ris_to_ue=np.zeros((1, 12), dtype=complex), frequency=2.5e9)
    with pytest.raises(ValueError):
        ChannelSet(direct=np.zeros((1, 4), dtype=complex),
                   bs_to_ris=np.zeros((12, 4), dtype=complex),
                   ris_to_ue=np.zeros((2, 12), dtype=complex), frequency=2.5e9)
    with pytest.raises(ValueError):
        ChannelSet(direct=np.zeros((1, 4), dtype=complex),
                   bs_to_ris=np.zeros((12, 4), dtype=complex),
                   ris_to_ue=np.zeros((1, 12), dtype=complex), frequency=0.0)
    bad = np.zeros((1, 4), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ChannelSet(direct=bad, bs_to_ris=np.zeros((12, 4), dtype=complex),
                   ris_to_ue=np.zeros((1, 12), dtype=complex), frequency=2.5e9)
