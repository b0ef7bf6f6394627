"""Downlink precoders and the stale-design link metric."""

import numpy as np
import pytest

from squintsim import (PrecodeResult, link_metrics, mrt_precoder, noise_power,
                       zf_precoder)
from squintsim.errors import CorrelatedChannelsError, DegenerateChannelError
from squintsim.precoding import most_correlated_pair

# frozen: -174 dBm/Hz + 10 log10(10 MHz) + 9 dB -> watts
NOISE_DEFAULT_W = 3.162277660168379e-13


def cplx(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_noise_power_default_pinned():
    assert noise_power() == pytest.approx(NOISE_DEFAULT_W, rel=1e-14)


def test_noise_power_formula():
    # doubling the bandwidth doubles the noise power
    assert noise_power(20e6, 9.0) == pytest.approx(2.0 * noise_power(10e6, 9.0), rel=1e-12)
    # +3 dB figure is very nearly a factor two
    assert noise_power(10e6, 12.0) / noise_power(10e6, 9.0) == pytest.approx(
        10.0 ** 0.3, rel=1e-12)
    with pytest.raises(ValueError):
        noise_power(0.0)


def test_precode_result_validation():
    with pytest.raises(ValueError):
        PrecodeResult(matrix=np.ones((4, 2), dtype=complex), powers=np.ones(2))
    m = np.zeros((4, 2), dtype=complex)
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    PrecodeResult(matrix=m, powers=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        PrecodeResult(matrix=m, powers=np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        PrecodeResult(matrix=m, powers=np.array([0.5]))


def test_mrt_single_user_matched_filter(rng):
    h = cplx(rng, (1, 8))
    res = mrt_precoder(h, total_power=2.0)
    assert res.matrix.shape == (8, 1)
    assert np.allclose(res.matrix[:, 0], h[0].conj() / np.linalg.norm(h[0]))
    assert res.powers.tolist() == [2.0]
    # received power is P * |h|^2 for the matched filter
    metrics = link_metrics(h, res, noise_power=1.0)
    expected = 2.0 * np.linalg.norm(h[0]) ** 2
    assert metrics.sinr[0] == pytest.approx(expected, rel=1e-12)


def test_mrt_orthogonal_rows_no_interference():
    h = np.array([[1.0, 0.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0]], dtype=complex)
    res = mrt_precoder(h, total_power=1.0)
    metrics = link_metrics(h, res, noise_power=1e-3)
    assert np.allclose(metrics.sinr, 0.5 / 1e-3, rtol=1e-12)


def test_mrt_beats_random_beams(rng):
    h = cplx(rng, (1, 16))
    res = mrt_precoder(h)
    best = link_metrics(h, res, noise_power=1.0).sinr[0]
    for _ in range(50):
        w = cplx(rng, (16, 1))
        w = w / np.linalg.norm(w)
        rand = PrecodeResult(matrix=w, powers=np.array([1.0]))
        assert link_metrics(h, rand, noise_power=1.0).sinr[0] <= best + 1e-12


def test_mrt_zero_channel_error():
    h = np.zeros((2, 4), dtype=complex)
    h[0] = [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(DegenerateChannelError, match="user 1"):
        mrt_precoder(h)


def test_zf_unit_columns_and_nulls(rng):
    h = cplx(rng, (3, 8))
    res = zf_precoder(h, total_power=3.0)
    assert res.matrix.shape == (8, 3)
    assert np.allclose(np.linalg.norm(res.matrix, axis=0), 1.0, atol=1e-12)
    assert np.allclose(res.powers, 1.0)
    cross = h @ res.matrix
    off = cross - np.diag(np.diag(cross))
    # cross-user terms vanish relative to the served-user terms
    assert np.max(np.abs(off)) < 1e-9 * np.min(np.abs(np.diag(cross)))


def test_zf_residual_relative_bound(rng):
    for _ in range(20):
        n_users = int(rng.integers(2, 5))
        h = cplx(rng, (n_users, int(rng.integers(n_users, 10))))
        res = zf_precoder(h)
        cross = h @ res.matrix
        diag = np.abs(np.diag(cross))
        off = np.abs(cross - np.diag(np.diag(cross)))
        assert np.max(off) < 1e-9 * np.min(diag)


@pytest.mark.parametrize("shape", [(400, 2, 8), (120, 2, 20), (30, 4, 20), (7, 1, 8),
                                   (3, 8), (6, 3, 3)])
def test_zf_matrix_is_the_normalized_pinv(rng, shape):
    """The one SVD's pseudo-inverse is bit for bit np.linalg.pinv's, ill-conditioned rows too."""
    h = cplx(rng, shape)
    h[..., 0, :] += 1e4 * h[..., -1, :]
    expected = np.linalg.pinv(h)
    expected = expected / np.linalg.norm(expected, axis=-2, keepdims=True)
    assert np.array_equal(zf_precoder(h).matrix, expected)


def test_zf_too_many_users():
    h = np.ones((5, 4), dtype=complex) + 1j
    with pytest.raises(ValueError, match="5 users exceed 4"):
        zf_precoder(h)


def test_zf_duplicate_rows_rank_deficient(rng):
    h = cplx(rng, (3, 6))
    h[2] = h[0]
    with pytest.raises(CorrelatedChannelsError) as exc:
        zf_precoder(h)
    assert exc.value.ue_pair == (0, 2)
    assert exc.value.condition_number == float("inf")


def test_zf_condition_limit_trip(rng):
    h = cplx(rng, (2, 6))
    h[1] = h[0] * (1.0 + 1e-6) + 1e-8 * cplx(rng, (6,))
    with pytest.raises(CorrelatedChannelsError) as exc:
        zf_precoder(h, condition_limit=100.0)
    assert exc.value.ue_pair == (0, 1)
    assert exc.value.condition_number > 100.0
    assert "condition number" in str(exc.value)


def test_zf_orthogonal_rows_match_mrt():
    h = np.array([[2.0, 0.0, 0.0, 0.0],
                  [0.0, 3.0, 0.0, 0.0]], dtype=complex)
    zf = zf_precoder(h)
    mrt = mrt_precoder(h)
    # phase-align columns before comparing
    for c in range(2):
        phase = np.vdot(mrt.matrix[:, c], zf.matrix[:, c])
        phase = phase / abs(phase)
        assert np.allclose(zf.matrix[:, c], phase * mrt.matrix[:, c], atol=1e-12)


def test_zf_zero_channel_error():
    h = np.zeros((2, 4), dtype=complex)
    h[0] = [1.0, 1.0, 0.0, 0.0]
    with pytest.raises(DegenerateChannelError, match="user 1"):
        zf_precoder(h)


def test_most_correlated_pair():
    h = np.array([[1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0],
                  [0.9, 0.1, 0.0]], dtype=complex)
    assert most_correlated_pair(h) == (0, 2)
    # scale invariance of the normalized Gram
    h[2] *= 100.0
    assert most_correlated_pair(h) == (0, 2)


def test_link_metrics_known_sinr():
    h = np.array([[1.0, 0.0]], dtype=complex)
    w = np.array([[1.0], [0.0]], dtype=complex)
    res = PrecodeResult(matrix=w, powers=np.array([10.0]))
    metrics = link_metrics(h, res, noise_power=1.0)
    assert metrics.sinr[0] == pytest.approx(10.0, rel=1e-14)
    assert metrics.se[0] == pytest.approx(np.log2(11.0), rel=1e-14)


def test_link_metrics_noise_monotone(rng):
    h = cplx(rng, (2, 4))
    res = zf_precoder(h)
    lo = link_metrics(h, res, noise_power=1e-13)
    hi = link_metrics(h, res, noise_power=1e-12)
    assert np.all(lo.sinr > hi.sinr)
    assert lo.se.sum() > hi.se.sum()


def test_link_metrics_stale_design_interference(rng):
    """Precoding on stale channels leaks power into other users."""
    h_design = cplx(rng, (2, 6))
    h_actual = h_design + 0.05 * cplx(rng, (2, 6))
    res = zf_precoder(h_design)
    clean = link_metrics(h_design, res, noise_power=1e-13)
    stale = link_metrics(h_actual, res, noise_power=1e-13)
    assert np.all(stale.sinr < clean.sinr)


def test_link_metrics_validation(rng):
    h = cplx(rng, (2, 4))
    res = zf_precoder(h)
    with pytest.raises(ValueError):
        link_metrics(h[:1], res, noise_power=1.0)
    with pytest.raises(ValueError):
        link_metrics(h, res, noise_power=0.0)
    with pytest.raises(ValueError):
        link_metrics(cplx(rng, (3, 4)), res, noise_power=1.0)


def test_stacked_precoders_and_metrics_match_single_calls(rng):
    h = cplx(rng, (4, 3, 5))
    for precoder in (zf_precoder, mrt_precoder):
        stacked = precoder(h, total_power=2.0)
        metrics = link_metrics(h, stacked, noise_power=1e-3)
        for r in range(len(h)):
            single = precoder(h[r], total_power=2.0)
            assert np.array_equal(stacked.matrix[r], single.matrix)
            assert np.array_equal(stacked.powers[r], single.powers)
            alone = link_metrics(h[r], single, noise_power=1e-3)
            assert np.array_equal(metrics.sinr[r], alone.sinr)
            assert np.array_equal(metrics.se[r], alone.se)


def test_stacked_zf_reports_first_failing_realization(rng):
    h = cplx(rng, (4, 3, 5))
    h[2, 2] = h[2, 0]               # rank deficient in realization 2
    h[3, 2] = 2.0 * h[3, 1]         # and in realization 3, another pair
    with pytest.raises(CorrelatedChannelsError) as exc:
        zf_precoder(h)
    assert exc.value.ue_pair == (0, 2)
    assert exc.value.condition_number == float("inf")
    conds = [float(np.linalg.cond(m)) for m in h[:2]]
    with pytest.raises(CorrelatedChannelsError) as exc:
        zf_precoder(h[:2], condition_limit=min(conds) / 2.0)     # both realizations fail
    assert exc.value.condition_number == pytest.approx(conds[0], rel=1e-12)
    zf_precoder(h[:2], condition_limit=max(conds) * 2.0)
