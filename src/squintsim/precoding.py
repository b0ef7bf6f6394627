"""Transmit precoders and link metrics under possibly stale channel knowledge.

Precoders are computed from the channels a base station believes in
(its design channels); SINR is always evaluated on the channels the
signal actually traverses. The two coincide for a synchronized system
and diverge when a reflective surface perturbs the medium after the
precoders were fixed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CorrelatedChannelsError, DegenerateChannelError

THERMAL_NOISE_DBM_PER_HZ = -174.0


def noise_power(bandwidth_hz: float = 10e6, noise_figure_db: float = 9.0,
                density_dbm_per_hz: float = THERMAL_NOISE_DBM_PER_HZ) -> float:
    """Receiver noise power in watts over the given bandwidth."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth_hz must be positive")
    dbm = density_dbm_per_hz + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class PrecodeResult:
    """Per-user unit-norm precoding columns and allocated powers."""

    matrix: np.ndarray          # (BS antennas x users)
    powers: np.ndarray          # W per user

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.powers = np.asarray(self.powers, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("precoder matrix must be 2-D")
        if self.powers.shape != (self.matrix.shape[1],):
            raise ValueError("one power entry per precoder column is required")
        if np.any(self.powers < 0):
            raise ValueError("powers must be non-negative")
        norms = np.linalg.norm(self.matrix, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("precoder columns must have unit norm")


@dataclass
class LinkMetrics:
    """Per-user SINR and spectral efficiency plus their sum."""

    sinr: np.ndarray            # linear, per user
    se: np.ndarray              # b/s/Hz per user
    sum_se: float


def _stack(channels) -> np.ndarray:
    """The (users x BS antennas) channel matrix, one row per user."""
    h = np.asarray(channels, dtype=complex)
    if h.ndim != 2 or h.shape[0] == 0:
        raise ValueError("channels must be a non-empty (users x BS antennas) matrix")
    return h


def most_correlated_pair(stacked: np.ndarray) -> tuple[int, int]:
    """Indices of the two rows with the largest normalized inner product."""
    h = np.asarray(stacked, dtype=complex)
    norms = np.linalg.norm(h, axis=1)
    norms = np.where(norms == 0, 1.0, norms)
    gram = np.abs((h / norms[:, None]) @ (h / norms[:, None]).conj().T)
    np.fill_diagonal(gram, -1.0)
    u, v = np.unravel_index(int(np.argmax(gram)), gram.shape)
    return (int(min(u, v)), int(max(u, v)))


def mrt_precoder(channels, total_power: float = 1.0) -> PrecodeResult:
    """Matched-filter columns conj(h_u)/|h_u| with an equal power split."""
    h = _stack(channels)
    if total_power < 0:
        raise ValueError("total_power must be non-negative")
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms == 0):
        bad = int(np.argmin(norms))
        raise DegenerateChannelError(f"user {bad} has a zero channel")
    w = (h.conj() / norms[:, None]).T
    n_users = h.shape[0]
    return PrecodeResult(matrix=w, powers=np.full(n_users, total_power / n_users))


def zf_precoder(channels, total_power: float = 1.0,
                condition_limit: float | None = None) -> PrecodeResult:
    """Zero-forcing columns from the pseudo-inverse of the stacked channels.

    Nulls every cross-user term at the design channels. A rank-deficient
    stack, or a condition number above ``condition_limit`` when one is
    configured, raises the correlated-channel diagnostic naming the two
    most aligned users.
    """
    h = _stack(channels)
    if total_power < 0:
        raise ValueError("total_power must be non-negative")
    n_users, n_tx = h.shape
    if n_users > n_tx:
        raise ValueError(f"{n_users} users exceed {n_tx} BS antennas")
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms == 0):
        bad = int(np.argmin(norms))
        raise DegenerateChannelError(f"user {bad} has a zero channel")
    singulars = np.linalg.svd(h, compute_uv=False)
    tiny = max(h.shape) * np.finfo(float).eps * singulars[0]
    if singulars[-1] <= tiny:
        pair = most_correlated_pair(h)
        raise CorrelatedChannelsError(
            f"stacked channels are rank deficient; users {pair[0]} and {pair[1]} "
            "are (nearly) collinear", ue_pair=pair, condition_number=float("inf"))
    condition = float(singulars[0] / singulars[-1])
    if condition_limit is not None and condition > condition_limit:
        pair = most_correlated_pair(h)
        raise CorrelatedChannelsError(
            f"channel condition number {condition:.3e} exceeds the configured "
            f"limit {condition_limit:.3e}; users {pair[0]} and {pair[1]} are the "
            "most correlated pair", ue_pair=pair, condition_number=condition)
    w = np.linalg.pinv(h)
    w = w / np.linalg.norm(w, axis=0, keepdims=True)
    return PrecodeResult(matrix=w, powers=np.full(n_users, total_power / n_users))


def link_metrics(channels, precoders: PrecodeResult, noise_power: float) -> LinkMetrics:
    """SINR and spectral efficiency on the channels actually traversed.

    The precoders may have been built from other (design) channels; any
    mismatch between those and ``channels`` shows up as residual
    cross-user interference.
    """
    h = _stack(channels)
    n_users = h.shape[0]
    if precoders.matrix.shape != (h.shape[1], n_users):
        raise ValueError("precoder shape does not match the channels")
    if noise_power <= 0:
        raise ValueError("noise_power must be positive")
    cross = h @ precoders.matrix                   # (u, v) = h_u . w_v
    gains = precoders.powers[None, :] * np.abs(cross) ** 2
    signal = np.diag(gains).copy()
    interference = gains.sum(axis=1) - signal
    sinr = signal / (interference + noise_power)
    se = np.log2(1.0 + sinr)
    return LinkMetrics(sinr=sinr, se=se, sum_se=float(se.sum()))
