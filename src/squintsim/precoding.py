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
    """Per-user unit-norm precoding columns and allocated powers.

    Both may carry a leading realization axis: ``matrix`` is then
    (realizations x BS antennas x users) and ``powers`` (realizations x users).
    """

    matrix: np.ndarray          # (BS antennas x users)
    powers: np.ndarray          # W per user

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.powers = np.asarray(self.powers, dtype=float)
        if self.matrix.ndim not in (2, 3):
            raise ValueError("precoder matrix must be 2-D, or 3-D with a leading "
                             "realization axis")
        if self.powers.shape != self.matrix.shape[:-2] + self.matrix.shape[-1:]:
            raise ValueError("one power entry per precoder column is required")
        if np.any(self.powers < 0):
            raise ValueError("powers must be non-negative")
        norms = np.linalg.norm(self.matrix, axis=-2)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("precoder columns must have unit norm")


@dataclass
class LinkMetrics:
    """Per-user SINR and spectral efficiency plus their sum.

    For stacked channels each carries a leading realization axis.
    """

    sinr: np.ndarray            # linear, per user
    se: np.ndarray              # b/s/Hz per user
    sum_se: float | np.ndarray


def _stack(channels) -> np.ndarray:
    """The (users x BS antennas) channel matrix, one row per user, possibly
    behind a leading realization axis."""
    h = np.asarray(channels, dtype=complex)
    if h.ndim not in (2, 3) or h.shape[-2] == 0:
        raise ValueError("channels must be a non-empty (users x BS antennas) matrix, "
                         "or a stack of them")
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


def _nonzero_rows(h: np.ndarray) -> np.ndarray:
    """Row norms of every stacked matrix; a zero row is a DegenerateChannelError."""
    norms = np.linalg.norm(h, axis=-1)
    if np.any(norms == 0):
        bad = int(np.argmin(norms.reshape(-1, norms.shape[-1]).min(axis=0)))
        raise DegenerateChannelError(f"user {bad} has a zero channel")
    return norms


def mrt_precoder(channels, total_power: float = 1.0) -> PrecodeResult:
    """Matched-filter columns conj(h_u)/|h_u| with an equal power split."""
    h = _stack(channels)
    if total_power < 0:
        raise ValueError("total_power must be non-negative")
    norms = _nonzero_rows(h)
    w = np.swapaxes(h.conj() / norms[..., None], -1, -2)
    n_users = h.shape[-2]
    return PrecodeResult(matrix=w, powers=np.full(norms.shape, total_power / n_users))


def zf_precoder(channels, total_power: float = 1.0,
                condition_limit: float | None = None) -> PrecodeResult:
    """Zero-forcing columns from the pseudo-inverse of the stacked channels.

    Nulls every cross-user term at the design channels. A rank-deficient
    stack, or a condition number above ``condition_limit`` when one is
    configured, raises the correlated-channel diagnostic naming the two
    most aligned users. Over a leading realization axis each realization
    is precoded on its own, and the diagnostic is that of the first
    realization that fails.
    """
    h = _stack(channels)
    if total_power < 0:
        raise ValueError("total_power must be non-negative")
    n_users, n_tx = h.shape[-2:]
    if n_users > n_tx:
        raise ValueError(f"{n_users} users exceed {n_tx} BS antennas")
    norms = _nonzero_rows(h)
    singulars = np.linalg.svd(h, compute_uv=False).reshape(-1, n_users)
    deficient = singulars[:, -1] <= max(n_users, n_tx) * np.finfo(float).eps * singulars[:, 0]
    condition = np.full(len(singulars), np.inf)
    np.divide(singulars[:, 0], singulars[:, -1], out=condition, where=~deficient)
    failing = deficient | (condition > (np.inf if condition_limit is None else condition_limit))
    if np.any(failing):
        first = int(np.argmax(failing))
        pair = most_correlated_pair(h.reshape(-1, n_users, n_tx)[first])
        if deficient[first]:
            raise CorrelatedChannelsError(
                f"stacked channels are rank deficient; users {pair[0]} and {pair[1]} "
                "are (nearly) collinear", ue_pair=pair, condition_number=float("inf"))
        raise CorrelatedChannelsError(
            f"channel condition number {condition[first]:.3e} exceeds the configured "
            f"limit {condition_limit:.3e}; users {pair[0]} and {pair[1]} are the "
            "most correlated pair", ue_pair=pair, condition_number=float(condition[first]))
    w = np.linalg.pinv(h)
    w = w / np.linalg.norm(w, axis=-2, keepdims=True)
    return PrecodeResult(matrix=w, powers=np.full(norms.shape, total_power / n_users))


def link_metrics(channels, precoders: PrecodeResult, noise_power: float) -> LinkMetrics:
    """SINR and spectral efficiency on the channels actually traversed.

    The precoders may have been built from other (design) channels; any
    mismatch between those and ``channels`` shows up as residual
    cross-user interference. Stacked channels take stacked precoders.
    """
    h = _stack(channels)
    n_users = h.shape[-2]
    if precoders.matrix.shape != h.shape[:-2] + (h.shape[-1], n_users):
        raise ValueError("precoder shape does not match the channels")
    if noise_power <= 0:
        raise ValueError("noise_power must be positive")
    cross = h @ precoders.matrix                   # (u, v) = h_u . w_v
    gains = precoders.powers[..., None, :] * np.abs(cross) ** 2
    signal = np.diagonal(gains, axis1=-2, axis2=-1).copy()
    interference = gains.sum(axis=-1) - signal
    sinr = signal / (interference + noise_power)
    se = np.log2(1.0 + sinr)
    sum_se = se.sum(axis=-1)
    return LinkMetrics(sinr=sinr, se=se, sum_se=sum_se if h.ndim == 3 else float(sum_se))
