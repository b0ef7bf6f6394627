"""LoS-dominant channel synthesis and the cascaded reflect-path channel.

Links are synthesized from exact antenna-to-antenna distances with
free-space amplitude decay and spherical phase fronts. An optional
Rician term mixes in seeded complex Gaussian scatter with per-entry
power matched to the LoS entry. The cascade composes a direct matrix
with the surface-scattered path through the per-element reflection
coefficients. Channel sets, scatter draws and scattering states may
carry a leading realization axis; every operation then acts on each
realization alone.
"""

from dataclasses import dataclass, field

import numpy as np

from .array_field import RisArray, ScatteringState, SPEED_OF_LIGHT
from .errors import FrequencyMismatchError, NumericalError

MIN_LINK_DISTANCE = 1e-9  # m, below this tx and rx count as coincident


@dataclass
class Node:
    """A transmit or receive terminal with a centered uniform linear array."""

    position: np.ndarray
    n_antennas: int = 1
    spacing_fraction: float = 0.5       # of the carrier wavelength
    axis: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        if self.position.shape != (3,):
            raise ValueError("position must be a 3-vector")
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be at least 1")
        if self.spacing_fraction <= 0:
            raise ValueError("spacing_fraction must be positive")
        self.axis = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(self.axis)
        if self.axis.shape != (3,) or norm == 0:
            raise ValueError("axis must be a non-zero 3-vector")
        self.axis = self.axis / norm

    def antenna_positions(self, frequency: float) -> np.ndarray:
        """(n_antennas, 3) positions of the ULA at the given carrier."""
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        # an extreme scale overflows here; the links built on it check their entries
        with np.errstate(over="ignore", invalid="ignore"):
            spacing = self.spacing_fraction * SPEED_OF_LIGHT / frequency
            offsets = (np.arange(self.n_antennas) - (self.n_antennas - 1) / 2.0) * spacing
            return self.position[None, :] + offsets[:, None] * self.axis[None, :]


@dataclass
class ChannelSet:
    """All link matrices of one operator's users at one carrier.

    Shapes follow the receive-by-transmit convention: ``direct`` is
    (rows x BS antennas), ``bs_to_ris`` is (elements x BS antennas) and
    ``ris_to_ue`` is (rows x elements). Each row is one single-antenna
    user (or one antenna of a user); a user whose direct path is blocked
    has a zero direct row. All three matrices may carry the same leading
    realization axis, stacking realizations of one operator's links.
    """

    direct: np.ndarray
    bs_to_ris: np.ndarray
    ris_to_ue: np.ndarray
    frequency: float

    def __post_init__(self):
        self.direct = np.asarray(self.direct, dtype=complex)
        self.bs_to_ris = np.asarray(self.bs_to_ris, dtype=complex)
        self.ris_to_ue = np.asarray(self.ris_to_ue, dtype=complex)
        if {self.direct.ndim, self.bs_to_ris.ndim, self.ris_to_ue.ndim} not in ({2}, {3}):
            raise ValueError("channel matrices must be 2-D, or 3-D with a leading "
                             "realization axis")
        n_rx, n_tx = self.direct.shape[-2:]
        n_el = self.bs_to_ris.shape[-2]
        if self.bs_to_ris.shape[-1] != n_tx:
            raise ValueError("bs_to_ris column count must match BS antennas")
        if self.ris_to_ue.shape[-2:] != (n_rx, n_el):
            raise ValueError("ris_to_ue must be (rows x elements)")
        if not self.direct.shape[:-2] == self.bs_to_ris.shape[:-2] == self.ris_to_ue.shape[:-2]:
            raise ValueError("channel stacks must hold the same number of realizations")
        for name, m in (("direct", self.direct), ("bs_to_ris", self.bs_to_ris),
                        ("ris_to_ue", self.ris_to_ue)):
            if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
                raise ValueError(f"{name} contains non-finite entries")
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")


def freespace_pathloss(distance, frequency):
    """Free-space amplitude gain lambda / (4 pi d)."""
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    if frequency <= 0:
        raise ValueError("frequency must be positive")
    lam = SPEED_OF_LIGHT / frequency
    gain = lam / (4.0 * np.pi * d)
    return float(gain) if np.isscalar(distance) else gain


def _terminal_positions(terminal, frequency: float) -> np.ndarray:
    if isinstance(terminal, RisArray):
        return terminal.element_positions
    if isinstance(terminal, Node):
        return terminal.antenna_positions(frequency)
    raise TypeError("terminal must be a Node or a RisArray")


def _finite(link: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(link)):
        raise NumericalError("link entries are not finite: a carrier, spacing or position "
                             "is so extreme that the scene's scale overflows")
    return link


def los_channel(tx, rx, frequency: float, k_factor_db: float | None = None,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Link matrix (rx elements x tx elements) between two terminals.

    Entries carry the exact spherical propagation phase and free-space
    amplitude per antenna pair. With ``k_factor_db`` set, a seeded
    complex Gaussian term of matched per-entry power is mixed in at the
    requested Rician ratio (see ``rician_channel``); the generator is then
    mandatory so that every draw is attributable to a seed. Entries that
    overflow to a non-finite value raise NumericalError.
    """
    tx_pos = _terminal_positions(tx, frequency)
    rx_pos = _terminal_positions(rx, frequency)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.linalg.norm(rx_pos[:, None, :] - tx_pos[None, :, :], axis=2)
        if np.any(d < MIN_LINK_DISTANCE):
            raise ValueError("tx and rx antennas coincide")
        lam = SPEED_OF_LIGHT / frequency
        los = freespace_pathloss(d, frequency) * np.exp(-2j * np.pi * d / lam)
    if k_factor_db is None:
        return _finite(los)
    if rng is None:
        raise ValueError("a seeded generator is required when k_factor_db is set")
    return rician_channel(los, k_factor_db, rng.standard_normal((2,) + los.shape))


def rician_channel(los: np.ndarray, k_factor_db: float, normals: np.ndarray) -> np.ndarray:
    """LoS entries mixed with complex Gaussian scatter at the Rician ratio.

    ``normals`` holds standard normals of shape (..., 2) + los.shape: the
    real parts of the scatter, then its imaginary parts. Leading axes stack
    realizations of the same link geometry, which is how one link's
    realizations are synthesized at once. Each scatter entry has the power
    of its LoS entry. Entries that overflow raise NumericalError.
    """
    k = 10.0 ** (k_factor_db / 10.0)
    # in place, in one block-sized array; the products and sums commute, so
    # the entries equal sqrt(k/(k+1)) los + sqrt(1/(k+1)) |los|/sqrt(2) (re + j im)
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = 1j * normals[..., 1, :, :]
        mixed += normals[..., 0, :, :]
        mixed *= np.abs(los) / np.sqrt(2.0)
        mixed *= np.sqrt(1.0 / (k + 1.0))
        mixed += np.sqrt(k / (k + 1.0)) * los
        return _finite(mixed)


def effective_channel(chs: ChannelSet, state: ScatteringState) -> np.ndarray:
    """Direct-plus-scattered channel at the ChannelSet's carrier.

    Computes direct + ris_to_ue . diag(gammas) . bs_to_ris, one row per
    row of the set; a stacked set or state gives one matrix per realization.
    """
    if abs(state.frequency - chs.frequency) > 1e-6 * chs.frequency:
        raise FrequencyMismatchError(
            f"scattering state is at {state.frequency} Hz but channels are at {chs.frequency} Hz")
    if state.gammas.shape[-1] != chs.ris_to_ue.shape[-1]:
        raise ValueError("scattering state length must match the element count")
    return chs.direct + (chs.ris_to_ue * state.gammas[..., None, :]) @ chs.bs_to_ris


def cascade_gains(chs: ChannelSet) -> np.ndarray:
    """Per-element cascade coefficients ris_to_ue_n (outer) bs_to_ris_n.

    Entry (r, n, t) is the gain row r sees from BS antenna t via
    element n at unit reflection, after any leading realization axis.
    Summing over n with gammas applied reproduces the scattered part of
    effective_channel.
    """
    return chs.ris_to_ue[..., :, :, None] * chs.bs_to_ris[..., None, :, :]

