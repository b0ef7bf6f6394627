"""LoS-dominant channel synthesis and the cascaded reflect-path channel.

Links are synthesized from exact antenna-to-antenna distances with
free-space amplitude decay and spherical phase fronts. Rician scatter is
applied to a link's LoS entries by ``rician_channel``, from seeded standard
normals, at per-entry power matched to the LoS entry. The cascade composes
a direct matrix with the surface-scattered path through the per-element
reflection coefficients. Channel sets, scatter draws and scattering states
may carry a leading realization axis; every operation then acts on each
realization alone.
"""

from dataclasses import dataclass

import numpy as np

from .array_field import RisArray, ScatteringState, SPEED_OF_LIGHT, _distances
from .errors import FrequencyMismatchError, NumericalError

MIN_LINK_DISTANCE = 1e-9  # m, below this tx and rx count as coincident


@dataclass
class Node:
    """A transmit or receive terminal with a centered uniform linear array."""

    position: np.ndarray
    n_antennas: int = 1
    spacing_fraction: float = 0.5       # of the carrier wavelength
    axis: np.ndarray = (1.0, 0.0, 0.0)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        if self.position.shape != (3,):
            raise ValueError("position must be a 3-vector")
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be at least 1")
        if self.spacing_fraction <= 0:
            raise ValueError("spacing_fraction must be positive")
        self.axis = np.asarray(self.axis, dtype=float)
        with np.errstate(over="ignore"):    # a length that overflows is rejected below
            norm = np.linalg.norm(self.axis)
        if self.axis.shape != (3,) or not 0 < norm < np.inf:
            raise ValueError("axis must be a non-zero 3-vector of finite length")
        # scaled by a power of two, which is exact, so that no square is subnormal
        scaled = np.ldexp(self.axis, -np.frexp(np.abs(self.axis).max())[1])
        self.axis = scaled / np.linalg.norm(scaled)

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
    return lam / (4.0 * np.pi * d)


def _terminal_positions(terminal, frequency: float) -> np.ndarray:
    if isinstance(terminal, RisArray):
        return terminal.element_positions
    if isinstance(terminal, Node):
        return terminal.antenna_positions(frequency)
    if isinstance(terminal, np.ndarray) and terminal.ndim == 2 and terminal.shape[1] == 3:
        return terminal
    raise TypeError("terminal must be a Node, a RisArray or an (n, 3) position array")


def _finite(link: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(link)):
        raise NumericalError("link entries are not finite: a carrier, spacing or position "
                             "is so extreme that the scene's scale overflows")
    return link


def los_channel(tx, rx, frequency: float) -> np.ndarray:
    """Line-of-sight link matrix (rx elements x tx elements) between two terminals.

    A terminal is a Node, a RisArray, or an (n, 3) array of element
    positions, such as several surfaces' elements stacked to evaluate their
    links in one call. Entries carry the exact spherical propagation phase
    and free-space amplitude per antenna pair, each computed from its own
    distance alone. Entries that overflow to a non-finite value raise
    NumericalError.
    """
    tx_pos = _terminal_positions(tx, frequency)
    rx_pos = _terminal_positions(rx, frequency)
    with np.errstate(over="ignore", invalid="ignore"):
        d = _distances(rx_pos, tx_pos)
        if np.any(d < MIN_LINK_DISTANCE):
            raise ValueError("tx and rx antennas coincide")
        lam = SPEED_OF_LIGHT / frequency
        # np.exp, not the pattern kernel's phasor: the ascent's optimum moves with these bits
        los = freespace_pathloss(d, frequency) * np.exp(-2j * np.pi * d / lam)
    return _finite(los)


def rician_channel(los: np.ndarray, k_factor_db: float, normals: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """LoS entries mixed with complex Gaussian scatter at the Rician ratio.

    ``normals`` holds standard normals of shape (..., 2) + link shape: the
    real parts of the scatter, then its imaginary parts. Leading axes stack
    realizations of the same link geometry, which is how one link's
    realizations are synthesized at once. ``los`` is one link matrix, or a
    stack whose leading axes broadcast against the realizations', e.g. one
    matrix per case of same-size surfaces, all mixed in one call. Each
    scatter entry has the power of its LoS entry. The result, of the
    broadcast shape, is written to ``out`` when given. Entries that
    overflow raise NumericalError.
    """
    k = 10.0 ** (k_factor_db / 10.0)
    # in place, in one block-sized array; the products and sums commute, so
    # the entries equal sqrt(k/(k+1)) los + sqrt(1/(k+1)) |los|/sqrt(2) (re + j im)
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = np.multiply(1j, normals[..., 1, :, :], out=out)
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

