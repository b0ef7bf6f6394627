"""Planar reflective array: geometry, scattering states, re-radiated fields.

Field evaluation is a coherent sum over elements of incident amplitude and
phase at the element, times the element reflection coefficient, times the
propagation factor to the observation. Spherical wavefronts always use the
exact per-element distance; far-field observations use a direction and drop
the 1/d amplitude. Elements are isotropic scalar scatterers by default
(single polarization); an optional cosine factor per element is available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import SPEED_OF_LIGHT
from .errors import FrequencyMismatchError

PLANE_AXES = {
    # plane -> (column axis, row axis, broadside normal)
    "xz": ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
    "xy": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    "yz": ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
}

DEFAULT_ANGLE_GRID = np.arange(-90.0, 90.0 + 1e-9, 0.25)

# Cap on the element x angle terms in one block of a pattern cut; it bounds
# the temporaries of ``directivity_pattern`` whatever the grid or array size.
_BLOCK_TERMS = 4096


@dataclass
class RisArray:
    """Rectangular grid of reflective elements on a coordinate plane."""

    rows: int
    cols: int
    spacing: float
    center: np.ndarray
    u_axis: np.ndarray          # along columns
    v_axis: np.ndarray          # along rows
    normal: np.ndarray          # broadside
    element_positions: np.ndarray  # (N, 3)
    element_pattern: str = "isotropic"

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class ScatteringState:
    """Per-element reflection coefficients at one frequency."""

    gammas: np.ndarray
    frequency: float


@dataclass(frozen=True)
class Wave:
    """Incident wave: spherical from a point, or a plane wave.

    For kind "spherical", ``vector`` is the source position and the field
    at distance d is amplitude / d * exp(-j k d). For kind "plane",
    ``vector`` is the propagation direction and the field at position r is
    amplitude * exp(-j k vector . r).
    """

    kind: str
    vector: np.ndarray
    frequency: float
    amplitude: float = 1.0

    @classmethod
    def spherical(cls, source_position, frequency, amplitude=1.0) -> "Wave":
        return cls("spherical", np.asarray(source_position, dtype=float), frequency, amplitude)

    @classmethod
    def plane(cls, direction, frequency, amplitude=1.0) -> "Wave":
        d = np.asarray(direction, dtype=float)
        n = np.linalg.norm(d)
        if n == 0:
            raise ValueError("plane-wave direction must be non-zero")
        return cls("plane", d / n, frequency, amplitude)


@dataclass(frozen=True)
class PatternCut:
    """Observation cut for directivity patterns.

    The sweep direction at angle theta (degrees from broadside) is
    sin(theta) * sweep_axis + cos(theta) * reference. By default the
    reference is the array normal and the sweep axis is the array's
    column axis ("u") or row axis ("v"); an arbitrary cut plane can be
    given as an explicit (sweep, reference) orthonormal pair, most
    conveniently via ``through_points``. ``radius`` None means far-field
    directions; a positive value places point observations on an arc of
    that radius around the array center.
    """

    radius: float | None = None
    axis: str = "u"
    sweep: tuple[float, float, float] | None = None
    reference: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.axis not in ("u", "v"):
            raise ValueError("cut axis must be 'u' or 'v'")
        if self.radius is not None and self.radius <= 0:
            raise ValueError("cut radius must be positive")
        if (self.sweep is None) != (self.reference is None):
            raise ValueError("sweep and reference must be given together")
        if self.sweep is not None:
            s = np.asarray(self.sweep, dtype=float)
            r = np.asarray(self.reference, dtype=float)
            if abs(np.linalg.norm(s) - 1.0) > 1e-9 or abs(np.linalg.norm(r) - 1.0) > 1e-9:
                raise ValueError("sweep and reference must be unit vectors")
            if abs(float(s @ r)) > 1e-9:
                raise ValueError("sweep and reference must be orthogonal")

    @classmethod
    def through_points(cls, array: "RisArray", point_a, point_b,
                       radius: float | None = None) -> "PatternCut":
        """Cut in the plane containing the array center and two scene points.

        Zero angle points along the array normal projected into that
        plane; the sign convention puts ``point_b`` on the positive side.
        """
        a = np.asarray(point_a, dtype=float) - array.center
        b = np.asarray(point_b, dtype=float) - array.center
        scale = max(np.linalg.norm(a), np.linalg.norm(b))
        n = np.cross(a, b)
        n_norm = np.linalg.norm(n)
        if scale == 0 or n_norm < 1e-12 * scale * scale:
            raise ValueError("cut plane is degenerate: points are collinear with the array center")
        n = n / n_norm
        ref = array.normal - float(array.normal @ n) * n
        ref_norm = np.linalg.norm(ref)
        if ref_norm < 1e-12:
            raise ValueError("array broadside is orthogonal to the requested cut plane")
        ref = ref / ref_norm
        sweep = np.cross(n, ref)
        if float(sweep @ b) < 0:
            sweep = -sweep
        return cls(radius=radius, axis="u", sweep=tuple(sweep), reference=tuple(ref))

    def angle_of(self, array: "RisArray", point) -> float:
        """In-cut angle (degrees) of a scene point, out-of-plane part ignored."""
        v = np.asarray(point, dtype=float) - array.center
        if self.sweep is not None:
            s = np.asarray(self.sweep, dtype=float)
            r = np.asarray(self.reference, dtype=float)
        else:
            s = array.u_axis if self.axis == "u" else array.v_axis
            r = array.normal
        return float(np.degrees(np.arctan2(float(v @ s), float(v @ r))))


def build_array(rows, cols, f_design, spacing_fraction=0.5, center=(0.0, 0.0, 0.0),
                plane="xz", element_pattern="isotropic") -> RisArray:
    """Grid of rows x cols elements centered on ``center``.

    Spacing is spacing_fraction times the design wavelength. The grid is
    symmetric about the center in both in-plane axes.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be at least 1")
    if f_design <= 0:
        raise ValueError("f_design must be positive")
    if spacing_fraction <= 0:
        raise ValueError("spacing_fraction must be positive")
    if plane not in PLANE_AXES:
        raise ValueError(f"plane must be one of {sorted(PLANE_AXES)}")
    if element_pattern not in ("isotropic", "cosine"):
        raise ValueError("element_pattern must be 'isotropic' or 'cosine'")
    spacing = spacing_fraction * SPEED_OF_LIGHT / f_design
    u_axis, v_axis, normal = (np.asarray(a) for a in PLANE_AXES[plane])
    center = np.asarray(center, dtype=float)
    # an extreme scale overflows here; the links built on the grid check their entries
    with np.errstate(over="ignore", invalid="ignore"):
        u_off = (np.arange(cols) - (cols - 1) / 2.0) * spacing
        v_off = (np.arange(rows) - (rows - 1) / 2.0) * spacing
        vv, uu = np.meshgrid(v_off, u_off, indexing="ij")
        positions = (center[None, :]
                     + uu.reshape(-1, 1) * u_axis[None, :]
                     + vv.reshape(-1, 1) * v_axis[None, :])
    return RisArray(rows=rows, cols=cols, spacing=spacing, center=center,
                    u_axis=u_axis, v_axis=v_axis, normal=normal,
                    element_positions=positions, element_pattern=element_pattern)


def _incident_at_elements(wave: Wave, positions: np.ndarray, k: float):
    if wave.kind == "spherical":
        d = np.linalg.norm(positions - wave.vector[None, :], axis=1)
        if np.any(d <= 0):
            raise ValueError("wave source coincides with an array element")
        return wave.amplitude / d * np.exp(-1j * k * d)
    if wave.kind == "plane":
        proj = positions @ wave.vector
        return wave.amplitude * np.exp(-1j * k * proj)
    raise ValueError(f"unknown wave kind '{wave.kind}'")


def _element_cosines(array: RisArray, wave: Wave, observation, far_field):
    """Incidence and departure cosines against the broadside normal.

    ``observation`` is one 3-vector or a (B, 3) block of them; the departure
    cosines then come back as (B, N) rows, one per observation.
    """
    pos = array.element_positions
    if wave.kind == "spherical":
        to_src = wave.vector[None, :] - pos
        cos_in = (to_src @ array.normal) / np.linalg.norm(to_src, axis=1)
    else:
        cos_in = np.full(len(pos), abs(float(wave.vector @ array.normal)))
    obs = np.asarray(observation)
    if far_field:
        cos_out = np.broadcast_to((obs @ array.normal)[..., None], obs.shape[:-1] + (len(pos),))
    else:
        to_obs = obs[..., None, :] - pos
        cos_out = (to_obs @ array.normal) / np.linalg.norm(to_obs, axis=-1)
    return np.maximum(cos_in, 0.0), np.maximum(cos_out, 0.0)


def reflected_field(array: RisArray, state: ScatteringState, incident: Wave,
                    observation, far_field=False) -> complex:
    """Coherent re-radiated field at a point or in a far-field direction.

    ``observation`` is a 3-vector: a point when far_field is False, a unit
    direction when far_field is True. Point observations carry the exact
    1/d spreading amplitude; far-field directions carry phase only.
    """
    if state.frequency != incident.frequency:
        raise FrequencyMismatchError(
            f"scattering state at {state.frequency} Hz but incident wave at "
            f"{incident.frequency} Hz")
    gammas = np.asarray(state.gammas)
    if gammas.shape != (array.n_elements,):
        raise ValueError("scattering state does not match the array size")
    k = 2.0 * np.pi * incident.frequency / SPEED_OF_LIGHT
    pos = array.element_positions
    a_in = _incident_at_elements(incident, pos, k)
    obs = np.asarray(observation, dtype=float)
    if far_field:
        n = np.linalg.norm(obs)
        if n == 0:
            raise ValueError("far-field direction must be non-zero")
        obs = obs / n
        a_out = np.exp(1j * k * (pos @ obs))
    else:
        d = np.linalg.norm(obs[None, :] - pos, axis=1)
        if np.any(d <= 0):
            raise ValueError("observation point coincides with an array element")
        a_out = np.exp(-1j * k * d) / d
    terms = a_in * gammas * a_out
    if array.element_pattern == "cosine":
        cos_in, cos_out = _element_cosines(array, incident, obs, far_field)
        terms = terms * cos_in * cos_out
    return complex(np.sum(terms))


def _cut_directions(array: RisArray, angles_deg: np.ndarray, cut: PatternCut):
    if cut.sweep is not None:
        axis = np.asarray(cut.sweep, dtype=float)
        ref = np.asarray(cut.reference, dtype=float)
    else:
        axis = array.u_axis if cut.axis == "u" else array.v_axis
        ref = array.normal
    th = np.radians(angles_deg)
    return np.sin(th)[:, None] * axis[None, :] + np.cos(th)[:, None] * ref[None, :]


def _outgoing_block(array: RisArray, k: float, dirs: np.ndarray, radius):
    """(B, N) propagation factors from every element to B cut observations.

    Returns the factors and the observations (unit directions, or points on
    the arc). Each row carries the same per-element values that
    ``reflected_field`` computes for that observation.
    """
    pos = array.element_positions
    if radius is None:
        # row-wise dot products: the same rounding as np.linalg.norm of one row
        obs = dirs / np.sqrt(dirs[:, None, :] @ dirs[:, :, None])[:, 0]
        return np.exp(1j * k * (obs @ pos.T)), obs
    obs = array.center + radius * dirs
    d = np.linalg.norm(obs[:, None, :] - pos[None, :, :], axis=2)
    if np.any(d <= 0):
        raise ValueError("observation point coincides with an array element")
    return np.exp(-1j * k * d) / d, obs


def directivity_pattern(array: RisArray, state: ScatteringState, incident: Wave,
                        angle_grid_deg=None, cut: PatternCut = PatternCut()) -> np.ndarray:
    """Normalized power pattern over a cut, as (angle_deg, power_db) rows.

    ``state.gammas`` is one scattering state (N,) or a stack (S, N) of states
    at the same frequency, e.g. one per tuning of the surface; the result is
    (A, 2) rows for one state and (S, A, 2) for a stack, each pattern
    normalized on its own so its peak sits at 0 dB. Powers more than 300 dB
    below the peak are floored to keep the dB scale finite.

    The incident amplitude at the elements is computed once; the cut is then
    evaluated in blocks of angles, each an (angles x elements) propagation
    matrix summed along the element axis. Every row reproduces the
    ``reflected_field`` sum at that observation.
    """
    angles = DEFAULT_ANGLE_GRID if angle_grid_deg is None else np.asarray(angle_grid_deg, dtype=float)
    if angles.ndim != 1 or len(angles) < 1:
        raise ValueError("angle grid must be a non-empty 1-D array")
    if state.frequency != incident.frequency:
        raise FrequencyMismatchError(
            f"scattering state at {state.frequency} Hz but incident wave at "
            f"{incident.frequency} Hz")
    gammas = np.asarray(state.gammas)
    if gammas.ndim not in (1, 2) or gammas.shape[-1] != array.n_elements:
        raise ValueError("scattering state does not match the array size")
    k = 2.0 * np.pi * incident.frequency / SPEED_OF_LIGHT
    a_in = _incident_at_elements(incident, array.element_positions, k)
    stack = gammas.reshape(-1, array.n_elements)
    dirs = _cut_directions(array, angles, cut)
    block = max(1, _BLOCK_TERMS // array.n_elements)
    power = np.empty((len(stack), len(angles)))
    for start in range(0, len(angles), block):
        rows = slice(start, start + block)
        a_out, obs = _outgoing_block(array, k, dirs[rows], cut.radius)
        if array.element_pattern == "cosine":
            cos_in, cos_out = _element_cosines(array, incident, obs, cut.radius is None)
        for s, g in enumerate(stack):
            terms = a_in * g * a_out
            if array.element_pattern == "cosine":
                terms = terms * cos_in * cos_out
            power[s, rows] = np.abs(np.sum(terms, axis=1)) ** 2
    peak = np.max(power, axis=1, keepdims=True)
    if np.any(peak <= 0):
        raise ValueError("pattern is identically zero")
    # to dB in place: a stack of many states keeps no extra copies alive
    np.maximum(power, peak * 1e-30, out=power)
    power /= peak
    np.log10(power, out=power)
    power *= 10.0
    result = np.empty(power.shape + (2,))
    result[..., 0] = angles
    result[..., 1] = power
    return result[0] if gammas.ndim == 1 else result


def main_lobe_angle(pattern: np.ndarray) -> float:
    """Angle of the pattern maximum, refined by a parabolic fit.

    Fits a quadratic through the peak sample and its neighbors; falls back
    to the grid angle at the edges or on flat tops. Ties resolve toward the
    smaller angle (first maximum).
    """
    pattern = np.asarray(pattern, dtype=float)
    if pattern.ndim != 2 or pattern.shape[1] != 2 or len(pattern) == 0:
        raise ValueError("pattern must be an (N, 2) array of angle, power rows")
    angles, power = pattern[:, 0], pattern[:, 1]
    i = int(np.argmax(power))
    if i == 0 or i == len(power) - 1:
        return float(angles[i])
    x0, x1, x2 = angles[i - 1], angles[i], angles[i + 1]
    y0, y1, y2 = power[i - 1], power[i], power[i + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2 * x2 * (y0 - y1) + x1 * x1 * (y2 - y0) + x0 * x0 * (y1 - y2)) / denom
    if a >= 0:  # flat or degenerate neighborhood
        return float(x1)
    vertex = -b / (2.0 * a)
    lo, hi = min(x0, x2), max(x0, x2)
    return float(min(max(vertex, lo), hi))


def pattern_to_csv(pattern: np.ndarray, path) -> None:
    """Write a pattern as CSV with 9-significant-digit decimal fields."""
    pattern = np.asarray(pattern, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("angle_deg,power_db\n")
        for angle, db in pattern:
            fh.write(f"{angle:.9g},{db:.9g}\n")
