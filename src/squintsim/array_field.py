"""Planar reflective array: geometry, scattering states, re-radiated fields.

Field evaluation is a coherent sum over elements of incident amplitude and
phase at the element, times the element reflection coefficient, times the
propagation factor to the observation. The surface is fed by a point
source, whose spherical wavefront uses the exact per-element distance;
far-field observations use a direction and drop the 1/d amplitude.
Elements are isotropic scalar scatterers by default (single polarization);
an optional cosine factor per element is available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import SPEED_OF_LIGHT

PLANE_AXES = {
    # plane -> (column axis, row axis, broadside normal)
    "xz": ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
    "xy": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    "yz": ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
}

# Cap on the element x angle terms in one block of a pattern cut. It bounds
# the temporaries of ``directivity_pattern`` (a few (angles x elements)
# arrays, 256 KB each at this cap) whatever the grid or array size, while
# giving each matrix-vector product enough angles to amortize its call; a
# larger cap was no faster on fig3 and raised its peak memory.
_BLOCK_TERMS = 1 << 14


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
class PatternCut:
    """Observation cut for directivity patterns.

    The observation direction at angle theta (degrees) is
    sin(theta) * sweep + cos(theta) * reference, for an orthonormal
    (sweep, reference) pair: the surface's own axes and normal, or the
    plane through two scene points via ``through_points``. ``radius`` None
    means far-field directions; a positive value places point observations
    on an arc of that radius around the array center.
    """

    radius: float | None
    sweep: tuple[float, float, float]
    reference: tuple[float, float, float]

    def __post_init__(self):
        if self.radius is not None and self.radius <= 0:
            raise ValueError("cut radius must be positive")
        s, r = self._frame()
        if abs(np.linalg.norm(s) - 1.0) > 1e-9 or abs(np.linalg.norm(r) - 1.0) > 1e-9:
            raise ValueError("sweep and reference must be unit vectors")
        if abs(float(s @ r)) > 1e-9:
            raise ValueError("sweep and reference must be orthogonal")

    def _frame(self):
        return np.asarray(self.sweep, dtype=float), np.asarray(self.reference, dtype=float)

    def directions(self, angles_deg: np.ndarray) -> np.ndarray:
        """(A, 3) unit observation directions at the given cut angles."""
        s, r = self._frame()
        th = np.radians(angles_deg)
        return np.sin(th)[:, None] * s[None, :] + np.cos(th)[:, None] * r[None, :]

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
        return cls(radius=radius, sweep=tuple(sweep), reference=tuple(ref))

    def angle_of(self, array: "RisArray", point) -> float:
        """In-cut angle (degrees) of a scene point, out-of-plane part ignored."""
        v = np.asarray(point, dtype=float) - array.center
        s, r = self._frame()
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


def _incident_at_elements(array: RisArray, source, k: float):
    """Field of the point-source feed at ``source`` on every element, and the
    elements' incidence cosines against the broadside normal."""
    to_src = np.asarray(source, dtype=float)[None, :] - array.element_positions
    d = np.linalg.norm(to_src, axis=1)
    if np.any(d <= 0):
        raise ValueError("feed coincides with an array element")
    return 1.0 / d * np.exp(-1j * k * d), np.maximum((to_src @ array.normal) / d, 0.0)


def _departure_cosines(array: RisArray, observation, d):
    """Departure cosines against the broadside normal.

    ``observation`` is one 3-vector or a (B, 3) block of them, and ``d``
    their (N,) or (B, N) distances to the elements, None for far-field
    directions. The normal is a coordinate axis, so the offset along it
    equals that coordinate of the element-to-observation vector exactly.
    """
    along = np.asarray(observation) @ array.normal
    if d is None:
        return np.maximum(along[..., None], 0.0)
    return np.maximum((along[..., None] - array.element_positions @ array.normal) / d, 0.0)


def reflected_field(array: RisArray, state: ScatteringState, source,
                    observation, far_field=False) -> complex:
    """Coherent re-radiated field at a point or in a far-field direction.

    The surface is fed from a unit point source at ``source`` and scatters
    at ``state.frequency``. ``observation`` is a 3-vector: a point when
    far_field is False, a unit direction when far_field is True. Point
    observations carry the exact 1/d spreading amplitude; far-field
    directions carry phase only.
    """
    gammas = np.asarray(state.gammas)
    if gammas.shape != (array.n_elements,):
        raise ValueError("scattering state does not match the array size")
    k = 2.0 * np.pi * state.frequency / SPEED_OF_LIGHT
    pos = array.element_positions
    a_in, cos_in = _incident_at_elements(array, source, k)
    obs = np.asarray(observation, dtype=float)
    if far_field:
        n = np.linalg.norm(obs)
        if n == 0:
            raise ValueError("far-field direction must be non-zero")
        obs = obs / n
        d = None
        a_out = np.exp(1j * k * (pos @ obs))
    else:
        d = np.linalg.norm(obs[None, :] - pos, axis=1)
        if np.any(d <= 0):
            raise ValueError("observation point coincides with an array element")
        a_out = np.exp(-1j * k * d) / d
    terms = a_in * gammas * a_out
    if array.element_pattern == "cosine":
        terms = terms * cos_in * _departure_cosines(array, obs, d)
    return complex(np.sum(terms))


def _outgoing_block(array: RisArray, k: float, dirs: np.ndarray, radius, cos_in):
    """(B, N) propagation factors from every element to B cut observations.

    The observations are unit directions, or points on the arc. Each row
    carries the same per-element propagation factors that
    ``reflected_field`` computes for that observation; for cosine elements
    they are multiplied by the incidence cosines ``cos_in`` times that
    observation's departure cosines.
    """
    pos = array.element_positions
    if radius is None:
        # row-wise dot products: the same rounding as np.linalg.norm of one row
        obs = dirs / np.sqrt(dirs[:, None, :] @ dirs[:, :, None])[:, 0]
        d = None
        factors = np.exp(1j * k * (obs @ pos.T))
    else:
        obs = array.center + radius * dirs
        # per coordinate, so no (B, N, 3) temporary; summed in np.linalg.norm's order
        dx, dy, dz = (obs[:, i, None] - pos[:, i] for i in range(3))
        d = np.sqrt((dx * dx + dy * dy) + dz * dz)
        if np.any(d <= 0):
            raise ValueError("observation point coincides with an array element")
        factors = np.exp(-1j * k * d) / d
    if array.element_pattern == "cosine":
        factors *= cos_in * _departure_cosines(array, obs, d)
    return factors


def directivity_pattern(array: RisArray, state: ScatteringState, source,
                        angle_grid_deg, cut: PatternCut) -> np.ndarray:
    """Normalized power pattern over a cut, as (angle_deg, power_db) rows.

    The surface is fed from a point source at ``source``. ``state.gammas``
    is one scattering state (N,) or a stack (S, N) of states at the same
    frequency, e.g. one per tuning of the surface; the result is (A, 2)
    rows for one state and (S, A, 2) for a stack, each pattern normalized
    on its own so its peak sits at 0 dB. Powers more than 300 dB below the
    peak are floored to keep the dB scale finite.

    The incident amplitude at the elements is folded into every state once,
    as per-element weights. The cut is then evaluated in blocks of angles:
    each block builds one (angles x elements) propagation matrix, with the
    cosine element factors folded in, and sums it against each state's
    weights with one matrix-vector product. Every row reproduces the
    ``reflected_field`` sum at that observation up to rounding, and a state
    in a stack gets exactly the values of a call on that state alone.
    """
    angles = np.asarray(angle_grid_deg, dtype=float)
    if angles.ndim != 1 or len(angles) < 1:
        raise ValueError("angle grid must be a non-empty 1-D array")
    gammas = np.asarray(state.gammas)
    if gammas.ndim not in (1, 2) or gammas.shape[-1] != array.n_elements:
        raise ValueError("scattering state does not match the array size")
    k = 2.0 * np.pi * state.frequency / SPEED_OF_LIGHT
    a_in, cos_in = _incident_at_elements(array, source, k)
    weights = a_in * gammas.reshape(-1, array.n_elements)
    dirs = cut.directions(angles)
    block = max(1, _BLOCK_TERMS // array.n_elements)
    power = np.empty((len(weights), len(angles)))
    for start in range(0, len(angles), block):
        rows = slice(start, start + block)
        a_out = _outgoing_block(array, k, dirs[rows], cut.radius, cos_in)
        # one product per state, not one stack-wide product: each state's
        # sums then come from the same BLAS call as in a call on it alone
        for s, w in enumerate(weights):
            power[s, rows] = np.abs(a_out @ w) ** 2
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
