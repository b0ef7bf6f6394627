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
from .errors import NumericalError

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


def _distances(points: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """(P, N) distances from (P, 3) points to (N, 3) positions, summed per coordinate
    in np.linalg.norm's order, in place in the differences: no (P, N, 3)
    temporary, and the norm's bits."""
    dx, dy, dz = (points[:, i, None] - positions[:, i] for i in range(3))
    dx *= dx
    dx += np.multiply(dy, dy, out=dy)
    dx += np.multiply(dz, dz, out=dz)
    return np.sqrt(dx, out=dx)


def _phasor_table() -> np.ndarray:
    """exp(-2 pi j n / 1024) for n < 1024, each from an angle of at most pi/4 (a
    cosine and sine swapped past an eighth turn, then turned by quarter turns,
    which is exact), so that every entry is within 1e-16 of its value."""
    m = np.arange(257)
    c, s = (f(2.0 * np.pi * np.minimum(m, 256 - m) / 1024) for f in (np.cos, np.sin))
    quarter = np.where(m <= 128, c - 1j * s, s - 1j * c)[:256]
    return np.concatenate([quarter * turn for turn in (1, -1j, -1, 1j)])


_PHASES = _phasor_table()
# the Taylor coefficients of cos(hf) and -sin(hf)/f in u = f * f, for h = 2 pi / 1024
_STEP = 2.0 * np.pi / 1024
_COS = (-_STEP ** 2 / 2, _STEP ** 4 / 24)
_SIN = (-_STEP, _STEP ** 3 / 6, -_STEP ** 5 / 120)


def _phasor(turns: np.ndarray, amplitude=None) -> np.ndarray:
    """exp(-2 pi j turns) for an array of ``turns``, times ``amplitude`` when
    given, with no libm call.

    A table lookup times a short series (Tang's method): t = 1024 turns is
    split into its nearest integer i and the rest f, both exactly, and the
    phasor is the table's entry at i mod 1024 times the Taylor series of
    exp(-2 pi j f / 1024), whose first dropped terms are below 2e-18. Its
    error stays within a few 1e-16 of the exact phasor of ``turns``, at any
    size of ``turns``; non-finite turns give NaN. The series runs on real
    arrays, scaled by a real ``amplitude`` before they become complex.
    """
    # non-finite turns make a NaN rest here, and their index an arbitrary, unused entry
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.multiply(turns, 1024.0)
        i = np.rint(f)
        f -= i
        # past 2**62 every float is a multiple of 1024, entry 0
        index = np.clip(i, -2.0 ** 62, 2.0 ** 62, out=i).astype(np.intp)
    del i
    index &= 1023
    u = f * f
    s = u * _SIN[2]
    s += _SIN[1]
    s *= u
    s += _SIN[0]
    s *= f
    # the cosine in the rest's array, which the sine has used
    c = np.multiply(u, _COS[1], out=f)
    c += _COS[0]
    c *= u
    c += 1.0
    del u, f
    if amplitude is not None:
        c *= amplitude
        s *= amplitude
    out = np.empty(c.shape, dtype=complex)
    out.real = c
    out.imag = s
    del c, s
    out *= _PHASES[index]
    return out


def _incident(k: float, d: np.ndarray) -> np.ndarray:
    """Field 1/d exp(-jkd) of a unit point source at distances ``d``, wavenumber ``k``."""
    return _phasor(k / (2.0 * np.pi) * d, 1.0 / d)


def _feed_geometry(array: RisArray, source):
    """Distances from the point-source feed at ``source`` to every element, and
    the elements' incidence cosines against the broadside normal."""
    source = np.asarray(source, dtype=float)
    d = _distances(source[None, :], array.element_positions)[0]
    if np.any(d <= 0):
        raise ValueError("feed coincides with an array element")
    return d, np.maximum(((source - array.element_positions) @ array.normal) / d, 0.0)


def _block_geometry(array: RisArray, obs: np.ndarray, far_field: bool, cos_in):
    """What every carrier shares of the propagation to B observations ``obs``, (B, 3)
    points, or non-zero directions when ``far_field``.

    Returns ``(path, amplitude)``: the (B, N) element distances, or the
    elements' projections on the normalized directions; and the real factors
    of the propagation, None for isotropic elements in the far field. Near
    field they are the reciprocal distances 1/d; for cosine elements the
    incidence cosines ``cos_in`` times the departure cosines, times 1/d near
    field. The normal is a coordinate axis, so the offset along it is that
    coordinate of the element-to-observation vector exactly.
    """
    pos = array.element_positions
    if far_field:
        # row-wise dot products: the same rounding as np.linalg.norm of one row
        obs = obs / np.sqrt(obs[:, None, :] @ obs[:, :, None])[:, 0]
        # one product per row, so a row's bits do not depend on the block it is in
        path = (obs[:, None, :] @ pos.T)[:, 0]
    else:
        path = _distances(obs, pos)
        if np.any(path <= 0):
            raise ValueError("observation point coincides with an array element")
    if array.element_pattern != "cosine":
        return path, None if far_field else 1.0 / path
    along = (obs @ array.normal)[:, None]
    cos_out = along if far_field else (along - pos @ array.normal) / path
    amplitude = cos_in * np.maximum(cos_out, 0.0)
    if not far_field:
        amplitude /= path
    return path, amplitude


def _outgoing_block(k: float, path: np.ndarray, amplitude, far_field: bool):
    """(B, N) propagation factors at wavenumber ``k`` from a block's geometry: the
    far-field phases exp(jkp), or the spherical waves 1/d exp(-jkd). The phasors
    come from ``_phasor`` at turns -kp/2pi or kd/2pi, scaled by the block's real
    ``amplitude`` (1/d near field, times the cosine factors for cosine elements)."""
    return _phasor(path * (k / (-2.0 * np.pi) if far_field else k / (2.0 * np.pi)), amplitude)


def reflected_field(array: RisArray, state: ScatteringState, source,
                    observation, far_field=False) -> complex:
    """Coherent re-radiated field at a point or in a far-field direction.

    The surface is fed from a unit point source at ``source`` and scatters
    at ``state.frequency``. ``observation`` is a 3-vector: a point when
    far_field is False, a unit direction when far_field is True. Point
    observations carry the exact 1/d spreading amplitude; far-field
    directions carry phase only. It is one observation of the kernel that
    ``directivity_pattern`` evaluates a cut with, its phasors from
    ``_phasor``'s table and series, within a few 1e-16 of ``np.exp``'s. A
    field that overflows raises NumericalError.
    """
    gammas = np.asarray(state.gammas)
    if gammas.shape != (array.n_elements,):
        raise ValueError("scattering state does not match the array size")
    obs = np.asarray(observation, dtype=float)
    # a far or tiny scene overflows here; the checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        if far_field and not 0 < np.linalg.norm(obs) < np.inf:
            raise ValueError("far-field direction must be non-zero")
        k = 2.0 * np.pi * state.frequency / SPEED_OF_LIGHT
        d_in, cos_in = _feed_geometry(array, source)
        a_out = _outgoing_block(k, *_block_geometry(array, obs[None, :], far_field, cos_in),
                                far_field)
        field = complex((a_out @ (_incident(k, d_in) * gammas))[0])
    if not np.isfinite(field):
        raise NumericalError("reflected field is not finite: the observation, the feed or "
                             "the surface's scale overflows the field sum")
    return field


def directivity_pattern(array: RisArray, state, source, angle_grid_deg,
                        cut: PatternCut):
    """Normalized power patterns over a cut, as (angle_deg, power_db) rows.

    The surface is fed from a point source at ``source``. ``state`` is one
    ``ScatteringState`` or a sequence or iterator of them, each at its own
    carrier; one state gives one result and several a list, in order. A
    state's ``gammas`` are one scattering state (N,) or a stack (S, N) of
    states at its frequency, e.g. one per tuning of the surface; its result
    is (A, 2) rows for one state and (S, A, 2) for a stack, each pattern
    normalized on its own so its peak sits at 0 dB. ``angle_grid_deg`` is
    one grid of cut angles, shared by every state. Powers more than 300 dB
    below the peak are floored to keep the dB scale finite; a power that
    overflows raises NumericalError. No state is kept once weighed, so the
    states an iterator hands over one at a time can be freed during the
    call.

    The incident field at the elements is folded into every state once,
    as per-element weights. The grid is then walked in blocks of at most
    ``_BLOCK_TERMS`` angle x element terms. Each block computes its
    observation geometry once (distances or far-field projections, and the
    real factors: 1/d near field and the cosine element factors), each
    state's (angles x elements) propagation matrix at its carrier from it,
    through ``_phasor``, and one matrix-vector product per state of its
    stack; numpy takes a one-angle block's product through a dot.
    Each row is the ``reflected_field`` sum at that observation up to
    rounding, and a state gets exactly the values of a call on that state
    alone, whatever else shares the call.
    """
    single = isinstance(state, ScatteringState)
    angles = np.asarray(angle_grid_deg, dtype=float)
    if angles.ndim != 1 or len(angles) < 1:
        raise ValueError("angle grid must be a non-empty 1-D array")
    d_in, cos_in = _feed_geometry(array, source)
    entries = [_weigh(array, d_in, s, angles) for s in ([state] if single else state)]
    dirs, far_field = cut.directions(angles), cut.radius is None
    block = max(1, _BLOCK_TERMS // array.n_elements)
    # an extreme cut radius or surface scale overflows here; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        obs = dirs if far_field else array.center + cut.radius * dirs
        for start in range(0, len(angles), block):
            rows = slice(start, start + block)
            path, amplitude = _block_geometry(array, obs[rows], far_field, cos_in)
            for k, weights, power in entries:
                a_out = _outgoing_block(k, path, amplitude, far_field)
                power[..., rows] = np.abs(np.matmul(a_out, weights)[..., 0]) ** 2
                # freed before the next state's matrix is made
                del a_out
    powers = [power for _, _, power in entries]
    del entries
    if not all(np.all(np.isfinite(power)) for power in powers):
        raise NumericalError("pattern power is not finite: the cut radius or the surface's "
                             "scale overflows the field sum")
    # each power is freed as its rows are made
    results = [_to_db(powers.pop(0), angles) for _ in range(len(powers))]
    return results[0] if single else results


def _weigh(array: RisArray, d_in: np.ndarray, state: ScatteringState,
           angles: np.ndarray) -> tuple:
    """A state's wavenumber, its (S, N, 1) weights (its reflections, (N,) or a stack
    (S, N), times the incident field at the elements) and its unfilled powers over
    ``angles``, (A,) for one state and (S, A) for a stack."""
    gammas = np.asarray(state.gammas)
    if gammas.ndim not in (1, 2) or gammas.shape[-1] != array.n_elements:
        raise ValueError("scattering state does not match the array size")
    k = 2.0 * np.pi * state.frequency / SPEED_OF_LIGHT
    weights = _incident(k, d_in) * gammas
    return k, weights.reshape(-1, array.n_elements, 1), np.empty(gammas.shape[:-1] + angles.shape)


def _to_db(power: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """(..., A, 2) rows of (..., A) powers, one pattern or a stack, each pattern in dB
    below its own peak."""
    peak = np.max(power, axis=-1, keepdims=True)
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
    return result


def main_lobe_angle(pattern: np.ndarray):
    """Angle of each pattern's maximum, refined by a parabolic fit.

    ``pattern`` is (..., A, 2) rows of (angle, power): one pattern gives a
    float, a stack an array of one angle per pattern. Fits a quadratic
    through the peak sample and its neighbors; falls back to the grid angle
    at the edges or on flat tops. Ties resolve toward the smaller angle
    (first maximum). The fit is element-wise arithmetic, so a pattern in a
    stack gets exactly the angle of a call on it alone.
    """
    pattern = np.asarray(pattern, dtype=float)
    if pattern.ndim < 2 or pattern.shape[-1] != 2 or pattern.shape[-2] == 0:
        raise ValueError("pattern must be an (..., N, 2) array of angle, power rows")
    angles, power = pattern[..., 0], pattern[..., 1]
    last = power.shape[-1] - 1
    i = np.argmax(power, axis=-1)[..., None]
    # the peak and its neighbors; at an edge the clipped neighbors go unused
    x0, x1, x2, y0, y1, y2 = (np.take_along_axis(v, np.clip(i + step, 0, last), -1)[..., 0]
                              for v in (angles, power) for step in (-1, 0, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
        a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
        b = (x2 * x2 * (y0 - y1) + x1 * x1 * (y2 - y0) + x0 * x0 * (y1 - y2)) / denom
        vertex = np.minimum(np.maximum(-b / (2.0 * a), np.minimum(x0, x2)), np.maximum(x0, x2))
    # flat or degenerate neighborhoods keep the grid angle
    peak = np.where((i[..., 0] % last == 0) | (a >= 0), x1, vertex) if last else x1
    return float(peak) if peak.ndim == 0 else peak


def pattern_to_csv(pattern: np.ndarray) -> str:
    """A pattern's CSV text, with 9-significant-digit decimal fields."""
    rows = np.asarray(pattern, dtype=float)
    fields = tuple(rows.ravel().tolist())
    return "angle_deg,power_db\n" + ("%.9g,%.9g\n" * len(rows)) % fields
