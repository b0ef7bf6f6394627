"""Varactor-tuned reflective element: equivalent circuit, reflection, inversion.

Each surface element is modeled as a bottom-layer inductance in parallel
with a series branch of top-layer inductance, tunable varactor capacitance
and loss resistance:

    Z(c, f) = jwL1 * (jwL2 + 1/(jwc) + R) / (jwL1 + jwL2 + 1/(jwc) + R)

with w = 2*pi*f. The reflection coefficient against the surface impedance
z0 is gamma = (Z - z0) / (Z + z0), a Mobius map of the real reactance
wL2 - 1/(wc), so a phase inverts to a capacitance in closed form. With
enough loss the phase is not monotone in c and its achievable arc is
short; targets off the arc clamp to its nearest point.

All element operations broadcast over numpy arrays of capacitances and
frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularityError

SPEED_OF_LIGHT = 299_792_458.0  # m/s
FREE_SPACE_IMPEDANCE = 376.730313668  # ohm


@dataclass(frozen=True)
class CircuitParams:
    """Equivalent-circuit constants of one reflective element.

    Defaults describe a varactor cell usable around 2.5 GHz; every value
    can be overridden per scenario.
    """

    l_bottom: float = 2.5e-9            # H, bottom-layer inductance
    l_top: float = 0.7e-9               # H, top-layer inductance
    r_loss: float = 1.0                 # ohm, series loss
    z0: float = FREE_SPACE_IMPEDANCE    # ohm, reference impedance
    c_min: float = 0.47e-12             # F, varactor range lower edge
    c_max: float = 2.35e-12             # F, varactor range upper edge

    def __post_init__(self):
        if self.l_bottom <= 0 or self.l_top <= 0:
            raise ValueError("l_bottom and l_top must be positive")
        if self.r_loss < 0:
            raise ValueError("r_loss must be non-negative")
        if self.z0 <= 0:
            raise ValueError("z0 must be positive")
        if not 0 < self.c_min < self.c_max:
            raise ValueError("capacitance range must satisfy 0 < c_min < c_max")


@dataclass(frozen=True)
class Reflection:
    """Reflection coefficient(s) of one or more elements at one frequency."""

    gamma: complex | np.ndarray
    frequency: float
    capacitance: float | np.ndarray


@dataclass(frozen=True)
class CapacitanceSolution:
    """Result of inverting a target reflection phase to a capacitance.

    ``clamped`` marks targets outside the achievable phase arc; those get
    the capacitance of the circularly nearest achievable phase.
    """

    capacitance: float | np.ndarray
    clamped: bool | np.ndarray
    achieved_phase: float | np.ndarray
    target_phase: float | np.ndarray


def _as_scalar_or_array(x):
    x = np.asarray(x)
    return x[()] if x.ndim == 0 else x


def element_impedance(capacitance, frequency, params: CircuitParams):
    """Input impedance of the element; broadcasts over c and f.

    Requires capacitance > 0 and frequency > 0.
    """
    c = np.asarray(capacitance, dtype=float)
    f = np.asarray(frequency, dtype=float)
    if np.any(c <= 0):
        raise ValueError("capacitance must be positive")
    if np.any(f <= 0):
        raise ValueError("frequency must be positive")
    w = 2.0 * np.pi * f
    z_bottom = 1j * w * params.l_bottom
    z_top = 1j * w * params.l_top + 1.0 / (1j * w * c) + params.r_loss
    return _as_scalar_or_array(z_bottom * z_top / (z_bottom + z_top))


def element_reflection(capacitance, frequency, params: CircuitParams) -> Reflection:
    """Reflection coefficient gamma = (Z - z0) / (Z + z0).

    |gamma| <= 1 whenever r_loss >= 0, and |gamma| == 1 in the lossless
    limit r_loss == 0. A non-finite reflection, from constants so extreme
    that the impedance overflows, raises SingularityError.
    """
    # constants near the float range overflow here; the finite check below reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = np.asarray(element_impedance(capacitance, frequency, params))
        denom = z + params.z0
        if np.any(np.abs(denom) < 1e-12 * params.z0):
            raise SingularityError("element impedance equals -z0; reflection undefined")
        gamma = (z - params.z0) / denom
    if not np.all(np.isfinite(gamma)):
        raise SingularityError("reflection is not finite; the element circuit overflows")
    return Reflection(
        gamma=_as_scalar_or_array(gamma),
        frequency=frequency,
        capacitance=capacitance,
    )


def wrap_phase(phi):
    """Wrap to (-pi, pi]."""
    out = np.mod(-np.asarray(phi) + np.pi, 2.0 * np.pi)
    return np.pi - out


def _real_roots(p2, p1, p0):
    """Both roots of p2*y**2 + p1*y + p0: NaN when complex, one infinite when p2 = 0."""
    q = -0.5 * (p1 + np.copysign(np.sqrt(p1 * p1 - 4.0 * p2 * p0), p1))
    return q / p2, p0 / q


def phase_to_capacitance(target_phase, frequency, params: CircuitParams) -> CapacitanceSolution:
    """Invert a reflection phase to the capacitance realizing it, in closed form.

    With y = wL2 - 1/(wc) real, gamma = (a*y + b) / (c*y + d), so arg gamma
    = phi is the real quadratic Im(exp(-j phi) (a*y + b) conj(c*y + d)) = 0.
    A target is reachable when a root lies in [y(c_min), y(c_max)] with
    exp(-j phi) gamma > 0. Other targets are clamped to the circularly
    nearest achievable phase, which is the phase at c_min, at c_max or at
    a phase extremum inside the range (ties go to c_min), and flagged.
    Accepts a scalar or an array of any shape of target phases at one
    frequency.
    """
    target = wrap_phase(np.asarray(target_phase, dtype=float))
    scalar_in = target.ndim == 0
    target = np.atleast_1d(target)

    w = 2.0 * np.pi * frequency
    z_b, z0, r = 1j * w * params.l_bottom, params.z0, params.r_loss
    a, b = 1j * (z_b - z0), r * (z_b - z0) - z0 * z_b
    c, d = 1j * (z_b + z0), r * (z_b + z0) + z0 * z_b
    y_lo, y_hi = w * params.l_top - 1.0 / (w * np.array([params.c_min, params.c_max]))
    # (a*y + b) conj(c*y + d) = p2 y^2 + p1 y + p0 for real y
    p2, p1, p0 = a * np.conj(c), a * np.conj(d) + b * np.conj(c), b * np.conj(d)
    # the phase is stationary where Im((ad - bc) conj((a*y + b)(c*y + d))) = 0
    k = a * d - b * c
    rot = np.exp(-1j * target)
    y = np.full(target.shape, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        for root in _real_roots((rot * p2).imag, (rot * p1).imag, (rot * p0).imag):
            hit = (np.isnan(y) & (root >= y_lo) & (root <= y_hi)
                   & ((rot * ((p2 * root + p1) * root + p0)).real > 0))
            y = np.where(hit, root, y)
        extrema = [e for e in _real_roots((k * np.conj(a * c)).imag,
                                          (k * np.conj(a * d + b * c)).imag,
                                          (k * np.conj(b * d)).imag) if y_lo < e < y_hi]
    reachable = ~np.isnan(y)
    cap = np.clip(1.0 / (w * (w * params.l_top - y)), params.c_min, params.c_max)
    edges = np.array([params.c_min, *(1.0 / (w * (w * params.l_top - e)) for e in extrema),
                      params.c_max])
    edge_phase = np.angle(element_reflection(edges, frequency, params).gamma)
    edge_phase = edge_phase.reshape((-1,) + (1,) * target.ndim)
    nearest = np.argmin(np.abs(wrap_phase(target[None] - edge_phase)), axis=0)
    cap = np.where(reachable, cap, edges[nearest])

    achieved = np.angle(element_reflection(cap, frequency, params).gamma)
    clamped = ~reachable
    if scalar_in:
        return CapacitanceSolution(
            capacitance=float(cap[0]),
            clamped=bool(clamped[0]),
            achieved_phase=float(achieved[0]),
            target_phase=float(target[0]),
        )
    return CapacitanceSolution(
        capacitance=cap, clamped=clamped, achieved_phase=achieved, target_phase=target
    )


def reflection_phase_interval(frequency, params: CircuitParams):
    """(phase at c_min, phase at c_max) in radians, wrapped to (-pi, pi]."""
    p_min = float(np.angle(element_reflection(params.c_min, frequency, params).gamma))
    p_max = float(np.angle(element_reflection(params.c_max, frequency, params).gamma))
    return p_min, p_max
