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

from .errors import NumericalError

SPEED_OF_LIGHT = 299_792_458.0  # m/s
FREE_SPACE_IMPEDANCE = 376.730313668  # ohm


@dataclass(frozen=True)
class CircuitParams:
    """Equivalent-circuit constants of one reflective element.

    Defaults describe a varactor cell usable around 2.5 GHz; every value
    can be overridden per scenario, or per case: (S, 1) arrays broadcast
    against N elements, evaluating S cases at once.
    """

    l_bottom: float = 2.5e-9            # H, bottom-layer inductance
    l_top: float = 0.7e-9               # H, top-layer inductance
    r_loss: float = 1.0                 # ohm, series loss
    z0: float = FREE_SPACE_IMPEDANCE    # ohm, reference impedance
    c_min: float = 0.47e-12             # F, varactor range lower edge
    c_max: float = 2.35e-12             # F, varactor range upper edge

    def __post_init__(self):
        if np.any(np.less_equal(self.l_bottom, 0)) or np.any(np.less_equal(self.l_top, 0)):
            raise ValueError("l_bottom and l_top must be positive")
        if np.any(np.less(self.r_loss, 0)):
            raise ValueError("r_loss must be non-negative")
        if np.any(np.less_equal(self.z0, 0)):
            raise ValueError("z0 must be positive")
        if not (np.all(np.greater(self.c_min, 0)) and np.all(np.less(self.c_min, self.c_max))):
            raise ValueError("capacitance range must satisfy 0 < c_min < c_max")


def _mobius(w, params: CircuitParams):
    """(a, b, c, d) of gamma = (a*y + b) / (c*y + d) at angular frequency ``w``: Z's
    series branch is jy + R, so (Z - z0) / (Z + z0) is a Mobius map of y."""
    z_b, z0, r = 1j * w * params.l_bottom, params.z0, params.r_loss
    return 1j * (z_b - z0), r * (z_b - z0) - z0 * z_b, 1j * (z_b + z0), r * (z_b + z0) + z0 * z_b


def element_reflection(capacitance, frequency, params: CircuitParams):
    """Reflection coefficient gamma = (Z - z0) / (Z + z0); broadcasts over c and f.

    |gamma| <= 1 whenever r_loss >= 0, and |gamma| == 1 in the lossless
    limit r_loss == 0. A non-finite reflection, from constants so extreme
    that the circuit overflows, raises NumericalError.
    """
    # constants near the float range overflow here; the finite check below reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cap, f = np.asarray(capacitance, dtype=float), np.asarray(frequency, dtype=float)
        if np.any(cap <= 0):
            raise ValueError("capacitance must be positive")
        if np.any(f <= 0):
            raise ValueError("frequency must be positive")
        w = 2.0 * np.pi * f
        y = w * params.l_top - 1.0 / (w * cap)     # the series branch's reactance
        a, b, c, d = _mobius(w, params)
        num = np.asarray(a * y + b)
        # np.divide in place, also for a scalar, whose gamma then has its array's bits
        # (Python's complex division rounds otherwise); [()] unwraps a 0-d result
        gamma = np.divide(num, c * y + d, out=num)[()]
    if not np.all(np.isfinite(gamma)):
        raise NumericalError("reflection is not finite; the element circuit overflows")
    return gamma


def wrap_phase(phi):
    """Wrap to (-pi, pi]."""
    out = np.mod(-np.asarray(phi) + np.pi, 2.0 * np.pi)
    return np.pi - out


def _real_roots(p2, p1, p0):
    """Both roots of p2*y**2 + p1*y + p0: NaN when complex, one infinite when p2 = 0."""
    q = -0.5 * (p1 + np.copysign(np.sqrt(p1 * p1 - 4.0 * p2 * p0), p1))
    return q / p2, p0 / q


def phase_to_capacitance(target_phase, frequency, params: CircuitParams) -> tuple:
    """Invert a reflection phase to the capacitance realizing it, in closed form.

    With y = wL2 - 1/(wc) real, gamma = (a*y + b) / (c*y + d), so arg gamma
    = phi is the real quadratic Im(exp(-j phi) (a*y + b) conj(c*y + d)) = 0.
    A target is reachable when a root lies in [y(c_min), y(c_max)] with
    exp(-j phi) gamma > 0. Other targets are clamped to the circularly
    nearest achievable phase, which is the phase at c_min, at c_max or at
    a phase extremum inside the range (ties go to c_min), and flagged.
    Accepts target phases of any shape, a scalar as 0-d, at one frequency, and
    per-case constants that broadcast against them; (capacitance, clamped) take that shape.
    """
    target = wrap_phase(np.asarray(target_phase, dtype=float))
    # extreme constants overflow here; the clamp edges' element_reflection reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = 2.0 * np.pi * frequency
        a, b, c, d = _mobius(w, params)
        # (a*y + b) conj(c*y + d) = p2 y^2 + p1 y + p0 for real y
        p2, p1, p0 = a * np.conj(c), a * np.conj(d) + b * np.conj(c), b * np.conj(d)
        # the phase is stationary where Im((ad - bc) conj((a*y + b)(c*y + d))) = 0
        k = a * d - b * c
        rot = np.exp(-1j * target)
        # the roots do not depend on l_top, c_min or c_max: per-case values of those
        # first broadcast in the range test
        wl_top = w * params.l_top
        y_lo, y_hi = (wl_top - 1.0 / (w * edge) for edge in (params.c_min, params.c_max))
        y = np.full(np.broadcast_shapes(target.shape, np.shape(y_lo), np.shape(y_hi)), np.nan)
        for root in _real_roots((rot * p2).imag, (rot * p1).imag, (rot * p0).imag):
            on_arc = (rot * ((p2 * root + p1) * root + p0)).real > 0
            y = np.where(np.isnan(y) & on_arc & (root >= y_lo) & (root <= y_hi), root, y)
        extrema = _real_roots((k * np.conj(a * c)).imag, (k * np.conj(a * d + b * c)).imag,
                              (k * np.conj(b * d)).imag)
        # an extremum outside the range stands in as c_min; the first of tied edges wins
        edges = [params.c_min, *(np.where((y_lo < e) & (e < y_hi), 1.0 / (w * (wl_top - e)),
                                          params.c_min) for e in extrema), params.c_max]
        clamped = np.isnan(y)
        cap = np.asarray(np.clip(1.0 / (w * (wl_top - y)), params.c_min, params.c_max))
        del y
    _clamp(cap, clamped, target, edges, frequency, params)
    return cap, clamped


def _clamp(cap: np.ndarray, unreachable: np.ndarray, target: np.ndarray, edges: list,
           frequency, params: CircuitParams) -> None:
    """Set the capacitances ``cap`` of the ``unreachable`` targets to the edge of
    ``edges`` whose phase is circularly nearest; the first of tied edges wins.

    Each edge's phase is taken at the edge's own shape, then the search runs
    over the unreachable targets only, gathered by flat index into ``cap``: an
    (S, 1) constant at row ``flat // N``, an (N,) target at column ``flat % N``,
    a scalar as it is and any other value from its broadcast to ``cap``'s shape.
    """
    phases = [np.angle(element_reflection(edge, frequency, params)) for edge in edges]
    flat = np.flatnonzero(unreachable)
    n = cap.shape[-1] if cap.ndim else 1
    rows = flat // n

    def at(values):
        values = np.asarray(values)
        if values.shape == (*cap.shape[:-1], 1):
            return values.reshape(-1)[rows]
        if values.shape == (n,):
            return values[flat % n]
        return values if values.ndim == 0 else np.broadcast_to(values, cap.shape).reshape(-1)[flat]

    goal, nearest, best = at(target), 0, np.inf
    for i, phase in enumerate(phases):
        gap = np.abs(wrap_phase(goal - at(phase)))
        nearest, best = np.where(gap < best, i, nearest), np.minimum(gap, best)
    cap.reshape(-1)[flat] = np.choose(nearest, [at(edge) for edge in edges])
