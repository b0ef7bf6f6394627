"""Surface tuning: ideal phases, hardware realization, off-tune evaluation.

The pipeline is two-stage on purpose. Phases are first optimized as
ideal unit-magnitude reflections, then realized as capacitances through
the element circuit, which costs some magnitude and clamps phases the
hardware cannot reach. The realized capacitances are a frozen physical
state; re-evaluating them at another carrier yields the scattering the
surface presents to that carrier.
"""

from dataclasses import dataclass, field

import numpy as np

from .array_field import ScatteringState
from .channels import ChannelSet, _off_carrier
from .circuit import CircuitParams, element_reflection, phase_to_capacitance
from .errors import DegenerateChannelError


@dataclass
class OptimizationLog:
    """Objective trace of a coordinate-ascent run, one entry per sweep.

    For stacked channel sets each entry holds one objective per
    realization, a converged realization repeating its final value;
    ``converged`` then says whether all of them converged, and
    ``converged_each`` says it per realization.
    """

    objectives: list = field(default_factory=list)
    converged: bool = False
    converged_each: np.ndarray | None = None


@dataclass(frozen=True)
class TuningResult:
    """A frozen surface: capacitances realized at ``frequency`` through the circuit
    ``params`` (scalars, or the (S, 1) constants of S stacked cases), and the mask
    ``clamped`` of the elements whose phase fell outside the achievable arc.
    Reflections at any carrier, the tuning one too, are ``evaluate_off_frequency``'s.
    """

    capacitances: np.ndarray            # F per element
    frequency: float
    params: CircuitParams
    clamped: np.ndarray
    # flat indices of the clamped elements, which perfbench/tracing.py counts
    clamp_report = property(lambda self: np.flatnonzero(self.clamped))


def _flat_terms(channel_sets):
    """Carrier, every direct entry as (realizations x entries), and the cascade
    laid out element-major as (elements x realizations x entries); unstacked sets
    are one realization."""
    if len(channel_sets) == 0:
        raise ValueError("at least one target channel set is required")
    f = channel_sets[0].frequency
    lead = channel_sets[0].direct.shape[:-2]
    n_el = channel_sets[0].ris_to_ue.shape[-1]
    for chs in channel_sets:
        if _off_carrier(chs.frequency, f):
            raise ValueError("all target channel sets must share one carrier")
        if chs.ris_to_ue.shape[-1] != n_el:
            raise ValueError("all target channel sets must share the element count")
        if chs.direct.shape[:-2] != lead:
            raise ValueError("all target channel sets must stack the same realizations")
    n_real = int(np.prod(lead))
    base = np.concatenate([chs.direct.reshape(n_real, -1) for chs in channel_sets], axis=1)
    cascade = np.empty((n_el, n_real, sum(chs.direct.shape[-2] * chs.bs_to_ris.shape[-1]
                                          for chs in channel_sets)), dtype=complex)
    stop = 0
    for chs in channel_sets:
        n_ue, n_bs = chs.direct.shape[-2], chs.bs_to_ris.shape[-1]
        start, stop = stop, stop + n_ue * n_bs
        # entry (n, r, (u, m)) is element n's gain from BS antenna m to row u
        np.multiply(np.moveaxis(chs.ris_to_ue.reshape(n_real, n_ue, n_el), 2, 0)[..., None],
                    np.moveaxis(chs.bs_to_ris.reshape(n_real, n_el, n_bs), 1, 0)[:, :, None],
                    out=cascade[:, :, start:stop].reshape(n_el, n_real, n_ue, n_bs))
    return f, base, cascade


def _power(residual: np.ndarray) -> np.ndarray:
    """Summed |entry|^2 of each realization's row of entries."""
    return (residual.real ** 2 + residual.imag ** 2).sum(axis=-1)


def _residual(theta: np.ndarray, base: np.ndarray, cascade: np.ndarray) -> np.ndarray:
    """``base`` plus every element's cascade weighted by its reflection ``theta``."""
    return base + (theta[:, None, :] @ cascade.transpose(1, 0, 2))[:, 0, :]


def weighted_sum_power(channel_sets, state: ScatteringState):
    """Objective: the summed power |h_eff|^2 of every row of every set.

    A float, or one value per realization for stacked sets and states.
    """
    _, base, cascade = _flat_terms(channel_sets)
    power = _power(_residual(np.broadcast_to(state.gammas, (len(base), len(cascade))), base,
                             cascade))
    return power if channel_sets[0].direct.ndim == 3 else float(power[0])


def align_phases_single_target(chs: ChannelSet) -> ScatteringState:
    """Closed-form phase alignment for one target UE and one BS antenna.

    Every element phase is set so its cascaded contribution arrives
    co-phased with the direct path (or with phase zero when the direct
    entry is zero, as for a blocked user, and the common reference drops
    out).
    """
    if chs.direct.shape != (1, 1):
        raise ValueError("closed-form alignment handles a single UE antenna and a "
                         "single BS antenna; use optimize_weighted_sum_power otherwise")
    cascade = chs.ris_to_ue[0, :] * chs.bs_to_ris[:, 0]
    if not np.any(cascade):
        raise DegenerateChannelError("cascaded element gains are identically zero")
    reference = float(np.angle(chs.direct[0, 0])) if chs.direct[0, 0] != 0 else 0.0
    phases = reference - np.angle(cascade)
    return ScatteringState(gammas=np.exp(1j * phases), frequency=chs.frequency)


def optimize_weighted_sum_power(channel_sets, max_iters: int = 200, tol: float = 1e-6,
                                log: OptimizationLog | None = None) -> ScatteringState:
    """Coordinate ascent on ideal element phases for the summed row power.

    Cycles the elements, giving each the closed-form phase that
    maximizes the objective with the others held fixed, so the logged
    per-sweep objective never decreases. Stops when a full sweep
    improves the objective by less than ``tol`` relative, or after
    ``max_iters`` sweeps (best-so-far state, convergence flag unset).
    Stacked channel sets are optimized in one pass, giving stacked phases;
    each realization stops changing in the sweep it converges in, so its
    phases, trace and flag are those of a run on it alone.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    f, base, cascade = _flat_terms(channel_sets)
    residual = _residual(np.ones((len(base), len(cascade)), dtype=complex), base, cascade)
    # element-major: the cascade's and the phases' rows are the elements
    theta = np.ones((len(cascade), len(base)), dtype=complex)
    current = _power(residual)
    trace = [current]
    converged = np.zeros(len(base), dtype=bool)
    term, s = np.empty_like(residual), np.empty(len(base), dtype=complex)
    mag, moved = np.empty(len(base)), np.empty(len(base), dtype=bool)
    for _ in range(max_iters):
        for theta_n, cascade_n in zip(theta, cascade):
            residual -= np.multiply(theta_n[:, None], cascade_n, out=term)
            # vdot(cascade_n, residual) as one BLAS product per realization, whose bits do
            # not depend on the stack size; a zero correlation leaves the phase as it is
            np.vecdot(cascade_n, residual, out=s)
            np.divide(s, np.abs(s, out=mag), out=theta_n, where=np.greater(mag, 0, out=moved))
            residual += np.multiply(theta_n[:, None], cascade_n, out=term)
        previous, current = current, _power(residual)
        trace.append(current)
        done = ~converged & (current - previous <= tol * np.maximum(previous,
                                                                    np.finfo(float).tiny))
        converged |= done
        # a converged realization's zero cascade leaves its phases and residual as they are
        cascade[:, done] = 0.0
        if converged.all():
            break
    theta = np.ascontiguousarray(theta.T)
    stacked = channel_sets[0].direct.ndim == 3
    if log is not None:
        log.objectives.extend(trace if stacked else [float(o[0]) for o in trace])
        log.converged = bool(converged.all())
        log.converged_each = converged
    return ScatteringState(gammas=theta if stacked else theta[0], frequency=f)


def realize_capacitances(theta_star: ScatteringState, params: CircuitParams) -> TuningResult:
    """Invert ideal phases to capacitances through the element circuit.

    Unreachable phases clamp to the nearest achievable phase and are marked
    in ``clamped``. Stacked phases, and (S, 1) per-case circuit constants as
    S stacked cases, are inverted in one call.
    """
    f = theta_star.frequency
    cap, clamped = phase_to_capacitance(np.angle(theta_star.gammas), f, params)
    return TuningResult(capacitances=cap, frequency=f, params=params, clamped=clamped)


def evaluate_off_frequency(result: TuningResult, f_m: float) -> ScatteringState:
    """The frozen capacitances' scattering at carrier ``f_m`` (positive), through their circuit."""
    return ScatteringState(gammas=element_reflection(result.capacitances, f_m, result.params),
                           frequency=float(f_m))
