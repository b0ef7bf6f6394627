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
from .channels import ChannelSet
from .circuit import CircuitParams, element_reflection, phase_to_capacitance, wrap_phase
from .errors import DegenerateChannelError


@dataclass(frozen=True)
class ClampEntry:
    """One element whose requested phase fell outside the achievable span.

    ``index`` counts elements in the order of the tuned phases, realization
    by realization when they are stacked.
    """

    index: int
    target_phase: float
    achieved_phase: float
    residual: float             # |wrapped target - achieved|, radians


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


@dataclass
class TuningResult:
    """Realized hardware state: frozen capacitances and their reflections."""

    capacitances: np.ndarray            # F per element
    realized_gammas: np.ndarray         # circuit reflections at the tuning carrier
    frequency: float
    clamp_report: tuple
    converged: bool | np.ndarray | None = None


def _flat_terms(channel_sets):
    """Carrier, every direct entry as (realizations x entries), and the
    (realizations x elements x entries) cascade; unstacked sets are one realization."""
    if len(channel_sets) == 0:
        raise ValueError("at least one target channel set is required")
    f = channel_sets[0].frequency
    lead = channel_sets[0].direct.shape[:-2]
    n_el = channel_sets[0].ris_to_ue.shape[-1]
    for chs in channel_sets:
        if abs(chs.frequency - f) > 1e-6 * f:
            raise ValueError("all target channel sets must share one carrier")
        if chs.ris_to_ue.shape[-1] != n_el:
            raise ValueError("all target channel sets must share the element count")
        if chs.direct.shape[:-2] != lead:
            raise ValueError("all target channel sets must stack the same realizations")
    n_real = int(np.prod(lead))
    base = np.concatenate([chs.direct.reshape(n_real, -1) for chs in channel_sets], axis=1)
    # entry (r, n, (u, m)) is element n's gain from BS antenna m to row u, as in cascade_gains
    parts = [(np.swapaxes(chs.ris_to_ue, -1, -2)[..., :, :, None]
              * chs.bs_to_ris[..., :, None, :]).reshape(n_real, n_el, -1)
             for chs in channel_sets]
    return f, base, parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)


def _power(residual: np.ndarray) -> np.ndarray:
    """Summed |entry|^2 of each realization's row of entries."""
    return (residual.real ** 2 + residual.imag ** 2).sum(axis=-1)


def _residual(theta: np.ndarray, base: np.ndarray, cascade: np.ndarray) -> np.ndarray:
    return base + (theta[:, None, :] @ cascade)[:, 0, :]


def weighted_sum_power(channel_sets, state: ScatteringState):
    """Objective: the summed power |h_eff|^2 of every row of every set.

    A float, or one value per realization for stacked sets and states.
    """
    _, base, cascade = _flat_terms(channel_sets)
    power = _power(_residual(np.broadcast_to(state.gammas, cascade.shape[:2]), base, cascade))
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
    theta = np.ones(cascade.shape[:2], dtype=complex)
    residual = _residual(theta, base, cascade)
    current = _power(residual)
    trace = [current]
    converged = np.zeros(len(theta), dtype=bool)
    for _ in range(max_iters):
        for n in range(cascade.shape[1]):
            c = cascade[:, n]
            residual -= theta[:, n, None] * c
            # conj of vdot(residual, c); a zero correlation leaves the phase as it is
            s = np.add.reduce(residual * c.conj(), axis=-1)
            mag = np.abs(s)
            np.divide(s, mag, out=theta[:, n], where=mag > 0)
            residual += theta[:, n, None] * c
        previous, current = current, _power(residual)
        trace.append(current)
        done = ~converged & (current - previous <= tol * np.maximum(previous,
                                                                    np.finfo(float).tiny))
        converged |= done
        # a converged realization's zero cascade leaves its phases and residual as they are
        cascade[done] = 0.0
        if converged.all():
            break
    stacked = channel_sets[0].direct.ndim == 3
    if log is not None:
        log.objectives.extend(trace if stacked else [float(o[0]) for o in trace])
        log.converged = bool(converged.all())
        log.converged_each = converged
    return ScatteringState(gammas=theta if stacked else theta[0], frequency=f)


def realize_capacitances(theta_star: ScatteringState, params: CircuitParams) -> TuningResult:
    """Invert ideal phases to capacitances through the element circuit.

    Unreachable phases clamp to the nearest achievable phase and are
    listed in the clamp report. Stacked phases are inverted in one call.
    """
    f = theta_star.frequency
    targets = np.angle(theta_star.gammas)
    solution = phase_to_capacitance(targets, f, params)
    idx = np.flatnonzero(solution.clamped)
    target, achieved = targets.ravel()[idx], solution.achieved_phase.ravel()[idx]
    report = tuple(map(ClampEntry, idx.tolist(), target.tolist(), achieved.tolist(),
                       np.abs(wrap_phase(target - achieved)).tolist()))
    return TuningResult(capacitances=solution.capacitance, frequency=f, clamp_report=report,
                        realized_gammas=element_reflection(solution.capacitance, f, params).gamma)


def evaluate_off_frequency(result: TuningResult, f_m: float,
                           params: CircuitParams) -> ScatteringState:
    """Scattering the frozen capacitances present to carrier ``f_m``."""
    if f_m <= 0:
        raise ValueError("f_m must be positive")
    gammas = element_reflection(result.capacitances, f_m, params).gamma
    return ScatteringState(gammas=np.atleast_1d(gammas), frequency=float(f_m))

