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
from .channels import ChannelSet, cascade_gains
from .circuit import CircuitParams, element_reflection, phase_to_capacitance, wrap_phase
from .errors import DegenerateChannelError


@dataclass(frozen=True)
class ClampEntry:
    """One element whose requested phase fell outside the achievable span."""

    index: int
    target_phase: float
    achieved_phase: float
    residual: float             # |wrapped target - achieved|, radians


@dataclass
class OptimizationLog:
    """Objective trace of a coordinate-ascent run, one entry per sweep."""

    objectives: list = field(default_factory=list)
    converged: bool = False


@dataclass
class TuningResult:
    """Realized hardware state: frozen capacitances and their reflections."""

    capacitances: np.ndarray            # F per element
    realized_gammas: np.ndarray         # circuit reflections at the tuning carrier
    frequency: float
    clamp_report: tuple
    converged: bool | None = None


def _flat_terms(channel_sets):
    """Carrier, all direct entries as one vector, and their (elements x entries) cascade."""
    if len(channel_sets) == 0:
        raise ValueError("at least one target channel set is required")
    f = channel_sets[0].frequency
    n_el = channel_sets[0].ris_to_ue.shape[1]
    for chs in channel_sets:
        if abs(chs.frequency - f) > 1e-6 * f:
            raise ValueError("all target channel sets must share one carrier")
        if chs.ris_to_ue.shape[1] != n_el:
            raise ValueError("all target channel sets must share the element count")
    base = np.concatenate([chs.direct.reshape(-1) for chs in channel_sets])
    cascade = np.concatenate([np.moveaxis(cascade_gains(chs), 1, 0).reshape(n_el, -1)
                              for chs in channel_sets], axis=1)
    return f, base, cascade


def weighted_sum_power(channel_sets, state: ScatteringState) -> float:
    """Objective: the summed power |h_eff|^2 of every row of every set."""
    _, base, cascade = _flat_terms(channel_sets)
    h = base + state.gammas @ cascade
    return float(np.vdot(h, h).real)


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
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    f, base, cascade = _flat_terms(channel_sets)
    theta = np.ones(len(cascade), dtype=complex)
    residual = base + theta @ cascade
    current = float(np.vdot(residual, residual).real)
    if log is not None:
        log.objectives.append(current)
        log.converged = False
    for _ in range(max_iters):
        for n, c in enumerate(cascade):
            partial = residual - theta[n] * c
            s = np.vdot(partial, c)
            if abs(s) > 0:
                theta[n] = np.conj(s) / abs(s)
            residual = partial + theta[n] * c
        previous, current = current, float(np.vdot(residual, residual).real)
        if log is not None:
            log.objectives.append(current)
        if current - previous <= tol * max(previous, np.finfo(float).tiny):
            if log is not None:
                log.converged = True
            break
    return ScatteringState(gammas=theta, frequency=f)


def realize_capacitances(theta_star: ScatteringState, params: CircuitParams) -> TuningResult:
    """Invert ideal phases to capacitances through the element circuit.

    Unreachable phases clamp to the nearest achievable phase and are
    listed in the clamp report.
    """
    f = theta_star.frequency
    targets = np.angle(theta_star.gammas)
    solution = phase_to_capacitance(targets, f, params)
    idx = np.flatnonzero(solution.clamped)
    target, achieved = targets[idx], solution.achieved_phase[idx]
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

