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


def _flat_terms(channel_sets, weights):
    """Per-UE flattened direct vectors and (elements x paths) cascade matrices."""
    if len(channel_sets) == 0:
        raise ValueError("at least one target channel set is required")
    f = channel_sets[0].frequency
    n_el = channel_sets[0].ris_to_ue.shape[1]
    if weights is None:
        weights = np.ones(len(channel_sets))
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(channel_sets),):
        raise ValueError("one weight per target channel set is required")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    base, cascades = [], []
    for chs in channel_sets:
        if abs(chs.frequency - f) > 1e-6 * f:
            raise ValueError("all target channel sets must share one carrier")
        if chs.ris_to_ue.shape[1] != n_el:
            raise ValueError("all target channel sets must share the element count")
        direct = np.zeros_like(chs.direct) if chs.direct_blocked else chs.direct
        base.append(direct.reshape(-1))
        casc = cascade_gains(chs)                       # (rx, elements, tx)
        cascades.append(np.moveaxis(casc, 1, 0).reshape(n_el, -1))
    return f, n_el, weights, base, cascades


def weighted_sum_power(channel_sets, state: ScatteringState, weights=None) -> float:
    """Objective sum_u w_u |h_eff_u|^2 under a given scattering state."""
    _, _, weights, base, cascades = _flat_terms(channel_sets, weights)
    total = 0.0
    for w, h0, c in zip(weights, base, cascades):
        h = h0 + state.gammas @ c
        total += w * float(np.vdot(h, h).real)
    return total


def align_phases_single_target(chs: ChannelSet) -> ScatteringState:
    """Closed-form phase alignment for one target UE and one BS antenna.

    Every element phase is set so its cascaded contribution arrives
    co-phased with the direct path (or with phase zero when the direct
    path is blocked and the common reference drops out).
    """
    if chs.direct.shape != (1, 1):
        raise ValueError("closed-form alignment handles a single UE antenna and a "
                         "single BS antenna; use optimize_weighted_sum_power otherwise")
    cascade = chs.ris_to_ue[0, :] * chs.bs_to_ris[:, 0]
    if not np.any(cascade):
        raise DegenerateChannelError("cascaded element gains are identically zero")
    reference = 0.0
    if not chs.direct_blocked and chs.direct[0, 0] != 0:
        reference = float(np.angle(chs.direct[0, 0]))
    phases = reference - np.angle(cascade)
    return ScatteringState(gammas=np.exp(1j * phases), frequency=chs.frequency)


def optimize_weighted_sum_power(channel_sets, weights=None, max_iters: int = 200,
                                tol: float = 1e-6,
                                log: OptimizationLog | None = None) -> ScatteringState:
    """Coordinate ascent on ideal element phases for weighted sum power.

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
    f, n_el, weights, base, cascades = _flat_terms(channel_sets, weights)
    theta = np.ones(n_el, dtype=complex)
    residuals = [h0 + theta @ c for h0, c in zip(base, cascades)]

    def objective():
        return float(sum(w * np.vdot(r, r).real for w, r in zip(weights, residuals)))

    current = objective()
    if log is not None:
        log.objectives.append(current)
        log.converged = False
    for _ in range(max_iters):
        for n in range(n_el):
            partials = [r - theta[n] * c[n] for r, c in zip(residuals, cascades)]
            s = sum(w * np.vdot(p, c[n]) for w, p, c in zip(weights, partials, cascades))
            if abs(s) > 0:
                theta[n] = np.conj(s) / abs(s)
            residuals = [p + theta[n] * c[n] for p, c in zip(partials, cascades)]
        previous, current = current, objective()
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

