"""Scenario assembly, presets, Monte-Carlo sweeps, exports, and reports.

A scenario holds several operators on distinct carriers; exactly one of
them owns the reflective surface and tunes it for its own users. The
per-case pipeline synthesizes all channels, tunes the surface at the
owner's carrier, lets every other operator precode against surface-free
channels, and then evaluates everyone on the channels that actually
exist, with the frozen surface state re-evaluated at each carrier.
"""

import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .array_field import (PatternCut, RisArray, ScatteringState, Wave, build_array,
                          directivity_pattern, main_lobe_angle, pattern_to_csv)
from .channels import ChannelSet, Node, effective_channel, los_channel
from .circuit import CircuitParams
from .errors import ConfigError, ConfigWarning, CorrelatedChannelsError
from .precoding import (LinkMetrics, PrecodeResult, link_metrics, mrt_precoder,
                        noise_power, zf_precoder)
from .tuning import (OptimizationLog, TuningResult, align_phases_single_target,
                     evaluate_off_frequency, optimize_weighted_sum_power,
                     realize_capacitances)

SENSITIVITY_COLUMNS = ("l_top_h", "c_min_f", "c_max_f", "f1_peak_deg",
                       "f3_peak_deg", "clamped_fraction",
                       "offset_from_reference_deg")

DIRECT_LINK, BS_RIS_LINK, RIS_UE_LINK = 0, 1, 2

EXPORT_COLUMNS = ("n_elements", "ris_x", "ris_y", "ris_z",
                  "sumse_target_ris", "sumse_target_noris",
                  "sumse_nontarget_ris", "sumse_nontarget_noris",
                  "degradation_ratio")


# ---------------------------------------------------------------------------
# scenario model

@dataclass
class UeConfig:
    id: str
    position: np.ndarray
    role: str                   # "target" or "non-target"
    blocked: bool = False


@dataclass
class OperatorConfig:
    id: str
    carrier_hz: float
    bs: Node
    ues: list
    power_w: float = 1.0
    precoder: str = "zf"
    zf_condition_limit: float | None = None


@dataclass
class RisConfig:
    owner: str
    rows: int
    cols: int
    position: np.ndarray
    plane: str = "xz"
    spacing_fraction: float = 0.5
    design_frequency_hz: float | None = None
    enabled: bool = True
    narrowband: bool = False
    element_pattern: str = "isotropic"
    circuit: CircuitParams = field(default_factory=CircuitParams)
    influence_band_hz: tuple | None = None

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass
class SweepSpec:
    """Grid of surface sizes and placements for a Fig. 5-style study."""

    element_counts: tuple
    positions: tuple
    metrics: tuple | None = None

    def __post_init__(self):
        if len(self.element_counts) == 0:
            raise ConfigError("sweep.element_counts must be non-empty")
        if len(self.positions) == 0:
            raise ConfigError("sweep.positions must be non-empty")
        if any(int(n) < 1 for n in self.element_counts):
            raise ConfigError("sweep.element_counts entries must be positive")


@dataclass
class PatternConfig:
    frequencies_hz: tuple
    angle_start_deg: float = -90.0
    angle_stop_deg: float = 90.0
    angle_step_deg: float = 0.25
    cut_plane: str = "terminals"        # "terminals", "array-u" or "array-v"
    cut_radius: float | str | None = "target-distance"
    reference_angle_deg: float | None = None
    reference_window_deg: float = 10.0
    # validated sweep block: frequency_hz, l_top_h, c_ranges_f, window_deg,
    # angle_step_deg, with defaults filled in
    sensitivity: dict | None = None

    def angle_grid(self, step: float | None = None) -> np.ndarray:
        step = self.angle_step_deg if step is None else step
        if self.angle_stop_deg <= self.angle_start_deg or step <= 0:
            raise ConfigError("pattern angle grid is empty")
        return np.arange(self.angle_start_deg, self.angle_stop_deg + 1e-9, step)


@dataclass
class Scenario:
    master_seed: int
    realizations: int
    operators: list
    ris: RisConfig
    noise_w: float
    k_factor_db: float | None = None
    sweep_spec: SweepSpec | None = None
    pattern: PatternConfig | None = None
    config_echo: dict = field(default_factory=dict)

    @property
    def owner(self) -> OperatorConfig:
        return next(op for op in self.operators if op.id == self.ris.owner)


@dataclass
class CaseMetrics:
    """Averaged outcome of one (surface size, surface position) case."""

    n_elements: int
    ris_position: tuple
    realizations: int
    sumse_target_ris: float
    sumse_target_noris: float
    sumse_nontarget_ris: float
    sumse_nontarget_noris: float
    degradation_ratio: float
    stderr_target_ris: float = 0.0
    stderr_target_noris: float = 0.0
    stderr_nontarget_ris: float = 0.0
    stderr_nontarget_noris: float = 0.0
    stderr_target_diff: float = 0.0
    stderr_nontarget_diff: float = 0.0
    degradation_stderr: float = 0.0
    clamp_fraction: float = 0.0
    tuning_converged_fraction: float = 1.0
    per_ue: dict = field(default_factory=dict)

    def to_row(self) -> list:
        x, y, z = self.ris_position
        return [self.n_elements, x, y, z,
                self.sumse_target_ris, self.sumse_target_noris,
                self.sumse_nontarget_ris, self.sumse_nontarget_noris,
                self.degradation_ratio]

    def to_dict(self) -> dict:
        d = dict(zip(EXPORT_COLUMNS, self.to_row()))
        d.update({
            "realizations": self.realizations,
            "stderr_target_ris": self.stderr_target_ris,
            "stderr_target_noris": self.stderr_target_noris,
            "stderr_nontarget_ris": self.stderr_nontarget_ris,
            "stderr_nontarget_noris": self.stderr_nontarget_noris,
            "stderr_target_diff": self.stderr_target_diff,
            "stderr_nontarget_diff": self.stderr_nontarget_diff,
            "degradation_stderr": self.degradation_stderr,
            "clamp_fraction": self.clamp_fraction,
            "tuning_converged_fraction": self.tuning_converged_fraction,
            "per_ue": self.per_ue,
        })
        return d


# ---------------------------------------------------------------------------
# config schema

_NOISE_DEFAULTS = {"bandwidth_hz": 1e7, "noise_figure_db": 9.0,
                   "density_dbm_per_hz": -174.0}
_CIRCUIT_DEFAULTS = {"l_bottom_h": 2.5e-9, "l_top_h": 0.7e-9, "r_loss_ohm": 1.0,
                     "z0_ohm": 376.730313668, "c_min_f": 0.47e-12, "c_max_f": 2.35e-12}


def _check_keys(section: dict, path: str, required: tuple, optional: tuple) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    for key in section:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key} is not a recognized field")
    for key in required:
        if key not in section:
            raise ConfigError(f"{path}.{key} is required")


def _vector3(value, path: str) -> np.ndarray:
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path} must be a 3-vector of numbers") from None
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ConfigError(f"{path} must be a finite 3-vector")
    return v


def _finite(value, path: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path} must be a number") from None
    if not np.isfinite(x):
        raise ConfigError(f"{path} must be finite")
    return x


def _positive(value, path: str) -> float:
    x = _finite(value, path)
    if x <= 0:
        raise ConfigError(f"{path} must be positive")
    return x


def _non_negative(value, path: str) -> float:
    x = _finite(value, path)
    if x < 0:
        raise ConfigError(f"{path} must be non-negative")
    return x


def _non_empty_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a non-empty list")
    return value


def _parse_ue(raw: dict, path: str, expected_role: str) -> UeConfig:
    _check_keys(raw, path, required=("id", "position"), optional=("role", "blocked"))
    if not isinstance(raw["id"], str) or not raw["id"]:
        raise ConfigError(f"{path}.id must be a non-empty string")
    role = raw.get("role", expected_role)
    if role not in ("target", "non-target"):
        raise ConfigError(f"{path}.role must be 'target' or 'non-target'")
    if role != expected_role:
        raise ConfigError(f"{path}.role must be '{expected_role}' because surface "
                          "ownership decides which users are targets")
    return UeConfig(id=raw["id"], position=_vector3(raw["position"], f"{path}.position"),
                    role=role, blocked=bool(raw.get("blocked", False)))


def _parse_operator(raw: dict, path: str, ris_owner: str) -> OperatorConfig:
    _check_keys(raw, path, required=("id", "carrier_hz", "bs", "ues"),
                optional=("power_w", "precoder", "zf_condition_limit"))
    op_id = raw["id"]
    if not isinstance(op_id, str) or not op_id:
        raise ConfigError(f"{path}.id must be a non-empty string")
    bs_raw = raw["bs"]
    _check_keys(bs_raw, f"{path}.bs", required=("position",),
                optional=("antennas", "spacing_fraction", "axis"))
    try:
        bs = Node(position=_vector3(bs_raw["position"], f"{path}.bs.position"),
                  n_antennas=int(bs_raw.get("antennas", 1)),
                  spacing_fraction=float(bs_raw.get("spacing_fraction", 0.5)),
                  axis=np.asarray(bs_raw.get("axis", [1.0, 0.0, 0.0]), dtype=float))
    except ValueError as exc:
        raise ConfigError(f"{path}.bs: {exc}") from None
    precoder = raw.get("precoder", "zf")
    if precoder not in ("zf", "mrt"):
        raise ConfigError(f"{path}.precoder must be 'zf' or 'mrt'")
    limit = raw.get("zf_condition_limit")
    if limit is not None:
        limit = _positive(limit, f"{path}.zf_condition_limit")
    if not isinstance(raw["ues"], list) or not raw["ues"]:
        raise ConfigError(f"{path}.ues must be a non-empty list")
    expected_role = "target" if op_id == ris_owner else "non-target"
    ues = [_parse_ue(u, f"{path}.ues[{i}]", expected_role)
           for i, u in enumerate(raw["ues"])]
    return OperatorConfig(id=op_id, carrier_hz=_positive(raw["carrier_hz"], f"{path}.carrier_hz"),
                          bs=bs, ues=ues, power_w=float(raw.get("power_w", 1.0)),
                          precoder=precoder, zf_condition_limit=limit)


def _parse_circuit(raw: dict, path: str) -> CircuitParams:
    merged = dict(_CIRCUIT_DEFAULTS)
    _check_keys(raw, path, required=(), optional=tuple(_CIRCUIT_DEFAULTS))
    merged.update(raw)
    try:
        return CircuitParams(l_bottom=float(merged["l_bottom_h"]),
                             l_top=float(merged["l_top_h"]),
                             r_loss=float(merged["r_loss_ohm"]),
                             z0=float(merged["z0_ohm"]),
                             c_min=float(merged["c_min_f"]),
                             c_max=float(merged["c_max_f"]))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_pattern(raw: dict, path: str) -> PatternConfig:
    _check_keys(raw, path, required=("frequencies_hz",),
                optional=("angle_start_deg", "angle_stop_deg", "angle_step_deg",
                          "cut_plane", "cut_radius", "reference_angle_deg",
                          "reference_window_deg", "sensitivity"))
    freqs = tuple(_positive(f, f"{path}.frequencies_hz[{i}]")
                  for i, f in enumerate(_non_empty_list(raw["frequencies_hz"],
                                                        f"{path}.frequencies_hz")))
    start = _finite(raw.get("angle_start_deg", -90.0), f"{path}.angle_start_deg")
    stop = _finite(raw.get("angle_stop_deg", 90.0), f"{path}.angle_stop_deg")
    if stop <= start:
        raise ConfigError(f"{path}.angle_stop_deg must exceed angle_start_deg")
    step = _positive(raw.get("angle_step_deg", 0.25), f"{path}.angle_step_deg")
    cut_plane = raw.get("cut_plane", "terminals")
    if cut_plane not in ("terminals", "array-u", "array-v"):
        raise ConfigError(f"{path}.cut_plane must be 'terminals', 'array-u' or 'array-v'")
    radius = raw.get("cut_radius", "target-distance")
    if radius is not None and radius != "target-distance":
        radius = _positive(radius, f"{path}.cut_radius")
    reference = raw.get("reference_angle_deg")
    if reference is not None:
        reference = _finite(reference, f"{path}.reference_angle_deg")
    sensitivity = raw.get("sensitivity")
    if sensitivity is not None:
        sensitivity = _parse_sensitivity(sensitivity, f"{path}.sensitivity", step)
    return PatternConfig(frequencies_hz=freqs, angle_start_deg=start,
                         angle_stop_deg=stop, angle_step_deg=step,
                         cut_plane=cut_plane, cut_radius=radius,
                         reference_angle_deg=reference,
                         reference_window_deg=_non_negative(
                             raw.get("reference_window_deg", 10.0),
                             f"{path}.reference_window_deg"),
                         sensitivity=sensitivity)


def _parse_sensitivity(raw: dict, path: str, default_step: float) -> dict:
    _check_keys(raw, path, required=("frequency_hz", "l_top_h", "c_ranges_f"),
                optional=("window_deg", "angle_step_deg"))
    l_values = [_positive(v, f"{path}.l_top_h[{i}]")
                for i, v in enumerate(_non_empty_list(raw["l_top_h"], f"{path}.l_top_h"))]
    ranges = []
    for i, pair in enumerate(_non_empty_list(raw["c_ranges_f"], f"{path}.c_ranges_f")):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{path}.c_ranges_f[{i}] must be [c_min, c_max]")
        lo = _positive(pair[0], f"{path}.c_ranges_f[{i}][0]")
        hi = _positive(pair[1], f"{path}.c_ranges_f[{i}][1]")
        if not lo < hi:
            raise ConfigError(f"{path}.c_ranges_f[{i}] must be [c_min, c_max] "
                              "with c_min < c_max")
        ranges.append((lo, hi))
    return {"frequency_hz": _positive(raw["frequency_hz"], f"{path}.frequency_hz"),
            "l_top_h": l_values, "c_ranges_f": ranges,
            "window_deg": _non_negative(raw.get("window_deg", 5.0), f"{path}.window_deg"),
            "angle_step_deg": _positive(raw.get("angle_step_deg", default_step),
                                        f"{path}.angle_step_deg")}


def load_scenario(config) -> Scenario:
    """Validate a config (JSON text or dict) into a Scenario.

    Unknown fields are rejected with the offending path named, defaults
    are materialized, and the fully expanded config is echoed on the
    Scenario for the run manifest.
    """
    if isinstance(config, (str, bytes)):
        try:
            raw = json.loads(config)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    else:
        raw = config
    _check_keys(raw, "config", required=("operators", "ris"),
                optional=("master_seed", "realizations", "noise", "channel",
                          "sweep", "pattern"))
    # an explicit null for an optional section means the same as leaving it out,
    # so an echoed manifest config loads back unchanged
    raw = {k: v for k, v in raw.items() if v is not None}

    noise_raw = dict(_NOISE_DEFAULTS)
    if "noise" in raw:
        _check_keys(raw["noise"], "config.noise", required=(),
                    optional=tuple(_NOISE_DEFAULTS))
        noise_raw.update(raw["noise"])
    noise_w = noise_power(bandwidth_hz=float(noise_raw["bandwidth_hz"]),
                          noise_figure_db=float(noise_raw["noise_figure_db"]),
                          density_dbm_per_hz=float(noise_raw["density_dbm_per_hz"]))

    k_factor_db = None
    if "channel" in raw:
        _check_keys(raw["channel"], "config.channel", required=(), optional=("k_factor_db",))
        if raw["channel"].get("k_factor_db") is not None:
            k_factor_db = float(raw["channel"]["k_factor_db"])

    ris_raw = raw["ris"]
    _check_keys(ris_raw, "config.ris", required=("owner", "rows", "cols", "position"),
                optional=("plane", "spacing_fraction", "design_frequency_hz", "enabled",
                          "narrowband", "element_pattern", "circuit", "influence_band_hz"))
    band = ris_raw.get("influence_band_hz")
    if band is not None:
        if (not isinstance(band, list) or len(band) != 2
                or not all(np.isfinite(float(b)) and float(b) > 0 for b in band)
                or float(band[0]) >= float(band[1])):
            raise ConfigError("config.ris.influence_band_hz must be [low, high] with low < high")
        band = (float(band[0]), float(band[1]))
    rows, cols = int(ris_raw["rows"]), int(ris_raw["cols"])
    if rows < 1 or cols < 1:
        raise ConfigError("config.ris.rows and config.ris.cols must be at least 1")
    design_f = ris_raw.get("design_frequency_hz")
    ris = RisConfig(owner=str(ris_raw["owner"]), rows=rows, cols=cols,
                    position=_vector3(ris_raw["position"], "config.ris.position"),
                    plane=str(ris_raw.get("plane", "xz")),
                    spacing_fraction=float(ris_raw.get("spacing_fraction", 0.5)),
                    design_frequency_hz=None if design_f is None else _positive(
                        design_f, "config.ris.design_frequency_hz"),
                    enabled=bool(ris_raw.get("enabled", True)),
                    narrowband=bool(ris_raw.get("narrowband", False)),
                    element_pattern=str(ris_raw.get("element_pattern", "isotropic")),
                    circuit=_parse_circuit(ris_raw.get("circuit", {}), "config.ris.circuit"),
                    influence_band_hz=band)

    if not isinstance(raw["operators"], list) or not raw["operators"]:
        raise ConfigError("config.operators must be a non-empty list")
    operators = [_parse_operator(op, f"config.operators[{i}]", ris.owner)
                 for i, op in enumerate(raw["operators"])]
    ids = [op.id for op in operators]
    if len(set(ids)) != len(ids):
        raise ConfigError("config.operators ids must be unique")
    if ris.owner not in ids:
        raise ConfigError(f"config.ris.owner '{ris.owner}' does not match any operator id")
    carriers = [op.carrier_hz for op in operators]
    if len(set(carriers)) != len(carriers):
        raise ConfigError("config.operators carrier frequencies must be distinct")
    ue_ids = [ue.id for op in operators for ue in op.ues]
    dupes = {u for u in ue_ids if ue_ids.count(u) > 1}
    if dupes:
        raise ConfigError(f"duplicate UE identifiers: {sorted(dupes)}")

    if ris.influence_band_hz is not None:
        lo, hi = ris.influence_band_hz
        for op in operators:
            if not (lo <= op.carrier_hz <= hi):
                warnings.warn(ConfigWarning(
                    f"operator '{op.id}' carrier {op.carrier_hz:g} Hz lies outside the "
                    f"surface influence band [{lo:g}, {hi:g}] Hz; scattering impact "
                    "there is negligible"))

    sweep_spec = None
    if "sweep" in raw:
        _check_keys(raw["sweep"], "config.sweep", required=("element_counts", "positions"),
                    optional=("metrics",))
        counts = raw["sweep"]["element_counts"]
        positions = raw["sweep"]["positions"]
        if not isinstance(counts, list) or not isinstance(positions, list):
            raise ConfigError("config.sweep lists are malformed")
        metrics = raw["sweep"].get("metrics")
        sweep_spec = SweepSpec(
            element_counts=tuple(int(n) for n in counts),
            positions=tuple(tuple(_vector3(p, f"config.sweep.positions[{i}]"))
                            for i, p in enumerate(positions)),
            metrics=None if metrics is None else tuple(metrics))

    pattern = None
    if "pattern" in raw:
        pattern = _parse_pattern(raw["pattern"], "config.pattern")

    master_seed = int(raw.get("master_seed", 0))
    if master_seed < 0:
        raise ConfigError("config.master_seed must be non-negative")
    realizations = int(raw.get("realizations", 100))
    if realizations < 1:
        raise ConfigError("config.realizations must be at least 1")

    echo = {
        "master_seed": master_seed,
        "realizations": realizations,
        "noise": noise_raw,
        "channel": {"k_factor_db": k_factor_db},
        "ris": {
            "owner": ris.owner, "rows": ris.rows, "cols": ris.cols,
            "position": [float(x) for x in ris.position], "plane": ris.plane,
            "spacing_fraction": ris.spacing_fraction,
            "design_frequency_hz": ris.design_frequency_hz,
            "enabled": ris.enabled, "narrowband": ris.narrowband,
            "element_pattern": ris.element_pattern,
            "circuit": {"l_bottom_h": ris.circuit.l_bottom, "l_top_h": ris.circuit.l_top,
                        "r_loss_ohm": ris.circuit.r_loss, "z0_ohm": ris.circuit.z0,
                        "c_min_f": ris.circuit.c_min, "c_max_f": ris.circuit.c_max},
            "influence_band_hz": None if band is None else list(band),
        },
        "operators": [
            {"id": op.id, "carrier_hz": op.carrier_hz, "power_w": op.power_w,
             "precoder": op.precoder, "zf_condition_limit": op.zf_condition_limit,
             "bs": {"position": [float(x) for x in op.bs.position],
                    "antennas": op.bs.n_antennas,
                    "spacing_fraction": op.bs.spacing_fraction,
                    "axis": [float(x) for x in op.bs.axis]},
             "ues": [{"id": ue.id, "position": [float(x) for x in ue.position],
                      "role": ue.role, "blocked": ue.blocked} for ue in op.ues]}
            for op in operators],
        "sweep": None if sweep_spec is None else {
            "element_counts": list(sweep_spec.element_counts),
            "positions": [list(p) for p in sweep_spec.positions],
            "metrics": None if sweep_spec.metrics is None else list(sweep_spec.metrics)},
        "pattern": raw.get("pattern"),
    }
    return Scenario(master_seed=master_seed, realizations=realizations,
                    operators=operators, ris=ris, noise_w=noise_w,
                    k_factor_db=k_factor_db, sweep_spec=sweep_spec,
                    pattern=pattern, config_echo=echo)


# ---------------------------------------------------------------------------
# seeding

def derive_seed(master_seed: int, *path) -> np.random.SeedSequence:
    """Deterministic seed for a path (realization, operator, ue slot, link).

    The path never includes the surface size or position, so sweep
    points share their channel randomness and curves differ only by the
    swept variable.
    """
    return np.random.SeedSequence([int(master_seed)] + [int(p) for p in path])


def _link_rng(scenario: Scenario, realization: int, op_index: int, ue_slot: int,
              link_code: int) -> np.random.Generator | None:
    if scenario.k_factor_db is None:
        return None
    return np.random.default_rng(
        derive_seed(scenario.master_seed, realization, op_index, ue_slot, link_code))


# ---------------------------------------------------------------------------
# the per-case pipeline

def build_surface(ris: RisConfig, owner_carrier_hz: float) -> RisArray:
    """Element grid of the configured surface at its design carrier."""
    f_design = ris.design_frequency_hz or owner_carrier_hz
    return build_array(ris.rows, ris.cols, f_design,
                       spacing_fraction=ris.spacing_fraction,
                       center=ris.position, plane=ris.plane,
                       element_pattern=ris.element_pattern)


def _ue_channels(scenario: Scenario, array: RisArray, realization: int) -> dict:
    """ChannelSets per operator id, one per UE, at that operator's carrier."""
    out = {}
    for i, op in enumerate(scenario.operators):
        f = op.carrier_hz
        k = scenario.k_factor_db
        bs_to_ris = los_channel(op.bs, array, f, k,
                                _link_rng(scenario, realization, i, 0, BS_RIS_LINK))
        sets = []
        for j, ue in enumerate(op.ues):
            ue_node = Node(position=ue.position)
            if ue.blocked:
                direct = np.zeros((1, op.bs.n_antennas), dtype=complex)
            else:
                direct = los_channel(op.bs, ue_node, f, k,
                                     _link_rng(scenario, realization, i, j + 1, DIRECT_LINK))
            ris_to_ue = los_channel(array, ue_node, f, k,
                                    _link_rng(scenario, realization, i, j + 1, RIS_UE_LINK))
            sets.append(ChannelSet(direct=direct, bs_to_ris=bs_to_ris,
                                   ris_to_ue=ris_to_ue, frequency=f,
                                   direct_blocked=ue.blocked))
        out[op.id] = sets
    return out


def _zero_state(n_elements: int, frequency: float) -> ScatteringState:
    return ScatteringState(gammas=np.zeros(n_elements, dtype=complex),
                           frequency=float(frequency))


def _tune_surface(scenario: Scenario, target_sets) -> tuple[TuningResult, OptimizationLog]:
    log = OptimizationLog()
    theta = optimize_weighted_sum_power(target_sets, log=log)
    result = realize_capacitances(theta, scenario.ris.circuit, channel_sets=target_sets)
    result.objective_trace = tuple(log.objectives)
    result.converged = log.converged
    return result, log


def _surface_state(scenario: Scenario, tuning: TuningResult | None,
                   frequency: float) -> ScatteringState:
    n = scenario.ris.n_elements
    if tuning is None:
        return _zero_state(n, frequency)
    if scenario.ris.narrowband and abs(frequency - tuning.frequency) > 1e-6 * tuning.frequency:
        return _zero_state(n, frequency)
    return evaluate_off_frequency(tuning, frequency, scenario.ris.circuit)


def _precode_rows(rows, kind: str, total_power: float,
                  condition_limit: float | None) -> PrecodeResult:
    """Precoding with zero-channel users parked on silent placeholder columns."""
    h = np.vstack([np.asarray(r, dtype=complex).reshape(1, -1) for r in rows])
    n_users, n_tx = h.shape
    active = np.linalg.norm(h, axis=1) > 0
    matrix = np.zeros((n_tx, n_users), dtype=complex)
    matrix[0, :] = 1.0              # unit placeholder, silenced by zero power
    powers = np.zeros(n_users)
    if np.any(active):
        per_user = total_power / n_users
        sub = h[active]
        idx = np.flatnonzero(active)
        if kind == "mrt":
            res = mrt_precoder(sub, total_power=per_user * int(active.sum()))
        else:
            try:
                res = zf_precoder(sub, total_power=per_user * int(active.sum()),
                                  condition_limit=condition_limit)
            except CorrelatedChannelsError as exc:
                if exc.ue_pair is not None:
                    # report indices in the full user list, not the active subset
                    pair = (int(idx[exc.ue_pair[0]]), int(idx[exc.ue_pair[1]]))
                    raise CorrelatedChannelsError(
                        f"user channels {pair[0]} and {pair[1]} are too correlated "
                        f"for zero-forcing (condition number {exc.condition_number:.3g})",
                        ue_pair=pair, condition_number=exc.condition_number) from None
                raise
        matrix[:, active] = res.matrix
        powers[active] = res.powers
    return PrecodeResult(matrix=matrix, powers=powers)


def _operator_metrics(op: OperatorConfig, design_rows, actual_rows,
                      noise_w: float) -> LinkMetrics:
    precoders = _precode_rows(design_rows, op.precoder, op.power_w,
                              op.zf_condition_limit)
    return link_metrics(np.vstack(design_rows), np.vstack(actual_rows),
                        precoders, noise_w)


def _run_realization(scenario: Scenario, array: RisArray, realization: int) -> dict:
    channels = _ue_channels(scenario, array, realization)
    owner = scenario.owner
    tuning = None
    if scenario.ris.enabled:
        tuning, _ = _tune_surface(scenario, channels[owner.id])

    out = {"se_ris": {}, "se_noris": {}, "sinr_ris": {}, "sinr_noris": {},
           "clamp_fraction": 0.0, "converged": True}
    if tuning is not None:
        out["clamp_fraction"] = len(tuning.clamp_report) / scenario.ris.n_elements
        out["converged"] = bool(tuning.converged)

    for op in scenario.operators:
        sets = channels[op.id]
        f = op.carrier_hz
        state = _surface_state(scenario, tuning, f)
        bare = _zero_state(scenario.ris.n_elements, f)
        direct_rows = [effective_channel(chs, bare)[0] for chs in sets]
        if op.id == owner.id:
            # the surface owner precodes with current surface-inclusive knowledge
            design_rows = [effective_channel(chs, state)[0] for chs in sets]
            actual_rows = design_rows
        else:
            # other operators are surface-blind: design without, traverse with
            design_rows = direct_rows
            actual_rows = [effective_channel(chs, state)[0] for chs in sets]
        with_ris = _operator_metrics(op, design_rows, actual_rows, scenario.noise_w)
        without = _operator_metrics(op, direct_rows, direct_rows, scenario.noise_w)
        for j, ue in enumerate(op.ues):
            out["se_ris"][ue.id] = float(with_ris.se[j])
            out["se_noris"][ue.id] = float(without.se[j])
            out["sinr_ris"][ue.id] = float(with_ris.sinr[j])
            out["sinr_noris"][ue.id] = float(without.sinr[j])
    return out


def _case_worker(args) -> list:
    scenario, indices = args
    array = build_surface(scenario.ris, scenario.owner.carrier_hz)
    return [_run_realization(scenario, array, r) for r in indices]


def _mean_stderr(samples: np.ndarray) -> tuple[float, float]:
    mean = float(samples.mean())
    if len(samples) < 2:
        return mean, 0.0
    return mean, float(samples.std(ddof=1) / np.sqrt(len(samples)))


def run_case(scenario: Scenario, workers: int | None = None) -> CaseMetrics:
    """Monte-Carlo average of the scenario at its configured surface.

    Realizations are independent; with ``workers`` set they are computed
    in parallel chunks and reduced in index order, so results do not
    depend on scheduling.
    """
    indices = list(range(scenario.realizations))
    if workers and workers > 1 and len(indices) > 1:
        n_chunks = min(workers, len(indices))
        chunks = [indices[i::n_chunks] for i in range(n_chunks)]
        with ProcessPoolExecutor(max_workers=n_chunks) as pool:
            parts = list(pool.map(_case_worker, [(scenario, c) for c in chunks]))
        results = [None] * len(indices)
        for chunk, part in zip(chunks, parts):
            for r, res in zip(chunk, part):
                results[r] = res
    else:
        array = build_surface(scenario.ris, scenario.owner.carrier_hz)
        results = [_run_realization(scenario, array, r) for r in indices]

    targets = [ue.id for op in scenario.operators for ue in op.ues if ue.role == "target"]
    nontargets = [ue.id for op in scenario.operators for ue in op.ues
                  if ue.role == "non-target"]

    def group_sums(key, ids):
        return np.array([sum(res[key][u] for u in ids) for res in results])

    t_ris = group_sums("se_ris", targets)
    t_nor = group_sums("se_noris", targets)
    n_ris = group_sums("se_ris", nontargets)
    n_nor = group_sums("se_noris", nontargets)

    mean_t_ris, se_t_ris = _mean_stderr(t_ris)
    mean_t_nor, se_t_nor = _mean_stderr(t_nor)
    mean_n_ris, se_n_ris = _mean_stderr(n_ris)
    mean_n_nor, se_n_nor = _mean_stderr(n_nor)
    _, se_t_diff = _mean_stderr(t_ris - t_nor)
    _, se_n_diff = _mean_stderr(n_ris - n_nor)

    if mean_n_nor > 0:
        # first-order error of the ratio of two means
        degradation = 1.0 - mean_n_ris / mean_n_nor
        rel_sq = (se_n_nor / mean_n_nor) ** 2
        if mean_n_ris > 0:
            rel_sq += (se_n_ris / mean_n_ris) ** 2
        degradation_stderr = abs(mean_n_ris / mean_n_nor) * np.sqrt(rel_sq)
    else:
        degradation = 0.0
        degradation_stderr = 0.0

    per_ue = {}
    for op in scenario.operators:
        for ue in op.ues:
            se_r, se_r_err = _mean_stderr(np.array([res["se_ris"][ue.id] for res in results]))
            se_n, se_n_err = _mean_stderr(np.array([res["se_noris"][ue.id] for res in results]))
            sinr_r, _ = _mean_stderr(np.array([res["sinr_ris"][ue.id] for res in results]))
            sinr_n, _ = _mean_stderr(np.array([res["sinr_noris"][ue.id] for res in results]))
            per_ue[ue.id] = {"role": ue.role, "se_ris": se_r, "se_noris": se_n,
                             "stderr_se_ris": se_r_err, "stderr_se_noris": se_n_err,
                             "sinr_ris": sinr_r, "sinr_noris": sinr_n}

    return CaseMetrics(
        n_elements=scenario.ris.n_elements,
        ris_position=tuple(float(x) for x in scenario.ris.position),
        realizations=scenario.realizations,
        sumse_target_ris=mean_t_ris, sumse_target_noris=mean_t_nor,
        sumse_nontarget_ris=mean_n_ris, sumse_nontarget_noris=mean_n_nor,
        degradation_ratio=degradation,
        stderr_target_ris=se_t_ris, stderr_target_noris=se_t_nor,
        stderr_nontarget_ris=se_n_ris, stderr_nontarget_noris=se_n_nor,
        stderr_target_diff=se_t_diff, stderr_nontarget_diff=se_n_diff,
        degradation_stderr=degradation_stderr,
        clamp_fraction=float(np.mean([res["clamp_fraction"] for res in results])),
        tuning_converged_fraction=float(np.mean([res["converged"] for res in results])),
        per_ue=per_ue)


# ---------------------------------------------------------------------------
# sweeping

def grid_shape(n_elements: int) -> tuple[int, int]:
    """(rows, cols) for a count: the most square factorization, rows <= cols."""
    if n_elements < 1:
        raise ConfigError("element count must be positive")
    rows = 1
    for d in range(1, int(np.sqrt(n_elements)) + 1):
        if n_elements % d == 0:
            rows = d
    return rows, n_elements // rows


def _with_surface(scenario: Scenario, n_elements: int, position) -> Scenario:
    rows, cols = grid_shape(n_elements)
    ris = RisConfig(owner=scenario.ris.owner, rows=rows, cols=cols,
                    position=np.asarray(position, dtype=float), plane=scenario.ris.plane,
                    spacing_fraction=scenario.ris.spacing_fraction,
                    design_frequency_hz=scenario.ris.design_frequency_hz,
                    enabled=scenario.ris.enabled, narrowband=scenario.ris.narrowband,
                    element_pattern=scenario.ris.element_pattern,
                    circuit=scenario.ris.circuit,
                    influence_band_hz=scenario.ris.influence_band_hz)
    return Scenario(master_seed=scenario.master_seed, realizations=scenario.realizations,
                    operators=scenario.operators, ris=ris, noise_w=scenario.noise_w,
                    k_factor_db=scenario.k_factor_db, sweep_spec=scenario.sweep_spec,
                    pattern=scenario.pattern, config_echo=scenario.config_echo)


def _sweep_worker(case_scenario: Scenario) -> CaseMetrics:
    return run_case(case_scenario)


def sweep(scenario: Scenario, spec: SweepSpec | None = None,
          workers: int | None = None) -> list:
    """One CaseMetrics per (element count, position), in deterministic order.

    Every case reuses the same per-realization seeds, so curves across N
    and position differ only through the surface itself.
    """
    spec = spec or scenario.sweep_spec
    if spec is None:
        raise ConfigError("no sweep specification was configured")
    cases = [_with_surface(scenario, n, pos)
             for n in spec.element_counts for pos in spec.positions]
    if workers and workers > 1 and len(cases) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(cases))) as pool:
            return list(pool.map(_sweep_worker, cases))
    return [run_case(case) for case in cases]


# ---------------------------------------------------------------------------
# bandwidth of influence

def fractional_boi(f_low: float, f_high: float, f_center: float | None = None) -> float:
    """(f_high - f_low) / f_center, defaulting f_center to the midpoint."""
    if f_low <= 0:
        raise ValueError("f_low must be positive")
    if f_high < f_low:
        raise ValueError("f_high must not be below f_low")
    if f_center is None:
        f_center = 0.5 * (f_low + f_high)
    if f_center <= 0:
        raise ValueError("f_center must be positive")
    return (f_high - f_low) / f_center


# ---------------------------------------------------------------------------
# exports

def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def export_results(table, fmt: str, path, scenario: Scenario | None = None) -> None:
    """Write case metrics as CSV or JSON plus a reproducibility manifest.

    The manifest echoes the materialized config, the seed rule, and the
    tool version; it carries no timestamps, so re-exporting an identical
    run is byte-identical.
    """
    if not table:
        raise ValueError("result table is empty")
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    path = str(path)
    try:
        if fmt == "csv":
            lines = [",".join(EXPORT_COLUMNS)]
            lines += [",".join(_format_value(v) for v in case.to_row()) for case in table]
            payload = "\n".join(lines) + "\n"
        else:
            cases = []
            for case in table:
                d = case.to_dict()
                metrics = None if scenario is None or scenario.sweep_spec is None \
                    else scenario.sweep_spec.metrics
                if metrics is not None:
                    keep = set(metrics) | {"n_elements", "ris_x", "ris_y", "ris_z"}
                    d = {k: v for k, v in d.items() if k in keep}
                cases.append(d)
            payload = json.dumps({"cases": cases}, indent=2, sort_keys=True) + "\n"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        manifest = {
            "version": __version__,
            "seed_rule": ("SeedSequence([master_seed, realization, operator_index, "
                          "ue_slot, link_code]); ue_slot 0 is the shared BS-to-surface "
                          "link, otherwise ue_index + 1; link codes 0=direct, "
                          "1=bs_to_ris, 2=ris_to_ue"),
            "columns": list(EXPORT_COLUMNS),
            "cases": len(table),
            "config": None if scenario is None else scenario.config_echo,
        }
        with open(path + ".manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing results to '{path}': {exc}") from exc


def table_from_json(text: str) -> list:
    """Rebuild CaseMetrics rows from an exported JSON document."""
    doc = json.loads(text)
    out = []
    for case in doc["cases"]:
        out.append(CaseMetrics(
            n_elements=int(case["n_elements"]),
            ris_position=(case["ris_x"], case["ris_y"], case["ris_z"]),
            realizations=int(case.get("realizations", 0)),
            sumse_target_ris=case.get("sumse_target_ris", 0.0),
            sumse_target_noris=case.get("sumse_target_noris", 0.0),
            sumse_nontarget_ris=case.get("sumse_nontarget_ris", 0.0),
            sumse_nontarget_noris=case.get("sumse_nontarget_noris", 0.0),
            degradation_ratio=case.get("degradation_ratio", 0.0),
            stderr_target_ris=case.get("stderr_target_ris", 0.0),
            stderr_target_noris=case.get("stderr_target_noris", 0.0),
            stderr_nontarget_ris=case.get("stderr_nontarget_ris", 0.0),
            stderr_nontarget_noris=case.get("stderr_nontarget_noris", 0.0),
            stderr_target_diff=case.get("stderr_target_diff", 0.0),
            stderr_nontarget_diff=case.get("stderr_nontarget_diff", 0.0),
            degradation_stderr=case.get("degradation_stderr", 0.0),
            clamp_fraction=case.get("clamp_fraction", 0.0),
            tuning_converged_fraction=case.get("tuning_converged_fraction", 1.0),
            per_ue=case.get("per_ue", {})))
    return out


# ---------------------------------------------------------------------------
# radiation-pattern study

def _pattern_cut(scenario: Scenario, array: RisArray) -> PatternCut:
    cfg = scenario.pattern
    owner = scenario.owner
    ue = owner.ues[0]
    radius = cfg.cut_radius
    if radius == "target-distance":
        radius = float(np.linalg.norm(np.asarray(ue.position, dtype=float) - array.center))
    if cfg.cut_plane == "terminals":
        # plane through the array center, the feed, and the target
        return PatternCut.through_points(array, owner.bs.position, ue.position,
                                         radius=radius)
    axis = "u" if cfg.cut_plane == "array-u" else "v"
    return PatternCut(radius=radius, axis=axis)


def _tune_for_pattern(scenario: Scenario, array: RisArray,
                      params: CircuitParams) -> TuningResult:
    """Focus the surface on the owner's first user at the design carrier.

    The feed is collapsed to a point source so the single-target closed
    form applies; the direct path is ignored for the pattern study.
    """
    owner = scenario.owner
    f_design = scenario.ris.design_frequency_hz or owner.carrier_hz
    feed = Node(position=owner.bs.position)
    ue_node = Node(position=owner.ues[0].position)
    chs = ChannelSet(direct=np.zeros((1, 1), dtype=complex),
                     bs_to_ris=los_channel(feed, array, f_design),
                     ris_to_ue=los_channel(array, ue_node, f_design),
                     frequency=f_design, direct_blocked=True)
    theta = align_phases_single_target(chs)
    return realize_capacitances(theta, params, channel_sets=[chs])


def _pattern_at(scenario: Scenario, array: RisArray, state: ScatteringState,
                angles: np.ndarray, cut: PatternCut) -> np.ndarray:
    """Pattern(s) of one state or a stack of states, fed from the owner's BS."""
    wave = Wave.spherical(scenario.owner.bs.position, state.frequency)
    return directivity_pattern(array, state, wave, angles, cut)


def run_pattern(scenario: Scenario, out_dir) -> dict:
    """Pattern CSVs at each probe frequency plus a JSON peak summary.

    Writes ``pattern_<f>GHz.csv`` per frequency and
    ``pattern_summary.json``. When the probe-frequency main lobe misses
    the configured reference angle by more than the window, a circuit
    sensitivity sweep runs and lands in ``squint_sensitivity.csv``.
    """
    if scenario.pattern is None:
        raise ConfigError("config.pattern section is required for a pattern study")
    cfg = scenario.pattern
    params = scenario.ris.circuit
    array = build_surface(scenario.ris, scenario.owner.carrier_hz)
    tuning = _tune_for_pattern(scenario, array, params)
    cut = _pattern_cut(scenario, array)
    angles = cfg.angle_grid()
    os.makedirs(out_dir, exist_ok=True)

    entries = []
    peaks = {}
    for f in cfg.frequencies_hz:
        pattern = _pattern_at(scenario, array, evaluate_off_frequency(tuning, f, params),
                              angles, cut)
        name = f"pattern_{f / 1e9:.3f}GHz.csv"
        pattern_to_csv(pattern, os.path.join(out_dir, name))
        peaks[f] = main_lobe_angle(pattern)
        entries.append({"frequency_hz": f, "file": name, "main_lobe_deg": peaks[f]})
    design_peak = entries[0]["main_lobe_deg"]
    for entry in entries:
        entry["offset_from_design_peak_deg"] = entry["main_lobe_deg"] - design_peak

    summary = {
        "design_frequency_hz": tuning.frequency,
        "target_angle_deg": cut.angle_of(array, scenario.owner.ues[0].position),
        "clamped_fraction": len(tuning.clamp_report) / array.n_elements,
        "frequencies": entries,
    }

    if cfg.reference_angle_deg is not None:
        # the probe defaults to the last listed carrier; a sensitivity block
        # may name a different one
        if cfg.sensitivity is not None:
            probe_f = cfg.sensitivity["frequency_hz"]
        else:
            probe_f = cfg.frequencies_hz[-1]
        if probe_f not in peaks:
            pattern = _pattern_at(scenario, array,
                                  evaluate_off_frequency(tuning, probe_f, params),
                                  angles, cut)
            peaks[probe_f] = main_lobe_angle(pattern)
        offset = peaks[probe_f] - cfg.reference_angle_deg
        summary["reference"] = {
            "frequency_hz": probe_f,
            "angle_deg": cfg.reference_angle_deg,
            "offset_deg": offset,
            "within_window": abs(offset) <= cfg.reference_window_deg,
        }
        if abs(offset) > cfg.reference_window_deg and cfg.sensitivity is not None:
            rows, closest = squint_sensitivity_report(
                scenario, os.path.join(out_dir, "squint_sensitivity.csv"))
            summary["sensitivity"] = {
                "file": "squint_sensitivity.csv",
                "cases": len(rows),
                "closest": closest,
            }

    with open(os.path.join(out_dir, "pattern_summary.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def squint_sensitivity_report(scenario: Scenario, out_path=None) -> tuple[list, dict]:
    """Sweep circuit constants, tracking the probe-frequency main lobe.

    For each (top inductance, capacitance range) combination the surface
    is retuned at the design carrier and its main lobes at the design and
    probe frequencies are recorded, along with the offset of the probe
    lobe from the configured reference angle. Returns all rows and the
    row closest to the reference, flagged with whether it falls inside
    the sensitivity window.
    """
    if scenario.pattern is None or scenario.pattern.sensitivity is None:
        raise ConfigError("config.pattern.sensitivity section is required")
    cfg = scenario.pattern
    if cfg.reference_angle_deg is None:
        raise ConfigError("config.pattern.reference_angle_deg is required for "
                          "a sensitivity sweep")
    sens = cfg.sensitivity
    angles = cfg.angle_grid(sens["angle_step_deg"])
    f_design = scenario.ris.design_frequency_hz or scenario.owner.carrier_hz
    base = scenario.ris.circuit

    # the surface and the cut do not depend on the circuit constants: every
    # case is retuned on one geometry, then each carrier's patterns are
    # evaluated in one stacked call
    array = build_surface(scenario.ris, scenario.owner.carrier_hz)
    cut = _pattern_cut(scenario, array)
    carriers = (f_design, sens["frequency_hz"])
    n_cases = len(sens["l_top_h"]) * len(sens["c_ranges_f"])
    stacks = np.empty((len(carriers), n_cases, array.n_elements), dtype=complex)
    rows = []
    for l_top in sens["l_top_h"]:
        for c_lo, c_hi in sens["c_ranges_f"]:
            params = CircuitParams(l_bottom=base.l_bottom, l_top=l_top,
                                   r_loss=base.r_loss, z0=base.z0,
                                   c_min=c_lo, c_max=c_hi)
            tuning = _tune_for_pattern(scenario, array, params)
            for stack, f in zip(stacks, carriers):
                stack[len(rows)] = evaluate_off_frequency(tuning, f, params).gammas
            rows.append({
                "l_top_h": l_top, "c_min_f": c_lo, "c_max_f": c_hi,
                "clamped_fraction": len(tuning.clamp_report) / array.n_elements,
            })
    f1_peaks, f3_peaks = (
        [main_lobe_angle(p) for p in
         _pattern_at(scenario, array, ScatteringState(stack, f), angles, cut)]
        for stack, f in zip(stacks, carriers))
    for row, f1_peak, f3_peak in zip(rows, f1_peaks, f3_peaks):
        row["f1_peak_deg"] = f1_peak
        row["f3_peak_deg"] = f3_peak
        row["offset_from_reference_deg"] = f3_peak - cfg.reference_angle_deg

    closest = dict(min(rows, key=lambda r: abs(r["offset_from_reference_deg"])))
    closest["within_window"] = abs(closest["offset_from_reference_deg"]) <= sens["window_deg"]

    if out_path is not None:
        lines = [",".join(SENSITIVITY_COLUMNS)]
        lines += [",".join(f"{row[c]:.9g}" for c in SENSITIVITY_COLUMNS)
                  for row in rows]
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return rows, closest
