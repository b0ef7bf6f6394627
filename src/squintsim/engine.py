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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._version import __version__
from .array_field import (PLANE_AXES, PatternCut, RisArray, ScatteringState, Wave,
                          build_array, directivity_pattern, main_lobe_angle,
                          pattern_to_csv)
from .channels import ChannelSet, Node, effective_channel, los_channel, rician_channel
from .circuit import CircuitParams
from .errors import ConfigError, ConfigWarning, CorrelatedChannelsError, NumericalError
from .precoding import (PrecodeResult, link_metrics, mrt_precoder, noise_power,
                        zf_precoder)
from .tuning import (OptimizationLog, TuningResult, align_phases_single_target,
                     evaluate_off_frequency, optimize_weighted_sum_power,
                     realize_capacitances)

SENSITIVITY_COLUMNS = ("l_top_h", "c_min_f", "c_max_f", "f1_peak_deg",
                       "f3_peak_deg", "clamped_fraction",
                       "offset_from_reference_deg")

DIRECT_LINK, BS_RIS_LINK, RIS_UE_LINK = 0, 1, 2

_MAX_CUT_ANGLES = 100_000   # per pattern cut; fig3 evaluates 721

EXPORT_COLUMNS = ("n_elements", "ris_x", "ris_y", "ris_z",
                  "sumse_target_ris", "sumse_target_noris",
                  "sumse_nontarget_ris", "sumse_nontarget_noris",
                  "degradation_ratio")


# ---------------------------------------------------------------------------
# scenario model: what load_scenario builds from a parsed config. Field
# types, bounds and defaults live in the config schema tables below.

@dataclass
class UeConfig:
    id: str
    position: np.ndarray
    role: str
    blocked: bool

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class OperatorConfig:
    id: str
    carrier_hz: float
    bs: Node
    ues: list
    power_w: float
    precoder: str
    zf_condition_limit: float | None


@dataclass
class RisConfig:
    owner: str
    rows: int
    cols: int
    position: np.ndarray
    plane: str
    spacing_fraction: float
    design_frequency_hz: float | None
    enabled: bool
    narrowband: bool
    element_pattern: str
    circuit: CircuitParams
    influence_band_hz: list | None

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass
class SweepSpec:
    """Grid of surface sizes and placements for a Fig. 5-style study."""

    element_counts: list
    positions: list
    metrics: list | None = None

    def __post_init__(self):
        # a spec built in code gets the checks of the config's sweep section
        _list_of(_integer(1))(list(self.element_counts), "sweep.element_counts")
        _list_of(_VECTOR)([list(p) for p in self.positions], "sweep.positions")


@dataclass
class PatternConfig:
    frequencies_hz: list
    angle_start_deg: float
    angle_stop_deg: float
    angle_step_deg: float
    cut_plane: str
    cut_radius: float | str | None
    reference_angle_deg: float | None
    reference_window_deg: float
    sensitivity: dict | None            # the parsed sensitivity section

    def angle_grid(self, step: float | None = None) -> np.ndarray:
        step = self.angle_step_deg if step is None else step
        return np.arange(self.angle_start_deg, self.angle_stop_deg + 1e-9, step)


@dataclass
class Scenario:
    master_seed: int
    realizations: int
    operators: list
    ris: RisConfig
    noise_w: float
    k_factor_db: float | None
    sweep_spec: SweepSpec | None
    pattern: PatternConfig | None
    config_echo: dict

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
        d.update((name, getattr(self, name)) for name in METRIC_NAMES[len(EXPORT_COLUMNS):])
        return d


# every key of CaseMetrics.to_dict: the export columns, then the remaining
# fields (ris_position is exported as ris_x, ris_y, ris_z)
METRIC_NAMES = EXPORT_COLUMNS + tuple(
    f.name for f in fields(CaseMetrics) if f.name not in EXPORT_COLUMNS + ("ris_position",))


# ---------------------------------------------------------------------------
# config schema
#
# Each section is a table mapping a field to (check, default). A check takes
# (value, path) and returns the validated value or raises a ConfigError that
# names the path. A missing field takes its default, run through the same
# check so nested sections and lists are materialized; _REQUIRED fields must
# be present. A field whose default is null also takes an explicit null. The
# parsed config is the echo.

_REQUIRED = object()


def _number(positive: bool = False, non_negative: bool = False):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                             np.floating)):
            raise ConfigError(f"{path} must be a number")
        try:
            x = float(value)
        except OverflowError:       # a JSON integer beyond the float range
            x = float("inf")
        if not np.isfinite(x):
            raise ConfigError(f"{path} must be finite")
        if positive and x <= 0:
            raise ConfigError(f"{path} must be positive")
        if non_negative and x < 0:
            raise ConfigError(f"{path} must be non-negative")
        return x
    return check


_FINITE = _number()
_POSITIVE = _number(positive=True)
_NON_NEGATIVE = _number(non_negative=True)


def _integer(minimum: int):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{path} must be an integer")
        if value < minimum:
            raise ConfigError(f"{path} must be at least {minimum}")
        return int(value)
    return check


def _one_of(*choices):
    def check(value, path):
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{path} must be one of {', '.join(map(repr, choices))}")
        return value
    return check


def _flag(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false")
    return value


def _name(value, path):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path} must be a non-empty string")
    return value


def _list_of(check, length: int | None = None):
    def check_list(value, path):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{path} must be a non-empty list")
        if length is not None and len(value) != length:
            raise ConfigError(f"{path} must have {length} entries")
        return [check(item, f"{path}[{i}]") for i, item in enumerate(value)]
    return check_list


_VECTOR = _list_of(_FINITE, length=3)


def _interval(value, path):
    lo, hi = _list_of(_POSITIVE, length=2)(value, path)
    if not lo < hi:
        raise ConfigError(f"{path} must be [low, high] with low < high")
    return [lo, hi]


def _section(schema: dict):
    def check(raw, path):
        if not isinstance(raw, dict):
            raise ConfigError(f"{path} must be an object")
        for key in raw:
            if key not in schema:
                raise ConfigError(f"{path}.{key} is not a recognized field")
        out = {}
        for key, (check_field, default) in schema.items():
            value = raw.get(key, default)
            if value is _REQUIRED:
                raise ConfigError(f"{path}.{key} is required")
            keep_null = value is None and default is None
            out[key] = None if keep_null else check_field(value, f"{path}.{key}")
        return out
    return check


def _cut_radius(value, path):
    # null selects the far field
    if value is None or value == "target-distance":
        return value
    if isinstance(value, str):
        raise ConfigError(f"{path} must be 'target-distance', a positive number or null")
    return _POSITIVE(value, path)


# a UE's role is filled in from surface ownership when omitted
_UE = {"id": (_name, _REQUIRED), "position": (_VECTOR, _REQUIRED),
       "role": (_one_of("target", "non-target"), None), "blocked": (_flag, False)}
_BS = {"position": (_VECTOR, _REQUIRED), "antennas": (_integer(1), 1),
       "spacing_fraction": (_POSITIVE, 0.5), "axis": (_VECTOR, [1.0, 0.0, 0.0])}
_OPERATOR = {"id": (_name, _REQUIRED), "carrier_hz": (_POSITIVE, _REQUIRED),
             "bs": (_section(_BS), _REQUIRED), "ues": (_list_of(_section(_UE)), _REQUIRED),
             "power_w": (_POSITIVE, 1.0), "precoder": (_one_of("zf", "mrt"), "zf"),
             "zf_condition_limit": (_POSITIVE, None)}
# the CircuitParams fields, with a unit suffix
_CIRCUIT = {"l_bottom_h": (_POSITIVE, 2.5e-9), "l_top_h": (_POSITIVE, 0.7e-9),
            "r_loss_ohm": (_NON_NEGATIVE, 1.0), "z0_ohm": (_POSITIVE, 376.730313668),
            "c_min_f": (_POSITIVE, 0.47e-12), "c_max_f": (_POSITIVE, 2.35e-12)}
_RIS = {"owner": (_name, _REQUIRED), "rows": (_integer(1), _REQUIRED),
        "cols": (_integer(1), _REQUIRED), "position": (_VECTOR, _REQUIRED),
        "plane": (_one_of(*PLANE_AXES), "xz"), "spacing_fraction": (_POSITIVE, 0.5),
        "design_frequency_hz": (_POSITIVE, None), "enabled": (_flag, True),
        "narrowband": (_flag, False),
        "element_pattern": (_one_of("isotropic", "cosine"), "isotropic"),
        "circuit": (_section(_CIRCUIT), {}), "influence_band_hz": (_interval, None)}
_NOISE = {"bandwidth_hz": (_POSITIVE, 1e7), "noise_figure_db": (_FINITE, 9.0),
          "density_dbm_per_hz": (_FINITE, -174.0)}
_SWEEP = {"element_counts": (_list_of(_integer(1)), _REQUIRED),
          "positions": (_list_of(_VECTOR), _REQUIRED),
          "metrics": (_list_of(_one_of(*METRIC_NAMES)), None)}
# the sensitivity step defaults to the pattern's step
_SENSITIVITY = {"frequency_hz": (_POSITIVE, _REQUIRED),
                "l_top_h": (_list_of(_POSITIVE), _REQUIRED),
                "c_ranges_f": (_list_of(_interval), _REQUIRED),
                "window_deg": (_NON_NEGATIVE, 5.0), "angle_step_deg": (_POSITIVE, None)}
_PATTERN = {"frequencies_hz": (_list_of(_POSITIVE), _REQUIRED),
            "angle_start_deg": (_FINITE, -90.0), "angle_stop_deg": (_FINITE, 90.0),
            "angle_step_deg": (_POSITIVE, 0.25),
            "cut_plane": (_one_of("terminals", "array-u", "array-v"), "terminals"),
            "cut_radius": (_cut_radius, "target-distance"),
            "reference_angle_deg": (_FINITE, None),
            "reference_window_deg": (_NON_NEGATIVE, 10.0),
            "sensitivity": (_section(_SENSITIVITY), None)}
_CONFIG = _section({
    "operators": (_list_of(_section(_OPERATOR)), _REQUIRED),
    "ris": (_section(_RIS), _REQUIRED),
    "master_seed": (_integer(0), 0), "realizations": (_integer(1), 100),
    "noise": (_section(_NOISE), {}),
    "channel": (_section({"k_factor_db": (_FINITE, None)}), {}),
    "sweep": (_section(_SWEEP), None), "pattern": (_section(_PATTERN), None)})


def load_scenario(config) -> Scenario:
    """Validate a config (JSON text or dict) into a Scenario.

    Unknown fields are rejected with the offending path named, defaults
    are materialized, and the fully expanded config is echoed on the
    Scenario for the run manifest.
    """
    if isinstance(config, (str, bytes)):
        try:
            config = json.loads(config)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    if isinstance(config, dict):
        # an explicit null for a top-level section means the same as leaving
        # it out, so an echoed manifest config loads back unchanged
        config = {k: v for k, v in config.items() if v is not None}
    cfg = _CONFIG(config, "config")
    ris, ops, pattern = cfg["ris"], cfg["operators"], cfg["pattern"]

    ids = [op["id"] for op in ops]
    if len(set(ids)) != len(ids):
        raise ConfigError("config.operators ids must be unique")
    if ris["owner"] not in ids:
        raise ConfigError(f"config.ris.owner '{ris['owner']}' does not match any operator id")
    carriers = [op["carrier_hz"] for op in ops]
    if len(set(carriers)) != len(carriers):
        raise ConfigError("config.operators carrier frequencies must be distinct")
    ue_ids = [ue["id"] for op in ops for ue in op["ues"]]
    dupes = {u for u in ue_ids if ue_ids.count(u) > 1}
    if dupes:
        raise ConfigError(f"duplicate UE identifiers: {sorted(dupes)}")
    for i, op in enumerate(ops):
        if not any(op["bs"]["axis"]):
            raise ConfigError(f"config.operators[{i}].bs.axis must be a non-zero vector")
        if op["precoder"] == "zf" and len(op["ues"]) > op["bs"]["antennas"]:
            raise ConfigError(f"config.operators[{i}].bs.antennas must be at least "
                              f"{len(op['ues'])}: zero-forcing needs one antenna per user")
        expected_role = "target" if op["id"] == ris["owner"] else "non-target"
        for j, ue in enumerate(op["ues"]):
            if ue["role"] is None:
                ue["role"] = expected_role
            elif ue["role"] != expected_role:
                raise ConfigError(f"config.operators[{i}].ues[{j}].role must be "
                                  f"'{expected_role}' because surface ownership "
                                  "decides which users are targets")
    circuit = ris["circuit"]
    if not circuit["c_min_f"] < circuit["c_max_f"]:
        raise ConfigError("config.ris.circuit.c_max_f must exceed c_min_f")
    if pattern is not None:
        if pattern["angle_stop_deg"] <= pattern["angle_start_deg"]:
            raise ConfigError("config.pattern.angle_stop_deg must exceed angle_start_deg")
        sens = pattern["sensitivity"]
        if sens is not None and sens["angle_step_deg"] is None:
            sens["angle_step_deg"] = pattern["angle_step_deg"]
        span = pattern["angle_stop_deg"] - pattern["angle_start_deg"]
        for where, block in (("pattern", pattern), ("pattern.sensitivity", sens)):
            # counted, never allocated: a tiny step would ask for gigabytes
            if block is not None and span / block["angle_step_deg"] + 1 > _MAX_CUT_ANGLES:
                raise ConfigError(f"config.{where}.angle_step_deg must leave at most "
                                  f"{_MAX_CUT_ANGLES} angles per cut")

    if ris["influence_band_hz"] is not None:
        lo, hi = ris["influence_band_hz"]
        for op in ops:
            if not (lo <= op["carrier_hz"] <= hi):
                warnings.warn(ConfigWarning(
                    f"operator '{op['id']}' carrier {op['carrier_hz']:g} Hz lies outside "
                    f"the surface influence band [{lo:g}, {hi:g}] Hz; scattering impact "
                    "there is negligible"))

    operators = [
        OperatorConfig(**{**op, "bs": Node(position=op["bs"]["position"],
                                          n_antennas=op["bs"]["antennas"],
                                          spacing_fraction=op["bs"]["spacing_fraction"],
                                          axis=op["bs"]["axis"]),
                          "ues": [UeConfig(**ue) for ue in op["ues"]]})
        for op in ops]
    surface = RisConfig(**{**ris, "circuit": CircuitParams(
        **{key.rsplit("_", 1)[0]: value for key, value in circuit.items()})})
    return Scenario(master_seed=cfg["master_seed"], realizations=cfg["realizations"],
                    operators=operators, ris=surface, noise_w=noise_power(**cfg["noise"]),
                    k_factor_db=cfg["channel"]["k_factor_db"],
                    sweep_spec=None if cfg["sweep"] is None else SweepSpec(**cfg["sweep"]),
                    pattern=None if pattern is None else PatternConfig(**pattern),
                    config_echo=cfg)


# ---------------------------------------------------------------------------
# seeding

def derive_seed(master_seed: int, *path) -> np.random.SeedSequence:
    """Deterministic seed for a path (realization, operator, ue slot, link).

    The path never includes the surface size or position, so sweep
    points share their channel randomness and curves differ only by the
    swept variable.
    """
    return np.random.SeedSequence([int(master_seed)] + [int(p) for p in path])


# ---------------------------------------------------------------------------
# the per-case pipeline

def build_surface(ris: RisConfig, owner_carrier_hz: float) -> RisArray:
    """Element grid of the configured surface at its design carrier."""
    f_design = ris.design_frequency_hz or owner_carrier_hz
    return build_array(ris.rows, ris.cols, f_design,
                       spacing_fraction=ris.spacing_fraction,
                       center=ris.position, plane=ris.plane,
                       element_pattern=ris.element_pattern)


def _in_scene(field: str, build, *args):
    """``build(*args)``, with its failure reported against ``field``.

    Every argument but the scene geometry is validated when the config
    loads, so the ValueError left is coincident or collinear terminals (a
    ConfigError), and a NumericalError is a scene whose scale overflows.
    """
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{field} cannot be evaluated: {exc}") from None
    except NumericalError as exc:
        raise NumericalError(f"evaluating {field}: {exc}") from None


# Cap on realizations x surface elements x owner cascade entries in one
# block of a run. It bounds the draws, channels and ascent arrays a block
# holds, whatever the scene; the block ranges it sets never depend on the
# worker count.
_BLOCK_TERMS = 1 << 15


def _link_draws(scenario: Scenario, start: int, stop: int, n_elements: int) -> dict:
    """Standard normals of every random link of realizations [start, stop).

    Keyed by (operator index, ue slot, link code), each is a
    (realizations x 2 * entries) array drawn from the link's own
    SeedSequence at ``n_elements`` surface elements: real parts, then
    imaginary parts. A link of a smaller surface takes the prefix its
    entries need, since a stream's prefix does not depend on its length.
    Empty for pure line of sight.
    """
    if scenario.k_factor_db is None:
        return {}
    entries = {}
    for i, op in enumerate(scenario.operators):
        entries[i, 0, BS_RIS_LINK] = n_elements * op.bs.n_antennas
        for j, ue in enumerate(op.ues):
            if not ue.blocked:
                entries[i, j + 1, DIRECT_LINK] = op.bs.n_antennas
            entries[i, j + 1, RIS_UE_LINK] = n_elements
    draws = {key: np.empty((stop - start, 2 * size)) for key, size in entries.items()}
    for key, out in draws.items():
        for r in range(start, stop):
            rng = np.random.default_rng(derive_seed(scenario.master_seed, r, *key))
            rng.standard_normal(out=out[r - start])
    return draws


def _link(scenario: Scenario, draws: dict, key: tuple, n_real: int, field: str,
          tx, rx) -> np.ndarray:
    """(realizations,) + link shape: one link's LoS geometry, then its scatter."""
    f = scenario.operators[key[0]].carrier_hz
    los = _in_scene(field, los_channel, tx, rx, f)
    if scenario.k_factor_db is None:
        return np.broadcast_to(los, (n_real,) + los.shape)
    normals = draws[key][:, :2 * los.size].reshape((n_real, 2) + los.shape)
    return _in_scene(field, rician_channel, los, scenario.k_factor_db, normals)


def _direct_links(scenario: Scenario, draws: dict, n_real: int) -> list:
    """Each operator's (realizations x UEs x BS antennas) direct links.

    A blocked UE has a zero row.
    """
    out = []
    for i, op in enumerate(scenario.operators):
        direct = np.zeros((n_real, len(op.ues), op.bs.n_antennas), dtype=complex)
        for j, ue in enumerate(op.ues):
            if not ue.blocked:
                direct[:, j] = _link(scenario, draws, (i, j + 1, DIRECT_LINK), n_real,
                                     f"config.operators[{i}].ues[{j}].position", op.bs,
                                     Node(position=ue.position))[:, 0]
        out.append(direct)
    return out


def _operator_channels(case: Scenario, i: int, array: RisArray, draws: dict,
                       direct: list) -> ChannelSet:
    """Operator ``i``'s stacked ChannelSet, a row per UE, at its carrier."""
    op = case.operators[i]
    n_real = len(direct[i])
    bs_to_ris = _link(case, draws, (i, 0, BS_RIS_LINK), n_real,
                      f"config.operators[{i}].bs.position", op.bs, array)
    ris_to_ue = np.concatenate(
        [_link(case, draws, (i, j + 1, RIS_UE_LINK), n_real,
               f"config.operators[{i}].ues[{j}].position", array, Node(position=ue.position))
         for j, ue in enumerate(op.ues)], axis=1)
    return ChannelSet(direct=direct[i], bs_to_ris=bs_to_ris, ris_to_ue=ris_to_ue,
                      frequency=op.carrier_hz)


def _tune_surface(scenario: Scenario, targets: ChannelSet) -> TuningResult:
    log = OptimizationLog()
    theta = optimize_weighted_sum_power([targets], log=log)
    result = realize_capacitances(theta, scenario.ris.circuit)
    result.converged = log.converged_each
    return result


def _surface_state(scenario: Scenario, tuning: TuningResult | None,
                   frequency: float) -> ScatteringState:
    if tuning is None or (scenario.ris.narrowband and
                          abs(frequency - tuning.frequency) > 1e-6 * tuning.frequency):
        return ScatteringState(gammas=np.zeros(scenario.ris.n_elements, dtype=complex),
                               frequency=float(frequency))
    return evaluate_off_frequency(tuning, frequency, scenario.ris.circuit)


def _precode_rows(h: np.ndarray, op: OperatorConfig) -> PrecodeResult:
    """Each realization's precoders, zero-channel users parked on silent placeholder columns.

    Realizations with the same set of non-zero users are precoded in one
    stacked call.
    """
    n_real, n_users, n_tx = h.shape
    matrix = np.zeros((n_real, n_tx, n_users), dtype=complex)
    matrix[:, 0, :] = 1.0              # unit placeholder, silenced by zero power
    powers = np.zeros((n_real, n_users))
    patterns, group = np.unique(np.linalg.norm(h, axis=-1) > 0, axis=0, return_inverse=True)
    for k, pattern in enumerate(patterns):
        idx = np.flatnonzero(pattern)
        if len(idx) == 0:
            continue
        members = np.flatnonzero(group.reshape(-1) == k)
        sub = h[members][:, idx]
        power = op.power_w / n_users * len(idx)
        if op.precoder == "mrt":
            res = mrt_precoder(sub, total_power=power)
        else:
            try:
                res = zf_precoder(sub, total_power=power, condition_limit=op.zf_condition_limit)
            except CorrelatedChannelsError as exc:
                if exc.ue_pair is not None:
                    # report indices in the full user list, not the active subset
                    pair = (int(idx[exc.ue_pair[0]]), int(idx[exc.ue_pair[1]]))
                    raise CorrelatedChannelsError(
                        f"user channels {pair[0]} and {pair[1]} are too correlated "
                        f"for zero-forcing (condition number {exc.condition_number:.3g})",
                        ue_pair=pair, condition_number=exc.condition_number) from None
                raise
        matrix[np.ix_(members, np.arange(n_tx), idx)] = res.matrix
        powers[np.ix_(members, idx)] = res.powers
    return PrecodeResult(matrix=matrix, powers=powers)


def _case_block(case: Scenario, draws: dict, direct: list, blind: list,
                without: list) -> tuple:
    """(outcomes, clamp fractions, converged flags) of one case over one block."""
    n_real = len(direct[0])
    array = build_surface(case.ris, case.owner.carrier_hz)
    owner = [op.id for op in case.operators].index(case.ris.owner)
    targets = _operator_channels(case, owner, array, draws, direct)
    tuning = _tune_surface(case, targets) if case.ris.enabled else None
    clamp, converged = np.zeros(n_real), np.ones(n_real, dtype=bool)
    if tuning is not None:
        n_el = case.ris.n_elements
        clamped = np.array([entry.index // n_el for entry in tuning.clamp_report], dtype=int)
        clamp = np.bincount(clamped, minlength=n_real) / n_el
        converged = tuning.converged

    outcomes = []
    for i, op in enumerate(case.operators):
        chs = targets if i == owner else _operator_channels(case, i, array, draws, direct)
        actual = effective_channel(chs, _surface_state(case, tuning, op.carrier_hz))
        # the surface owner precodes with current surface-inclusive knowledge;
        # other operators are surface-blind: design without, traverse with
        precoders = _precode_rows(actual, op) if i == owner else blind[i]
        with_ris = link_metrics(actual, precoders, case.noise_w)
        outcomes.append(np.stack([with_ris.se, without[i].se, with_ris.sinr, without[i].sinr],
                                 axis=1))
    return np.concatenate(outcomes, axis=2), clamp, converged


def _block_worker(args) -> list:
    """Per case, (outcomes, clamp fractions, converged flags) of realizations [start, stop).

    ``outcomes`` is (realizations x 4 x UEs), UEs in config order; its rows
    are SE with and without the surface, then SINR with and without it.
    The draws, the direct links, the surface-blind precoders and every
    metric without the surface depend on no surface, so they are computed
    once and shared by every case.
    """
    cases, start, stop = args
    scenario = cases[0]
    draws = _link_draws(scenario, start, stop, max(case.ris.n_elements for case in cases))
    direct = _direct_links(scenario, draws, stop - start)
    blind = [_precode_rows(h, op) for op, h in zip(scenario.operators, direct)]
    without = [link_metrics(h, p, scenario.noise_w) for h, p in zip(direct, blind)]
    return [_case_block(case, draws, direct, blind, without) for case in cases]


def _blocks(cases: list) -> list:
    """The fixed realization ranges [start, stop) of a run, sized by _BLOCK_TERMS."""
    scenario = cases[0]
    owner = scenario.owner
    terms = max(case.ris.n_elements for case in cases) * len(owner.ues) * owner.bs.n_antennas
    size = max(1, _BLOCK_TERMS // terms)
    return [(start, min(start + size, scenario.realizations))
            for start in range(0, scenario.realizations, size)]


def _mean_stderr(samples: np.ndarray) -> tuple[float, float]:
    mean = float(samples.mean())
    if len(samples) < 2:
        return mean, 0.0
    return mean, float(samples.std(ddof=1) / np.sqrt(len(samples)))


def _case_metrics(case: Scenario, outcomes: np.ndarray, clamp: np.ndarray,
                  converged: np.ndarray) -> CaseMetrics:
    """Monte-Carlo averages of one case's (realizations x 4 x UEs) outcomes."""
    ues = [ue for op in case.operators for ue in op.ues]
    target = np.array([ue.role == "target" for ue in ues])

    def role_sums(row, mask):
        # column by column in config order, so the sums round as per-UE sums do
        return sum(outcomes[:, row, mask].T, np.zeros(len(outcomes)))

    t_ris, t_nor = role_sums(0, target), role_sums(1, target)
    n_ris, n_nor = role_sums(0, ~target), role_sums(1, ~target)

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
    for j, ue in enumerate(ues):
        (se_r, se_r_err), (se_n, se_n_err), (sinr_r, _), (sinr_n, _) = (
            _mean_stderr(outcomes[:, row, j]) for row in range(4))
        per_ue[ue.id] = {"role": ue.role, "se_ris": se_r, "se_noris": se_n,
                         "stderr_se_ris": se_r_err, "stderr_se_noris": se_n_err,
                         "sinr_ris": sinr_r, "sinr_noris": sinr_n}

    return CaseMetrics(
        n_elements=case.ris.n_elements,
        ris_position=tuple(float(x) for x in case.ris.position),
        realizations=case.realizations,
        sumse_target_ris=mean_t_ris, sumse_target_noris=mean_t_nor,
        sumse_nontarget_ris=mean_n_ris, sumse_nontarget_noris=mean_n_nor,
        degradation_ratio=degradation,
        stderr_target_ris=se_t_ris, stderr_target_noris=se_t_nor,
        stderr_nontarget_ris=se_n_ris, stderr_nontarget_noris=se_n_nor,
        stderr_target_diff=se_t_diff, stderr_nontarget_diff=se_n_diff,
        degradation_stderr=degradation_stderr,
        clamp_fraction=float(np.mean(clamp)),
        tuning_converged_fraction=float(np.mean(converged)),
        per_ue=per_ue)


def _run_cases(cases: list, workers: int | None) -> list:
    """CaseMetrics of cases that differ only in their surface, block by block.

    Every case sees the same fixed realization blocks, and no stacked
    operation mixes realizations, so a case's results depend neither on
    ``workers`` nor on the other cases of the run.
    """
    tasks = [(cases, start, stop) for start, stop in _blocks(cases)]
    if workers and workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            blocks = list(pool.map(_block_worker, tasks))
    else:
        blocks = [_block_worker(task) for task in tasks]
    return [_case_metrics(case, *(np.concatenate(part) for part in zip(*(b[k] for b in blocks))))
            for k, case in enumerate(cases)]


def run_case(scenario: Scenario, workers: int | None = None) -> CaseMetrics:
    """Monte-Carlo average of the scenario at its configured surface.

    Realizations are computed in fixed blocks; with ``workers`` set the
    blocks run in parallel and are reduced in index order, so results do
    not depend on scheduling.
    """
    return _run_cases([scenario], workers)[0]


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
    return replace(scenario, ris=replace(scenario.ris, rows=rows, cols=cols,
                                         position=position))


def sweep(scenario: Scenario, spec: SweepSpec | None = None,
          workers: int | None = None) -> list:
    """One CaseMetrics per (element count, position), in deterministic order.

    Every case reuses the same per-realization seeds, so curves across N
    and position differ only through the surface itself. The cases run
    together, block by block, sharing the draws and all surface-free work.
    """
    spec = spec or scenario.sweep_spec
    if spec is None:
        raise ConfigError("no sweep specification was configured")
    cases = [_with_surface(scenario, n, pos)
             for n in spec.element_counts for pos in spec.positions]
    return _run_cases(cases, workers)


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
    run is byte-identical. A NaN or infinite value raises NumericalError
    before any file is written.
    """
    if not table:
        raise ValueError("result table is empty")
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    path = str(path)
    non_finite = NumericalError(f"the result table holds a NaN or infinite value; "
                                f"nothing was written to '{path}'")
    if fmt == "csv":
        rows = [case.to_row() for case in table]
        if not np.all(np.isfinite(np.asarray(rows, dtype=float))):
            raise non_finite
        lines = [",".join(EXPORT_COLUMNS)]
        lines += [",".join(_format_value(v) for v in row) for row in rows]
        payload = "\n".join(lines) + "\n"
    else:
        spec = None if scenario is None else scenario.sweep_spec
        keep = set(METRIC_NAMES) if spec is None or spec.metrics is None \
            else set(spec.metrics) | {"n_elements", "ris_x", "ris_y", "ris_z"}
        cases = [{k: v for k, v in case.to_dict().items() if k in keep} for case in table]
        try:
            payload = json.dumps({"cases": cases}, indent=2, sort_keys=True,
                                 allow_nan=False) + "\n"
        except ValueError:
            raise non_finite from None
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
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        with open(path + ".manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing results to '{path}': {exc}") from exc


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
        return _in_scene("config.pattern.cut_plane", PatternCut.through_points, array,
                         owner.bs.position, ue.position, radius)
    axis = "u" if cfg.cut_plane == "array-u" else "v"
    return PatternCut(radius=radius, axis=axis)


def _pattern_phases(scenario: Scenario, array: RisArray) -> ScatteringState:
    """Ideal phases focusing the owner's first user at the design carrier.

    The feed is collapsed to a point source so the single-target closed
    form applies; the direct path is ignored for the pattern study. The
    phases do not depend on the circuit constants, which only enter when
    they are realized as capacitances.
    """
    owner = scenario.owner
    f_design = scenario.ris.design_frequency_hz or owner.carrier_hz
    feed = Node(position=owner.bs.position)
    ue_node = Node(position=owner.ues[0].position)
    where = f"config.operators[{[op.id for op in scenario.operators].index(owner.id)}]"
    chs = ChannelSet(direct=np.zeros((1, 1), dtype=complex),
                     bs_to_ris=_in_scene(where + ".bs.position", los_channel, feed, array,
                                         f_design),
                     ris_to_ue=_in_scene(where + ".ues[0].position", los_channel, array,
                                         ue_node, f_design),
                     frequency=f_design)
    return align_phases_single_target(chs)


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
    tuning = realize_capacitances(_pattern_phases(scenario, array), params)
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

    # the surface, the cut and the ideal phases do not depend on the circuit
    # constants: every case realizes the same phases, then each carrier's
    # patterns are evaluated in one stacked call
    array = build_surface(scenario.ris, scenario.owner.carrier_hz)
    cut = _pattern_cut(scenario, array)
    theta = _pattern_phases(scenario, array)
    carriers = (f_design, sens["frequency_hz"])
    n_cases = len(sens["l_top_h"]) * len(sens["c_ranges_f"])
    stacks = np.empty((len(carriers), n_cases, array.n_elements), dtype=complex)
    rows = []
    for l_top in sens["l_top_h"]:
        for c_lo, c_hi in sens["c_ranges_f"]:
            params = replace(base, l_top=l_top, c_min=c_lo, c_max=c_hi)
            tuning = realize_capacitances(theta, params)
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
