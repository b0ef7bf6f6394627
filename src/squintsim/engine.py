"""Scenario assembly, presets, Monte-Carlo sweeps, exports, and reports.

A scenario holds several operators on distinct carriers; exactly one of
them owns the reflective surface and tunes it for its own users. The
per-case pipeline synthesizes all channels, tunes the surface at the
owner's carrier, lets every other operator precode against surface-free
channels, and then evaluates everyone on the channels that actually
exist, with the frozen surface state re-evaluated at each carrier.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import json
import os
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._version import __version__
from .array_field import (PLANE_AXES, PatternCut, RisArray, ScatteringState,
                          build_array, directivity_pattern, main_lobe_angle,
                          pattern_to_csv)
from .channels import ChannelSet, Node, effective_channel, los_channel, rician_channel
from .circuit import CircuitParams
from .errors import (ConfigError, ConfigWarning, CorrelatedChannelsError, NumericalError,
                     SquintSimError)
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
_CUT_SPAN = "config.pattern.angle_start_deg to angle_stop_deg"   # named if a cut scatters nothing
_CUT_RADIUS = "config.pattern.cut_radius"   # named if its powers overflow
_RIS_SURFACE = "the surface at config.ris.position"   # named if a link through it fails

EXPORT_COLUMNS = ("n_elements", "ris_x", "ris_y", "ris_z",
                  "sumse_target_ris", "sumse_target_noris",
                  "sumse_nontarget_ris", "sumse_nontarget_noris",
                  "degradation_ratio")


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
    stderr_target_ris: float
    stderr_target_noris: float
    stderr_nontarget_ris: float
    stderr_nontarget_noris: float
    stderr_target_diff: float
    stderr_nontarget_diff: float
    degradation_stderr: float
    clamp_fraction: float
    tuning_converged_fraction: float
    per_ue: dict

    def to_dict(self) -> dict:
        """Every field by name, with ris_position split into ris_x, ris_y and ris_z."""
        d = dict(vars(self))
        d.update(zip(("ris_x", "ris_y", "ris_z"), d.pop("ris_position")))
        return d

    def to_row(self) -> list:
        d = self.to_dict()
        return [d[name] for name in EXPORT_COLUMNS]


# every key of CaseMetrics.to_dict: the export columns, then the remaining
# fields (ris_position is exported as ris_x, ris_y, ris_z)
METRIC_NAMES = EXPORT_COLUMNS + tuple(
    f.name for f in fields(CaseMetrics) if f.name not in EXPORT_COLUMNS + ("ris_position",))


# ---------------------------------------------------------------------------
# config schema and scenario model
#
# A check takes (value, path) and returns the validated value or raises a
# ConfigError that names the path. A config section is parsed by a table
# mapping each field to (check, default), or by a scenario record whose fields
# carry their own (``_spec``). A missing field takes its default, run through
# the same check so nested sections and lists are materialized; _REQUIRED
# fields must be present. A field whose default is null also takes an explicit
# null. The parsed config is the echo, and load_scenario builds the records from it.

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


def _integer(minimum: int, maximum: int | None = None):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{path} must be an integer")
        if value < minimum:
            raise ConfigError(f"{path} must be at least {minimum}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{path} must be at most {maximum}")
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


def _direction(value, path):
    vector = _VECTOR(value, path)
    with np.errstate(over="ignore"):    # Node normalizes a direction by this length
        length = np.linalg.norm(vector)
    if not 0 < length < np.inf:
        raise ConfigError(f"{path} must be a non-zero vector of finite length")
    return vector


def _interval(value, path):
    lo, hi = _list_of(_POSITIVE, length=2)(value, path)
    if not lo < hi:
        raise ConfigError(f"{path} must be [low, high] with low < high")
    return [lo, hi]


def _section(schema):
    """Check of a config object; ``schema`` is a table or a record of ``_spec`` fields."""
    if not isinstance(schema, dict):
        schema = {f.name: f.metadata["config"] for f in fields(schema)}

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


def _spec(check, default=_REQUIRED, /, **field_args):
    """A record field that ``check`` reads from config, ``default`` when omitted."""
    return field(metadata={"config": (check, default)}, **field_args)


def _cut_radius(value, path):
    # null selects the far field
    if value is None or value == "target-distance":
        return value
    if isinstance(value, str):
        raise ConfigError(f"{path} must be 'target-distance', a positive number or null")
    return _POSITIVE(value, path)


# Node's fields under their config names (n_antennas as antennas), with its defaults
_BS = {"position": (_VECTOR, _REQUIRED), "antennas": (_integer(1), Node.n_antennas),
       "spacing_fraction": (_POSITIVE, Node.spacing_fraction), "axis": (_direction, Node.axis)}
# CircuitParams' fields with a unit suffix, and its defaults
_CIRCUIT = {"l_bottom_h": (_POSITIVE, CircuitParams.l_bottom),
            "l_top_h": (_POSITIVE, CircuitParams.l_top),
            "r_loss_ohm": (_NON_NEGATIVE, CircuitParams.r_loss),
            "z0_ohm": (_POSITIVE, CircuitParams.z0),
            "c_min_f": (_POSITIVE, CircuitParams.c_min),
            "c_max_f": (_POSITIVE, CircuitParams.c_max)}
# the sensitivity step defaults to the pattern's step
_SENSITIVITY = {"frequency_hz": (_POSITIVE, _REQUIRED),
                "l_top_h": (_list_of(_POSITIVE), _REQUIRED),
                "c_ranges_f": (_list_of(_interval), _REQUIRED),
                "window_deg": (_NON_NEGATIVE, 5.0), "angle_step_deg": (_POSITIVE, None)}


@dataclass
class UeConfig:
    id: str = _spec(_name)
    position: np.ndarray = _spec(_VECTOR)
    # filled in from surface ownership when omitted
    role: str = _spec(_one_of("target", "non-target"), None)
    blocked: bool = _spec(_flag, False)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class OperatorConfig:
    id: str = _spec(_name)
    carrier_hz: float = _spec(_POSITIVE)
    bs: Node = _spec(_section(_BS))
    ues: list = _spec(_list_of(_section(UeConfig)))
    power_w: float = _spec(_POSITIVE, 1.0)
    precoder: str = _spec(_one_of("zf", "mrt"), "zf")
    zf_condition_limit: float | None = _spec(_POSITIVE, None)


@dataclass
class RisConfig:
    owner: str = _spec(_name)
    rows: int = _spec(_integer(1))
    cols: int = _spec(_integer(1))
    position: np.ndarray = _spec(_VECTOR)
    plane: str = _spec(_one_of(*PLANE_AXES), "xz")
    spacing_fraction: float = _spec(_POSITIVE, 0.5)
    design_frequency_hz: float | None = _spec(_POSITIVE, None)
    enabled: bool = _spec(_flag, True)
    narrowband: bool = _spec(_flag, False)
    element_pattern: str = _spec(_one_of("isotropic", "cosine"), "isotropic")
    circuit: CircuitParams = _spec(_section(_CIRCUIT), {})
    influence_band_hz: list | None = _spec(_interval, None)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass
class SweepSpec:
    """Grid of surface sizes and placements for a Fig. 5-style study."""

    element_counts: list = _spec(_list_of(_integer(1)))
    positions: list = _spec(_list_of(_VECTOR))
    metrics: list | None = _spec(_list_of(_one_of(*METRIC_NAMES)), None, default=None)


@dataclass
class PatternConfig:
    frequencies_hz: list = _spec(_list_of(_POSITIVE))
    angle_start_deg: float = _spec(_FINITE, -90.0)
    angle_stop_deg: float = _spec(_FINITE, 90.0)
    angle_step_deg: float = _spec(_POSITIVE, 0.25)
    cut_plane: str = _spec(_one_of("terminals", "array-u", "array-v"), "terminals")
    cut_radius: float | str | None = _spec(_cut_radius, "target-distance")
    reference_angle_deg: float | None = _spec(_FINITE, None)
    reference_window_deg: float = _spec(_NON_NEGATIVE, 10.0)
    sensitivity: dict | None = _spec(_section(_SENSITIVITY), None)   # the parsed section

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


_NOISE = {"bandwidth_hz": (_POSITIVE, 1e7), "noise_figure_db": (_FINITE, 9.0),
          "density_dbm_per_hz": (_FINITE, -174.0)}
_CONFIG = _section({
    "operators": (_list_of(_section(OperatorConfig)), _REQUIRED),
    "ris": (_section(RisConfig), _REQUIRED),
    "master_seed": (_integer(0), 0), "realizations": (_integer(1, 1 << 32), 100),
    "noise": (_section(_NOISE), {}),
    "channel": (_section({"k_factor_db": (_FINITE, None)}), {}),
    "sweep": (_section(SweepSpec), None), "pattern": (_section(PatternConfig), None)})


def load_scenario(config) -> Scenario:
    """Validate a config (JSON text, as str or as bytes, or a dict) into a Scenario.

    Unknown fields are rejected with the offending path named, defaults
    are materialized, and the fully expanded config is echoed on the
    Scenario for the run manifest.
    """
    if isinstance(config, (str, bytes)):
        try:
            config = json.loads(config)
        except (ValueError, RecursionError) as exc:
            # ValueError also covers bytes that do not decode and an integer past
            # Python's digit limit, RecursionError a too deep nesting
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
    try:    # the linear ratio rician_channel takes leaves the float range near 3,083 dB
        10.0 ** ((cfg["channel"]["k_factor_db"] or 0.0) / 10.0)
    except OverflowError:
        raise ConfigError("config.channel.k_factor_db must keep 10^(dB / 10) finite") from None
    surfaces = [("config.ris.rows x config.ris.cols", ris["rows"] * ris["cols"])]
    if cfg["sweep"] is not None:
        surfaces += [(f"config.sweep.element_counts[{k}]", n)
                     for k, n in enumerate(cfg["sweep"]["element_counts"])]
    for where, n_el in surfaces:
        for i, op in enumerate(ops):
            # counted, never allocated: the cascade of one realization
            terms = n_el * op["bs"]["antennas"] * len(op["ues"])
            if terms > _REALIZATION_TERMS:
                raise ConfigError(
                    f"{where} ({n_el} elements) with config.operators[{i}].bs.antennas "
                    f"({op['bs']['antennas']}) and its {len(op['ues'])} user(s) make {terms} "
                    f"channel terms per realization; at most {_REALIZATION_TERMS} are allowed")
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
        files = {}
        for k, name in enumerate(map(_pattern_file, pattern["frequencies_hz"])):
            if files.setdefault(name, k) != k:
                raise ConfigError(f"config.pattern.frequencies_hz[{k}] names the same file "
                                  f"{name} as config.pattern.frequencies_hz[{files[name]}]")

    if ris["influence_band_hz"] is not None:
        lo, hi = ris["influence_band_hz"]
        for op in ops:
            if not (lo <= op["carrier_hz"] <= hi):
                warnings.warn(ConfigWarning(
                    f"operator '{op['id']}' carrier {op['carrier_hz']:g} Hz lies outside "
                    f"the surface influence band [{lo:g}, {hi:g}] Hz; scattering impact "
                    "there is negligible"))

    with np.errstate(over="ignore", under="ignore"):
        noise_w = noise_power(**cfg["noise"])
    if not 0 < noise_w < np.inf:
        raise ConfigError(f"config.noise gives noise power {noise_w:g} W, not finite and positive")
    operators = [
        OperatorConfig(**{**op, "ues": [UeConfig(**ue) for ue in op["ues"]], "bs": Node(
            op["bs"]["position"], n_antennas=op["bs"]["antennas"],
            spacing_fraction=op["bs"]["spacing_fraction"], axis=op["bs"]["axis"])})
        for op in ops]
    surface = RisConfig(**{**ris, "circuit": CircuitParams(
        **{key.rsplit("_", 1)[0]: value for key, value in circuit.items()})})
    return Scenario(master_seed=cfg["master_seed"], realizations=cfg["realizations"],
                    operators=operators, ris=surface, noise_w=noise_w,
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
    swept variable. The engine derives its generators from these seeds
    in array form (``_pcg64_states``); this function is the reference
    that derivation is checked against.
    """
    return np.random.SeedSequence([int(master_seed)] + [int(p) for p in path])


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx, kept
# stable by NEP 19) and the 128-bit LCG multiplier of PCG64 (O'Neill, "PCG",
# HMC-CS-2014-0905)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_XSHIFT = np.uint32(16)
_MASK32 = 0xffffffff
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645


def _generate_state(entropy: np.ndarray) -> list:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of each row of a uint32 array.

    Rows hold at least the pool's four words, as every seeding key does.
    Returns the four uint64 columns. The hash constants advance with the
    number of words only, so all rows hash in step.
    """
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, entropy.shape[1]):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    # eight uint32 words, read in pairs as the four little-endian uint64s
    hash_const = _INIT_B
    words = [hashmix(pool[i % _POOL_SIZE], _MULT_B).astype(np.uint64) for i in range(2 * 4)]
    return [lo | hi << np.uint64(32) for lo, hi in zip(words[0::2], words[1::2])]


def _pcg64_states(master_seed: int, realizations, keys: list) -> list:
    """PCG64's seeded (state, inc) for ``derive_seed(master_seed, r, *key)``.

    One pair per realization and key, realization-major. The keys have one
    length, and every realization and key entry is one uint32 word (a config
    loads with at most 2^32 realizations), so each pair's entropy is a row of
    one (realizations x keys x words) table: the master seed's little-endian
    words, the realization, the key. One ``_generate_state`` call hashes it,
    then PCG64's seeding step runs in 128-bit integers:
    inc = 2 seq + 1, state = (inc + initstate) MULT + inc.
    """
    seed = int(master_seed)
    prefix = [seed >> 32 * k & _MASK32 for k in range(max(1, -(-seed.bit_length() // 32)))]
    a = len(prefix)
    entropy = np.empty((len(realizations), len(keys), a + 1 + len(keys[0])), dtype=np.uint32)
    entropy[..., :a] = prefix
    # numpy raises OverflowError for an entry that is not one uint32 word
    entropy[..., a] = np.array(realizations, dtype=np.uint32)[:, None]
    entropy[..., a + 1:] = np.array(keys, dtype=np.uint32)
    columns = _generate_state(entropy.reshape(-1, entropy.shape[-1]))
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(*(c.tolist() for c in columns)):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


# ---------------------------------------------------------------------------
# the per-case pipeline

def build_surface(ris: RisConfig, owner_carrier_hz: float) -> RisArray:
    """Element grid of the configured surface at its design carrier."""
    f_design = ris.design_frequency_hz or owner_carrier_hz
    return build_array(ris.rows, ris.cols, f_design,
                       spacing_fraction=ris.spacing_fraction,
                       center=ris.position, plane=ris.plane,
                       element_pattern=ris.element_pattern)


def _in_scene(where: str, build, *args, overflow: str | None = None):
    """``build(*args)``, with its failure reported against the config field ``where``,
    or a NumericalError against ``overflow`` when given.

    Every argument but the scene geometry is validated when the config
    loads, so a ValueError left is coincident or collinear terminals or a cut
    that scatters nothing (a ConfigError), and a NumericalError is a scene
    whose scale overflows.
    """
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{where} cannot be evaluated: {exc}") from None
    except NumericalError as exc:
        raise NumericalError(f"evaluating {overflow or where}: {exc}") from None


# Cap on realizations x surface elements x owner cascade entries, per case in
# one block of a run and summed over one stack (the same-size cases of a block
# tuned, precoded and evaluated together). It sets how many equal blocks a run
# is split into, whatever the worker count, and bounds a block's channels and
# the ascent's arrays: in fig5's blocks of 45 or 46 realizations the four
# positions make one stack at 10 elements, two at 30 and four of one case at 50 and 70.
_BLOCK_TERMS = 1 << 17
# Cap on the terms of one realization's largest array, an operator's
# cascade from every BS antenna through every element to every user.
_REALIZATION_TERMS = 1 << 22


class _LinkDraws:
    """Standard normals of every random link of realizations [start, stop).

    ``take(key)`` returns the normals of link (operator index, ue slot,
    link code): a (realizations x 2 * sizes[key]) array drawn from the
    link's own ``derive_seed`` stream, real parts, then imaginary parts.
    ``sizes`` maps each link to the entry count of its line-of-sight matrix
    at the block's largest surface; a link of a smaller surface takes the
    prefix its entries need, since a stream's prefix does not depend on its
    length. A link is drawn when it is first taken and forgotten after its last
    take: once for a direct link, ``reads`` times (once a stack) for a surface link.

    Every stream is seeded up front by ``_pcg64_states``, numpy's
    SeedSequence to PCG64 derivation in array form, and drawn through one
    reused generator. Its first state is checked against ``derive_seed``,
    so a numpy whose derivation differs fails the run instead of changing it.
    """

    def __init__(self, master_seed: int, start: int, stop: int, sizes: dict, reads: int):
        keys = list(sizes)
        states = _pcg64_states(master_seed, range(start, stop), keys)
        bit_generator = np.random.PCG64(derive_seed(master_seed, start, *keys[0]))
        if bit_generator.state["state"] != dict(zip(("state", "inc"), states[0])):
            raise SquintSimError(f"numpy {np.__version__} seeds PCG64 from a SeedSequence "
                                 "differently from the derivation this engine reproduces, "
                                 "so its draws would break the stated seed rule")
        self._generator = np.random.Generator(bit_generator)
        # realization-major states, so a key's realizations are every len(keys)-th pair
        self._streams = {key: (sizes[key], states[k::len(keys)]) for k, key in enumerate(keys)}
        self._reads = {key: 1 if key[2] == DIRECT_LINK else reads for key in keys}
        self._drawn = {}

    def take(self, key: tuple) -> np.ndarray:
        normals = self._drawn.get(key)
        if normals is None:
            size, states = self._streams[key]
            normals = self._drawn[key] = np.empty((len(states), 2 * size))
            for (state, inc), row in zip(states, normals):
                self._generator.bit_generator.state = {
                    "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
                self._generator.standard_normal(out=row)
        self._reads[key] -= 1
        if not self._reads[key]:
            del self._drawn[key]
        return normals


def _link_field(key: tuple, surface: str | None = None) -> str:
    """The config field whose position fails when a link cannot be evaluated, with
    ``surface``, the surface of a surface link, when given."""
    i, slot, code = key
    where = f"config.operators[{i}]." + ("bs" if code == BS_RIS_LINK else f"ues[{slot - 1}]")
    return f"{where}.position" + ("" if surface is None else f" with {surface}")


def _los_links(cases: list, surfaces: list) -> tuple[dict, list]:
    """The direct links, shared by every case, and per case the surface links.

    Each is a dict of line-of-sight matrices keyed like the draws: the run's
    one table of links, with no direct link for a blocked UE. The geometry
    depends on no realization, so it is computed once per run and handed to
    every block, each surface link in one call over every case's elements (an
    entry depends on its own distance alone, so it has the bits of a call on
    its case). The owner's surface links are evaluated before the other
    operators', the order a block uses them in, each operator's BS-to-surface
    link before its UEs' in slot order; an operator whose call fails is
    evaluated again case by case, to name the first failing link.
    ``surfaces`` names each case's surface.
    """
    operators = cases[0].operators
    owner = [op.id for op in operators].index(cases[0].ris.owner)
    ue_nodes = [[Node(position=ue.position) for ue in op.ues] for op in operators]

    def los(key, tx, rx, surface=None):
        return _in_scene(_link_field(key, surface), los_channel, tx, rx,
                         operators[key[0]].carrier_hz)

    direct = {(i, j + 1, DIRECT_LINK): los((i, j + 1, DIRECT_LINK), op.bs, ue_nodes[i][j])
              for i, op in enumerate(operators) for j, ue in enumerate(op.ues)
              if not ue.blocked}
    links = [{} for _ in cases]
    arrays = [build_surface(case.ris, case.owner.carrier_hz) for case in cases]
    elements = np.concatenate([array.element_positions for array in arrays])
    bounds = np.cumsum([array.n_elements for array in arrays[:-1]])
    for i in [owner] + [i for i in range(len(operators)) if i != owner]:
        op, nodes = operators[i], ue_nodes[i]
        keys = [(i, 0, BS_RIS_LINK)] + [(i, j + 1, RIS_UE_LINK) for j in range(len(nodes))]
        try:
            matrices = [np.split(los_channel(op.bs, elements, op.carrier_hz), bounds)] + [
                np.split(los_channel(elements, node, op.carrier_hz), bounds, axis=1)
                for node in nodes]
        except (ValueError, NumericalError):
            # case by case, each case's links in key order, to name the first that fails
            matrices = zip(*[[los(key, tx, rx, surface) for key, tx, rx in
                              zip(keys, [op.bs] + [array] * len(nodes), [array] + nodes)]
                             for array, surface in zip(arrays, surfaces)])
        for key, per_case in zip(keys, matrices):
            for case_links, matrix in zip(links, per_case):
                case_links[key] = matrix
    return direct, links


def _link(scenario: Scenario, los: np.ndarray, draws: _LinkDraws | None, key: tuple,
          out: np.ndarray) -> None:
    """Fill ``out``, (..., realizations) + link shape, with one link's LoS entries and
    scatter; ``los`` is its LoS matrix, or a (cases, 1) + link shape stack, one per case."""
    if scenario.k_factor_db is None:
        out[...] = los
        return
    n_real, rows, cols = out.shape[-3:]
    normals = draws.take(key)[:, :2 * rows * cols].reshape(n_real, 2, rows, cols)
    _in_scene(_link_field(key), rician_channel, los, scenario.k_factor_db, normals, out)


def _direct_links(scenario: Scenario, links: dict, draws: _LinkDraws | None,
                  n_real: int) -> list:
    """Each operator's (realizations x UEs x BS antennas) direct links, UE slot s in row
    s - 1; a UE without a link in ``links`` (``_los_links``), a blocked one, has a zero row."""
    out = [np.zeros((n_real, len(op.ues), op.bs.n_antennas), dtype=complex)
           for op in scenario.operators]
    for key, los in links.items():
        i, slot, _ = key
        _link(scenario, los, draws, key, out[i][:, slot - 1:slot])
    return out


def _operator_channels(cases: list, links: list, i: int, draws: _LinkDraws | None,
                       direct: list) -> ChannelSet:
    """Operator ``i``'s ChannelSet at its carrier, a row per UE, over a stack of cases.

    The cases share a surface size and are stacked case-major on the
    realization axis; each of operator ``i``'s links of every case (``links``,
    one dict per case) is mixed with its scatter in one call, straight into the
    stack. The links are filled one at a time, in ``links`` order, so that a
    link read for the last time is freed before the next one is drawn.
    """
    op = cases[0].operators[i]
    n_real, n_el = len(direct[i]), cases[0].ris.n_elements
    bs_to_ris = np.empty((len(cases), n_real, n_el, op.bs.n_antennas), dtype=complex)
    ris_to_ue = np.empty((len(cases), n_real, len(op.ues), n_el), dtype=complex)
    for key in [key for key in links[0] if key[0] == i]:
        slot = key[1]    # 0 for the BS-to-surface link, UE slot s fills row s - 1
        _link(cases[0], np.stack([case_links[key] for case_links in links])[:, None], draws,
              key, ris_to_ue[:, :, slot - 1:slot] if slot else bs_to_ris)
    n_stack = len(cases) * n_real
    return ChannelSet(direct=np.tile(direct[i], (len(cases), 1, 1)),
                      bs_to_ris=bs_to_ris.reshape(n_stack, n_el, -1),
                      ris_to_ue=ris_to_ue.reshape(n_stack, -1, n_el), frequency=op.carrier_hz)


def _surface_state(scenario: Scenario, tuning: TuningResult | None,
                   frequency: float) -> ScatteringState:
    if tuning is None or (scenario.ris.narrowband and
                          abs(frequency - tuning.frequency) > 1e-6 * tuning.frequency):
        return ScatteringState(gammas=np.zeros(scenario.ris.n_elements, dtype=complex),
                               frequency=float(frequency))
    return evaluate_off_frequency(tuning, frequency, scenario.ris.circuit)


def _precode_rows(h: np.ndarray, op: OperatorConfig) -> PrecodeResult:
    """Each realization's precoders, zero-channel users parked on silent placeholder columns.

    A user's channel is zero in every realization or in none (a blocked
    user without a surface path), so the users with a non-zero channel are
    precoded in one stacked call.
    """
    n_real, n_users, n_tx = h.shape
    matrix = np.zeros((n_real, n_tx, n_users), dtype=complex)
    matrix[:, 0, :] = 1.0              # unit placeholder, silenced by zero power
    powers = np.zeros((n_real, n_users))
    idx = np.flatnonzero(h.any(axis=(0, 2)))
    if len(idx) == 0:
        return PrecodeResult(matrix=matrix, powers=powers)
    sub, power = h[:, idx], op.power_w / n_users * len(idx)
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
    matrix[:, :, idx] = res.matrix
    powers[:, idx] = res.powers
    return PrecodeResult(matrix=matrix, powers=powers)


def _stacks(cases: list, n_real: int) -> list:
    """Runs of consecutive same-size cases of at most _BLOCK_TERMS terms (or one case).

    Each run is a list of indices into ``cases``.
    """
    owner = cases[0].owner
    stacks = []
    for k, case in enumerate(cases):
        n_el = case.ris.n_elements
        room = _BLOCK_TERMS // (n_real * n_el * len(owner.ues) * owner.bs.n_antennas)
        if stacks and cases[stacks[-1][0]].ris.n_elements == n_el and len(stacks[-1]) < room:
            stacks[-1].append(k)
        else:
            stacks.append([k])
    return stacks


def _block_worker(args) -> tuple:
    """(outcomes, clamp fractions, converged flags) of realizations [start, stop), case-major.

    ``outcomes`` is (cases x realizations x 4 x UEs), UEs in config order; its
    rows are SE with and without the surface, then SINR with and without it.
    The direct links, the surface-blind precoders and every metric without
    the surface depend on no surface, so they are computed once and shared
    by every case. The owner's pass then tunes each stack, keeping only its
    surface, and each other operator's pass crosses every frozen surface. A
    surface link is drawn at its pass's first stack and freed after its last,
    so an ascent holds only the owner's draws, and none in a one-stack block.
    """
    cases, direct_los, links, start, stop = args
    scenario, n_real, stacks = cases[0], stop - start, _stacks(cases, stop - start)
    largest = links[max(range(len(cases)), key=lambda k: cases[k].ris.n_elements)]
    draws = None if scenario.k_factor_db is None else _LinkDraws(
        scenario.master_seed, start, stop,
        {key: los.size for key, los in {**direct_los, **largest}.items()}, reads=len(stacks))
    direct = _direct_links(scenario, direct_los, draws, n_real)
    blind = [_precode_rows(h, op) for op, h in zip(scenario.operators, direct)]
    without = [link_metrics(h, p, scenario.noise_w) for h, p in zip(direct, blind)]
    owner = [op.id for op in scenario.operators].index(scenario.ris.owner)
    ue_bounds = np.cumsum([0] + [len(op.ues) for op in scenario.operators]).tolist()
    outcomes = np.empty((len(cases), n_real, 4, ue_bounds[-1]))
    clamp, converged = np.zeros((len(cases), n_real)), np.ones((len(cases), n_real), dtype=bool)

    def stack_rows(i: int, stack: list, tuning: TuningResult | None = None) -> TuningResult | None:
        """Operator ``i``'s rows of one stack and its surface, which the owner's pass tunes."""
        case, op, n_cases = cases[stack[0]], scenario.operators[i], len(stack)
        chs = _operator_channels([cases[k] for k in stack], [links[k] for k in stack], i, draws,
                                 direct)
        cut = slice(stack[0], stack[-1] + 1)
        if i == owner and case.ris.enabled:
            log, n_el = OptimizationLog(), case.ris.n_elements
            tuning = realize_capacitances(optimize_weighted_sum_power([chs], log=log),
                                          case.ris.circuit)
            clamp[cut] = np.bincount(tuning.clamp_report // n_el, minlength=n_cases * n_real
                                     ).reshape(n_cases, n_real) / n_el
            converged[cut] = log.converged_each.reshape(n_cases, n_real)
        actual = effective_channel(chs, _surface_state(case, tuning, op.carrier_hz))
        # the surface owner precodes with current surface-inclusive knowledge;
        # other operators are surface-blind: design without, traverse with
        precoders = _precode_rows(actual, op) if i == owner else PrecodeResult(
            matrix=np.tile(blind[i].matrix, (n_cases, 1, 1)),
            powers=np.tile(blind[i].powers, (n_cases, 1)))
        with_ris = link_metrics(actual, precoders, case.noise_w)
        rows = outcomes[cut, :, :, ue_bounds[i]:ue_bounds[i + 1]]
        rows[:, :, 0] = with_ris.se.reshape(n_cases, n_real, -1)
        rows[:, :, 1] = without[i].se
        rows[:, :, 2] = with_ris.sinr.reshape(n_cases, n_real, -1)
        rows[:, :, 3] = without[i].sinr
        return tuning

    tunings = [stack_rows(owner, stack) for stack in stacks]
    for i in range(len(scenario.operators)):
        if i != owner:
            for stack, tuning in zip(stacks, tunings):
                stack_rows(i, stack, tuning)
    return outcomes, clamp, converged


def _blocks(cases: list) -> list:
    """The fixed realization ranges [start, stop) of a run.

    The fewest blocks of at most _BLOCK_TERMS terms each, with sizes that
    differ by at most one.
    """
    owner, total = cases[0].owner, cases[0].realizations
    terms = max(case.ris.n_elements for case in cases) * len(owner.ues) * owner.bs.n_antennas
    n_blocks = -(-total // max(1, _BLOCK_TERMS // terms))
    bounds = [k * total // n_blocks for k in range(n_blocks + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, mean and standard error over the last (realization) axis, made
    contiguous so that each row gets the bits of its own 1-D ``mean`` and ``std``."""
    samples = np.ascontiguousarray(samples)
    n = samples.shape[-1]
    std = samples.std(axis=-1, ddof=1) if n > 1 else np.zeros(samples.shape[:-1])
    return samples.mean(axis=-1), std / np.sqrt(n)


# each role's SE sum with and without the surface, then each role's difference
_ROLE_SERIES = ("target_ris", "target_noris", "nontarget_ris", "nontarget_noris",
                "target_diff", "nontarget_diff")


def _case_metrics(case: Scenario, outcomes: np.ndarray, clamp: np.ndarray,
                  converged: np.ndarray) -> CaseMetrics:
    """Monte-Carlo averages of one case's (realizations x 4 x UEs) outcomes."""
    ues = [ue for op in case.operators for ue in op.ues]
    target = np.array([ue.role == "target" for ue in ues])
    # (4 x UEs x realizations): SE with and without the surface, then SINR
    per_row = outcomes.transpose(1, 2, 0)
    # UE by UE in config order, so the sums round as per-UE sums do
    t_ris, t_nor, n_ris, n_nor = (sum(per_row[row, mask], np.zeros(len(outcomes)))
                                  for mask in (target, ~target) for row in (0, 1))
    mean, err = _mean_stderr(np.stack([t_ris, t_nor, n_ris, n_nor,
                                       t_ris - t_nor, n_ris - n_nor]))
    values = {"sumse_" + name: m for name, m in zip(_ROLE_SERIES[:4], mean.tolist())}
    values.update(("stderr_" + name, e) for name, e in zip(_ROLE_SERIES, err.tolist()))

    degradation = degradation_stderr = 0.0
    mean_n_ris, mean_n_nor = values["sumse_nontarget_ris"], values["sumse_nontarget_noris"]
    if mean_n_nor > 0:
        # both means come from the same realizations, so the ratio's first-order
        # error is the standard error of its linearisation, realization by realization
        ratio = mean_n_ris / mean_n_nor
        degradation = 1.0 - ratio
        degradation_stderr = float(_mean_stderr((n_ris - ratio * n_nor) / mean_n_nor)[1])

    # finite SINR samples can still sum past the float range; the SINR rows'
    # unused standard errors overflow sooner
    with np.errstate(over="ignore"):
        ue_mean, ue_err = _mean_stderr(per_row)
    overflowed = np.flatnonzero(~np.isfinite(ue_mean[2:]).all(axis=0))
    if len(overflowed):
        raise NumericalError(f"the mean SINR of UE '{ues[overflowed[0]].id}' is not finite: "
                             "its samples are so large that their sum overflows")
    per_ue = {ue.id: {"role": ue.role, "se_ris": m[0], "se_noris": m[1],
                      "stderr_se_ris": e[0], "stderr_se_noris": e[1],
                      "sinr_ris": m[2], "sinr_noris": m[3]}
              for ue, m, e in zip(ues, ue_mean.T.tolist(), ue_err.T.tolist())}

    return CaseMetrics(n_elements=case.ris.n_elements,
                       ris_position=tuple(float(x) for x in case.ris.position),
                       realizations=case.realizations, degradation_ratio=degradation,
                       degradation_stderr=degradation_stderr,
                       clamp_fraction=float(np.mean(clamp)),
                       tuning_converged_fraction=float(np.mean(converged)),
                       per_ue=per_ue, **values)


def _run_cases(cases: list, workers: int | None, surfaces: list) -> list:
    """CaseMetrics of cases that differ only in their surface, block by block.

    Every case sees the same fixed realization blocks, and every stacked
    call gives a realization the same bits whatever else shares its stack,
    so a case's results depend neither on ``workers`` nor on the other
    cases of the run. ``surfaces`` names each case's surface in errors.
    """
    design, carrier = cases[0].ris.design_frequency_hz, cases[0].owner.carrier_hz
    if design and abs(design - carrier) > 1e-6 * carrier:
        raise ConfigError(f"config.ris.design_frequency_hz ({design:g} Hz) must be null or the "
                          f"owner's carrier ({carrier:g} Hz), the surface's tuned carrier")
    direct_los, links = _los_links(cases, surfaces)
    tasks = [(cases, direct_los, links, start, stop) for start, stop in _blocks(cases)]
    if workers and workers > 1 and len(tasks) > 1:
        # imported here, so that a serial run does not import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            blocks = list(pool.map(_block_worker, tasks))
    else:
        blocks = [_block_worker(task) for task in tasks]
    outcomes, clamp, converged = (np.concatenate(part, axis=1) for part in zip(*blocks))
    return [_case_metrics(case, outcomes[k], clamp[k], converged[k])
            for k, case in enumerate(cases)]


def run_case(scenario: Scenario, workers: int | None = None) -> CaseMetrics:
    """Monte-Carlo average of the scenario at its configured surface.

    Realizations are computed in fixed blocks; with ``workers`` set the
    blocks run in parallel and are reduced in index order, so results do
    not depend on scheduling.
    """
    return _run_cases([scenario], workers, [_RIS_SURFACE])[0]


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


def sweep(scenario: Scenario, workers: int | None = None) -> list:
    """One CaseMetrics per (element count, position) of the configured sweep, in order.

    Every case reuses the same per-realization seeds, so curves across N
    and position differ only through the surface itself. The cases run
    together, block by block, sharing the draws and all surface-free work.
    """
    spec = scenario.sweep_spec
    if spec is None:
        raise ConfigError("no sweep specification was configured")
    grid = [(n, p, pos) for n in spec.element_counts for p, pos in enumerate(spec.positions)]
    return _run_cases([_with_surface(scenario, n, pos) for n, _, pos in grid], workers,
                      [f"the {n}-element surface at config.sweep.positions[{p}]"
                       for n, p, _ in grid])


# ---------------------------------------------------------------------------
# bandwidth of influence

def fractional_boi(f_low: float, f_high: float, f_center: float | None = None) -> float:
    """(f_high - f_low) / f_center, defaulting f_center to the midpoint."""
    for name, value in (("f_low", f_low), ("f_high", f_high), ("f_center", f_center)):
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name} must be finite")
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

def format_cases(table, fmt: str, scenario: Scenario) -> str:
    """The CSV or JSON text of case metrics, as exported and as printed to stdout.

    JSON keeps only the case identity and the configured ``sweep.metrics``
    when that list is set. A NaN or infinite value raises NumericalError.
    """
    if not table:
        raise ValueError("result table is empty")
    if fmt == "csv":
        data = [case.to_row() for case in table]
    elif fmt == "json":
        spec = scenario.sweep_spec
        keep = set(METRIC_NAMES) if spec is None or spec.metrics is None \
            else set(spec.metrics) | {"n_elements", "ris_x", "ris_y", "ris_z"}
        data = {"cases": [{k: v for k, v in case.to_dict().items() if k in keep}
                          for case in table]}
    else:
        raise ValueError("format must be 'csv' or 'json'")
    try:
        # the one finite check: JSON has no NaN or infinity, so every value is refused
        text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalError("the result table holds a NaN or infinite value") from None
    if fmt == "json":
        return text
    # n_elements, the first column, is the one integer
    lines = [",".join(EXPORT_COLUMNS)]
    lines += [",".join([str(n), *(f"{v:.12g}" for v in rest)]) for n, *rest in data]
    return "\n".join(lines) + "\n"


def _temporary(path) -> str:
    """A new empty file beside ``path`` under a hidden name no file held, made with
    the mode ``open`` gives a new file, which the rename keeps."""
    for n in itertools.count():
        name = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{n}.tmp")
        with contextlib.suppress(FileExistsError):
            os.close(os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            return name


def _write_all(texts: dict, out_dir=None) -> None:
    """Write every file of ``texts``, or leave the file system as it was.

    ``texts`` maps each path to that file's text, written in UTF-8 with
    ``\n`` line ends to a new temporary file beside the path
    (``_temporary``). The temporary files are renamed onto their paths only
    once all of them are written, and a path that names a directory, onto
    which no file can be renamed, fails the call before anything is written.
    ``out_dir``, when given, is created with its missing parents first. A
    failure deletes the temporary files, every renamed file that did not
    exist before and every directory this call created.
    """
    for path in texts:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    new = [path for path in texts if not os.path.lexists(path)]
    missing = []
    if out_dir is not None:
        parent = os.path.abspath(out_dir)
        while not os.path.lexists(parent):
            missing.append(parent)
            parent = os.path.dirname(parent)
    created, temporary = [], {}
    try:
        for directory in reversed(missing):
            os.mkdir(directory)
            created.append(directory)
        for path, text in texts.items():
            temporary[path] = _temporary(path)
            with open(temporary[path], "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for path in texts:
            os.replace(temporary[path], path)
    except BaseException:
        for path in [*temporary.values(), *new]:
            if os.path.lexists(path) and not os.path.isdir(path):
                os.remove(path)
        for directory in reversed(created):
            os.rmdir(directory)
        raise


def export_results(table, fmt: str, path, scenario: Scenario) -> None:
    """Write case metrics as CSV or JSON plus a reproducibility manifest.

    The manifest echoes the materialized config, the seed rule, and the
    tool version; it carries no timestamps, so re-exporting an identical
    run is byte-identical. A NaN or infinite value raises NumericalError
    before any file is opened, and a failed write (``_write_all``) leaves
    no new file.
    """
    payload = format_cases(table, fmt, scenario)
    manifest = {
        "version": __version__,
        "seed_rule": ("SeedSequence([master_seed, realization, operator_index, "
                      "ue_slot, link_code]); ue_slot 0 is the shared BS-to-surface "
                      "link, otherwise ue_index + 1; link codes 0=direct, "
                      "1=bs_to_ris, 2=ris_to_ue"),
        "columns": list(EXPORT_COLUMNS),
        "cases": len(table),
        "config": scenario.config_echo,
    }
    path = str(path)
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    try:
        _write_all({path: payload, path + ".manifest.json": manifest_text})
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
    sweep = array.u_axis if cfg.cut_plane == "array-u" else array.v_axis
    return _in_scene(_CUT_RADIUS, PatternCut, radius, tuple(sweep),
                     tuple(array.normal))


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
    i = [op.id for op in scenario.operators].index(owner.id)
    if array.element_pattern == "cosine" and (feed.position - array.center) @ array.normal <= 0:
        raise ConfigError(f"{_link_field((i, 0, BS_RIS_LINK))} is not in front of the "
                          "surface, so its cosine elements scatter nothing from the feed")
    chs = ChannelSet(direct=np.zeros((1, 1), dtype=complex),
                     bs_to_ris=_in_scene(_link_field((i, 0, BS_RIS_LINK), _RIS_SURFACE),
                                         los_channel, feed, array, f_design),
                     ris_to_ue=_in_scene(_link_field((i, 1, RIS_UE_LINK), _RIS_SURFACE),
                                         los_channel, array, ue_node, f_design),
                     frequency=f_design)
    return align_phases_single_target(chs)


def _pattern_file(frequency_hz: float) -> str:
    """The name of the file that holds a pattern study's cut at one carrier."""
    return f"pattern_{frequency_hz / 1e9:.3f}GHz.csv"


def run_pattern(scenario: Scenario, out_dir) -> dict:
    """Pattern CSVs at each probe frequency plus a JSON peak summary.

    Writes ``pattern_<f>GHz.csv`` per frequency and
    ``pattern_summary.json``. When the probe-frequency main lobe misses
    the configured reference angle by more than the window, a circuit
    sensitivity sweep is reported in ``squint_sensitivity.csv``. The
    carriers share one ``directivity_pattern`` call on the study's grid, and
    a reported sweep's two stacks a second on the sweep's grid; a configured
    sweep's circuit cases are realized whether or not it is reported. Every
    pattern is evaluated before anything is written, and the files are
    written together (``_write_all``), so a study that fails leaves
    ``out_dir`` and its parents as they were. A disabled surface, or a
    narrowband one asked for a carrier off its tuned one, is refused.
    """
    if scenario.pattern is None:
        raise ConfigError("config.pattern section is required for a pattern study")
    cfg, ris = scenario.pattern, scenario.ris
    # the carriers evaluated, by field; the last is the probe when a reference angle is set
    fields = {f"frequencies_hz[{k}]": f for k, f in enumerate(cfg.frequencies_hz)}
    if cfg.reference_angle_deg is not None and cfg.sensitivity is not None:
        fields["sensitivity.frequency_hz"] = cfg.sensitivity["frequency_hz"]
    tuned = ris.design_frequency_hz or scenario.owner.carrier_hz
    off = [key for key, f in fields.items() if abs(f - tuned) > 1e-6 * tuned]
    if not ris.enabled:
        raise ConfigError("config.ris.enabled is false: a pattern study needs the surface")
    if ris.narrowband and off:
        raise ConfigError(f"config.ris.narrowband is true, so the surface scatters only at "
                          f"{tuned:g} Hz, not at config.pattern.{off[0]} ({fields[off[0]]:g} Hz)")
    params = ris.circuit
    array = build_surface(ris, scenario.owner.carrier_hz)
    theta = _pattern_phases(scenario, array)
    tuning = realize_capacitances(theta, params)
    cut = _pattern_cut(scenario, array)
    probe_f, carriers = list(fields.values())[-1], list(dict.fromkeys(fields.values()))
    feed = scenario.owner.bs.position
    cases = None
    if cfg.reference_angle_deg is not None and cfg.sensitivity is not None:
        cases, stacks = _sensitivity_stacks(scenario, array, theta)
    states = [evaluate_off_frequency(tuning, f, params) for f in carriers]
    patterns = dict(zip(carriers, _in_scene(_CUT_SPAN, directivity_pattern, array, states, feed,
                                            cfg.angle_grid(), cut, overflow=_CUT_RADIUS)))
    peaks = dict(zip(carriers, main_lobe_angle(list(patterns.values())).tolist()))

    design_peak = peaks[cfg.frequencies_hz[0]]
    entries = [{"frequency_hz": f, "file": _pattern_file(f),
                "main_lobe_deg": peaks[f], "offset_from_design_peak_deg": peaks[f] - design_peak}
               for f in cfg.frequencies_hz]
    summary = {
        "design_frequency_hz": tuning.frequency,
        "target_angle_deg": cut.angle_of(array, scenario.owner.ues[0].position),
        "clamped_fraction": len(tuning.clamp_report) / array.n_elements,
        "frequencies": entries,
    }
    rows = []
    if cfg.reference_angle_deg is not None:
        offset = peaks[probe_f] - cfg.reference_angle_deg
        summary["reference"] = {
            "frequency_hz": probe_f,
            "angle_deg": cfg.reference_angle_deg,
            "offset_deg": offset,
            "within_window": abs(offset) <= cfg.reference_window_deg,
        }
        if abs(offset) > cfg.reference_window_deg and cases is not None:
            rows, closest = squint_sensitivity_report(scenario, cases, *_in_scene(
                _CUT_SPAN, directivity_pattern, array, stacks, feed,
                cfg.angle_grid(cfg.sensitivity["angle_step_deg"]), cut, overflow=_CUT_RADIUS))
            summary["sensitivity"] = {
                "file": "squint_sensitivity.csv",
                "cases": len(rows),
                "closest": closest,
            }

    texts = {e["file"]: pattern_to_csv(patterns[e["frequency_hz"]]) for e in entries}
    texts["pattern_summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if rows:
        lines = [",".join(SENSITIVITY_COLUMNS)]
        lines += [",".join(f"{row[c]:.9g}" for c in SENSITIVITY_COLUMNS) for row in rows]
        texts["squint_sensitivity.csv"] = "\n".join(lines) + "\n"
    _write_all({os.path.join(out_dir, name): text for name, text in texts.items()}, out_dir)
    return summary


def _sensitivity_stacks(scenario: Scenario, array: RisArray,
                        theta: ScatteringState) -> tuple[list, list]:
    """The circuit sensitivity sweep's cases and its states at two carriers.

    Each (top inductance, capacitance range) case realizes the ideal phases
    ``theta`` on ``array``. The cases are rows of (cases, 1) circuit
    constants, so one varactor inversion covers them all. Returns each
    case's (l_top, c_min, c_max, clamped fraction), and the stacks of the
    cases' states at the design and probe carriers; the capacitances are
    not kept.
    """
    sens = scenario.pattern.sensitivity
    l_top = np.repeat(sens["l_top_h"], len(sens["c_ranges_f"]))[:, None]
    c_min, c_max = np.tile(sens["c_ranges_f"], (len(sens["l_top_h"]), 1)).T[:, :, None]
    params = replace(scenario.ris.circuit, l_top=l_top, c_min=c_min, c_max=c_max)
    tuning = realize_capacitances(theta, params)
    clamped = np.bincount(tuning.clamp_report // array.n_elements,
                          minlength=len(l_top)) / array.n_elements
    cases = list(zip(l_top[:, 0].tolist(), c_min[:, 0].tolist(), c_max[:, 0].tolist(),
                     clamped.tolist()))
    return cases, [evaluate_off_frequency(tuning, f, params)
                   for f in (theta.frequency, sens["frequency_hz"])]


def squint_sensitivity_report(scenario: Scenario, cases: list, f1_patterns: np.ndarray,
                              f3_patterns: np.ndarray) -> tuple[list, dict]:
    """The sensitivity sweep's rows, from its cases' patterns.

    ``cases`` are ``_sensitivity_stacks``' (l_top, c_min, c_max, clamped
    fraction) tuples, and the patterns their (cases, A, 2) stacks at the
    design and probe frequencies. Each row records a case's main lobes at
    both frequencies and the probe lobe's offset from the reference angle.
    Returns the rows and the row closest to the reference, flagged with
    whether it falls inside the sensitivity window.
    """
    cfg = scenario.pattern
    f1_peaks, f3_peaks = (main_lobe_angle(p).tolist() for p in (f1_patterns, f3_patterns))
    rows = [dict(zip(SENSITIVITY_COLUMNS, (l_top, c_min, c_max, f1, f3, clamp,
                                           f3 - cfg.reference_angle_deg)))
            for (l_top, c_min, c_max, clamp), f1, f3 in zip(cases, f1_peaks, f3_peaks)]
    closest = dict(min(rows, key=lambda r: abs(r["offset_from_reference_deg"])))
    closest["within_window"] = abs(closest["offset_from_reference_deg"]) <= \
        cfg.sensitivity["window_deg"]
    return rows, closest
