"""Named, self-contained scenario configs for the canonical studies.

Each preset is a plain config dict identical to what a user would put in
a JSON file, so `preset dump` output can be fed straight back to `run`,
`sweep`, or `pattern`. Geometry notes:

- fig1a: one operator, two clear-path users, surface assisting both.
- fig1b: same, but the first user's direct path is blocked; the surface
  is that user's only link.
- fig1c: both users blocked and the second placed on the surface-to-first
  ray at half distance, which makes the two effective channels nearly
  parallel and trips the zero-forcing condition-number diagnostic.
- fig3: single-element-source pattern study; a 20x20 surface at the
  origin focuses a 2.5 GHz wave onto a user 45 degrees off broadside,
  then the same capacitances are re-evaluated at 2.52 and 2.75 GHz.
- fig4d: two operators on nearby carriers; operator B's second user sits
  close to the surface and absorbs its off-carrier scattering.
- fig5: two operators 100 m apart, surface owned by operator 1, swept
  over element counts and four test positions approaching operator 2's
  users.
"""

import json

from .engine import Scenario, load_scenario
from .errors import ConfigError


def _fig1_base() -> dict:
    return {
        "master_seed": 11001,
        "realizations": 1,
        "channel": {"k_factor_db": None},
        "ris": {
            "owner": "op1",
            "rows": 8,
            "cols": 8,
            "position": [0.0, 0.0, 0.0],
            "plane": "xz",
        },
        "operators": [
            {
                "id": "op1",
                "carrier_hz": 2.5e9,
                "power_w": 1.0,
                "precoder": "zf",
                "bs": {"position": [-10.0, 20.0, 0.0], "antennas": 8},
                "ues": [
                    {"id": "u1", "position": [12.0, 16.0, 0.0], "role": "target"},
                    {"id": "u2", "position": [15.0, 5.0, 0.0], "role": "target"},
                ],
            }
        ],
    }


def _fig1b() -> dict:
    cfg = _fig1_base()
    cfg["master_seed"] = 11002
    cfg["operators"][0]["ues"][0]["blocked"] = True
    return cfg


def _fig1c() -> dict:
    cfg = _fig1_base()
    cfg["master_seed"] = 11003
    ues = cfg["operators"][0]["ues"]
    ues[0]["blocked"] = True
    ues[1]["blocked"] = True
    # halfway along the surface-to-u1 ray: effective rows become near-parallel
    ues[1]["position"] = [6.0, 8.0, 0.0]
    cfg["operators"][0]["zf_condition_limit"] = 50.0
    return cfg


def _fig3() -> dict:
    return {
        "master_seed": 30303,
        "realizations": 1,
        "channel": {"k_factor_db": None},
        "ris": {
            "owner": "op1",
            "rows": 20,
            "cols": 20,
            "position": [0.0, 0.0, 0.0],
            "plane": "xz",
        },
        "operators": [
            {
                "id": "op1",
                "carrier_hz": 2.5e9,
                "power_w": 1.0,
                "precoder": "mrt",
                "bs": {"position": [50.0, -50.0, 18.0], "antennas": 1},
                "ues": [
                    {"id": "t1", "position": [3.0, 3.0, 0.0], "role": "target",
                     "blocked": True},
                ],
            }
        ],
        "pattern": {
            "frequencies_hz": [2.5e9, 2.52e9, 2.75e9],
            "angle_start_deg": -90.0,
            "angle_stop_deg": 90.0,
            "angle_step_deg": 0.25,
            "cut_plane": "terminals",
            "cut_radius": "target-distance",
            "reference_angle_deg": -14.0,
            "reference_window_deg": 10.0,
            "sensitivity": {
                "frequency_hz": 2.75e9,
                "window_deg": 5.0,
                "angle_step_deg": 0.5,
                "l_top_h": [0.4e-9, 0.5e-9, 0.6e-9, 0.7e-9, 0.8e-9,
                            0.9e-9, 1.0e-9, 1.1e-9, 1.2e-9],
                "c_ranges_f": [
                    [0.47e-12, 2.35e-12],
                    [0.4e-12, 3.0e-12],
                    [0.6e-12, 2.0e-12],
                    [0.7e-12, 1.8e-12],
                    [0.8e-12, 1.6e-12],
                    [0.9e-12, 1.5e-12],
                    [1.0e-12, 1.4e-12],
                    [1.1e-12, 1.35e-12],
                    [0.5e-12, 1.2e-12],
                    [1.2e-12, 2.35e-12],
                ],
            },
        },
    }


def _fig4d() -> dict:
    return {
        "master_seed": 40404,
        "realizations": 400,
        "channel": {"k_factor_db": 10.0},
        "ris": {
            "owner": "opA",
            "rows": 10,
            "cols": 10,
            "position": [0.0, 0.0, 0.0],
            "plane": "xz",
            "influence_band_hz": [2.2e9, 2.8e9],
        },
        "operators": [
            {
                "id": "opA",
                "carrier_hz": 2.5e9,
                "power_w": 1.0,
                "precoder": "zf",
                "bs": {"position": [-30.0, 40.0, 0.0], "antennas": 8},
                "ues": [
                    {"id": "u1", "position": [20.0, 15.0, 0.0], "role": "target",
                     "blocked": True},
                ],
            },
            {
                "id": "opB",
                "carrier_hz": 2.6e9,
                "power_w": 1.0,
                "precoder": "zf",
                "bs": {"position": [30.0, 40.0, 0.0], "antennas": 8},
                "ues": [
                    {"id": "u2", "position": [20.0, 35.0, 0.0], "role": "non-target"},
                    {"id": "u3", "position": [5.0, 6.0, 0.0], "role": "non-target"},
                ],
            },
        ],
    }


def _fig5() -> dict:
    return {
        "master_seed": 60601,
        "realizations": 500,
        "channel": {"k_factor_db": 10.0},
        "ris": {
            "owner": "op1",
            "rows": 7,
            "cols": 10,
            "position": [60.0, 10.0, 0.0],
            "plane": "xz",
            "influence_band_hz": [2.2e9, 2.8e9],
        },
        "operators": [
            {
                "id": "op1",
                "carrier_hz": 2.5e9,
                "power_w": 1.0,
                "precoder": "zf",
                "bs": {"position": [0.0, 30.0, 0.0], "antennas": 20},
                "ues": [
                    {"id": "t1", "position": [55.0, 15.0, 0.0], "role": "target",
                     "blocked": True},
                    {"id": "t2", "position": [62.0, 13.0, 0.0], "role": "target",
                     "blocked": True},
                ],
            },
            {
                "id": "op2",
                "carrier_hz": 2.75e9,
                "power_w": 1.0,
                "precoder": "zf",
                "bs": {"position": [100.0, 30.0, 0.0], "antennas": 20},
                "ues": [
                    {"id": "n1", "position": [68.0, 14.0, 0.0], "role": "non-target"},
                    {"id": "n2", "position": [72.0, 18.0, 0.0], "role": "non-target"},
                    {"id": "n3", "position": [76.0, 13.0, 0.0], "role": "non-target"},
                    {"id": "n4", "position": [80.0, 17.0, 0.0], "role": "non-target"},
                ],
            },
        ],
        "sweep": {
            "element_counts": [10, 30, 50, 70],
            "positions": [
                [30.0, 10.0, 0.0],
                [40.0, 10.0, 0.0],
                [50.0, 10.0, 0.0],
                [60.0, 10.0, 0.0],
            ],
        },
    }


_PRESETS = {
    "fig1a": _fig1_base,
    "fig1b": _fig1b,
    "fig1c": _fig1c,
    "fig3": _fig3,
    "fig4d": _fig4d,
    "fig5": _fig5,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_config(name: str) -> dict:
    """The raw config dict of a named preset, built anew on every call."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset '{name}'; available: {', '.join(PRESET_NAMES)}")
    return _PRESETS[name]()


def preset_text(name: str) -> str:
    """The preset as pretty-printed JSON, round-trippable through `run`."""
    return json.dumps(preset_config(name), indent=2, sort_keys=True) + "\n"


def load_preset(name: str) -> Scenario:
    return load_scenario(preset_config(name))
