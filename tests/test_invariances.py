"""Physics invariances: what a case's metrics must not depend on.

A translated scene, a scene whose transmit powers and noise power scale
together, and a scene whose users are listed in another order describe the
same physics. Each gives the metrics of the original scene, to within the
rounding that the moved, rescaled or reordered arithmetic brings.
"""

import copy
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from squintsim import load_scenario, preset_config, run_case


def scene(name: str, realizations: int | None = None, **top) -> dict:
    cfg = preset_config(name)
    if realizations is not None:
        cfg["realizations"] = realizations
    cfg.update(top)
    return cfg


def metrics(cfg: dict) -> dict:
    """Every numeric metric of the config's case by name; per-UE values by UE id."""
    m = run_case(load_scenario(cfg)).to_dict()
    values = {k: v for k, v in m.items()
              if isinstance(v, float) and k not in ("ris_x", "ris_y", "ris_z")}
    values.update({f"{ue}.{k}": v for ue, row in m["per_ue"].items()
                   for k, v in row.items() if isinstance(v, float)})
    return values


@cache
def reference(name: str, realizations: int | None = None, los_only: bool = False) -> dict:
    top = {"channel": {"k_factor_db": None}} if los_only else {}
    return metrics(scene(name, realizations, **top))


def assert_close(got: dict, want: dict, rel: float, keys=None):
    keys = list(want) if keys is None else keys
    assert set(got) == set(want)
    worst = {k: abs(got[k] - want[k]) / abs(want[k]) for k in keys if got[k] != want[k]}
    assert not worst or max(worst.values()) <= rel, max(worst.items(), key=lambda kv: kv[1])


def rate_keys(values: dict, prefixes: tuple) -> list:
    """The names of ``values`` whose metric, per UE or not, starts with one of ``prefixes``."""
    keys = [k for k in values if k.split(".")[-1].startswith(prefixes)]
    assert keys
    return keys


def moved(cfg: dict, shift) -> dict:
    """The config with the surface, every BS and every UE moved by ``shift``."""
    cfg = copy.deepcopy(cfg)
    nodes = [cfg["ris"]] + [op["bs"] for op in cfg["operators"]] + \
        [ue for op in cfg["operators"] for ue in op["ues"]]
    for node in nodes:
        node["position"] = np.add(node["position"], shift).tolist()
    return cfg


coordinate = st.floats(-250.0, 250.0, allow_nan=False)


@pytest.mark.parametrize("name", ["fig4d", "fig5"])
@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(shift=st.tuples(coordinate, coordinate, coordinate))
def test_translating_the_scene_keeps_every_metric(name, shift):
    """Only distances enter the channels, so moving every node by one vector moves no
    metric beyond rounding (5.5e-12 relative measured at a 130 m shift)."""
    assert_close(metrics(moved(scene(name, 40), shift)), reference(name, 40), rel=1e-9)


def scaled(cfg: dict, factor: float) -> dict:
    """The config with every transmit power and the noise bandwidth times ``factor``."""
    cfg = copy.deepcopy(cfg)
    for op in cfg["operators"]:
        op["power_w"] = op.get("power_w", 1.0) * factor
    cfg["noise"] = {"bandwidth_hz": 1e7 * factor}
    return cfg


@pytest.mark.parametrize("name", ["fig4d", "fig5"])
@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(exponent=st.integers(-10, 10), factor=st.floats(1e-3, 1e3))
def test_scaling_powers_and_noise_together_keeps_sinr_and_se(name, exponent, factor):
    """Transmit powers and the noise bandwidth scaled by one factor leave every SINR,
    and so every SE, as it was.

    A power of two scales every product exactly, so only the noise power's
    logarithms round (3.0e-15 relative measured at a factor of 4). Any other
    factor rounds every product anew, and fig4d's u2, at 66 dB SINR, then moves
    by up to 9e-11 relative (measured over factors from 1e-3 to 1e3), likely
    through the rounding residual of its zero-forcing nulls.
    """
    want = reference(name, 40)
    keys = rate_keys(want, ("sumse_", "se_", "sinr_"))
    assert_close(metrics(scaled(scene(name, 40), 2.0 ** exponent)), want, rel=1e-13, keys=keys)
    assert_close(metrics(scaled(scene(name, 40), factor)), want, rel=1e-9, keys=keys)


@pytest.mark.parametrize("name", ["fig4d", "fig1a", "fig1b"])
@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(data=st.data())
def test_reordering_the_users_keeps_each_users_sinr_and_se(name, data):
    """Under line of sight alone, with no draws, listing an operator's users in
    another order (here a reversal: these operators serve at most two) gives each
    user its SE and SINR (1.1e-14 relative measured)."""
    cfg = scene(name, channel={"k_factor_db": None})
    orders = [data.draw(st.permutations(op["ues"])) for op in cfg["operators"]]
    assume(any(order != op["ues"] for order, op in zip(orders, cfg["operators"])))
    for op, order in zip(cfg["operators"], orders):
        op["ues"] = order
    want = reference(name, los_only=True)
    assert_close(metrics(cfg), want, rel=1e-12, keys=rate_keys(want, ("se_", "sinr_")))
