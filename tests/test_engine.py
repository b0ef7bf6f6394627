"""Scenario loading, the simulation pipeline, sweeps, and exports."""

import copy
import json
import os
import subprocess
import sys
from collections import Counter
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squintsim import (ChannelSet, ConfigError, ConfigWarning, Node, OptimizationLog,
                       PrecodeResult, derive_seed, effective_channel,
                       evaluate_off_frequency, export_results, fractional_boi, grid_shape,
                       link_metrics, load_preset, load_scenario, los_channel, mrt_precoder,
                       optimize_weighted_sum_power, preset_config, preset_text,
                       realize_capacitances, run_case, run_pattern, sweep, zf_precoder)
from squintsim import engine
from squintsim.array_field import (PatternCut, ScatteringState, directivity_pattern,
                                   main_lobe_angle, pattern_to_csv)
from squintsim.channels import rician_channel
from squintsim.circuit import element_reflection, wrap_phase
from squintsim.cli import main
from squintsim.engine import EXPORT_COLUMNS, build_surface
from squintsim.errors import CorrelatedChannelsError, NumericalError
from squintsim.presets import PRESET_NAMES


def base_config():
    """Small two-operator scene that runs in well under a second."""
    return {
        "master_seed": 7,
        "realizations": 3,
        "channel": {"k_factor_db": 10.0},
        "ris": {"owner": "opA", "rows": 6, "cols": 6, "position": [0.0, 0.0, 0.0]},
        "operators": [
            {"id": "opA", "carrier_hz": 2.5e9,
             "bs": {"position": [-20.0, 30.0, 0.0], "antennas": 4},
             "ues": [{"id": "t1", "position": [15.0, 10.0, 0.0], "role": "target"},
                     {"id": "t2", "position": [18.0, 6.0, 0.0], "role": "target"}]},
            {"id": "opB", "carrier_hz": 2.75e9,
             "bs": {"position": [40.0, 30.0, 0.0], "antennas": 4},
             "ues": [{"id": "n1", "position": [10.0, 8.0, 0.0], "role": "non-target"},
                     {"id": "n2", "position": [13.0, 5.0, 0.0],
                      "role": "non-target"}]},
        ],
    }


# --- config loading -----------------------------------------------------------

def test_load_scenario_defaults():
    cfg = base_config()
    del cfg["master_seed"], cfg["realizations"], cfg["channel"]
    sc = load_scenario(cfg)
    assert sc.master_seed == 0
    assert sc.realizations == 100
    assert sc.k_factor_db is None
    assert sc.ris.plane == "xz"
    assert sc.ris.spacing_fraction == 0.5
    assert sc.ris.enabled and not sc.ris.narrowband
    assert sc.owner.id == "opA"
    assert sc.operators[0].precoder == "zf"
    assert sc.operators[0].power_w == 1.0
    # noise defaults: 10 MHz, 9 dB figure, thermal floor
    assert sc.noise_w == pytest.approx(3.162277660168379e-13, rel=1e-12)


def test_load_scenario_accepts_json_text():
    sc = load_scenario(json.dumps(base_config()))
    assert sc.master_seed == 7
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario("{nope")


def test_load_scenario_unknown_field_named():
    cfg = base_config()
    cfg["riss"] = {}
    with pytest.raises(ConfigError, match="riss"):
        load_scenario(cfg)
    cfg = base_config()
    cfg["ris"]["tilt"] = 3.0
    with pytest.raises(ConfigError, match="config.ris"):
        load_scenario(cfg)
    cfg = base_config()
    cfg["operators"][0]["ues"][0]["height"] = 1.5
    with pytest.raises(ConfigError, match=r"operators\[0\].ues\[0\]"):
        load_scenario(cfg)


def test_load_scenario_missing_required():
    cfg = base_config()
    del cfg["ris"]
    with pytest.raises(ConfigError, match="ris"):
        load_scenario(cfg)
    cfg = base_config()
    del cfg["operators"][1]["bs"]
    with pytest.raises(ConfigError):
        load_scenario(cfg)


def test_load_scenario_duplicate_ue_ids():
    cfg = base_config()
    cfg["operators"][1]["ues"][0]["id"] = "t1"
    with pytest.raises(ConfigError, match="duplicate UE identifiers.*t1"):
        load_scenario(cfg)


def test_load_scenario_role_must_match_ownership():
    cfg = base_config()
    cfg["operators"][1]["ues"][0]["role"] = "target"
    with pytest.raises(ConfigError, match="must be 'non-target'"):
        load_scenario(cfg)
    cfg = base_config()
    cfg["operators"][0]["ues"][0]["role"] = "non-target"
    with pytest.raises(ConfigError, match="must be 'target'"):
        load_scenario(cfg)
    # role may be omitted entirely; ownership decides
    cfg = base_config()
    del cfg["operators"][0]["ues"][0]["role"]
    sc = load_scenario(cfg)
    assert sc.operators[0].ues[0].role == "target"


def test_load_scenario_operator_identity_checks():
    cfg = base_config()
    cfg["operators"][1]["id"] = "opA"
    for ue in cfg["operators"][1]["ues"]:
        ue["role"] = "target"
    with pytest.raises(ConfigError, match="unique"):
        load_scenario(cfg)
    cfg = base_config()
    cfg["operators"][1]["carrier_hz"] = 2.5e9
    with pytest.raises(ConfigError, match="distinct"):
        load_scenario(cfg)
    cfg = base_config()
    cfg["ris"]["owner"] = "opZ"
    for op in cfg["operators"]:
        for ue in op["ues"]:
            ue.pop("role", None)
    with pytest.raises(ConfigError, match="opZ"):
        load_scenario(cfg)
    cfg = base_config()
    cfg["operators"] = []
    with pytest.raises(ConfigError, match="non-empty"):
        load_scenario(cfg)


def test_load_scenario_value_checks():
    cfg = base_config()
    cfg["master_seed"] = -1
    with pytest.raises(ConfigError, match="master_seed"):
        load_scenario(cfg)
    cfg = base_config()
    cfg["realizations"] = 0
    with pytest.raises(ConfigError, match="realizations"):
        load_scenario(cfg)
    cfg = base_config()
    cfg["ris"]["rows"] = 0
    with pytest.raises(ConfigError, match="rows"):
        load_scenario(cfg)
    cfg = base_config()
    cfg["ris"]["position"] = [1.0, 2.0]
    with pytest.raises(ConfigError, match="position"):
        load_scenario(cfg)
    cfg = base_config()
    cfg["operators"][0]["carrier_hz"] = -2.5e9
    with pytest.raises(ConfigError, match="carrier_hz"):
        load_scenario(cfg)
    cfg = base_config()
    cfg["ris"]["influence_band_hz"] = [2.8e9, 2.2e9]
    with pytest.raises(ConfigError, match="influence_band_hz"):
        load_scenario(cfg)


def test_load_scenario_influence_band_warning():
    cfg = base_config()
    cfg["ris"]["influence_band_hz"] = [2.4e9, 2.6e9]
    with pytest.warns(ConfigWarning, match="opB.*outside the surface influence band"):
        load_scenario(cfg)
    cfg["ris"]["influence_band_hz"] = [2.2e9, 2.8e9]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_scenario(cfg)


def test_out_of_band_victim_still_loses_rate():
    """The influence band is declared, not computed, and the warning says so: fig5's
    victim operator moved to 3.5 GHz, outside [2.2, 2.8] GHz, is warned about and still
    loses rate to the frozen surface (0.0263 +- 0.0016 at 40 realizations)."""
    cfg = preset_config("fig5")
    cfg["realizations"] = 40
    assert cfg["operators"][1]["id"] == "op2"
    cfg["operators"][1]["carrier_hz"] = 3.5e9
    with pytest.warns(ConfigWarning, match="op2.*outside the surface influence band.*"
                                           "scattering there is still computed"):
        sc = load_scenario(cfg)
    case = run_case(sc)
    assert case.degradation_ratio > 10 * case.degradation_stderr


def test_config_echo_round_trips():
    sc = load_scenario(base_config())
    again = load_scenario(sc.config_echo)
    assert again.config_echo == sc.config_echo


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_config_echo_round_trips(name):
    echo = load_preset(name).config_echo
    text = json.dumps(echo, sort_keys=True)
    assert load_scenario(echo).config_echo == echo
    assert json.dumps(load_scenario(text).config_echo, sort_keys=True) == text


def config_nodes(node, path="config"):
    """(path, keys) of every section, list and leaf of a config, the root included."""
    yield path, ()
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        sub = f"{path}.{key}" if isinstance(key, str) else f"{path}[{key}]"
        for child_path, keys in config_nodes(child, sub):
            yield child_path, (key,) + keys


def bad_values(value):
    """Wrong-typed, non-finite, negative, zero, empty and null stand-ins for a value."""
    if isinstance(value, bool):
        return ["yes", 0, None]
    if isinstance(value, (int, float)):
        return ["1.0", True, float("nan"), float("inf"), -1, -abs(value) - 1.0, 0, None]
    if isinstance(value, str):
        return [1.5, True, "", None]
    if isinstance(value, list):
        return ["x", [], [None], {}, None]
    return ["x", [], {}, None]


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(st.data())
def test_mutated_presets_fail_closed(data):
    """One bad value anywhere in a preset is named by a ConfigError or runs finite."""
    name = data.draw(st.sampled_from(PRESET_NAMES))
    cfg = preset_config(name)
    path, keys = data.draw(st.sampled_from(list(config_nodes(cfg))))
    parent, target = None, cfg
    for key in keys:
        parent, target = target, target[key]
    value = data.draw(st.sampled_from(bad_values(target)))
    if keys:
        parent[keys[-1]] = value
    else:
        cfg = value
    try:
        sc = load_scenario(cfg)
    except ConfigError as exc:
        assert path in str(exc)
        return
    if sc.pattern is not None:
        return
    sc.realizations = 1
    try:
        case = run_case(sc)
    except NumericalError:
        return
    json.dumps(case.to_dict(), allow_nan=False)     # raises on a NaN or an infinity


def _at(node, keys):
    """The config node at ``keys``."""
    for key in keys:
        node = node[key]
    return node


@pytest.mark.parametrize("value", [5e-324, 1e300, -1.7e308])
@pytest.mark.parametrize("name", ["fig4d", "fig1a"])
def test_extreme_magnitudes_fail_closed(name, value):
    """Every float leaf of an expanded preset, the defaults included, set to the smallest
    subnormal, a huge or the most negative magnitude: a ConfigError names the leaf's
    section, or a NumericalError, or a finite run that prints no numpy warning."""
    echo = load_preset(name).config_echo
    leaves = [(path, keys) for path, keys in config_nodes(echo)
              if isinstance(_at(echo, keys), float)]
    for path, keys in leaves:
        cfg = copy.deepcopy(echo)
        cfg["realizations"] = 2
        _at(cfg, keys[:-1])[keys[-1]] = value
        # the object that holds the leaf: a vector's entries belong to the vector's
        section = (path.rsplit("[", 1)[0] if path.endswith("]") else path).rsplit(".", 1)[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                case = run_case(load_scenario(cfg))
            except ConfigError as exc:
                assert section in str(exc), (path, str(exc))
            except NumericalError:
                pass
            else:
                json.dumps(case.to_dict(), allow_nan=False)
        assert all(issubclass(w.category, ConfigWarning) for w in caught), \
            (path, [str(w.message) for w in caught])


# --- seeding -------------------------------------------------------------------

def test_derive_seed_distinct_paths():
    seeds = {derive_seed(1, r, o, u, l).generate_state(2).tobytes()
             for r in range(3) for o in range(2) for u in range(3) for l in range(3)}
    assert len(seeds) == 3 * 2 * 3 * 3
    a = derive_seed(1, 0, 0, 0, 0).generate_state(2)
    b = derive_seed(1, 0, 0, 0, 0).generate_state(2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, derive_seed(2, 0, 0, 0, 0).generate_state(2))


def reference_state(master_seed, *path):
    state = np.random.PCG64(derive_seed(master_seed, *path)).state["state"]
    return state["state"], state["inc"]


# master seeds at the edges of one, two and three uint32 words
SEED_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 5]
# the last block a config can load ends at the top of the realizations' one word
TOP = range(2**32 - 4, 2**32)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(master_seed=st.sampled_from(SEED_EDGES) | st.integers(0, 2**96),
       realizations=st.lists(st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1),
                             min_size=1, max_size=4),
       keys=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6),
                               st.sampled_from([0, 1, 2, 2**32 - 1])),
                     min_size=1, max_size=4))
def test_pcg64_states_match_derive_seed(master_seed, realizations, keys):
    """The array derivation gives PCG64 the state derive_seed does, at every master seed
    width and every realization and key entry a loaded config can reach."""
    states = engine._pcg64_states(master_seed, realizations, keys)
    expected = [reference_state(master_seed, r, *key) for r in realizations for key in keys]
    assert states == expected


@pytest.mark.parametrize("realizations, key", [([2**32], (0, 0, 0)), ([0], (0, 0, 2**32))])
def test_pcg64_states_refuse_an_entry_beyond_one_word(realizations, key):
    with pytest.raises(OverflowError):
        engine._pcg64_states(7, realizations, [key])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(name=st.sampled_from(PRESET_NAMES), master_seed=st.sampled_from(SEED_EDGES),
       start=st.sampled_from([0, 5, TOP.start]))
def test_link_draws_match_derive_seed(name, master_seed, start):
    """Every preset's link draws are the normals of default_rng(derive_seed(...)).

    Each link is drawn, at the size of its line-of-sight matrix on the largest
    surface, when it is first taken, here in another order than the seeding one,
    and a link taken for the last time is drawn afresh if taken again. Pure
    line-of-sight presets are given scatter so that their links are drawn.
    """
    cfg = preset_config(name)
    cfg["master_seed"] = master_seed
    cfg["channel"]["k_factor_db"] = 10.0
    sc = load_scenario(cfg)
    spec = sc.sweep_spec
    cases = [sc] + ([engine._with_surface(sc, n, pos) for n in spec.element_counts
                     for pos in spec.positions] if spec else [])
    direct_los, links = engine._los_links(cases, [None] * len(cases))
    largest = max(links, key=lambda case_links: case_links[0, 0, 1].size)
    sizes = {key: los.size for key, los in {**direct_los, **largest}.items()}
    stop = start + len(TOP)
    draws = engine._LinkDraws(master_seed, start, stop, sizes, reads=1)
    keys = [(i, 0, 1) for i in range(len(sc.operators))]
    keys += [(i, j + 1, code) for i, op in enumerate(sc.operators)
             for j, ue in enumerate(op.ues) for code in (0, 2)[ue.blocked:]]
    assert sorted(draws._streams) == sorted(keys)
    for key in reversed(keys):
        normals = draws.take(key)
        assert normals.shape == (len(TOP), 2 * sizes[key])
        assert draws.take(key) is not normals
        for r in range(start, stop):
            rng = np.random.default_rng(derive_seed(master_seed, r, *key))
            assert np.array_equal(normals[r - start], rng.standard_normal(normals.shape[1]))
            assert engine._pcg64_states(master_seed, [r], [key]) == [
                reference_state(master_seed, r, *key)]


@pytest.mark.parametrize("name, edits, n_blocks", [
    ("fig5", {"realizations": 12}, 1),      # one block of several stacks
    ("fig4d", {"realizations": 170}, 2),
    ("fig1b", {"channel": {"k_factor_db": 10.0}}, 1),   # a blocked user has no direct link
])
def test_link_table_walkers_take_each_draw_its_reads(monkeypatch, name, edits, n_blocks):
    """In each block, every seeded link is taken exactly its reads times, once for a direct
    link and once per stack for a surface link, no other link is taken, and no draw is
    held when the block ends. An ascent holds only the owner's draws, and none in a
    one-stack block."""
    blocks = []

    class CountedDraws(engine._LinkDraws):
        def __init__(self, master_seed, start, stop, sizes, reads):
            super().__init__(master_seed, start, stop, sizes, reads)
            self.n_real, self.stacks, self.taken, self.held = stop - start, reads, Counter(), []
            blocks.append(self)

        def take(self, key):
            self.taken[key] += 1
            return super().take(key)

    def ascent(*args, **kwargs):
        blocks[-1].held.append(set(blocks[-1]._drawn))
        return optimize(*args, **kwargs)

    optimize = engine.optimize_weighted_sum_power
    monkeypatch.setattr(engine, "_LinkDraws", CountedDraws)
    monkeypatch.setattr(engine, "optimize_weighted_sum_power", ascent)
    cfg = preset_config(name)
    cfg.update(edits)
    sc = load_scenario(cfg)
    spec = sc.sweep_spec
    cases = [engine._with_surface(sc, n, pos) for n in spec.element_counts
             for pos in spec.positions] if spec else [sc]
    sweep(sc) if spec else run_case(sc)
    owner = [op.id for op in sc.operators].index(sc.ris.owner)
    seeded = {(i, 0, 1): "surface" for i in range(len(sc.operators))}
    for i, op in enumerate(sc.operators):
        for j, ue in enumerate(op.ues):
            seeded[i, j + 1, 2] = "surface"
            if not ue.blocked:
                seeded[i, j + 1, 0] = "direct"
    assert len(blocks) == n_blocks
    for draws in blocks:
        assert draws.stacks == len(engine._stacks(cases, draws.n_real))
        assert sorted(draws._streams) == sorted(seeded)
        assert draws.taken == {key: 1 if kind == "direct" else draws.stacks
                               for key, kind in seeded.items()}
        assert draws._drawn == {}
        assert len(draws.held) == draws.stacks
        assert all(key[0] == owner for held in draws.held for key in held)
        assert draws.stacks > 1 or draws.held == [set()]
    if name == "fig5":
        assert blocks[0].stacks > 1


def test_run_fails_when_numpy_derives_seeds_differently(tmp_path, capsys, monkeypatch):
    """A reference that disagrees with the array derivation stops the run: exit 3, no files."""
    monkeypatch.setattr(engine, "derive_seed",
                        lambda master_seed, *path: np.random.SeedSequence(12345))
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(base_config()), encoding="utf-8")
    assert main(["run", str(config), "--out", str(tmp_path / "case.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numpy ") and np.__version__ in err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("n,shape", [
    (1, (1, 1)), (7, (1, 7)), (10, (2, 5)), (30, (5, 6)),
    (50, (5, 10)), (64, (8, 8)), (70, (7, 10)), (100, (10, 10)),
])
def test_grid_shape(n, shape):
    assert grid_shape(n) == shape
    assert shape[0] * shape[1] == n
    assert shape[0] <= shape[1]


def test_grid_shape_rejects_nonpositive():
    with pytest.raises(ConfigError):
        grid_shape(0)


# --- run_case -----------------------------------------------------------------

def test_run_case_metrics_shape():
    sc = load_scenario(base_config())
    case = run_case(sc)
    assert case.n_elements == 36
    assert case.realizations == 3
    assert set(case.per_ue) == {"t1", "t2", "n1", "n2"}
    assert case.per_ue["t1"]["role"] == "target"
    assert case.per_ue["n1"]["role"] == "non-target"
    assert case.sumse_target_ris > 0
    assert case.sumse_nontarget_noris > 0
    assert 0.0 <= case.clamp_fraction <= 1.0
    assert case.tuning_converged_fraction == 1.0


def test_run_case_blocked_target_recovery():
    """A blocked target only has a rate when the surface serves it."""
    sc = load_preset("fig1b")
    case = run_case(sc)
    u1 = case.per_ue["u1"]
    assert u1["se_noris"] == 0.0
    assert u1["se_ris"] > 1.0


def test_run_case_nontarget_degradation():
    """Stale precoding at the non-owner loses rate once the surface is up."""
    sc = load_scenario(base_config())
    case = run_case(sc)
    assert case.sumse_nontarget_ris < case.sumse_nontarget_noris
    assert case.degradation_ratio > 0.0
    assert case.degradation_ratio == pytest.approx(
        1.0 - case.sumse_nontarget_ris / case.sumse_nontarget_noris, rel=1e-12)


def test_run_case_disabled_surface_identity():
    """With the surface off, both worlds coincide and geometry is irrelevant."""
    cfg = base_config()
    cfg["ris"]["enabled"] = False
    a = run_case(load_scenario(cfg))
    assert a.sumse_nontarget_ris == a.sumse_nontarget_noris
    assert a.sumse_target_ris == a.sumse_target_noris
    assert a.degradation_ratio == 0.0
    cfg["ris"]["rows"], cfg["ris"]["cols"] = 6, 5
    cfg["ris"]["position"] = [25.0, 5.0, 0.0]
    b = run_case(load_scenario(cfg))
    assert b.sumse_nontarget_noris == a.sumse_nontarget_noris
    assert b.sumse_target_noris == a.sumse_target_noris


def test_run_case_narrowband_spares_other_carriers():
    """A narrowband surface scatters only at its tuned carrier."""
    cfg = base_config()
    cfg["ris"]["narrowband"] = True
    narrow = run_case(load_scenario(cfg))
    cfg_off = base_config()
    cfg_off["ris"]["enabled"] = False
    off = run_case(load_scenario(cfg_off))
    # non-owner carrier sees no surface at all
    assert narrow.sumse_nontarget_ris == pytest.approx(
        off.sumse_nontarget_noris, rel=1e-12)
    assert narrow.degradation_ratio == pytest.approx(0.0, abs=1e-12)
    # the owner still gets its boost
    assert narrow.sumse_target_ris > narrow.sumse_target_noris


def test_run_case_workers_deterministic():
    sc = load_scenario(base_config())
    serial = run_case(sc, workers=1)
    parallel = run_case(sc, workers=3)
    assert serial.to_row() == parallel.to_row()
    assert serial.per_ue == parallel.per_ue
    assert serial.stderr_nontarget_ris == parallel.stderr_nontarget_ris


def test_run_case_repeat_identical():
    sc = load_scenario(base_config())
    a = run_case(sc)
    b = run_case(load_scenario(base_config()))
    assert a.to_dict() == b.to_dict()


def test_run_case_seed_changes_results():
    cfg = base_config()
    cfg["master_seed"] = 8
    a = run_case(load_scenario(base_config()))
    b = run_case(load_scenario(cfg))
    assert a.sumse_nontarget_ris != b.sumse_nontarget_ris


def test_run_case_stderr_fields():
    sc = load_scenario(base_config())
    case = run_case(sc)
    assert case.stderr_nontarget_ris > 0.0
    assert case.stderr_nontarget_noris > 0.0
    assert case.degradation_stderr > 0.0
    single = base_config()
    single["realizations"] = 1
    lone = run_case(load_scenario(single))
    assert lone.stderr_nontarget_ris == 0.0
    assert lone.degradation_stderr == 0.0


def test_run_case_correlated_channels_surface():
    sc = load_preset("fig1c")
    with pytest.raises(CorrelatedChannelsError) as exc:
        run_case(sc)
    assert exc.value.ue_pair == (0, 1)
    assert exc.value.condition_number > 50.0


# --- per-realization reference ------------------------------------------------

def reference_precoders(h, op):
    """The operator's MRT or ZF on the users with a non-zero channel.

    The other users get a silent placeholder column.
    """
    active = np.flatnonzero(np.linalg.norm(h, axis=1) > 0)
    matrix = np.zeros(h.shape[::-1], dtype=complex)
    matrix[0] = 1.0
    powers = np.zeros(len(h))
    if len(active):
        power = op.power_w / len(h) * len(active)
        res = (mrt_precoder(h[active], total_power=power) if op.precoder == "mrt" else
               zf_precoder(h[active], total_power=power, condition_limit=op.zf_condition_limit))
        matrix[:, active], powers[active] = res.matrix, res.powers
    return PrecodeResult(matrix=matrix, powers=powers)


def reference_realization(sc, r):
    """(outcomes, clamp fraction, converged) of realization ``r``, one public call at a time.

    ``outcomes`` is (4 x UEs): SE with and without the surface, then SINR.
    Covers an enabled, broadband surface and MRT or zero-forcing operators.
    """
    array = build_surface(sc.ris, sc.owner.carrier_hz)

    def link(tx, rx, f, *key):
        los = los_channel(tx, rx, f)
        if sc.k_factor_db is None:
            return los
        rng = np.random.default_rng(derive_seed(sc.master_seed, r, *key))
        return rician_channel(los, sc.k_factor_db, rng.standard_normal((2,) + los.shape))

    sets = []
    for i, op in enumerate(sc.operators):
        f = op.carrier_hz
        direct = np.zeros((len(op.ues), op.bs.n_antennas), dtype=complex)
        ris_to_ue = np.empty((len(op.ues), array.n_elements), dtype=complex)
        for j, ue in enumerate(op.ues):
            node = Node(position=ue.position)
            if not ue.blocked:
                direct[j] = link(op.bs, node, f, i, j + 1, 0)
            ris_to_ue[j] = link(array, node, f, i, j + 1, 2)
        sets.append(ChannelSet(direct=direct, ris_to_ue=ris_to_ue, frequency=f,
                               bs_to_ris=link(op.bs, array, f, i, 0, 1)))
    owner = [op.id for op in sc.operators].index(sc.ris.owner)
    log = OptimizationLog()
    tuning = realize_capacitances(optimize_weighted_sum_power([sets[owner]], log=log),
                                  sc.ris.circuit)
    outcomes = []
    for i, (op, chs) in enumerate(zip(sc.operators, sets)):
        actual = effective_channel(chs, evaluate_off_frequency(tuning, op.carrier_hz))
        design = actual if i == owner else chs.direct
        with_ris = link_metrics(actual, reference_precoders(design, op), sc.noise_w)
        without = link_metrics(chs.direct, reference_precoders(chs.direct, op), sc.noise_w)
        outcomes.append([with_ris.se, without.se, with_ris.sinr, without.sinr])
    return (np.concatenate(outcomes, axis=1), np.count_nonzero(tuning.clamped) / array.n_elements,
            log.converged)


@pytest.mark.parametrize("name, precoder", [
    pytest.param("fig4d", None, id="fig4d"), pytest.param("fig5", None, id="fig5"),
    pytest.param("fig4d", "mrt", id="fig4d-mrt")])
def test_run_case_matches_per_realization_reference(name, precoder):
    """The blocked pipeline reproduces realizations computed one by one (fig5 at N=70)."""
    cfg = preset_config(name)
    cfg["realizations"] = 5
    if precoder is not None:
        for op in cfg["operators"]:
            op["precoder"] = precoder
    sc = load_scenario(cfg)
    case = run_case(sc)
    refs = [reference_realization(sc, r) for r in range(sc.realizations)]
    outcomes = np.array([ref[0] for ref in refs])
    ues = [ue for op in sc.operators for ue in op.ues]
    for j, ue in enumerate(ues):
        for row, key in enumerate(("se_ris", "se_noris", "sinr_ris", "sinr_noris")):
            assert case.per_ue[ue.id][key] == pytest.approx(outcomes[:, row, j].mean(),
                                                            rel=1e-12, abs=0.0)
    assert case.clamp_fraction == np.mean([ref[1] for ref in refs])
    assert case.tuning_converged_fraction == np.mean([ref[2] for ref in refs])


def reference_los_links(cases):
    """Per case, every surface link as its own ``los_channel`` call, in the order a
    block reads them: the owner's links first, each operator's BS link before its UEs'."""
    operators = cases[0].operators
    owner = [op.id for op in operators].index(cases[0].ris.owner)
    tables = []
    for case in cases:
        array, table = build_surface(case.ris, case.owner.carrier_hz), {}
        for i in [owner] + [i for i in range(len(operators)) if i != owner]:
            op = operators[i]
            table[(i, 0, engine.BS_RIS_LINK)] = los_channel(op.bs, array, op.carrier_hz)
            for j, ue in enumerate(op.ues):
                table[(i, j + 1, engine.RIS_UE_LINK)] = los_channel(
                    array, Node(position=ue.position), op.carrier_hz)
        tables.append(table)
    return tables


@pytest.mark.parametrize("name, calls", [("fig5", 12), ("fig1a", 5)])
def test_los_links_equal_per_case_calls(monkeypatch, name, calls):
    """One call per operator and link kind over every case gives each case's links the
    bits, shapes and order of calls on that case alone (fig5: 16 cases, 132 calls)."""
    sc = load_preset(name)
    spec = sc.sweep_spec
    cases = [sc] if spec is None else [engine._with_surface(sc, n, pos) for n in
                                       spec.element_counts for pos in spec.positions]
    made = Counter()

    def counted(*args):
        made["calls"] += 1
        return los_channel(*args)

    monkeypatch.setattr(engine, "los_channel", counted)
    direct, links = engine._los_links(cases, [None] * len(cases))
    assert made["calls"] == calls
    for case_links, want in zip(links, reference_los_links(cases)):
        assert list(case_links) == list(want)
        for key, matrix in want.items():
            assert case_links[key].shape == matrix.shape
            assert case_links[key].tobytes() == matrix.tobytes()
    for (i, slot, _), matrix in direct.items():
        op = sc.operators[i]
        want = los_channel(op.bs, Node(position=op.ues[slot - 1].position), op.carrier_hz)
        assert matrix.tobytes() == want.tobytes()


def expected_leakage(a, b, g, r, gammas, w, c):
    """E|c + r^T diag(gammas) G w|^2, per realization and column of ``w``, for Rician
    links r and G about their line-of-sight ``r`` (N,) and ``g`` (N x M), with ``a``
    = K/(K+1) of their power in the line of sight and ``b`` = 1/(K+1) in the scatter.

    ``gammas`` is (R x N), ``w`` (R x M x V) and ``c``, the direct part, (R x V).
    """
    rd = r * gammas
    gw = np.swapaxes(w, 1, 2) @ g.T                             # (G w)_n at the line of sight
    mean = (rd[:, None, :] * gw).sum(axis=-1)                  # r^T D G w at the line of sight
    spread = np.swapaxes(np.abs(w) ** 2, 1, 2) @ (np.abs(g) ** 2).T   # sum_m |G_nm|^2 |w_m|^2
    q = np.abs(rd[:, None, :]) ** 2
    second = (a * (a * np.abs(mean) ** 2 + b * (q * spread).sum(axis=-1))
              + b * (q * (a * np.abs(gw) ** 2 + b * spread)).sum(axis=-1))
    return np.abs(c) ** 2 + 2 * (np.conj(c) * a * mean).real + second


def leakage_z_scores(monkeypatch, sc):
    """Per victim UE, the z-score of the mean paired difference between its sampled
    interference power and that power's closed-form expectation given its precoders
    and the frozen surface, over every realization of ``run_case``."""
    tunings, channels, metrics = [], {}, []

    def realize(*args):
        tunings.append(engine_realize(*args))
        return tunings[-1]

    def effective(chs, state):
        h = engine_effective(chs, state)
        channels[id(h)] = (h, chs)          # held, so that no later array takes its id
        return h

    def metric(h, precoders, noise):
        if id(h) in channels:
            metrics.append((channels[id(h)][1], h, precoders, tunings[-1]))
        return engine_metrics(h, precoders, noise)

    engine_realize, engine_effective, engine_metrics = (
        engine.realize_capacitances, engine.effective_channel, engine.link_metrics)
    monkeypatch.setattr(engine, "realize_capacitances", realize)
    monkeypatch.setattr(engine, "effective_channel", effective)
    monkeypatch.setattr(engine, "link_metrics", metric)
    run_case(sc)
    monkeypatch.undo()
    _, (links,) = engine._los_links([sc], [None])
    k = 10.0 ** (sc.k_factor_db / 10.0)
    owner = [op.id for op in sc.operators].index(sc.ris.owner)
    scores = {}
    for i, op in enumerate(sc.operators):
        calls = [call for call in metrics if call[0].frequency == op.carrier_hz]
        for u, ue in enumerate(op.ues if i != owner else []):
            others = np.arange(len(op.ues)) != u
            diffs = []
            for chs, h, precoders, tuning in calls:
                # the frozen surface formed anew at the victim's carrier
                gammas = evaluate_off_frequency(tuning, op.carrier_hz).gammas
                w, power = precoders.matrix, precoders.powers
                sampled = power * np.abs((h[:, u, None, :] @ w)[:, 0]) ** 2
                expected = power * expected_leakage(
                    k / (k + 1.0), 1.0 / (k + 1.0), links[(i, 0, engine.BS_RIS_LINK)],
                    links[(i, u + 1, engine.RIS_UE_LINK)][0], gammas, w,
                    (chs.direct[:, u, None, :] @ w)[:, 0])
                diffs.append(sampled[:, others].sum(axis=-1) - expected[:, others].sum(axis=-1))
            d = np.concatenate(diffs)
            assert len(d) == sc.realizations
            scores[ue.id] = float(d.mean() / (d.std(ddof=1) / np.sqrt(len(d))))
    return scores


@pytest.mark.parametrize("name, edits", [
    # at a low K factor the scatter, not the line of sight, carries the leaked power
    ("fig4d", {"channel": {"k_factor_db": 0.0}}),
    # fig5's N=70 case at [60, 10, 0], its preset surface, over 200 realizations
    ("fig5", {"realizations": 200})])
def test_stale_null_leakage_matches_its_closed_form(monkeypatch, name, edits):
    """A victim's precoders come from its direct links, and the surface is tuned on the
    owner's, so given both its interference through the surface has a closed-form mean
    in the line-of-sight links; the sampled power agrees with it within 4 standard
    errors. A scatter sqrt(2) too strong reads z = 8.8 and 11.1 on fig4d at 0 dB."""
    cfg = preset_config(name)
    cfg.update(edits)
    scores = leakage_z_scores(monkeypatch, load_scenario(cfg))
    assert len(scores) == sum(ue["role"] == "non-target"
                              for op in cfg["operators"] for ue in op["ues"])
    assert all(abs(z) < 4.0 for z in scores.values()), scores


def test_import_leaves_out_the_worker_pool():
    """Only a run with several workers imports the process pool, and multiprocessing."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, squintsim; print(sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert "'concurrent.futures.process'" not in loaded
    assert "'multiprocessing'" not in loaded


# --- case aggregation ---------------------------------------------------------

def reference_mean_stderr(samples):
    mean = float(samples.mean())
    if len(samples) < 2:
        return mean, 0.0
    return mean, float(samples.std(ddof=1) / np.sqrt(len(samples)))


def reference_case_metrics(case, outcomes, clamp, converged):
    """Every CaseMetrics field of one case, one scalar reduction at a time."""
    ues = [ue for op in case.operators for ue in op.ues]
    target = np.array([ue.role == "target" for ue in ues])

    def role_sums(row, mask):
        return sum(outcomes[:, row, mask].T, np.zeros(len(outcomes)))

    t_ris, t_nor = role_sums(0, target), role_sums(1, target)
    n_ris, n_nor = role_sums(0, ~target), role_sums(1, ~target)
    mean_t_ris, se_t_ris = reference_mean_stderr(t_ris)
    mean_t_nor, se_t_nor = reference_mean_stderr(t_nor)
    mean_n_ris, se_n_ris = reference_mean_stderr(n_ris)
    mean_n_nor, se_n_nor = reference_mean_stderr(n_nor)
    _, se_t_diff = reference_mean_stderr(t_ris - t_nor)
    _, se_n_diff = reference_mean_stderr(n_ris - n_nor)
    if mean_n_nor > 0:
        degradation = 1.0 - mean_n_ris / mean_n_nor
        # paired: the linearised ratio per realization
        linearised = (n_ris - (mean_n_ris / mean_n_nor) * n_nor) / mean_n_nor
        _, degradation_stderr = reference_mean_stderr(linearised)
    else:
        degradation = 0.0
        degradation_stderr = 0.0
    per_ue = {}
    for j, ue in enumerate(ues):
        (se_r, se_r_err), (se_n, se_n_err) = (reference_mean_stderr(outcomes[:, row, j])
                                              for row in (0, 1))
        with np.errstate(over="ignore"):
            sinr_r, sinr_n = (float(outcomes[:, row, j].mean()) for row in (2, 3))
        if not np.isfinite([sinr_r, sinr_n]).all():
            raise NumericalError(f"the mean SINR of UE '{ue.id}' is not finite: its samples "
                                 "are so large that their sum overflows")
        per_ue[ue.id] = {"role": ue.role, "se_ris": se_r, "se_noris": se_n,
                         "stderr_se_ris": se_r_err, "stderr_se_noris": se_n_err,
                         "sinr_ris": sinr_r, "sinr_noris": sinr_n}
    return dict(
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


def aggregation_case(counts, owner, n_real):
    """base_config's scene with ``counts[i]`` UEs on operator ``i`` and ``owner`` owning."""
    sc = load_scenario(base_config())
    template = sc.operators
    operators = []
    for i, count in enumerate(counts):
        op = template[i % 2]
        ues = [engine.UeConfig(id=f"o{i}u{j}", position=[float(j), 1.0, 0.0],
                               role="target" if i == owner else "non-target", blocked=False)
               for j in range(count)]
        operators.append(replace(op, id=f"op{i}", ues=ues))
    return replace(sc, operators=operators, realizations=n_real,
                   ris=replace(sc.ris, owner=f"op{owner}"))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(n_real=st.sampled_from([1, 2, 8, 9]) | st.integers(1, 600),
       counts=(st.lists(st.integers(1, 9), min_size=2, max_size=3) |
               st.lists(st.integers(1, 9), min_size=1, max_size=1)).filter(
           lambda c: sum(c) <= 10),
       owner=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["plain", "no-nontarget-se", "no-nontarget-ris-se",
                              "sinr-overflow"]),
       overflowing=st.lists(st.integers(0, 9), min_size=1, max_size=3),
       sinr_row=st.sampled_from([2, 3]))
@example(n_real=600, counts=[8, 2], owner=0, seed=1, shape="plain", overflowing=[0],
         sinr_row=2)
@example(n_real=8, counts=[1, 9], owner=0, seed=2, shape="no-nontarget-se", overflowing=[0],
         sinr_row=2)
@example(n_real=9, counts=[10], owner=0, seed=3, shape="plain", overflowing=[0], sinr_row=2)
@example(n_real=1, counts=[3, 4], owner=1, seed=4, shape="no-nontarget-ris-se",
         overflowing=[0], sinr_row=2)
@example(n_real=2, counts=[2, 3, 1], owner=1, seed=5, shape="sinr-overflow",
         overflowing=[4, 1], sinr_row=3)
def test_case_metrics_match_scalar_reference(n_real, counts, owner, seed, shape, overflowing,
                                             sinr_row):
    """Every field, per_ue included, has the bits of the scalar per-UE reduction.

    Covers both degradation branches, scenes without a non-target UE, and a
    SINR column whose mean overflows, which names the first such UE.
    """
    owner %= len(counts)
    case = aggregation_case(counts, owner, n_real)
    n_ues = sum(counts)
    rng = np.random.default_rng(seed)
    # per-UE magnitudes over many decades, so the sums round differently by order
    scale = 10.0 ** rng.uniform(-3, 3, size=(1, 4, n_ues))
    outcomes = rng.exponential(1.0, size=(n_real, 4, n_ues)) * scale
    outcomes[:, :, rng.random(n_ues) < 0.15] = 0.0          # silent UEs
    nontarget = np.array([i != owner for i, count in enumerate(counts)
                          for _ in range(count)])
    if shape == "no-nontarget-se":
        outcomes[:, :2, nontarget] = 0.0
    elif shape == "no-nontarget-ris-se":
        outcomes[:, 0, nontarget] = 0.0
    elif shape == "sinr-overflow":
        # two samples at 1.5e308 sum past the float range; one alone does not
        outcomes[:, sinr_row, [j % n_ues for j in overflowing]] = 1.5e308
    clamp = rng.integers(0, 5, size=n_real) / 4
    converged = rng.random(n_real) < 0.9
    try:
        expected = reference_case_metrics(case, outcomes, clamp, converged)
    except NumericalError as exc:
        with pytest.raises(NumericalError) as raised:
            engine._case_metrics(case, outcomes, clamp, converged)
        assert str(raised.value) == str(exc)
        return
    got = engine._case_metrics(case, outcomes, clamp, converged)
    assert list(vars(got)) == list(expected)
    for name, value in expected.items():
        assert getattr(got, name) == value, name


BLOCK_SCENE = load_scenario(base_config())


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(realizations=st.integers(1, 5000),
       counts=st.lists(st.integers(1, 20_000), min_size=1, max_size=3))
def test_blocks_are_the_fewest_equal_ranges(realizations, counts):
    """[0, R) in order, in ceil(R / cap) blocks whose sizes differ by at most one."""
    sc = replace(BLOCK_SCENE, realizations=realizations)
    cases = [engine._with_surface(sc, n, (0.0, 0.0, 0.0)) for n in counts]
    # base_config's owner serves two UEs from four antennas
    cap = max(1, engine._BLOCK_TERMS // (max(counts) * 2 * 4))
    blocks = engine._blocks(cases)
    assert len(blocks) == -(-realizations // cap)
    assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
    assert blocks[-1][1] == realizations
    sizes = [stop - start for start, stop in blocks]
    assert 1 <= min(sizes) and max(sizes) - min(sizes) <= 1 and max(sizes) <= cap


@pytest.mark.parametrize("name, realizations, bound", [
    pytest.param("fig4d", None, 5.0e6, id="fig4d"),
    pytest.param("fig5", 30, 5.2e6, id="fig5"),
])
def test_fig4d_run_holds_no_draws_through_its_ascent(name, realizations, bound):
    """Drawing each link at its first read and freeing it after its last keeps a
    one-stack block's peak below 5.0 MB (5.13 MB with every draw held per block).
    fig5's one block of nine stacks holds only the owner's draws through its
    ascents: 4.86 MB, 5.57 MB with every operator's surface links held."""
    cfg = preset_config(name)
    if realizations is not None:
        cfg["realizations"] = realizations
    sc = load_scenario(cfg)
    tracemalloc.start()
    try:
        sweep(sc) if sc.sweep_spec else run_case(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def block_spanning_config(cfg, counts, entries):
    """``cfg`` with two full blocks' realizations and three more, so that the run
    splits into three equal blocks."""
    size = engine._BLOCK_TERMS // (max(counts) * entries)
    assert size > 3
    cfg["realizations"] = 2 * size + 3
    return cfg


def test_blocks_and_workers_leave_results_unchanged(tmp_path):
    """Exports are byte-identical at any worker count, and a sweep point equals a lone run."""
    counts = [16, 64]
    cfg = block_spanning_config(base_config(), counts, entries=2 * 4)
    cfg["sweep"] = {"element_counts": counts,
                    "positions": [[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]}
    sc = load_scenario(cfg)
    files = {}
    for workers in (1, 3):
        table = sweep(sc, workers=workers)
        for fmt in ("csv", "json"):
            path = tmp_path / f"w{workers}.{fmt}"
            export_results(table, fmt, path, scenario=sc)
            files[workers, fmt] = path.read_bytes()
            files[workers, fmt + "_manifest"] = (tmp_path / (path.name + ".manifest.json")
                                                 ).read_bytes()
    assert all(files[1, kind] == files[3, kind] for kind in ("csv", "json", "csv_manifest",
                                                             "json_manifest"))
    for case in table:
        lone = copy.deepcopy(cfg)
        del lone["sweep"]
        lone["ris"]["rows"], lone["ris"]["cols"] = grid_shape(case.n_elements)
        lone["ris"]["position"] = list(case.ris_position)
        assert run_case(load_scenario(lone)).to_dict() == case.to_dict()


def test_correlated_channels_error_names_first_failing_realization():
    """With scatter only some fig1c realizations trip the limit; the first one is reported."""
    cfg = preset_config("fig1c")
    cfg["channel"]["k_factor_db"] = 10.0
    cfg["operators"][0]["zf_condition_limit"] = 200.0
    n_elements = cfg["ris"]["rows"] * cfg["ris"]["cols"]
    sc = load_scenario(block_spanning_config(cfg, [n_elements], entries=2 * 8))
    for r in range(sc.realizations):
        try:
            reference_realization(sc, r)
        except CorrelatedChannelsError as exc:
            expected = exc
            break
    else:
        pytest.fail("no realization trips the condition limit")
    assert r > 0
    errors = []
    for workers in (1, 3):
        with pytest.raises(CorrelatedChannelsError) as exc:
            run_case(sc, workers=workers)
        errors.append(exc.value)
    assert str(errors[0]) == str(errors[1])
    for err in errors:
        assert err.ue_pair == expected.ue_pair
        assert err.condition_number == errors[0].condition_number
        assert err.condition_number == pytest.approx(expected.condition_number, rel=1e-12)


def lone_config(cfg, case):
    """``cfg`` without its sweep, at the surface size and position of a sweep point."""
    lone = copy.deepcopy(cfg)
    lone.pop("sweep", None)
    lone["ris"]["rows"], lone["ris"]["cols"] = grid_shape(case.n_elements)
    lone["ris"]["position"] = list(case.ris_position)
    return lone


def test_sweep_stacks_only_consecutive_equal_sizes(tmp_path):
    """Sizes 16, 64, 16 make four stacks, the two 16-element groups apart; exports and
    points match workers=1 and lone runs."""
    counts = [16, 64, 16]
    cfg = block_spanning_config(base_config(), counts, entries=2 * 4)
    cfg["sweep"] = {"element_counts": counts,
                    "positions": [[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]}
    sc = load_scenario(cfg)
    cases = [engine._with_surface(sc, n, pos) for n in counts for pos in cfg["sweep"]["positions"]]
    # 515 realizations in blocks of 171 or 172; a full block fits five 16-element
    # cases but one 64-element case (64 x 8 x 172 = 88,064 of 131,072 terms)
    assert engine._blocks(cases) == [(0, 171), (171, 343), (343, 515)]
    for start, stop in engine._blocks(cases):
        assert engine._stacks(cases, stop - start) == [[0, 1], [2], [3], [4, 5]]
    files = {}
    for workers in (1, 3):
        table = sweep(sc, workers=workers)
        for fmt in ("csv", "json"):
            path = tmp_path / f"w{workers}.{fmt}"
            export_results(table, fmt, path, scenario=sc)
            files[workers, fmt] = path.read_bytes()
    assert files[1, "csv"] == files[3, "csv"] and files[1, "json"] == files[3, "json"]
    assert [case.n_elements for case in table] == [16, 16, 64, 64, 16, 16]
    for case in table:
        assert run_case(load_scenario(lone_config(cfg, case))).to_dict() == case.to_dict()


def test_sweep_splits_a_large_group_into_several_stacks():
    """A dozen positions at one size, one full block each, span several stacks."""
    n_elements, entries = 64, 2 * 4
    cfg = base_config()
    cfg["realizations"] = engine._BLOCK_TERMS // (n_elements * entries)
    cfg["sweep"] = {"element_counts": [n_elements],
                    "positions": [[0.5 * k, 0.0, 0.0] for k in range(12)]}
    sc = load_scenario(cfg)
    cases = [engine._with_surface(sc, n_elements, pos) for pos in cfg["sweep"]["positions"]]
    assert engine._blocks(cases) == [(0, sc.realizations)]
    stacks = engine._stacks(cases, sc.realizations)
    assert len(stacks) > 1 and sum(map(len, stacks)) == len(cases)
    for case in sweep(sc):
        assert run_case(load_scenario(lone_config(cfg, case))).to_dict() == case.to_dict()


@pytest.mark.parametrize("n_elements, realizations", [(4, 204), (6, 136)])
def test_large_stack_sweep_points_equal_lone_runs(n_elements, realizations):
    """fig5 at few elements stacks its four positions into one stack of 500 to 820
    realizations; every point differed from its lone run in the last bits before."""
    cfg = preset_config("fig5")
    cfg["realizations"] = realizations
    cfg["sweep"]["element_counts"] = [n_elements]
    sc = load_scenario(cfg)
    cases = [engine._with_surface(sc, n_elements, pos) for pos in sc.sweep_spec.positions]
    assert len(engine._blocks(cases)) == 1 and engine._stacks(cases, realizations) == [
        [0, 1, 2, 3]]
    for case in sweep(sc):
        assert run_case(load_scenario(lone_config(cfg, case))).to_dict() == case.to_dict()


def test_sweep_correlated_channels_error_matches_cases_run_in_order():
    """A stack reports the first failing case's first failing realization.

    At the first position realization 18 trips the limit; at the second,
    realization 6 of the same block does. Run one by one in sweep order,
    the first case fails first.
    """
    cfg = preset_config("fig1c")
    cfg["channel"]["k_factor_db"] = 10.0
    cfg["operators"][0]["zf_condition_limit"] = 200.0
    cfg = block_spanning_config(cfg, [64], entries=2 * 8)
    cfg["sweep"] = {"element_counts": [64], "positions": [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]}
    sc = load_scenario(cfg)
    expected = None
    for pos in cfg["sweep"]["positions"]:
        lone = copy.deepcopy(cfg)
        del lone["sweep"]
        lone["ris"]["position"] = pos
        try:
            run_case(load_scenario(lone))
        except CorrelatedChannelsError as exc:
            expected = exc
            break
    assert expected is not None
    for workers in (1, 3):
        with pytest.raises(CorrelatedChannelsError) as exc:
            sweep(sc, workers=workers)
        assert str(exc.value) == str(expected)
        assert exc.value.ue_pair == expected.ue_pair
        assert exc.value.condition_number == expected.condition_number


# --- sweep ----------------------------------------------------------------------

def test_sweep_order_and_consistency():
    cfg = base_config()
    cfg["sweep"] = {"element_counts": [4, 9],
                    "positions": [[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]}
    sc = load_scenario(cfg)
    table = sweep(sc)
    assert [c.n_elements for c in table] == [4, 4, 9, 9]
    assert [tuple(c.ris_position) for c in table] == [
        (0.0, 0.0, 0.0), (5.0, 0.0, 0.0), (0.0, 0.0, 0.0), (5.0, 0.0, 0.0)]
    # a single-point sweep equals a direct run of that geometry
    cfg2 = base_config()
    cfg2["ris"]["rows"], cfg2["ris"]["cols"] = grid_shape(9)
    cfg2["ris"]["position"] = [5.0, 0.0, 0.0]
    direct = run_case(load_scenario(cfg2))
    assert table[3].to_dict() == direct.to_dict()


def test_sweep_workers_match_serial():
    cfg = base_config()
    cfg["sweep"] = {"element_counts": [4, 16], "positions": [[0.0, 0.0, 0.0]]}
    sc = load_scenario(cfg)
    serial = sweep(sc)
    parallel = sweep(sc, workers=4)
    assert [c.to_dict() for c in serial] == [c.to_dict() for c in parallel]


def test_sweep_requires_spec():
    with pytest.raises(ConfigError, match="sweep"):
        sweep(load_scenario(base_config()))
    cfg = base_config()
    cfg["sweep"] = {"element_counts": [4], "positions": [[0.0, 0.0, 0.0]]}
    table = sweep(load_scenario(cfg))
    assert len(table) == 1
    assert table[0].n_elements == 4


# --- bandwidth of influence ------------------------------------------------------

def test_fractional_boi_midpoint_default():
    assert fractional_boi(23.9e9, 30.6e9) == pytest.approx(
        (30.6e9 - 23.9e9) / 27.25e9, rel=1e-12)


def test_fractional_boi_explicit_center():
    assert fractional_boi(1.8e9 - 180e3, 1.8e9 + 180e3, 1.8e9) == pytest.approx(
        0.0002, rel=1e-12)


def test_fractional_boi_zero_width():
    assert fractional_boi(2.5e9, 2.5e9) == 0.0


def test_fractional_boi_validation():
    with pytest.raises(ValueError, match="f_low"):
        fractional_boi(0.0, 1e9)
    with pytest.raises(ValueError, match="f_high"):
        fractional_boi(2e9, 1e9)
    with pytest.raises(ValueError, match="f_center"):
        fractional_boi(1e9, 2e9, 0.0)
    # a NaN passes every ordering check, and infinities give NaN or 0
    for args, name in [((np.nan, 1e9), "f_low"), ((np.inf, np.inf), "f_low"),
                       ((1e9, np.inf), "f_high"), ((1e9, 2e9, np.inf), "f_center"),
                       ((1e9, 2e9, np.nan), "f_center")]:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            fractional_boi(*args)


# --- exports ----------------------------------------------------------------------

def small_sweep_table():
    cfg = base_config()
    cfg["sweep"] = {"element_counts": [4, 9], "positions": [[0.0, 0.0, 0.0]]}
    sc = load_scenario(cfg)
    return sc, sweep(sc)


def test_export_csv_layout(tmp_path):
    sc, table = small_sweep_table()
    path = tmp_path / "out.csv"
    export_results(table, "csv", path, scenario=sc)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(EXPORT_COLUMNS)
    assert len(lines) == 1 + len(table)
    first = lines[1].split(",")
    assert first[0] == "4"
    assert float(first[-1]) == pytest.approx(table[0].degradation_ratio, rel=1e-11)


def test_export_manifest(tmp_path):
    sc, table = small_sweep_table()
    path = tmp_path / "out.csv"
    export_results(table, "csv", path, scenario=sc)
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["cases"] == len(table)
    assert manifest["columns"] == list(EXPORT_COLUMNS)
    assert manifest["config"] == sc.config_echo
    assert "SeedSequence" in manifest["seed_rule"]
    # manifests must not embed anything time-dependent
    assert not any("time" in k or "date" in k for k in manifest)


def test_export_byte_identical_across_runs(tmp_path):
    sc, table = small_sweep_table()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_results(table, "csv", p1, scenario=sc)
    _, table2 = small_sweep_table()
    export_results(table2, "csv", p2, scenario=sc)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.csv.manifest.json").read_bytes() == \
        (tmp_path / "b.csv.manifest.json").read_bytes()


def test_tiny_bs_axis_exports_the_default_axis_bytes(tmp_path):
    """An axis of (1e-160, 0, 0) normalized to a length of 1.0000056 and so moved every
    antenna of the BS before; it now exports the bytes of the default axis."""
    for tag, axis in (("tiny", [1e-160, 0.0, 0.0]), ("default", None)):
        cfg = preset_config("fig4d")
        cfg["realizations"] = 4
        if axis is not None:
            cfg["operators"][1]["bs"]["axis"] = axis
        sc = load_scenario(cfg)
        export_results([run_case(sc)], "csv", tmp_path / f"{tag}.csv", scenario=sc)
    assert (tmp_path / "tiny.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


def test_export_json_round_trip(tmp_path):
    sc, table = small_sweep_table()
    path = tmp_path / "out.json"
    export_results(table, "json", path, scenario=sc)
    cases = json.loads(path.read_text(encoding="utf-8"))["cases"]
    assert cases == [case.to_dict() for case in table]


@pytest.mark.parametrize("fmt, column", [
    ("csv", "sumse_nontarget_ris"), ("json", "sumse_nontarget_ris"),
    ("json", "stderr_target_diff"),
])
def test_export_rejects_non_finite_values(tmp_path, fmt, column):
    sc, table = small_sweep_table()
    setattr(table[1], column, float("nan"))
    with pytest.raises(NumericalError, match="NaN or infinite"):
        export_results(table, fmt, tmp_path / f"out.{fmt}", scenario=sc)
    assert list(tmp_path.iterdir()) == []


def test_export_metrics_filter(tmp_path):
    cfg = base_config()
    cfg["sweep"] = {"element_counts": [4], "positions": [[0.0, 0.0, 0.0]],
                    "metrics": ["degradation_ratio"]}
    sc = load_scenario(cfg)
    table = sweep(sc)
    path = tmp_path / "out.json"
    export_results(table, "json", path, scenario=sc)
    case = json.loads(path.read_text())["cases"][0]
    assert "degradation_ratio" in case
    assert "n_elements" in case          # identity keys always survive
    assert "sumse_target_ris" not in case


def test_export_validation(tmp_path):
    sc, table = small_sweep_table()
    with pytest.raises(ValueError, match="format"):
        export_results(table, "yaml", tmp_path / "x.yaml", scenario=sc)
    with pytest.raises(ValueError):
        export_results([], "csv", tmp_path / "x.csv", scenario=sc)
    with pytest.raises(OSError):
        export_results(table, "csv", tmp_path / "missing" / "x.csv", scenario=sc)


# --- presets -----------------------------------------------------------------------

def test_all_presets_load():
    assert PRESET_NAMES == tuple(sorted(PRESET_NAMES))
    for name in PRESET_NAMES:
        sc = load_preset(name)
        assert sc.owner is not None


def test_preset_text_round_trip():
    for name in PRESET_NAMES:
        sc = load_scenario(preset_text(name))
        assert sc.master_seed == load_preset(name).master_seed


def test_preset_config_is_a_copy():
    cfg = preset_config("fig1a")
    cfg["master_seed"] = 999999
    assert preset_config("fig1a")["master_seed"] != 999999


def test_preset_unknown_name():
    with pytest.raises(ConfigError, match="unknown preset 'fig9'"):
        preset_config("fig9")


def test_preset_shapes():
    fig5 = load_preset("fig5")
    assert fig5.ris.n_elements == 70
    assert [op.bs.n_antennas for op in fig5.operators] == [20, 20]
    assert sorted(op.carrier_hz for op in fig5.operators) == [2.5e9, 2.75e9]
    assert fig5.sweep_spec is not None
    assert 70 in fig5.sweep_spec.element_counts
    fig1c = load_preset("fig1c")
    assert fig1c.operators[0].zf_condition_limit == 50.0
    fig3 = load_preset("fig3")
    assert fig3.pattern is not None
    assert fig3.ris.n_elements == 400


# --- pattern runner -----------------------------------------------------------------

def mini_pattern_config():
    cfg = {
        "master_seed": 3,
        "realizations": 1,
        "channel": {"k_factor_db": None},
        "ris": {"owner": "op1", "rows": 8, "cols": 8, "position": [0.0, 0.0, 0.0]},
        "operators": [
            {"id": "op1", "carrier_hz": 2.5e9,
             "bs": {"position": [20.0, -20.0, 5.0], "antennas": 1},
             "ues": [{"id": "t1", "position": [3.0, 3.0, 0.0], "role": "target",
                      "blocked": True}]},
        ],
        "pattern": {
            "frequencies_hz": [2.5e9, 2.52e9],
            "angle_start_deg": -90.0, "angle_stop_deg": 90.0, "angle_step_deg": 1.0,
            "reference_angle_deg": 40.0, "reference_window_deg": 60.0,
        },
    }
    return cfg


def test_run_pattern_outputs(tmp_path):
    sc = load_scenario(mini_pattern_config())
    summary = run_pattern(sc, tmp_path)
    assert (tmp_path / "pattern_2.500GHz.csv").exists()
    assert (tmp_path / "pattern_2.520GHz.csv").exists()
    written = json.loads((tmp_path / "pattern_summary.json").read_text())
    assert written == summary
    assert summary["design_frequency_hz"] == 2.5e9
    freqs = {e["frequency_hz"]: e for e in summary["frequencies"]}
    assert set(freqs) == {2.5e9, 2.52e9}
    assert freqs[2.5e9]["offset_from_design_peak_deg"] == 0.0
    # nearby carrier stays close to the design beam
    assert abs(freqs[2.52e9]["offset_from_design_peak_deg"]) < 5.0
    assert summary["reference"]["within_window"] is True
    assert "sensitivity" not in summary


def test_run_pattern_requires_pattern_block(tmp_path):
    sc = load_scenario(base_config())
    with pytest.raises(ConfigError, match="pattern"):
        run_pattern(sc, tmp_path)


def test_load_refuses_a_sensitivity_sweep_without_a_reference_angle():
    """The sweep runs only against a reference angle, so a sensitivity block with a null
    reference was skipped without a word before; now the load names both fields."""
    cfg = preset_config("fig3")
    cfg["pattern"]["reference_angle_deg"] = None
    with pytest.raises(ConfigError) as exc:
        load_scenario(cfg)
    assert "config.pattern.sensitivity " in str(exc.value)
    assert "config.pattern.reference_angle_deg" in str(exc.value)
    cfg["pattern"]["sensitivity"] = None
    assert load_scenario(cfg).pattern.reference_angle_deg is None


def test_run_pattern_deterministic(tmp_path):
    sc = load_scenario(mini_pattern_config())
    run_pattern(sc, tmp_path / "a")
    run_pattern(load_scenario(mini_pattern_config()), tmp_path / "b")
    for name in ("pattern_2.500GHz.csv", "pattern_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_run_pattern_files_equal_lone_calls(tmp_path):
    """A pattern study's files, its every sensitivity row and the summary's closest
    lobes, made by one call over every carrier and one over both sensitivity stacks,
    equal lone calls: the files byte for byte, the closest lobes by repr. On fig3, and
    on a far-field cut whose sweep of 2 x 2 cases has its own, coarser grid."""
    far = preset_config("fig3")
    far["pattern"].update(cut_radius=None, angle_step_deg=0.2)
    far["pattern"]["sensitivity"].update(angle_step_deg=0.3, l_top_h=[7e-10, 1.2e-9],
                                         c_ranges_f=[[4.7e-13, 2.35e-12], [1.1e-12, 1.35e-12]])
    for name, sc in [("fig3", load_preset("fig3")), ("far", load_scenario(far))]:
        study = tmp_path / name
        summary = run_pattern(sc, study)
        params = sc.ris.circuit
        array = build_surface(sc.ris, sc.owner.carrier_hz)
        theta = engine._pattern_phases(sc, array)
        cut = engine._pattern_cut(sc, array)
        feed = sc.owner.bs.position
        tuning = realize_capacitances(theta, params)
        for entry in summary["frequencies"]:
            lone = directivity_pattern(array, evaluate_off_frequency(
                tuning, entry["frequency_hz"]), feed, sc.pattern.angle_grid(), cut)
            assert (study / entry["file"]).read_bytes() == pattern_to_csv(lone).encode()
            assert entry["main_lobe_deg"] == main_lobe_angle(lone)
        sens = sc.pattern.sensitivity
        angles = sc.pattern.angle_grid(sens["angle_step_deg"])
        lines = (study / "squint_sensitivity.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert len(rows) == summary["sensitivity"]["cases"] == \
            len(sens["l_top_h"]) * len(sens["c_ranges_f"])
        closest = summary["sensitivity"]["closest"]
        matched = 0
        for row in rows:
            case = replace(params, l_top=float(row["l_top_h"]), c_min=float(row["c_min_f"]),
                           c_max=float(row["c_max_f"]))
            tuned = realize_capacitances(theta, case)
            lobes = {column: main_lobe_angle(directivity_pattern(
                         array, evaluate_off_frequency(tuned, f), feed, angles, cut))
                     for f, column in ((theta.frequency, "f1_peak_deg"),
                                       (sens["frequency_hz"], "f3_peak_deg"))}
            assert all(f"{lobe:.9g}" == row[column] for column, lobe in lobes.items())
            if (case.l_top, case.c_min, case.c_max) == (closest["l_top_h"], closest["c_min_f"],
                                                        closest["c_max_f"]):
                matched += 1
                assert all(repr(lobe) == repr(closest[column]) for column, lobe in lobes.items())
                assert repr(lobes["f3_peak_deg"] - sc.pattern.reference_angle_deg) == \
                    repr(closest["offset_from_reference_deg"])
        assert matched == 1


def test_run_pattern_makes_one_call_per_grid(tmp_path, monkeypatch):
    """fig3's carriers share one directivity_pattern call on the study's grid, and its
    reported sweep's two stacks a second on the sweep's grid; a study whose probe lobe
    lands in its window makes only the first."""
    calls = []

    def counted(array, states, source, angles, *args):
        states = list(states)
        calls.append(([np.shape(state.gammas) for state in states], np.ptp(angles),
                      np.diff(angles)[0]))
        return directivity_pattern(array, states, source, angles, *args)

    monkeypatch.setattr(engine, "directivity_pattern", counted)
    summary = run_pattern(load_preset("fig3"), tmp_path / "fig3")
    n = 20 * 20
    assert calls == [([(n,)] * 3, 180.0, 0.25), ([(90, n)] * 2, 180.0, 0.5)]
    assert summary["sensitivity"]["cases"] == 90
    cfg = preset_config("fig3")
    cfg["pattern"]["reference_window_deg"] = 179.0
    calls.clear()
    run_pattern(load_scenario(cfg), tmp_path / "wide")
    assert calls == [([(n,)] * 3, 180.0, 0.25)]


def test_run_pattern_in_window_reports_no_sweep(tmp_path):
    """A probe lobe inside its window writes no sensitivity file, and the same pattern
    files as a study that reports its sweep."""
    cfg = preset_config("fig3")
    cfg["pattern"]["reference_window_deg"] = 179.0
    summary = run_pattern(load_scenario(cfg), tmp_path / "wide")
    assert summary["reference"]["within_window"] is True
    assert "sensitivity" not in summary
    run_pattern(load_preset("fig3"), tmp_path / "fig3")
    written = sorted(p.name for p in (tmp_path / "wide").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "fig3").iterdir()
                             if p.name != "squint_sensitivity.csv")
    for name in written:
        if name != "pattern_summary.json":
            assert (tmp_path / "wide" / name).read_bytes() == \
                (tmp_path / "fig3" / name).read_bytes()


def test_run_pattern_in_window_still_evaluates_its_sweep(tmp_path):
    """The configured sweep is evaluated before the window is tested, so a sweep whose
    element circuit overflows fails the study even when the probe lobe is in its
    window, and writes nothing; without the sweep the same study succeeds."""
    cfg = preset_config("fig3")
    cfg["pattern"]["reference_window_deg"] = 179.0
    cfg["pattern"]["sensitivity"]["l_top_h"] = [4e-10, 1e300]
    with pytest.raises(NumericalError, match="element circuit"):
        run_pattern(load_scenario(cfg), tmp_path / "study")
    assert not (tmp_path / "study").exists()
    cfg["pattern"]["sensitivity"] = None
    assert run_pattern(load_scenario(cfg), tmp_path / "study")["reference"]["within_window"]


def test_realized_reflections_equal_an_evaluation_at_the_tuned_carrier(rng):
    """A surface's state at the carrier it was tuned at is the element circuit's
    reflection at its capacitances bit for bit, and its phases are the ideal phases, to
    1e-9 rad, wherever the inversion did not clamp: on fig3's surface with its own and
    its sensitivity sweep's (90, 1) constants, and on a random (50, 70) stack."""
    sc = load_preset("fig3")
    array = build_surface(sc.ris, sc.owner.carrier_hz)
    theta = engine._pattern_phases(sc, array)
    sens = sc.pattern.sensitivity
    l_top = np.repeat(sens["l_top_h"], len(sens["c_ranges_f"]))[:, None]
    c_min, c_max = np.tile(sens["c_ranges_f"], (len(sens["l_top_h"]), 1)).T[:, :, None]
    stack = ScatteringState(np.exp(1j * rng.uniform(-np.pi, np.pi, (50, 70))), 2.6e9)
    for phases, params in [(theta, sc.ris.circuit),
                           (theta, replace(sc.ris.circuit, l_top=l_top, c_min=c_min,
                                           c_max=c_max)),
                           (stack, sc.ris.circuit)]:
        tuning = realize_capacitances(phases, params)
        state = evaluate_off_frequency(tuning, tuning.frequency)
        assert np.array_equal(state.gammas,
                              element_reflection(tuning.capacitances, tuning.frequency, params))
        error = np.abs(wrap_phase(np.angle(state.gammas) - np.angle(phases.gammas))).ravel()
        free = error[~tuning.clamped.ravel()]
        assert 0 < len(free) and free.max() <= 1e-9


def test_fig3_probe_lobe_is_the_straight_through_direction(tmp_path):
    """Why criterion 1 misses: at 2.75 GHz the lobe follows the feed, not the target.

    The fig3 feed sits behind the xz surface, at 134.10 degrees in the
    terminals cut, so a wave passing straight through would leave at
    134.10 - 180 = -45.90 degrees. The frozen profile has lost its steering
    gradient at 2.75 GHz and the lobe lands there, not at the published
    -14 degrees.
    """
    cfg = preset_config("fig3")
    del cfg["pattern"]["sensitivity"]
    sc = load_scenario(cfg)
    summary = run_pattern(sc, tmp_path)
    lobes = {e["frequency_hz"]: e["main_lobe_deg"] for e in summary["frequencies"]}
    array = build_surface(sc.ris, sc.owner.carrier_hz)
    cut = PatternCut.through_points(array, sc.owner.bs.position, sc.owner.ues[0].position)
    feed = cut.angle_of(array, sc.owner.bs.position)
    assert feed == pytest.approx(134.10, abs=0.005)
    assert lobes[2.75e9] == pytest.approx(-46.32, abs=0.005)
    assert abs(lobes[2.75e9] - (feed - 180.0)) <= 0.5
