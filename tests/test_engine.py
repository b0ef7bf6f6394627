"""Scenario loading, the simulation pipeline, sweeps, and exports."""

import copy
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squintsim import (ChannelSet, ConfigError, ConfigWarning, Node, OptimizationLog,
                       PrecodeResult, SweepSpec, derive_seed, effective_channel,
                       evaluate_off_frequency, export_results, fractional_boi, grid_shape,
                       link_metrics, load_preset, load_scenario, los_channel,
                       optimize_weighted_sum_power, preset_config, preset_text,
                       realize_capacitances, run_case, run_pattern, sweep, zf_precoder)
from squintsim import engine
from squintsim.array_field import PatternCut
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


@settings(derandomize=True, max_examples=250, deadline=None)
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


# --- seeding -------------------------------------------------------------------

def test_derive_seed_distinct_paths():
    seeds = {derive_seed(1, r, o, u, l).generate_state(2).tobytes()
             for r in range(3) for o in range(2) for u in range(3) for l in range(3)}
    assert len(seeds) == 3 * 2 * 3 * 3
    a = derive_seed(1, 0, 0, 0, 0).generate_state(2)
    b = derive_seed(1, 0, 0, 0, 0).generate_state(2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, derive_seed(2, 0, 0, 0, 0).generate_state(2))


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
    """ZF on the users with a non-zero channel; the others get a silent placeholder column."""
    active = np.flatnonzero(np.linalg.norm(h, axis=1) > 0)
    matrix = np.zeros(h.shape[::-1], dtype=complex)
    matrix[0] = 1.0
    powers = np.zeros(len(h))
    if len(active):
        res = zf_precoder(h[active], total_power=op.power_w / len(h) * len(active),
                          condition_limit=op.zf_condition_limit)
        matrix[:, active], powers[active] = res.matrix, res.powers
    return PrecodeResult(matrix=matrix, powers=powers)


def reference_realization(sc, r):
    """(outcomes, clamp fraction, converged) of realization ``r``, one public call at a time.

    ``outcomes`` is (4 x UEs): SE with and without the surface, then SINR.
    Covers an enabled, broadband surface and zero-forcing operators.
    """
    array = build_surface(sc.ris, sc.owner.carrier_hz)

    def rng(*key):
        return np.random.default_rng(derive_seed(sc.master_seed, r, *key))

    sets = []
    for i, op in enumerate(sc.operators):
        f, k = op.carrier_hz, sc.k_factor_db
        direct = np.zeros((len(op.ues), op.bs.n_antennas), dtype=complex)
        ris_to_ue = np.empty((len(op.ues), array.n_elements), dtype=complex)
        for j, ue in enumerate(op.ues):
            node = Node(position=ue.position)
            if not ue.blocked:
                direct[j] = los_channel(op.bs, node, f, k, rng(i, j + 1, 0))
            ris_to_ue[j] = los_channel(array, node, f, k, rng(i, j + 1, 2))
        sets.append(ChannelSet(direct=direct, ris_to_ue=ris_to_ue, frequency=f,
                               bs_to_ris=los_channel(op.bs, array, f, k, rng(i, 0, 1))))
    owner = [op.id for op in sc.operators].index(sc.ris.owner)
    log = OptimizationLog()
    tuning = realize_capacitances(optimize_weighted_sum_power([sets[owner]], log=log),
                                  sc.ris.circuit)
    outcomes = []
    for i, (op, chs) in enumerate(zip(sc.operators, sets)):
        actual = effective_channel(chs, evaluate_off_frequency(tuning, op.carrier_hz,
                                                               sc.ris.circuit))
        design = actual if i == owner else chs.direct
        with_ris = link_metrics(actual, reference_precoders(design, op), sc.noise_w)
        without = link_metrics(chs.direct, reference_precoders(chs.direct, op), sc.noise_w)
        outcomes.append([with_ris.se, without.se, with_ris.sinr, without.sinr])
    return (np.concatenate(outcomes, axis=1), len(tuning.clamp_report) / array.n_elements,
            log.converged)


@pytest.mark.parametrize("name", ["fig4d", "fig5"])
def test_run_case_matches_per_realization_reference(name):
    """The blocked pipeline reproduces realizations computed one by one (fig5 at N=70)."""
    cfg = preset_config(name)
    cfg["realizations"] = 5
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


def block_spanning_config(cfg, counts, entries):
    """``cfg`` with enough realizations for two full blocks and a remainder."""
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
    spec = SweepSpec(element_counts=(4,), positions=((0.0, 0.0, 0.0),))
    table = sweep(load_scenario(base_config()), spec=spec)
    assert len(table) == 1
    assert table[0].n_elements == 4


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(element_counts=(), positions=((0.0, 0.0, 0.0),))
    with pytest.raises(ConfigError):
        SweepSpec(element_counts=(4,), positions=())
    with pytest.raises(ConfigError):
        SweepSpec(element_counts=(0,), positions=((0.0, 0.0, 0.0),))


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


def test_run_pattern_deterministic(tmp_path):
    sc = load_scenario(mini_pattern_config())
    run_pattern(sc, tmp_path / "a")
    run_pattern(load_scenario(mini_pattern_config()), tmp_path / "b")
    for name in ("pattern_2.500GHz.csv", "pattern_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


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
