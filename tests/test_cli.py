"""Command-line interface: subcommands, outputs, exit codes."""

import json
import math
import os
import stat
import inspect
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest

import squintsim
from squintsim import ConfigError, Node, load_scenario, run_case
from squintsim.cli import main
from squintsim.engine import EXPORT_COLUMNS
from squintsim.presets import preset_config


def small_config_file(tmp_path, extra=None):
    cfg = {
        "master_seed": 5,
        "realizations": 2,
        "channel": {"k_factor_db": 10.0},
        "ris": {"owner": "opA", "rows": 4, "cols": 4, "position": [0.0, 0.0, 0.0]},
        "operators": [
            {"id": "opA", "carrier_hz": 2.5e9,
             "bs": {"position": [-20.0, 30.0, 0.0], "antennas": 4},
             "ues": [{"id": "t1", "position": [15.0, 10.0, 0.0], "role": "target"}]},
            {"id": "opB", "carrier_hz": 2.75e9,
             "bs": {"position": [40.0, 30.0, 0.0], "antennas": 4},
             "ues": [{"id": "n1", "position": [10.0, 8.0, 0.0],
                      "role": "non-target"}]},
        ],
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_boi_output(capsys):
    assert main(["boi", "23.9e9", "30.6e9"]) == 0
    assert capsys.readouterr().out.strip() == "24.5872%"
    assert main(["boi", "1.79982e9", "1.80018e9", "1.8e9"]) == 0
    assert capsys.readouterr().out.strip() == "0.02%"


def test_boi_bad_order(capsys):
    assert main(["boi", "3e9", "2e9"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("args, name", [
    (["nan", "1"], "f_low"), (["inf", "inf"], "f_low"), (["1", "inf"], "f_high"),
    (["1", "2", "inf"], "f_center")])
def test_boi_non_finite(capsys, args, name):
    assert main(["boi", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {name} must be finite\n"


def test_run_with_csv_out(tmp_path, capsys):
    cfg = small_config_file(tmp_path)
    out = tmp_path / "case.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert "wrote 1 case(s)" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(EXPORT_COLUMNS)
    assert len(lines) == 2
    assert (tmp_path / "case.csv.manifest.json").exists()


def test_run_stdout_json(tmp_path, capsys):
    cfg = small_config_file(tmp_path)
    assert main(["run", str(cfg)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert len(blob["cases"]) == 1
    assert blob["cases"][0]["n_elements"] == 16


def test_run_accepts_preset_name(capsys):
    assert main(["run", "fig1b"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["cases"][0]["per_ue"]["u1"]["se_noris"] == 0.0


def test_run_json_format(tmp_path, capsys):
    cfg = small_config_file(tmp_path)
    out = tmp_path / "case.json"
    assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
    blob = json.loads(out.read_text())
    assert len(blob["cases"]) == 1


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("metrics", [None, ["degradation_ratio"]], ids=["all", "listed"])
def test_stdout_is_the_json_export(tmp_path, capsys, command, metrics):
    """Stdout printed every metric before, whatever sweep.metrics listed."""
    spec = {"element_counts": [4, 9], "positions": [[0.0, 0.0, 0.0]]}
    if metrics is not None:
        spec["metrics"] = metrics
    cfg = small_config_file(tmp_path, extra={"sweep": spec})
    assert main([command, str(cfg)]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "cases.json"
    assert main([command, str(cfg), "--out", str(out), "--format", "json"]) == 0
    assert printed.encode("utf-8") == out.read_bytes()
    assert ("sumse_target_ris" in printed) == (metrics is None)


def test_sweep_command(tmp_path, capsys):
    cfg = small_config_file(tmp_path, extra={
        "sweep": {"element_counts": [4, 9], "positions": [[0.0, 0.0, 0.0]]}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--out", str(out), "--workers", "2"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "4"
    assert lines[2].split(",")[0] == "9"


def test_sweep_without_spec_is_config_error(tmp_path, capsys):
    cfg = small_config_file(tmp_path)
    assert main(["sweep", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_refuse_a_design_carrier_they_would_ignore(tmp_path, capsys, command):
    """Both tune the surface at the owner's carrier, so a design carrier more than 1e-6
    off it is refused with nothing written."""
    path = small_config_file(tmp_path, extra={
        "sweep": {"element_counts": [4], "positions": [[0.0, 0.0, 0.0]]}})
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg["ris"]["design_frequency_hz"] = 2.52e9
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "cases.csv"
    assert main([command, str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("config error: ")
    assert all(text in captured.err for text in (
        "config.ris.design_frequency_hz (2.52e+09 Hz)", "carrier (2.5e+09 Hz)"))
    assert list(tmp_path.iterdir()) == [path]
    cfg["ris"]["design_frequency_hz"] = 2.5e9 * (1 + 5e-7)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main([command, str(path), "--out", str(out)]) == 0


def test_pattern_command(tmp_path, capsys):
    cfg = small_config_file(tmp_path, extra={
        "realizations": 1,
        "channel": {"k_factor_db": None},
        "ris": {"owner": "opA", "rows": 6, "cols": 6, "position": [0.0, 0.0, 0.0]},
        "operators": [
            {"id": "opA", "carrier_hz": 2.5e9,
             "bs": {"position": [20.0, -20.0, 5.0], "antennas": 1},
             "ues": [{"id": "t1", "position": [3.0, 3.0, 0.0], "role": "target",
                      "blocked": True}]},
        ],
        "pattern": {"frequencies_hz": [2.5e9, 2.52e9], "angle_step_deg": 1.0},
    })
    out_dir = tmp_path / "patterns"
    assert main(["pattern", str(cfg), "--out-dir", str(out_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (out_dir / "pattern_2.500GHz.csv").exists()
    assert (out_dir / "pattern_summary.json").exists()
    assert summary["design_frequency_hz"] == 2.5e9


def test_import_and_pattern_study_leave_numpy_random_unloaded(tmp_path):
    """A pattern study never draws, so neither ``import squintsim`` nor the study
    loads numpy.random (and the hashing modules it brings) into a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(squintsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys\nimport squintsim\nfrom squintsim.cli import main\n"
            "loaded = ['numpy.random' in sys.modules]\n"
            "assert main(['pattern', 'fig3', '--out-dir', sys.argv[1]]) == 0\n"
            "print(loaded + ['numpy.random' in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[False, False]"
    assert (tmp_path / "out" / "squint_sensitivity.csv").exists()


@pytest.mark.parametrize("section, key, value, field", [
    ("sensitivity", "l_top_h", 0.7e-9, "pattern.sensitivity.l_top_h"),
    ("sensitivity", "l_top_h", [], "pattern.sensitivity.l_top_h"),
    ("sensitivity", "l_top_h", [-1e-9], "pattern.sensitivity.l_top_h[0]"),
    ("sensitivity", "c_ranges_f", [], "pattern.sensitivity.c_ranges_f"),
    ("sensitivity", "c_ranges_f", [["a", 1e-12]], "pattern.sensitivity.c_ranges_f[0][0]"),
    ("sensitivity", "c_ranges_f", [[2e-12, 1e-12]], "pattern.sensitivity.c_ranges_f[0]"),
    ("sensitivity", "window_deg", "x", "pattern.sensitivity.window_deg"),
    ("sensitivity", "angle_step_deg", 0, "pattern.sensitivity.angle_step_deg"),
    ("sensitivity", "frequency_hz", -1, "pattern.sensitivity.frequency_hz"),
    ("pattern", "angle_start_deg", "abc", "pattern.angle_start_deg"),
    ("pattern", "angle_stop_deg", -90.0, "pattern.angle_stop_deg"),
    ("pattern", "angle_step_deg", 0, "pattern.angle_step_deg"),
    ("pattern", "reference_angle_deg", "x", "pattern.reference_angle_deg"),
    ("pattern", "reference_window_deg", float("nan"), "pattern.reference_window_deg"),
    # cuts of 1.8e9 angles: a raw MemoryError before
    ("pattern", "angle_step_deg", 1e-7, "pattern.angle_step_deg"),
    ("sensitivity", "angle_step_deg", 1e-7, "pattern.sensitivity.angle_step_deg"),
])
def test_pattern_bad_field_fails_at_load(tmp_path, capsys, section, key, value, field):
    cfg = preset_config("fig3")
    block = cfg["pattern"] if section == "pattern" else cfg["pattern"]["sensitivity"]
    block[key] = value
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "patterns"
    assert main(["pattern", str(path), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"config.{field} " in err
    assert not out_dir.exists()


@pytest.mark.parametrize("ris, pattern, fields", [
    ({"enabled": False}, {}, ["config.ris.enabled "]),
    ({"narrowband": True}, {},
     ["config.ris.narrowband ", "config.pattern.frequencies_hz[1] (2.52e+09 Hz)"]),
    # every listed carrier is the tuned one; the sensitivity sweep's probe is not
    ({"narrowband": True}, {"frequencies_hz": [2.5e9]},
     ["config.ris.narrowband ", "config.pattern.sensitivity.frequency_hz (2.75e+09 Hz)"]),
    ({"narrowband": True, "design_frequency_hz": 2.75e9}, {},
     ["config.ris.narrowband ", "config.pattern.frequencies_hz[0] (2.5e+09 Hz)"]),
], ids=["disabled", "narrowband", "narrowband-probe", "narrowband-design"])
def test_pattern_study_refuses_a_surface_that_scatters_nothing(tmp_path, capsys, ris, pattern,
                                                               fields):
    """A disabled surface, or a narrowband one off its tuned carrier, scatters nothing;
    fig3 reported the tuned surface's lobes (44.12, 43.26 and -46.32 deg) for both."""
    cfg = preset_config("fig3")
    cfg["ris"].update(ris)
    cfg["pattern"].update(pattern)
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "patterns"
    assert main(["pattern", str(path), "--out-dir", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert all(field in err for field in fields)
    assert not out_dir.exists()


def test_narrowband_pattern_study_at_its_tuned_carrier_runs(tmp_path, capsys):
    """A narrowband surface probed only at its tuned carrier, within 1e-6 of it, writes the
    files of the same study without the flag."""
    cfg = preset_config("fig3")
    cfg["pattern"]["frequencies_hz"] = [2.5e9]
    cfg["pattern"]["sensitivity"]["frequency_hz"] = 2.5e9 * (1 + 5e-7)
    for narrowband in (False, True):
        cfg["ris"]["narrowband"] = narrowband
        path = tmp_path / f"{narrowband}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["pattern", str(path), "--out-dir", str(tmp_path / str(narrowband))]) == 0
    names = sorted(p.name for p in (tmp_path / "False").iterdir())
    assert "squint_sensitivity.csv" in names
    assert names == sorted(p.name for p in (tmp_path / "True").iterdir())
    for name in names:
        assert (tmp_path / "True" / name).read_bytes() == (tmp_path / "False" / name).read_bytes()


# the position of a surface element of fig4d (10 x 10) and of fig3 (20 x 20)
ON_ELEMENT = [0.0299792458, 0.0, 0.0299792458]
FIG3_FEED = preset_config("fig3")["operators"][0]["bs"]["position"]


def set_field(cfg, path, value):
    """``cfg`` with the field at a dotted path (list indices as numbers) set."""
    node = cfg
    keys = path.split(".")
    for key in keys[:-1]:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    node[keys[-1]] = value
    return cfg


def hole_config(path, value):
    """fig4d at 2 realizations with a sweep block, one field set by its path."""
    cfg = preset_config("fig4d")
    cfg["realizations"] = 2
    cfg["sweep"] = {"element_counts": [4], "positions": [[0.0, 0.0, 0.0]]}
    return set_field(cfg, path, value)


def test_hole_base_config_loads():
    sc = load_scenario(hole_config("ris.rows", 10))
    assert sc.sweep_spec.element_counts == [4]


def test_largest_realization_count_loads():
    """2^32 realizations, counted and not run, keep every index within one seed word."""
    assert load_scenario(hole_config("realizations", 2**32)).realizations == 2**32


@pytest.mark.parametrize("path, value, field", [
    # raised a raw ValueError or TypeError before
    ("ris.rows", "abc", "ris.rows"),
    ("master_seed", "x", "master_seed"),
    ("ris.influence_band_hz", ["a", 2], "ris.influence_band_hz[0]"),
    ("noise.bandwidth_hz", -5, "noise.bandwidth_hz"),
    ("noise.bandwidth_hz", "x", "noise.bandwidth_hz"),
    ("channel.k_factor_db", "x", "channel.k_factor_db"),
    ("sweep.element_counts", ["a"], "sweep.element_counts[0]"),
    ("sweep.metrics", 5, "sweep.metrics"),
    # loaded without error before
    ("ris.rows", 2.7, "ris.rows"),
    ("ris.rows", 20.0, "ris.rows"),
    ("ris.plane", "ab", "ris.plane"),
    ("ris.element_pattern", "x", "ris.element_pattern"),
    ("ris.spacing_fraction", 0, "ris.spacing_fraction"),
    ("operators.0.power_w", -1, "operators[0].power_w"),
    ("operators.0.power_w", float("nan"), "operators[0].power_w"),
    ("operators.0.carrier_hz", "2.5e9", "operators[0].carrier_hz"),
    ("operators.0.carrier_hz", True, "operators[0].carrier_hz"),
    ("realizations", 2.9, "realizations"),
    ("realizations", True, "realizations"),
    ("ris.enabled", "no", "ris.enabled"),
    ("operators.0.ues.0.blocked", "false", "operators[0].ues[0].blocked"),
    ("noise.noise_figure_db", float("nan"), "noise.noise_figure_db"),
    ("channel.k_factor_db", float("nan"), "channel.k_factor_db"),
    ("operators.1.bs.antennas", 2.5, "operators[1].bs.antennas"),
    ("ris.design_frequency_hz", True, "ris.design_frequency_hz"),
    ("sweep.element_counts", [4.5], "sweep.element_counts[0]"),
    ("sweep.metrics", ["bogus"], "sweep.metrics[0]"),
    ("ris.owner", 5, "ris.owner"),
    # raised a raw ValueError in the pipeline before
    ("operators.1.bs.antennas", 1, "operators[1].bs.antennas"),
    ("operators.1.ues.0.position", ON_ELEMENT, "operators[1].ues[0].position"),
    ("operators.0.ues.0.position", ON_ELEMENT, "operators[0].ues[0].position"),
    # a raw _ArrayMemoryError in the pipeline before; counted at load now
    ("ris.rows", 10**7, "ris.rows"),
    ("operators.1.bs.antennas", 10**9, "operators[1].bs.antennas"),
    ("sweep.element_counts", [4, 10**12], "sweep.element_counts[1]"),
    # an empty or non-positive sweep grid
    ("sweep.element_counts", [], "sweep.element_counts"),
    ("sweep.element_counts", [0], "sweep.element_counts[0]"),
    ("sweep.positions", [], "sweep.positions"),
    # a noise power that underflows to zero (a raw ValueError before) or
    # overflows to infinity (every SINR 0 and exit 0 before)
    ("noise.density_dbm_per_hz", -4000, "noise"),
    ("noise.density_dbm_per_hz", 4000, "noise"),
    # a realization index past one uint32 seed word
    ("realizations", 2**32 + 1, "realizations"),
    # a raw OverflowError from the linear K ratio in the pipeline before
    ("channel.k_factor_db", 1e308, "channel.k_factor_db"),
    # an axis whose length underflows to 0 (a raw ValueError from Node before) or overflows
    # (an overflow warning, every antenna stacked on one point and exit 0 before)
    ("operators.1.bs.axis", [1e-320, 0.0, 0.0], "operators[1].bs.axis"),
    ("operators.1.bs.axis", [1e300, 0.0, 0.0], "operators[1].bs.axis"),
    ("operators.1.bs.axis", [1e308, 1e308, 0.0], "operators[1].bs.axis"),
    # pattern carriers that share a file name: one file held the later carrier's
    # pattern and the summary listed both against it before
    ("pattern.frequencies_hz", [2.5e9, 2.5004e9], "pattern.frequencies_hz[1]"),
    ("pattern.frequencies_hz", [2.5e9, 2.75e9, 2.5e9], "pattern.frequencies_hz[2]"),
])
def test_config_hole_fails_at_load(tmp_path, capsys, path, value, field):
    config = tmp_path / "fig4d.json"
    config.write_text(json.dumps(hole_config(path, value)), encoding="utf-8")
    out = tmp_path / "case.csv"
    assert main(["run", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"config.{field} " in err
    if field == "sweep.metrics[0]":
        assert "'degradation_ratio'" in err
    if field == "ris.owner":
        assert "role" not in err
    if field.startswith("pattern.frequencies_hz"):
        assert "file pattern_2.500GHz.csv as config.pattern.frequencies_hz[0]\n" in err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("command, preset, edits, where", [
    # a 1 x 1 surface on user u1; only the user, whose position is valid, was named before
    ("run", "fig1a", {"ris": {"rows": 1, "cols": 1, "position": [12.0, 16.0, 0.0]}},
     "config.operators[0].ues[0].position with the surface at config.ris.position"),
    # the 1-element surface of the sweep's second position on user t1
    ("sweep", "fig5", {"realizations": 2, "sweep": {"element_counts": [1, 9], "positions": [
        [30.0, 10.0, 0.0], [55.0, 15.0, 0.0]]}},
     "config.operators[0].ues[0].position with the 1-element surface at "
     "config.sweep.positions[1]"),
    ("pattern", "fig3", {"ris": {"rows": 1, "cols": 1, "position": [3.0, 3.0, 0.0]}},
     "config.operators[0].ues[0].position with the surface at config.ris.position"),
])
def test_failed_surface_link_names_the_surface(tmp_path, capsys, command, preset, edits,
                                               where):
    cfg = preset_config(preset)
    for key, value in edits.items():
        cfg[key] = {**cfg[key], **value} if key == "ris" else value
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = ["--out-dir", str(tmp_path / "patterns")] if command == "pattern" else \
        ["--out", str(tmp_path / "out.csv")]
    assert main([command, str(config), *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: {where} cannot be evaluated: "
                            "tx and rx antennas coincide\n")
    assert list(tmp_path.iterdir()) == [config]


def test_sweep_names_its_first_failing_link(tmp_path, capsys):
    """Of two failing links, the one named is the first of the case-by-case order: case
    by case, each case's BS link before its UEs'. The 1- and 9-element surfaces of the
    second position lie on victim n1, and those of the third on an antenna of its BS,
    whose link a single call over every case meets first."""
    cfg = preset_config("fig5")
    victim = cfg["operators"][1]
    antenna = Node(position=victim["bs"]["position"], n_antennas=victim["bs"]["antennas"])
    cfg["realizations"] = 2
    cfg["sweep"] = {"element_counts": [1, 9], "positions": [
        [30.0, 10.0, 0.0], victim["ues"][0]["position"],
        antenna.antenna_positions(victim["carrier_hz"])[0].tolist()]}
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["sweep", str(config), "--out", str(tmp_path / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: config.operators[1].ues[0].position with the "
                            "1-element surface at config.sweep.positions[1] cannot be "
                            "evaluated: tx and rx antennas coincide\n")
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("path, value", [
    ("ris.rows", 10**7), ("operators.1.bs.antennas", 10**9),
    ("sweep.element_counts", [4, 10**12])])
def test_oversized_run_is_rejected_without_allocating(path, value):
    """The per-realization size is counted, so rejecting it allocates nothing."""
    cfg = hole_config(path, value)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="channel terms per realization"):
            load_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("feed, position, field", [
    (True, ON_ELEMENT, "operators[0].bs.position"),
    (False, ON_ELEMENT, "operators[0].ues[0].position"),
    # the target collinear with the feed and the surface centre
    (False, [100.0, -100.0, 36.0], "pattern.cut_plane"),
    # the target at the surface centre leaves an array-u cut no radius
    (False, [0.0, 0.0, 0.0], "pattern.cut_radius"),
    # cosine elements scatter nothing from fig3's own feed, which is behind the surface
    (True, FIG3_FEED, "operators[0].bs.position"),
])
def test_pattern_geometry_fails_as_config_error(tmp_path, capsys, feed, position, field):
    cfg = preset_config("fig3")
    op = cfg["operators"][0]
    (op["bs"] if feed else op["ues"][0])["position"] = position
    if field == "pattern.cut_radius":
        cfg["pattern"]["cut_plane"] = "array-u"
    if position == FIG3_FEED:
        cfg["ris"]["element_pattern"] = "cosine"
    config = tmp_path / "fig3.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "patterns"
    assert main(["pattern", str(config), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"config.{field} " in err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("command, path, value, named", [
    # a raw ValueError from ChannelSet before
    ("run", "operators.0.carrier_hz", 1e-300, "config.operators[0].bs.position"),
    ("run", "ris.spacing_fraction", 1e300, "config.operators[0].bs.position"),
    ("run", "operators.0.bs.spacing_fraction", 1e300, "config.operators[0].bs.position"),
    ("run", "operators.0.ues.0.position", [1e308, 1e308, 0.0],
     "config.operators[0].ues[0].position"),
    # NaN in every pattern CSV and exit 0 before
    ("pattern", "ris.circuit.l_top_h", 1e300, "element circuit"),
    # numpy overflow warnings on stderr before the message
    ("pattern", "ris.spacing_fraction", 1e300, "config.operators[0].bs.position"),
    ("pattern", "ris.position", [1e308, 1e308, 0.0], "config.operators[0].bs.position"),
    # two numpy overflow warnings on stderr before the message
    ("run", "operators.0.power_w", 1e308, "SINR is not finite"),
    # finite SINRs whose Monte-Carlo sum overflows: a numpy overflow warning, then
    # the export's finite check. At these 2 realizations that happens from about
    # 1.4e305 up to 2.5e305, where link_metrics reports the SINR itself
    ("run", "operators.0.power_w", 1.9e305, "the mean SINR of UE 'u1' is not finite"),
])
def test_overflowing_scene_fails_as_numerical_error(tmp_path, capsys, command, path, value,
                                                    named):
    """Finite but extreme scales exit 3, say where, print no warning and write nothing."""
    cfg = hole_config(path, value) if command == "run" else \
        set_field(preset_config("fig3"), path, value)
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = ["--out", str(tmp_path / "case.csv")] if command == "run" else \
        ["--out-dir", str(tmp_path / "patterns")]
    assert main([command, str(config), *out]) == 3
    err = capsys.readouterr().err
    *warned, last = err.splitlines()
    assert last.startswith("numerical failure: ")
    assert named in last
    # a near-zero carrier also leaves the influence band, which is a ConfigWarning
    assert all(line.startswith("warning: operator ") for line in warned)
    assert not warned or path == "operators.0.carrier_hz"
    assert list(tmp_path.iterdir()) == [config]


def test_overflowing_power_prints_nothing_to_stdout(tmp_path, capsys):
    """Stdout got Infinity and NaN with exit 0 before."""
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(hole_config("operators.0.power_w", 1e308)), encoding="utf-8")
    assert main(["run", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: SINR is not finite")
    assert captured.err.count("\n") == 1


def test_stdout_table_refuses_non_finite_values(tmp_path, capsys, monkeypatch):
    """Whatever makes a result non-finite, stdout gets no Infinity or NaN."""
    import squintsim.cli as cli
    case = run_case(load_scenario(hole_config("realizations", 1)))
    monkeypatch.setattr(cli, "run_case", lambda *args, **kwargs: replace(
        case, degradation_stderr=float("nan")))
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(hole_config("realizations", 1)), encoding="utf-8")
    assert main(["run", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: the result table holds a NaN or "
                            "infinite value\n")


def test_large_power_runs_without_warnings(tmp_path, capsys):
    """The SINR rows' unused standard error overflowed and warned before."""
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(hole_config("operators.0.power_w", 1e300)), encoding="utf-8")
    assert main(["run", str(config), "--out", str(tmp_path / "case.csv")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_config_error(tmp_path, capsys, command, workers):
    """Ran serially with exit 0 before."""
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(hole_config("realizations", 1)), encoding="utf-8")
    out = tmp_path / "case.csv"
    assert main([command, str(config), "--out", str(out), "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: --workers must be at least 1, got {workers}\n"
    assert not out.exists()


def zero_pattern_config():
    """Cosine elements whose whole cut lies behind the surface: every angle scatters nothing."""
    cfg = preset_config("fig3")
    cfg["ris"]["element_pattern"] = "cosine"
    cfg["operators"][0]["bs"]["position"] = [50.0, 50.0, 18.0]
    cfg["pattern"].update(angle_start_deg=95.0, angle_stop_deg=170.0, reference_angle_deg=None)
    return cfg


def tiny_cut_config():
    """A cut so close to the center element of an odd grid that its power overflows."""
    cfg = set_field(preset_config("fig3"), "pattern.cut_radius", 1e-158)
    cfg["ris"].update(rows=21, cols=21)
    cfg["pattern"].update(reference_angle_deg=None, sensitivity=None)
    return cfg


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("cfg, code, named", [
    # the second case overflows the element circuit; the first left a partial --out-dir
    (set_field(preset_config("fig3"), "pattern.sensitivity.l_top_h", [4e-10, 1e300]), 3,
     ["numerical failure: ", "element circuit"]),
    # a raw ValueError and an empty --out-dir before
    (zero_pattern_config(), 2,
     ["config error: ", "config.pattern.angle_start_deg ", "angle_stop_deg "]),
    # these two wrote all-NaN patterns, exited 0 and printed numpy's overflow warnings before
    (set_field(preset_config("fig3"), "pattern.cut_radius", 1e300), 3,
     ["numerical failure: ", "config.pattern.cut_radius", "pattern power is not finite"]),
    (tiny_cut_config(), 3,
     ["numerical failure: ", "config.pattern.cut_radius", "pattern power is not finite"]),
], ids=["sensitivity-overflow", "zero-pattern", "huge-cut-radius", "tiny-cut-radius"])
def test_failing_pattern_study_writes_nothing(tmp_path, capsys, cfg, code, named, existing):
    config = tmp_path / "fig3.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "patterns"
    if existing:
        out_dir.mkdir()
        (out_dir / "sentinel.txt").write_text("kept", encoding="utf-8")
    assert main(["pattern", str(config), "--out-dir", str(out_dir)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert all(part in err for part in named) and err.startswith(named[0])
    if existing:
        assert [p.name for p in out_dir.iterdir()] == ["sentinel.txt"]
        assert (out_dir / "sentinel.txt").read_text(encoding="utf-8") == "kept"
    else:
        assert not out_dir.exists()


def test_extreme_loss_resistance_runs_without_warnings(tmp_path, capsys):
    """The varactor inversion's coefficients overflowed outside its errstate and warned before;
    the output was right: the reachable arc shrinks to a point, so every element is clamped."""
    config = tmp_path / "fig3.json"
    config.write_text(json.dumps(set_field(preset_config("fig3"), "ris.circuit.r_loss_ohm",
                                           1e300)), encoding="utf-8")
    assert main(["pattern", str(config), "--out-dir", str(tmp_path / "patterns")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["clamped_fraction"] == 1.0


def test_config_warning_is_one_line(tmp_path, capsys):
    cfg = hole_config("ris.influence_band_hz", [2.4e9, 2.55e9])
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", str(config), "--out", str(tmp_path / "case.csv")]) == 0
    assert capsys.readouterr().err == (
        "warning: operator 'opB' carrier 2.6e+09 Hz lies outside the surface influence "
        "band [2.4e+09, 2.55e+09] Hz declared in config.ris.influence_band_hz; the frozen "
        "surface's scattering there is still computed from its circuit\n")


def test_unknown_config_arg(capsys):
    assert main(["run", "no_such_thing"]) == 2
    err = capsys.readouterr().err
    assert "neither a config file nor one of the presets" in err
    assert "fig1a" in err


def test_malformed_json_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text", [b'{"operators": "\xe9"}',
                                  b'{"master_seed": ' + b"1" * 5000 + b"}",
                                  b"[" * 100000],
                         ids=["not-utf8", "long-integer", "deep-nesting"])
def test_undecodable_json_file(tmp_path, capsys, text):
    """Bytes that are not UTF-8, an integer past Python's digit limit and a nesting
    deeper than the recursion limit are config errors, not tracebacks."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    assert main(["run", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("config error: config is not valid JSON")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(text)


def test_config_file_with_a_utf8_bom_loads(tmp_path):
    path = small_config_file(tmp_path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(["run", str(path), "--out", str(tmp_path / "out.csv")]) == 0


def test_correlated_channels_exit_code(capsys):
    assert main(["run", "fig1c"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_preset_dump_round_trip(capsys):
    assert main(["preset", "dump", "fig4d"]) == 0
    text = capsys.readouterr().out
    sc = load_scenario(text)
    assert sc.master_seed == 40404
    assert json.loads(text)["ris"]["influence_band_hz"] == [2.2e9, 2.8e9]


def test_preset_dump_unknown(capsys):
    assert main(["preset", "dump", "fig99"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_preset_unknown_action_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["preset", "foo", "fig1a"])
    assert exc.value.code == 2
    assert "invalid choice: 'foo'" in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("squintsim ")


def test_out_path_unwritable(tmp_path, capsys):
    cfg = small_config_file(tmp_path)
    missing = tmp_path / "no_dir" / "case.csv"
    assert main(["run", str(cfg), "--out", str(missing)]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["manifest-name-too-long", "out-is-a-directory",
                                    "manifest-is-a-directory"])
def test_failed_export_leaves_no_new_file(tmp_path, capsys, target):
    """A 250-character --out wrote the CSV, then failed on its manifest, before."""
    cfg = small_config_file(tmp_path)
    out = tmp_path / ("c" * 246 + ".csv" if target == "manifest-name-too-long" else "case.csv")
    if target == "out-is-a-directory":
        out.mkdir()
    elif target == "manifest-is-a-directory":
        (tmp_path / "case.csv.manifest.json").mkdir()
    before = sorted(tmp_path.iterdir())
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error: ") and captured.err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before
    assert all(not p.is_dir() or not any(p.iterdir()) for p in before)


def test_failed_export_keeps_an_existing_out(tmp_path, capsys):
    """A manifest path that is a directory fails the export before an existing --out
    is replaced; the payload was written over it, before."""
    cfg = small_config_file(tmp_path)
    out = tmp_path / "case.csv"
    out.write_text("old\n", encoding="utf-8")
    (tmp_path / "case.csv.manifest.json").mkdir()
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert out.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [cfg.name, "case.csv", "case.csv.manifest.json"])


@pytest.mark.parametrize("args, folder, first, written", [
    (["run", "fig1a", "--out", "case.csv"], ".", "case.csv",
     ["case.csv", "case.csv.manifest.json"]),
    (["pattern", "fig3", "--out-dir", "patterns"], "patterns", "pattern_summary.json",
     ["pattern_2.500GHz.csv", "pattern_2.520GHz.csv", "pattern_2.750GHz.csv",
      "pattern_summary.json", "squint_sensitivity.csv"]),
], ids=["run", "pattern"])
def test_export_keeps_files_named_like_its_temporaries(tmp_path, capsys, args, folder, first,
                                                       written):
    """A file named like a temporary was deleted by the export it belonged to, before."""
    folder = tmp_path / folder
    folder.mkdir(exist_ok=True)
    hidden = [f".{first}.tmp", f".{first}.0.tmp", f".{first}.1.tmp"]
    for name in hidden:
        (folder / name).write_text("mine", encoding="utf-8")
    assert main(args[:-1] + [str(tmp_path / args[-1])]) == 0
    assert sorted(p.name for p in folder.iterdir()) == sorted(hidden + written)
    assert all((folder / name).read_text(encoding="utf-8") == "mine" for name in hidden)


def test_exported_files_have_the_mode_of_a_plain_open(tmp_path, capsys):
    umask = os.umask(0o022)
    try:
        with open(tmp_path / "plain.txt", "w", encoding="utf-8"):
            pass
        assert main(["run", "fig1a", "--out", str(tmp_path / "case.csv")]) == 0
    finally:
        os.umask(umask)
    mode = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
    for name in ("case.csv", "case.csv.manifest.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


# --- what byte-identical covers -------------------------------------------------

# fig4d's run, a 30-realization fig5 sweep, each as CSV and JSON, and fig3's study
CPU_STUDIES = [["run", "fig4d", "--out", "fig4d.csv"],
               ["run", "fig4d", "--out", "fig4d.json", "--format", "json"],
               ["sweep", "fig5_30.json", "--out", "fig5.csv"],
               ["sweep", "fig5_30.json", "--out", "fig5.json", "--format", "json"],
               ["pattern", "fig3", "--out-dir", "fig3"]]
CPU_VARIANTS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def dispatched_features() -> list:
    """The CPU features numpy dispatches to on this machine."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def cli_exports(folder, variant=None):
    """The exports of ``CPU_STUDIES`` from a child interpreter in ``folder``, with one
    environment variable of ``CPU_VARIANTS`` set as ``variant`` gives it; skips when an
    interpreter so set cannot start numpy and a BLAS product."""
    src = os.path.dirname(os.path.dirname(squintsim.__file__))
    env = {k: v for k, v in os.environ.items() if k not in CPU_VARIANTS}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.update(variant or {})
    probe = subprocess.run([sys.executable, "-c", "import numpy as np; "
                            "print(float(np.ones((64, 64)) @ np.ones(64) @ np.ones(64)))"],
                           env=env, capture_output=True, text=True)
    if probe.returncode:
        pytest.skip(f"{variant} cannot start: {probe.stderr.strip()[-300:]}")
    folder.mkdir()
    cfg = preset_config("fig5")
    cfg["realizations"] = 30
    (folder / "fig5_30.json").write_text(json.dumps(cfg), encoding="utf-8")
    code = "import json, sys\nfrom squintsim.cli import main\n" \
           "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))"
    run = subprocess.run([sys.executable, "-c", code, json.dumps(CPU_STUDIES)], cwd=folder,
                         env=env, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [0] * len(CPU_STUDIES), run.stderr
    return {p.relative_to(folder).as_posix(): p for p in folder.rglob("*")
            if p.is_file() and p.name != "fig5_30.json"}


def numbers_agree(a, b, close) -> bool:
    """Two parsed JSON documents of one structure, their strings equal and their
    numbers ``close``."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            numbers_agree(a[k], b[k], close) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            numbers_agree(x, y, close) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, (int, float)):
        return close(a, b)
    return a == b


@pytest.fixture(scope="module")
def default_exports(tmp_path_factory):
    return cli_exports(tmp_path_factory.mktemp("cpu") / "default")


@pytest.mark.parametrize("name", CPU_VARIANTS)
def test_exports_agree_across_cpu_kernels(default_exports, tmp_path, name):
    """Exports are byte-identical on one machine and numpy/BLAS build, not across
    kernels: under another OpenBLAS kernel or with numpy's SIMD dispatch turned off,
    fig4d's and fig5's CSVs keep every byte, their JSON numbers agree within 1e-10
    relative, and fig3's lobes within 1e-9 degrees."""
    features = dispatched_features()
    if name == "NPY_DISABLE_CPU_FEATURES" and not features:
        pytest.skip("numpy dispatches to no CPU feature here")
    value = "Haswell" if name == "OPENBLAS_CORETYPE" else " ".join(features)
    exports = cli_exports(tmp_path / "variant", {name: value})
    assert exports.keys() == default_exports.keys()
    for path in ("fig4d.csv", "fig5.csv"):
        assert exports[path].read_bytes() == default_exports[path].read_bytes(), path
    for path in (p for p in exports if p.endswith(".json")):
        lobes = path.startswith("fig3/")
        assert numbers_agree(json.loads(default_exports[path].read_text(encoding="utf-8")),
                             json.loads(exports[path].read_text(encoding="utf-8")),
                             (lambda a, b: abs(a - b) <= 1e-9) if lobes else
                             (lambda a, b: math.isclose(a, b, rel_tol=1e-10))), path


# exported functions that no command reaches, each for its reason
UNREACHED = {
    "reflected_field",      # criterion 4 is stated on it
    "weighted_sum_power",   # the benchmark tracer binds it (ROADMAP item 7)
}


def test_every_exported_function_but_two_runs_on_a_cli_path(tmp_path, capsys):
    """The library is what the CLI runs: ``run`` on fig4d with zero-forcing and with
    MRT precoders, ``sweep`` fig5, ``pattern`` fig3, ``boi`` and ``preset dump`` call
    every function that ``squintsim`` exports, but the two named in UNREACHED."""
    exported = {getattr(squintsim, name).__code__: name for name in squintsim.__all__
                if inspect.isfunction(getattr(squintsim, name))}
    configs = {}
    for name, realizations, precoder in (("fig4d", 20, None), ("fig4d", 20, "mrt"),
                                         ("fig5", 5, None)):
        cfg = preset_config(name)
        cfg["realizations"] = realizations
        for op in cfg["operators"] if precoder else []:
            op["precoder"] = precoder
        configs[name, precoder] = tmp_path / f"{name}_{precoder}.json"
        configs[name, precoder].write_text(json.dumps(cfg), encoding="utf-8")
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in exported:
            reached.add(exported[frame.f_code])

    sys.setprofile(profile)
    try:
        codes = [main(["run", str(configs["fig4d", None]), "--out", str(tmp_path / "zf.csv")]),
                 main(["run", str(configs["fig4d", "mrt"]), "--out", str(tmp_path / "mrt.csv")]),
                 main(["sweep", str(configs["fig5", None]), "--out", str(tmp_path / "fig5.csv")]),
                 main(["pattern", "fig3", "--out-dir", str(tmp_path / "fig3")]),
                 main(["boi", "2.4e9", "2.6e9"]), main(["preset", "dump", "fig1a"])]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * 6
    assert set(exported.values()) - reached == UNREACHED
