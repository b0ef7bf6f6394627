"""Command-line interface: subcommands, outputs, exit codes."""

import json

import pytest

from squintsim import load_scenario
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


# the position of a surface element of fig4d (10 x 10) and of fig3 (20 x 20)
ON_ELEMENT = [0.0299792458, 0.0, 0.0299792458]


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
])
def test_config_hole_fails_at_load(tmp_path, capsys, path, value, field):
    config = tmp_path / "fig4d.json"
    config.write_text(json.dumps(hole_config(path, value)), encoding="utf-8")
    out = tmp_path / "case.csv"
    assert main(["run", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"config.{field} " in err
    if field == "sweep.metrics[0]":
        assert "'degradation_ratio'" in err
    if field == "ris.owner":
        assert "role" not in err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("feed, position, field", [
    (True, ON_ELEMENT, "operators[0].bs.position"),
    (False, ON_ELEMENT, "operators[0].ues[0].position"),
    # the target collinear with the feed and the surface centre
    (False, [100.0, -100.0, 36.0], "pattern.cut_plane"),
])
def test_pattern_geometry_fails_as_config_error(tmp_path, capsys, feed, position, field):
    cfg = preset_config("fig3")
    op = cfg["operators"][0]
    (op["bs"] if feed else op["ues"][0])["position"] = position
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
    assert list(tmp_path.iterdir()) == [config]


def test_config_warning_is_one_line(tmp_path, capsys):
    cfg = hole_config("ris.influence_band_hz", [2.4e9, 2.55e9])
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", str(config), "--out", str(tmp_path / "case.csv")]) == 0
    assert capsys.readouterr().err == (
        "warning: operator 'opB' carrier 2.6e+09 Hz lies outside the surface influence "
        "band [2.4e+09, 2.55e+09] Hz; scattering impact there is negligible\n")


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
