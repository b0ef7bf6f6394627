"""Fault injection: whichever traced function fails, the CLI fails closed.

Each entry of the benchmark tracer's wrap list below ``cli.main`` is rebound,
in every module that calls it by name, to a function that raises a
ConfigError or a NumericalError. Every command that reaches it must then
exit 2 or 3 with exactly one error line, print nothing to stdout and leave
the output path as it was.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from squintsim import ConfigError, NumericalError
from squintsim.cli import main
from squintsim.presets import preset_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# a public function that no command calls; the ascent does not use it
UNCALLED = {("tuning", "weighted_sum_power")}


def traced_entries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [entry[:3] for entry in module.TRACED if entry[:2] != ("cli", "main")]


ENTRIES = traced_entries()


def scene_config():
    """fig1a's surface and owner beside an MRT operator, with Rician scatter, a two-case
    sweep and a coarse pattern study whose lobe misses its reference angle."""
    cfg = preset_config("fig1a")
    cfg["realizations"] = 2
    cfg["channel"] = {"k_factor_db": 10.0}
    cfg["operators"].append({
        "id": "op2", "carrier_hz": 2.6e9, "precoder": "mrt",
        "bs": {"position": [10.0, 20.0, 0.0], "antennas": 4},
        "ues": [{"id": "v1", "position": [5.0, 12.0, 0.0], "role": "non-target"}]})
    cfg["sweep"] = {"element_counts": [16, 64], "positions": [[0.0, 0.0, 0.0]]}
    cfg["pattern"] = {
        "frequencies_hz": [2.5e9, 2.6e9], "angle_step_deg": 2.0,
        "reference_angle_deg": -80.0, "reference_window_deg": 1.0,
        "sensitivity": {"frequency_hz": 2.6e9, "angle_step_deg": 2.0, "l_top_h": [0.7e-9],
                        "c_ranges_f": [[0.47e-12, 2.35e-12], [0.6e-12, 2.0e-12]]}}
    return cfg


COMMANDS = ("run", "sweep", "pattern", "preset")


def command_args(command, config, out):
    """The argv of one command, writing below ``out``; presets are reached by name."""
    return {
        "run": ["run", config, "--out", str(out / "case.csv")],
        "sweep": ["sweep", config, "--out", str(out / "sweep.json"), "--format", "json"],
        "pattern": ["pattern", config, "--out-dir", str(out / "patterns")],
        "preset": ["run", "fig1a", "--out", str(out / "preset.csv")],
    }[command]


def rebind(mp, entry, fn):
    """Bind ``fn`` in place of the entry in every module that calls it by name."""
    _, attr, callers = entry
    for caller in callers:
        mp.setattr(importlib.import_module("squintsim." + caller), attr, fn)


def snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """Per command, the entries it calls when nothing fails."""
    root = tmp_path_factory.mktemp("reach")
    config = root / "scene.json"
    config.write_text(json.dumps(scene_config()), encoding="utf-8")
    calls = {}
    for command in COMMANDS:
        called = set()
        with pytest.MonkeyPatch.context() as mp:
            for entry in ENTRIES:
                fn = getattr(importlib.import_module("squintsim." + entry[0]), entry[1])

                def counted(*args, _entry=entry, _fn=fn, **kwargs):
                    called.add(_entry[:2])
                    return _fn(*args, **kwargs)

                rebind(mp, entry, counted)
            out = root / command
            out.mkdir()
            assert main(command_args(command, str(config), out)) == 0, command
        calls[command] = called
    return calls


def test_every_entry_fires_in_some_command(reached):
    unreached = {entry[:2] for entry in ENTRIES} - set().union(*reached.values())
    assert unreached == UNCALLED


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError, 2, "config error: "), (NumericalError, 3, "numerical failure: ")],
    ids=["config", "numerical"])
@pytest.mark.parametrize("entry", [e for e in ENTRIES if e[:2] not in UNCALLED],
                         ids=[".".join(e[:2]) for e in ENTRIES if e[:2] not in UNCALLED])
def test_injected_failure_fails_closed(reached, tmp_path, capsys, entry, error, code, prefix):
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(scene_config()), encoding="utf-8")
    message = f"injected into {entry[0]}.{entry[1]}"
    for command in [c for c in COMMANDS if entry[:2] in reached[c]]:
        out = tmp_path / command
        out.mkdir()
        (out / "case.csv").write_text("kept\n", encoding="utf-8")
        before = snapshot(out)
        fired = []

        def failing(*args, **kwargs):
            fired.append(True)
            raise error(message)

        with pytest.MonkeyPatch.context() as mp:
            rebind(mp, entry, failing)
            assert main(command_args(command, str(config), out)) == code, command
        captured = capsys.readouterr()
        assert fired, command
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.err.startswith(prefix) and message in captured.err
        assert snapshot(out) == before, command


@pytest.mark.parametrize("out_dir", ["c", "a/b"], ids=["existing-file", "nested-new-dir"])
def test_failed_pattern_write_leaves_no_change(tmp_path, capsys, monkeypatch, out_dir):
    """An OSError from the second pattern file leaves every file and directory as it was:
    an existing ``pattern_2.500GHz.csv`` keeps its content, no temporary file stays, and
    the missing parents of a nested ``--out-dir`` are removed with it."""
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(scene_config()), encoding="utf-8")
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / "pattern_2.500GHz.csv").write_text("old\n", encoding="utf-8")
    before = snapshot(tmp_path)
    written = []

    def second_fails(path, *args, **kwargs):
        written.append(path)
        if len(written) == 2:
            raise OSError(f"injected into the write of {path}")
        return open(path, *args, **kwargs)

    engine = importlib.import_module("squintsim.engine")
    monkeypatch.setattr(engine, "open", second_fails, raising=False)
    assert main(["pattern", str(config), "--out-dir", str(tmp_path / out_dir)]) == 3
    captured = capsys.readouterr()
    assert len(written) == 2
    assert captured.out == "" and captured.err.startswith("i/o error: injected")
    assert snapshot(tmp_path) == before
