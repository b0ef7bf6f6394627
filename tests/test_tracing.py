"""The benchmark tracer's wrap list still names functions the package calls by name,
and its count hooks still read what those functions return."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from squintsim.cli import main
from squintsim.presets import preset_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# every counter a count hook adds to
HOOK_COUNTERS = ("tuning.ascent_sweeps", "tuning.ascent_converged",
                 "circuit.elements_inverted", "circuit.elements_clamped",
                 "channels.los_entries", "array_field.pattern_points")


def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_entries():
    return tracing().TRACED


def bindings(traced) -> dict:
    """What each caller module binds under each traced name."""
    return {(caller, attr): getattr(importlib.import_module("squintsim." + caller), attr)
            for _, attr, callers, _ in traced for caller in callers}


@pytest.mark.parametrize("module_name, attr, callers",
                         [entry[:3] for entry in traced_entries()])
def test_traced_function_is_bound_by_each_caller(module_name, attr, callers):
    """A deleted or renamed function, or a caller that stopped importing it,
    would leave the tracer a 'no binding' line and a counter reading 0."""
    fn = getattr(importlib.import_module("squintsim." + module_name), attr, None)
    assert callable(fn), f"squintsim.{module_name} has no function {attr}"
    for caller in callers:
        bound = getattr(importlib.import_module("squintsim." + caller), attr, None)
        assert bound is fn, f"squintsim.{caller} does not bind {module_name}.{attr}"


def test_count_hooks_read_what_the_cli_runs(tmp_path, capsys):
    """A field a hook reads, deleted or renamed, would break the benchmark's traced runs
    unseen: ``run`` fig4d at 20 realizations, ``sweep`` fig5 at 5 and ``pattern`` fig3
    pass through every hook, each counter reads above zero, and removal restores every
    binding. The counts' values are not checked."""
    module = tracing()
    before = bindings(module.TRACED)
    paths = {}
    for name, realizations in (("fig4d", 20), ("fig5", 5)):
        cfg = preset_config(name)
        cfg["realizations"] = realizations
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(cfg), encoding="utf-8")
    tracer = module.Tracer()
    tracer.install()
    try:
        codes = [main(["run", str(paths["fig4d"])]), main(["sweep", str(paths["fig5"])]),
                 main(["pattern", "fig3", "--out-dir", str(tmp_path / "fig3")])]
    finally:
        tracer.remove()
    assert codes == [0, 0, 0]
    assert "no binding" not in capsys.readouterr().err
    hooked = [f"{module_name}.{attr}" for module_name, attr, _, hook in module.TRACED if hook]
    assert all(tracer.counts[name + ".calls"] > 0 for name in hooked)
    assert {name: tracer.counts[name] for name in HOOK_COUNTERS if tracer.counts[name] <= 0} == {}
    assert not [name for name in tracer.counts if name.endswith(".failed")]
    after = bindings(module.TRACED)
    assert all(after[key] is fn for key, fn in before.items())
