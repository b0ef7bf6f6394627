"""Spans and counts around squintsim's public functions, from outside the package.

Each traced function is wrapped once and the wrapper is bound in place of
the original in every module that calls it by name, so a call made inside
the package (``engine.sweep`` calling ``run_case``) passes through the
wrapper too. A span is ``[name, start, end, parent]`` in ``perf_counter``
seconds; spans stay in memory until the benchmark writes them out.

Counts are taken at the same boundaries from arguments and results only:
no program code is changed to produce them.
"""

import importlib
import sys
import time
from collections import Counter

import numpy as np


def _ascent(counts, args, kwargs, result):
    # engine passes an OptimizationLog as ``log=``; its trace has one entry
    # before the first sweep and one after each sweep
    log = kwargs.get("log")
    if log is not None:
        counts["tuning.ascent_sweeps"] += len(log.objectives) - 1
        counts["tuning.ascent_converged"] += int(bool(log.converged))


def _inverted(counts, args, kwargs, result):
    target = args[0] if args else kwargs["target_phase"]
    counts["circuit.elements_inverted"] += int(np.size(target))


def _clamped(counts, args, kwargs, result):
    counts["circuit.elements_clamped"] += len(result.clamp_report)


def _los_entries(counts, args, kwargs, result):
    counts["channels.los_entries"] += int(np.size(result))


def _pattern_points(counts, args, kwargs, result):
    array = args[0] if args else kwargs["array"]
    counts["array_field.pattern_points"] += array.n_elements * len(result)


# (defining module, function, modules that call it by that name, count hook)
TRACED = (
    ("cli", "main", ("cli",), None),
    ("presets", "preset_config", ("presets",), None),
    ("presets", "load_preset", ("presets", "cli"), None),
    ("engine", "load_scenario", ("engine", "cli", "presets"), None),
    ("engine", "sweep", ("engine", "cli"), None),
    ("engine", "run_case", ("engine", "cli"), None),
    ("engine", "run_pattern", ("engine", "cli"), None),
    ("engine", "squint_sensitivity_report", ("engine",), None),
    ("engine", "export_results", ("engine", "cli"), None),
    ("engine", "derive_seed", ("engine",), None),
    ("array_field", "build_array", ("engine",), None),
    ("array_field", "directivity_pattern", ("engine",), _pattern_points),
    ("array_field", "main_lobe_angle", ("engine",), None),
    ("array_field", "pattern_to_csv", ("engine",), None),
    ("channels", "los_channel", ("engine",), _los_entries),
    ("channels", "effective_channel", ("engine",), None),
    ("precoding", "noise_power", ("engine",), None),
    ("precoding", "zf_precoder", ("engine",), None),
    ("precoding", "mrt_precoder", ("engine",), None),
    ("precoding", "link_metrics", ("engine",), None),
    ("tuning", "optimize_weighted_sum_power", ("engine",), _ascent),
    ("tuning", "align_phases_single_target", ("engine",), None),
    ("tuning", "realize_capacitances", ("engine",), _clamped),
    ("tuning", "weighted_sum_power", ("tuning",), None),
    ("tuning", "evaluate_off_frequency", ("engine",), None),
    ("circuit", "phase_to_capacitance", ("tuning",), _inverted),
    ("circuit", "element_reflection", ("tuning",), None),
)


class Tracer:
    """Records spans and counts while installed; restores every binding on removal."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._bindings = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[name + ".failed"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                tracer.counts[name + ".calls"] += 1
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Bind a wrapper for every traced function; report call sites not found."""
        missing = []
        for module_name, attr, callers, hook in TRACED:
            fn = getattr(importlib.import_module("squintsim." + module_name), attr)
            wrapper = self._wrap(f"{module_name}.{attr}", fn, hook)
            for caller in callers:
                module = importlib.import_module("squintsim." + caller)
                if getattr(module, attr, None) is fn:
                    self._bindings.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                else:
                    missing.append(f"{caller}.{attr}")
        if missing:
            print("trace: no binding to wrap at " + ", ".join(missing), file=sys.stderr)

    def remove(self):
        for module, attr, fn in reversed(self._bindings):
            setattr(module, attr, fn)
        self._bindings = []


def self_times(spans) -> list:
    """Each span's duration minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - child for (_, start, end, _), child in zip(spans, covered)]
