"""Simulator of cross-operator interference from a tunable reflective surface.

A surface tuned to focus one operator's carrier keeps scattering at every
other frequency; this package models the element circuit behind that
effect, the tuned array's re-radiated field, the perturbed multi-antenna
channels, and the resulting spectral-efficiency cost to users the surface
was never meant to serve.
"""

from ._version import __version__
from .array_field import (PatternCut, RisArray, ScatteringState, build_array,
                          directivity_pattern, main_lobe_angle, pattern_to_csv,
                          reflected_field)
from .channels import ChannelSet, Node, effective_channel, freespace_pathloss, los_channel
from .circuit import CircuitParams, element_reflection, phase_to_capacitance
from .engine import (CaseMetrics, OperatorConfig, RisConfig, Scenario, SweepSpec,
                     UeConfig, derive_seed, export_results, fractional_boi,
                     grid_shape, load_scenario, run_case, run_pattern, sweep)
from .errors import (ConfigError, ConfigWarning, CorrelatedChannelsError,
                     DegenerateChannelError, FrequencyMismatchError,
                     NumericalError, SquintSimError)
from .precoding import (LinkMetrics, PrecodeResult, link_metrics, mrt_precoder,
                        noise_power, zf_precoder)
from .presets import PRESET_NAMES, load_preset, preset_config, preset_text
from .tuning import (OptimizationLog, TuningResult, align_phases_single_target,
                     evaluate_off_frequency, optimize_weighted_sum_power,
                     realize_capacitances, weighted_sum_power)

__all__ = [
    "__version__",
    # circuit
    "CircuitParams", "element_reflection", "phase_to_capacitance",
    # array field
    "RisArray", "ScatteringState", "PatternCut",
    "build_array", "reflected_field",
    "directivity_pattern", "main_lobe_angle", "pattern_to_csv",
    # channels
    "Node", "ChannelSet", "freespace_pathloss", "los_channel", "effective_channel",
    # precoding
    "PrecodeResult", "LinkMetrics", "noise_power",
    "mrt_precoder", "zf_precoder", "link_metrics",
    # tuning
    "OptimizationLog", "TuningResult",
    "align_phases_single_target", "optimize_weighted_sum_power",
    "weighted_sum_power", "realize_capacitances", "evaluate_off_frequency",
    # engine
    "UeConfig", "OperatorConfig", "RisConfig", "Scenario", "SweepSpec",
    "CaseMetrics", "load_scenario", "run_case", "sweep", "fractional_boi",
    "export_results", "run_pattern", "derive_seed", "grid_shape",
    # presets
    "PRESET_NAMES", "preset_config", "preset_text", "load_preset",
    # errors
    "SquintSimError", "ConfigError", "ConfigWarning", "NumericalError",
    "DegenerateChannelError", "CorrelatedChannelsError",
    "FrequencyMismatchError",
]
