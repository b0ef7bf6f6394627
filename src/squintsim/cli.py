"""Command-line entry points.

Exit codes: 0 on success, 2 for configuration problems (bad JSON, schema
violations, unusable arguments), 3 for numerical failures inside the
simulation pipeline.
"""

import argparse
import json
import os
import sys
import warnings

from ._version import __version__
from .engine import (Scenario, export_results, fractional_boi, load_scenario,
                     run_case, run_pattern, sweep)
from .errors import ConfigError, NumericalError, SquintSimError
from .presets import PRESET_NAMES, load_preset, preset_text


def _load_config(arg: str) -> Scenario:
    """A positional config: a JSON file path or an embedded preset name."""
    if os.path.isfile(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                return load_scenario(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config '{arg}': {exc}") from None
    if arg in PRESET_NAMES:
        return load_preset(arg)
    raise ConfigError(f"'{arg}' is neither a config file nor one of the presets "
                      f"({', '.join(PRESET_NAMES)})")


def _emit_table(table, scenario: Scenario, args) -> None:
    if args.out is not None:
        export_results(table, args.format, args.out, scenario=scenario)
        print(f"wrote {len(table)} case(s) to {args.out}")
    else:
        print(json.dumps({"cases": [case.to_dict() for case in table]},
                         indent=2, sort_keys=True))


def _cmd_run(args) -> int:
    scenario = _load_config(args.config)
    case = run_case(scenario, workers=args.workers)
    _emit_table([case], scenario, args)
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_config(args.config)
    table = sweep(scenario, workers=args.workers)
    _emit_table(table, scenario, args)
    return 0


def _cmd_pattern(args) -> int:
    scenario = _load_config(args.config)
    summary = run_pattern(scenario, args.out_dir)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_boi(args) -> int:
    try:
        ratio = fractional_boi(args.f_low, args.f_high, args.f_center)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(f"{ratio * 100:.6g}%")
    return 0


def _cmd_preset(args) -> int:
    if args.action != "dump":
        raise ConfigError(f"unknown preset action '{args.action}'; expected 'dump'")
    sys.stdout.write(preset_text(args.name))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squintsim",
        description="Multi-operator simulator of reflective-surface scattering "
                    "across carrier frequencies.")
    parser.add_argument("--version", action="version", version=f"squintsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("config", help="config JSON path or preset name")
        p.add_argument("--out", default=None,
                       help="output file; prints JSON to stdout when omitted")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel worker processes")

    p_run = sub.add_parser("run", help="run one scenario case")
    add_io(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep surface size and position")
    add_io(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_pattern = sub.add_parser("pattern", help="radiation-pattern study")
    p_pattern.add_argument("config", help="config JSON path or preset name")
    p_pattern.add_argument("--out-dir", default="pattern_out",
                           help="directory for pattern CSVs and the summary")
    p_pattern.set_defaults(func=_cmd_pattern)

    p_boi = sub.add_parser("boi", help="fractional bandwidth of influence")
    p_boi.add_argument("f_low", type=float)
    p_boi.add_argument("f_high", type=float)
    p_boi.add_argument("f_center", type=float, nargs="?", default=None)
    p_boi.set_defaults(func=_cmd_boi)

    p_preset = sub.add_parser("preset", help="embedded preset configs")
    p_preset.add_argument("action", choices=("dump",))
    p_preset.add_argument("name")
    p_preset.set_defaults(func=_cmd_preset)

    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning, such as a ConfigWarning, as one line without the code that raised it."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        return _dispatch(args)


def _dispatch(args) -> int:
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SquintSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
