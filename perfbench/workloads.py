"""The benchmark's three studies: set-up, the study call, and output checks.

Every workload builds its config from an embedded preset, writes the
benchmark's seed in as ``master_seed``, and runs one study serially in this
process. The realization counts and the reasons for each workload are in
``workloads.json``; the values the outputs must reproduce at the preset
seed are in ``reference.json``.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
exits with an error when the package sources are not there, so the
benchmark never measures an installed copy of squintsim.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "squintsim", "__init__.py")):
    raise SystemExit(f"perfbench: squintsim sources not found under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import squintsim  # noqa: E402
from squintsim import cli, engine, presets  # noqa: E402

if os.path.dirname(os.path.abspath(squintsim.__file__)) != os.path.join(SRC, "squintsim"):
    raise SystemExit(f"perfbench: imported squintsim from {squintsim.__file__}, not {SRC}")

# A rounding-level change (a closed-form varactor inversion, a reordered sum)
# moves exported values by far less than this; a wrong answer moves them more.
REL_TOL = 1e-6
ABS_TOL = 1e-9


def load_json(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _flat(values):
    return [v for row in values for v in (row if isinstance(row, list) else [row])]


def digest(out_dir) -> str:
    """SHA-256 over the names and bytes of every file a study call wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def compare(values: dict, reference: dict) -> list:
    """Problems where observed values leave the tolerance around the reference."""
    problems = []
    for key, ref in reference.items():
        got, want = _flat(values[key]), _flat(ref)
        if len(got) != len(want):
            problems.append(f"{key}: {len(got)} values, reference has {len(want)}")
            continue
        bad = [i for i, (g, w) in enumerate(zip(got, want))
               if not math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL)]
        if bad:
            i = bad[0]
            problems.append(f"{key}: {len(bad)} values differ from the reference, "
                            f"first at {i}: {got[i]!r} against {want[i]!r}")
    return problems


@dataclass
class Prepared:
    """What set-up hands to the study call."""

    scenario: engine.Scenario
    config_path: str | None = None


class Study:
    """One workload. Subclasses define how the config is handed over and called."""

    def __init__(self, name, spec):
        self.name = name
        self.preset = spec["preset"]
        self.realizations = spec.get("realizations")
        self.seeded = spec["seeded"]

    def default_seed(self) -> int:
        return presets.preset_config(self.preset)["master_seed"]

    def prepare(self, seed, work_dir) -> Prepared:
        """The set-up a user pays before the study call: config build and validation."""
        cfg = presets.preset_config(self.preset)
        cfg["master_seed"] = seed
        if self.realizations is not None:
            cfg["realizations"] = self.realizations
        return self._hand_over(cfg, work_dir)

    def _hand_over(self, cfg, work_dir) -> Prepared:
        return Prepared(engine.load_scenario(cfg))


class _TableStudy(Study):
    """Studies exported as the CSV case table plus its manifest."""

    work = "realizations"
    kernel = "pipeline"

    def _cases(self, scenario) -> int:
        return 1

    def work_items(self, prepared) -> int:
        return self._cases(prepared.scenario) * prepared.scenario.realizations

    def observe(self, prepared, result, out_dir, seed):
        """(problems that hold at any seed, values compared with the reference)."""
        problems = []
        path = os.path.join(out_dir, self.name + ".csv")
        header, rows = _read_csv(path)
        if tuple(header) != engine.EXPORT_COLUMNS:
            problems.append(f"CSV header {header}")
        cases = self._cases(prepared.scenario)
        if len(rows) != cases:
            problems.append(f"{len(rows)} CSV rows, expected {cases}")
        cols = {c: i for i, c in enumerate(header)}
        for row in rows:
            if not all(math.isfinite(v) for v in row):
                problems.append(f"non-finite CSV row {row}")
            elif any(row[cols[c]] < 0 for c in header if c.startswith("sumse_")):
                problems.append(f"negative spectral efficiency in {row}")
            elif row[cols["degradation_ratio"]] > 1:
                problems.append(f"degradation ratio above 1 in {row}")
        with open(path + ".manifest.json", encoding="utf-8") as fh:
            config = json.load(fh)["config"]
        if config["master_seed"] != seed or config["realizations"] != self.realizations:
            problems.append("manifest does not echo the seed and realization count handed over")
        return problems, {"rows": rows}


class SweepStudy(_TableStudy):
    """``squintsim.sweep`` over the preset's grid, exported as ``squintsim sweep --out`` does."""

    def _cases(self, scenario) -> int:
        spec = scenario.sweep_spec
        return len(spec.element_counts) * len(spec.positions)

    def call(self, prepared, out_dir):
        table = engine.sweep(prepared.scenario)
        engine.export_results(table, "csv", os.path.join(out_dir, self.name + ".csv"),
                              scenario=prepared.scenario)
        return table

    def observe(self, prepared, table, out_dir, seed):
        problems, values = super().observe(prepared, table, out_dir, seed)
        for case in table:
            for frac in (case.clamp_fraction, case.tuning_converged_fraction):
                if not 0.0 <= frac <= 1.0:
                    problems.append(f"fraction {frac} outside [0, 1] at N={case.n_elements}")
        return problems, values


class CliRunStudy(_TableStudy):
    """``squintsim run <config.json> --out <csv>`` called in this process."""

    def _hand_over(self, cfg, work_dir) -> Prepared:
        # the CLI takes a config file, so the seed travels in one
        path = os.path.join(work_dir, self.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return Prepared(engine.load_scenario(cfg), path)

    def call(self, prepared, out_dir):
        argv = ["run", prepared.config_path, "--out", os.path.join(out_dir, self.name + ".csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"squintsim {' '.join(argv)} exited with {code}")


class PatternStudy(Study):
    """``squintsim.run_pattern``: pattern cuts at each carrier plus the sensitivity sweep."""

    work = "pattern_points"
    kernel = "pattern"

    def call(self, prepared, out_dir):
        return engine.run_pattern(prepared.scenario, out_dir)

    def work_items(self, prepared) -> int:
        """Element-by-angle terms of every pattern cut the study evaluates."""
        scenario = prepared.scenario
        cfg = scenario.pattern
        sens = cfg.sensitivity
        points = len(cfg.frequencies_hz) * len(cfg.angle_grid())
        sens_angles = np.arange(cfg.angle_start_deg, cfg.angle_stop_deg + 1e-9,
                                sens["angle_step_deg"])
        points += 2 * len(sens["l_top_h"]) * len(sens["c_ranges_f"]) * len(sens_angles)
        return scenario.ris.n_elements * points

    def observe(self, prepared, summary, out_dir, seed):
        problems = []
        for entry in summary["frequencies"]:
            _, rows = _read_csv(os.path.join(out_dir, entry["file"]))
            if not all(math.isfinite(v) for row in rows for v in row):
                problems.append(f"non-finite values in {entry['file']}")
            elif max(row[1] for row in rows) != 0.0:
                problems.append(f"{entry['file']} is not normalized to a 0 dB peak")
        header, sens = _read_csv(os.path.join(out_dir, "squint_sensitivity.csv"))
        cols = [header.index(c) for c in ("f1_peak_deg", "f3_peak_deg", "clamped_fraction")]
        sens = [[row[i] for i in cols] for row in sens]
        values = {"main_lobe_deg": [e["main_lobe_deg"] for e in summary["frequencies"]],
                  "clamped_fraction": [summary["clamped_fraction"]],
                  "sensitivity": sens}
        if not all(0.0 <= f <= 1.0 for f in values["clamped_fraction"] + [r[2] for r in sens]):
            problems.append("clamped fraction outside [0, 1]")
        angles = values["main_lobe_deg"] + [a for r in sens for a in r[:2]]
        if not all(math.isfinite(a) and -90.0 <= a <= 90.0 for a in angles):
            problems.append("main-lobe angle outside [-90, 90] degrees")
        return problems, values


_KINDS = {"sweep": SweepStudy, "cli_run": CliRunStudy, "pattern": PatternStudy}


def load(name) -> Study:
    specs = load_json("workloads.json")["workloads"]
    if name not in specs:
        raise SystemExit(f"perfbench: unknown workload '{name}'; one of {', '.join(specs)}")
    return _KINDS[specs[name]["kind"]](name, specs[name])


def names() -> list:
    return list(load_json("workloads.json")["workloads"])
