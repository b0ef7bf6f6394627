"""Benchmark of squintsim's study workloads.

    python3 perfbench/run.py --workload fig5_sweep --seed 7 --seconds 30 --trace 0

Prints a readable report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones listed in BENCHMARK.json, measured
with tracing off; with ``--trace 1`` they are the per-layer ones, from
spans recorded around the package's public functions (see tracing.py).
``--workload all`` runs every workload in its own process, one after the
other. The seed defaults to the preset's own.

Every study call writes into a fresh directory under ``.perfbench_out`` in
the checkout; its exports are checked and hashed, then deleted. The spans
of a traced run are left there as ``trace-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

import workloads  # noqa: I100  (first: puts the checkout's src on sys.path)
import reference_kernel
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 7            # fresh interpreters timed per run, after one untimed
MIN_PAIRS = 2               # untraced + traced calls; the traced counts must agree
LAYERS = ("tuning", "circuit", "channels", "precoding", "array_field", "cli_presets")


def quartiles(values) -> tuple:
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def layer_of(name: str) -> str:
    module = name.split(".")[0]
    return "cli_presets" if module in ("cli", "presets") else module


class Run:
    """The study calls of one benchmark run and what their checks found."""

    def __init__(self, study, reference, run_dir):
        self.study = study
        self.reference = reference
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def problem(self, text):
        self.problems.append(text)
        print(f"{self.study.name}: {text}", file=sys.stderr)

    def call(self, prepared, seed):
        """One checked study call; (start, end) of the call, or None when it failed."""
        self.attempted += 1
        out_dir = os.path.join(self.run_dir, f"call{self.attempted}")
        os.makedirs(out_dir)
        try:
            start = time.perf_counter()
            result = self.study.call(prepared, out_dir)
            end = time.perf_counter()
            problems, values = self.study.observe(prepared, result, out_dir, seed)
            if self.reference["seed"] in (None, seed):
                problems += workloads.compare(values, self.reference["values"])
            self.digests.setdefault(seed, set()).add(workloads.digest(out_dir))
        except Exception as exc:  # a raising call is a failed call, reported with its traceback
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            for text in problems:
                self.problem(f"call {self.attempted} at seed {seed}: {text}")
            return None
        return start, end

    def warm_up(self):
        """One untimed call at the reference seed, checked against the reference."""
        seed = self.reference["seed"]
        if seed is not None:
            self.call(self.study.prepare(seed, self.run_dir), seed)

    def timed(self, prepared, seed, seconds, min_calls) -> tuple:
        """Wall times of calls repeated while another one fits in ``seconds``,
        and reference-kernel times taken before the first call and after each."""
        t0 = time.perf_counter()
        walls, refs = [], [reference_kernel.seconds(self.study.kernel)]
        while (len(walls) < min_calls
               or time.perf_counter() - t0 + walls[-1] + refs[-1] <= seconds):
            span = self.call(prepared, seed)
            if span is None:
                break
            walls.append(span[1] - span[0])
            refs.append(reference_kernel.seconds(self.study.kernel))
        return walls, refs

    def check_identical(self):
        for seed, digests in self.digests.items():
            if len(digests) != 1:
                self.problem(f"exports at seed {seed} differ between calls")


def setup_times(run, seed) -> list:
    """Set-up seconds in fresh interpreters; the first probe only warms the disk cache."""
    times = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"),
                               run.study.name, str(seed), run.run_dir],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            run.problem(f"set-up probe failed: {proc.stderr.strip()}")
            return times
        if i > 0:
            times.append(float(proc.stdout.split()[-1]))
    return times


def end_to_end(run, seed, seconds) -> tuple:
    setups = setup_times(run, seed)
    run.warm_up()
    prepared = run.study.prepare(seed, run.run_dir)
    items = run.study.work_items(prepared)
    walls, refs = run.timed(prepared, seed, seconds, min_calls=2)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {"peak_rss_mb": rss_mb}
    lines = [f"  {'work per call':<22} {items} {run.study.work}"]
    for name, values, unit in (("setup_s", setups, "s"), ("wall_s", walls, "s"),
                               (run.study.work + "_per_s", [items / w for w in walls], "1/s"),
                               ("reference_s", refs, "s")):
        if values:
            med, q1, q3 = quartiles(values)
            metrics[name] = med
            lines.append(f"  {name:<22} {med:.6g} {unit}  (median of {len(values)}; "
                         f"q1 {q1:.6g}, q3 {q3:.6g})")
    if walls:
        metrics["wall_rel"] = metrics["wall_s"] / metrics["reference_s"]
        lines.append(f"  {'wall_rel':<22} {metrics['wall_rel']:.6g}  "
                     f"(median wall_s over median {run.study.kernel} reference_s)")
    lines.append(f"  {'peak_rss_mb':<22} {rss_mb:.6g} MB")
    return metrics, lines


def traced_pairs(run, seed, seconds) -> tuple:
    """Untraced and traced calls in alternation, so that both see the same machine.

    Each traced iteration covers set-up and the study call. Pairs repeat
    while another fits in ``seconds``, at least MIN_PAIRS times.
    """
    tracer = tracing.Tracer()
    prepared = run.study.prepare(seed, run.run_dir)
    untraced, iterations = [], []
    t0 = time.perf_counter()
    while (len(iterations) < MIN_PAIRS
           or time.perf_counter() - t0 + untraced[-1] + iterations[-1]["wall"] <= seconds):
        span = run.call(prepared, seed)
        if span is None:
            break
        untraced.append(span[1] - span[0])
        tracer.reset()
        tracer.install()
        try:
            start = time.perf_counter()
            span = run.call(run.study.prepare(seed, run.run_dir), seed)
        finally:
            tracer.remove()
        if span is None:
            break
        iterations.append({"wall": span[1] - start, "study_wall": span[1] - span[0],
                           "spans": tracer.spans, "counts": tracer.counts})
    return untraced, iterations


def per_layer(run, seed, seconds) -> tuple:
    run.warm_up()
    untraced, iterations = traced_pairs(run, seed, seconds)
    if len(iterations) < MIN_PAIRS:
        return {}, []
    counts = iterations[0]["counts"]
    if any(it["counts"] != counts for it in iterations[1:]):
        run.problem("counts differ between traced calls at one seed")

    n = len(iterations)
    fn_self, case_s, outside = Counter(), [], 0.0
    for it in iterations:
        for (name, start, end, parent), s in zip(it["spans"], tracing.self_times(it["spans"])):
            fn_self[name] += s / n
            if parent is None:
                outside -= (end - start) / n
            if name == "engine.run_case":
                case_s.append(end - start)
        outside += it["wall"] / n
    wall = statistics.fmean(it["wall"] for it in iterations)
    study_wall = statistics.median(it["study_wall"] for it in iterations)
    untraced_wall = statistics.median(untraced)

    layer_self = Counter()
    for name, s in fn_self.items():
        layer_self[layer_of(name)] += s
    # the benchmark's glue between its calls into the package lies outside every span
    layer_self["engine"] += outside
    total = sum(layer_self.values())
    # self times add up to the traced wall only when every span nests inside its parent
    if abs(total - wall) > 1e-9 * wall:
        run.problem(f"layer self times sum to {total!r} s, traced wall is {wall!r} s")

    metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS + ("engine",)}
    metrics.update({f"{name}.self_share": s / wall for name, s in fn_self.items()})
    for module, attr, _, _ in tracing.TRACED:
        metrics.setdefault(f"{module}.{attr}.self_share", 0.0)
        metrics[f"{module}.{attr}.calls"] = counts[f"{module}.{attr}.calls"]
        metrics[f"{module}.{attr}.failed"] = counts[f"{module}.{attr}.failed"]
    for name in ("tuning.ascent_sweeps", "circuit.elements_inverted", "circuit.elements_clamped",
                 "channels.los_entries", "array_field.pattern_points"):
        metrics[name] = counts[name]
    ascents = counts["tuning.optimize_weighted_sum_power.calls"]
    metrics["tuning.ascent_converged_frac"] = (
        counts["tuning.ascent_converged"] / ascents if ascents else 0.0)
    inverted = counts["circuit.elements_inverted"]
    metrics["circuit.clamped_frac"] = (
        counts["circuit.elements_clamped"] / inverted if inverted else 0.0)
    named = sum(layer_self[layer] for layer in LAYERS)
    metrics.update({"trace.wall_s": wall, "trace.overhead_s": study_wall - untraced_wall,
                    "trace.overhead_frac": (study_wall - untraced_wall) / untraced_wall,
                    "trace.named_coverage": named / wall})

    lines = [f"  traced wall {wall:.6f} s (set-up + study call, mean of {len(iterations)}); "
             f"layer self times sum to {total:.6f} s",
             f"  study call untraced {untraced_wall:.6f} s, traced {study_wall:.6f} s "
             f"(medians of {n} alternating pairs): tracing overhead "
             f"{metrics['trace.overhead_s']:+.6f} s ({metrics['trace.overhead_frac']:+.2%})",
             f"  named layers cover {named / wall:.1%} of the traced wall",
             f"  {'layer':<46} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS + ("engine",):
        lines.append(f"  {layer:<46} {layer_self[layer]:>10.6f} {layer_self[layer] / wall:>7.1%}")
    lines.append(f"  {'function':<46} {'calls':>10} {'self_s':>10} {'share':>7}")
    for module, attr, _, _ in tracing.TRACED:
        name = f"{module}.{attr}"
        lines.append(f"  {name:<46} {counts[name + '.calls']:>10} "
                     f"{fn_self[name]:>10.6f} {fn_self[name] / wall:>7.1%}")
    for name in ("tuning.ascent_sweeps", "tuning.ascent_converged_frac",
                 "circuit.elements_inverted", "circuit.elements_clamped", "circuit.clamped_frac",
                 "channels.los_entries", "array_field.pattern_points",
                 "precoding.zf_precoder.failed"):
        value = metrics[name]
        lines.append(f"  {name:<46} {value:>10}" if isinstance(value, int)
                     else f"  {name:<46} {value:>10.6g}")
    if case_s:
        med = statistics.median(case_s)
        p90 = statistics.quantiles(case_s, n=10)[-1] if len(case_s) > 1 else med
        lines.append(f"  engine.case_s  p50 {med:.6f} s, p90 {p90:.6f} s over {len(case_s)} cases")

    with open(os.path.join(OUT, f"trace-{run.study.name}-{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": run.study.name, "seed": seed,
                   "span": ["name", "start_s", "end_s", "parent"],
                   "iterations": [{"wall_s": it["wall"], "spans": it["spans"]}
                                  for it in iterations]}, fh)
    return metrics, lines


def run_all(args) -> int:
    code = 0
    for name in workloads.names():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.workload == "all":
        return run_all(args)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    study = workloads.load(args.workload)
    reference = workloads.load_json("reference.json")[study.name]
    if reference["realizations"] != study.realizations:
        raise SystemExit(f"perfbench: reference.json holds {study.name} at "
                         f"{reference['realizations']} realizations, not {study.realizations}")
    seed = study.default_seed() if args.seed is None else args.seed

    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        run = Run(study, reference, run_dir)
        measure = per_layer if args.trace else end_to_end
        metrics, lines = measure(run, seed, args.seconds)
        run.check_identical()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing and not run.problems and not run.failed:
        run.problem(f"metrics not measured: {', '.join(missing)}")
    correct = not run.problems and run.failed == 0
    print(f"{study.name}  seed {seed}  trace {args.trace}  "
          f"{'correct' if correct else 'INCORRECT'}")
    print("\n".join(lines))
    print(f"  {'failed_frac':<22} {run.failed / max(run.attempted, 1):.6g}  "
          f"({run.failed} of {run.attempted} study calls)")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed if m["name"] in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
