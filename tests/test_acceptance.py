"""Acceptance gate: one test per release criterion, each printing a verdict.

Every test announces ``criterion N: PASS/FAIL - detail`` on the real
terminal before asserting, so the gate's outcome is readable even when a
criterion is red. Criteria that fail here do so because the checked claim
does not hold under the documented defaults; the analysis lives in the
project notes, not in softened tolerances.
"""

import json
import os
import time

import numpy as np
import pytest

from squintsim import (ChannelSet, CircuitParams, OptimizationLog, ScatteringState,
                       align_phases_single_target, build_array, effective_channel,
                       evaluate_off_frequency, export_results, fractional_boi,
                       load_preset, optimize_weighted_sum_power, realize_capacitances,
                       reflected_field, run_case, run_pattern, sweep,
                       weighted_sum_power, zf_precoder)
from squintsim.circuit import (SPEED_OF_LIGHT, element_reflection, wrap_phase,
                               phase_to_capacitance)
from squintsim.errors import CorrelatedChannelsError

# at least 4 processes so parallel scheduling is exercised even on small boxes
MAX_WORKERS = max(4, min(8, os.cpu_count() or 1))


def announce(capfd, num: int, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


# --- shared expensive runs ----------------------------------------------------

@pytest.fixture(scope="module")
def fig3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    t0 = time.perf_counter()
    summary = run_pattern(load_preset("fig3"), out)
    elapsed = time.perf_counter() - t0
    return summary, elapsed, out


@pytest.fixture(scope="module")
def fig5_run():
    sc = load_preset("fig5")
    t0 = time.perf_counter()
    table = sweep(sc, workers=MAX_WORKERS)
    elapsed = time.perf_counter() - t0
    return sc, table, elapsed


# --- criterion 1: beam direction versus carrier -------------------------------

def test_criterion_1_beam_squint(fig3_run, capfd):
    summary, elapsed, _ = fig3_run
    freqs = {e["frequency_hz"]: e for e in summary["frequencies"]}
    f1_peak = freqs[2.5e9]["main_lobe_deg"]
    f2_peak = freqs[2.52e9]["main_lobe_deg"]
    f3_peak = freqs[2.75e9]["main_lobe_deg"]

    near_design = abs(f1_peak - 45.0) <= 1.0
    small_shift = abs(f2_peak - f1_peak) <= 3.0
    large_shift = abs(f3_peak - 45.0) >= 40.0
    in_expected = abs(f3_peak - (-14.0)) <= 10.0
    sens = summary.get("sensitivity")
    closest_off = None
    if sens is not None:
        closest_off = sens["closest"]["f3_peak_deg"] - (-14.0)
    remediated = sens is not None and closest_off is not None \
        and abs(closest_off) <= 5.0
    fast = elapsed < 10.0

    ok = near_design and small_shift and large_shift \
        and (in_expected or remediated) and fast
    announce(capfd, 1, ok,
             f"f1 {f1_peak:.3f} deg, f2 {f2_peak:.3f} deg, f3 {f3_peak:.3f} deg, "
             f"expected -14+/-10 {'met' if in_expected else 'missed'}"
             + ("" if sens is None else
                f", sensitivity closest f3 {sens['closest']['f3_peak_deg']:.3f} deg "
                f"over {sens['cases']} cases")
             + f", {elapsed:.2f} s")

    assert near_design, f"design-carrier peak {f1_peak:.3f} deg outside 45 +/- 1"
    assert small_shift, f"2.52 GHz peak {f2_peak:.3f} deg drifted over 3 deg"
    assert large_shift, f"2.75 GHz peak {f3_peak:.3f} deg not 40 deg away from 45"
    assert fast, f"pattern study took {elapsed:.2f} s"
    if not in_expected:
        assert sens is not None, "squint outside window but no sensitivity report"
        assert abs(closest_off) <= 5.0, (
            f"no swept constant set reaches -14 +/- 5 deg; closest lands at "
            f"{sens['closest']['f3_peak_deg']:.3f} deg "
            f"(l_top {sens['closest']['l_top_h']:g} H, "
            f"c range [{sens['closest']['c_min_f']:g}, {sens['closest']['c_max_f']:g}] F)")


# --- criterion 2: fractional bandwidth-of-influence table ----------------------

def test_criterion_2_boi_table(capfd):
    rows = [
        ("1-bit transmissive", 23.9e9, 30.6e9, 24.5),
        ("varactor reflective", 5.1e9, 6.4e9, 22.4),
        ("rf-switch transmissive", 5.17e9, 5.44e9, 5.1),
        ("pin-diode transmissive", 23.9e9, 30.6e9, 23.7),
    ]
    t0 = time.perf_counter()
    computed = [fractional_boi(lo, hi) * 100.0 for _, lo, hi, _ in rows]
    narrow = fractional_boi(1.8e9 - 180e3, 1.8e9 + 180e3, 1.8e9) * 100.0
    elapsed = time.perf_counter() - t0

    offsets = [abs(got - want) for got, (_, _, _, want) in zip(computed, rows)]
    within = [off <= 0.5 for off in offsets]
    narrow_exact = narrow == 0.02
    fast = elapsed < 1.0

    ok = all(within) and narrow_exact and fast
    announce(capfd, 2, ok,
             ", ".join(f"{name} {got:.4g}% vs {want}%"
                       for (name, _, _, want), got in zip(rows, computed))
             + f", 5G example {narrow:.6g}%, {elapsed * 1e3:.1f} ms")

    assert narrow_exact, f"360 kHz / 1.8 GHz gave {narrow!r}%, not 0.02% exactly"
    assert fast
    for (name, _, _, want), got, good in zip(rows, computed, within):
        assert good, (f"{name}: midpoint fractional value {got:.4g}% is "
                      f"{abs(got - want):.3g} pp from the published {want}%")


# --- criterion 3: non-target degradation trends --------------------------------

def test_criterion_3_degradation_trends(fig5_run, capfd):
    sc, table, elapsed = fig5_run
    spec = sc.sweep_spec
    counts = spec.element_counts
    positions = spec.positions
    by_key = {(c.n_elements, tuple(c.ris_position)): c for c in table}
    closest = (60.0, 10.0, 0.0)

    suppressed = True
    for n in counts:
        if n < 30:
            continue
        for pos in positions:
            case = by_key[(n, tuple(pos))]
            diff = case.sumse_nontarget_noris - case.sumse_nontarget_ris
            if not (diff > 0 and diff > 2.0 * case.stderr_nontarget_diff):
                suppressed = False

    monotone = True
    for pos in positions:
        series = [by_key[(n, tuple(pos))] for n in counts]
        for prev, nxt in zip(series, series[1:]):
            slack = 2.0 * float(np.hypot(prev.degradation_stderr,
                                         nxt.degradation_stderr))
            if nxt.degradation_ratio < prev.degradation_ratio - slack:
                monotone = False

    at_70 = {tuple(pos): by_key[(70, tuple(pos))].degradation_ratio
             for pos in positions}
    closest_wins = max(at_70, key=at_70.get) == closest
    peak = at_70[closest]
    in_band = 0.10 <= peak <= 0.80
    fast = elapsed < 300.0

    ok = suppressed and monotone and closest_wins and in_band and fast
    announce(capfd, 3, ok,
             f"suppression {'>2 stderr everywhere N>=30' if suppressed else 'violated'}, "
             f"degradation {'non-decreasing in N' if monotone else 'not monotone'}, "
             f"closest-position peak {peak:.3f} at N=70 "
             f"({'largest' if closest_wins else 'not largest'}), {elapsed:.1f} s")

    assert suppressed, "a case at N >= 30 lacks a 2-stderr one-sided rate loss"
    assert monotone, "degradation decreased with N beyond Monte-Carlo slack"
    assert closest_wins, f"largest N=70 degradation not at {closest}: {at_70}"
    assert in_band, f"degradation {peak:.3f} outside [0.10, 0.80]"
    assert fast, f"sweep took {elapsed:.1f} s"


# --- criterion 4: brute-force oracle equivalence --------------------------------

def brute_field(array, gammas, source, amplitude, observation, far_field):
    k = 2.0 * np.pi * 2.5e9 / SPEED_OF_LIGHT
    obs = np.asarray(observation, dtype=float)
    if far_field:
        obs = obs / np.linalg.norm(obs)
    total = 0.0 + 0.0j
    for pos, g in zip(array.element_positions, gammas):
        d_in = np.linalg.norm(pos - source)
        a_in = amplitude / d_in * np.exp(-1j * k * d_in)
        if far_field:
            a_out = np.exp(1j * k * float(pos @ obs))
        else:
            d_out = np.linalg.norm(obs - pos)
            a_out = np.exp(-1j * k * d_out) / d_out
        total += a_in * g * a_out
    return total


def test_criterion_4_oracle_equivalence(capfd):
    rng = np.random.default_rng(20260817)
    worst_field = 0.0
    for _ in range(100):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        plane = rng.choice(["xz", "xy", "yz"])
        array = build_array(rows, cols, 2.5e9, center=rng.uniform(-3, 3, 3),
                            plane=plane)
        n = array.n_elements
        gammas = rng.uniform(0.2, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        state = ScatteringState(gammas=gammas, frequency=2.5e9)
        source = array.center + rng.uniform(5, 40, 3)
        amplitude = float(rng.uniform(0.5, 2.0))
        far = bool(rng.random() < 0.5)
        obs = rng.normal(size=3) if far else array.center + rng.uniform(3, 50, 3)
        # the feed is a unit source; its amplitude scales the field linearly
        got = amplitude * reflected_field(array, state, source, obs, far_field=far)
        want = brute_field(array, gammas, source, amplitude, obs, far)
        worst_field = max(worst_field, abs(got - want) / max(abs(want), 1e-30))

    worst_channel = 0.0
    for _ in range(100):
        rx, tx = int(rng.integers(1, 3)), int(rng.integers(1, 6))
        n_el = int(rng.integers(1, 24))
        def cplx(shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)
        chs = ChannelSet(direct=cplx((rx, tx)), bs_to_ris=cplx((n_el, tx)),
                         ris_to_ue=cplx((rx, n_el)), frequency=2.5e9)
        gammas = cplx((n_el,))
        got = effective_channel(chs, ScatteringState(gammas=gammas, frequency=2.5e9))
        want = chs.direct.copy()
        for r in range(rx):
            for t in range(tx):
                for e in range(n_el):
                    want[r, t] += chs.ris_to_ue[r, e] * gammas[e] * chs.bs_to_ris[e, t]
        err = np.abs(got - want) / np.maximum(np.abs(want), 1e-30)
        worst_channel = max(worst_channel, float(err.max()))

    ok = worst_field <= 1e-10 and worst_channel <= 1e-12
    announce(capfd, 4, ok,
             f"field worst rel err {worst_field:.3g} (<=1e-10), "
             f"channel worst rel err {worst_channel:.3g} (<=1e-12), 100 instances each")
    assert worst_field <= 1e-10
    assert worst_channel <= 1e-12


# --- criterion 5: circuit physics ------------------------------------------------

def test_criterion_5_circuit_properties(capfd):
    params = CircuitParams()
    caps = np.linspace(params.c_min, params.c_max, 100)
    freqs = np.linspace(1e9, 6e9, 100)
    mags = np.array([np.abs(element_reflection(caps, f, params))
                     for f in freqs])
    passive = bool(np.all(mags <= 1.0 + 1e-12))

    lossless = CircuitParams(r_loss=0.0)
    mags0 = np.array([np.abs(element_reflection(caps, f, lossless))
                      for f in freqs])
    unit_err = float(np.max(np.abs(mags0 - 1.0)))

    lo_edge, hi_edge = np.angle(element_reflection([params.c_min, params.c_max], 2.5e9,
                                                   params))
    lo, hi = min(lo_edge, hi_edge), max(lo_edge, hi_edge)
    rng = np.random.default_rng(5)
    targets = rng.uniform(lo + 1e-9, hi - 1e-9, 1000)
    capacitance, _ = phase_to_capacitance(targets, 2.5e9, params)
    achieved = np.angle(element_reflection(
        np.atleast_1d(capacitance), 2.5e9, params))
    round_trip = float(np.max(np.abs(wrap_phase(achieved - targets))))

    ok = passive and unit_err <= 1e-12 and round_trip < 1e-6
    announce(capfd, 5, ok,
             f"passivity max |gamma| {mags.max():.15f} on 100x100 grid, "
             f"lossless | |gamma|-1 | {unit_err:.3g}, "
             f"round trip {round_trip:.3g} rad over 1000 phases")
    assert passive
    assert unit_err <= 1e-12
    assert round_trip < 1e-6


# --- criterion 6: tuning behaviour ------------------------------------------------

def random_set(rng, n_el, rx=1, tx=1, frequency=2.5e9):
    def cplx(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return ChannelSet(direct=cplx((rx, tx)), bs_to_ris=cplx((n_el, tx)),
                      ris_to_ue=cplx((rx, n_el)), frequency=frequency)


def test_criterion_6_tuning_properties(capfd):
    rng = np.random.default_rng(606)
    params = CircuitParams()

    worst_dip = 0.0
    for _ in range(50):
        n_el = int(rng.integers(8, 25))
        sets = [random_set(rng, n_el), random_set(rng, n_el)]
        log = OptimizationLog()
        optimize_weighted_sum_power(sets, log=log)
        trace = np.asarray(log.objectives)
        dips = np.diff(trace) / np.maximum(np.abs(trace[:-1]), 1e-300)
        worst_dip = min(worst_dip, float(dips.min(initial=0.0)))
    monotone = worst_dip >= -1e-12

    margin = np.inf
    for _ in range(50):
        n_el = int(rng.integers(4, 17))
        chs = random_set(rng, n_el)
        closed = align_phases_single_target(chs)
        cascade = chs.ris_to_ue[0, :] * chs.bs_to_ris[:, 0]
        best = abs(chs.direct[0, 0] + closed.gammas @ cascade) ** 2
        phases = rng.uniform(-np.pi, np.pi, (10_000, n_el))
        rivals = np.abs(chs.direct[0, 0]
                        + np.exp(1j * phases) @ cascade) ** 2
        margin = min(margin, float(best - rivals.max()))
    beats_random = margin >= 0.0

    chs = random_set(rng, 16)
    ideal = align_phases_single_target(chs)
    result = realize_capacitances(ideal, params)
    identity = evaluate_off_frequency(result, 2.5e9)
    exact = bool(np.array_equal(identity.gammas,
                                element_reflection(result.capacitances, 2.5e9, params))) \
        and identity.frequency == 2.5e9
    # the realized phases off the clamp mask are the ideal ones
    phase_error = np.abs(wrap_phase(np.angle(identity.gammas)
                                    - np.angle(ideal.gammas)))[~result.clamped]
    worst_phase = float(phase_error.max(initial=0.0))
    faithful = len(phase_error) > 0 and worst_phase <= 1e-9

    ok = monotone and beats_random and exact and faithful
    announce(capfd, 6, ok,
             f"ascent worst relative dip {worst_dip:.3g} over 50 two-target runs, "
             f"closed form beats 10^4 random profiles (min margin {margin:.3g} W), "
             f"off-frequency identity {'exact' if exact else 'broken'}, "
             f"unclamped phase error {worst_phase:.2g} rad")
    assert monotone, f"objective dipped by {worst_dip:.3g} relative"
    assert beats_random, f"a random profile beat the closed form by {-margin:.3g}"
    assert exact
    assert faithful, f"an unclamped phase missed its target by {worst_phase:.3g} rad"


# --- criterion 7: precoding -------------------------------------------------------

def test_criterion_7_precoding(capfd):
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        users = int(rng.integers(2, 9))
        antennas = int(rng.integers(users, 21))
        h = rng.normal(size=(users, antennas)) + 1j * rng.normal(size=(users, antennas))
        res = zf_precoder(h)
        cross = h @ res.matrix
        diag = np.abs(np.diag(cross))
        off = np.abs(cross - np.diag(np.diag(cross)))
        worst = max(worst, float(off.max() / diag.min()))
    residual_ok = worst < 1e-9

    with pytest.raises(CorrelatedChannelsError) as exc:
        run_case(load_preset("fig1c"))
    diag_ok = exc.value.ue_pair == (0, 1) and exc.value.condition_number > 50.0 \
        and "condition number" in str(exc.value)

    ok = residual_ok and diag_ok
    announce(capfd, 7, ok,
             f"worst ZF residual {worst:.3g} relative over 50 stacks, "
             f"correlated-channel diagnostic: pair {exc.value.ue_pair}, "
             f"condition {exc.value.condition_number:.3g}")
    assert residual_ok, f"ZF residual {worst:.3g} exceeds 1e-9"
    assert diag_ok


# --- criterion 8: byte-identical exports --------------------------------------------

def export_pair(table, scenario, root, tag):
    paths = {}
    for fmt in ("csv", "json"):
        path = root / f"{tag}.{fmt}"
        export_results(table, fmt, path, scenario=scenario)
        paths[fmt] = path
        paths[fmt + "_manifest"] = path.parent / (path.name + ".manifest.json")
    return paths


def test_criterion_8_deterministic_exports(fig5_run, tmp_path, capfd):
    checked = []
    identical = True

    for name in ("fig1a", "fig1b", "fig4d"):
        first = export_pair([run_case(load_preset(name), workers=MAX_WORKERS)],
                            load_preset(name), tmp_path, f"{name}_a")
        second = export_pair([run_case(load_preset(name), workers=1)],
                             load_preset(name), tmp_path, f"{name}_b")
        same = all(first[k].read_bytes() == second[k].read_bytes() for k in first)
        identical = identical and same
        checked.append(f"{name} {'ok' if same else 'DIFFERS'}")

    sc, table, _ = fig5_run
    first = export_pair(table, sc, tmp_path, "fig5_a")
    table2 = sweep(load_preset("fig5"), workers=MAX_WORKERS)
    second = export_pair(table2, load_preset("fig5"), tmp_path, "fig5_b")
    same = all(first[k].read_bytes() == second[k].read_bytes() for k in first)
    identical = identical and same
    checked.append(f"fig5 sweep x2 at {MAX_WORKERS} workers {'ok' if same else 'DIFFERS'}")

    dir_a, dir_b = tmp_path / "fig3_a", tmp_path / "fig3_b"
    run_pattern(load_preset("fig3"), dir_a)
    run_pattern(load_preset("fig3"), dir_b)
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    same = names_a == names_b and all(
        (dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in names_a)
    identical = identical and same
    checked.append(f"fig3 pattern files x2 {'ok' if same else 'DIFFERS'}")

    # fig1c aborts with the same diagnostic on every run
    errors = []
    for _ in range(2):
        with pytest.raises(CorrelatedChannelsError) as exc:
            run_case(load_preset("fig1c"))
        errors.append(str(exc.value))
    same = errors[0] == errors[1]
    identical = identical and same
    checked.append(f"fig1c identical diagnostic {'ok' if same else 'DIFFERS'}")

    announce(capfd, 8, identical, "; ".join(checked))
    assert identical, "; ".join(checked)
