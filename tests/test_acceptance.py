"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line (run with `-s` to see
them all); the assert carries the same detail. Criteria 8 and 9 share one
session-scoped pair of full sweep runs (worker counts 1 and 8).
"""

from __future__ import annotations

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from emberlink.carbon import carbon_price, emission_tons, savings
from emberlink.cli import main as cli_main
from emberlink.envdata import (CALIFORNIA, Incident, SynthSpec, load_incidents,
                               synth_biomass, synth_env)
from emberlink.evolution import (EvolutionConfig, Frontier, burned_circle,
                                 circle_trajectory, step)
from emberlink.firekernel import (length_breadth_ratio, moisture_factor,
                                  wind_factor)
from emberlink.harness import baseline_totals, bundled_scenario_path
from emberlink.linkbudget import (EVENT_REPORT, PERIODIC_REPORT, TABLE1_10DEG,
                                  TABLE1_90DEG, capacity_report, cnr_db,
                                  fspl_db, supportable_sensors)

DATA = Path(__file__).parent / "data"


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} [{name}] {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def sweep_runs(tmp_path_factory):
    """Full bundled-scenario sweeps at worker counts 1 and 8."""
    runs = {}
    for workers in (1, 8):
        out = tmp_path_factory.mktemp(f"sweep_w{workers}")
        t0 = time.perf_counter()
        code = cli_main(["--out-dir", str(out), "--workers", str(workers),
                         "--set",
                         f"paths.scenario_bundle={bundled_scenario_path()}",
                         "sweep"])
        elapsed = time.perf_counter() - t0
        assert code == 0, f"sweep exited {code} at workers={workers}"
        runs[workers] = (out, elapsed)
    return runs


def test_criterion_01_free_space_path_loss():
    lo = fspl_db(40581.0, 1500.0)
    hi = fspl_db(35786.0, 1500.0)
    ok = abs(lo - 188.14) <= 0.01 and abs(hi - 187.05) <= 0.01
    _check(1, "free-space path loss", ok,
           f"fspl(40581,1500)={lo:.4f} dB (188.14±0.01), "
           f"fspl(35786,1500)={hi:.4f} dB (187.05±0.01)")


def test_criterion_02_carrier_to_noise_ratio():
    lo = cnr_db(TABLE1_10DEG)
    hi = cnr_db(TABLE1_90DEG)
    ok = abs(lo - 8.3714) <= 0.02 and abs(hi - 9.4636) <= 0.02
    _check(2, "carrier-to-noise ratio", ok,
           f"cnr(10deg)={lo:.4f} dB (8.3714±0.02), "
           f"cnr(90deg)={hi:.4f} dB (9.4636±0.02)")


def test_criterion_03_capacity_chain():
    periodic = capacity_report(TABLE1_10DEG, PERIODIC_REPORT)
    event = capacity_report(TABLE1_10DEG, EVENT_REPORT)
    # headroom quoted against the rounded 0.0093 bps per-sensor figure
    rounded = supportable_sensors(periodic.peak_rate_bps, 0.0093)
    ok = (periodic.bits_per_ru == 144
          and periodic.peak_rate_bps == 216000.0
          and abs(rounded - 2.32e7) <= 0.005 * 2.32e7
          and abs(event.supportable_sensors - 3.24e4) <= 1)
    _check(3, "capacity chain", ok,
           f"bits/RU={periodic.bits_per_ru} (144), "
           f"peak={periodic.peak_rate_bps:.0f} bps (216000), "
           f"periodic@0.0093bps={rounded} (2.32e7±0.5%), "
           f"event={event.supportable_sensors} (32400±1)")


def test_criterion_04_carbon_arithmetic():
    tons = emission_tons(10202.04, 46.6237)
    price = carbon_price(tons, 20.0)
    net = savings(1.14e9, 116.4e6, 100000, 100.0)
    ok = (abs(tons - 5.71e7) <= 0.01e7
          and abs(price - 1.14e9) <= 0.01e9
          and abs(net - 1.01e9) <= 0.005e9)
    _check(4, "carbon arithmetic", ok,
           f"tons={tons:.4e} (5.71e7±1e5), price={price:.4e} (1.14e9±1e7), "
           f"savings={net:.4e} (1.01e9±5e6)")


def test_criterion_05_fire_kernel_properties():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=505))

    w = rng.uniform(0.0, 60.0, size=1000)
    beta = rng.uniform(0.0, 0.6, size=1000)
    exp_w = 1.0 - 0.9 * np.exp(-(w * w) / 2500.0)
    exp_m = np.square(1.0 - np.minimum(beta / 0.35, 1.0))
    exp_l = 1.0 + 10.0 * (1.0 - np.exp(-0.017 * w))
    rel_w = float(np.max(np.abs(wind_factor(w) - exp_w) / exp_w))
    # moisture hits exactly zero at saturation; compare absolutely there
    got_m = moisture_factor(beta)
    rel_m = float(np.max(np.abs(got_m - exp_m)
                         / np.where(exp_m > 0, exp_m, 1.0)))
    rel_l = float(np.max(np.abs(length_breadth_ratio(w) - exp_l) / exp_l))
    closed_ok = max(rel_w, rel_m, rel_l) <= 1e-12

    ws = np.sort(rng.uniform(0.0, 80.0, size=10_000))
    bs = np.sort(rng.uniform(0.0, 0.8, size=10_000))
    fw, fm, fl = wind_factor(ws), moisture_factor(bs), length_breadth_ratio(ws)
    mono_ok = (np.all(np.diff(fw) >= -1e-15)
               and np.all(np.diff(fm) <= 1e-15)
               and np.all(np.diff(fl) >= -1e-15))
    bounds_ok = (np.all((fw >= 0.1) & (fw < 1.0))
                 and np.all((fm >= 0.0) & (fm <= 1.0))
                 and np.all(fm[bs >= 0.35] == 0.0)
                 and np.all((fl >= 1.0) & (fl < 11.0)))
    elapsed = time.perf_counter() - t0
    ok = closed_ok and mono_ok and bounds_ok and elapsed < 1.0
    _check(5, "fire-kernel properties", ok,
           f"worst rel err={max(rel_w, rel_m, rel_l):.2e} (<=1e-12), "
           f"monotone={mono_ok}, bounds={bounds_ok}, {elapsed:.2f}s (<1s)")


def test_criterion_06_evolution_geometry_oracle():
    t0 = time.perf_counter()
    # constant wind (16, 12) m/s, dry soil; endpoint offsets recomputed
    # here from the closed forms, independent of the kernel code
    speed = 20.0
    u_p = 0.13 * (1.0 - 0.9 * math.exp(-(speed * speed) / 2500.0))
    u_b = 0.2 * u_p
    lb = 1.0 + 10.0 * (1.0 - math.exp(-0.017 * speed))
    v = (u_p + u_b) / (2.0 * lb)
    dirx, diry = 16.0 / speed, 12.0 / speed
    c, a, b = (u_p - u_b) * 1.8, (u_p + u_b) * 1.8, v * 3.6
    offsets = [((c + a) * dirx, (c + a) * diry),
               ((c - a) * dirx, (c - a) * diry),
               (c * dirx - b * diry, c * diry + b * dirx),
               (c * dirx + b * diry, c * diry - b * dirx)]

    env = synth_env(SynthSpec(nx=12, ny=12, nt=6, spacing_km=10.0,
                              mode="constant", u10=16.0, v10=12.0, swvl1=0.0), 0)
    frontier = Frontier(points=np.asarray([[60.0, 60.0]]), hour=0)
    brute = [(60.0, 60.0)]
    worst = 0.0
    for k in range(1, 6):
        frontier = step(frontier, env)
        brute = [(x + ox, y + oy) for (x, y) in brute for (ox, oy) in offsets]
        got = burned_circle(frontier.points)
        bx = sum(p[0] for p in brute) / len(brute)
        by = sum(p[1] for p in brute) / len(brute)
        br = max(math.hypot(p[0] - bx, p[1] - by) for p in brute)
        head = max((p[0] - 60.0) * dirx + (p[1] - 60.0) * diry
                   for p in frontier.points)
        worst = max(worst, abs(got[0] - bx), abs(got[1] - by),
                    abs(got[2] - br), abs(head - k * u_p * 3.6))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and frontier.points.shape[0] == 4 ** 5 and elapsed < 1.0
    _check(6, "evolution geometry oracle", ok,
           f"worst |error|={worst:.2e} (<=1e-9) over 5 unpruned steps "
           f"({frontier.points.shape[0]} points), {elapsed:.2f}s (<1s)")


def test_criterion_07_pruning_soundness():
    t0 = time.perf_counter()
    # fire-weather envelope (strong wind, dry soil), same as the bundled
    # season: the hourly head advance then exceeds the snap pitch, so
    # lattice dedup cannot stall the head point (see README limitations)
    rng = np.random.Generator(np.random.Philox(key=20260707))
    defaults = EvolutionConfig(max_hours=7.0)
    bound = defaults.snap_km * math.sqrt(2.0)
    worst = 0.0
    for i in range(100):
        speed = rng.uniform(16.0, 32.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        beta = rng.uniform(0.0, 0.06)
        spec = SynthSpec(nx=12, ny=12, nt=8, spacing_km=10.0, mode="constant",
                         u10=speed * math.cos(theta),
                         v10=speed * math.sin(theta), swvl1=beta)
        env = synth_env(spec, 0)
        inc = Incident(id=f"p{i}", start_hour=0, ignition_xy=(60.0, 60.0))
        pruned = circle_trajectory(inc, env, defaults)
        raw = circle_trajectory(inc, env,
                                EvolutionConfig(snap_km=0.0, max_hours=7.0))
        worst = max(worst, float(np.abs(pruned[:, 2] - raw[:, 2]).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= bound and elapsed < 30.0
    _check(7, "pruning soundness", ok,
           f"worst |radius diff|={worst:.4f} km (<= {bound:.4f}) over 100 "
           f"scenarios x 7 h, {elapsed:.1f}s (<30s)")


def _read_rows(path: Path) -> dict[int, dict[str, list[float]]]:
    by_count: dict[int, dict[str, list[float]]] = {}
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            d = by_count.setdefault(int(row["n_sensors"]),
                                    {"hours": [], "area": []})
            d["hours"].append(float(row["burned_hours"]))
            d["area"].append(float(row["burned_area_km2"]))
    return by_count


def test_criterion_08_monte_carlo_monotonicity(sweep_runs):
    out, elapsed = sweep_runs[1]
    by_count = _read_rows(out / "sweep_rows.csv")
    counts = sorted(by_count)
    means = {metric: [float(np.mean(by_count[c][metric])) for c in counts]
             for metric in ("hours", "area")}
    decreasing = all(m[i] > m[i + 1] for m in means.values()
                     for i in range(len(counts) - 1))
    worst_p = 0.0
    for metric in ("hours", "area"):
        for lo, hi in zip(counts, counts[1:]):
            t = stats.ttest_rel(by_count[lo][metric], by_count[hi][metric],
                                alternative="greater")
            worst_p = max(worst_p, float(t.pvalue))
    ok = (counts == [10_000, 100_000, 1_000_000]
          and len(by_count[counts[0]]["hours"]) == 30
          and decreasing and worst_p < 0.05 and elapsed <= 600.0)
    _check(8, "detection-sweep monotonicity", ok,
           f"counts={counts}, mean hours={[round(m, 1) for m in means['hours']]}, "
           f"mean area={[round(m, 1) for m in means['area']]}, "
           f"paired one-sided max p={worst_p:.2e} (<0.05), "
           f"{elapsed:.0f}s (<=600s)")


def test_criterion_09_sweep_determinism(sweep_runs):
    out1, _ = sweep_runs[1]
    out8, elapsed8 = sweep_runs[8]
    same_rows = ((out1 / "sweep_rows.csv").read_bytes()
                 == (out8 / "sweep_rows.csv").read_bytes())
    same_summary = ((out1 / "sweep_summary.csv").read_bytes()
                    == (out8 / "sweep_summary.csv").read_bytes())
    ok = same_rows and same_summary and elapsed8 <= 600.0
    _check(9, "sweep determinism across workers", ok,
           f"rows byte-identical={same_rows}, "
           f"summary byte-identical={same_summary} (workers 1 vs 8), "
           f"{elapsed8:.0f}s (<=600s)")


def test_criterion_10_historical_baseline_identity():
    env = synth_env(SynthSpec(nx=10, ny=11, nt=8784, spacing_km=100.0,
                              mode="constant"), 0)
    incidents = load_incidents(DATA / "historical_season_2020.csv",
                               CALIFORNIA, env)
    bio = synth_biomass(nx=4, ny=4, spacing_km=300.0, lo=40.0, hi=50.0, seed=1)
    totals = baseline_totals(incidents, None, bio, "historical")
    ok = (totals["burned_hours"] == 36716.25
          and totals["burned_area_km2"] == 10202.04)
    _check(10, "historical baseline identity", ok,
           f"hours={totals['burned_hours']!r} (== 36716.25), "
           f"area={totals['burned_area_km2']!r} km2 (== 10202.04) "
           f"over {len(incidents)} incidents")
