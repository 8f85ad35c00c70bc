"""The sweep's trial means against the coverage formula's expectations.

A sweep deploys n sensors i.i.d. uniform over the env rectangle, of area
A. An incident is first seen by hour k exactly when some sensor lies in
the union of its circles 0..k. While the circles nest, that union is the
largest of them, of area a_k = max over j <= k of pi r_j^2, so

    P(undetected after hour k) = (1 - a_k / A)^n

(P. Hall, Introduction to the Theory of Coverage Processes, Wiley 1988).
Each incident's reported hours, area and tons follow, and a season
total's expectation and variance are sums over the incidents. None of
the deploy, screen, prefix or hit-test code enters the formula, so a bias
in any of them moves trial means off their expectations.

The test sweeps the SUBSET incidents of the bundled season whose last
circles are largest, at small counts with TRIALS trials, and asserts that
every sweep_summary.csv column lies within TOL standard errors of its
expectation, for every count; at count 0 the columns are exact. The
standard error is the formula's own, with incidents independent: their
screens are checked to be disjoint, and a field of fixed size only makes
disjoint counts a little negatively correlated. The formula's other
assumptions are checked on the subset too: no circle crosses the
rectangle's edge, and the hour pairs whose circles do not nest (printed)
move no expectation by more than a tenth of its standard error, as a
raster union of the circles measures it.

Seeds are fixed, so the test is deterministic. For a correct program and
seeds drawn at random, each count's z-values are about standard normal;
price and savings are affine in tons, so each count above 0 has 3
distinct ones (hours, area, tons). By the union bound over those 6, the
chance that a correct program fails is at most 6 * 2 * Phi(-3.5) = 2.8e-3.

The size was set by mutation: each of these fails the test, with its worst
|z| at this size: the positions' x squeezed by 1 % after the deploy's
screen (61), a detection reported one row late (11), the replay's radius
shrunk by 1 % (4.0), and a count n taking n + 1 draws (count 0 detects).
A 1 % squeeze of the raster and the positions alike is a pure 1 % change
of sensor density; its worst |z| is 2.8, and it passes.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from emberlink.carbon import average_biomass, emission_tons
from emberlink.harness import sweep

SUBSET = 25  # incidents
COUNTS = (0, 20000, 50000)
TRIALS = 1400
TOL = 3.5  # standard errors
RASTER = 128  # cells per side of a raster union's box


def raster_union_excess(circles: np.ndarray) -> np.ndarray:
    """Per hour k, the union of circles 0..k less its largest circle, in
    km^2, both measured on one raster over the circles' bounding box (its
    resolution error cancels in the difference)."""
    cx, cy, r = circles.T
    x0, x1 = float((cx - r).min()), float((cx + r).max())
    y0, y1 = float((cy - r).min()), float((cy + r).max())
    xs = x0 + (np.arange(RASTER) + 0.5) * (x1 - x0) / RASTER
    ys = y0 + (np.arange(RASTER) + 0.5) * (y1 - y0) / RASTER
    cell = (x1 - x0) * (y1 - y0) / RASTER ** 2
    union = np.zeros((RASTER, RASTER), dtype=bool)
    largest = 0
    excess = np.zeros(len(circles))
    for k, (x, y, radius) in enumerate(circles.tolist()):
        disk = (ys[:, None] - y) ** 2 + (xs[None, :] - x) ** 2 <= radius * radius
        union |= disk
        largest = max(largest, int(disk.sum()))
        excess[k] = (int(union.sum()) - largest) * cell
    return excess


def outcomes(circles: np.ndarray, tons: np.ndarray,
             cap: float) -> tuple[np.ndarray, np.ndarray]:
    """A (3, hours + 2) array of the hours, area and tons an incident
    reports when first detected at hour k = 0..hours, then undetected; and
    the running-max areas a_k."""
    area = math.pi * circles[:, 2] * circles[:, 2]
    hours = np.append(np.arange(len(circles), dtype=float), cap)
    values = np.stack([hours, np.append(area, area[-1]), np.append(tons, tons[-1])])
    return values, np.maximum.accumulate(area)


def moments(values: np.ndarray, covered: np.ndarray, n: int,
            rect_area: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of each row of values over one incident's outcome,
    with covered[k] the area a sensor must hit by hour k."""
    undetected = (1.0 - covered / rect_area) ** n
    p = np.append(np.append(1.0, undetected[:-1]) - undetected, undetected[-1])
    mean = values @ p
    return mean, (values * values) @ p - mean * mean


def sweep_subset(season):
    """The subset's env, biomass, sweep config, trajectories, summary rows
    and manifest, given the bundled season (see conftest.py)."""
    incidents, env, bio, swp, evo, traces = season
    largest = sorted(range(len(incidents)), key=lambda i: -traces[i][0][-1, 2])
    subset = sorted(largest[:SUBSET])
    cfg = replace(swp, sensor_counts=COUNTS, trials=TRIALS)
    _, summary, manifest = sweep([incidents[i] for i in subset], env, bio, cfg,
                                 evolution=evo, workers=2)
    return env, bio, cfg, [traces[i][0] for i in subset], summary, manifest


@pytest.fixture(scope="module")
def season(bundled_season):
    return sweep_subset(bundled_season)


def test_subset_meets_the_formula_assumptions(season):
    env, _, cfg, trajectories, _, _ = season
    rect = env.rect
    for circles in trajectories:
        # every incident burns to the cap, so an undetected one reports it
        assert len(circles) == cfg.cap_hours + 1
        cx, cy, r = circles.T
        assert (cx - r >= rect.x0).all() and (cx + r <= rect.x0 + rect.width_km).all()
        assert (cy - r >= rect.y0).all() and (cy + r <= rect.y0 + rect.height_km).all()
    # each incident's circles lie in a disk about its last center; no two
    # such disks meet, so no sensor can see two incidents
    last = np.array([c[-1, :2] for c in trajectories])
    reach = np.array([(np.hypot(*(c[:, :2] - c[-1, :2]).T) + c[:, 2]).max()
                      for c in trajectories])
    gap = np.hypot(*(last[:, None] - last[None]).transpose(2, 0, 1))
    gap -= reach[:, None] + reach[None, :]
    np.fill_diagonal(gap, np.inf)
    assert gap.min() > 0


def z_values(season) -> dict[tuple[int, int], float]:
    """(count, column) -> (trial mean - expectation) / standard error, for
    the summary's columns after n_sensors. A column whose standard error
    is 0 reads 0 when its mean is its expectation to rounding, else inf."""
    env, bio, cfg, trajectories, summary, manifest = season
    rect_area = env.rect.width_km * env.rect.height_km
    pairs, overhang = 0, 0.0
    table = []  # per incident: values, running-max areas, raster excess
    for circles in trajectories:
        tons = np.array([emission_tons(math.pi * c[2] * c[2], average_biomass(c, bio))
                         for c in circles.tolist()])
        values, covered = outcomes(circles, tons, cfg.cap_hours)
        # how far each hour's circle reaches past the next one's
        cx, cy, r = circles.T
        out = np.hypot(np.diff(cx), np.diff(cy)) + r[:-1] - r[1:]
        pairs += int((out > 0).sum())
        overhang = max(overhang, float((out / r[1:]).max()))
        excess = raster_union_excess(circles) if (out > 0).any() else 0.0
        table.append((values, covered, excess))
    print(f"{pairs} of {sum(len(c) - 1 for c in trajectories)} hour pairs do not "
          f"nest; the worst reaches {overhang:.2%} of the radius past the next")
    base = manifest["baseline"]
    assert base["burned_hours"] == pytest.approx(sum(v[0, -1] for v, _, _ in table),
                                                 rel=1e-12)
    assert base["carbon_tons"] == pytest.approx(sum(v[2, -1] for v, _, _ in table),
                                                rel=1e-12)
    zs = {}
    for n, *means in summary:
        mean = var = union_mean = 0.0
        for values, covered, excess in table:
            m, v = moments(values, covered, n, rect_area)
            mean, var = mean + m, var + v
            union_mean = union_mean + moments(values, covered + excess, n, rect_area)[0]
        se = np.sqrt(var / cfg.trials)
        # the pairs that do not nest move no expectation by more than a
        # tenth of its standard error
        assert (np.abs(union_mean - mean) <= 0.1 * se + 1e-9 * np.abs(mean)).all()
        usd, costs = cfg.usd_per_ton, cfg.unit_sensor_cost_usd
        price = mean[2] * usd
        expect = [*mean, price, *(base["carbon_price_usd"] - price - n * c for c in costs)]
        errors = [*se, se[2] * usd, *[se[2] * usd] * len(costs)]
        for col, (got, want, err) in enumerate(zip(means, expect, errors)):
            if abs(got - want) <= 1e-9 * abs(want):
                zs[n, col] = 0.0 if err == 0 else (got - want) / err
            else:
                zs[n, col] = (got - want) / err if err else math.inf
    return zs


def test_trial_means_match_the_coverage_formula(season):
    zs = z_values(season)
    bad = {key: z for key, z in zs.items() if abs(z) > TOL}
    assert not bad, f"(count, column) z-values past {TOL}: {bad}"
