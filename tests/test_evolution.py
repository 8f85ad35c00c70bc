"""Frontier evolution: stepping, circles, pruning, detection, full runs."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emberlink.envdata import EnvGrid, Incident, Rect, SynthSpec, synth_env
from emberlink.errors import ValidationError
from emberlink.evolution import (BurnCircle, EvolutionConfig, Frontier,
                                 burned_circle, circle_trajectory, detect,
                                 incident_cap_hours, prune, replay_detection,
                                 simulate_incident, step, trace_rows)
from emberlink.firekernel import speeds
from emberlink.sensors import SensorField, deploy_uniform

NO_PRUNE = EvolutionConfig(snap_km=0.0, margin_km=0.0, max_hours=5.0)


def constant_env(u10: float, v10: float, swvl1: float, nt: int = 200,
                 nx: int = 10, ny: int = 10, spacing: float = 100.0) -> EnvGrid:
    spec = SynthSpec(nx=nx, ny=ny, nt=nt, spacing_km=spacing, mode="constant",
                     u10=u10, v10=v10, swvl1=swvl1)
    return synth_env(spec, 0)


def mid_incident(env: EnvGrid, start: int = 0, hist: float | None = None) -> Incident:
    r = env.rect
    return Incident(id="t", start_hour=start,
                    ignition_xy=(r.x0 + r.width_km / 2, r.y0 + r.height_km / 2),
                    historical_burn_hours=hist)


class TestStep:
    def test_branches_without_pruning(self):
        env = constant_env(12.0, 5.0, 0.0)
        f0 = Frontier(points=np.array([[500.0, 500.0]]), hour=0)
        f1 = step(f0, env)
        f2 = step(f1, env)
        assert f1.points.shape == (4, 2) and f1.hour == 1
        assert f2.points.shape == (16, 2) and f2.hour == 2

    def test_endpoint_offsets(self):
        env = constant_env(20.0, 0.0, 0.0)
        f1 = step(Frontier(points=np.array([[500.0, 500.0]]), hour=0), env)
        sp = speeds(20.0, 0.0)
        off = (sp.u_p - sp.u_b) * 1.8  # ellipse center leads the ignition
        got_x = np.sort(f1.points[:, 0] - 500.0)
        # upwind vertex, the two lateral endpoints (at the center), downwind
        np.testing.assert_allclose(
            got_x, [-sp.u_b * 3.6, off, off, sp.u_p * 3.6], atol=1e-12)
        lat = np.sort(f1.points[:, 1] - 500.0)
        np.testing.assert_allclose(lat[0], -sp.v * 3.6, atol=1e-12)
        np.testing.assert_allclose(lat[3], sp.v * 3.6, atol=1e-12)

    def test_time_range_exhausted(self):
        env = constant_env(10.0, 0.0, 0.0, nt=3)
        f = Frontier(points=np.array([[500.0, 500.0]]), hour=3)
        with pytest.raises(ValidationError):
            step(f, env)

    def test_wind_sampled_per_point_and_hour(self):
        # two cells with opposite winds push their points apart
        spec = SynthSpec(nx=2, ny=1, nt=2, spacing_km=100.0, mode="constant")
        env = synth_env(spec, 0)
        env.u10[:, 0, 0] = 20.0
        env.u10[:, 0, 1] = -20.0
        f = Frontier(points=np.array([[50.0, 50.0], [150.0, 50.0]]), hour=0)
        out = step(f, env).points.reshape(2, 4, 2)
        assert out[0, 0, 0] > 50.0   # first point heads +x
        assert out[1, 0, 0] < 150.0  # second heads -x


class TestBurnedCircle:
    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31))
    def test_matches_brute_force(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(scale=10.0, size=(n, 2))
        c = burned_circle(pts)
        center = pts.mean(axis=0)
        radius = float(np.max(np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])))
        assert c.center[0] == pytest.approx(center[0], rel=1e-12, abs=1e-12)
        assert c.center[1] == pytest.approx(center[1], rel=1e-12, abs=1e-12)
        assert c.radius_km == pytest.approx(radius, rel=1e-12, abs=1e-12)
        assert c.area_km2 == pytest.approx(math.pi * radius * radius, rel=1e-12)

    def test_single_point(self):
        c = burned_circle(np.array([[2.0, 3.0]]))
        assert c.center == (2.0, 3.0) and c.radius_km == 0.0 and c.area_km2 == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            burned_circle(np.empty((0, 2)))


class TestPrune:
    def test_identity_when_disabled(self):
        pts = np.random.default_rng(0).normal(size=(40, 2))
        f = Frontier(points=pts, hour=3)
        g = prune(f, BurnCircle((0.0, 0.0), 1.0), snap_km=0.0, margin_km=0.0)
        assert g.points is pts and g.hour == 3

    def test_snap_keeps_lexicographic_representative(self):
        pts = np.array([[0.26, 0.26], [0.24, 0.27], [0.24, 0.21], [5.0, 5.0]])
        g = prune(Frontier(points=pts, hour=0), None, snap_km=1.0, margin_km=0.0)
        # the first three share the lattice cell at the origin; the
        # smallest (x, y) pair is kept as that cell's representative
        assert sorted(map(tuple, g.points)) == [(0.24, 0.21), (5.0, 5.0)]

    def test_margin_drops_deep_interior_only(self):
        circle = BurnCircle((0.0, 0.0), 10.0)
        pts = np.array([[0.0, 0.0],    # deep inside -> dropped
                        [9.2, 0.0],    # within margin band -> kept
                        [0.0, 9.0],    # exactly on the shrunk circle -> kept
                        [10.0, 0.0]])  # rim -> kept
        g = prune(Frontier(points=pts, hour=1), circle, snap_km=0.0, margin_km=1.0)
        assert sorted(map(tuple, g.points)) == [(0.0, 9.0), (9.2, 0.0), (10.0, 0.0)]

    def test_zero_margin_keeps_interior(self):
        circle = BurnCircle((0.0, 0.0), 10.0)
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        g = prune(Frontier(points=pts, hour=1), circle, snap_km=0.0, margin_km=0.0)
        assert g.points.shape == (2, 2)

    def test_pruned_points_are_a_subset(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=5.0, size=(500, 2))
        circle = burned_circle(pts)
        g = prune(Frontier(points=pts, hour=0), circle, snap_km=0.3, margin_km=0.5)
        original = {tuple(p) for p in pts}
        assert all(tuple(p) in original for p in g.points)

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=200),
           st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=2.0))
    def test_radius_never_shrinks_past_the_snap_cell(self, n, seed, snap, margin):
        # the farthest point always survives the margin filter, and snap
        # dedup can replace it only by a cell-mate within snap * sqrt(2)
        rng = np.random.default_rng(seed)
        pts = rng.normal(scale=4.0, size=(n, 2))
        circle = burned_circle(pts)
        g = prune(Frontier(points=pts, hour=0), circle, snap_km=snap,
                  margin_km=margin)
        assert g.points.shape[0] >= 1
        d = g.points - np.asarray(circle.center)
        kept_radius = float(np.sqrt(np.einsum("ij,ij->i", d, d).max()))
        assert kept_radius >= circle.radius_km - snap * math.sqrt(2.0) - 1e-12

    def test_negative_knobs_rejected(self):
        f = Frontier(points=np.array([[0.0, 0.0]]), hour=0)
        with pytest.raises(ValidationError):
            prune(f, None, snap_km=-0.1, margin_km=0.0)


class TestDetect:
    def test_boundary_inclusive(self):
        field_ = SensorField(positions=np.array([[3.0, 4.0]]))
        assert detect(BurnCircle((0.0, 0.0), 5.0), field_) == 0
        assert detect(BurnCircle((0.0, 0.0), 4.9), field_) is None

    def test_nearest_wins(self):
        field_ = SensorField(positions=np.array([[4.0, 0.0], [1.0, 0.0]]))
        assert detect(BurnCircle((0.0, 0.0), 5.0), field_) == 1


class TestSimulate:
    def test_detection_at_ignition(self):
        env = constant_env(15.0, 0.0, 0.0)
        inc = mid_incident(env)
        field_ = SensorField(positions=np.array([inc.ignition_xy]))
        r = simulate_incident(inc, env, field_, NO_PRUNE)
        assert r.detected and r.detection_hour == 0.0
        assert r.detecting_sensor == 0
        assert r.burned_area_km2 == 0.0
        assert len(r.circle_trace) == 1

    def test_ignition_detection_can_be_disabled(self):
        env = constant_env(15.0, 0.0, 0.0)
        inc = mid_incident(env)
        field_ = SensorField(positions=np.array([inc.ignition_xy]))
        cfg = EvolutionConfig(snap_km=0.0, max_hours=5.0, detect_at_ignition=False)
        r = simulate_incident(inc, env, field_, cfg)
        assert r.detected and r.detection_hour == 1.0

    def test_cap_reached_reports_cap(self):
        env = constant_env(15.0, 0.0, 0.0)
        inc = mid_incident(env)
        r = simulate_incident(inc, env, SensorField(positions=[]), NO_PRUNE)
        assert not r.detected
        assert r.detection_hour == 5.0
        assert r.detecting_sensor is None
        assert len(r.circle_trace) == 6  # hours 0..5
        assert r.burned_area_km2 == pytest.approx(r.circle_trace[-1].area_km2)

    def test_fractional_cap(self):
        env = constant_env(15.0, 0.0, 0.0)
        inc = mid_incident(env, hist=3.25)
        cfg = EvolutionConfig(snap_km=0.0, max_hours=50.0)
        r = simulate_incident(inc, env, SensorField(positions=[]), cfg)
        assert r.detection_hour == 3.25  # 3 whole steps, reported at the cap
        assert len(r.circle_trace) == 4

    def test_historical_cap_beats_config(self):
        env = constant_env(15.0, 0.0, 0.0)
        assert incident_cap_hours(mid_incident(env, hist=2.0),
                                  EvolutionConfig(max_hours=99.0)) == 2.0
        assert incident_cap_hours(mid_incident(env),
                                  EvolutionConfig(max_hours=99.0)) == 99.0

    def test_env_end_reports_elapsed_hours(self):
        env = constant_env(15.0, 0.0, 0.0, nt=4)
        inc = mid_incident(env, start=2)  # only hours 2->3, 3->4 exist
        cfg = EvolutionConfig(snap_km=0.0, max_hours=50.0)
        r = simulate_incident(inc, env, SensorField(positions=[]), cfg)
        assert not r.detected
        assert r.detection_hour == 2.0
        assert len(r.circle_trace) == 3

    def test_zero_cap(self):
        env = constant_env(15.0, 0.0, 0.0)
        inc = mid_incident(env, hist=0.0)
        r = simulate_incident(inc, env, SensorField(positions=[]),
                              EvolutionConfig())
        assert r.detection_hour == 0.0 and r.burned_area_km2 == 0.0

    def test_downwind_extreme_identity(self):
        # under constant wind, k unpruned steps push the head exactly
        # k * u_p * 3600 / 1000 km downwind of the ignition
        env = constant_env(25.0, 0.0, 0.0)
        inc = mid_incident(env, hist=5.0)
        r = simulate_incident(inc, env, SensorField(positions=[]), NO_PRUNE)
        sp = speeds(25.0, 0.0)
        x0 = inc.ignition_xy[0]
        for k, circle in enumerate(r.circle_trace):
            head = circle.center[0] + circle.radius_km - x0
            if k:
                assert head == pytest.approx(k * sp.u_p * 3.6, abs=1e-9)

    def test_wet_soil_never_grows(self):
        env = constant_env(25.0, 0.0, 0.40)  # beyond the wetness cutoff
        inc = mid_incident(env, hist=4.0)
        r = simulate_incident(inc, env, SensorField(positions=[]), NO_PRUNE)
        assert r.burned_area_km2 == 0.0


def brute_force_detection(circles, positions):
    """(hour, sensor) of the first detection from ignition on, or None:
    every sensor is tested every hour, no spatial hash, closest wins, ties
    to the lowest index."""
    for k in range(len(circles)):
        cx, cy = circles[k].center
        r = circles[k].radius_km
        best = None
        for i, (x, y) in enumerate(positions):
            dx, dy = x - cx, y - cy
            d2 = dx * dx + dy * dy
            if d2 <= r * r and (best is None or d2 < best[0]):
                best = (d2, i)
        if best is not None:
            return k, best[1]
    return None


class TestTrajectoryReplay:
    def test_replay_matches_brute_force(self):
        rng = np.random.default_rng(8)
        spec = SynthSpec(nx=8, ny=8, nt=40, spacing_km=25.0, mode="random",
                         u10_range=(5.0, 30.0), v10_range=(-10.0, 10.0),
                         swvl1_range=(0.0, 0.2), coarse_nx=3, coarse_ny=3,
                         coarse_nt=4)
        env = synth_env(spec, 31)
        cfg = EvolutionConfig(snap_km=0.05, margin_km=0.0, max_hours=20.0)
        detections = 0
        for trial in range(10):
            inc = Incident(id=f"r{trial}", start_hour=int(rng.integers(0, 15)),
                           ignition_xy=(float(rng.uniform(40, 160)),
                                        float(rng.uniform(40, 160))))
            circles = circle_trajectory(inc, env, cfg)
            field_ = deploy_uniform(int(rng.integers(0, 400)), env.rect,
                                    seed=trial)
            # the uniform fields are too sparse to see these sub-km fires;
            # a local field, stacked on a copy of itself so every hit has
            # an equidistant twin at a higher index, exercises detection
            # and the tie rule
            x, y = inc.ignition_xy
            local = deploy_uniform(20, Rect(x - 1.0, y - 1.0, 2.0, 2.0),
                                   seed=trial).positions
            twinned = SensorField(positions=np.vstack([local, local]))
            for sensors in (field_, twinned):
                r = replay_detection(inc, circles, sensors, cfg)
                expected = brute_force_detection(
                    circles, sensors.positions.tolist())
                if expected is None:
                    assert not r.detected and r.detecting_sensor is None
                    assert r.detection_hour == cfg.max_hours
                    assert r.circle_trace == tuple(circles)
                else:
                    k, sensor = expected
                    detections += 1
                    assert r.detected and r.detecting_sensor == sensor
                    assert r.detection_hour == float(k)
                    assert r.circle_trace == tuple(circles[:k + 1])
                assert r.burned_area_km2 == r.circle_trace[-1].area_km2
        assert detections >= 5

    def test_trajectory_matches_trace(self):
        env = constant_env(20.0, 5.0, 0.05)
        inc = mid_incident(env, hist=6.0)
        cfg = EvolutionConfig(snap_km=0.05, max_hours=10.0)
        circles = circle_trajectory(inc, env, cfg)
        rows = trace_rows(inc, env, cfg)
        assert [c for _, c, _ in rows] == circles
        assert [h for h, _, _ in rows] == list(range(len(circles)))
        assert all(n >= 1 for _, _, n in rows)

    def test_radii_never_decrease(self):
        env = constant_env(22.0, -7.0, 0.02)
        inc = mid_incident(env, hist=24.0)
        circles = circle_trajectory(inc, env, EvolutionConfig(snap_km=0.05))
        radii = [c.radius_km for c in circles]
        assert all(b >= a for a, b in zip(radii, radii[1:]))
