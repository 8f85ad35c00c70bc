"""Frontier evolution: hourly branching, circles, pruning, detection, full runs."""

from __future__ import annotations

import hashlib
import math
import pickle
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emberlink import evolution
from emberlink.envdata import (EnvGrid, Incident, Rect, SynthSpec, cell_values,
                               sample_env_many, synth_env)
from emberlink.errors import ValidationError
from emberlink.evolution import (STEP_S, TERM_HOURS, EvolutionConfig, Frontier, burned_circle,
                                 circle_trajectory, incident_cap_hours, prune,
                                 replay_detection, screen_disk, trace_rows,
                                 undetected_hours)
from emberlink.firekernel import (DEFAULT_PARAMS, branch_endpoints, ellipse_terms,
                                  length_breadth_ratio, spread_speed)
from emberlink.harness import bundled_scenario_path, load_season_bundle
from emberlink.sensors import (RASTER_CELLS, SensorField, _screen, deploy_uniform,
                               load_sensors, save_sensors)

NO_PRUNE = EvolutionConfig(snap_km=0.0, max_hours=5.0)


def speeds(ws_ms: float, beta_root: float) -> tuple[float, float, float]:
    """Head, back and lateral spread speeds (m/s) of the default model;
    the lateral speed follows from L_B = (u_p + u_b) / (2 v)."""
    u_p = spread_speed(ws_ms, beta_root)
    u_b = 0.2 * u_p
    return u_p, u_b, (u_p + u_b) / (2.0 * length_breadth_ratio(ws_ms))


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


def lexsort_prune(frontier: Frontier, snap_km: float) -> Frontier:
    """Reference prune: the 4-key float lexsort (ki, kj, x, y), first of
    each (ki, kj) run kept."""
    pts = frontier.points
    if snap_km > 0 and pts.shape[0] > 1:
        scale = float(np.max(np.abs(pts)))
        if scale > 0 and snap_km < scale * 2.0 ** -53:
            ki, kj = pts[:, 0], pts[:, 1]
        else:
            ki = np.round(pts[:, 0] / snap_km)
            kj = np.round(pts[:, 1] / snap_km)
        order = np.lexsort((pts[:, 1], pts[:, 0], kj, ki))
        ki_s, kj_s = ki[order], kj[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (ki_s[1:] != ki_s[:-1]) | (kj_s[1:] != kj_s[:-1])
        pts = pts[order[first]]
    return Frontier(points=pts)


def assert_prunes_like_lexsort(pts, snap_km: float) -> np.ndarray:
    """prune and lexsort_prune keep the same points, bit for bit, in the
    same order; returns the kept points."""
    f = Frontier(points=np.asarray(pts, dtype=float))
    got = prune(f, snap_km).points
    want = lexsort_prune(f, snap_km).points
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # a column-major copy, as trace_rows hands over, prunes alike, and the kept
    # frontier is column-major either way
    fortran = prune(Frontier(points=np.asfortranarray(f.points)), snap_km).points
    assert fortran.tobytes() == want.tobytes()
    assert got.flags.f_contiguous and fortran.flags.f_contiguous
    return got


def sequential_circle(pts: np.ndarray) -> bytes:
    """Center and radius from left-to-right Python float sums, as bytes."""
    rows = pts.tolist()
    sx = sy = 0.0
    for x, y in rows:
        sx += x
        sy += y
    cx, cy = sx / len(rows), sy / len(rows)
    r2 = max((x - cx) * (x - cx) + (y - cy) * (y - cy) for x, y in rows)
    return np.array([cx, cy, math.sqrt(r2)]).tobytes()


def branched_frontiers(monkeypatch, incident: Incident, env: EnvGrid,
                       cfg: EvolutionConfig) -> list[np.ndarray]:
    """Each hour's raw branched points of trace_rows, as burned_circle
    receives them."""
    raw = []
    real = evolution.burned_circle

    def recording(points):
        raw.append(points)
        return real(points)

    monkeypatch.setattr(evolution, "burned_circle", recording)
    trace_rows(incident, env, cfg)
    return raw


def circle_bytes(c: np.ndarray) -> bytes:
    assert c.dtype == np.float64 and c.shape == (3,)
    return c.tobytes()


class TestEvolutionConfig:
    @pytest.mark.parametrize("field, bad", [
        ("snap_km", math.nan), ("max_hours", math.nan), ("max_hours", -1.0),
    ])
    def test_out_of_range_rejected(self, field, bad):
        with pytest.raises(ValidationError, match=field):
            EvolutionConfig(**{field: bad})

    def test_unbounded_horizon_accepted(self):
        assert EvolutionConfig(max_hours=math.inf).max_hours == math.inf


class TestHourlyBranching:
    def test_branches_without_pruning(self, monkeypatch):
        env = constant_env(12.0, 5.0, 0.0)
        sampled = []
        real = evolution.sample_env_many

        def recording(grid, points, hour):
            sampled.append((hour, len(points)))
            return real(grid, points, hour)

        monkeypatch.setattr(evolution, "sample_env_many", recording)
        inc = Incident(id="t", start_hour=3, ignition_xy=(500.0, 500.0))
        circles, sizes = trace_rows(inc, env, replace(NO_PRUNE, max_hours=2.0))
        # each hour grows the whole frontier the hour before left, sampled
        # at the incident's start hour, then the hour after it
        assert sampled == [(3, 1), (4, 4)]
        assert len(circles) == 3 and sizes.tolist() == [1, 4, 16]

    def test_endpoint_offsets(self, monkeypatch):
        env = constant_env(20.0, 0.0, 0.0)
        inc = Incident(id="t", start_hour=0, ignition_xy=(500.0, 500.0))
        [raw] = branched_frontiers(monkeypatch, inc, env, replace(NO_PRUNE, max_hours=1.0))
        u_p, u_b, v = speeds(20.0, 0.0)
        off = (u_p - u_b) * 1.8  # ellipse center leads the ignition
        got_x = np.sort(raw[:, 0] - 500.0)
        # upwind vertex, the two lateral endpoints (at the center), downwind
        np.testing.assert_allclose(
            got_x, [-u_b * 3.6, off, off, u_p * 3.6], atol=1e-12)
        lat = np.sort(raw[:, 1] - 500.0)
        np.testing.assert_allclose(lat[0], -v * 3.6, atol=1e-12)
        np.testing.assert_allclose(lat[3], v * 3.6, atol=1e-12)

    def test_time_range_exhausted(self):
        env = constant_env(10.0, 0.0, 0.0, nt=3)
        with pytest.raises(ValidationError, match=r"hour 3 outside \[0, 3\)"):
            sample_env_many(env, np.array([[500.0, 500.0]]), 3)
        # trace_rows stops at the env horizon instead of sampling past it
        inc = Incident(id="t", start_hour=2, ignition_xy=(500.0, 500.0))
        assert len(circle_trajectory(inc, env, NO_PRUNE)) == 2

    def test_points_are_a_view_of_the_kernel_buffer(self, monkeypatch):
        # two cells, so the kernel's terms are gathered by slot once the
        # frontier crosses x = 100 into the second
        u10 = np.zeros((3, 1, 2), dtype=np.float32)
        u10[:, 0, 0], u10[:, 0, 1] = 20.0, -3.0
        calm = np.zeros_like(u10)
        env = EnvGrid(nx=2, ny=1, nt=3, spacing_km=100.0, origin=(0.0, 0.0),
                      u10=u10, v10=calm + 4.0, swvl1=calm)
        grown, made = [], []
        real = evolution.branch_endpoints

        def kept(points, *args):
            grown.append((points, args))
            made.append(real(points, *args))
            return made[-1]

        monkeypatch.setattr(evolution, "branch_endpoints", kept)
        inc = Incident(id="t", start_hour=0, ignition_xy=(99.95, 50.0))
        raw = branched_frontiers(monkeypatch, inc, env, EvolutionConfig(max_hours=3.0))
        assert len(raw) == len(made) == 3
        assert len(set(grown[-1][1][-1].tolist())) == 2  # the last hour's slots
        for out, buffer in zip(raw, made):
            assert out.shape == (buffer.size // 2, 2) and np.shares_memory(out, buffer)
            assert out[:, 0].flags.c_contiguous and out[:, 1].flags.c_contiguous
            assert out.tobytes() == buffer.tobytes()
        # the kept frontier is column-major too, and branches as any copy
        for points, args in grown[1:]:
            assert points.flags.f_contiguous
            again = real(np.ascontiguousarray(points), *args)
            assert real(points, *args).tobytes() == again.tobytes()

    def test_wind_sampled_per_point_and_hour(self):
        # two cells with opposite winds push their points apart at hour 0
        # and together at hour 1, when the winds swap
        u10 = np.zeros((2, 1, 2), dtype=np.float32)
        u10[0, 0], u10[1, 0] = (20.0, -20.0), (-20.0, 20.0)
        calm = np.zeros_like(u10)
        env = EnvGrid(nx=2, ny=1, nt=2, spacing_km=100.0, origin=(0.0, 0.0),
                      u10=u10, v10=calm, swvl1=calm)
        pts = np.array([[50.0, 50.0], [150.0, 50.0]])
        for hour, sign in ((0, 1.0), (1, -1.0)):
            cells, slot = sample_env_many(env, pts, hour)
            terms = ellipse_terms(*cell_values(env, cells, hour), STEP_S, DEFAULT_PARAMS)
            out = branch_endpoints(pts, *terms, slot)
            # each point's downwind vertex comes first
            assert sign * (out[0, 0, 0] - 50.0) > 0
            assert sign * (out[1, 0, 0] - 150.0) < 0


class TestBurnedCircle:
    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31))
    def test_matches_brute_force(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(scale=10.0, size=(n, 2))
        c = burned_circle(pts)
        center = pts.mean(axis=0)
        radius = float(np.max(np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])))
        assert c[0] == pytest.approx(center[0], rel=1e-12, abs=1e-12)
        assert c[1] == pytest.approx(center[1], rel=1e-12, abs=1e-12)
        assert c[2] == pytest.approx(radius, rel=1e-12, abs=1e-12)

    def test_single_point(self):
        c = burned_circle(np.array([[2.0, 3.0]]))
        assert c.tolist() == [2.0, 3.0, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            burned_circle(np.empty((0, 2)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1e-6, 1.0, 1e3]),
           st.floats(min_value=-1e4, max_value=1e4),
           st.booleans())
    def test_matches_sequential_sum(self, n, seed, scale, offset, fortran):
        rng = np.random.default_rng(seed)
        pts = offset + rng.normal(scale=scale, size=(n, 2))
        if fortran:  # the sums must not follow the memory layout
            pts = np.asfortranarray(pts)
        assert circle_bytes(burned_circle(pts)) == sequential_circle(pts)


class TestPrune:
    def test_identity_when_disabled(self):
        pts = np.random.default_rng(0).normal(size=(40, 2))
        g = prune(Frontier(points=pts), snap_km=0.0)
        assert g.points is pts

    def test_snap_keeps_lexicographic_representative(self):
        pts = np.array([[0.26, 0.26], [0.24, 0.27], [0.24, 0.21], [5.0, 5.0]])
        g = prune(Frontier(points=pts), snap_km=1.0)
        # the first three share the lattice cell at the origin; the
        # smallest (x, y) pair is kept as that cell's representative
        assert sorted(map(tuple, g.points)) == [(0.24, 0.21), (5.0, 5.0)]

    def test_pruned_points_are_a_subset(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=5.0, size=(500, 2))
        g = prune(Frontier(points=pts), snap_km=0.3)
        original = {tuple(p) for p in pts}
        assert all(tuple(p) in original for p in g.points)

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=200),
           st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=0.0, max_value=1.0))
    def test_radius_never_shrinks_past_the_snap_cell(self, n, seed, snap):
        # snap dedup can replace the farthest point only by a cell-mate
        # within snap * sqrt(2)
        rng = np.random.default_rng(seed)
        pts = rng.normal(scale=4.0, size=(n, 2))
        circle = burned_circle(pts)
        g = prune(Frontier(points=pts), snap_km=snap)
        assert g.points.shape[0] >= 1
        d = g.points - circle[:2]
        kept_radius = float(np.sqrt(np.einsum("ij,ij->i", d, d).max()))
        assert kept_radius >= circle[2] - snap * math.sqrt(2.0) - 1e-12

    def test_negative_knobs_rejected(self):
        f = Frontier(points=np.array([[0.0, 0.0]]))
        with pytest.raises(ValidationError):
            prune(f, snap_km=-0.1)


# hours whose branched frontier stays under MAX_POINTS with dedup off:
# hour k branches 4**k points
UNPRUNED_HOURS = max(k for k in range(32) if 4 ** k < evolution.MAX_POINTS)


class TestSlowSpreadDedupLag:
    """Pins the measured lag of the default 0.05 km dedup where the head
    advances less than snap_km an hour (README Limitations): the unpruned
    radius minus the pruned one, hours 1..10, against snap_km 0."""

    @pytest.mark.parametrize("u10, v10, swvl1, lag_km", [
        # the frontier collapses to one point each hour and the pruned
        # radius stalls at its hour-1 value while the unpruned one grows
        (2.0, 0.0, 0.2, [0.0, 0.005232, 0.010464, 0.015695, 0.020927,
                         0.026159, 0.031391, 0.036622, 0.041854, 0.047086]),
        # the pruned frontier escapes its cell at hour 7, then lags again
        (3.0, 1.0, 0.1, [0.0, 0.014841, 0.029683, 0.044524, 0.059365,
                         0.074206, 0.081100, 0.095941, 0.110783, 0.118730]),
    ])
    def test_lag_against_unpruned_radius(self, u10, v10, swvl1, lag_km):
        assert UNPRUNED_HOURS == len(lag_km) == 10
        env = constant_env(u10, v10, swvl1)
        inc = mid_incident(env, hist=float(UNPRUNED_HOURS))
        pruned = circle_trajectory(inc, env, EvolutionConfig(snap_km=0.05))[1:, 2]
        unpruned = circle_trajectory(inc, env, EvolutionConfig(snap_km=0.0))[1:, 2]
        np.testing.assert_allclose(unpruned - pruned, lag_km, rtol=0, atol=1e-6)


class TestPruneMatchesLexsort:
    """The per-cell minima dedup keeps what the 4-key lexsort kept, bit for
    bit and in the same order (the next hour's sums follow that order)."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=300),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=1e-3, max_value=2.0),
           st.sampled_from([0.01, 1.0, 50.0]),
           st.floats(min_value=-1e4, max_value=1e4),
           st.floats(min_value=0.0, max_value=0.9),
           st.booleans())
    def test_random_clouds(self, n, seed, snap, spread, offset, dup_frac,
                           half_cells):
        rng = np.random.default_rng(seed)
        pts = offset + rng.normal(scale=spread, size=(n, 2))
        if half_cells:
            # on the half-cell grid: rounding ties at cell edges, and
            # cell-mates sharing x so y and input order break the tie
            pts = np.round(pts / (snap / 2)) * (snap / 2)
        dups = rng.integers(0, n, size=int(dup_frac * n))
        pts[rng.integers(0, n, size=dups.size)] = pts[dups]
        assert_prunes_like_lexsort(pts, snap)

    @pytest.mark.parametrize("pts", [
        [[3.2, -1.7]],
        [[3.2, -1.7], [3.2, -1.7]],
        [[3.2, -1.7], [3.21, -1.69]],
        [[3.2, -1.7], [-3.2, 1.7]],
        [[0.0, 0.0], [-0.0, -0.0]],
    ])
    def test_one_and_two_points(self, pts):
        for snap in (1e-30, 0.05, 1.0):
            assert_prunes_like_lexsort(pts, snap)

    @settings(max_examples=100, deadline=None)
    @given(st.permutations([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0),
                            (-0.0, -0.0), (-0.0, 1e-4), (1e-4, -0.0)]),
           st.sampled_from([1e-30, 1e-3, 1.0]))
    def test_signed_zeros_tie_in_input_order(self, pts, snap):
        kept = assert_prunes_like_lexsort(pts, snap)
        # the first (+-0, +-0) point in input order represents the origin
        origin = np.array([p for p in pts if p == (0.0, 0.0)][0])
        assert any(k.tobytes() == origin.tobytes() for k in kept)

    def test_lattice_finer_than_float_spacing(self):
        pts = [[1e6, 1.0], [1e6 + 1e-10, 1.0], [1e6, 1.0]]
        kept = assert_prunes_like_lexsort(pts, 1e-11)
        assert kept.tolist() == [[1e6, 1.0], [1e6 + 1e-10, 1.0]]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1e6, -3.0e7, 12.5, 2.0 ** 40]),
           st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                    min_size=1, max_size=40),
           st.floats(min_value=1e-300, max_value=1e-3))
    def test_sub_spacing_lattice_keeps_distinct_floats(self, base, steps, frac):
        # neighbouring floats stay apart when the lattice is finer than
        # float spacing at that scale
        ulp = float(np.spacing(abs(base)))
        pts = [[base + i * ulp, base + j * ulp] for i, j in steps]
        snap = abs(base) * 2.0 ** -53 * frac
        kept = assert_prunes_like_lexsort(pts, snap)
        assert len(kept) == len(set(map(tuple, pts)))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=2.0),
           st.lists(st.tuples(st.sampled_from([-1.0, 1.0]),
                              st.sampled_from([1.0 + 2.0 ** -52, 1.0,
                                               1.0 - 2.0 ** -53, 1.0 - 2.0 ** -40,
                                               0.5, 2.0 ** -30, 0.0]),
                              st.integers(-3, 3)),
                    min_size=2, max_size=24),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_coordinates_near_2_53_snaps(self, snap, coords, seed):
        # |x| / snap near 2**53: both sides of the float-spacing branch,
        # and spans whose bounding-box key would overflow int64
        big = 2.0 ** 53 * snap
        vals = [sign * big * frac + k * snap for sign, frac, k in coords]
        rng = np.random.default_rng(seed)
        pts = np.column_stack([vals, rng.permutation(vals)])
        assert_prunes_like_lexsort(pts, snap)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=200),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=1e-3, max_value=2.0),
           st.sampled_from([1e3, 1e9, 1e12]))
    def test_far_apart_clusters(self, n, seed, snap, distance):
        rng = np.random.default_rng(seed)
        corners = distance * rng.choice([-1.0, 1.0], size=(n, 2))
        pts = corners + rng.normal(scale=3 * snap, size=(n, 2))
        assert_prunes_like_lexsort(pts, snap)

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 300])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_packed_key_at_the_int64_limit(self, n, extra):
        # the bounding box holds 2**(63 - bits) cells, plus extra columns:
        # the largest exact key sits right at 2**63 - 1
        bits = (n - 1).bit_length()
        wi = 2 ** ((63 - bits) // 2)
        wj = 2 ** (63 - bits) // wi + extra
        rng = np.random.default_rng(n)
        pts = np.column_stack([rng.integers(0, wi, n), rng.integers(0, wj, n)])
        pts[:2] = [[0, 0], [wi - 1, wj - 1]]
        assert_prunes_like_lexsort(pts.astype(float) - 2.0 ** 20, 1.0)

    def test_infinite_coordinates(self):
        pts = [[math.inf, 0.0], [1.0, 2.0], [math.inf, 0.0], [-math.inf, 5.0]]
        assert_prunes_like_lexsort(pts, 0.5)

    def test_nan_rejected(self):
        f = Frontier(points=np.array([[0.0, math.nan], [1.0, 1.0]]))
        with pytest.raises(ValidationError):
            prune(f, snap_km=0.05)

    @pytest.mark.parametrize("n", [2, 17, 300, 5000])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_one_row_box_at_the_table_limit(self, n, extra):
        # a one-row box of 2n + 1024 + extra cells: a box of up to
        # 2n + 1024 cells gets a row-major table, one cell more is ranked
        w = 2 * n + 1024 + extra
        rng = np.random.default_rng(n)
        kj = rng.integers(0, w, n)
        kj[:2] = [w - 1, 0]
        pts = np.column_stack([np.full(n, 7.0), kj.astype(float) - 2.0 ** 20])
        assert_prunes_like_lexsort(pts, 1.0)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_row_major_numbers_at_the_int64_limit(self, extra):
        # a 2**31 x (2**32 + extra) box, whose largest row-major number is
        # 2**63 - 1 at extra 0 and past int64 at extra 1, is ranked
        wi, wj = 2 ** 31, 2 ** 32 + extra
        rng = np.random.default_rng(wj)
        pts = np.column_stack([rng.integers(0, wi, 40), rng.integers(0, wj, 40)])
        pts[:3] = [[wi - 1, wj - 1], [0, 0], [wi - 1, 0]]
        pts[-5:] = pts[:5]
        assert_prunes_like_lexsort(pts.astype(float) - 2.0 ** 31, 1.0)


class TestBundledFrontiers:
    def test_every_hour_matches_references(self, monkeypatch):
        # three bundled incidents grown 96 h through the production
        # loop; every hour's circle and pruned frontier is checked
        incidents, env, _, _, evo = load_season_bundle(bundled_scenario_path())
        hours = []
        real_prune, real_circle = evolution.prune, evolution.burned_circle

        def checked_prune(frontier, snap_km):
            got = real_prune(frontier, snap_km)
            want = lexsort_prune(frontier, snap_km)
            assert got.points.tobytes() == want.points.tobytes()
            hours.append(frontier.points.shape[0])
            return got

        def checked_circle(points):
            got = real_circle(points)
            assert circle_bytes(got) == sequential_circle(points)
            return got

        monkeypatch.setattr(evolution, "prune", checked_prune)
        monkeypatch.setattr(evolution, "burned_circle", checked_circle)
        for inc in incidents[:3]:
            circle_trajectory(inc, env, replace(evo, max_hours=96.0))
        assert len(hours) == 3 * 96 and max(hours) > 10_000

    @pytest.mark.parametrize("pickled", [False, True])
    def test_pruned_frontiers_are_native_float64(self, monkeypatch, pickled):
        # np.minimum.at takes a generic loop, many times slower, on a
        # float64 dtype that is not numpy's own instance, as an unpickled
        # array's is; an env grid sent to a worker must not pass it on,
        # and a frontier that is itself unpickled prunes to numpy's own
        incidents, env, _, _, evo = load_season_bundle(bundled_scenario_path())
        if pickled:
            env = pickle.loads(pickle.dumps(env))
        dtypes = []
        real_prune = evolution.prune

        def checked_prune(frontier, snap_km):
            got = real_prune(frontier, snap_km)
            dtypes.extend([frontier.points.dtype, got.points.dtype])
            if pickled:
                sent = pickle.loads(pickle.dumps(frontier))
                kept = real_prune(sent, snap_km).points
                assert kept.dtype is np.dtype(np.float64)
                assert kept.tobytes() == got.points.tobytes()
            return got

        monkeypatch.setattr(evolution, "prune", checked_prune)
        for inc in incidents[:3]:
            trace_rows(inc, env, replace(evo, max_hours=24.0))
        assert len(dtypes) == 2 * 3 * 24
        assert all(d is np.dtype(np.float64) for d in dtypes)


class TestFrontierBound:
    def test_too_fine_snap_rejected_before_the_hour(self, monkeypatch):
        # unpruned, hour k branches 4**(k - 1) points into 4**k
        monkeypatch.setattr(evolution, "MAX_POINTS", 4 ** 3)
        env = constant_env(15.0, 0.0, 0.0)
        inc = mid_incident(env)
        circles, sizes = trace_rows(inc, env, replace(NO_PRUNE, max_hours=3.0))
        assert len(circles) == 4 and sizes[-1] == 4 ** 3
        sampled, branched = [], []
        real_sample, real_branch = evolution.sample_env_many, evolution.branch_endpoints

        def counted_sample(grid, points, hour):
            sampled.append(hour)
            return real_sample(grid, points, hour)

        def counted_branch(points, *args):
            branched.append(len(points))
            return real_branch(points, *args)

        monkeypatch.setattr(evolution, "sample_env_many", counted_sample)
        monkeypatch.setattr(evolution, "branch_endpoints", counted_branch)
        with pytest.raises(ValidationError, match=r"hour 4 .*evolution\.snap_km=0\.0"):
            trace_rows(inc, env, NO_PRUNE)
        assert sampled == [0, 1, 2] and branched == [1, 4, 16]


def per_hour_rows(incident: Incident, env: EnvGrid, cfg: EvolutionConfig):
    """trace_rows' (circles, sizes) from one ellipse_terms call per hour
    over that hour's cells, with no table of terms."""
    points = np.asarray([incident.ignition_xy], dtype=float)
    circles, sizes = [np.array([*incident.ignition_xy, 0.0])], [1]
    hour = incident.start_hour
    while len(circles) <= cfg.max_hours and hour < env.nt:
        cells, slot = sample_env_many(env, points, hour)
        terms = ellipse_terms(*cell_values(env, cells, hour), STEP_S, cfg.params)
        raw = branch_endpoints(points, *terms, slot).reshape(-1, 2)
        circles.append(burned_circle(raw))
        points = prune(Frontier(points=raw), cfg.snap_km).points
        sizes.append(points.shape[0])
        hour += 1
    return np.array(circles), np.array(sizes, dtype=np.int64)


def late_cell_env() -> EnvGrid:
    """Two 10 km cells: a steady dry 20 m/s wind in cell 0 carries a fire
    into cell 1, whose wind and wetness change every hour, calm and past
    the wetness cutoff among them."""
    nt = 60
    rng = np.random.default_rng(5)
    u10 = np.full((nt, 1, 2), 20.0, dtype=np.float32)
    v10 = np.zeros((nt, 1, 2), dtype=np.float32)
    swvl1 = np.zeros((nt, 1, 2), dtype=np.float32)
    u10[:, 0, 1] = rng.uniform(-30.0, 30.0, nt)
    v10[:, 0, 1] = rng.uniform(-30.0, 30.0, nt)
    swvl1[:, 0, 1] = rng.choice([0.0, 0.1, 0.35, 0.6], nt)
    u10[::5, 0, 1] = v10[::5, 0, 1] = 0.0
    return EnvGrid(nx=2, ny=1, nt=nt, spacing_km=10.0, origin=(0.0, 0.0),
                   u10=u10, v10=v10, swvl1=swvl1)


def recorded_fills(monkeypatch) -> list:
    """Record trace_rows' hourly cells and its table fills, in call order:
    ("hour", hour, cells) per sample_env_many call, and ("fill", values,
    bytes) per ellipse_terms call, its count of values and the bytes of
    the terms it returns."""
    events = []
    real_sample, real_terms = evolution.sample_env_many, evolution.ellipse_terms

    def sample(grid, points, hour):
        cells, slot = real_sample(grid, points, hour)
        events.append(("hour", hour, cells.tolist()))
        return cells, slot

    def terms(u10, *args):
        center, ends = real_terms(u10, *args)
        events.append(("fill", len(u10), center.nbytes + ends.nbytes))
        return center, ends

    monkeypatch.setattr(evolution, "sample_env_many", sample)
    monkeypatch.setattr(evolution, "ellipse_terms", terms)
    return events


class TestTermTable:
    """trace_rows takes each (cell, hour)'s ellipse terms from a table
    filled once per cell and block of TERM_HOURS hours; its rows are
    bitwise those of one kernel evaluation per hour, and the table stays
    within (cells touched in the block) x TERM_HOURS x 80 B."""

    def test_a_cell_first_touched_late_in_a_block(self, monkeypatch):
        env = late_cell_env()
        inc = Incident(id="late", start_hour=3, ignition_xy=(6.8, 5.0))
        cfg = EvolutionConfig(max_hours=50.0)
        events = recorded_fills(monkeypatch)
        circles, sizes = trace_rows(inc, env, cfg)
        hours = [(hour, cells) for kind, hour, cells in events if kind == "hour"]
        # cell 1 joins at hour 33, 6 hours into the second block (27-50)
        first = next(hour for hour, cells in hours if 1 in cells)
        assert first == 33 and (first - inc.start_hour) // TERM_HOURS == 1
        # its entry spans the rest of that block, hours 33-50; the third
        # block fills both cells at once for the incident's last two hours
        fills = [values for kind, values, _ in events if kind == "fill"]
        assert fills == [TERM_HOURS, TERM_HOURS, 51 - first, 2 * 2]
        # the rows the kernel gave when it ran once per hour
        digest = hashlib.sha256(circles.tobytes() + sizes.tobytes()).hexdigest()
        assert (len(circles), int(sizes.max()), digest) == (51, 902, (
            "c025b3c4b48e6af3300e55390f9900119bbe945216c34da33e1ee85050a16994"))
        want = per_hour_rows(inc, env, cfg)
        assert circles.tobytes() == want[0].tobytes()
        assert sizes.tobytes() == want[1].tobytes()

    def test_many_cells_stay_within_the_bound(self, monkeypatch):
        # a coarse snap and a fast dry wind across 250 m cells: the
        # frontier crosses dozens of cells in each block
        env = constant_env(40.0, -40.0, 0.0, nt=80, nx=200, ny=200, spacing=0.25)
        inc = mid_incident(env, start=5)
        events = recorded_fills(monkeypatch)
        circles, sizes = trace_rows(inc, env, EvolutionConfig(snap_km=0.2, max_hours=60.0))
        assert len(circles) == 61
        touched, entries, held = {}, {}, {}
        for kind, a, b in events:
            if kind == "hour":
                block = (a - inc.start_hour) // TERM_HOURS
                touched.setdefault(block, set()).update(b)
            else:
                entries[block] = entries.get(block, 0) + a
                held[block] = held.get(block, 0) + b
        assert sorted(touched) == [0, 1, 2]
        assert min(len(cells) for cells in touched.values()) > 50
        for block, cells in touched.items():
            assert entries[block] <= len(cells) * TERM_HOURS
            assert held[block] == 80 * entries[block]
        # the last block holds hours 53-64, cut at the incident's 60 h
        assert entries[2] <= len(touched[2]) * 12
        assert per_hour_rows(inc, env, EvolutionConfig(snap_km=0.2, max_hours=60.0))[
            0].tobytes() == circles.tobytes()


def replay(circles, field_, counts):
    """replay_detection of a trajectory screened by its own screen disk: its
    int64 rows and draw indices over counts, as lists."""
    rows, draws = replay_detection(circles, screen_disk(circles), field_, counts)
    assert rows.dtype == draws.dtype == np.int64
    return rows.tolist(), draws.tolist()


class TestSimulate:
    def test_detection_at_ignition(self):
        env = constant_env(15.0, 0.0, 0.0)
        inc = mid_incident(env)
        field_ = SensorField(positions=np.array([inc.ignition_xy]))
        circles = circle_trajectory(inc, env, NO_PRUNE)
        # row 0, the zero-radius ignition circle, seen by sensor 0
        assert replay(circles, field_, (len(field_),)) == ([0], [0])
        assert circles[0].tolist() == [*inc.ignition_xy, 0.0]

    def test_cap_reached_reports_cap(self):
        env = constant_env(15.0, 0.0, 0.0)
        inc = mid_incident(env)
        circles = circle_trajectory(inc, env, NO_PRUNE)
        assert circles.shape == (6, 3)  # hours 0..5
        # undetected: the last row, and the cap's hours
        assert replay(circles, SensorField(positions=[]), (0,)) == ([5], [-1])
        assert undetected_hours(inc, circles, NO_PRUNE) == 5.0

    def test_fractional_cap(self):
        env = constant_env(15.0, 0.0, 0.0)
        inc = mid_incident(env, hist=3.25)
        cfg = EvolutionConfig(snap_km=0.0, max_hours=50.0)
        circles = circle_trajectory(inc, env, cfg)
        assert len(circles) == 4
        # 3 whole hours, reported at the cap
        assert undetected_hours(inc, circles, cfg) == 3.25

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
        circles = circle_trajectory(inc, env, cfg)
        assert len(circles) == 3
        assert replay(circles, SensorField(positions=[]), (0,)) == ([2], [-1])
        assert undetected_hours(inc, circles, cfg) == 2.0

    def test_zero_cap(self):
        env = constant_env(15.0, 0.0, 0.0)
        inc = mid_incident(env, hist=0.0)
        cfg = EvolutionConfig()
        circles = circle_trajectory(inc, env, cfg)
        assert replay(circles, SensorField(positions=[]), (0,)) == ([0], [-1])
        assert undetected_hours(inc, circles, cfg) == 0.0 and circles[0, 2] == 0.0

    def test_downwind_extreme_identity(self):
        # under constant wind, k unpruned hours push the head exactly
        # k * u_p * 3600 / 1000 km downwind of the ignition
        env = constant_env(25.0, 0.0, 0.0)
        inc = mid_incident(env, hist=5.0)
        circles = circle_trajectory(inc, env, NO_PRUNE)
        u_p, _, _ = speeds(25.0, 0.0)
        x0 = inc.ignition_xy[0]
        for k, (cx, _, radius) in enumerate(circles):
            head = cx + radius - x0
            if k:
                assert head == pytest.approx(k * u_p * 3.6, abs=1e-9)

    def test_wet_soil_never_grows(self):
        env = constant_env(25.0, 0.0, 0.40)  # beyond the wetness cutoff
        inc = mid_incident(env, hist=4.0)
        circles = circle_trajectory(inc, env, NO_PRUNE)
        assert replay(circles, SensorField(positions=[]), (0,)) == ([4], [-1])
        assert (circles[:, 2] == 0.0).all()


def brute_force_detection(circles, positions):
    """(hour, sensor) of the first detection from ignition on, or None:
    every sensor is tested every hour, no spatial hash, closest wins, ties
    to the lowest index. Python float arithmetic: a square that overflows
    is inf."""
    for k, (cx, cy, r) in enumerate(np.asarray(circles, dtype=float).tolist()):
        best = None
        for i, (x, y) in enumerate(positions):
            dx, dy = x - cx, y - cy
            d2 = dx * dx + dy * dy
            if d2 <= r * r and (best is None or d2 < best[0]):
                best = (d2, i)
        if best is not None:
            return k, best[1]
    return None


OFFSETS = st.sampled_from([0.0, 0.5, -37.0, 1e3, -1e5, 1e6, -1e6])


@st.composite
def replay_cases(draw):
    """(circles, sensor positions): moving, non-nested circles with zero
    and shrinking radii far from the origin, sensors on their boundaries,
    twinned for ties, or none at all."""
    x, y = draw(st.tuples(OFFSETS, OFFSETS))
    circles = []
    for _ in range(draw(st.integers(1, 8))):
        move = draw(st.sampled_from(["stay", "drift", "jump"]))
        if move != "stay":
            reach = 2.0 if move == "drift" else 60.0
            x += draw(st.floats(-reach, reach))
            y += draw(st.floats(-reach, reach))
        radius = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 8.0))
        circles.append((x, y, radius))
    if draw(st.booleans()) and draw(st.booleans()):
        return np.array(circles), []
    pts = []
    for _ in range(draw(st.integers(0, 5))):
        ox, oy, radius = draw(st.sampled_from(circles))
        theta = draw(st.sampled_from([0.0, math.pi / 2, math.pi])
                     | st.floats(0.0, 2 * math.pi))
        pts.append((ox + radius * math.cos(theta),
                    oy + radius * math.sin(theta)))
    cx, cy, _ = circles[-1]
    for _ in range(draw(st.integers(0, 5))):
        pts.append((cx + draw(st.floats(-80.0, 80.0)),
                    cy + draw(st.floats(-80.0, 80.0))))
    pts = draw(st.permutations(pts))
    if draw(st.booleans()):
        pts = pts + pts  # every hit has an equidistant twin at a higher index
    return np.array(circles), pts


def assert_replays_like_brute_force(outcome, circles, pts) -> bool:
    """outcome is the replay's (row, draw index) brute_force_detection
    predicts, or the last row and -1; True if detected."""
    expected = brute_force_detection(circles, pts)
    assert outcome == (expected or (len(circles) - 1, -1))
    return expected is not None


# (a, b) with a*a + b*b == r*r for each radius r: integer offsets that put
# a sensor exactly on a circle, where the closed disk test is an equality
ON_CIRCLE = {0: [(0, 0)], 1: [(1, 0)], 5: [(3, 4), (5, 0)], 10: [(6, 8)],
             13: [(5, 12), (13, 0)]}


@st.composite
def lattice_replay_cases(draw):
    """(circles, sensor positions) in integer km: sensors exactly on a
    circle, others near the last center, and copies of earlier sensors
    (coincident sensors) at random places in the order."""
    x, y = draw(st.tuples(*[st.sampled_from([0, -37, 1000, -100000, 1000000])] * 2))
    circles = []
    for _ in range(draw(st.integers(1, 6))):
        x, y = x + draw(st.integers(-3, 3)), y + draw(st.integers(-3, 3))
        circles.append((x, y, draw(st.sampled_from(sorted(ON_CIRCLE)))))
    pts = []
    for _ in range(draw(st.integers(0, 6))):
        cx, cy, r = draw(st.sampled_from(circles))
        a, b = draw(st.sampled_from(ON_CIRCLE[r]))
        if draw(st.booleans()):
            a, b = b, a
        pts.append((cx + a * draw(st.sampled_from([1, -1])),
                    cy + b * draw(st.sampled_from([1, -1]))))
    for _ in range(draw(st.integers(0, 4))):
        pts.append((x + draw(st.integers(-20, 20)), y + draw(st.integers(-20, 20))))
    for _ in range(draw(st.integers(0, 3)) if pts else 0):
        pts.insert(draw(st.integers(0, len(pts))), draw(st.sampled_from(pts)))
    return np.array(circles, dtype=float), [(float(a), float(b)) for a, b in pts]


def csv_round_trip(field_: SensorField) -> SensorField:
    """field_ written by save_sensors and read back by load_sensors."""
    with tempfile.TemporaryDirectory() as tmp:
        return load_sensors(save_sensors(field_, Path(tmp) / "sensors.csv"))


class TestTrajectoryReplay:
    @settings(max_examples=300, deadline=None)
    @given(case=replay_cases(), data=st.data())
    def test_screened_replay_matches_brute_force(self, case, data):
        # counts n are prefixes: each result is the replay against pts[:n]
        circles, pts = case
        counts = sorted(data.draw(st.lists(st.integers(0, len(pts)), min_size=1,
                                           max_size=5), label="counts"))
        # small blocks take the hours a few at a time
        block = data.draw(st.sampled_from([1, 3, evolution._BLOCK]), label="block")
        with mock.patch.object(evolution, "_BLOCK", block):
            rows, draws = replay(circles, SensorField(positions=pts), counts)
        assert len(rows) == len(draws) == len(counts)
        for n, r in zip(counts, zip(rows, draws)):
            assert_replays_like_brute_force(r, circles, pts[:n])

    @settings(max_examples=200, deadline=None)
    @given(case=lattice_replay_cases(), declared=st.booleans(), data=st.data())
    def test_sensor_csv_fields_replay_like_brute_force(self, case, declared, data):
        # a field read from a sensor CSV, its region declared in the header
        # or inferred as the sensors' bounding box, replays every prefix
        # count as brute force does
        circles, pts = case
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        bbox = (Rect(min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys))
                if pts else None)
        region = None
        if declared and pts:
            margin = data.draw(st.sampled_from([0.0, 0.5, 7.0]), label="margin")
            region = Rect(bbox.x0 - margin, bbox.y0 - margin,
                          bbox.width_km + 2 * margin, bbox.height_km + 2 * margin)
        field_ = csv_round_trip(SensorField(positions=pts, region=region))
        assert field_.positions.tolist() == [list(p) for p in pts]
        assert field_.region == (region if declared else bbox)
        counts = sorted(data.draw(st.lists(st.integers(0, len(pts)), min_size=1,
                                           max_size=5), label="counts"))
        for n, r in zip(counts, zip(*replay(circles, field_, counts))):
            assert_replays_like_brute_force(r, circles, pts[:n])

    @pytest.mark.parametrize("declared", [True, False])
    def test_sensor_csv_ties_on_a_circle(self, declared):
        # sensors 1 and 2 coincide and, with 3, lie exactly on the hour-2
        # circle: the lowest index among them detects, until sensor 4,
        # closer to the center, joins
        circles = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 5.0]])
        pts = [[9.0, 9.0], [4.0, 5.0], [4.0, 5.0], [-2.0, -3.0], [1.0, 2.0]]
        region = Rect(-5.0, -5.0, 20.0, 20.0) if declared else None
        field_ = csv_round_trip(SensorField(positions=pts, region=region))
        assert field_.region == (region if declared else Rect(-2.0, -3.0, 11.0, 12.0))
        counts = (1, 2, 3, 4, 5)
        rows, draws = replay(circles, field_, counts)
        assert draws == [-1, 1, 1, 1, 4]
        for n, r in zip(counts, zip(rows, draws)):
            assert_replays_like_brute_force(r, circles, pts[:n])

    @settings(max_examples=300, deadline=None)
    @given(case=replay_cases(), data=st.data())
    def test_screened_field_replays_like_its_draw(self, case, data):
        # a field screened with the trajectory's screen disk (and other
        # disks, as a sweep's other incidents add) reports every count's
        # outcome, its detecting sensor as a draw index, as the whole draw
        circles, pts = case
        if data.draw(st.booleans(), label="overflow"):
            # a circle so large that the screen's radius is capped
            x, y, _ = circles[-1]
            big = data.draw(st.sampled_from([1e200, 1e308]), label="radius")
            circles = np.vstack([circles, [x, y, big]])
        pts = np.array(list(pts) or [tuple(circles[0, :2])])
        margin = data.draw(st.sampled_from([0.0, 1.0, 300.0]), label="margin")
        lo, hi = pts.min(axis=0) - margin, pts.max(axis=0) + margin
        rect = Rect(float(lo[0]), float(lo[1]), float(hi[0] - lo[0]), float(hi[1] - lo[1]))
        # the draw, in units of 2**-53: each sensor's variate rounded down,
        # so each drawn sensor lies within a rounding of a case's sensor;
        # then variates on raster cell edges or just below them, and the
        # largest below 1
        span = np.array([rect.width_km, rect.height_km])
        m = np.floor((pts - lo) / np.where(span > 0, span, 1.0) * 2.0 ** 53)
        m = np.clip(m, 0, 2 ** 53 - 1).astype(np.uint64).tolist()
        edge = 2 ** 53 // RASTER_CELLS
        variate = (st.integers(0, RASTER_CELLS - 1).map(lambda j: j * edge)
                   | st.integers(1, RASTER_CELLS).map(lambda j: j * edge - 1))
        for _ in range(data.draw(st.integers(0, 6), label="edges")):
            m.append(data.draw(st.tuples(variate, variate), label="edge variates"))
        m.append((2 ** 53 - 1, 2 ** 53 - 1))
        m = np.array(data.draw(st.permutations(m), label="order"), dtype=np.uint64)
        # the words' positions, x0 + width * u per column
        u = m * 2.0 ** -53
        pts = np.column_stack((rect.x0 + rect.width_km * u[:, 0],
                               rect.y0 + rect.height_km * u[:, 1]))
        disks = [screen_disk(circles)] + data.draw(st.lists(st.tuples(
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
            st.floats(0.0, 50.0)), max_size=2), label="disks")
        ids = _screen(rect, disks)(m << np.uint64(11))
        screened = SensorField(pts[ids], ids=ids, drawn=len(pts))
        whole = SensorField(pts)
        counts = sorted(data.draw(st.lists(st.integers(0, len(pts)), min_size=1,
                                           max_size=5), label="counts"))
        assert replay(circles, screened, counts) == replay(circles, whole, counts)

    def test_screened_deploy_replays_like_the_whole_draw(self):
        # deployed fields: the sweep's screened deploy and the whole one
        env = constant_env(20.0, 5.0, 0.05, nx=8, ny=8, spacing=2.0)
        inc = mid_incident(env)
        cfg = EvolutionConfig(snap_km=0.05, max_hours=12.0)
        circles = circle_trajectory(inc, env, cfg)
        counts = (0, 10, 300, 3000, 20000)
        detected = 0
        for seed in range(4):
            whole = deploy_uniform(counts[-1], env.rect, seed)
            screened = deploy_uniform(counts[-1], env.rect, seed, [screen_disk(circles)])
            assert len(screened) < len(whole)
            results = replay(circles, screened, counts)
            assert results == replay(circles, whole, counts)
            detected += sum(draw >= 0 for draw in results[1])
        assert detected >= 8

    @pytest.mark.parametrize("counts", [(), (2, 1), (0, 3, 2), (-1, 1), (4,), (0, 1, 4)])
    def test_bad_counts_rejected(self, counts):
        circles = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        field_ = SensorField(positions=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="counts"):
            replay(circles, field_, counts)

    @pytest.mark.parametrize("pts", [
        [[3.0, 4.0], [-1e160, 0.0], [1.0, 1.0]],
        [[1e160, 0.0], [-1e160, 0.0]],  # every square overflows too
        [[1.0, 2.0], [1.0, -2.0], [1e6, 0.0]],  # an exact tie
    ])
    def test_overflowing_radius_square(self, pts):
        # r * r overflows to inf at hour 1, so every sensor the screen
        # finds lies within that circle
        circles = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1e200]])
        [r] = zip(*replay(circles, SensorField(positions=pts), (len(pts),)))
        assert r[0] == 1
        assert assert_replays_like_brute_force(r, circles, pts)

    @pytest.mark.parametrize("bad", [
        [math.nan, 0.0, 1.0],
        [0.0, math.inf, 1.0],
        [0.0, 0.0, -1.0],
        [0.0, 0.0, math.inf],
    ])
    def test_invalid_circle_rejected(self, bad):
        circles = np.array([[0.0, 0.0, 0.0], bad])
        with pytest.raises(ValidationError, match="trajectory circles"):
            replay_detection(circles, ((0.0, 0.0), 1.0),
                             SensorField(positions=[[0.0, 0.0]]), (1,))

    @pytest.mark.parametrize("bad", [np.empty((0, 3)), np.zeros((2, 2)),
                                     np.zeros(3), np.zeros((1, 3, 1))])
    def test_malformed_trajectory_rejected(self, bad):
        with pytest.raises(ValidationError, match="trajectory circles"):
            replay_detection(bad, ((0.0, 0.0), 1.0),
                             SensorField(positions=[[0.0, 0.0]]), (1,))

    def test_replay_matches_brute_force(self):
        rng = np.random.default_rng(8)
        spec = SynthSpec(nx=8, ny=8, nt=40, spacing_km=25.0, mode="random",
                         u10_range=(5.0, 30.0), v10_range=(-10.0, 10.0),
                         swvl1_range=(0.0, 0.2), coarse_nx=3, coarse_ny=3,
                         coarse_nt=4)
        env = synth_env(spec, 31)
        cfg = EvolutionConfig(snap_km=0.05, max_hours=20.0)
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
                [r] = zip(*replay(circles, sensors, (len(sensors),)))
                detections += assert_replays_like_brute_force(
                    r, circles, sensors.positions.tolist())
        assert detections >= 5

    def test_trajectory_matches_trace(self):
        env = constant_env(20.0, 5.0, 0.05)
        inc = mid_incident(env, hist=6.0)
        cfg = EvolutionConfig(snap_km=0.05, max_hours=10.0)
        circles = circle_trajectory(inc, env, cfg)
        assert circles.dtype == np.float64 and circles.shape == (7, 3)
        traced, sizes = trace_rows(inc, env, cfg)
        assert traced.tobytes() == circles.tobytes()
        assert sizes.dtype == np.int64 and sizes.shape == (7,)
        assert sizes[0] == 1 and (sizes >= 1).all()

    def test_radii_never_decrease(self):
        env = constant_env(22.0, -7.0, 0.02)
        inc = mid_incident(env, hist=24.0)
        circles = circle_trajectory(inc, env, EvolutionConfig(snap_km=0.05))
        radii = circles[:, 2].tolist()
        assert all(b >= a for a, b in zip(radii, radii[1:]))
