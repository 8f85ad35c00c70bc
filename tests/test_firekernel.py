"""Fire-kernel math: frozen values, closed forms, and shape properties."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emberlink.errors import ValidationError
from emberlink.firekernel import (DEFAULT_PARAMS, SpreadParams,
                                  branch_endpoints, ellipse_terms,
                                  length_breadth_ratio, moisture_factor,
                                  spread_speed, wind_factor)

winds = st.floats(min_value=0.0, max_value=120.0,
                  allow_nan=False, allow_infinity=False)
wetness = st.floats(min_value=0.0, max_value=1.0,
                    allow_nan=False, allow_infinity=False)


class TestWindFactor:
    def test_frozen_values(self):
        assert wind_factor(0.0) == pytest.approx(0.1, abs=0)
        # correctly rounded 1 - 0.9*exp(-1) = 0.66890850294570191056...
        assert wind_factor(50.0) == pytest.approx(0.6689085029457019, rel=1e-15)

    @given(winds)
    def test_closed_form(self, w):
        expected = 1.0 - 0.9 * math.exp(-w * w / 2500.0)
        assert wind_factor(w) == pytest.approx(expected, rel=1e-12)

    @given(winds, winds)
    def test_monotone_increasing(self, a, b):
        lo, hi = sorted((a, b))
        assert wind_factor(lo) <= wind_factor(hi)

    @given(winds)
    def test_bounds(self, w):
        assert 0.1 <= wind_factor(w) < 1.0

    def test_array_input(self):
        w = np.array([0.0, 10.0, 50.0])
        out = wind_factor(w)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(0.1)
        assert out[2] == pytest.approx(wind_factor(50.0))


class TestMoistureFactor:
    def test_frozen_values(self):
        assert moisture_factor(0.0) == 1.0
        assert moisture_factor(0.35) == 0.0
        assert moisture_factor(0.9) == 0.0
        assert moisture_factor(0.175) == pytest.approx(0.25, rel=1e-15)

    @given(wetness)
    def test_closed_form(self, b):
        bm = min(b / 0.35, 1.0)
        assert moisture_factor(b) == pytest.approx((1.0 - bm) ** 2, rel=1e-12, abs=1e-300)

    @given(wetness, wetness)
    def test_monotone_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert moisture_factor(lo) >= moisture_factor(hi)


class TestLengthBreadthRatio:
    def test_frozen_values(self):
        assert length_breadth_ratio(0.0) == 1.0
        expected = 1.0 + 10.0 * (1.0 - math.exp(-0.017 * 20.0))
        assert length_breadth_ratio(20.0) == pytest.approx(expected, rel=1e-15)

    @given(winds)
    def test_bounds(self, w):
        assert 1.0 <= length_breadth_ratio(w) < 11.0

    @given(winds, winds)
    def test_monotone_increasing(self, a, b):
        lo, hi = sorted((a, b))
        assert length_breadth_ratio(lo) <= length_breadth_ratio(hi)


class TestSpreadSpeed:
    @given(winds, wetness)
    def test_closed_form(self, w, b):
        expected = 0.13 * wind_factor(w) * moisture_factor(b)
        assert spread_speed(w, b) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @given(winds, wetness)
    def test_bounded_by_u_max(self, w, b):
        assert 0.0 <= spread_speed(w, b) <= 0.13

    def test_wet_soil_stops_spread(self):
        assert spread_speed(40.0, 0.35) == 0.0

    @given(winds, wetness)
    def test_speeds_consistency(self, w, b):
        # read the three speeds back off the ellipse grown in wind along +x
        out = branch_endpoints(np.zeros((1, 2)), *ellipse_terms(
            np.array([w]), np.zeros(1), np.array([b]), dt_s=1000.0))[0]
        u_p, u_b = out[0, 0], -out[1, 0]
        v = (out[2, 1] - out[3, 1]) / 2.0
        assert u_p == pytest.approx(spread_speed(w, b), rel=1e-12, abs=1e-300)
        assert u_b == pytest.approx(0.2 * u_p, rel=1e-12, abs=1e-300)
        lb = length_breadth_ratio(w)
        assert v * 2.0 * lb == pytest.approx(u_p + u_b, rel=1e-12, abs=1e-300)

    def test_custom_params(self):
        p = SpreadParams(u_max_ms=1.0, windless_gain=0.5)
        assert spread_speed(0.0, 0.0, p) == pytest.approx(0.5)


class TestSpreadParams:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("name", [f.name for f in fields(SpreadParams)])
    def test_non_finite_or_negative_rejected(self, name, bad):
        with pytest.raises(ValidationError, match=name):
            SpreadParams(**{name: bad})

    @pytest.mark.parametrize("name", ["wetness_cutoff", "wind_sq_scale"])
    def test_zero_divisor_rejected(self, name):
        with pytest.raises(ValidationError, match=name):
            SpreadParams(**{name: 0.0})

    def test_zero_elsewhere_accepted(self):
        p = SpreadParams(u_max_ms=0.0, windless_gain=0.0, backspread_ratio=0.0,
                         elongation_gain=0.0, elongation_rate=0.0)
        assert spread_speed(10.0, 0.0, p) == 0.0


def grow(xy, u10, v10, beta, dt_s):
    """The (4, 2) axis endpoints of one ellipse grown by branch_endpoints."""
    return branch_endpoints(np.array([xy], dtype=float), *ellipse_terms(
        np.array([u10]), np.array([v10]), np.array([beta]), dt_s))[0]


def semi_axes(pts):
    """(center, semi-major, semi-minor) read off four axis endpoints."""
    center = (pts[0] + pts[1]) / 2.0
    return (center, np.linalg.norm(pts[0] - pts[1]) / 2.0,
            np.linalg.norm(pts[2] - pts[3]) / 2.0)


class TestEllipse:
    def test_calm_wind_is_a_disk(self):
        center, a, b = semi_axes(grow((3.0, 4.0), 0.0, 0.0, 0.0, dt_s=3600.0))
        assert a == pytest.approx(b, rel=1e-12)
        # back-spread is always a fifth of the head speed, so the center
        # leads the ignition even at calm (along the degenerate theta=0)
        up = 0.13 * 0.1
        off = (up - 0.2 * up) * 1.8
        assert center[0] == pytest.approx(3.0 + off, rel=1e-12)
        assert center[1] == pytest.approx(4.0, abs=1e-15)

    def test_downwind_vertex_distance(self):
        # the head vertex leads the ignition by u_p * dt, in km
        pts = grow((0.0, 0.0), 20.0, 0.0, 0.0, dt_s=3600.0)
        u_p = spread_speed(20.0, 0.0)
        assert pts[0, 0] == pytest.approx(u_p * 3.6, rel=1e-12)
        assert pts[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert pts[1, 0] == pytest.approx(-0.2 * u_p * 3.6, rel=1e-12)

    def test_axis_endpoint_geometry(self):
        speed, theta = 17.0, 0.7
        pts = grow((1.0, -2.0), speed * math.cos(theta), speed * math.sin(theta),
                   0.1, dt_s=1800.0)
        # semi axes and center from the closed forms, in km
        u_p = spread_speed(speed, 0.1)
        u_b = 0.2 * u_p
        semi_major = (u_p + u_b) * 1.8 / 2.0
        semi_minor = (u_p + u_b) / (2.0 * length_breadth_ratio(speed)) * 1.8
        off = (u_p - u_b) * 1.8 / 2.0
        c = np.array([1.0 + off * math.cos(theta), -2.0 + off * math.sin(theta)])
        d = np.linalg.norm(pts - c, axis=1)
        assert d[0] == pytest.approx(semi_major, rel=1e-12)
        assert d[1] == pytest.approx(semi_major, rel=1e-12)
        assert d[2] == pytest.approx(semi_minor, rel=1e-12)
        assert d[3] == pytest.approx(semi_minor, rel=1e-12)
        # major axis is along the wind
        major = pts[0] - pts[1]
        assert math.atan2(major[1], major[0]) == pytest.approx(0.7, rel=1e-12)

    def test_center_offset(self):
        center, _, _ = semi_axes(grow((0.0, 0.0), 0.0, 25.0, 0.0, dt_s=3600.0))
        u_p = spread_speed(25.0, 0.0)
        assert center[0] == pytest.approx(0.0, abs=1e-12)
        assert center[1] == pytest.approx((u_p - 0.2 * u_p) * 1.8, rel=1e-12)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            grow((0.0, 0.0), 1.0, 0.0, 0.0, dt_s=0.0)


class TestBranchEndpoints:
    @settings(max_examples=50)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
    def test_matches_scalar_path(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-50.0, 50.0, size=(n, 2))
        u = rng.uniform(-30.0, 30.0, size=n)
        v = rng.uniform(-30.0, 30.0, size=n)
        b = rng.uniform(0.0, 0.5, size=n)
        out = branch_endpoints(pts, *ellipse_terms(u, v, b, dt_s=3600.0))
        assert out.shape == (n, 4, 2)
        # each point's endpoints from the closed forms, one point at a time
        for i in range(n):
            speed = math.hypot(u[i], v[i])
            theta = math.atan2(v[i], u[i]) if speed > 0 else 0.0
            u_p = (0.13 * (1.0 - 0.9 * math.exp(-speed * speed / 2500.0))
                   * (1.0 - min(b[i] / 0.35, 1.0)) ** 2)
            u_b = 0.2 * u_p
            lb = 1.0 + 10.0 * (1.0 - math.exp(-0.017 * speed))
            c, a, w = (u_p - u_b) * 1.8, (u_p + u_b) * 1.8, (u_p + u_b) / lb * 1.8
            cos_t, sin_t = math.cos(theta), math.sin(theta)
            cx, cy = pts[i, 0] + c * cos_t, pts[i, 1] + c * sin_t
            expected = [[cx + a * cos_t, cy + a * sin_t],
                        [cx - a * cos_t, cy - a * sin_t],
                        [cx - w * sin_t, cy + w * cos_t],
                        [cx + w * sin_t, cy - w * cos_t]]
            np.testing.assert_allclose(out[i], expected, rtol=1e-12, atol=1e-12)

    def test_zero_speed_point_stays_put(self):
        out = branch_endpoints(np.array([[2.0, 3.0]]), *ellipse_terms(
            np.array([0.0]), np.array([0.0]), np.array([0.9]), dt_s=3600.0))
        np.testing.assert_array_equal(out[0], np.full((4, 2), [2.0, 3.0]))


# an env cell's (u10, v10, swvl1): calm components and wetness at or past
# the cutoff among them
components = st.sampled_from([0.0, -0.0]) | st.floats(-40.0, 40.0)
cells = st.tuples(components, components,
                  st.sampled_from([0.0, 0.35, 0.5, 1.0]) | wetness)


@st.composite
def cell_calls(draw, most_cells=6):
    """(cells, slots): m cells and each of n points' cell among them."""
    cs = draw(st.lists(cells, min_size=1, max_size=most_cells))
    slots = draw(st.lists(st.integers(0, len(cs) - 1), min_size=1, max_size=40))
    return np.array(cs).T, np.array(slots)


def per_point_endpoints(pts, u10, v10, swvl1, dt_s):
    """Reference (n, 4, 2) endpoints evaluated point by point in numpy, with
    the roundings of the kernel: center = point + offset, then endpoint =
    center +- axis term. The default parameters' formulas are written out,
    so the reference does not share the kernel's field functions."""
    ws = np.hypot(u10, v10)
    theta = np.where(ws > 0, np.arctan2(v10, u10), 0.0)
    u_p = (0.13 * (0.1 + 0.9 * -np.expm1(-(ws * ws) / 2500.0))
           * (1.0 - np.minimum(swvl1 / 0.35, 1.0)) ** 2)
    u_b = 0.2 * u_p
    v_lat = (u_p + u_b) / (2.0 * (1.0 + 10.0 * (1.0 - np.exp(-0.017 * ws))))
    dt_km = dt_s / 1000.0
    a, b = (u_p + u_b) * dt_km / 2.0, v_lat * dt_km
    offset = (u_p - u_b) * dt_km / 2.0
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cx, cy = pts[:, 0] + offset * cos_t, pts[:, 1] + offset * sin_t
    return np.stack([np.stack([cx + a * cos_t, cy + a * sin_t], axis=1),
                     np.stack([cx - a * cos_t, cy - a * sin_t], axis=1),
                     np.stack([cx - b * sin_t, cy + b * cos_t], axis=1),
                     np.stack([cx + b * sin_t, cy - b * cos_t], axis=1)], axis=1)


class TestPerCellKernel:
    """The ellipse terms are computed once per env cell; every point's
    endpoints are bitwise those of one evaluation per point
    (slot = arange(n), the default), in one-cell and many-cell calls."""

    @staticmethod
    def check(values, slot, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1e3, 1e3, size=(slot.size, 2))
        per_cell = branch_endpoints(
            pts, *ellipse_terms(*values, 3600.0, DEFAULT_PARAMS), slot)
        taken = values.take(slot, axis=1)
        per_point = branch_endpoints(
            pts, *ellipse_terms(*taken, 3600.0, DEFAULT_PARAMS), np.arange(slot.size))
        default = branch_endpoints(pts, *ellipse_terms(*taken, 3600.0))
        assert per_cell.shape == (slot.size, 4, 2)
        assert per_cell.tobytes() == per_point.tobytes() == default.tobytes()
        assert per_cell.tobytes() == per_point_endpoints(pts, *taken, 3600.0).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(cell_calls(), st.integers(0, 2**32 - 1))
    @example((np.array([[3.0], [-4.0], [0.1]]), np.zeros(7, dtype=np.int64)), 1)
    def test_matches_per_point_evaluation(self, call, seed):
        self.check(*call, seed)

    @pytest.mark.parametrize("cell", [(0.0, 0.0, 0.1), (-0.0, 0.0, 0.0),
                                      (12.0, -5.0, 0.35), (3.0, 4.0, 0.9)])
    def test_calm_and_wet_cells_among_others(self, cell):
        values = np.array([cell, (7.0, 2.0, 0.05)]).T
        self.check(values, np.array([1, 0, 0, 1, 0]), 0)


def terms_bytes(u10, v10, swvl1):
    """The bytes of ellipse_terms' center and endpoint offsets, each as a
    C-ordered (k, ...) array with one row per value."""
    center, ends = ellipse_terms(u10, v10, swvl1, 3600.0)
    return center.T.tobytes(), ends.transpose(1, 0, 2).tobytes()


class TestHourVectorTerms:
    """One ellipse_terms call over a cell's vector of hours, as the
    trajectory's term table fills an entry, gives bitwise the terms of one
    call per hour: every term is elementwise, so numpy's SIMD loops and
    their tails (vector lengths 1-70) give each value the same bits
    wherever it sits. The vectors are contiguous, as the table's are:
    numpy's AVX-512 transcendental loops take another path on strided
    data."""

    @staticmethod
    def check(hours):
        u10, v10, swvl1 = (np.ascontiguousarray(a) for a in np.array(hours, dtype=float).T)
        center, ends = terms_bytes(u10, v10, swvl1)
        per_hour = [terms_bytes(u10[h:h + 1], v10[h:h + 1], swvl1[h:h + 1])
                    for h in range(u10.size)]
        assert center == b"".join(c for c, _ in per_hour)
        assert ends == b"".join(e for _, e in per_hour)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(cells, min_size=1, max_size=70))
    @example([(0.0, -0.0, 0.35), (-0.0, 0.0, 1.0), (0.0, 0.0, 0.0)])
    def test_matches_per_hour_evaluation(self, hours):
        self.check(hours)

    def test_every_length_with_calm_and_wet_hours(self):
        for k in range(1, 71):
            rng = np.random.default_rng(k)
            hours = np.column_stack([rng.uniform(-40.0, 40.0, k),
                                     rng.uniform(-40.0, 40.0, k), rng.uniform(0.0, 0.5, k)])
            hours[::3, :2] = 0.0  # calm
            hours[1::4, 2] = 0.35  # at the wetness cutoff
            hours[2::4, 2] = 1.0  # past it
            self.check(hours.tolist())

    def test_bad_dt_rejected(self):
        with pytest.raises(ValidationError, match="dt_s"):
            ellipse_terms(np.ones(1), np.ones(1), np.zeros(1), 0.0)
