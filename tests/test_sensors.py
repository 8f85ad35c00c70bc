"""Sensor deployment, persistence, and proximity-query correctness."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emberlink.envdata import Rect
from emberlink.errors import ValidationError
from emberlink.sensors import (SensorField, deploy_uniform, indices_within,
                               load_sensors, nearest_index_within,
                               save_sensors)

RECT = Rect(0.0, 0.0, 100.0, 100.0)


def brute_within(field_: SensorField, center, radius) -> np.ndarray:
    d = field_.positions - np.asarray(center, dtype=float)
    return np.flatnonzero(np.einsum("ij,ij->i", d, d) <= radius * radius)


def brute_nearest(field_: SensorField, center, radius) -> int | None:
    hits = brute_within(field_, center, radius)
    if hits.size == 0:
        return None
    d = field_.positions[hits] - np.asarray(center, dtype=float)
    return int(hits[np.argmin(np.einsum("ij,ij->i", d, d))])


def brute_nearest_distance(field_: SensorField, center) -> float:
    d = field_.positions - np.asarray(center, dtype=float)
    return float(np.sqrt(np.einsum("ij,ij->i", d, d).min()))


class TestDeploy:
    def test_reproducible(self):
        a = deploy_uniform(500, RECT, seed=11)
        b = deploy_uniform(500, RECT, seed=11)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert a.seed == 11 and a.region == RECT

    def test_seed_changes_layout(self):
        a = deploy_uniform(500, RECT, seed=11)
        c = deploy_uniform(500, RECT, seed=12)
        assert not np.array_equal(a.positions, c.positions)

    def test_counts_share_a_prefix(self):
        # the counter-based stream makes smaller deployments prefixes of
        # larger ones, which is what makes count sweeps paired comparisons
        small = deploy_uniform(100, RECT, seed=3)
        big = deploy_uniform(1000, RECT, seed=3)
        np.testing.assert_array_equal(big.positions[:100], small.positions)

    def test_inside_rect(self):
        f = deploy_uniform(2000, Rect(-50.0, 10.0, 30.0, 40.0), seed=0)
        assert f.positions[:, 0].min() >= -50.0
        assert f.positions[:, 0].max() <= -20.0
        assert f.positions[:, 1].min() >= 10.0
        assert f.positions[:, 1].max() <= 50.0

    def test_quadrant_balance(self):
        n = 40000
        f = deploy_uniform(n, RECT, seed=7)
        qx = f.positions[:, 0] > 50.0
        qy = f.positions[:, 1] > 50.0
        sd = math.sqrt(n * 0.25 * 0.75)  # binomial sd of one quadrant count
        for cx in (False, True):
            for cy in (False, True):
                count = int(np.sum((qx == cx) & (qy == cy)))
                assert abs(count - n / 4) < 5 * sd

    def test_median_nearest_distance(self):
        # for a uniform (Poisson-like) field the median distance from a
        # random point to its nearest sensor is sqrt(ln 2 / pi) / sqrt(density)
        n = 4000
        f = deploy_uniform(n, RECT, seed=21)
        density = n / (100.0 * 100.0)
        expected = math.sqrt(math.log(2.0) / math.pi) / math.sqrt(density)
        rng = np.random.default_rng(99)
        queries = rng.uniform(5.0, 95.0, size=(2000, 2))  # stay off the border
        dists = [brute_nearest_distance(f, (float(x), float(y)))
                 for x, y in queries]
        med = float(np.median(dists))
        assert abs(med - expected) / expected < 0.10

    def test_zero_and_negative(self):
        assert len(deploy_uniform(0, RECT, seed=0)) == 0
        with pytest.raises(ValidationError):
            deploy_uniform(-1, RECT, seed=0)


class TestQueries:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        f = deploy_uniform(3000, Rect(-40.0, -60.0, 120.0, 90.0), seed=5)
        for _ in range(50):
            center = (float(rng.uniform(-60, 100)), float(rng.uniform(-80, 50)))
            radius = float(rng.uniform(0.0, 40.0))
            got = indices_within(f, center, radius)
            np.testing.assert_array_equal(got, brute_within(f, center, radius))
            assert (nearest_index_within(f, center, radius)
                    == brute_nearest(f, center, radius))

    def test_large_field_spot_checks(self):
        f = deploy_uniform(200000, RECT, seed=9)
        rng = np.random.default_rng(1)
        for _ in range(20):
            center = (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            radius = float(rng.uniform(0.0, 3.0))
            np.testing.assert_array_equal(indices_within(f, center, radius),
                                          brute_within(f, center, radius))

    def test_disk_is_closed(self):
        f = SensorField(positions=np.array([[3.0, 4.0]]))
        assert list(indices_within(f, (0.0, 0.0), 5.0)) == [0]
        assert list(indices_within(f, (0.0, 0.0), 4.999999)) == []

    def test_radius_covers_whole_field(self):
        f = deploy_uniform(100, RECT, seed=2)
        assert len(indices_within(f, (50.0, 50.0), 1e6)) == 100

    def test_nearest_breaks_ties_low(self):
        f = SensorField(positions=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert nearest_index_within(f, (0.0, 0.0), 2.0) == 0

    def test_nearest_tie_ignores_candidate_order(self):
        # three sensors at distance 1, in descending x: the grid hands
        # them back in cell order, highest index first
        f = SensorField(positions=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        assert list(f._candidates((0.0, 0.0), 1.0)) == [2, 1, 0]
        assert list(indices_within(f, (0.0, 0.0), 1.0)) == [0, 1, 2]
        assert nearest_index_within(f, (0.0, 0.0), 1.0) == 0
        assert brute_nearest(f, (0.0, 0.0), 1.0) == 0

    def test_nearest_picks_closest(self):
        f = SensorField(positions=np.array([[5.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
        assert nearest_index_within(f, (0.0, 0.0), 10.0) == 1
        assert nearest_index_within(f, (0.0, 0.0), 0.5) is None

    def test_empty_field(self):
        f = SensorField(positions=[])
        assert len(indices_within(f, (0.0, 0.0), 10.0)) == 0
        assert nearest_index_within(f, (0.0, 0.0), 10.0) is None

    def test_negative_radius_rejected(self):
        f = deploy_uniform(10, RECT, seed=0)
        with pytest.raises(ValidationError):
            indices_within(f, (0.0, 0.0), -1.0)

    @pytest.mark.parametrize("query", [indices_within, nearest_index_within])
    @pytest.mark.parametrize("field_", [SensorField(positions=[]),
                                        SensorField([[0.0, 0.0], [1.0, 1.0]])],
                             ids=["empty", "two"])
    @pytest.mark.parametrize("center, radius, bad", [
        ((0.0, 0.0), math.inf, "radius"),
        ((0.0, 0.0), math.nan, "radius"),
        ((math.nan, 0.0), 1.0, "center"),
        ((0.0, -math.inf), 1.0, "center"),
        ((math.inf, math.nan), 0.0, "center"),
    ], ids=["inf-radius", "nan-radius", "nan-x", "inf-y", "inf-nan-center"])
    def test_non_finite_query_rejected(self, query, field_, center, radius, bad):
        with pytest.raises(ValidationError, match=bad):
            query(field_, center, radius)


def _uniform(n, x0, y0, size, seed):
    return (np.random.default_rng(seed).random((n, 2)) * size
            + np.array([x0, y0])).tolist()


# layouts that stress the grid build: zero or tiny spans, one axis
# collapsed, a span dominated by one point, coordinates far from the
# origin, and a span far beyond any fixed-size cell key
DEGENERATE_FIELDS = {
    "one sensor": [[3.0, -2.0]],
    "coincident duplicates": [[1.0, 1.0]] * 5 + [[1.5, 1.0]] + [[1.0, 1.0]] * 3,
    "horizontal line": [[0.37 * k, 7.0] for k in range(40)],
    "vertical line": [[-4.0, 1.3 * k] for k in range(40)],
    "cluster and far outlier": _uniform(30, 10.0, 10.0, 0.01, 1) + [[9000.0, -6000.0]],
    "offset by 1e9 km": _uniform(200, 1e9, 1e9, 100.0, 2),
    "far apart": [[0.0, 0.0], [1e10, 1e10]],
}


class TestDegenerateFields:
    @pytest.mark.parametrize("name", list(DEGENERATE_FIELDS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_queries_match_brute_force(self, name, data):
        f = SensorField(positions=DEGENERATE_FIELDS[name])
        lo = f.positions.min(axis=0)
        span = f.positions.max(axis=0) - lo
        scale = max(float(span.max()), 1.0)
        kind = data.draw(st.sampled_from(["on sensor", "off box", "covering", "random"]))
        if kind == "on sensor":
            k = data.draw(st.integers(0, len(f) - 1))
            center, radius = tuple(f.positions[k]), 0.0
        elif kind == "off box":
            side = data.draw(st.sampled_from([(-1, 0), (1, 0), (0, -1), (0, 1), (1, 1)]))
            gap = data.draw(st.floats(0.01, 2.0)) * scale
            mid = lo + span / 2
            center = (float(mid[0] + side[0] * (span[0] / 2 + gap)),
                      float(mid[1] + side[1] * (span[1] / 2 + gap)))
            radius = data.draw(st.floats(0.0, 0.999)) * gap
        elif kind == "covering":
            u = data.draw(st.tuples(st.floats(0, 1), st.floats(0, 1)))
            center = tuple(float(v) for v in lo + span * np.array(u))
            radius = 3.0 * scale
        else:
            u = data.draw(st.tuples(st.floats(-1, 2), st.floats(-1, 2)))
            center = tuple(float(v) for v in lo + scale * np.array(u))
            radius = data.draw(st.floats(0.0, 1.5)) * scale
        got = indices_within(f, center, radius)
        np.testing.assert_array_equal(got, brute_within(f, center, radius))
        if kind == "off box":
            assert got.size == 0
        if kind == "covering":
            assert got.size == len(f)
        assert nearest_index_within(f, center, radius) == brute_nearest(f, center, radius)
        # reads the private grid: the cell count bound is what keeps
        # memory O(n) however far apart the sensors lie
        starts = f._grid[5]
        assert starts.size - 1 <= 3 * len(f) + 1


class TestFieldValidation:
    def test_bad_shape(self):
        with pytest.raises(ValidationError):
            SensorField(positions=np.zeros((3, 3)))

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            SensorField(positions=np.array([[0.0, np.nan]]))

    def test_outside_region_rejected(self):
        with pytest.raises(ValidationError):
            SensorField(positions=np.array([[5.0, 5.0], [200.0, 5.0]]),
                        region=RECT)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        f = deploy_uniform(200, Rect(-10.0, 5.0, 50.0, 60.0), seed=17)
        p = save_sensors(f, tmp_path / "sensors.csv")
        g = load_sensors(p)
        np.testing.assert_array_equal(f.positions, g.positions)
        assert g.seed == 17
        assert g.region == f.region

    def test_regeneration_from_provenance(self, tmp_path):
        f = deploy_uniform(64, RECT, seed=23)
        g = load_sensors(save_sensors(f, tmp_path / "s.csv"))
        h = deploy_uniform(len(g), g.region, g.seed)
        np.testing.assert_array_equal(g.positions, h.positions)

    def test_region_inferred_as_bbox(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x_km,y_km\n1.0,2.0\n4.0,8.0\n")
        g = load_sensors(p)
        assert g.region == Rect(1.0, 2.0, 3.0, 6.0)
        assert g.seed is None

    def test_declared_region_enforced(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# region=0.0,0.0,10.0,10.0\nx_km,y_km\n5.0,5.0\n11.0,5.0\n")
        with pytest.raises(ValidationError):
            load_sensors(p)

    def test_header_required(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(ValidationError):
            load_sensors(p)

    def test_bad_coordinate(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x_km,y_km\n1.0,zap\n")
        with pytest.raises(ValidationError):
            load_sensors(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_sensors(tmp_path / "absent.csv")

    def test_empty_field_round_trip(self, tmp_path):
        f = SensorField(positions=[])
        g = load_sensors(save_sensors(f, tmp_path / "s.csv"))
        assert len(g) == 0
