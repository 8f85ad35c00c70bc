"""Sensor deployment, persistence, and proximity-query correctness."""

from __future__ import annotations

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emberlink.envdata import Rect
from emberlink.errors import ValidationError
from emberlink.sensors import (SensorField, _cell_order, deploy_uniform,
                               indices_within, load_sensors,
                               nearest_index_within, save_sensors)

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

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.tuples(st.integers(0, 5000), st.integers(0, 5000)).map(sorted),
           seed=st.sampled_from([0, 2 ** 128 - 1]) | st.integers(0, 2 ** 128 - 1),
           rect=st.sampled_from([RECT, Rect(-50.0, 10.0, 30.0, 40.0),
                                 Rect(-1e3, -2e3, 1010.0, 1110.0),
                                 Rect(0.5, -0.25, 1.0, 2.0)]))
    @example(sizes=[0, 5000], seed=0, rect=RECT)
    @example(sizes=[4999, 5000], seed=2 ** 128 - 1, rect=Rect(-50.0, 10.0, 30.0, 40.0))
    def test_counts_share_a_prefix(self, sizes, seed, rect):
        # the counter-based stream makes smaller deployments prefixes of
        # larger ones, which is what makes count sweeps paired comparisons
        # and lets a sweep deploy each trial once, at its largest count
        n, big_n = sizes
        small = deploy_uniform(n, rect, seed=seed)
        big = deploy_uniform(big_n, rect, seed=seed)
        assert big.positions[:n].tobytes() == small.positions.tobytes()
        assert (small.seed, small.region) == (big.seed, big.region) == (seed, rect)

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

    @pytest.mark.parametrize("n", [0, 1, 100_000])
    @pytest.mark.parametrize("rect", [Rect(-50.0, 10.0, 30.0, 40.0),
                                      Rect(0.0, 0.0, 1010.0, 1110.0)])
    def test_positions_are_bitwise_the_affine_formula(self, n, rect):
        # the positions deploy_uniform has always produced: x0 + width * u
        # per column of one (n, 2) Philox draw
        u = np.random.Generator(np.random.Philox(key=9)).random((n, 2))
        expected = np.column_stack((rect.x0 + rect.width_km * u[:, 0],
                                    rect.y0 + rect.height_km * u[:, 1]))
        got = deploy_uniform(n, rect, seed=9).positions
        assert got.shape == (n, 2) and got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_zero_and_negative(self):
        assert len(deploy_uniform(0, RECT, seed=0)) == 0
        with pytest.raises(ValidationError):
            deploy_uniform(-1, RECT, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_outside_philox_keys(self, seed):
        with pytest.raises(ValidationError, match=re.escape(
                f"deploy_uniform seed must be in [0, 2**128), got {seed}")):
            deploy_uniform(10, Rect(0, 0, 1, 1), seed)


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
        # four sensors at distance 1, counterclockwise from +x, span 2 x 2
        # cells: the grid hands them back in cell order, the lowest
        # index last
        f = SensorField(positions=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                                            [0.0, -1.0]]))
        assert list(f._candidates((0.0, 0.0), 1.0)) == [2, 3, 1, 0]
        assert list(indices_within(f, (0.0, 0.0), 1.0)) == [0, 1, 2, 3]
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


EXTREME_COORDS = st.sampled_from([0.0, 1.0, -1e300, 1e308, -1e308,
                                  sys.float_info.max, -sys.float_info.max])
EXTREME_RADII = [0.0, 1e300, 1e308, 1.7e308, sys.float_info.max]


class TestDegenerateFields:
    @pytest.mark.parametrize("name", list(DEGENERATE_FIELDS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_queries_match_brute_force(self, name, data):
        f = SensorField(positions=DEGENERATE_FIELDS[name])
        lo = f.positions.min(axis=0)
        span = f.positions.max(axis=0) - lo
        scale = max(float(span.max()), 1.0)
        kind = data.draw(st.sampled_from(
            ["on sensor", "off box", "covering", "random", "extreme"]))
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
        elif kind == "random":
            u = data.draw(st.tuples(st.floats(-1, 2), st.floats(-1, 2)))
            center = tuple(float(v) for v in lo + scale * np.array(u))
            radius = data.draw(st.floats(0.0, 1.5)) * scale
        else:
            # magnitudes where center +- reach or radius * radius overflows
            center = data.draw(st.tuples(EXTREME_COORDS, EXTREME_COORDS))
            radius = data.draw(st.sampled_from(EXTREME_RADII))
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


class TestOverflowingReach:
    @pytest.mark.parametrize("center, radius", [
        ((0.0, 0.0), 1.7e308), ((0.0, 0.0), sys.float_info.max),
        ((1e308, 0.0), 1e308), ((-1e308, 1e308), 1e308),
        ((sys.float_info.max, 0.0), 1.0),
    ])
    def test_matches_brute_force(self, center, radius):
        f = SensorField([[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(indices_within(f, center, radius),
                                      brute_within(f, center, radius))
        assert nearest_index_within(f, center, radius) == brute_nearest(f, center, radius)

    def test_numpy_scalars(self):
        f = SensorField([[0.0, 0.0], [1.0, 1.0]])
        center = (np.float64(1e308), np.float64(0.0))
        for radius in (np.float64(1e300), np.float64(1e308)):
            np.testing.assert_array_equal(indices_within(f, center, radius),
                                          brute_within(f, center, float(radius)))
            assert (nearest_index_within(f, center, radius)
                    == brute_nearest(f, center, float(radius)))


def python_brute_force(field_: SensorField, center, radius):
    """(indices, nearest) of the closed disk in Python floats, where a
    square that overflows is inf without a warning."""
    cx, cy = center
    d2 = [(x - cx) * (x - cx) + (y - cy) * (y - cy)
          for x, y in field_.positions.tolist()]
    hits = [i for i, d in enumerate(d2) if d <= radius * radius]
    return hits, min(hits, key=lambda i: (d2[i], i), default=None)


class TestOverflowingExtent:
    @pytest.mark.parametrize("center, radius", [
        ((0.0, 0.0), 1e200), ((0.0, 0.0), 1.5e160), ((0.0, 0.0), 1e150),
        ((1e160, 1e160), 0.0), ((-1e160, 1e160), 1e308), ((3e159, -2e159), 9e159),
    ])
    def test_overflowing_area_matches_brute_force(self, center, radius):
        # the extent fits a float but its area, the cell side's input, does not
        f = SensorField([[1e160, 1e160], [-1e160, -1e160]])
        hits, nearest = python_brute_force(f, center, radius)
        assert indices_within(f, center, radius).tolist() == hits
        assert nearest_index_within(f, center, radius) == nearest

    @pytest.mark.parametrize("query", [indices_within, nearest_index_within])
    def test_overflowing_extent_is_rejected(self, query):
        f = SensorField([[1.7e308, 0.0], [-1.7e308, 0.0], [500.0, 500.0]])
        with pytest.raises(ValidationError,
                           match=r"sensor positions span x -1\.7e\+308 to 1\.7e\+308"):
            query(f, (0.0, 0.0), 1.0)


class TestGridBuild:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 255, 256, 257])
    @pytest.mark.parametrize("layout", ["uniform", "coincident"])
    def test_order_is_cell_sorted_permutation(self, n, layout):
        if layout == "uniform":
            f = deploy_uniform(n, RECT, seed=n)
        else:
            f = SensorField(positions=np.tile([[7.5, -3.0]], (n, 1)))
        x0, y0, cell, nx, ny, starts, order = f._index()
        np.testing.assert_array_equal(np.sort(order), np.arange(n))
        i = np.floor((f.positions[:, 0] - x0) / cell).astype(np.int64)
        j = np.floor((f.positions[:, 1] - y0) / cell).astype(np.int64)
        cells = (i * ny + j)[order]
        assert (np.diff(cells) >= 0).all()
        # each cell's sensors come in index order
        assert (np.diff(order)[np.diff(cells) == 0] > 0).all()
        np.testing.assert_array_equal(np.diff(starts), np.bincount(cells, minlength=nx * ny))
        rng = np.random.default_rng(n)
        for _ in range(20):
            center = tuple(rng.uniform(-10.0, 110.0, 2))
            radius = float(rng.uniform(0.0, 30.0))
            np.testing.assert_array_equal(indices_within(f, center, radius),
                                          brute_within(f, center, radius))
            assert (nearest_index_within(f, center, radius)
                    == brute_nearest(f, center, radius))

    @pytest.mark.parametrize("n, cells", [
        (1, 2 ** 63), (2, 2 ** 62), (2, 2 ** 62 + 1), (4, 2 ** 61),
        (4, 2 ** 61 + 1), (5, 2 ** 60), (5, 2 ** 60 + 1), (257, 2 ** 54 + 1),
    ])
    def test_keys_past_int64_stay_exact(self, n, cells):
        # cell numbers up to cells - 1: where cell << bits | index would
        # not fit in int64 the order comes from a stable argsort instead
        flat = np.random.default_rng(n).integers(cells - 3, cells, n, dtype=np.int64)
        flat[0] = 0
        expected = np.argsort(flat, kind="stable")
        np.testing.assert_array_equal(_cell_order(flat.copy(), cells), expected)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [(0, 0), (1, 1), (2, 0), (2, 1)])
    @pytest.mark.parametrize("region", [None, RECT])
    def test_non_finite_message(self, bad, at, region):
        pos = np.array([[5.0, 5.0], [60.0, 70.0], [80.0, 90.0]])
        pos[at] = bad
        with pytest.raises(ValidationError,
                           match="^sensor positions contain non-finite values$"):
            SensorField(positions=pos, region=region)

    @pytest.mark.parametrize("region", [RECT, Rect(-50.0, 10.0, 30.0, 40.0)])
    @pytest.mark.parametrize("edge", ["left", "right", "bottom", "top"])
    def test_sensor_just_past_an_edge_is_named(self, region, edge):
        x0, x1 = region.x0, region.x0 + region.width_km
        y0, y1 = region.y0, region.y0 + region.height_km
        mx, my = (x0 + x1) / 2, (y0 + y1) / 2
        past = {"left": (np.nextafter(x0, -math.inf), my),
                "right": (np.nextafter(x1, math.inf), my),
                "bottom": (mx, np.nextafter(y0, -math.inf)),
                "top": (mx, np.nextafter(y1, math.inf))}[edge]
        # a second sensor outside further on: the first one is named
        pos = np.array([[x0, y0], [x1, y1], past, [mx, my], [x1 + 1.0, y1 + 1.0]])
        expected = (f"sensor 2 at ({pos[2, 0]}, {pos[2, 1]}) lies outside "
                    f"the field region {region}")
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            SensorField(positions=pos, region=region)

    @pytest.mark.parametrize("region", [RECT, Rect(-50.0, 10.0, 30.0, 40.0)])
    def test_sensors_on_the_edges_accepted(self, region):
        x0, x1 = region.x0, region.x0 + region.width_km
        y0, y1 = region.y0, region.y0 + region.height_km
        pos = np.array([[x0, y0], [x1, y1], [x0, y1], [x1, y0],
                        [x0, (y0 + y1) / 2], [(x0 + x1) / 2, y1]])
        f = SensorField(positions=pos, region=region)
        assert f.positions.tobytes() == pos.tobytes()

    @pytest.mark.parametrize("name, value", [
        ("positions", np.array([[5.0, 5.0], [np.nan, 0.0]])),
        ("region", Rect(4.0, 4.0, 2.0, 2.0)), ("seed", 3)])
    def test_field_is_frozen_after_a_query(self, name, value):
        # the box and grid a query uses are taken from the positions at
        # construction, so no field of a built field can change
        f = SensorField([[0.0, 0.0], [1.0, 1.0]])
        assert indices_within(f, (0.0, 0.0), 0.5).tolist() == [0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, value)
        assert indices_within(f, (1.0, 1.0), 0.5).tolist() == [1]

    def test_float_positions_are_not_copied(self):
        pos = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert SensorField(pos).positions is pos


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
