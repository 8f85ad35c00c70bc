"""Sensor deployment, persistence, and proximity-query correctness."""

from __future__ import annotations

import dataclasses
import math
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emberlink import sensors
from emberlink.envdata import BiomassGrid, Rect
from emberlink.errors import ValidationError
from emberlink.sensors import (BLOCK_ROWS, RASTER_CELLS, SensorField, _screen,
                               deploy_uniform, indices_within, load_sensors,
                               nearest_index_within, save_sensors)

RECT = Rect(0.0, 0.0, 100.0, 100.0)
# regions a screen is checked over: ordinary ones, a zero span, a 1e300
# span, and one where x0 + width * u takes only a few floats
SCREEN_RECTS = [RECT, Rect(-1e3, -2e3, 1010.0, 1110.0), Rect(3.0, 4.0, 0.0, 0.0),
                Rect(-1e300, 0.0, 1e300, 1e300), Rect(1e15, 1e15, 1.0, 1.0),
                Rect(1e15, -5.0, 1.0, 0.0)]
# the variate j / RASTER_CELLS, which opens raster cell j, in units of 2**-53
EDGE = 2 ** 53 // RASTER_CELLS
# variates of the RASTER_CELLS + 1 cell edges along both axes
EDGE_VARIATES = np.outer(np.arange(RASTER_CELLS + 1) / RASTER_CELLS, [1.0, 1.0])
# a variate in units of 2**-53: an edge one, the one just below an edge
# (nextafter(j / RASTER_CELLS, 0) where doubles are that fine, from
# j = RASTER_CELLS / 2 on), 0, the largest below 1, or any
VARIATE = (st.integers(0, RASTER_CELLS - 1).map(lambda j: j * EDGE)
           | st.integers(1, RASTER_CELLS).map(lambda j: j * EDGE - 1)
           | st.sampled_from([0, 2 ** 53 - 1]) | st.integers(0, 2 ** 53 - 1))
RADIUS = (st.sampled_from([0.0, 5e-324, 1e-300, 0.0625, 0.2, 2.0, 1e154, 1e300])
          | st.floats(0.0, 1e3))


def variates(words: np.ndarray) -> np.ndarray:
    """The variates Generator.random makes of Philox words."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def affine_positions(u: np.ndarray, rect: Rect) -> np.ndarray:
    """x0 + width * u per column of (k, 2) variates."""
    return np.column_stack((rect.x0 + rect.width_km * u[:, 0],
                            rect.y0 + rect.height_km * u[:, 1]))


class WordStream:
    """Stands in for np.random.Philox(key=...): hands out the given (k, 2)
    words in order."""

    def __init__(self, words: np.ndarray):
        self.words, self.at = words.reshape(-1), 0

    def random_raw(self, size: tuple[int, int]) -> np.ndarray:
        self.at += size[0] * size[1]
        return self.words[self.at - size[0] * size[1]:self.at].reshape(size).copy()


def brute_within(field_: SensorField, center, radius) -> np.ndarray:
    # a distance that overflows is inf, as in the disk test
    with np.errstate(over="ignore"):
        d = field_.positions - np.asarray(center, dtype=float)
    return np.flatnonzero(np.einsum("ij,ij->i", d, d) <= radius * radius)


def brute_nearest(field_: SensorField, center, radius) -> int | None:
    hits = brute_within(field_, center, radius)
    if hits.size == 0:
        return None
    with np.errstate(over="ignore"):
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

    @pytest.mark.parametrize("n", [2.5, 3.0, math.inf, math.nan, True, -1, "3", None])
    @pytest.mark.parametrize("disks", [None, [((0.5, 0.5), 1.0)]])
    def test_count_must_be_a_non_negative_integer(self, n, disks):
        # whole and screened deploys alike
        with pytest.raises(ValidationError, match=re.escape(
                f"sensor count must be an integer >= 0, got {n!r}")):
            deploy_uniform(n, Rect(0.0, 0.0, 1.0, 1.0), 0, disks)

    @pytest.mark.parametrize("n", [np.int64(70_000), np.uint16(5)])
    @pytest.mark.parametrize("disks", [None, [((0.5, 0.5), 1.0)]])
    def test_numpy_integer_counts(self, n, disks):
        square = Rect(0.0, 0.0, 1.0, 1.0)
        got, want = deploy_uniform(n, square, 3, disks), deploy_uniform(int(n), square, 3, disks)
        assert got.positions.tobytes() == want.positions.tobytes()
        assert got.drawn == int(n)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_outside_philox_keys(self, seed):
        with pytest.raises(ValidationError, match=re.escape(
                f"deploy_uniform seed must be an integer in [0, 2**128), got {seed}")):
            deploy_uniform(10, Rect(0, 0, 1, 1), seed)


class TestScreenedDeploy:
    """deploy_uniform with disks: one blocked draw, screened."""

    @pytest.mark.parametrize("n", [65_535, 65_536, 65_537, 131_075])
    def test_blocks_are_one_draw(self, n):
        # over the unit square x0 + width * u is u itself; a disk covering
        # the square keeps every sensor of every block
        u = np.random.Generator(np.random.Philox(key=3)).random((n, 2))
        square = Rect(0.0, 0.0, 1.0, 1.0)
        full = deploy_uniform(n, square, seed=3)
        screened = deploy_uniform(n, square, seed=3, disks=[((0.5, 0.5), 1.0)])
        assert full.positions.tobytes() == u.tobytes()
        assert screened.positions.tobytes() == u.tobytes()
        assert screened.ids.tolist() == list(range(n)) and screened.drawn == n

    @pytest.mark.parametrize("disks", [
        [((20.0, 30.0), 4.0)],
        [((20.0, 30.0), 4.0), ((21.0, 29.0), 0.5), ((99.9, 0.1), 7.0)],
        [((-30.0, 50.0), 1.0)],  # off the region: nothing lies in it
        [((50.0, 50.0), 0.0)],
        [],
    ])
    def test_keeps_every_sensor_a_disk_holds(self, disks):
        n = 70_000
        full = deploy_uniform(n, RECT, seed=5)
        f = deploy_uniform(n, RECT, seed=5, disks=disks)
        assert f.drawn == n and f.seed == 5 and f.region == RECT
        assert f.ids.dtype.kind == "i" and (np.diff(f.ids) > 0).all()
        assert f.positions.tobytes() == full.positions[f.ids].tobytes()
        inside = set()
        for center, radius in disks:
            inside.update(indices_within(full, center, radius).tolist())
        assert inside <= set(f.ids.tolist())
        # the raster keeps a few cells' worth of sensors past the disks
        assert len(f) <= len(inside) + 0.01 * n

    def test_overflowing_radius_keeps_everything(self):
        f = deploy_uniform(1000, RECT, seed=1, disks=[((0.0, 0.0), sys.float_info.max)])
        assert f.ids.tolist() == list(range(1000))

    @pytest.mark.parametrize("rect", [Rect(0.0, 0.0, 1e12, 1e12),
                                      Rect(-1e300, 0.0, 1e300, 1e-300),
                                      Rect(3.0, 4.0, 0.0, 0.0)])
    def test_raster_is_bounded_whatever_the_region(self, rect):
        disks = [((rect.x0, rect.y0), 1.0), ((rect.x0 + rect.width_km / 2, rect.y0), 5e3)]
        tracemalloc.start()
        try:
            keep = _screen(rect, disks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * RASTER_CELLS * RASTER_CELLS
        words = np.random.Philox(key=2).random_raw((5000, 2))
        f = SensorField(affine_positions(variates(words), rect))
        assert set(keep(words).tolist()) >= {
            i for c, r in disks for i in indices_within(f, c, r).tolist()}

    def test_words_are_the_generators_variates(self):
        # the variate of a Philox word r is (r >> 11) * 2**-53, over a
        # block boundary as within a block
        n = BLOCK_ROWS + 3
        stream = np.random.Philox(key=4)
        words = np.concatenate([stream.random_raw((BLOCK_ROWS, 2)), stream.random_raw((3, 2))])
        u = np.random.Generator(np.random.Philox(key=4)).random((n, 2))
        assert variates(words).tobytes() == u.tobytes()

    def test_edge_variates_fall_in_their_cells(self):
        # the variate j / RASTER_CELLS opens cell j, the one just below it
        # closes cell j - 1, and 0 and the largest variate below 1 lie in
        # the first and last cells
        j = 300
        mid = (j + 0.5) * 100.0 / RASTER_CELLS
        keep = _screen(RECT, [((mid, mid), 0.0), ((0.0, 0.0), 0.0), ((100.0, 100.0), 0.0)])
        at = [j * EDGE, j * EDGE - 1, (j + 1) * EDGE - 1, (j + 1) * EDGE, 0, 2 ** 53 - 1]
        m = np.array([[at[0], at[2]], [at[1], at[0]], [at[2], at[2]], [at[3], at[0]],
                      [at[4], at[4]], [at[5], at[5]], [at[4], at[5]]], dtype=np.uint64)
        assert keep(m << np.uint64(11)).tolist() == [0, 2, 4, 5]

    def test_reach_covers_the_disk_tests_rounding(self):
        # the disk test accepts the sensor on the edge of cell 300, though
        # center + radius rounds below that edge: the reach keeps it
        c, r = -10.16227727258292, 68.75602727258291
        assert c + r < 300 * 100.0 / RASTER_CELLS
        words = np.array([[300 * EDGE, 2 ** 52]], dtype=np.uint64) << np.uint64(11)
        field_ = SensorField(affine_positions(variates(words), RECT))
        assert field_.positions.tolist() == [[300 * 100.0 / RASTER_CELLS, 50.0]]
        assert indices_within(field_, (c, 50.0), r).tolist() == [0]
        assert _screen(RECT, [((c, 50.0), r)])(words).tolist() == [0]

    @settings(max_examples=200, deadline=None)
    @given(rect=st.sampled_from(SCREEN_RECTS), data=st.data())
    def test_screen_keeps_what_a_query_finds(self, rect, data):
        # words at cell edges, just below them and at both ends of [0, 1),
        # disks on and about the edge positions and the sensors: a screened
        # deploy keeps every sensor a query over the whole draw finds, and
        # each kept row is bitwise the whole draw's row
        m = np.array(data.draw(st.lists(st.tuples(VARIATE, VARIATE), min_size=1,
                                        max_size=40), label="variates"), dtype=np.uint64)
        words = (m << np.uint64(11)) | np.uint64(data.draw(st.integers(0, 2047),
                                                           label="low bits"))
        pos = affine_positions(variates(words), rect)
        anchors = np.vstack([pos, affine_positions(EDGE_VARIATES, rect)])
        disks = []
        for _ in range(data.draw(st.integers(1, 4), label="disks")):
            center = anchors[data.draw(st.integers(0, len(anchors) - 1), label="anchor")]
            nudge = data.draw(st.tuples(*[st.sampled_from([0.0, 1.0, -1.0])] * 2),
                              label="nudge")
            disks.append((tuple(float(np.nextafter(v, v + d)) if d else float(v)
                                for v, d in zip(center, nudge)),
                          data.draw(RADIUS, label="radius")))
        block = data.draw(st.sampled_from([1, 3, BLOCK_ROWS]), label="block rows")
        kept = _screen(rect, disks)(words)
        found = {i for c, r in disks for i in indices_within(SensorField(pos), c, r).tolist()}
        assert found <= set(kept.tolist())
        # deploy_uniform over a stream of these words, in blocks of block
        # rows: the whole draw is the affine formula, and the screened draw
        # keeps its rows
        with (mock.patch.object(sensors, "BLOCK_ROWS", block),
              mock.patch.object(np.random, "Philox", lambda key: WordStream(words))):
            whole = deploy_uniform(len(words), rect, 0)
            screened = deploy_uniform(len(words), rect, 0, disks)
        assert whole.positions.tobytes() == pos.tobytes()
        assert screened.ids.tolist() == kept.tolist() and screened.drawn == len(words)
        assert screened.positions.tobytes() == pos[kept].tobytes()

    @pytest.mark.parametrize("rect", SCREEN_RECTS)
    def test_every_edge_variate_is_kept_by_its_edge_disks(self, rect):
        # all the variates that open or close a cell, against disks at
        # every 37th edge position: what a query finds is kept
        m = np.arange(1, RASTER_CELLS + 1, dtype=np.uint64) * np.uint64(EDGE)
        m = np.concatenate([m - np.uint64(1), m[:-1], np.zeros(1, dtype=np.uint64)])
        words = np.column_stack((m, m[::-1])) << np.uint64(11)
        field_ = SensorField(affine_positions(variates(words), rect))
        edges = affine_positions(EDGE_VARIATES, rect)
        disks = [((float(x), float(y)), radius) for x, y in edges[::37]
                 for radius in (0.0, 1e-300)]
        kept = set(_screen(rect, disks)(words).tolist())
        assert {i for c, r in disks for i in indices_within(field_, c, r).tolist()} <= kept

    @pytest.mark.parametrize("field, value", [("x0", math.nan), ("y0", math.inf),
                                              ("width_km", -1.0), ("height_km", math.inf)])
    def test_bad_region_rejected(self, field, value):
        rect = dataclasses.replace(RECT, **{field: value})
        with pytest.raises(ValidationError, match=f"deploy region {field}"):
            deploy_uniform(10, rect, seed=0, disks=[((0.0, 0.0), 1.0)])


class TestSubsetFields:
    def test_own_draw(self):
        f = SensorField([[0.0, 0.0], [1.0, 1.0]])
        assert f.ids is None and f.drawn == 2

    @pytest.mark.parametrize("ids, drawn, field", [
        ([0, 3], None, "ids and drawn"),
        (None, 4, "ids and drawn"),
        ([0, 3], 1, "drawn"),
        ([0, 3], 4.0, "drawn"),
        ([0, 3], True, "drawn"),
        ([0, 3], math.nan, "drawn"),
        ([3, 0], 4, "ids"),
        ([1, 1], 4, "ids"),
        ([-1, 3], 4, "ids"),
        ([0, 4], 4, "ids"),
        ([0], 4, "ids"),
        ([0.0, 3.0], 4, "ids"),
        ([[0, 3]], 4, "ids"),
    ])
    def test_bad_ids_or_drawn_rejected(self, ids, drawn, field):
        with pytest.raises(ValidationError, match=f"sensor field {field}"):
            SensorField([[0.0, 0.0], [1.0, 1.0]], ids=ids, drawn=drawn)

    def test_subset_kept(self):
        f = SensorField([[0.0, 0.0], [1.0, 1.0]], ids=np.array([2, 7]), drawn=8)
        assert f.ids.tolist() == [2, 7] and f.drawn == 8 and len(f) == 2
        empty = SensorField([], ids=np.empty(0, dtype=np.int64), drawn=5)
        assert len(empty) == 0 and empty.drawn == 5


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
        # four sensors at distance 1, counterclockwise from +x
        f = SensorField(positions=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                                            [0.0, -1.0]]))
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


# layouts that stress the disk test: zero or tiny spans, one axis
# collapsed, a span dominated by one point, coordinates far from the
# origin, a span far beyond any fixed-size cell key, and an x extent
# near the largest float, as large as leaves this test's queries finite
# while the squares of their distances overflow
DEGENERATE_FIELDS = {
    "one sensor": [[3.0, -2.0]],
    "coincident duplicates": [[1.0, 1.0]] * 5 + [[1.5, 1.0]] + [[1.0, 1.0]] * 3,
    "horizontal line": [[0.37 * k, 7.0] for k in range(40)],
    "vertical line": [[-4.0, 1.3 * k] for k in range(40)],
    "cluster and far outlier": _uniform(30, 10.0, 10.0, 0.01, 1) + [[9000.0, -6000.0]],
    "offset by 1e9 km": _uniform(200, 1e9, 1e9, 100.0, 2),
    "far apart": [[0.0, 0.0], [1e10, 1e10]],
    "x extent near the float maximum": [[-2.5e307, 0.0], [2.5e307, 1.0], [0.0, 0.5],
                                        [1e307, 0.25]],
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
        # a disk whose squared radius overflows holds every sensor
        if kind == "off box" and radius * radius < math.inf:
            assert got.size == 0
        if kind == "covering":
            assert got.size == len(f)
        assert nearest_index_within(f, center, radius) == brute_nearest(f, center, radius)


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
        # the extent fits a float but its area does not
        f = SensorField([[1e160, 1e160], [-1e160, -1e160]])
        hits, nearest = python_brute_force(f, center, radius)
        assert indices_within(f, center, radius).tolist() == hits
        assert nearest_index_within(f, center, radius) == nearest

    @pytest.mark.parametrize("query", [indices_within, nearest_index_within])
    def test_overflowing_extent_is_rejected(self, query):
        with pytest.raises(ValidationError,
                           match=r"sensor positions span x -1\.7e\+308 to 1\.7e\+308"):
            query(SensorField([[1.7e308, 0.0], [-1.7e308, 0.0], [500.0, 500.0]]),
                  (0.0, 0.0), 1.0)

    def test_extents_summing_past_a_float_are_queried(self):
        # each axis spans up to 1e308 km, a float, though their sum is not
        f = deploy_uniform(100, Rect(0.0, 0.0, 1e308, 1e308), 0)
        wx, wy = (f.positions.max(axis=0) - f.positions.min(axis=0)).tolist()
        assert wx + wy == math.inf
        for center in [(0.0, 0.0), (5e307, 5e307), (1e308, 0.0), tuple(f.positions[3])]:
            for radius in [0.0, 1e300, 3e307, 1e154, 1e308, sys.float_info.max]:
                np.testing.assert_array_equal(indices_within(f, center, radius),
                                              brute_within(f, center, radius))
                assert (nearest_index_within(f, center, radius)
                        == brute_nearest(f, center, radius))

    @pytest.mark.parametrize("positions, rejected", [
        ([[-1.7e308, 0.0], [1.7e308, 0.0]], True),
        ([[0.0, -1.7e308], [0.0, 1.7e308]], True),
        ([[-1.7e308, -1.7e308], [1.7e308, 1.7e308]], True),
        ([[-9e307, 5.0], [9e307, 5.0]], True),
        ([[3.0, -9e307], [1e300, 9e307], [0.0, 0.0]], True),
        ([[-8.9e307, 5.0], [8.9e307, 5.0]], False),
        ([[0.0, 0.0], [sys.float_info.max, -sys.float_info.max / 2]], False),
        ([[-8.9e307, -8.9e307], [8.9e307, 8.9e307], [1.0, 2.0]], False),
    ])
    def test_extent_is_checked_per_axis_at_construction(self, positions, rejected):
        # each axis' extent must be a float; the sum of the two need not be
        x0, y0 = np.min(positions, axis=0).tolist()
        x1, y1 = np.max(positions, axis=0).tolist()
        if rejected:
            with pytest.raises(ValidationError, match=re.escape(
                    f"sensor positions span x {x0} to {x1} and y {y0} to {y1} km, "
                    "an extent past any float")):
                SensorField(positions)
            return
        f = SensorField(positions)
        for center in positions:
            for radius in [0.0, 1e300, sys.float_info.max]:
                np.testing.assert_array_equal(indices_within(f, center, radius),
                                              brute_within(f, center, radius))
                assert (nearest_index_within(f, center, radius)
                        == brute_nearest(f, center, radius))


class TestScanQuery:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 255, 256, 257])
    @pytest.mark.parametrize("layout", ["uniform", "coincident"])
    def test_matches_brute_force(self, n, layout):
        if layout == "uniform":
            f = deploy_uniform(n, RECT, seed=n)
        else:
            f = SensorField(positions=np.tile([[7.5, -3.0]], (n, 1)))
        rng = np.random.default_rng(n)
        for _ in range(20):
            center = tuple(rng.uniform(-10.0, 110.0, 2))
            radius = float(rng.uniform(0.0, 30.0))
            got = indices_within(f, center, radius)
            # the scan's indices come out ascending, with no sort
            assert (np.diff(got) > 0).all()
            np.testing.assert_array_equal(got, brute_within(f, center, radius))
            assert (nearest_index_within(f, center, radius)
                    == brute_nearest(f, center, radius))
        # a zero disk at the coincident point holds every sensor; the
        # nearest is the lowest index
        if layout == "coincident":
            assert indices_within(f, (7.5, -3.0), 0.0).tolist() == list(range(n))
            assert nearest_index_within(f, (7.5, -3.0), 0.0) == 0


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
        # a query reads positions checked at construction, so no field of
        # a built field can change
        f = SensorField([[0.0, 0.0], [1.0, 1.0]])
        assert indices_within(f, (0.0, 0.0), 0.5).tolist() == [0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, value)
        assert indices_within(f, (1.0, 1.0), 0.5).tolist() == [1]

    def test_float_positions_are_not_copied(self):
        pos = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert SensorField(pos).positions is pos

    @pytest.mark.parametrize("seed", [-3, -1, 2 ** 128, 1.5, True, "3"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="^sensor field seed must be "):
            SensorField(positions=[[1.0, 1.0]], seed=seed)

    @pytest.mark.parametrize("seed", [0, 2 ** 128 - 1, np.uint64(5)])
    def test_seed_in_philox_key_range_accepted(self, seed):
        assert SensorField(positions=[[1.0, 1.0]], seed=seed).seed == seed


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        f = deploy_uniform(200, Rect(-10.0, 5.0, 50.0, 60.0), seed=17)
        p = save_sensors(f, tmp_path / "sensors.csv")
        g = load_sensors(p)
        np.testing.assert_array_equal(f.positions, g.positions)
        assert g.seed == 17
        assert g.region == f.region

    def test_numpy_region_round_trips(self, tmp_path):
        # a grid keeps a numpy origin as given, and its rect passes it on
        grid = BiomassGrid(nx=4, ny=3, spacing_km=np.float32(2.5), values=np.ones((3, 4)),
                           origin=(np.float64(-5.0), np.float64(3.0)))
        f = deploy_uniform(50, grid.rect, seed=np.int64(4))
        p = save_sensors(f, tmp_path / "s.csv")
        assert p.read_text().startswith("# region=-5.0,3.0,10.0,7.5\n# seed=4\nx_km,y_km\n")
        g = load_sensors(p)
        np.testing.assert_array_equal(f.positions, g.positions)
        assert (g.region, g.seed) == (f.region, 4)

    def test_screened_field_is_not_saved(self, tmp_path):
        f = deploy_uniform(100, RECT, seed=2, disks=[((50.0, 50.0), 5.0)])
        with pytest.raises(ValidationError, match=f"keeps {len(f)} of its 100 draws"):
            save_sensors(f, tmp_path / "s.csv")
        assert not (tmp_path / "s.csv").exists()

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

    def test_negative_seed_in_file_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# seed=-1\nx_km,y_km\n1.0,2.0\n")
        with pytest.raises(ValidationError, match=re.escape(
                f"sensor file {p}: sensor field seed must be an integer in [0, 2**128), got -1")):
            load_sensors(p)

    def test_failed_save_leaves_the_old_file(self, tmp_path):
        p = save_sensors(deploy_uniform(50, RECT, seed=3), tmp_path / "s.csv")
        before = p.read_bytes()
        f = deploy_uniform(50, RECT, seed=4)

        def rows_then_fail(rows):
            yield from rows
            raise OSError("device full")

        object.__setattr__(f, "positions", rows_then_fail(f.positions[:10]))
        with pytest.raises(OSError, match="device full"):
            save_sensors(f, p)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_empty_field_round_trip(self, tmp_path):
        f = SensorField(positions=[])
        g = load_sensors(save_sensors(f, tmp_path / "s.csv"))
        assert len(g) == 0
