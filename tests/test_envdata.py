"""Grids, geo mapping, synthesis, raster IO, and incident parsing."""

from __future__ import annotations

import hashlib
import json
import math
import re
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emberlink import envdata
from emberlink.envdata import (CALIFORNIA, ENV_FIELDS, BiomassGrid, EnvGrid, GeoTransform,
                               Incident, Rect, SynthSpec, cell_values,
                               check_biomass_alignment, geo_to_planar,
                               load_biomass, load_env_grid, load_incidents,
                               sample_env_many, save_biomass,
                               save_env_grid, synth_biomass, synth_env)
from emberlink.errors import ValidationError
from emberlink.harness import (bundled_scenario_path, load_season_bundle,
                               season_scenario)


def tiny_grid(nx=4, ny=3, nt=2, spacing=10.0, origin=(0.0, 0.0)) -> EnvGrid:
    shape = (nt, ny, nx)
    u = np.arange(np.prod(shape), dtype=float).reshape(shape)
    return EnvGrid(nx=nx, ny=ny, nt=nt, spacing_km=spacing, origin=origin,
                   u10=u, v10=u + 1000.0, swvl1=np.full(shape, 0.25))


class TestRect:
    def test_contains_is_closed(self):
        r = Rect(0.0, 0.0, 10.0, 5.0)
        assert r.contains((0.0, 0.0))
        assert r.contains((10.0, 5.0))
        assert not r.contains((10.0001, 5.0))

    def test_clamp(self):
        r = Rect(1.0, 2.0, 10.0, 5.0)
        assert r.clamp((-3.0, 100.0)) == (1.0, 7.0)
        assert r.clamp((5.0, 3.0)) == (5.0, 3.0)


class TestGeoTransform:
    def test_corners_map_to_corners(self):
        assert geo_to_planar(CALIFORNIA, CALIFORNIA.lat_min, CALIFORNIA.lon_min) == (0.0, 0.0)
        x, y = geo_to_planar(CALIFORNIA, CALIFORNIA.lat_max, CALIFORNIA.lon_max)
        assert (x, y) == (1000.0, 1100.0)

    def test_midpoint(self):
        gt = GeoTransform(lat_min=0.0, lat_max=2.0, lon_min=10.0, lon_max=14.0,
                          width_km=100.0, height_km=50.0)
        assert geo_to_planar(gt, 1.0, 12.0) == (50.0, 25.0)

    def test_outside_rejected(self):
        with pytest.raises(ValidationError):
            geo_to_planar(CALIFORNIA, 50.0, -120.0)
        with pytest.raises(ValidationError):
            geo_to_planar(CALIFORNIA, 35.0, -100.0)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValidationError):
            GeoTransform(lat_min=1.0, lat_max=1.0, lon_min=0.0, lon_max=1.0,
                         width_km=1.0, height_km=1.0)


class TestGridValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            EnvGrid(nx=4, ny=3, nt=2, spacing_km=1.0, origin=(0, 0),
                    u10=np.zeros((2, 3, 4)), v10=np.zeros((2, 3, 4)),
                    swvl1=np.zeros((2, 4, 3)))

    def test_wetness_range(self):
        bad = np.full((1, 2, 2), 1.5)
        with pytest.raises(ValidationError):
            EnvGrid(nx=2, ny=2, nt=1, spacing_km=1.0, origin=(0, 0),
                    u10=np.zeros((1, 2, 2)), v10=np.zeros((1, 2, 2)), swvl1=bad)

    def test_non_finite(self):
        u = np.zeros((1, 2, 2))
        u[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            EnvGrid(nx=2, ny=2, nt=1, spacing_km=1.0, origin=(0, 0),
                    u10=u, v10=np.zeros((1, 2, 2)), swvl1=np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("edit, name", [
        ({"mode": "random", "u10_range": (-1e39, 1e39)}, "u10"),
        ({"mode": "random", "v10_range": (0.0, 1e39)}, "v10"),
        ({"mode": "random", "u10_range": (-1e308, 1e308)}, "u10"),  # hi - lo is inf
        ({"mode": "constant", "v10": 1e39}, "v10"),
        ({"mode": "schedule", "schedule": [(0, 1.0, 2.0, 0.1), (2, -1e39, 0.0, 0.1)]},
         "u10"),
    ])
    def test_synthesized_overflow_rejected(self, edit, name):
        # a synthesized grid is checked on its lattice, without rasters
        spec = SynthSpec(nx=5, ny=4, nt=3, spacing_km=2.0, **edit)
        with pytest.raises(ValidationError, match=f"^{name} contains non-finite values$"):
            synth_env(spec, 0)

    def test_rect(self):
        g = tiny_grid()
        assert g.rect == Rect(0.0, 0.0, 40.0, 30.0)

    def test_negative_biomass_rejected(self):
        with pytest.raises(ValidationError):
            BiomassGrid(nx=2, ny=2, spacing_km=1.0, values=np.full((2, 2), -1.0))


def _edited_manifest(save, grid, tmp_path, edit):
    man = save(grid, tmp_path / "grid.json")
    man.write_text(json.dumps({**json.loads(man.read_text()), **edit}))
    return man


# every site that takes a grid's geometry, built from a valid one with edit
# laid over it, and the name its messages give the grid
GEOMETRY_SITES = {
    "env grid": lambda edit, tmp_path: EnvGrid(**{
        "nx": 1, "ny": 1, "nt": 1, "spacing_km": 1.0, "origin": (0.0, 0.0),
        "u10": np.zeros((1, 1, 1)), "v10": np.zeros((1, 1, 1)),
        "swvl1": np.zeros((1, 1, 1)), **edit}),
    "biomass": lambda edit, tmp_path: BiomassGrid(**{
        "nx": 1, "ny": 1, "spacing_km": 1.0, "values": np.zeros((1, 1)), **edit}),
    "synth spec": lambda edit, tmp_path: SynthSpec(**{
        "nx": 1, "ny": 1, "nt": 1, "spacing_km": 1.0, **edit}),
    "env manifest": lambda edit, tmp_path: load_env_grid(_edited_manifest(
        save_env_grid, tiny_grid(), tmp_path, edit)),
    "biomass manifest": lambda edit, tmp_path: load_biomass(_edited_manifest(
        save_biomass, synth_biomass(4, 3, 10.0, 1.0, 2.0, seed=0), tmp_path, edit)),
    "biomass (synthesized)": lambda edit, tmp_path: synth_biomass(**{
        "nx": 4, "ny": 3, "spacing_km": 10.0, "lo": 1.0, "hi": 2.0, "seed": 0, **edit}),
}


class TestOneGeometryCheck:
    @pytest.mark.parametrize("site", GEOMETRY_SITES)
    @pytest.mark.parametrize("edit, message", [
        ({"ny": 0}, "ny must be an integer >= 1, got 0"),
        ({"nx": -5, "ny": -1}, "nx must be an integer >= 1, got -5"),
        ({"spacing_km": float("nan")}, "spacing_km must be finite and > 0, got nan"),
        ({"spacing_km": 0.0}, "spacing_km must be finite and > 0, got 0.0"),
        ({"spacing_km": float("inf")}, "spacing_km must be finite and > 0, got inf"),
        ({"origin": (float("inf"), 0.0)}, "origin must be finite, got "),
    ])
    def test_every_site_words_it_alike(self, tmp_path, site, edit, message):
        what = site.split(" (")[0]
        with pytest.raises(ValidationError, match="^" + re.escape(f"{what} {message}")):
            GEOMETRY_SITES[site](edit, tmp_path)


def sample_points(grid, pts, t):
    """(3, n) rows of (u10, v10, swvl1) at each point of pts, hour t: the
    sampled cells' values, one column per point."""
    cells, slot = sample_env_many(grid, pts, t)
    return cell_values(grid, cells, t).take(slot, axis=1)


def sample_one(grid, xy, t):
    """(u10, v10, swvl1) at one position, through a one-point batch."""
    u, v, s = sample_points(grid, np.array([xy], dtype=float), t)
    return (u[0], v[0], s[0])


class TestSampling:
    def test_cell_lookup(self):
        g = tiny_grid()
        # point well inside cell (ix=1, iy=2) at hour 1
        got = sample_one(g, (15.0, 25.0), 1)
        assert got[0] == float(g.u10[1, 2, 1])
        assert got[1] == float(g.v10[1, 2, 1])

    def test_shared_edge_resolves_to_lower_cell(self):
        g = tiny_grid()
        # x=10.0 is the edge between ix=0 and ix=1
        assert sample_one(g, (10.0, 5.0), 0)[0] == float(g.u10[0, 0, 0])
        assert sample_one(g, (10.0001, 5.0), 0)[0] == float(g.u10[0, 0, 1])

    def test_origin_cell(self):
        g = tiny_grid(origin=(100.0, 200.0))
        assert sample_one(g, (100.0, 200.0), 0)[0] == float(g.u10[0, 0, 0])

    def test_bad_hour(self):
        g = tiny_grid()
        with pytest.raises(ValidationError):
            sample_one(g, (5.0, 5.0), 2)
        with pytest.raises(ValidationError):
            sample_one(g, (5.0, 5.0), -1)

    def test_many_matches_scalar(self):
        # a batch answers each point as a one-point call does, from the
        # cell holding it (random points are off the cell edges)
        g = tiny_grid()
        rng = np.random.default_rng(5)
        pts = rng.uniform([0, 0], [40, 30], size=(64, 2))
        u, v, s = sample_points(g, pts, 1)
        for i, xy in enumerate(pts):
            ix, iy = int(xy[0] // 10.0), int(xy[1] // 10.0)
            assert (u[i], v[i], s[i]) == sample_one(g, (xy[0], xy[1]), 1)
            assert (u[i], v[i], s[i]) == (g.u10[1, iy, ix], g.v10[1, iy, ix],
                                          g.swvl1[1, iy, ix])

    def test_many_clamp_uses_edge_cell(self):
        g = tiny_grid()
        u, _, _ = sample_points(g, np.array([[-5.0, 500.0]]), 0)
        assert u[0] == float(g.u10[0, g.ny - 1, 0])


def gathered(grid, pts, t):
    """(u10, v10, swvl1) rows at each (x, y) of pts, hour t, gathered from
    the full rasters: the nearest cell, the lower one on a shared edge,
    the nearest edge cell off the rectangle."""
    rasters = (grid.u10, grid.v10, grid.swvl1)
    rows = []
    for x, y in pts:
        cell = []
        for c, o, n in ((y, grid.origin[1], grid.ny), (x, grid.origin[0], grid.nx)):
            offset = min(max(c - o, 0.0), n * grid.spacing_km)
            cell.append(min(max(math.ceil(offset / grid.spacing_km) - 1, 0), n - 1))
        rows.append([float(r[t, cell[0], cell[1]]) for r in rasters])
    return np.array(rows, dtype=float).reshape(-1, 3).T


def _coords(origin, n, spacing):
    """Positions along one axis: cell edges, shared ones included, and
    anywhere from two cells before the rectangle to two cells past it."""
    return (st.integers(-2, n + 2).map(lambda k: origin + k * spacing)
            | st.floats(origin - 2 * spacing, origin + (n + 2) * spacing))


_GEOMETRY = dict(spacing_km=st.sampled_from([0.5, 1.0, 2.5, 10.0]),
                 origin=st.tuples(st.sampled_from([0.0, -7.5, 120.0]),
                                  st.sampled_from([0.0, 3.25])))


@st.composite
def _random_specs(draw):
    """Random-mode specs: axes of size 1, at their coarse size, below it
    (the coarse size is clamped) and above it; odd and even nt."""
    coarse = {f"coarse_{axis}": draw(st.integers(1, 5)) for axis in ("nx", "ny", "nt")}
    dims = {axis: draw(st.sampled_from([1, coarse[f"coarse_{axis}"]]) | st.integers(1, top))
            for axis, top in (("nx", 13), ("ny", 13), ("nt", 9))}
    ranges = {f"{name}_range": tuple(sorted(draw(st.floats(lo, hi)) for _ in range(2)))
              for name, lo, hi in (("u10", -40.0, 40.0), ("v10", -40.0, 40.0),
                                   ("swvl1", 0.0, 1.0))}
    geometry = {key: draw(value) for key, value in _GEOMETRY.items()}
    return SynthSpec(mode="random", **coarse, **dims, **ranges, **geometry)


@st.composite
def _uniform_specs(draw):
    """Constant- and schedule-mode specs, -0.0 among their values."""
    nt = draw(st.integers(1, 9))
    common = dict(nx=draw(st.integers(1, 7)), ny=draw(st.integers(1, 7)), nt=nt,
                  **{key: draw(value) for key, value in _GEOMETRY.items()})

    def values():
        return (draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)),
                draw(st.floats(0.0, 1.0)))

    if draw(st.booleans()):
        u, v, s = values()
        return SynthSpec(mode="constant", u10=u, v10=v, swvl1=s, **common)
    starts = [0] + draw(st.lists(st.integers(0, nt + 2), max_size=4))
    return SynthSpec(mode="schedule", schedule=[(h, *values()) for h in starts], **common)


def _uniform_fields(spec):
    """Constant or schedule fields as synthesis first filled them: float32
    rasters, hour range by hour range."""
    shape = (spec.nt, spec.ny, spec.nx)
    if spec.mode == "constant":
        return [np.full(shape, value, dtype=np.float32)
                for value in (spec.u10, spec.v10, spec.swvl1)]
    entries = sorted(spec.schedule)
    starts = [e[0] for e in entries] + [spec.nt]
    fields = [np.empty(shape, dtype=np.float32) for _ in ENV_FIELDS]
    for (h0, *values), h1 in zip(entries, starts[1:]):
        for f, value in zip(fields, values):
            f[h0:h1] = value
    return fields


class TestLatticeSampling:
    """A synthesized grid samples by evaluating its lattice: bit for bit a
    gather from its full rasters, which hold what synthesis always wrote."""

    @staticmethod
    def check_sampling(grid, data):
        pts = data.draw(st.lists(st.tuples(
            _coords(grid.origin[0], grid.nx, grid.spacing_km),
            _coords(grid.origin[1], grid.ny, grid.spacing_km)), max_size=40))
        t = data.draw(st.integers(0, grid.nt - 1))
        got = sample_points(grid, np.array(pts, dtype=float).reshape(-1, 2), t)
        assert got.tobytes() == gathered(grid, pts, t).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(spec=_random_specs(), seed=st.integers(0, 2 ** 128 - 1), data=st.data())
    def test_random_specs(self, spec, seed, data):
        grid = synth_env(spec, seed)
        rng = np.random.Generator(np.random.Philox(key=seed))
        for name in ENV_FIELDS:
            expected = _whole_grid_field(rng, spec, *getattr(spec, f"{name}_range"))
            assert getattr(grid, name).tobytes() == expected.tobytes(), name
        self.check_sampling(grid, data)

    @settings(max_examples=100, deadline=None)
    @given(spec=_uniform_specs(), data=st.data())
    def test_constant_and_schedule_specs(self, spec, data):
        grid = synth_env(spec, 0)
        for name, expected in zip(ENV_FIELDS, _uniform_fields(spec)):
            assert getattr(grid, name).tobytes() == expected.tobytes(), name
        self.check_sampling(grid, data)

    @pytest.mark.parametrize("make", [
        lambda tmp_path: tiny_grid(),
        lambda tmp_path: load_env_grid(save_env_grid(tiny_grid(), tmp_path / "env.json")),
        lambda tmp_path: synth_env(SynthSpec(nx=3, ny=2, nt=2, spacing_km=1.0,
                                             mode="random"), 1),
    ], ids=["hand-built", "loaded", "synthesized"])
    def test_computed_rasters_are_read_only(self, tmp_path, make):
        grid = make(tmp_path)
        for name in ENV_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, name)[0, 0, 0] = 0.5
        assert grid.u10 is not grid.u10

    def test_negative_zero_survives_sampling_and_round_trip(self, tmp_path):
        shape = (2, 2, 3)
        u = np.full(shape, -0.0, dtype=np.float32)
        u[1, 0, 0] = 1.5
        grid = EnvGrid(nx=3, ny=2, nt=2, spacing_km=1.0, origin=(0.0, 0.0),
                       u10=u, v10=-u, swvl1=np.full(shape, -0.0))
        pts = np.array([[0.5, 0.5], [2.5, 1.5], [1.0, 1.0], [-3.0, 9.0]])
        u_got, _, s_got = sample_points(grid, pts, 0)
        assert np.all(u_got == 0.0) and np.all(np.signbit(u_got))
        assert np.all(np.signbit(s_got))
        first = save_env_grid(grid, tmp_path / "a" / "env.json")
        second = save_env_grid(load_env_grid(first), tmp_path / "b" / "env.json")
        for name in ENV_FIELDS:
            a, b = (m.parent / f"env_{name}.f32" for m in (first, second))
            assert a.read_bytes() == b.read_bytes(), name
        assert np.signbit(np.fromfile(second.parent / "env_u10.f32", dtype="<f4")[0])


class TestDistinctCells:
    """sample_env_many gives each distinct cell once, in ascending cell
    order, and each point's slot among them: the cells' cell_values taken
    by slot are the per-point gather from the full rasters, on a
    synthesized lattice and on the loaded rasters written from it."""

    @settings(max_examples=80, deadline=None)
    @given(spec=_random_specs() | _uniform_specs(), seed=st.integers(0, 2 ** 128 - 1),
           loaded=st.booleans(), data=st.data())
    def test_slots_take_the_per_point_values(self, spec, seed, loaded, data):
        grid = synth_env(spec, seed)
        if loaded:
            with tempfile.TemporaryDirectory() as tmp:
                grid = load_env_grid(save_env_grid(grid, Path(tmp) / "env.json"))
        pts = np.array(data.draw(st.lists(st.tuples(
            _coords(grid.origin[0], grid.nx, grid.spacing_km),
            _coords(grid.origin[1], grid.ny, grid.spacing_km)), max_size=40)),
            dtype=float).reshape(-1, 2)
        t = data.draw(st.integers(0, grid.nt - 1))
        cells, slot = sample_env_many(grid, pts, t)
        ix, iy = envdata.nearest_cells(grid, pts.T)
        distinct, rank = np.unique(iy * grid.nx + ix, return_inverse=True)
        assert cells.dtype == np.int64
        np.testing.assert_array_equal(cells, distinct)
        np.testing.assert_array_equal(slot, rank)
        values = cell_values(grid, cells, t)
        assert values.dtype == np.float64 and values.shape == (3, distinct.size)
        assert values.take(slot, axis=1).tobytes() == gathered(grid, pts, t).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(spec=_random_specs() | _uniform_specs(), seed=st.integers(0, 2 ** 128 - 1),
           data=st.data())
    def test_a_vector_of_hours_gives_each_hour_values(self, spec, seed, data):
        # one cell over up to 70 hours, as a trajectory's term table fills
        # an entry, is bitwise one lookup per hour
        grid = synth_env(spec, seed)
        cell = data.draw(st.integers(0, grid.nx * grid.ny - 1))
        t0 = data.draw(st.integers(0, grid.nt - 1))
        hours = np.arange(t0, min(t0 + data.draw(st.integers(1, 70)), grid.nt))
        block = cell_values(grid, np.full(hours.size, cell), hours)
        per_hour = [cell_values(grid, np.array([cell]), int(h)) for h in hours]
        assert block.tobytes() == np.concatenate(per_hour, axis=1).tobytes()


def clip_cells(grid, x, y):
    """nearest_cells' indices in the np.clip formula."""
    lx = np.clip(x - grid.origin[0], 0.0, grid.nx * grid.spacing_km)
    ly = np.clip(y - grid.origin[1], 0.0, grid.ny * grid.spacing_km)
    ix = np.clip(np.ceil(lx / grid.spacing_km).astype(np.int64) - 1, 0, grid.nx - 1)
    iy = np.clip(np.ceil(ly / grid.spacing_km).astype(np.int64) - 1, 0, grid.ny - 1)
    return ix, iy


class TestNearestCells:
    """nearest_cells gives the np.clip formula's indices, for arrays and
    scalars, on env and biomass grids: positions on shared cell edges, on
    the rectangle's edges and off it included."""

    @settings(max_examples=150, deadline=None)
    @given(nx=st.integers(1, 6), ny=st.integers(1, 6), biomass=st.booleans(),
           data=st.data(), **_GEOMETRY)
    def test_matches_the_clip_formula(self, nx, ny, biomass, data, spacing_km, origin):
        if biomass:
            grid = BiomassGrid(nx=nx, ny=ny, spacing_km=spacing_km,
                               values=np.ones((ny, nx)), origin=origin)
        else:
            grid = tiny_grid(nx=nx, ny=ny, spacing=spacing_km, origin=origin)
        pts = np.array(data.draw(st.lists(st.tuples(
            _coords(origin[0], nx, spacing_km), _coords(origin[1], ny, spacing_km)),
            max_size=40)), dtype=float).reshape(-1, 2)
        x, y = pts[:, 0], pts[:, 1]
        got, want = envdata.nearest_cells(grid, (x, y)), clip_cells(grid, x, y)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            np.testing.assert_array_equal(g, w)
        for xi, yi in pts.tolist():
            got = envdata.nearest_cells(grid, (xi, yi))
            assert tuple(map(int, got)) == tuple(map(int, clip_cells(grid, xi, yi)))
            assert all(np.ndim(g) == 0 for g in got)
        # a NaN coordinate takes the first cell, whatever the other one
        got = envdata.nearest_cells(grid, (math.nan, origin[1] + ny * spacing_km))
        assert tuple(map(int, got)) == (0, ny - 1)


class TestRoundTrip:
    """save -> load keeps a synthesized grid: the loaded grid's full-size
    lattice samples and rasterizes as the coarse lattice it was written from."""

    @settings(max_examples=120, deadline=None)
    @given(spec=_random_specs() | _uniform_specs(), seed=st.integers(0, 2 ** 128 - 1),
           data=st.data())
    def test_loaded_grid_is_the_synthesized_one(self, spec, seed, data):
        grid = synth_env(spec, seed)
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_env_grid(save_env_grid(grid, Path(tmp) / "env.json"))
        for name in ENV_FIELDS:
            assert getattr(loaded, name).tobytes() == getattr(grid, name).tobytes(), name
        pts = np.array(data.draw(st.lists(st.tuples(
            _coords(grid.origin[0], grid.nx, grid.spacing_km),
            _coords(grid.origin[1], grid.ny, grid.spacing_km)), max_size=40)),
            dtype=float).reshape(-1, 2)
        t = data.draw(st.integers(0, grid.nt - 1))
        assert (sample_points(loaded, pts, t).tobytes()
                == sample_points(grid, pts, t).tobytes())


    def test_numpy_geometry_round_trips(self, tmp_path):
        # the checks accept numpy scalars; each manifest holds the numbers they hold
        origin = (np.float64(-5.5), np.float32(2.25))
        grid = tiny_grid(spacing=np.float32(0.3), origin=origin)
        loaded = load_env_grid(save_env_grid(grid, tmp_path / "env.json"))
        assert (loaded.spacing_km, loaded.origin) == (grid.spacing_km, origin)
        for name in ENV_FIELDS:  # float32 rasters hold these values exactly
            np.testing.assert_array_equal(getattr(loaded, name), getattr(grid, name))
        bio = BiomassGrid(nx=np.int64(4), ny=3, spacing_km=np.float32(0.3),
                          values=np.ones((3, 4)), origin=origin)
        back = load_biomass(save_biomass(bio, tmp_path / "bio.json"))
        assert (back.nx, back.spacing_km, back.origin) == (4, bio.spacing_km, origin)
        assert back.values.tobytes() == bio.values.astype("<f4").tobytes()


class TestGridOwnsItsValues:
    def test_writes_to_the_given_arrays_change_nothing(self):
        shape = (2, 3, 4)
        u, v, s = np.zeros(shape), np.ones(shape), np.full(shape, 0.25)
        grid = EnvGrid(nx=4, ny=3, nt=2, spacing_km=1.0, origin=(0.0, 0.0),
                       u10=u, v10=v, swvl1=s)
        pts = np.array([[0.5, 0.5], [3.5, 2.5]])
        before = sample_points(grid, pts, 0)
        u[...], v[...], s[...] = np.nan, -7.0, 5.0  # NaN and swvl1 = 5 fail the checks
        assert sample_points(grid, pts, 0).tobytes() == before.tobytes()
        assert np.all(grid.u10 == 0.0) and np.all(grid.v10 == 1.0)
        assert np.all(grid.swvl1 == 0.25)

    def test_arrays_of_different_dtypes_are_held_in_their_common_one(self):
        shape = (1, 2, 2)
        grid = EnvGrid(nx=2, ny=2, nt=1, spacing_km=1.0, origin=(0.0, 0.0),
                       u10=np.full(shape, 1.5, dtype=np.float32),
                       v10=np.full(shape, 2, dtype=np.int32), swvl1=np.full(shape, 0.1))
        assert {getattr(grid, name).dtype for name in ENV_FIELDS} == {np.dtype(float)}
        assert sample_one(grid, (0.5, 0.5), 0) == (1.5, 2.0, 0.1)

    def test_takes_nested_lists(self):
        u = np.arange(12, dtype=float).reshape(2, 2, 3)
        listed = EnvGrid(nx=3, ny=2, nt=2, spacing_km=1.0, origin=(0.0, 0.0),
                         u10=u.tolist(), v10=(-u).tolist(), swvl1=[[[0.5] * 3] * 2] * 2)
        arrays = EnvGrid(nx=3, ny=2, nt=2, spacing_km=1.0, origin=(0.0, 0.0),
                         u10=u, v10=-u, swvl1=np.full((2, 2, 3), 0.5))
        pts = np.array([[0.5, 0.5], [2.5, 1.5], [1.0, 2.0]])
        for t in range(2):
            assert (sample_points(listed, pts, t).tobytes()
                    == sample_points(arrays, pts, t).tobytes())
        for name in ENV_FIELDS:
            assert getattr(listed, name).tobytes() == getattr(arrays, name).tobytes()

    @pytest.mark.parametrize("bad", [
        np.full((1, 1, 1), "calm"),        # strings
        [[[1.0, 2.0]], [[3.0]]],           # a ragged nesting
        np.full((1, 1, 1), 1 + 2j),        # complex
    ], ids=["strings", "ragged", "complex"])
    @pytest.mark.parametrize("name", ENV_FIELDS)
    def test_non_numeric_raster_is_named(self, name, bad):
        fields = {field: np.zeros((1, 1, 1)) for field in ENV_FIELDS}
        fields[name] = bad
        with pytest.raises(ValidationError,
                           match=f"^{name} must be an array of real numbers$"):
            EnvGrid(nx=1, ny=1, nt=1, spacing_km=1.0, origin=(0.0, 0.0), **fields)


class TestBiomassOwnsItsValues:
    def test_writes_to_the_given_array_change_nothing(self):
        v = np.full((2, 3), 7.0)
        bio = BiomassGrid(nx=3, ny=2, spacing_km=1.0, values=v)
        v[0, 0] = np.nan
        assert bio.values is not v
        assert np.all(bio.values == 7.0)
        with pytest.raises(ValueError, match="read-only"):
            bio.values[0, 0] = -1.0

    def test_keeps_the_dtype(self):
        v = np.full((1, 2), 3.5, dtype=np.float32)
        assert BiomassGrid(nx=2, ny=1, spacing_km=1.0, values=v).values.dtype == np.float32

    def test_takes_nested_lists(self):
        bio = BiomassGrid(nx=3, ny=2, spacing_km=1.0, values=[[1.0, 2.0, 3.0], [4, 5, 6]])
        assert bio.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    @pytest.mark.parametrize("bad", [
        np.full((1, 1), "dense"),   # strings
        [[1.0, 2.0], [3.0]],        # a ragged nesting
        np.full((1, 1), 1 + 2j),    # complex
    ], ids=["strings", "ragged", "complex"])
    def test_non_numeric_values_are_named(self, bad):
        with pytest.raises(ValidationError,
                           match="^biomass must be an array of real numbers$"):
            BiomassGrid(nx=1, ny=1, spacing_km=1.0, values=bad)

    def test_shape_is_checked(self):
        with pytest.raises(ValidationError, match=re.escape(
                "biomass shape (2, 2) != declared (3, 2)")):
            BiomassGrid(nx=2, ny=3, spacing_km=1.0, values=np.zeros((2, 2)))


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    @pytest.mark.parametrize("mode", ["constant", "schedule", "random"])
    def test_synth_env(self, mode, seed):
        spec = SynthSpec(nx=2, ny=2, nt=2, spacing_km=1.0, mode=mode,
                         schedule=[(0, 1.0, 0.0, 0.1)])
        with pytest.raises(ValidationError, match=re.escape(
                f"synth_env seed must be an integer in [0, 2**128), got {seed}")):
            synth_env(spec, seed)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_synth_biomass(self, seed):
        with pytest.raises(ValidationError, match=re.escape(
                f"synth_biomass seed must be an integer in [0, 2**128), got {seed}")):
            synth_biomass(4, 4, 1.0, 1.0, 2.0, seed=seed)


class TestSynthesis:
    def test_env_deterministic_and_in_range(self):
        spec = SynthSpec(nx=11, ny=9, nt=6, spacing_km=10.0, mode="random",
                         u10_range=(2.0, 9.0), v10_range=(-3.0, 3.0),
                         swvl1_range=(0.1, 0.2), coarse_nx=3, coarse_ny=3,
                         coarse_nt=2)
        a = synth_env(spec, 42)
        b = synth_env(spec, 42)
        c = synth_env(spec, 43)
        np.testing.assert_array_equal(a.u10, b.u10)
        assert not np.array_equal(a.u10, c.u10)
        eps = 1e-5  # float32 cast may round by up to half an ulp
        assert a.u10.min() >= 2.0 - eps and a.u10.max() <= 9.0 + eps
        assert a.v10.min() >= -3.0 - eps and a.v10.max() <= 3.0 + eps
        assert a.swvl1.min() >= 0.1 - eps and a.swvl1.max() <= 0.2 + eps
        assert a.u10.shape == (6, 9, 11)

    def test_env_constant_mode(self):
        spec = SynthSpec(nx=3, ny=3, nt=2, spacing_km=5.0, mode="constant",
                         u10=7.0, v10=1.0, swvl1=0.05)
        g = synth_env(spec, 0)
        assert np.all(g.u10 == 7.0) and np.all(g.v10 == 1.0)
        assert np.all(g.swvl1 == np.float32(0.05))

    def test_env_schedule_mode(self):
        spec = SynthSpec(nx=2, ny=2, nt=6, spacing_km=5.0, mode="schedule",
                         schedule=[(0, 5.0, 0.0, 0.1), (4, 9.0, 2.0, 0.2)])
        g = synth_env(spec, 0)
        assert np.all(g.u10[:4] == 5.0) and np.all(g.u10[4:] == 9.0)
        assert np.all(g.v10[4:] == 2.0)

    def test_env_schedule_must_start_at_zero(self):
        # the spec checks its own fields when it is built
        with pytest.raises(ValidationError, match="start at hour 0"):
            SynthSpec(nx=2, ny=2, nt=6, spacing_km=5.0, mode="schedule",
                      schedule=[(1, 5.0, 0.0, 0.1)])

    def test_biomass_deterministic_and_in_range(self):
        a = synth_biomass(nx=8, ny=6, spacing_km=5.0, lo=20.0, hi=80.0, seed=9)
        b = synth_biomass(nx=8, ny=6, spacing_km=5.0, lo=20.0, hi=80.0, seed=9)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values.min() >= 20.0 and a.values.max() <= 80.0

    @pytest.mark.parametrize("bad", [
        {"nx": True}, {"nt": 0}, {"spacing_km": float("inf")}, {"coarse_ny": -1},
        {"origin": (0.0,)}, {"u10": "calm"}, {"schedule": [(0, 1.0, 2.0)]},
        {"swvl1_range": (0.5, 0.4)},
    ])
    def test_spec_checks_its_fields_when_built(self, bad):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            SynthSpec(**{"nx": 3, "ny": 3, "nt": 2, "spacing_km": 5.0, **bad})

    def test_spec_takes_sequences_and_numpy_numbers(self):
        spec = SynthSpec(nx=np.int64(3), ny=3, nt=2, spacing_km=np.float32(5.0),
                         origin=[1.0, 2.0], mode="schedule", schedule=[[0, 1.0, 2.0, 0.1]])
        assert spec.origin == (1.0, 2.0) and spec.schedule == [(0, 1.0, 2.0, 0.1)]
        assert np.all(synth_env(spec, 0).v10 == 2.0)

    def test_spec_from_dict_rejects_unknown(self):
        with pytest.raises(ValidationError):
            SynthSpec.from_dict({"nx": 2, "ny": 2, "nt": 1, "spacing_km": 1.0,
                                 "mode": "random", "bogus": 1})


def _whole_grid_resample(a, n_new, axis):
    """Linear resampling as synthesis first did it: np.take gathers and
    fresh temporaries, over the whole array."""
    n_old = a.shape[axis]
    if n_old == n_new:
        return a
    if n_old == 1:
        return np.repeat(a, n_new, axis=axis)
    pos = np.linspace(0.0, n_old - 1.0, n_new)
    i0 = np.minimum(np.floor(pos).astype(int), n_old - 2)
    shape = [1] * a.ndim
    shape[axis] = n_new
    w = (pos - i0).reshape(shape)
    return np.take(a, i0, axis=axis) * (1.0 - w) + np.take(a, i0 + 1, axis=axis) * w


def _whole_grid_field(rng, spec, lo, hi):
    """A random env field by the whole-grid three-pass formula (time, then
    y, then x over every hour at once in float64), the reference for a
    synthesized grid's rasters."""
    coarse = rng.random((min(spec.coarse_nt, spec.nt), min(spec.coarse_ny, spec.ny),
                         min(spec.coarse_nx, spec.nx)))
    f = _whole_grid_resample(coarse, spec.nt, axis=0)
    f = _whole_grid_resample(f, spec.ny, axis=1)
    f = _whole_grid_resample(f, spec.nx, axis=2)
    return (lo + (hi - lo) * f).astype(np.float32)


class _KeptDraws:
    """A Generator stand-in that keeps every array it hands out, with a
    copy, so a test can see whether synthesis wrote into its draws."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.Philox(key=seed))
        self.draws = []

    def random(self, shape):
        a = self.rng.random(shape)
        self.draws.append((a, a.copy()))
        return a


class TestSynthesisIsPinned:
    def test_bundled_grids_are_pinned(self):
        _, env, bio, _, _ = load_season_bundle(bundled_scenario_path())
        digests = {name: hashlib.sha256(getattr(env, name).astype("<f4").tobytes()).hexdigest()
                   for name in ("u10", "v10", "swvl1")}
        digests["biomass"] = hashlib.sha256(bio.values.astype("<f4").tobytes()).hexdigest()
        assert (env.u10.shape, bio.values.shape) == ((720, 111, 101), (222, 202))
        assert digests == {
            "u10": "cb0227e1755a93bd5b27e9d9d392aed63000a7a2b986873790629a16460b5453",
            "v10": "f594d3821065a8316de780bfb9040cda79f2d3049eac69a972e548b90bbc93be",
            "swvl1": "e9d8476839b931e6e0bd2ef567881707956fdb4bd7483da45787b5368afd832f",
            "biomass": "0dece6b258a7454837f12bdb4ba8f2dff3fdd43c81d83500eb57cac5f6eeafa5"}

    @pytest.mark.parametrize("dims", [
        dict(nx=11, ny=9, nt=7, coarse_nt=3),     # odd nt
        dict(nx=11, ny=9, nt=1),                  # one hour
        dict(nx=13, ny=10, nt=3, coarse_nt=2),    # fewer hours than one block
        dict(nx=6, ny=9, nt=25),                  # nx == coarse_nx
        dict(nx=11, ny=6, nt=25),                 # ny == coarse_ny
        dict(nx=11, ny=9, nt=12),                 # nt == coarse_nt
        dict(nx=6, ny=6, nt=12),                  # every axis at its coarse size
        dict(nx=2, ny=3, nt=5, coarse_nt=1),      # coarse sizes clamped; one coarse hour
        dict(nx=101, ny=111, nt=50),
    ])
    def test_blocked_synthesis_matches_whole_grid_formula(self, dims):
        spec = SynthSpec(spacing_km=10.0, mode="random", u10_range=(16.0, 32.0),
                         v10_range=(-12.0, 12.0), swvl1_range=(0.0, 0.06), **dims)
        grid = synth_env(spec, 7151)
        rng = np.random.Generator(np.random.Philox(key=7151))
        for name in ("u10", "v10", "swvl1"):
            expected = _whole_grid_field(rng, spec, *getattr(spec, f"{name}_range"))
            assert getattr(grid, name).dtype == np.float32
            assert getattr(grid, name).tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("dims", [dict(nx=6, ny=6, nt=12), dict(nx=11, ny=9, nt=7)])
    def test_synthesis_leaves_its_draws_untouched(self, dims):
        kept = _KeptDraws(3)
        envdata._time_lattice(kept, SynthSpec(spacing_km=1.0, mode="random", **dims))
        assert len(kept.draws) == 1
        for drawn, copy in kept.draws:
            assert drawn.tobytes() == copy.tobytes()

    @pytest.mark.parametrize("n_old, n_new", [(1, 4), (2, 2), (3, 3), (3, 8), (6, 101)])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_resample_matches_take_formula_and_keeps_its_input(self, n_old, n_new, axis):
        shape = [4, 3, 5]
        shape[axis] = n_old
        a = np.random.Generator(np.random.Philox(key=n_old * 7 + axis)).random(shape)
        before = a.copy()
        got = envdata._lin_resample(a, envdata._taps(n_old, n_new), axis)
        assert got.tobytes() == _whole_grid_resample(before, n_new, axis).tobytes()
        assert a.tobytes() == before.tobytes()
        if n_old == n_new:
            assert got is a

    @pytest.mark.parametrize("nx, ny", [(202, 222), (8, 8), (8, 3), (1, 1), (9, 8)])
    def test_biomass_matches_whole_grid_formula(self, nx, ny):
        bio = synth_biomass(nx=nx, ny=ny, spacing_km=5.0, lo=20.0, hi=80.0, seed=4641)
        rng = np.random.Generator(np.random.Philox(key=4641))
        c = rng.random((min(envdata.BIOMASS_COARSE, ny), min(envdata.BIOMASS_COARSE, nx)))
        f = _whole_grid_resample(_whole_grid_resample(c, ny, axis=0), nx, axis=1)
        assert bio.values.tobytes() == (20.0 + 60.0 * f).astype(np.float32).tobytes()

    def test_random_synthesis_peaks_near_its_output(self):
        # synthesis holds the lattice, far less than the three float32
        # fields it yields on request; a whole-grid float64 pass would hold
        # several times one field
        spec = SynthSpec(nx=101, ny=111, nt=96, spacing_km=10.0, mode="random")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            grid = synth_env(spec, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fields = sum(getattr(grid, name).nbytes for name in ("u10", "v10", "swvl1"))
        assert fields == 3 * 96 * 111 * 101 * 4
        assert peak <= 1.25 * fields, peak / fields


def _peak_bytes(fn) -> int:
    """Peak of the memory numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLatticeMemory:
    def test_bundle_loads_small(self):
        # its env rasters would take 97 MB
        peak = _peak_bytes(lambda: load_season_bundle(bundled_scenario_path()))
        assert peak < 8 * 10 ** 6, peak

    def test_year_of_kilometre_cells_synthesizes_and_samples_small(self):
        # 8760 hours of 1110 x 1010 cells: about 118 GB as float32 rasters
        spec = SynthSpec(nx=1010, ny=1110, nt=8760, spacing_km=1.0, mode="random")
        pts = np.random.default_rng(2).uniform((-5.0, -5.0), (1015.0, 1115.0),
                                               size=(10_000, 2))
        peak = _peak_bytes(lambda: sample_points(synth_env(spec, 3), pts, 8759))
        assert peak < 32 * 10 ** 6, peak


class TestRasterMemory:
    def test_saving_writes_hour_by_hour(self, tmp_path):
        # whole (nt, ny, nx) rasters of this spec would peak near 31 MB
        spec = SynthSpec(nx=400, ny=400, nt=24, spacing_km=1.0, mode="random")
        grid = synth_env(spec, 11)
        peak = _peak_bytes(lambda: save_env_grid(grid, tmp_path / "env.json"))
        assert peak < 8 * 10 ** 6, peak
        rng = np.random.Generator(np.random.Philox(key=11))
        for name in ENV_FIELDS:
            expected = _whole_grid_field(rng, spec, *getattr(spec, f"{name}_range"))
            assert (tmp_path / f"env_{name}.f32").read_bytes() == expected.tobytes(), name

    def test_loading_reads_into_the_lattice(self, tmp_path):
        # each file is read into its slice of the grid's one lattice, with
        # no second copy of the rasters
        spec = SynthSpec(nx=200, ny=150, nt=40, spacing_km=1.0, mode="random")
        man = save_env_grid(synth_env(spec, 2), tmp_path / "env.json")
        peak = _peak_bytes(lambda: load_env_grid(man))
        rasters = 3 * 40 * 150 * 200 * 4
        assert peak <= 1.4 * rasters, peak / rasters


class TestRasterIO:
    def test_env_round_trip(self, tmp_path):
        g = synth_env(SynthSpec(nx=5, ny=4, nt=3, spacing_km=2.0, mode="random",
                                coarse_nx=2, coarse_ny=2, coarse_nt=2), 7)
        man = save_env_grid(g, tmp_path / "env.json")
        g2 = load_env_grid(man)
        np.testing.assert_array_equal(g.u10, g2.u10)
        np.testing.assert_array_equal(g.v10, g2.v10)
        np.testing.assert_array_equal(g.swvl1, g2.swvl1)
        assert (g2.nx, g2.ny, g2.nt, g2.spacing_km) == (5, 4, 3, 2.0)

    def test_biomass_round_trip(self, tmp_path):
        b = synth_biomass(nx=6, ny=5, spacing_km=3.0, lo=10.0, hi=30.0, seed=3)
        man = save_biomass(b, tmp_path / "bio.json")
        b2 = load_biomass(man)
        np.testing.assert_array_equal(b.values, b2.values)

    def test_numpy_integer_dimensions_save_and_load(self, tmp_path):
        # the integer rule takes numpy integers; the grids keep them as ints,
        # which the JSON manifests can hold
        b = synth_biomass(np.int64(3), np.int64(4), 1.0, 0.0, 1.0, 0)
        g = synth_env(SynthSpec(nx=np.int64(3), ny=np.int64(2), nt=np.int64(2),
                                spacing_km=1.0, mode="random", coarse_nx=2,
                                coarse_ny=2, coarse_nt=2), 0)
        assert [type(v) for v in (b.nx, b.ny, g.nx, g.ny, g.nt)] == [int] * 5
        b2 = load_biomass(save_biomass(b, tmp_path / "bio.json"))
        g2 = load_env_grid(save_env_grid(g, tmp_path / "env.json"))
        assert (b2.nx, b2.ny, b2.values.tobytes()) == (3, 4, b.values.tobytes())
        assert (g2.nx, g2.ny, g2.nt, g2.u10.tobytes()) == (3, 2, 2, g.u10.tobytes())

    @pytest.mark.parametrize("edit, field", [
        ({"nx": "abc"}, "env manifest field 'nx' must be an integer"),
        ({"nt": 2.5}, "env manifest field 'nt'"),
        ({"spacing_km": "10"}, "env manifest field 'spacing_km' must be a number"),
        ({"origin": [0.0, 0.0, 0.0]}, "env manifest field 'origin'"),
        ({"files": ["u10"]}, "env manifest field 'files' must be an object"),
        ({"notes": "x"}, "env manifest has unknown field 'notes'"),
        ({"files": {"u10": "a", "v10": "b"}}, "env manifest files missing field 'swvl1'"),
        ({"files": {"u10": "a", "v10": "b", "swvl1": "c", "t2m": "d"}},
         "env manifest files has unknown field 't2m'"),
        ({"files": {"u10": 1, "v10": "b", "swvl1": "c"}}, "env manifest files field 'u10'"),
        ({"nx": -5, "ny": -1}, "env manifest nx must be an integer >= 1"),
        ({"origin": [float("nan"), 0.0]}, "origin must be finite"),
    ])
    def test_env_manifest_fields_are_checked(self, tmp_path, edit, field):
        g = synth_env(SynthSpec(nx=5, ny=4, nt=3, spacing_km=2.0, mode="constant"), 0)
        man = save_env_grid(g, tmp_path / "env.json")
        man.write_text(json.dumps({**json.loads(man.read_text()), **edit}))
        with pytest.raises(ValidationError, match=field):
            load_env_grid(man)

    @pytest.mark.parametrize("edit, field", [
        ({"ny": "abc"}, "biomass manifest field 'ny'"),
        ({"file": 3}, "biomass manifest field 'file' must be a string"),
        ({"origin": "0,0"}, "biomass manifest field 'origin'"),
        ({"seed": 3}, "biomass manifest has unknown field 'seed'"),
        ({"nx": -5, "ny": -1}, "biomass manifest nx must be an integer >= 1"),
        ({"origin": [0.0, float("inf")]}, "biomass manifest origin must be finite"),
    ])
    def test_biomass_manifest_fields_are_checked(self, tmp_path, edit, field):
        man = save_biomass(synth_biomass(nx=6, ny=5, spacing_km=3.0, lo=10.0, hi=30.0,
                                         seed=3), tmp_path / "bio.json")
        man.write_text(json.dumps({**json.loads(man.read_text()), **edit}))
        with pytest.raises(ValidationError, match=field):
            load_biomass(man)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValidationError):
            load_env_grid(tmp_path / "nope.json")

    def test_raster_sizes_are_checked_before_the_grid_is_sized(self, tmp_path):
        # a manifest claiming 10**13 cells is refused on its files' sizes,
        # before a lattice of 120 TB would be asked for
        man = save_env_grid(tiny_grid(), tmp_path / "env.json")
        man.write_text(json.dumps({**json.loads(man.read_text()), "nt": 10 ** 12}))
        with pytest.raises(ValidationError, match=re.escape(
                f"u10 raster {tmp_path / 'env_u10.f32'} holds 96 bytes, expected "
                f"{48 * 10 ** 12} ({12 * 10 ** 12} float32 values)")):
            load_env_grid(man)

    def test_truncated_raster_rejected(self, tmp_path):
        g = synth_env(SynthSpec(nx=5, ny=4, nt=3, spacing_km=2.0,
                                mode="constant"), 7)
        man = save_env_grid(g, tmp_path / "env.json")
        raster = json.loads(man.read_text())["files"]["u10"]
        p = tmp_path / raster
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValidationError):
            load_env_grid(man)

    @pytest.mark.parametrize("failing", range(len(ENV_FIELDS)))
    def test_failed_save_leaves_the_old_rasters(self, tmp_path, monkeypatch, failing):
        # the save fails after the first hour of field failing: no file of
        # the set, written before or after it, replaces the old one
        man = save_env_grid(tiny_grid(), tmp_path / "env.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        hours = EnvGrid._hours

        def fail_on_one_field(self, k):
            for t, values in enumerate(hours(self, k)):
                if (k, t) == (failing, 1):
                    raise OSError("device full")
                yield values

        monkeypatch.setattr(EnvGrid, "_hours", fail_on_one_field)
        with pytest.raises(OSError, match="device full"):
            save_env_grid(tiny_grid(nt=5), man)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("failing", ["bio.json", "bio_biomass.f32"])
    def test_failed_biomass_save_leaves_the_old_files(self, tmp_path, monkeypatch, failing):
        man = save_biomass(synth_biomass(6, 5, 3.0, 10.0, 30.0, seed=3), tmp_path / "bio.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        atomic_open = envdata.atomic_open

        @contextmanager
        def fail_on_one_file(path, mode="w"):
            if Path(path).name == failing:
                raise OSError("device full")
            with atomic_open(path, mode) as fh:
                yield fh

        monkeypatch.setattr(envdata, "atomic_open", fail_on_one_file)
        with pytest.raises(OSError, match="device full"):
            save_biomass(synth_biomass(6, 5, 3.0, 10.0, 30.0, seed=4), man)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestAlignment:
    def test_aligned_passes(self):
        env = tiny_grid()  # 40 x 30 km
        bio = synth_biomass(nx=8, ny=6, spacing_km=5.0, lo=1, hi=2, seed=0)
        check_biomass_alignment(bio, env)

    def test_misaligned_fails(self):
        env = tiny_grid()
        bio = synth_biomass(nx=8, ny=6, spacing_km=30.0, lo=1, hi=2, seed=0)
        with pytest.raises(ValidationError):
            check_biomass_alignment(bio, env)


class TestIncidents:
    def write(self, tmp_path, body: str):
        p = tmp_path / "fires.csv"
        p.write_text("id,start_iso8601,contained_iso8601,lat_deg,lon_deg,area_acre\n"
                     + body)
        return p

    def big_grid(self):
        shape = (48, 11, 10)
        return EnvGrid(nx=10, ny=11, nt=48, spacing_km=100.0, origin=(0.0, 0.0),
                       u10=np.zeros(shape), v10=np.zeros(shape),
                       swvl1=np.zeros(shape))

    def test_parse_row(self, tmp_path):
        p = self.write(tmp_path,
                       "f1,2020-01-01T05:45:00,2020-01-02T06:00:00,36.0,-120.0,1000\n")
        (inc,) = load_incidents(p, CALIFORNIA, self.big_grid())
        assert inc.id == "f1"
        assert inc.start_hour == 5  # floored from 05:45
        assert inc.historical_burn_hours == pytest.approx(24.25)
        assert inc.historical_area_km2 == pytest.approx(1000 * 0.00404686)
        x, y = geo_to_planar(CALIFORNIA, 36.0, -120.0)
        assert inc.ignition_xy == (x, y)

    def test_optional_history_absent(self, tmp_path):
        p = self.write(tmp_path, "f1,2020-01-01T00:00:00,,36.0,-120.0,\n")
        (inc,) = load_incidents(p, CALIFORNIA, self.big_grid())
        assert inc.historical_burn_hours is None
        assert inc.historical_area_km2 is None

    def test_utc_suffix(self, tmp_path):
        p = self.write(tmp_path, "f1,2020-01-01T03:00:00Z,,36.0,-120.0,\n")
        (inc,) = load_incidents(p, CALIFORNIA, self.big_grid())
        assert inc.start_hour == 3

    def test_explicit_epoch(self, tmp_path):
        from datetime import datetime
        p = self.write(tmp_path, "f1,2020-01-02T00:00:00,,36.0,-120.0,\n")
        (inc,) = load_incidents(p, CALIFORNIA, self.big_grid(),
                                epoch=datetime(2020, 1, 1, 12))
        assert inc.start_hour == 12

    @pytest.mark.parametrize("row, what", [
        ("f1,not-a-date,,36.0,-120.0,", "bad timestamp"),
        ("f1,2020-01-01T00:00:00,2019-12-31T00:00:00,36.0,-120.0,", "contained before start"),
        ("f1,2020-01-01T00:00:00,,91.0,-120.0,", "latitude outside"),
        ("f1,2020-01-01T00:00:00,,36.0,-120.0,-5", "negative area"),
        (",2020-01-01T00:00:00,,36.0,-120.0,", "empty id"),
        ("f1,2020-01-03T00:00:00,,36.0,-120.0,", "start hour beyond grid"),
    ])
    def test_bad_rows(self, tmp_path, row, what):
        p = self.write(tmp_path, row + "\n")
        with pytest.raises(ValidationError):
            load_incidents(p, CALIFORNIA, self.big_grid())

    def test_repeated_id_is_refused(self, tmp_path):
        p = self.write(tmp_path, "h1,2020-01-01T00:00:00,,36.0,-120.0,\n"
                                 "h1,2020-01-01T05:00:00,,35.0,-119.0,\n")
        with pytest.raises(ValidationError, match=re.escape(
                f"incident file {p} row 3: id 'h1' must be non-empty and unique "
                f"in the season")):
            load_incidents(p, CALIFORNIA, self.big_grid())

    def test_missing_column(self, tmp_path):
        p = tmp_path / "fires.csv"
        p.write_text("id,start_iso8601,lat_deg\nf1,2020-01-01T00:00:00,36.0\n")
        with pytest.raises(ValidationError):
            load_incidents(p, CALIFORNIA, self.big_grid())

    @pytest.mark.parametrize("row, message", [
        ("f1,2020-01-03T00:00:00,,33.0,-124.0,", "start hour 48 outside [0, 48)"),
        ("f1,2020-01-01T00:00:00,,41.0,-115.0,",
         f"ignition {geo_to_planar(CALIFORNIA, 41.0, -115.0)} outside the grid rectangle"),
    ])
    def test_csv_placement_message(self, tmp_path, row, message):
        shape = (48, 4, 4)  # a 400 x 400 km grid in California's south-west
        grid = EnvGrid(nx=4, ny=4, nt=48, spacing_km=100.0, origin=(0.0, 0.0),
                       u10=np.zeros(shape), v10=np.zeros(shape), swvl1=np.zeros(shape))
        path = self.write(tmp_path, row + "\n")
        message = f"incident file {path} row 2: {message}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_incidents(path, CALIFORNIA, grid)

    @pytest.mark.parametrize("edit, message", [
        ({"start_hour": 24}, "scenario bundle incident syn-001: start hour 24 "
                             "outside [0, 24)"),
        ({"x_km": 5000.0}, "scenario bundle incident syn-001: ignition "
                           "(5000.0, 203.108) outside the grid rectangle"),
    ])
    def test_bundle_placement_message(self, edit, message):
        # the bundle's incidents go through the CSV loader's check
        raw = json.loads(bundled_scenario_path().read_text())
        raw["env"]["nt"] = 24
        raw["incidents"][0].update(edit)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            season_scenario(raw)

    @pytest.mark.parametrize("n, id_", [(0, ""), (1, "syn-001")])
    def test_bundle_ids_are_non_empty_and_unique(self, n, id_):
        raw = json.loads(bundled_scenario_path().read_text())
        raw["incidents"][n]["id"] = id_
        with pytest.raises(ValidationError, match=re.escape(
                f"scenario bundle incident #{n}: id {id_!r} must be non-empty and "
                f"unique in the season")):
            season_scenario(raw)

    def test_incident_is_frozen(self):
        inc = Incident(id="x", start_hour=0, ignition_xy=(1.0, 2.0))
        with pytest.raises(AttributeError):
            inc.start_hour = 5
