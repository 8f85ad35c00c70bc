"""Grids, geo mapping, synthesis, raster IO, and incident parsing."""

from __future__ import annotations

import json

import numpy as np
import pytest

from emberlink.envdata import (CALIFORNIA, BiomassGrid, EnvGrid, GeoTransform,
                               Incident, Rect, SynthSpec,
                               check_biomass_alignment, geo_to_planar,
                               load_biomass, load_env_grid, load_incidents,
                               sample_env_many, save_biomass,
                               save_env_grid, synth_biomass, synth_env)
from emberlink.errors import ValidationError


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

    def test_rect(self):
        g = tiny_grid()
        assert g.rect == Rect(0.0, 0.0, 40.0, 30.0)

    def test_negative_biomass_rejected(self):
        with pytest.raises(ValidationError):
            BiomassGrid(nx=2, ny=2, spacing_km=1.0, values=np.full((2, 2), -1.0))


def sample_one(grid, xy, t):
    """(u10, v10, swvl1) at one position, through a one-point batch."""
    u, v, s = sample_env_many(grid, np.array([xy], dtype=float), t)
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
        u, v, s = sample_env_many(g, pts, 1)
        for i, xy in enumerate(pts):
            ix, iy = int(xy[0] // 10.0), int(xy[1] // 10.0)
            assert (u[i], v[i], s[i]) == sample_one(g, (xy[0], xy[1]), 1)
            assert (u[i], v[i], s[i]) == (g.u10[1, iy, ix], g.v10[1, iy, ix],
                                          g.swvl1[1, iy, ix])

    def test_many_clamp_uses_edge_cell(self):
        g = tiny_grid()
        u, _, _ = sample_env_many(g, np.array([[-5.0, 500.0]]), 0)
        assert u[0] == float(g.u10[0, g.ny - 1, 0])


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
        spec = SynthSpec(nx=2, ny=2, nt=6, spacing_km=5.0, mode="schedule",
                         schedule=[(1, 5.0, 0.0, 0.1)])
        with pytest.raises(ValidationError):
            synth_env(spec, 0)

    def test_biomass_deterministic_and_in_range(self):
        a = synth_biomass(nx=8, ny=6, spacing_km=5.0, lo=20.0, hi=80.0, seed=9)
        b = synth_biomass(nx=8, ny=6, spacing_km=5.0, lo=20.0, hi=80.0, seed=9)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values.min() >= 20.0 and a.values.max() <= 80.0

    def test_spec_from_dict_rejects_unknown(self):
        with pytest.raises(ValidationError):
            SynthSpec.from_dict({"nx": 2, "ny": 2, "nt": 1, "spacing_km": 1.0,
                                 "mode": "random", "bogus": 1})


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

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValidationError):
            load_env_grid(tmp_path / "nope.json")

    def test_truncated_raster_rejected(self, tmp_path):
        g = synth_env(SynthSpec(nx=5, ny=4, nt=3, spacing_km=2.0,
                                mode="constant"), 7)
        man = save_env_grid(g, tmp_path / "env.json")
        raster = json.loads(man.read_text())["files"]["u10"]
        p = tmp_path / raster
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValidationError):
            load_env_grid(man)


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

    def test_missing_column(self, tmp_path):
        p = tmp_path / "fires.csv"
        p.write_text("id,start_iso8601,lat_deg\nf1,2020-01-01T00:00:00,36.0\n")
        with pytest.raises(ValidationError):
            load_incidents(p, CALIFORNIA, self.big_grid())

    def test_incident_is_frozen(self):
        inc = Incident(id="x", start_hour=0, ignition_xy=(1.0, 2.0))
        with pytest.raises(AttributeError):
            inc.start_hour = 5
