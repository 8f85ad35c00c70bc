"""Carbon accounting against brute-force cell enumeration and closed forms."""

from __future__ import annotations

import numpy as np
import pytest

from emberlink.carbon import (average_biomass, carbon_price, emission_tons,
                              savings)
from emberlink.envdata import BiomassGrid, EnvGrid, sample_env_many
from emberlink.errors import ValidationError


def brute_average(circle: tuple[float, float, float],
                  bio: BiomassGrid) -> float | None:
    cx, cy, r = circle
    vals = []
    for j in range(bio.ny):
        for i in range(bio.nx):
            x = bio.origin[0] + (i + 0.5) * bio.spacing_km
            y = bio.origin[1] + (j + 0.5) * bio.spacing_km
            if (x - cx) ** 2 + (y - cy) ** 2 <= r ** 2:
                vals.append(float(bio.values[j, i]))
    return sum(vals) / len(vals) if vals else None


def random_bio(seed: int, nx=15, ny=12, spacing=2.0, origin=(0.0, 0.0)) -> BiomassGrid:
    rng = np.random.default_rng(seed)
    return BiomassGrid(nx=nx, ny=ny, spacing_km=spacing,
                       values=rng.uniform(5.0, 90.0, size=(ny, nx)),
                       origin=origin)


class TestAverageBiomass:
    def test_matches_brute_force(self):
        bio = random_bio(4)
        rng = np.random.default_rng(11)
        for _ in range(60):
            c = (float(rng.uniform(0, 30)), float(rng.uniform(0, 24)),
                 float(rng.uniform(0.1, 12.0)))
            expected = brute_average(c, bio)
            got = average_biomass(c, bio)
            assert average_biomass(np.array(c), bio) == got  # a trajectory row
            if expected is not None:
                assert got == pytest.approx(expected, rel=1e-12)

    def test_tiny_circle_falls_back_to_center_cell(self):
        bio = random_bio(5)
        # circle radius smaller than any center distance, inside cell (3, 2)
        c = (6.1, 4.1, 0.05)
        assert average_biomass(c, bio) == float(bio.values[2, 3])

    def test_single_cell_circle(self):
        bio = random_bio(6)
        c = (3.0, 3.0, 0.1)  # exactly the center of cell (1, 1)
        assert average_biomass(c, bio) == float(bio.values[1, 1])

    def test_offset_origin(self):
        bio = random_bio(7, origin=(100.0, -50.0))
        c = (103.0, -47.0, 0.1)
        assert average_biomass(c, bio) == float(bio.values[1, 1])

    def test_circle_outside_grid_rejected(self):
        bio = random_bio(8)
        with pytest.raises(ValidationError):
            average_biomass((500.0, 500.0, 1.0), bio)

    def test_circle_touching_grid_from_outside_ok(self):
        bio = random_bio(9)  # rect 30 x 24
        # center beyond the edge but the disk reaches back onto the grid
        c = (33.0, 12.0, 5.0)
        expected = brute_average(c, bio)
        assert expected is not None
        assert average_biomass(c, bio) == pytest.approx(expected, rel=1e-12)


class TestNearestCellRule:
    def test_center_on_a_shared_edge_reads_the_lower_cell(self):
        bio = BiomassGrid(nx=2, ny=1, spacing_km=1.0, values=np.array([[10.0, 20.0]]))
        assert average_biomass((1.0, 0.5, 0.0), bio) == 10.0
        assert average_biomass((np.nextafter(1.0, 2.0), 0.5, 0.0), bio) == 20.0

    def test_tiny_circles_read_the_cell_env_sampling_reads(self):
        # the same geometry for both grids: every cell edge and corner, and
        # the rectangle's own edges, resolve to one cell
        nx, ny, sp, origin = 4, 3, 2.0, (1.0, -3.0)
        values = np.arange(nx * ny, dtype=float).reshape(ny, nx) + 1.0
        bio = BiomassGrid(nx=nx, ny=ny, spacing_km=sp, values=values, origin=origin)
        env = EnvGrid(nx=nx, ny=ny, nt=1, spacing_km=sp, origin=origin,
                      u10=values[None], v10=values[None], swvl1=np.zeros((1, ny, nx)))
        xs = origin[0] + sp * np.arange(nx + 1)
        ys = origin[1] + sp * np.arange(ny + 1)
        for x in xs:
            for y in ys:
                values, slot = sample_env_many(env, np.array([[x, y]]), 0)
                u = values[0, slot[0]]
                assert average_biomass((x, y, 0.0), bio) == u


class TestEmission:
    def test_closed_form(self):
        assert emission_tons(10.0, 50.0) == pytest.approx(10.0 * 1.2 * 50.0 * 100.0)

    def test_zero_area(self):
        assert emission_tons(0.0, 80.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            emission_tons(-1.0, 10.0)
        with pytest.raises(ValidationError):
            emission_tons(1.0, -10.0)

    def test_price(self):
        assert carbon_price(1000.0) == 20000.0
        assert carbon_price(1000.0, usd_per_ton=7.5) == 7500.0
        with pytest.raises(ValidationError):
            carbon_price(-1.0)


class TestSavings:
    def test_closed_form(self):
        net = savings(1000.0, 300.0, n_sensors=4, unit_cost_usd=50.0)
        assert type(net) is float
        assert net == pytest.approx(1000.0 - (300.0 + 200.0))

    def test_can_go_negative(self):
        assert savings(100.0, 90.0, n_sensors=100, unit_cost_usd=10.0) == (
            pytest.approx(-990.0))
