"""The one scalar range check, and every site that bounds a number with it."""

from __future__ import annotations

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from emberlink.carbon import carbon_price, emission_tons
from emberlink.cli import _check_flags, build_parser
from emberlink.config import SweepConfig
from emberlink.envdata import (CALIFORNIA, BiomassGrid, EnvGrid, Incident, Rect,
                               SynthSpec, check_grid, load_incidents, synth_biomass,
                               synth_env)
from emberlink.errors import ValidationError, check_range
from emberlink.evolution import EvolutionConfig, Frontier, circle_trajectory, prune
from emberlink.firekernel import SpreadParams, ellipse_terms
from emberlink.linkbudget import (PERIODIC_REPORT, TABLE1_10DEG, TbsMap, fspl_db,
                                  peak_rate_bps, supportable_sensors)
from emberlink.sensors import (SensorField, deploy_uniform, indices_within,
                               nearest_index_within)

INF = math.inf
FIELD = SensorField([[0.0, 0.0], [1.0, 1.0]])


class TestCheckRange:
    @pytest.mark.parametrize("value, kw", [
        (0, {}), (0.0, {}), (2.5, {}), (10 ** 400, {}), (np.float32(1.0), {}),
        (np.int64(3), {}), (1e-300, {"above": True}), (1, {"lo": 1}),
        (INF, {"finite": False}), (-1e308, {"lo": -INF}), (3, {"integer": True}),
        (np.int64(3), {"integer": True}), (2 ** 64, {"lo": 1, "integer": True}),
    ])
    def test_accepts(self, value, kw):
        check_range("x", value, **kw)

    @pytest.mark.parametrize("value, kw, message", [
        (math.nan, {}, "x must be finite and >= 0, got nan"),
        (-1, {}, "x must be finite and >= 0, got -1"),
        (INF, {}, "x must be finite and >= 0, got inf"),
        (0.0, {"above": True}, "x must be finite and > 0, got 0.0"),
        (0, {"lo": 1, "finite": False}, "x must be >= 1, got 0"),
        (math.nan, {"finite": False}, "x must be >= 0, got nan"),
        (-INF, {"lo": -INF}, "x must be finite, got -inf"),
        (INF, {"lo": -INF}, "x must be finite, got inf"),
        (math.nan, {"lo": -INF}, "x must be finite, got nan"),
        ("1", {}, "x must be finite and >= 0, got '1'"),
        (True, {}, "x must be finite and >= 0, got True"),
        (None, {"finite": False}, "x must be >= 0, got None"),
        (1j, {}, "x must be finite and >= 0, got 1j"),
        (2.0, {"integer": True}, "x must be an integer >= 0, got 2.0"),
        (-1, {"integer": True}, "x must be an integer >= 0, got -1"),
        (INF, {"lo": 1, "integer": True}, "x must be an integer >= 1, got inf"),
        (True, {"integer": True}, "x must be an integer >= 0, got True"),
    ])
    def test_rejects_naming_the_field(self, value, kw, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            check_range("x", value, **kw)


def _incident_row(value, tmp_path):
    shape = (2, 11, 10)  # 1000 x 1100 km: all of California
    grid = EnvGrid(nx=10, ny=11, nt=2, spacing_km=100.0, origin=(0.0, 0.0),
                   u10=np.zeros(shape), v10=np.zeros(shape), swvl1=np.zeros(shape))
    path = tmp_path / "fires.csv"
    path.write_text("id,start_iso8601,contained_iso8601,lat_deg,lon_deg,area_acre\n"
                    f"f1,2020-01-01T00:00:00,,36.0,-120.0,{value}\n")
    return load_incidents(path, CALIFORNIA, grid)


def _flag(name, value):
    argv = {"workers": ["sweep"],
            "deploy": ["simulate", "--incident", "a", "--deploy", "1"]}[name]
    args = build_parser().parse_args(argv)
    setattr(args, name, value)
    _check_flags(args)


# every site that bounds a number, as (field its messages name, lower
# bound, above, finite, call with the value in place)
BOUND_SITES = {
    **{f"SpreadParams.{f.name}": (
        f.name, 0, f.name in ("wetness_cutoff", "wind_sq_scale"), True,
        lambda v, tmp_path, name=f.name: SpreadParams(**{name: v}))
       for f in fields(SpreadParams)},
    "ellipse_terms dt_s": ("dt_s", 0, True, True, lambda v, tmp_path: ellipse_terms(
        [1.0], [0.0], [0.0], v)),
    "EvolutionConfig.snap_km": ("snap_km", 0, False, True,
                                lambda v, tmp_path: EvolutionConfig(snap_km=v)),
    "EvolutionConfig.max_hours": ("max_hours", 0, False, False,
                                  lambda v, tmp_path: EvolutionConfig(max_hours=v)),
    "prune snap_km": ("snap_km", 0, False, True, lambda v, tmp_path: prune(
        Frontier(points=np.zeros((2, 2))), v)),
    "indices_within radius": ("radius", 0, False, True,
                              lambda v, tmp_path: indices_within(FIELD, (0.0, 0.0), v)),
    "nearest_index_within radius": ("radius", 0, False, True, lambda v, tmp_path:
                                    nearest_index_within(FIELD, (0.0, 0.0), v)),
    "indices_within center x": ("center", -INF, False, True,
                                lambda v, tmp_path: indices_within(FIELD, (v, 0.0), 1.0)),
    "nearest_index_within center y": ("center", -INF, False, True, lambda v, tmp_path:
                                      nearest_index_within(FIELD, (0.0, v), 1.0)),
    "deploy_uniform count": ("sensor count", 0, False, False, lambda v, tmp_path:
                             deploy_uniform(v, Rect(0.0, 0.0, 1.0, 1.0), 0)),
    "emission_tons area_km2": ("area_km2", 0, False, True,
                               lambda v, tmp_path: emission_tons(v, 1.0)),
    "emission_tons b_avg": ("b_avg", 0, False, True,
                            lambda v, tmp_path: emission_tons(1.0, v)),
    "carbon_price tons": ("tons", 0, False, True, lambda v, tmp_path: carbon_price(v)),
    "carbon_price usd_per_ton": ("usd_per_ton", 0, False, True,
                                 lambda v, tmp_path: carbon_price(1.0, v)),
    "SweepConfig.sensor_counts": ("sensor_counts", 0, False, False,
                                  lambda v, tmp_path: SweepConfig(sensor_counts=(v,))),
    "SweepConfig.trials": ("trials", 1, False, False,
                           lambda v, tmp_path: SweepConfig(sensor_counts=(1,), trials=v)),
    **{f"SweepConfig.{name}": (name, 0, False, finite, lambda v, tmp_path, name=name:
                               SweepConfig(sensor_counts=(1,), **{name: v}))
       for name, finite in (("usd_per_ton", True), ("cap_hours", False))},
    "SweepConfig.unit_sensor_cost_usd": ("unit_sensor_cost_usd", 0, False, True,
                                         lambda v, tmp_path: SweepConfig(
                                             sensor_counts=(1,), unit_sensor_cost_usd=(1.0, v))),
    **{f"LinkParams.{f.name}": (
        f.name, -INF if f.name in ("eirp_dbm", "g_over_t_db_k") else 0,
        f.name in ("bandwidth_hz", "freq_mhz", "distance_km"), True,
        lambda v, tmp_path, name=f.name: replace(TABLE1_10DEG, **{name: v}))
       for f in fields(TABLE1_10DEG)},
    **{f"TrafficModel.{name}": (name, 0, True, True, lambda v, tmp_path, name=name:
                                replace(PERIODIC_REPORT, **{name: v}))
       for name in ("reports_per_day", "payload_bytes")},
    "fspl_db distance_km": ("distance_km", 0, True, True,
                            lambda v, tmp_path: fspl_db(v, 1500.0)),
    "fspl_db freq_mhz": ("freq_mhz", 0, True, True, lambda v, tmp_path: fspl_db(1.0, v)),
    "peak_rate_bps bits_ru": ("bits_ru", 0, False, False,
                              lambda v, tmp_path: peak_rate_bps(v)),
    **{f"peak_rate_bps {name}": (name, 0, True, True, lambda v, tmp_path, name=name:
                                 peak_rate_bps(144, **{name: v}))
       for name in ("system_bw_hz", "subcarrier_hz", "ru_duration_s")},
    "supportable_sensors per_sensor": ("per_sensor", 0, True, True,
                                       lambda v, tmp_path: supportable_sensors(1.0, v)),
    "supportable_sensors peak_bps": ("peak_bps", 0, False, True,
                                     lambda v, tmp_path: supportable_sensors(v, 1.0)),
    **{f"GeoTransform.{name}": (name, 0, True, True, lambda v, tmp_path, name=name:
                                replace(CALIFORNIA, **{name: v}))
       for name in ("width_km", "height_km")},
    **{f"GeoTransform.{name}": (name, -INF, False, True, lambda v, tmp_path, name=name:
                                replace(CALIFORNIA, **{name: v}))
       for name in ("lat_min", "lat_max", "lon_min", "lon_max")},
    "check_grid dims": ("grid nx", 1, False, False,
                        lambda v, tmp_path: check_grid("grid", 1.0, (0.0, 0.0), nx=v)),
    "check_grid spacing_km": ("grid spacing_km", 0, True, True,
                              lambda v, tmp_path: check_grid("grid", v, (0.0, 0.0))),
    "check_grid origin": ("grid origin", -INF, False, True,
                          lambda v, tmp_path: check_grid("grid", 1.0, (0.0, v))),
    "synth_biomass lo": ("biomass lo", 0, False, True,
                         lambda v, tmp_path: synth_biomass(2, 2, 1.0, v, 5.0, 0)),
    "synth_biomass hi": ("biomass hi", 1.0, False, True,
                         lambda v, tmp_path: synth_biomass(2, 2, 1.0, 1.0, v, 0)),
    "load_incidents area_acre": ("area_acre", 0, False, True, _incident_row),
    "--workers": ("--workers", 1, False, False, lambda v, tmp_path: _flag("workers", v)),
    "--deploy": ("--deploy", 0, False, False, lambda v, tmp_path: _flag("deploy", v)),
}


def _bad_values(lo, above, finite):
    """NaN, a string, the values just past the bound, and the infinities a
    finite site refuses."""
    bad = [math.nan, "x"]
    if lo > -INF:
        bad += [lo - 1, -INF]
        if above:
            bad.append(lo)
    if finite:
        bad += [INF] + ([-INF] if lo == -INF else [])
    return bad


class TestOneBoundCheck:
    @pytest.mark.parametrize("site", BOUND_SITES)
    def test_every_site_rejects_naming_its_field(self, tmp_path, site):
        field, lo, above, finite, call = BOUND_SITES[site]
        for value in _bad_values(lo, above, finite):
            with pytest.raises(ValidationError, match=re.escape(field)):
                call(value, tmp_path)

    @pytest.mark.parametrize("site", BOUND_SITES)
    def test_the_bound_itself_is_inside_unless_strict(self, tmp_path, site):
        field, lo, above, finite, call = BOUND_SITES[site]
        value = -1.0 if lo == -INF else lo + 0.5 if above else lo
        try:
            call(value, tmp_path)
        except ValidationError as exc:  # another check may refuse the value
            assert not re.search(re.escape(field) + " must be (finite|>)", str(exc))


def _env_grid(dim, v):
    """A 2 x 2 cell grid of 2 hours, but for dimension dim, which is v
    (arrays sized 3 along it)."""
    dims = {"nx": 2, "ny": 2, "nt": 2, dim: v}
    shape = tuple(3 if name == dim else 2 for name in ("nt", "ny", "nx"))
    return EnvGrid(**dims, spacing_km=1.0, origin=(0.0, 0.0), u10=np.zeros(shape),
                   v10=np.zeros(shape), swvl1=np.zeros(shape))


def _biomass_grid(dim, v):
    dims = {"nx": 2, "ny": 2, dim: v}
    shape = tuple(3 if name == dim else 2 for name in ("ny", "nx"))
    return BiomassGrid(**dims, spacing_km=1.0, values=np.ones(shape))


def _start_hour(v):
    env = synth_env(SynthSpec(nx=2, ny=2, nt=5, spacing_km=1.0, u10=1.0, swvl1=0.1), 0)
    return circle_trajectory(Incident("a", v, (1.0, 1.0)), env, EvolutionConfig(max_hours=1.0))


# every integer input, as (name its messages give, call with the value in place)
INTEGER_INPUTS = {
    "deploy_uniform count": ("sensor count", lambda v: deploy_uniform(v, Rect(0, 0, 1, 1), 0)),
    "SensorField.drawn": ("sensor field drawn", lambda v: SensorField(
        [[0.0, 0.0]], ids=np.array([0]), drawn=v)),
    "SensorField.seed": ("sensor field seed", lambda v: SensorField([[0.0, 0.0]], seed=v)),
    "synth_env seed": ("synth_env seed", lambda v: synth_env(
        SynthSpec(nx=2, ny=2, nt=2, spacing_km=1.0, mode="random"), v)),
    "synth_biomass seed": ("synth_biomass seed",
                           lambda v: synth_biomass(4, 4, 1.0, 0.0, 1.0, v)),
    "deploy_uniform seed": ("deploy_uniform seed",
                            lambda v: deploy_uniform(10, Rect(0, 0, 1, 1), v)),
    **{f"EnvGrid.{dim}": (f"env grid {dim}", lambda v, dim=dim: _env_grid(dim, v))
       for dim in ("nx", "ny", "nt")},
    **{f"BiomassGrid.{dim}": (f"biomass {dim}", lambda v, dim=dim: _biomass_grid(dim, v))
       for dim in ("nx", "ny")},
    **{f"synth_biomass {dim}": (f"biomass {dim}", lambda v, dim=dim: synth_biomass(
        **{"nx": 2, "ny": 2, dim: v}, spacing_km=1.0, lo=0.0, hi=1.0, seed=0))
       for dim in ("nx", "ny")},
    "Incident.start_hour": ("start_hour", _start_hour),
    "TbsMap bits_per_ru": ("bits_per_ru", lambda v: TbsMap([(8.0, v)])),
    "peak_rate_bps bits_ru": ("bits_ru", peak_rate_bps),
    "SweepConfig.sensor_counts": ("sensor_counts", lambda v: SweepConfig(sensor_counts=(v,))),
    "SweepConfig.trials": ("trials", lambda v: SweepConfig(sensor_counts=(1,), trials=v)),
    "SweepConfig.base_seed": ("base_seed",
                              lambda v: SweepConfig(sensor_counts=(1,), base_seed=v)),
    "--workers": ("--workers", lambda v: _flag("workers", v)),
    "--deploy": ("--deploy", lambda v: _flag("deploy", v)),
}


class TestOneIntegerRule:
    @pytest.mark.parametrize("value", [2.0, 2.5, True, "3", math.nan, INF, -1])
    @pytest.mark.parametrize("site", INTEGER_INPUTS)
    def test_every_input_refuses_what_is_not_an_integer_in_range(self, site, value):
        name, call = INTEGER_INPUTS[site]
        with pytest.raises(ValidationError, match=re.escape(name)):
            call(value)

    @pytest.mark.parametrize("value", [3, np.int64(3)])
    @pytest.mark.parametrize("site", INTEGER_INPUTS)
    def test_every_input_takes_python_and_numpy_integers(self, site, value):
        INTEGER_INPUTS[site][1](value)
