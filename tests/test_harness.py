"""Sweeps, their baselines, and their file outputs."""

from __future__ import annotations

import json
import math
import os
import re
import threading
from dataclasses import asdict, replace

import numpy as np
import pytest

from emberlink.carbon import average_biomass, carbon_price, emission_tons
from emberlink.cli import build_parser, load_config, main
from emberlink.config import evolution_config, sweep_config
from emberlink.envdata import Incident, SynthSpec, synth_biomass, synth_env
from emberlink.errors import ValidationError
from emberlink.evolution import (EvolutionConfig, circle_trajectory,
                                 simulate_incident)
from emberlink.harness import (SweepConfig, atomic_write_text, baseline_totals,
                               bundled_scenario_path, load_season_bundle,
                               sweep, write_manifest, write_summary_csv,
                               write_sweep_csv)
from emberlink.sensors import SensorField, deploy_uniform


def small_scenario():
    spec = SynthSpec(nx=8, ny=8, nt=48, spacing_km=25.0, mode="random",
                     u10_range=(10.0, 30.0), v10_range=(-8.0, 8.0),
                     swvl1_range=(0.0, 0.1), coarse_nx=3, coarse_ny=3,
                     coarse_nt=4)
    env = synth_env(spec, 12)
    bio = synth_biomass(nx=16, ny=16, spacing_km=12.5, lo=20.0, hi=80.0, seed=6)
    rng = np.random.default_rng(2)
    incidents = [Incident(id=f"i{k}", start_hour=int(rng.integers(0, 24)),
                          ignition_xy=(float(rng.uniform(40, 160)),
                                       float(rng.uniform(40, 160))))
                 for k in range(6)]
    return incidents, env, bio


EVO = EvolutionConfig(snap_km=0.05, max_hours=12.0)


def manual_season(incidents, env, bio, field_):
    """Season totals of the plain incident-order simulate_incident loop."""
    hours = 0.0
    area = 0.0
    tons = 0.0
    detected = 0
    for inc in incidents:
        r = simulate_incident(inc, env, field_, EVO)
        hours += r.burned_hours
        area += r.burned_area_km2
        tons += emission_tons(r.burned_area_km2, average_biomass(r.circle, bio))
        detected += int(r.detected)
    return {"burned_hours": hours, "burned_area_km2": area, "carbon_tons": tons,
            "carbon_price_usd": carbon_price(tons, 20.0),
            "n_incidents": len(incidents), "n_detected": detected}


def one_row_sweep(incidents, env, bio, count, seed):
    """sweep at one count and one trial, to EVO's horizon."""
    cfg = SweepConfig(sensor_counts=(count,), trials=1, base_seed=seed,
                      cap_hours=EVO.max_hours, usd_per_ton=20.0)
    rows, _, manifest = sweep(incidents, env, bio, cfg, evolution=EVO)
    assert len(rows) == 1
    return rows[0], manifest


class TestRunSeason:
    """A season's totals, as sweep computes them for one (count, trial)."""

    def test_totals_match_manual_loop(self):
        incidents, env, bio = small_scenario()
        row, manifest = one_row_sweep(incidents, env, bio, 20000, seed=4)
        assert manifest["n_incidents"] == len(incidents)
        manual = manual_season(incidents, env, bio,
                               deploy_uniform(20000, env.rect, seed=4))
        assert manual["n_detected"] > 0
        assert row.burned_hours == manual["burned_hours"]
        assert row.burned_area_km2 == manual["burned_area_km2"]
        assert row.carbon_tons == manual["carbon_tons"]
        assert row.carbon_price_usd == manual["carbon_price_usd"]

    def test_detected_count(self):
        incidents, env, bio = small_scenario()
        _, manifest = one_row_sweep(incidents, env, bio, 0, seed=4)
        assert manifest["baseline"]["n_detected"] == 0
        assert manifest["baseline"]["n_incidents"] == len(incidents)


class TestBaselines:
    def test_historical_sums_file_columns(self):
        incidents = [
            Incident(id="a", start_hour=0, ignition_xy=(1.0, 1.0),
                     historical_burn_hours=10.5, historical_area_km2=3.25),
            Incident(id="b", start_hour=5, ignition_xy=(2.0, 2.0),
                     historical_burn_hours=4.25, historical_area_km2=1.5),
        ]
        bio = synth_biomass(nx=4, ny=4, spacing_km=10.0, lo=30.0, hi=30.0, seed=0)
        totals = baseline_totals(incidents, None, bio, "historical", EVO)
        assert totals.burned_hours == 14.75
        assert totals.burned_area_km2 == 4.75
        assert totals.carbon_tons == pytest.approx(
            emission_tons(4.75, float(bio.values.mean())))

    def test_historical_requires_both_columns(self):
        incidents = [Incident(id="a", start_hour=0, ignition_xy=(1.0, 1.0))]
        bio = synth_biomass(nx=4, ny=4, spacing_km=10.0, lo=1, hi=2, seed=0)
        with pytest.raises(ValidationError):
            baseline_totals(incidents, None, bio, "historical", EVO)

    def test_zero_sensor_equals_empty_field_season(self):
        incidents, env, bio = small_scenario()
        direct = manual_season(incidents, env, bio, SensorField(positions=[]))
        _, manifest = one_row_sweep(incidents, env, bio, 0, seed=4)
        assert manifest["baseline"] == direct
        trajectories = [circle_trajectory(inc, env, EVO) for inc in incidents]
        totals = baseline_totals(incidents, trajectories, bio,
                                 "simulated-zero-sensor", EVO)
        assert asdict(totals) == direct

    def test_zero_sensor_needs_env(self):
        # the zero-sensor baseline replays trajectories grown on the env grid
        incidents, _, bio = small_scenario()
        with pytest.raises(ValidationError):
            baseline_totals(incidents, None, bio, "simulated-zero-sensor", EVO)


class TestSweep:
    CFG = SweepConfig(sensor_counts=(50, 500), trials=3, base_seed=9,
                      cap_hours=10.0, unit_sensor_cost_usd=(10.0, 100.0))

    def test_shape_and_savings_arithmetic(self):
        incidents, env, bio = small_scenario()
        rows, summary, manifest = sweep(incidents, env, bio, self.CFG,
                                        evolution=EVO)
        assert len(rows) == 2 * 3
        assert [s.n_sensors for s in summary] == [50, 500]
        base_price = manifest["baseline"]["carbon_price_usd"]
        for r in rows:
            for cost, sav in zip(self.CFG.unit_sensor_cost_usd, r.savings_usd):
                assert sav == pytest.approx(
                    base_price - (r.carbon_price_usd + r.n_sensors * cost))
        for s in summary:
            group = [r for r in rows if r.n_sensors == s.n_sensors]
            assert s.burned_hours == pytest.approx(
                sum(r.burned_hours for r in group) / len(group))

    def test_deterministic_and_worker_invariant(self):
        incidents, env, bio = small_scenario()
        a = sweep(incidents, env, bio, self.CFG, evolution=EVO, workers=1)
        b = sweep(incidents, env, bio, self.CFG, evolution=EVO, workers=3)
        assert a[0] == b[0] and a[1] == b[1]
        assert a[2]["workers"] == 1
        assert b[2]["workers"] == min(3, len(incidents), os.cpu_count() or 1)

    def test_per_trial_detection_is_monotone_in_count(self):
        # deployments of one seed share a prefix, so more sensors can only
        # detect sooner
        incidents, env, bio = small_scenario()
        rows, _, _ = sweep(incidents, env, bio, self.CFG, evolution=EVO)
        by_trial = {}
        for r in rows:
            by_trial.setdefault(r.trial, {})[r.n_sensors] = r.burned_hours
        for d in by_trial.values():
            assert d[50] >= d[500]

    def test_manifest_contents(self):
        incidents, env, bio = small_scenario()
        _, _, manifest = sweep(incidents, env, bio, self.CFG, evolution=EVO)
        assert manifest["sweep"]["sensor_counts"] == [50, 500] or \
            manifest["sweep"]["sensor_counts"] == (50, 500)
        assert manifest["deployment_seeds"] == [9, 10, 11]
        assert manifest["evolution"]["max_hours"] == 10.0  # cap overrides
        assert manifest["n_incidents"] == len(incidents)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SweepConfig(sensor_counts=())
        with pytest.raises(ValidationError):
            SweepConfig(sensor_counts=(100, 50))
        with pytest.raises(ValidationError):
            SweepConfig(sensor_counts=(50,), trials=0)
        with pytest.raises(ValidationError):
            SweepConfig(sensor_counts=(50,), baseline="bogus")
        with pytest.raises(ValidationError, match="base_seed"):
            SweepConfig(sensor_counts=(50,), base_seed=-1)

    @pytest.mark.parametrize("field, bad", [
        ("trials", math.nan), ("base_seed", math.nan), ("cap_hours", math.nan),
        ("usd_per_ton", math.nan), ("usd_per_ton", math.inf),
        ("usd_per_ton", -1.0), ("unit_sensor_cost_usd", (10.0, math.nan)),
        ("unit_sensor_cost_usd", (math.inf,)), ("unit_sensor_cost_usd", (-5.0,)),
    ])
    def test_non_finite_config_rejected(self, field, bad):
        with pytest.raises(ValidationError, match=field):
            SweepConfig(sensor_counts=(50,), **{field: bad})

    @pytest.mark.parametrize("field, bad", [
        ("sensor_counts", (10.7,)), ("sensor_counts", (10, 20.0)),
        ("sensor_counts", (True,)), ("trials", 2.5), ("trials", 2.0),
        ("trials", True), ("base_seed", 1.5), ("base_seed", False),
    ])
    def test_non_integral_count_rejected(self, field, bad):
        with pytest.raises(ValidationError, match=field):
            SweepConfig(**{"sensor_counts": (50,), field: bad})

    def test_numpy_integers_accepted(self):
        cfg = SweepConfig(sensor_counts=np.array([5, 10]), trials=np.int64(3),
                          base_seed=np.int32(2))
        assert cfg.sensor_counts == (5, 10)
        assert (cfg.trials, cfg.base_seed) == (3, 2)
        assert all(type(v) is int for v in (*cfg.sensor_counts, cfg.trials,
                                            cfg.base_seed))
        json.dumps(asdict(cfg))  # the manifest takes it as is


class TestOutputs:
    def test_atomic_write(self, tmp_path):
        p = tmp_path / "deep" / "file.txt"
        atomic_write_text(p, "hello")
        assert p.read_text() == "hello"
        assert list(p.parent.iterdir()) == [p]

    def test_concurrent_writers_leave_one_complete_file(self, tmp_path):
        p = tmp_path / "file.txt"
        texts = [str(k) * 200_000 for k in range(4)]
        errors = []

        def write(text):
            try:
                for _ in range(20):
                    atomic_write_text(p, text)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(t,)) for t in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert errors == []
        assert p.read_text() in texts
        assert list(tmp_path.iterdir()) == [p]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        p = tmp_path / "file.txt"
        with pytest.raises(TypeError):
            atomic_write_text(p, b"not text")
        assert list(tmp_path.iterdir()) == []

    def test_csv_round_trip_exact(self, tmp_path):
        incidents, env, bio = small_scenario()
        cfg = SweepConfig(sensor_counts=(50,), trials=2, base_seed=1,
                          cap_hours=8.0, unit_sensor_cost_usd=(10.0,))
        rows, summary, _ = sweep(incidents, env, bio, cfg, evolution=EVO)
        rp = write_sweep_csv(rows, cfg.unit_sensor_cost_usd, tmp_path / "rows.csv")
        lines = rp.read_text().splitlines()
        assert lines[0] == ("n_sensors,trial,burned_hours,burned_area_km2,"
                            "carbon_tons,carbon_price_usd,savings_usd@cost10")
        cells = lines[1].split(",")
        assert int(cells[0]) == rows[0].n_sensors
        assert float(cells[2]) == rows[0].burned_hours  # repr round-trips
        assert float(cells[6]) == rows[0].savings_usd[0]
        sp = write_summary_csv(summary, cfg.unit_sensor_cost_usd,
                               tmp_path / "sum.csv")
        head = sp.read_text().splitlines()[0]
        assert head.startswith("n_sensors,mean_burned_hours")

    def test_manifest_is_json(self, tmp_path):
        p = write_manifest({"a": 1, "b": [1, 2]}, tmp_path / "m.json")
        assert json.loads(p.read_text()) == {"a": 1, "b": [1, 2]}


class TestBundle:
    def test_bundle_loads(self):
        incidents, env, bio, swp, evo = load_season_bundle(bundled_scenario_path())
        assert len(incidents) == 50
        assert (env.nx, env.ny, env.nt) == (101, 111, 720)
        assert swp.sensor_counts == (10000, 100000, 1000000)
        assert swp.trials == 30
        assert evo == EvolutionConfig(snap_km=0.05, max_hours=72.0)
        for inc in incidents:
            assert env.rect.contains(inc.ignition_xy)
            assert 0 <= inc.start_hour < env.nt

    def test_bundle_is_deterministic(self):
        a = load_season_bundle(bundled_scenario_path())
        b = load_season_bundle(bundled_scenario_path())
        np.testing.assert_array_equal(a[1].u10, b[1].u10)
        np.testing.assert_array_equal(a[2].values, b[2].values)

    def test_missing_field_rejected(self, tmp_path):
        raw = json.loads(bundled_scenario_path().read_text())
        del raw["env_seed"]
        p = tmp_path / "bundle.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValidationError):
            load_season_bundle(p)

    def test_bad_incident_rejected(self, tmp_path):
        raw = json.loads(bundled_scenario_path().read_text())
        raw["incidents"][0]["x_km"] = 1e6
        p = tmp_path / "bundle.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValidationError):
            load_season_bundle(p)

    @staticmethod
    def edited_bundle(tmp_path, **sections):
        """A copy of the bundled season with keys of its sections replaced."""
        raw = json.loads(bundled_scenario_path().read_text())
        for section, values in sections.items():
            raw[section] = ({**raw[section], **values}
                            if isinstance(values, dict) else values)
        p = tmp_path / "bundle.json"
        p.write_text(json.dumps(raw))
        return p

    @pytest.mark.parametrize("sections", [
        {},
        {"sweep": {"trials": 3, "cap_hours": 5.0, "baseline": "historical"}},
        {"sweep": {"sensor_counts": [7], "usd_per_ton": 35},
         "evolution": {"snap_km": 0.1, "max_hours": 5.0}},
    ])
    def test_configs_match_the_cli(self, tmp_path, sections):
        p = self.edited_bundle(tmp_path, **sections)
        *_, swp, evo = load_season_bundle(p)
        args = build_parser().parse_args(
            ["--set", f"paths.scenario_bundle={p}", "sweep"])
        config, _ = load_config(args)
        assert swp == sweep_config(config)
        assert evo == evolution_config(config)

    def test_configs_match_a_cli_run(self, tmp_path):
        p = self.edited_bundle(tmp_path, sweep={
            "sensor_counts": [10, 20], "trials": 2, "cap_hours": 2.0},
            evolution={"snap_km": 0.1})
        *_, swp, evo = load_season_bundle(p)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "--set", f"paths.scenario_bundle={p}",
                     "sweep"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        expected = {"sweep": asdict(swp),
                    "evolution": asdict(replace(evo, max_hours=swp.cap_hours))}
        assert {k: manifest[k] for k in expected} == json.loads(json.dumps(expected))

    @pytest.mark.parametrize("sections, key", [
        ({"sweep": {"trials": True}}, "sweep.trials"),
        ({"sweep": {"sensor_counts": [10.7]}}, "sweep.sensor_counts"),
        ({"evolution": {"params": {"u_max_ms": 0.5}}}, "evolution.params"),
        ({"sweep": {"bogus": 1}}, "sweep.bogus"),
        ({"sweep": 5}, "sweep"),
        ({"evolution": {"dt_s": 3600.0}}, "evolution.dt_s"),
        ({"evolution": {"margin_km": 0.0}}, "evolution.margin_km"),
        ({"evolution": {"detect_at_ignition": True}}, "evolution.detect_at_ignition"),
    ])
    def test_bad_config_section_rejected(self, tmp_path, sections, key):
        p = self.edited_bundle(tmp_path, **sections)
        with pytest.raises(ValidationError, match=re.escape(f"'{key}'")):
            load_season_bundle(p)
