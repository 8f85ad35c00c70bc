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

from emberlink import evolution, harness
from emberlink.carbon import (average_biomass, carbon_price, emission_tons,
                             savings)
from emberlink.cli import build_parser, load_config, main
from emberlink.config import evolution_config, sweep_config
from emberlink.envdata import (Incident, Rect, SynthSpec, json_text, save_biomass,
                               save_env_grid, synth_biomass, synth_env, write_json)
from emberlink.errors import ValidationError
from emberlink.evolution import (EvolutionConfig, circle_trajectory,
                                 replay_detection, screen_disk, undetected_hours)
from emberlink.harness import (SeasonTable, SweepConfig, baseline_totals,
                               bundled_scenario_path, load_season_bundle,
                               sweep, write_manifest, write_summary_csv,
                               write_sweep_csv)
from emberlink.sensors import SensorField, deploy_uniform, save_sensors


def small_scenario(n_incidents=6):
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
                 for k in range(n_incidents)]
    return incidents, env, bio


EVO = EvolutionConfig(snap_km=0.05, max_hours=12.0)


def manual_season(incidents, env, bio, field_, trajectories=None):
    """Season totals of the plain incident-order evolve-then-replay loop."""
    if trajectories is None:
        trajectories = [circle_trajectory(inc, env, EVO) for inc in incidents]
    hours = 0.0
    area = 0.0
    tons = 0.0
    detected = 0
    for inc, circles in zip(incidents, trajectories, strict=True):
        [k], [sensor] = (a.tolist() for a in replay_detection(
            circles, screen_disk(circles), field_, (len(field_),)))
        circle = tuple(circles[k].tolist())
        burned = math.pi * circle[2] * circle[2]
        hours += undetected_hours(inc, circles, EVO) if sensor < 0 else float(k)
        area += burned
        tons += emission_tons(burned, average_biomass(circle, bio))
        detected += sensor >= 0
    return {"burned_hours": hours, "burned_area_km2": area, "carbon_tons": tons,
            "carbon_price_usd": carbon_price(tons, 20.0),
            "n_incidents": len(incidents), "n_detected": detected}


def bits(rows):
    """Rows with every number as its repr, so == compares floats bit for
    bit (-0.0 included)."""
    return [tuple(map(repr, row)) for row in rows]


def one_row_sweep(incidents, env, bio, count, seed):
    """The manifest of a sweep at one count and one trial, to EVO's horizon."""
    cfg = SweepConfig(sensor_counts=(count,), trials=1, base_seed=seed,
                      cap_hours=EVO.max_hours, usd_per_ton=20.0)
    rows, _, manifest = sweep(incidents, env, bio, cfg, evolution=EVO)
    assert len(rows) == 1
    return manifest


class TestRunSeason:
    """A season's totals, as sweep computes them for each (count, trial)."""

    CFG = SweepConfig(sensor_counts=(0, 50, 2000, 20000), trials=3, base_seed=4,
                      cap_hours=EVO.max_hours, usd_per_ton=20.0,
                      unit_sensor_cost_usd=(10.0, 0.5, 100.0))

    def test_totals_match_manual_loop(self):
        # each (count, trial) row and each count's mean, savings included,
        # bit for bit against scalar += loops over the incidents and trials
        incidents, env, bio = small_scenario(11)
        cfg = self.CFG
        rows, summary, manifest = sweep(incidents, env, bio, cfg, evolution=EVO)
        assert manifest["n_incidents"] == len(incidents)
        trajectories = [circle_trajectory(inc, env, EVO) for inc in incidents]
        base = manual_season(incidents, env, bio, SensorField(positions=[]),
                             trajectories)
        assert manifest["baseline"] == base
        expected, detected = [], 0
        for n in cfg.sensor_counts:
            for trial in range(cfg.trials):
                manual = manual_season(
                    incidents, env, bio,
                    deploy_uniform(n, env.rect, seed=cfg.base_seed + trial),
                    trajectories)
                detected += manual["n_detected"]
                price = manual["carbon_price_usd"]
                expected.append((n, trial, manual["burned_hours"],
                                 manual["burned_area_km2"], manual["carbon_tons"],
                                 price, *(savings(base["carbon_price_usd"], price,
                                                  n, c)
                                          for c in cfg.unit_sensor_cost_usd)))
        assert detected > 0
        assert bits(rows) == bits(expected)
        means = []
        for j, n in enumerate(cfg.sensor_counts):
            sums = [0.0] * (len(expected[0]) - 2)
            for row in expected[j * cfg.trials:(j + 1) * cfg.trials]:
                for k, x in enumerate(row[2:]):
                    sums[k] += x
            means.append((n, *(x / cfg.trials for x in sums)))
        assert bits(summary) == bits(means)

    def test_empty_season(self):
        # no incidents: zero totals, and savings are the sensor spend alone
        _, env, bio = small_scenario()
        cfg = self.CFG
        rows, summary, manifest = sweep([], env, bio, cfg, evolution=EVO)
        assert manifest["baseline"] == {
            "burned_hours": 0.0, "burned_area_km2": 0.0, "carbon_tons": 0.0,
            "carbon_price_usd": 0.0, "n_incidents": 0, "n_detected": 0}
        assert len(rows) == len(cfg.sensor_counts) * cfg.trials
        for row in rows:
            n = row[0]
            assert bits([row[2:6]]) == bits([(0.0,) * 4])
            assert row[6:] == tuple(-n * c for c in cfg.unit_sensor_cost_usd)
        assert bits(summary) == bits(
            [(n, 0.0, 0.0, 0.0, 0.0,
              *(savings(0.0, 0.0, n, c) for c in cfg.unit_sensor_cost_usd))
             for n in cfg.sensor_counts])

    def test_detected_count(self):
        incidents, env, bio = small_scenario()
        manifest = one_row_sweep(incidents, env, bio, 0, seed=4)
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
        totals = baseline_totals(incidents, None, bio, "historical")
        assert totals["burned_hours"] == 14.75
        assert totals["burned_area_km2"] == 4.75
        assert totals["carbon_tons"] == pytest.approx(
            emission_tons(4.75, float(bio.values.mean())))

    def test_historical_requires_both_columns(self):
        incidents = [Incident(id="a", start_hour=0, ignition_xy=(1.0, 1.0))]
        bio = synth_biomass(nx=4, ny=4, spacing_km=10.0, lo=1, hi=2, seed=0)
        with pytest.raises(ValidationError):
            baseline_totals(incidents, None, bio, "historical")

    def test_zero_sensor_equals_empty_field_season(self):
        incidents, env, bio = small_scenario()
        direct = manual_season(incidents, env, bio, SensorField(positions=[]))
        manifest = one_row_sweep(incidents, env, bio, 0, seed=4)
        assert manifest["baseline"] == direct
        trajectories = [circle_trajectory(inc, env, EVO) for inc in incidents]
        season = SeasonTable(incidents, trajectories, bio, EVO)
        totals = baseline_totals(incidents, season, bio, "simulated-zero-sensor")
        assert totals == direct
        # its rows are priced once, in the table the trials share
        assert np.isfinite(season.tons).sum() == len(incidents)

    def test_zero_sensor_needs_env(self):
        # the zero-sensor baseline reads trajectories grown on the env grid
        incidents, _, bio = small_scenario()
        with pytest.raises(ValidationError):
            baseline_totals(incidents, None, bio, "simulated-zero-sensor")


class TestSweep:
    CFG = SweepConfig(sensor_counts=(50, 500), trials=3, base_seed=9,
                      cap_hours=10.0, unit_sensor_cost_usd=(10.0, 100.0))

    def test_shape_and_savings_arithmetic(self):
        incidents, env, bio = small_scenario()
        rows, summary, manifest = sweep(incidents, env, bio, self.CFG,
                                        evolution=EVO)
        assert len(rows) == 2 * 3
        assert [s[0] for s in summary] == [50, 500]
        base_price = manifest["baseline"]["carbon_price_usd"]
        for n, _, _, _, _, price, *sav in rows:
            assert sav == [savings(base_price, price, n, cost)
                           for cost in self.CFG.unit_sensor_cost_usd]
        for s in summary:
            group = [r for r in rows if r[0] == s[0]]
            assert s[1] == pytest.approx(sum(r[2] for r in group) / len(group))

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
        for n, trial, hours, *_ in rows:
            by_trial.setdefault(trial, {})[n] = hours
        for d in by_trial.values():
            assert d[50] >= d[500]

    def test_repeated_count_averages_its_own_trials(self):
        # count j's summary averages rows[j * trials:(j + 1) * trials]: a
        # repeated count summarizes as the count alone does, bit for bit
        incidents, env, bio = small_scenario()
        cfg = replace(self.CFG, sensor_counts=(500,), trials=7)
        rows, summary, _ = sweep(incidents, env, bio, cfg, evolution=EVO)
        rows2, summary2, _ = sweep(incidents, env, bio,
                                   replace(cfg, sensor_counts=(500, 500)),
                                   evolution=EVO)
        assert rows2[:7] == rows
        assert summary2 == summary * 2

    def test_manifest_contents(self):
        incidents, env, bio = small_scenario()
        _, _, manifest = sweep(incidents, env, bio, self.CFG, evolution=EVO)
        assert manifest["sweep"]["sensor_counts"] == [50, 500] or \
            manifest["sweep"]["sensor_counts"] == (50, 500)
        assert manifest["deployment_seeds"] == [9, 10, 11]
        assert manifest["evolution"]["max_hours"] == 10.0  # cap overrides
        assert manifest["n_incidents"] == len(incidents)

    def test_mean_past_the_largest_float_is_refused(self):
        # each trial's price is finite, but three of them sum past the
        # largest float
        incidents, env, bio = small_scenario()
        evo = replace(EVO, max_hours=self.CFG.cap_hours)  # as the sweep runs
        trajectories = [circle_trajectory(inc, env, evo) for inc in incidents]
        tons = baseline_totals(incidents, SeasonTable(incidents, trajectories, bio, evo),
                               bio, "simulated-zero-sensor")["carbon_tons"]
        cfg = replace(self.CFG, usd_per_ton=0.9 * 1.7976931348623157e308 / tons)
        with pytest.raises(ValidationError, match=re.escape(
                f"mean price of 50 sensors at usd_per_ton={cfg.usd_per_ton!r} "
                "must be finite, got inf")):
            sweep(incidents, env, bio, cfg, evolution=EVO)

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

    @pytest.mark.parametrize("field, bad", [
        ("sensor_counts", 5), ("unit_sensor_cost_usd", 5),
        ("unit_sensor_cost_usd", ("a",)), ("unit_sensor_cost_usd", (True,)),
        ("cap_hours", "x"), ("cap_hours", None), ("usd_per_ton", "x"),
        ("usd_per_ton", True), ("trials", "3"),
    ])
    def test_wrong_type_rejected(self, field, bad):
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
        p = tmp_path / "deep" / "file.json"
        write_json("hello", p)
        assert p.read_text() == '"hello"\n'
        assert list(p.parent.iterdir()) == [p]

    def test_concurrent_writers_leave_one_complete_file(self, tmp_path):
        p = tmp_path / "file.json"
        texts = [str(k) * 200_000 for k in range(4)]
        errors = []

        def write(text):
            try:
                for _ in range(20):
                    write_json(text, p)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(t,)) for t in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert errors == []
        assert p.read_text() in [json_text(t) for t in texts]
        assert list(tmp_path.iterdir()) == [p]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # the temporary file is open when the text fails to serialize
        p = tmp_path / "file.json"
        with pytest.raises(TypeError):
            write_json({"a": b"not JSON"}, p)
        with pytest.raises(ValueError):
            write_json({"a": math.nan}, p)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o077, "0o600"), (0o027, "0o640")])
    def test_outputs_take_the_umask_at_write_time(self, tmp_path, umask, mode):
        # a umask set after import applies, as it does to open()
        incidents, env, bio = small_scenario()
        mask = os.umask(umask)
        try:
            write_json("a", tmp_path / "a.json")
            write_sweep_csv([(1, 0, 1.0, 2.0, 3.0, 4.0, 5.0)], (10.0,),
                            tmp_path / "rows.csv")
            write_manifest({"a": 1}, tmp_path / "run_manifest.json")
            save_sensors(SensorField(positions=[[1.0, 2.0]]), tmp_path / "s.csv")
            save_env_grid(env, tmp_path / "env.json")
            save_biomass(bio, tmp_path / "bio.json")
        finally:
            os.umask(mask)
        modes = {p.name: oct(p.stat().st_mode & 0o777) for p in tmp_path.iterdir()}
        assert len(modes) == 10
        assert set(modes.values()) == {mode}, modes

    def test_csv_round_trip_exact(self, tmp_path):
        incidents, env, bio = small_scenario()
        cfg = SweepConfig(sensor_counts=(50,), trials=2, base_seed=1,
                          cap_hours=8.0, unit_sensor_cost_usd=(10.0,))
        rows, summary, _ = sweep(incidents, env, bio, cfg, evolution=EVO)
        rp = write_sweep_csv(rows, cfg.unit_sensor_cost_usd, tmp_path / "rows.csv")
        lines = rp.read_text().splitlines()
        assert lines[0] == ("n_sensors,trial,burned_hours,burned_area_km2,"
                            "carbon_tons,carbon_price_usd,savings_usd@cost10")
        # every cell reads back as its row's number, exactly
        assert [tuple(map(float, line.split(","))) for line in lines[1:]] == rows
        assert lines[1].split(",")[:2] == ["50", "0"]
        sp = write_summary_csv(summary, cfg.unit_sensor_cost_usd,
                               tmp_path / "sum.csv")
        head, *lines = sp.read_text().splitlines()
        assert head == ("n_sensors,mean_burned_hours,mean_burned_area_km2,"
                        "mean_carbon_tons,mean_carbon_price_usd,"
                        "mean_savings_usd@cost10")
        assert [tuple(map(float, line.split(","))) for line in lines] == summary

    def test_manifest_is_json(self, tmp_path):
        p = write_manifest({"a": 1, "b": [1, 2]}, tmp_path / "m.json")
        assert json.loads(p.read_text()) == {"a": 1, "b": [1, 2]}

    def test_manifest_of_numpy_settings_holds_python_numbers(self, tmp_path):
        # the checks accept numpy scalars, and the configs keep some as given
        incidents, env, bio = small_scenario(2)
        cfg = SweepConfig(sensor_counts=(50,), trials=1, cap_hours=np.int64(3),
                          usd_per_ton=np.float32(20.0))
        _, _, manifest = sweep(incidents, env, bio, cfg,
                               evolution=EvolutionConfig(snap_km=np.float32(0.05)))
        back = json.loads(write_manifest(manifest, tmp_path / "m.json").read_text())
        assert list(back) == list(manifest)  # keys in the order the sweep builds them
        for section, key, want in (("sweep", "cap_hours", 3), ("sweep", "usd_per_ton", 20.0),
                                   ("evolution", "max_hours", 3),
                                   ("evolution", "snap_km", float(np.float32(0.05)))):
            got = back[section][key]
            assert (got, type(got)) == (want, type(want)), (section, key)

    def test_manifest_is_strict_json(self, tmp_path):
        # strict JSON has no infinity: an infinite cap is null
        p = write_manifest({"a": [math.inf, -math.inf], "b": (1.5,)}, tmp_path / "m.json")
        assert json.loads(p.read_text()) == {"a": [None, None], "b": [1.5]}
        with pytest.raises(ValueError):
            write_manifest({"a": math.nan}, tmp_path / "n.json")


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


class TestQueryCount:
    """How often a replay queries its field, counted through the module
    global replay_detection looks nearest_index_within up by, as the
    benchmark's tracer counts it."""

    @pytest.fixture
    def queried(self, monkeypatch):
        fields = []
        real = evolution.nearest_index_within

        def counting(field_, center, radius):
            fields.append(field_)
            return real(field_, center, radius)

        monkeypatch.setattr(evolution, "nearest_index_within", counting)
        return fields

    def test_every_deployed_field_is_queried(self, monkeypatch, queried):
        # one deploy per trial, at the largest count, and one replay per
        # trial and incident; the baseline replays nothing
        deployed, replays = [], []
        real_deploy, real_replay = harness.deploy_uniform, harness.replay_detection

        def recording(*args):
            deployed.append(real_deploy(*args))
            return deployed[-1]

        def replaying(*args):
            replays.append(args[3])
            return real_replay(*args)

        priced, real_biomass = [], harness.average_biomass

        def pricing(circle, bio):
            priced.append(circle)
            return real_biomass(circle, bio)

        monkeypatch.setattr(harness, "deploy_uniform", recording)
        monkeypatch.setattr(harness, "replay_detection", replaying)
        monkeypatch.setattr(harness, "average_biomass", pricing)
        incidents, env, bio = small_scenario()
        cfg = SweepConfig(sensor_counts=(0, 50, 20000), trials=2, cap_hours=10.0)
        sweep(incidents, env, bio, cfg, evolution=EVO)
        # the baseline and the trials price each distinct circle once, the
        # baseline's (each incident's last) first
        trajectories = [circle_trajectory(inc, env, replace(EVO, max_hours=10.0))
                        for inc in incidents]
        assert priced[:len(incidents)] == [tuple(c[-1].tolist()) for c in trajectories]
        assert len(set(priced)) == len(priced) > len(incidents)
        assert [f.drawn for f in deployed] == [20000] * cfg.trials
        assert [f.seed for f in deployed] == [0, 1]
        assert replays == [cfg.sensor_counts] * (cfg.trials * len(incidents))
        # deployed holds every field, so no id is reused
        seen = {id(f) for f in queried}
        assert all(id(f) in seen for f in deployed)
        assert len(queried) == len(replays)

    def test_empty_screen_makes_one_query(self, queried):
        incidents, env, _ = small_scenario()
        circles = circle_trajectory(incidents[0], env, EVO)
        far = SensorField(positions=[[1e4, 1e4], [-1e4, 0.0]])
        rows, draws = evolution.replay_detection(circles, screen_disk(circles), far,
                                                 (len(far),))
        assert (rows.tolist(), draws.tolist()) == ([len(circles) - 1], [-1])
        assert len(queried) == 1

    def test_every_replay_makes_one_query(self, queried):
        incidents, env, _ = small_scenario()
        detections = 0
        for inc in incidents:
            circles = circle_trajectory(inc, env, EVO)
            x, y = inc.ignition_xy
            local = deploy_uniform(30, Rect(x - 2.0, y - 2.0, 4.0, 4.0), seed=1)
            for field_ in (local, deploy_uniform(50, env.rect, seed=2),
                           SensorField(positions=[])):
                queried.clear()
                _, [sensor] = evolution.replay_detection(
                    circles, screen_disk(circles), field_, (len(field_),))
                assert len(queried) == 1 and queried[0] is field_
                detections += sensor >= 0
        assert detections >= 3
