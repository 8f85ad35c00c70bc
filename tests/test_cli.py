"""CLI behavior: exit codes, outputs, config plumbing."""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from emberlink import evolution
from emberlink.cli import DEFAULT_CONFIG, main
from emberlink.envdata import (SynthSpec, load_env_grid, save_biomass, save_env_grid,
                               synth_biomass, synth_env)
from emberlink.harness import bundled_scenario_path, load_season_bundle
from emberlink.linkbudget import (EVENT_REPORT, PERIODIC_REPORT, TABLE1_10DEG,
                                  capacity_report)
from emberlink.sensors import deploy_uniform

BUNDLE = f"paths.scenario_bundle={bundled_scenario_path()}"


def on_bundle(*argv: str) -> list[str]:
    """Command-line arguments that run argv on the bundled season."""
    return ["--set", BUNDLE, *argv]


class TestLinkBudgetCommand:
    def test_writes_report(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "linkbudget"])
        assert code == 0
        report = json.loads((tmp_path / "capacity_report.json").read_text())
        expected = capacity_report(TABLE1_10DEG, PERIODIC_REPORT)
        assert report["bits_per_ru"] == expected.bits_per_ru
        assert report["supportable_sensors"] == expected.supportable_sensors
        out = capsys.readouterr().out
        assert json.loads(out)["cnr_db"] == pytest.approx(expected.cnr_db)

    def test_event_traffic(self, tmp_path):
        code = main(["--out-dir", str(tmp_path), "linkbudget",
                     "--traffic", "event"])
        assert code == 0
        report = json.loads((tmp_path / "capacity_report.json").read_text())
        assert report["supportable_sensors"] == 32400

    def test_params_file(self, tmp_path):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({
            "eirp_dbm": 23.0, "g_over_t_db_k": 19.0, "bandwidth_hz": 3750.0,
            "freq_mhz": 1500.0, "distance_km": 35786.0, "pl_atmos_db": 0.16,
            "pl_shadow_db": 3.0, "pl_scint_db": 2.2, "pl_polar_db": 3.0}))
        code = main(["--out-dir", str(tmp_path), "linkbudget",
                     "--params", str(pfile)])
        assert code == 0

    def test_zero_system_bandwidth_is_bad_input(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "linkbudget",
                     "--system-bw-hz", "0"])
        assert code == 1
        assert "system_bw_hz" in capsys.readouterr().err

    def test_overflowing_peak_rate_names_its_cause(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "--set", "link.ru_duration_s=1e-320",
                     "linkbudget"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: peak rate at system_bw_hz=180000.0 and ru_duration_s=1e-320 "
            "must be finite and >= 0, got inf\n")

    def test_infeasible_link_is_bad_input(self, tmp_path, capsys):
        # a budget the user chose that cannot close: exit 1, not 2
        code = main(["--out-dir", str(tmp_path),
                     "--set", "link.params.eirp_dbm=-100", "linkbudget"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: CNR -114.6386 dB is below the lowest TBS threshold (8.0 dB); "
            "the link cannot close\n")
        assert not (tmp_path / "capacity_report.json").exists()

    @pytest.mark.parametrize("argv, got", [
        (["--set", "link.params.eirp_dbm=1e308", "--set", "link.params.g_over_t_db_k=1e308"],
         "inf"),
        (["--set", "link.params.pl_atmos_db=1e308", "--set", "link.params.pl_shadow_db=1e308"],
         "-inf"),
    ])
    def test_non_finite_cnr_is_bad_input(self, tmp_path, capsys, argv, got):
        # an infinite CNR would write Infinity, which strict JSON lacks
        code = main(["--out-dir", str(tmp_path), *argv, "linkbudget"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CNR of the link.params budget {'eirp_dbm': ")
        assert err.endswith(f"}} must be finite, got {got}\n")
        assert not (tmp_path / "capacity_report.json").exists()

    def test_overflowing_subcarrier_count_is_bad_input(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "--set", "link.params.bandwidth_hz=1e-320",
                     "linkbudget"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: subcarrier count at system_bw_hz=180000.0 and subcarrier_hz=1e-320 "
            "must be finite and >= 0, got inf\n")

    @pytest.mark.parametrize("row, why", [
        ("0.0,abc", "bits_per_ru must be an integer, got 'abc'"),
        ("0.0,8.5", "bits_per_ru must be an integer, got '8.5'"),
        ("0.0", "the header has 2 cells, this row 1"),
        ("nan,16", "min_cnr_db must be finite, got nan"),
        ("x,16", "min_cnr_db must be a number, got 'x'"),
        ("0.0,-1", "bits_per_ru must be an integer >= 0, got -1"),
        ("8.0,144,9", "the header has 2 cells, this row 3"),
        ("8.0,144,,", "the header has 2 cells, this row 4"),
    ])
    def test_bad_tbs_file_is_bad_input(self, tmp_path, capsys, row, why):
        # the second data row, file line 3, is bad; the message names file,
        # line and column
        tbs = tmp_path / "tbs.csv"
        tbs.write_text(f"min_cnr_db,bits_per_ru\n-5.0,8\n{row}\n")
        code = main(["--out-dir", str(tmp_path), "--set", f"link.tbs_csv={tbs}",
                     "linkbudget"])
        assert code == 1
        assert capsys.readouterr().err == f"error: TBS file {tbs} row 3: {why}\n"

    def test_tbs_bits_past_the_largest_float_is_bad_input(self, tmp_path, capsys):
        # 10**400 bits per RU passes the integer rule, but the peak rate
        # would overflow a float
        tbs = tmp_path / "tbs.csv"
        tbs.write_text("min_cnr_db,bits_per_ru\n8.0,1" + "0" * 400 + "\n")
        code = main(["--out-dir", str(tmp_path), "--set", f"link.tbs_csv={tbs}",
                     "linkbudget"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: TBS file {tbs}: TBS row 1 bits_per_ru must be at most "
            f"1.7976931348623157e+308, got {10 ** 400}\n")


class TestSynthEnvCommand:
    def test_writes_loadable_grid(self, tmp_path):
        spec = {"nx": 6, "ny": 5, "nt": 4, "spacing_km": 10.0, "mode": "random",
                "coarse_nx": 2, "coarse_ny": 2, "coarse_nt": 2}
        sfile = tmp_path / "spec.json"
        sfile.write_text(json.dumps(spec))
        out = tmp_path / "env.json"
        code = main(["--seed", "5", "synth-env", "--spec", str(sfile),
                     "--out", str(out)])
        assert code == 0
        g = load_env_grid(out)
        assert (g.nx, g.ny, g.nt) == (6, 5, 4)

    def test_missing_spec_file(self, tmp_path):
        code = main(["synth-env", "--spec", str(tmp_path / "nope.json")])
        assert code == 1


class TestSimulateCommand:
    def test_bundle_incident_with_deploy(self, tmp_path):
        code = main(["--out-dir", str(tmp_path), "--seed", "3",
                     "--set", BUNDLE,
                     "--set", "evolution.max_hours=4.0",
                     "simulate", "--incident", "syn-001",
                     "--deploy", "200", "--trace"])
        assert code == 0
        result = json.loads((tmp_path / "incident_syn-001.json").read_text())
        assert result["incident_id"] == "syn-001"
        assert 0.0 <= result["detection_hour"] <= 4.0
        trace = (tmp_path / "incident_syn-001_trace.csv").read_text().splitlines()
        assert trace[0] == "t,center_x_km,center_y_km,radius_km,n_frontier"
        assert len(trace) == 6  # header + hours 0..4
        first = trace[1].split(",")
        assert first[0] == "0" and float(first[3]) == 0.0 and first[4] == "1"

    def test_bundled_run_is_pinned(self, tmp_path):
        # the README's quick-start run
        code = main(["--out-dir", str(tmp_path), "--seed", "7",
                     *on_bundle("simulate", "--incident", "syn-001",
                                "--deploy", "100000", "--trace")])
        assert code == 0
        trace = (tmp_path / "incident_syn-001_trace.csv").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == (
            "49ea05ad3240b15b47ecb829812c09dfc0824c0c569814cee94d03ec2ae29bb3")
        result = json.loads((tmp_path / "incident_syn-001.json").read_text())
        assert list(result) == ["incident_id", "detected", "detection_hour",
                                "detecting_sensor", "burned_area_km2", "circle"]
        assert result["detected"] is True
        assert result["detection_hour"] == 12.0
        assert result["detecting_sensor"] == 57828
        assert result["burned_area_km2"] == 2.2757455227201797
        assert result["circle"] == [
            693.3449206966991, 203.21541636200845, 0.8511123887715015]
        # the reported circle is the trace's row at the detection hour
        row = trace.decode().splitlines()[1 + 12].split(",")
        assert row[0] == "12" and [float(v) for v in row[1:4]] == [
            693.3449206966991, 203.21541636200845, 0.8511123887715015]

    @pytest.mark.parametrize("deploy, hours", [([], "30.0"), (["--deploy", "100000"], "26.0")])
    def test_integer_cap_reports_float_hours(self, tmp_path, deploy, hours):
        # hours come from the season table's float column, so at an integer
        # max_hours an undetected fire reads 30.0, as a detected one does
        code = main(["--out-dir", str(tmp_path), *(["--seed", "3"] if deploy else []),
                     *on_bundle("--set", "evolution.max_hours=30",
                                "simulate", "--incident", "syn-001", *deploy)])
        assert code == 0
        text = (tmp_path / "incident_syn-001.json").read_text()
        assert f'\n  "detection_hour": {hours},\n' in text

    def test_deploy_holds_only_the_screened_draw(self, tmp_path):
        argv = ["--out-dir", str(tmp_path),
                *on_bundle("simulate", "--incident", "syn-001", "--deploy")]
        # the whole field of 2M sensors would take 32 MB
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assert main([*argv, "2000000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10 ** 6, peak
        # the same outcome as a replay against the whole field
        incidents, env, _, _, evo = load_season_bundle(bundled_scenario_path())
        incident = next(inc for inc in incidents if inc.id == "syn-001")
        circles = evolution.circle_trajectory(incident, env, evo)
        for n in (0, 1000, 1_000_000):
            assert main([*argv, str(n)]) == 0
            [k], [sensor] = (a.tolist() for a in evolution.replay_detection(
                circles, evolution.screen_disk(circles), deploy_uniform(n, env.rect, 0), (n,)))
            result = json.loads((tmp_path / "incident_syn-001.json").read_text())
            x, y, r = circles[k].tolist()
            assert result == {
                "incident_id": "syn-001", "detected": sensor >= 0,
                "detection_hour": float(k) if sensor >= 0
                else evolution.undetected_hours(incident, circles, evo),
                "detecting_sensor": sensor if sensor >= 0 else None,
                "burned_area_km2": math.pi * r * r,
                "circle": [x, y, r]}, n

    def test_overflowing_sensor_extent_is_bad_input(self, tmp_path, capsys):
        # the x extent, 3.4e308 km, is past any float
        sensors = tmp_path / "sensors.csv"
        sensors.write_text("x_km,y_km\n1.7e308,0\n-1.7e308,0\n500,500\n")
        code = main(["--out-dir", str(tmp_path),
                     *on_bundle("--set", f"paths.sensors_csv={sensors}",
                                "simulate", "--incident", "syn-001")])
        assert code == 1
        assert ("sensor positions span x -1.7e+308 to 1.7e+308"
                in capsys.readouterr().err)

    def test_negative_sensor_file_seed_is_bad_input(self, tmp_path, capsys):
        # deploy_uniform rejects this seed, so a sensor file may not carry it
        sensors = tmp_path / "sensors.csv"
        sensors.write_text("# seed=-1\nx_km,y_km\n500,500\n")
        code = main(["--out-dir", str(tmp_path),
                     *on_bundle("--set", f"paths.sensors_csv={sensors}",
                                "simulate", "--incident", "syn-001")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"sensor file {sensors}" in err
        assert "seed must be an integer in [0, 2**128), got -1" in err

    def test_unknown_incident(self, tmp_path):
        code = main(["--out-dir", str(tmp_path), "--set", BUNDLE,
                     "simulate", "--incident", "nope"])
        assert code == 1

    def test_spread_set_applies_to_bundle_runs(self, tmp_path):
        areas = []
        for u_max in ("0.13", "0.5"):
            code = main(["--out-dir", str(tmp_path), "--set", BUNDLE,
                         "--set", "evolution.max_hours=4.0",
                         "--set", f"spread.u_max_ms={u_max}",
                         "simulate", "--incident", "syn-001"])
            assert code == 0
            result = json.loads((tmp_path / "incident_syn-001.json").read_text())
            areas.append(result["burned_area_km2"])
        assert areas[1] > areas[0]


@pytest.mark.parametrize("argv", [
    ["--set", "evolution.max_hours=8", "simulate", "--incident", "syn-001"],
    ["--set", "sweep.cap_hours=8", "--set", "sweep.sensor_counts=[10]",
     "--set", "sweep.trials=1", "sweep"],
])
def test_unbounded_frontier_is_rejected(tmp_path, capsys, monkeypatch, argv):
    # unpruned, the bundle's fires branch 4**k points by hour k; the bound
    # is lowered so that the run stops within a few hours
    monkeypatch.setattr(evolution, "MAX_POINTS", 4 ** 5)
    code = main(["--out-dir", str(tmp_path),
                 *on_bundle("--set", "evolution.snap_km=0", *argv)])
    assert code == 1
    assert "evolution.snap_km=0 is too fine" in capsys.readouterr().err


class TestSweepCommand:
    def test_small_sweep_writes_outputs(self, tmp_path):
        code = main(["--out-dir", str(tmp_path), "--set", BUNDLE,
                     "--set", "sweep.sensor_counts=[100,1000]",
                     "--set", "sweep.trials=2",
                     "--set", "sweep.cap_hours=3",
                     "sweep"])
        assert code == 0
        rows = (tmp_path / "sweep_rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2
        summary = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 2
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["sweep"]["sensor_counts"] == [100, 1000]
        assert manifest["sweep"]["trials"] == 2
        assert manifest["evolution"]["max_hours"] == 3
        # the bundle says 72 h; the recorded config is the horizon that ran
        assert manifest["config"]["evolution"]["max_hours"] == 3
        assert not any(k.startswith("_") for k in manifest["config"])
        # the model defaults, echoed with the keys and values they always had
        assert manifest["config"]["spread"] == {
            "u_max_ms": 0.13, "windless_gain": 0.1, "wetness_cutoff": 0.35,
            "backspread_ratio": 0.2, "wind_sq_scale": 2500.0,
            "elongation_gain": 10.0, "elongation_rate": 0.017}
        assert manifest["config"]["evolution"] == {
            "snap_km": 0.05, "max_hours": 3}
        assert DEFAULT_CONFIG["evolution"] == {
            "snap_km": 0.05, "max_hours": 168.0}

    @pytest.mark.parametrize("assignment, named", [
        ("sweep.usd_per_ton=1e308", "at usd_per_ton=1e+308 must be finite"),
        ("sweep.unit_sensor_cost_usd=[1e308]", "at unit_sensor_cost_usd=1e+308 must be finite"),
    ])
    def test_overflowing_price_or_savings_is_bad_input(self, tmp_path, capsys,
                                                       assignment, named):
        code = main(["--out-dir", str(tmp_path), *on_bundle(
            "--set", "sweep.trials=1", "--set", "sweep.sensor_counts=[10]",
            "--set", "sweep.cap_hours=2", "--set", assignment, "sweep")])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_repeated_unit_cost_is_bad_input(self, tmp_path, capsys):
        # 10 and 10.0 would both write a savings_usd@cost10 column
        code = main(["--out-dir", str(tmp_path), *on_bundle(
            "--set", "sweep.trials=1", "--set", "sweep.sensor_counts=[10]",
            "--set", "sweep.cap_hours=2",
            "--set", "sweep.unit_sensor_cost_usd=[10, 10.0, 1e20, 0.5]", "sweep")])
        assert code == 1
        assert "unit_sensor_cost_usd must not repeat a cost" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_uncapped_sweep_writes_a_strict_json_manifest(self, tmp_path):
        assert main(_file_scenario(tmp_path, "100")
                    + ["--set", "sweep.cap_hours=Infinity", "sweep"]) == 0
        text = (tmp_path / "out" / "run_manifest.json").read_text()
        assert "Infinity" not in text
        manifest = json.loads(text)
        # an infinite cap is null: strict JSON has no infinity
        assert manifest["sweep"]["cap_hours"] is None
        assert manifest["evolution"]["max_hours"] is None
        assert manifest["config"]["sweep"]["cap_hours"] is None
        assert manifest["config"]["evolution"]["max_hours"] is None

    def test_needs_a_scenario(self, tmp_path):
        code = main(["--out-dir", str(tmp_path), "sweep"])
        assert code == 1

    def test_layers_bundle_then_config_then_set(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {
            "trials": 1, "sensor_counts": [10], "cap_hours": 3}}))
        base = ["--config", str(cfg), "--set", BUNDLE, "sweep"]

        # --config beats the bundle's sweep section
        code = main(["--out-dir", str(tmp_path / "a")] + base)
        assert code == 0
        rows = (tmp_path / "a" / "sweep_rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 1
        manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
        assert manifest["sweep"]["trials"] == 1
        assert manifest["config"]["sweep"]["trials"] == 1
        # keys no later layer sets keep the bundle's values
        assert manifest["sweep"]["base_seed"] == 2020
        assert manifest["config"]["sweep"]["base_seed"] == 2020
        assert manifest["deployment_seeds"] == [2020]

        # --set beats --config, and spread values reach the run
        code = main(["--out-dir", str(tmp_path / "b"),
                     "--set", "sweep.trials=2",
                     "--set", "spread.u_max_ms=0.5"] + base)
        assert code == 0
        rows = (tmp_path / "b" / "sweep_rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 2
        manifest = json.loads((tmp_path / "b" / "run_manifest.json").read_text())
        assert manifest["sweep"]["trials"] == 2
        assert manifest["config"]["sweep"]["trials"] == 2
        assert manifest["evolution"]["params"]["u_max_ms"] == 0.5
        assert manifest["config"]["spread"]["u_max_ms"] == 0.5

    def test_seed_flag_is_recorded(self, tmp_path):
        code = main(["--out-dir", str(tmp_path), "--seed", "7",
                     "--set", BUNDLE, "--set", "sweep.sensor_counts=[10]",
                     "--set", "sweep.trials=1", "--set", "sweep.cap_hours=2",
                     "sweep"])
        assert code == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["deployment_seeds"] == [7]
        assert manifest["config"]["sweep"]["base_seed"] == 7

    def test_user_set_max_hours_is_rejected(self, tmp_path, capsys):
        # a sweep runs every incident to sweep.cap_hours instead
        code = main(["--out-dir", str(tmp_path), "--set", BUNDLE,
                     "--set", "evolution.max_hours=5", "sweep"])
        assert code == 1
        assert "evolution.max_hours is not used by sweep" in capsys.readouterr().err

    def test_bundle_max_hours_is_accepted(self, tmp_path):
        raw = json.loads(bundled_scenario_path().read_text())
        raw["evolution"]["max_hours"] = 5.0
        raw["sweep"].update(sensor_counts=[10], trials=1, cap_hours=2.0)
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(raw))
        code = main(["--out-dir", str(tmp_path),
                     "--set", f"paths.scenario_bundle={bundle}", "sweep"])
        assert code == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        # the recorded config is the horizon that ran
        assert manifest["config"]["evolution"]["max_hours"] == 2.0


_REMOVED = object()  # a bundle edit that deletes the key


class TestScenarioInputs:
    """Every scenario bundle and synth spec field is read or rejected, and a
    bad value exits 1 naming its field."""

    @pytest.mark.parametrize("key, value, field", [
        ("notes", "x", "'notes'"),
        ("biomass.coarse", 3, "'coarse'"),
        ("biomass.colour", "green", "'colour'"),
        ("incidents.0.historical_burn_hours", 5, "'historical_burn_hours'"),
        ("biomass.origin", [0, 0, 0], "'origin'"),
        ("incidents.0.start_hour", 9.7, "'start_hour'"),
        ("env_seed", "x", "'env_seed'"),
        ("env_seed", -1, "env_seed"),
        ("biomass.seed", 2 ** 128, "biomass seed"),
        ("biomass.nx", "abc", "'nx'"),
        ("incidents.0.x_km", "abc", "'x_km'"),
        ("incidents.0.id", 5, "'id'"),
        ("env.nx", "abc", "env: synth spec field 'nx'"),
        ("env.nx", 10.5, "env: synth spec field 'nx'"),
        ("env.u10_range", "ab", "env: synth spec field 'u10_range'"),
        ("env.coarse_nx", 0, "env: synth spec coarse_nx"),
        ("biomass.spacing_km", float("nan"), "spacing_km"),
        ("sweep", [1], "'sweep'"),
        ("biomass.lo", _REMOVED, "missing field 'lo'"),
        ("env.u10_range", [-1e39, 1e39], "u10 contains non-finite values"),
    ])
    def test_bad_bundle_field_is_bad_input(self, tmp_path, capsys, key, value, field):
        raw = json.loads(bundled_scenario_path().read_text())
        *parents, last = key.split(".")
        section = raw
        for part in parents:
            section = section[int(part) if part.isdigit() else part]
        if value is _REMOVED:
            del section[last]
        else:
            section[last] = value
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(raw))
        code = main(["--out-dir", str(tmp_path / "out"),
                     "--set", f"paths.scenario_bundle={bundle}",
                     "--set", "sweep.sensor_counts=[10]", "--set", "sweep.trials=1",
                     "--set", "sweep.cap_hours=1", "sweep"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, field", [
        ({"nx": "abc"}, "'nx'"),
        ({"nx": 10.5}, "'nx'"),
        ({"u10_range": "ab"}, "'u10_range'"),
        ({"coarse_nx": 0}, "coarse_nx"),
        ({"mode": "schedule", "schedule": [[0, 1]]}, "'schedule'"),
        ({"mode": "schedule", "schedule": [[1, 5.0, 0.0, 0.1]]}, "schedule"),
        ({"spacing_km": float("nan")}, "spacing_km"),
        ({"origin": [float("inf"), 0.0]}, "origin"),
        ({"swvl1_range": [0.0, 2.0]}, "swvl1_range"),
        ({"v10_range": [3.0, 1.0]}, "v10_range"),
        ({"mode": "windy"}, "mode"),
        ({"bogus": 1}, "'bogus'"),
        ({"v10_range": [-1e39, 1e39]}, "v10 contains non-finite values"),
    ])
    def test_bad_synth_spec_field_is_bad_input(self, tmp_path, capsys, edit, field):
        spec = {"nx": 6, "ny": 5, "nt": 4, "spacing_km": 10.0, "mode": "random",
                "coarse_nx": 2, "coarse_ny": 2, "coarse_nt": 2}
        sfile = tmp_path / "spec.json"
        sfile.write_text(json.dumps({**spec, **edit}))
        out = tmp_path / "env.json"
        code = main(["synth-env", "--spec", str(sfile), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()


def _file_scenario(tmp_path, area_acre) -> list[str]:
    """Arguments that sweep one CSV incident of the given area_acre on a
    small all-California grid, two hours and ten sensors."""
    env = synth_env(SynthSpec(nx=10, ny=11, nt=24, spacing_km=100.0, u10=3.0,
                              swvl1=0.1), 0)
    bio = synth_biomass(10, 11, 100.0, 20.0, 80.0, seed=0)
    fires = tmp_path / "fires.csv"
    fires.write_text("id,start_iso8601,contained_iso8601,lat_deg,lon_deg,area_acre\n"
                     f"f1,2020-01-01T00:00:00,2020-01-01T05:00:00,36.0,-120.0,{area_acre}\n")
    return ["--out-dir", str(tmp_path / "out"),
            "--set", f"paths.env_manifest={save_env_grid(env, tmp_path / 'env.json')}",
            "--set", f"paths.biomass_manifest={save_biomass(bio, tmp_path / 'bio.json')}",
            "--set", f"paths.incidents_csv={fires}", "--set", "sweep.sensor_counts=[10]",
            "--set", "sweep.trials=1", "--set", "sweep.cap_hours=2"]


class TestBoundsOnFileInputs:
    @pytest.mark.parametrize("baseline", ["historical", "simulated-zero-sensor"])
    def test_finite_area_sweeps(self, tmp_path, baseline):
        assert main(_file_scenario(tmp_path, "100")
                    + ["--set", f"sweep.baseline={baseline}", "sweep"]) == 0
        rows = (tmp_path / "out" / "sweep_rows.csv").read_text()
        assert "nan" not in rows and "inf" not in rows

    @pytest.mark.parametrize("baseline", ["historical", "simulated-zero-sensor"])
    def test_manifest_baseline_types(self, tmp_path, baseline):
        # the counts are JSON integers and the totals JSON floats, even
        # where a total is a whole number or zero
        assert main(_file_scenario(tmp_path, "100")
                    + ["--set", f"sweep.baseline={baseline}", "sweep"]) == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert {k: type(v) for k, v in manifest["baseline"].items()} == {
            "burned_hours": float, "burned_area_km2": float, "carbon_tons": float,
            "carbon_price_usd": float, "n_incidents": int, "n_detected": int}
        assert manifest["baseline"]["n_incidents"] == 1

    @pytest.mark.parametrize("baseline", ["historical", "simulated-zero-sensor"])
    @pytest.mark.parametrize("area", ["nan", "inf", "-inf"])
    def test_non_finite_area_acre_is_bad_input(self, tmp_path, capsys, baseline, area):
        code = main(_file_scenario(tmp_path, area)
                    + ["--set", f"sweep.baseline={baseline}", "sweep"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: incident file {tmp_path / 'fires.csv'} row 2: area_acre must be "
            f"finite and >= 0, got {float(area)}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "0.0"])
    @pytest.mark.parametrize("key", ["width_km", "height_km"])
    def test_bad_geo_extent_is_named(self, tmp_path, capsys, key, value):
        code = main(_file_scenario(tmp_path, "100")
                    + ["--set", f"geo.{key}={value}", "sweep"])
        assert code == 1
        assert f"error: {key} must be finite and > 0, got " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _csv_input(tmp_path, kind: str) -> tuple[list[str], list[str]]:
    """A valid CSV input of a kind (incident, sensor or TBS file): its lines,
    and the command line that reads it from tmp_path / "input.csv"."""
    path = tmp_path / "input.csv"
    if kind == "incident":
        # lon_deg last, so a short row lacks a required cell
        env = synth_env(SynthSpec(nx=10, ny=11, nt=24, spacing_km=100.0, u10=3.0,
                                  swvl1=0.1), 0)
        return (["id,start_iso8601,contained_iso8601,area_acre,lat_deg,lon_deg",
                 "f1,2020-01-01T00:00:00,2020-01-01T02:00:00,100,36.0,-120.0",
                 "f2,2020-01-01T01:00:00,,,36.5,-120.5"],
                ["--set", f"paths.env_manifest={save_env_grid(env, tmp_path / 'env.json')}",
                 "--set", f"paths.incidents_csv={path}", "simulate", "--incident", "f1"])
    if kind == "sensor":
        return (["# region=0.0,0.0,1010.0,1110.0", "# seed=1", "x_km,y_km",
                 "692.0,203.0", "693.0,204.0"],
                on_bundle("--set", f"paths.sensors_csv={path}", "--set",
                          "evolution.max_hours=2.0", "simulate", "--incident", "syn-001"))
    return (["min_cnr_db,bits_per_ru", "-5.0,8", "8.0,144"],
            ["--set", f"link.tbs_csv={path}", "linkbudget"])


def _with_fault(lines: list[str], fault: str) -> tuple[list[str], int | None]:
    """lines with one fault, and the 1-based file line its message names."""
    h = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    meta, table = lines[:h], lines[h:]
    if fault == "short row":
        return lines[:-1] + [lines[-1].rsplit(",", 1)[0]], len(lines)
    if fault == "long row":
        return lines[:-1] + [lines[-1] + ",9"], len(lines)
    if fault == "missing column":
        return meta + [line.split(",", 1)[1] for line in table], h + 1
    if fault == "unknown column":
        return meta + [f"{table[0]},extra"] + [f"{row},1" for row in table[1:]], h + 1
    if fault == "repeated column":
        return meta + [f"{line},{line.split(',')[0]}" for line in table], h + 1
    if fault == "unknown # key":
        return ["# colour=red"] + lines, 1
    if fault == "blank lines":
        return lines[:h + 1] + [f"{row}\n\n   " for row in lines[h + 1:]], None
    return lines, None  # the file is missing


class TestMalformedCsv:
    """Each CSV input follows the same rules: a malformed file exits 1 with
    a message naming the file and the fault's line in it."""

    @pytest.mark.parametrize("fault", [
        "short row", "long row", "missing column", "unknown column", "repeated column",
        "unknown # key", "missing file", "blank lines"])
    @pytest.mark.parametrize("kind", ["incident", "sensor", "TBS"])
    def test_fault(self, tmp_path, capsys, kind, fault):
        lines, argv = _csv_input(tmp_path, kind)
        lines, line = _with_fault(lines, fault)
        path = tmp_path / "input.csv"
        if fault != "missing file":
            path.write_text("\n".join(lines) + "\n")
        code = main(["--out-dir", str(tmp_path / "out"), *argv])
        err = capsys.readouterr().err
        if fault == "blank lines":
            assert (code, err) == (0, "")
        elif fault == "missing file":
            assert (code, err) == (1, f"error: {kind} file missing: {path}\n")
        else:
            assert code == 1
            assert err.startswith(f"error: {kind} file {path} row {line}: "), err


class TestConfigPlumbing:
    def test_unknown_set_key(self, tmp_path):
        code = main(["--out-dir", str(tmp_path),
                     "--set", "nope.key=1", "linkbudget"])
        assert code == 1

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        code = main(["--config", str(bad), "linkbudget"])
        assert code == 1

    def test_unknown_config_key_in_file(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"bogus": 1}))
        code = main(["--config", str(bad), "linkbudget"])
        assert code == 1

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"link": {"traffic": {
            "reports_per_day": 1440.0, "payload_bytes": 50.0}}}))
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path),
                     "linkbudget"])
        assert code == 0
        report = json.loads((tmp_path / "capacity_report.json").read_text())
        assert report["supportable_sensors"] == 32400

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["--bogus", "linkbudget"]) == 1

    @pytest.mark.parametrize("argv, field", [
        (["--seed", "-1", "simulate", "--incident", "syn-001",
          "--deploy", "10"], "--seed"),
        (["--seed", "-1", "sweep"], "--seed"),
        (["--seed", "-1", "synth-env", "--spec", "spec.json"], "--seed"),
        (["--set", "sweep.base_seed=-1", "sweep"], "base_seed"),
    ])
    def test_negative_seed_is_bad_input(self, tmp_path, capsys, argv, field):
        code = main(["--out-dir", str(tmp_path), "--set", BUNDLE] + argv)
        assert code == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["--seed", str(2 ** 128), "simulate", "--incident", "syn-001",
          "--deploy", "10"], "--seed"),
        (["--seed", str(2 ** 128), "sweep"], "--seed"),
        (["--seed", str(2 ** 128 - 1), "sweep"], "base_seed + trials - 1"),
        (["--set", f"sweep.base_seed={2 ** 128 - 1}", "--set", "sweep.trials=2",
          "sweep"], "base_seed + trials - 1"),
    ])
    def test_seed_past_philox_keys_is_bad_input(self, tmp_path, capsys, argv, field):
        code = main(["--out-dir", str(tmp_path), "--set", BUNDLE] + argv)
        assert code == 1
        assert field in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed, code", [(2 ** 128 - 1, 0), (2 ** 128, 1)])
    def test_synth_env_seed_range(self, tmp_path, capsys, seed, code):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"nx": 3, "ny": 2, "nt": 2, "spacing_km": 1.0,
                                    "mode": "random"}))
        out = tmp_path / "out" / "env.json"
        assert main(["--seed", str(seed), "synth-env", "--spec", str(spec),
                     "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "--seed must be an integer in [0, 2**128)" in capsys.readouterr().err

    def test_bad_env_manifest_field_is_bad_input(self, tmp_path, capsys):
        man = tmp_path / "env.json"
        man.write_text(json.dumps({"nx": "abc", "ny": 2, "nt": 2, "spacing_km": 1.0,
                                   "files": {"u10": "u", "v10": "v", "swvl1": "s"}}))
        code = main(["--out-dir", str(tmp_path / "out"),
                     "--set", f"paths.env_manifest={man}",
                     "--set", f"paths.incidents_csv={tmp_path / 'i.csv'}",
                     "simulate", "--incident", "syn-001"])
        assert code == 1
        assert "env manifest field 'nx' must be an integer" in capsys.readouterr().err

    def test_nan_in_env_manifest_raster_is_bad_input(self, tmp_path, capsys):
        grid = synth_env(SynthSpec(nx=3, ny=2, nt=2, spacing_km=1.0, mode="random"), 0)
        man = save_env_grid(grid, tmp_path / "env.json")
        raster = tmp_path / json.loads(man.read_text())["files"]["swvl1"]
        values = np.fromfile(raster, dtype="<f4")
        values[5] = np.nan
        values.tofile(raster)
        code = main(["--out-dir", str(tmp_path / "out"),
                     "--set", f"paths.env_manifest={man}",
                     "--set", f"paths.incidents_csv={tmp_path / 'i.csv'}",
                     "simulate", "--incident", "syn-001"])
        assert code == 1
        assert "swvl1 contains non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, key", [
        (["--set", "paths.sensors_csv=s.csv", "sweep"], "paths.sensors_csv"),
        (["--set", "paths.env_manifest=e.json", "sweep"], "paths.env_manifest"),
        (["--set", "paths.biomass_manifest=b.json", "sweep"],
         "paths.biomass_manifest"),
        (["--set", "paths.incidents_csv=i.csv",
          "simulate", "--incident", "syn-001"], "paths.incidents_csv"),
        (["--set", "paths.sensors_csv=s.csv",
          "simulate", "--incident", "syn-001", "--deploy", "10"],
         "paths.sensors_csv"),
    ])
    def test_ignored_path_keys_are_rejected(self, tmp_path, capsys, argv, key):
        code = main(["--out-dir", str(tmp_path), "--set", BUNDLE] + argv)
        assert code == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["--set", "paths.env_manifest=/nonexistent.json", "linkbudget"],
         "paths.env_manifest"),
        (["--set", BUNDLE, "linkbudget"], "paths.scenario_bundle"),
        (["--set", "paths.sensors_csv=s.csv",
          "synth-env", "--spec", "spec.json"], "paths.sensors_csv"),
        (["--set", BUNDLE, "synth-env", "--spec", "spec.json"],
         "paths.scenario_bundle"),
        (["--set", "paths.env_manifest=e.json",
          "--set", "paths.incidents_csv=i.csv",
          "--set", "paths.biomass_manifest=b.json",
          "simulate", "--incident", "syn-001"], "paths.biomass_manifest"),
    ])
    def test_path_keys_a_command_never_reads_are_rejected(self, tmp_path, capsys,
                                                          argv, key):
        code = main(["--out-dir", str(tmp_path)] + argv)
        assert code == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["linkbudget"],
        ["synth-env", "--spec", "spec.json"],
    ])
    def test_unused_bundle_is_rejected_before_it_is_read(self, tmp_path, capsys,
                                                         argv):
        missing = tmp_path / "missing.json"
        code = main(["--out-dir", str(tmp_path),
                     "--set", f"paths.scenario_bundle={missing}"] + argv)
        assert code == 1
        err = capsys.readouterr().err
        assert f"paths.scenario_bundle is not used by {argv[0]}" in err

    @pytest.mark.parametrize("argv, key", [
        (on_bundle("--set", "sweep.trials=2.5", "sweep"), "sweep.trials"),
        (on_bundle("--set", "sweep.trials=true", "sweep"), "sweep.trials"),
        (on_bundle("--set", "sweep.trials=null", "sweep"), "sweep.trials"),
        (on_bundle("--set", "sweep.sensor_counts=10", "sweep"),
         "sweep.sensor_counts"),
        (on_bundle("--set", "sweep.sensor_counts=[10, 2.5]", "sweep"),
         "sweep.sensor_counts"),
        (on_bundle("--set", 'evolution.snap_km="abc"', "sweep"),
         "evolution.snap_km"),
        (on_bundle("--set", "evolution.snap_km=true", "sweep"),
         "evolution.snap_km"),
        (on_bundle("--set", "spread.u_max_ms=x",
                   "simulate", "--incident", "syn-001"), "spread.u_max_ms"),
        (on_bundle("simulate", "--incident", "syn-001", "--deploy", "-5"),
         "--deploy"),
        (["--set", "link.system_bw_hz=x", "linkbudget"], "link.system_bw_hz"),
        (["--set", "link.traffic=5", "linkbudget"], "link.traffic"),
        (["--set", "out_dir=null", "linkbudget"], "out_dir"),
    ])
    def test_wrong_typed_value_is_bad_input(self, tmp_path, capsys, argv, key):
        code = main(["--out-dir", str(tmp_path)] + argv)
        assert code == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("assignment, field", [
        # not a key (one step is one env hour): exits 1 as unknown
        ("evolution.dt_s=NaN", "dt_s"),
        ("evolution.snap_km=NaN", "snap_km"),
        ("spread.u_max_ms=-1", "u_max_ms"),
        ("spread.wind_sq_scale=0", "wind_sq_scale"),
        ("spread.elongation_rate=Infinity", "elongation_rate"),
        ("sweep.usd_per_ton=NaN", "usd_per_ton"),
    ])
    def test_non_finite_or_negative_constant_is_bad_input(self, tmp_path, capsys,
                                                          assignment, field):
        code = main(["--out-dir", str(tmp_path), "--set", BUNDLE,
                     "--set", "sweep.sensor_counts=[10]",
                     "--set", "sweep.trials=1", "--set", "sweep.cap_hours=2",
                     "--set", assignment, "sweep"])
        assert code == 1
        assert field in capsys.readouterr().err

    def test_object_set_merges_like_config_file(self, tmp_path):
        # a JSON object given to --set keeps the keys it does not name
        code = main(["--out-dir", str(tmp_path),
                     "--set", 'link.traffic={"reports_per_day": 1440.0}',
                     "--set", "link.tbs_csv=null", "linkbudget"])
        assert code == 0
        report = json.loads((tmp_path / "capacity_report.json").read_text())
        assert report["supportable_sensors"] == 32400

    @pytest.mark.parametrize("source", ["--params", "--set", "--set null"])
    def test_removed_elevation_label_is_rejected(self, tmp_path, capsys, source):
        # the elevation named a Table 1 column and changed no output
        if source == "--params":
            pfile = tmp_path / "p.json"
            pfile.write_text(json.dumps({**asdict(TABLE1_10DEG),
                                         "elevation_deg": 10.0}))
            argv = ["linkbudget", "--params", str(pfile)]
        else:
            value = "null" if source == "--set null" else "10.0"
            argv = ["--set", f"link.params.elevation_deg={value}", "linkbudget"]
        code = main(["--out-dir", str(tmp_path), *argv])
        assert code == 1
        assert ("unknown config key 'link.params.elevation_deg'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, field", [
        (["--set", "link.system_bw_hz=NaN", "linkbudget"], "system_bw_hz"),
        (["--set", "link.ru_duration_s=NaN", "linkbudget"], "ru_duration_s"),
        (["--set", "link.params.bandwidth_hz=NaN", "linkbudget"], "bandwidth_hz"),
        (["linkbudget", "--system-bw-hz", "inf"], "system_bw_hz"),
        (["--set", "link.params.eirp_dbm=NaN", "linkbudget"], "eirp_dbm"),
        (["--set", "link.params.g_over_t_db_k=-Infinity", "linkbudget"],
         "g_over_t_db_k"),
        (["--set", "link.params.pl_scint_db=NaN", "linkbudget"], "pl_scint_db"),
        (["--set", "link.traffic.reports_per_day=Infinity", "linkbudget"],
         "reports_per_day"),
    ])
    def test_non_finite_link_setting_is_bad_input(self, tmp_path, capsys, argv,
                                                  field):
        code = main(["--out-dir", str(tmp_path)] + argv)
        assert code == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (on_bundle("--set", "sweep.trials=5",
                   "simulate", "--incident", "syn-001"), "sweep.trials"),
        (on_bundle("--set", "geo.width_km=3", "sweep"), "geo.width_km"),
        (on_bundle("--set", "link.system_bw_hz=3750.0", "sweep"),
         "link.system_bw_hz"),
        (["--set", "spread.u_max_ms=0.5", "linkbudget"], "spread.u_max_ms"),
        (["--set", "evolution.snap_km=0.1",
          "synth-env", "--spec", "spec.json"], "evolution.snap_km"),
        (["synth-env", "--spec", "spec.json", "--out", "env.json"], "out_dir"),
    ])
    def test_keys_a_command_never_reads_are_rejected(self, tmp_path, capsys,
                                                     argv, key):
        code = main(["--out-dir", str(tmp_path)] + argv)
        assert code == 1
        assert f"{key} is not used by" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["bundle", "--config", "--set"])
    @pytest.mark.parametrize("key, value", [
        ("dt_s", 3600.0), ("margin_km", 0.0), ("detect_at_ignition", True)])
    def test_removed_evolution_key_is_rejected(self, tmp_path, capsys, source,
                                               key, value):
        # the step length is one env hour, prune only dedups and replay
        # always starts at hour 0: none of these is a setting
        bundle = bundled_scenario_path()
        argv = []
        if source == "bundle":
            raw = json.loads(bundle.read_text())
            raw["evolution"][key] = value
            bundle = tmp_path / "bundle.json"
            bundle.write_text(json.dumps(raw))
        elif source == "--config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"evolution": {key: value}}))
            argv = ["--config", str(cfg)]
        else:
            argv = ["--set", f"evolution.{key}={json.dumps(value)}"]
        code = main(["--out-dir", str(tmp_path), "--set",
                     f"paths.scenario_bundle={bundle}", *argv,
                     "simulate", "--incident", "syn-001"])
        assert code == 1
        assert f"unknown config key 'evolution.{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--seed", "3", "linkbudget"], "--seed"),
        (["--workers", "4", "linkbudget"], "--workers"),
        (on_bundle("--seed", "3", "simulate", "--incident", "syn-001"), "--seed"),
        (on_bundle("--workers", "2",
                   "simulate", "--incident", "syn-001", "--deploy", "10"), "--workers"),
        (["--workers", "2", "synth-env", "--spec", "spec.json"], "--workers"),
    ])
    def test_flag_a_command_does_not_read_is_rejected(self, tmp_path, capsys,
                                                      argv, flag):
        code = main(["--out-dir", str(tmp_path)] + argv)
        assert code == 1
        assert f"{flag} is not used by" in capsys.readouterr().err

    def test_unread_key_left_at_its_bundle_value_is_accepted(self, tmp_path):
        # the bundle sets sweep.trials to 30, so this layer changes nothing
        code = main(["--out-dir", str(tmp_path), "--set", BUNDLE,
                     "--set", "sweep.trials=30", "--set", "paths.sensors_csv=null",
                     "--set", "evolution.max_hours=1.0",
                     "simulate", "--incident", "syn-001"])
        assert code == 0

    @pytest.mark.parametrize("argv, text, field", [
        (["--config", "{f}", "linkbudget"], "[1, 2]", "config file"),
        (["synth-env", "--spec", "{f}"], "5", "spec file"),
        (["linkbudget", "--params", "{f}"], '{"bandwidth_hz": "3750"}',
         "link.params.bandwidth_hz"),
        (["linkbudget", "--params", "{f}"], '{"bandwidth_hz": NaN}',
         "bandwidth_hz"),
        (["linkbudget", "--params", "{f}"], "{nope", "link params file"),
    ])
    def test_bad_json_input_file_is_bad_input(self, tmp_path, capsys, argv,
                                              text, field):
        f = tmp_path / "input.json"
        f.write_text(text)
        code = main(["--out-dir", str(tmp_path)]
                     + [a.format(f=f) for a in argv])
        assert code == 1
        assert field in capsys.readouterr().err

    def test_partial_params_file_fills_from_defaults(self, tmp_path):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"distance_km": 35786.0}))
        code = main(["--out-dir", str(tmp_path), "linkbudget",
                     "--params", str(pfile)])
        assert code == 0
        report = json.loads((tmp_path / "capacity_report.json").read_text())
        expected = capacity_report(replace(TABLE1_10DEG, distance_km=35786.0),
                                   PERIODIC_REPORT)
        assert report == asdict(expected)

    def test_flags_are_the_last_layers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp_path / "elsewhere"), "link": {
            "system_bw_hz": 7500.0,
            "traffic": {"reports_per_day": 1.0, "payload_bytes": 1.0}}}))
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path),
                     "--set", "link.system_bw_hz=3750.0", "linkbudget",
                     "--traffic", "event", "--system-bw-hz", "180000"])
        assert code == 0
        report = json.loads((tmp_path / "capacity_report.json").read_text())
        assert report == asdict(capacity_report(TABLE1_10DEG, EVENT_REPORT))

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_bad_input(self, tmp_path, capsys, workers):
        code = main(["--out-dir", str(tmp_path), "--workers", workers,
                     "--set", BUNDLE, "sweep"])
        assert code == 1
        assert "--workers" in capsys.readouterr().err
