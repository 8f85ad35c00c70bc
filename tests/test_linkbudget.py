"""Uplink budget chain: FSPL, CNR, TBS mapping, throughput, sensor headroom."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from emberlink.cli import main
from emberlink.config import DEFAULT_CONFIG, merge
from emberlink.envdata import json_text, read_json, write_json
from emberlink.errors import ValidationError
from emberlink.linkbudget import (EVENT_REPORT, PERIODIC_REPORT, TABLE1_10DEG,
                                  TABLE1_90DEG, LinkInfeasibleError,
                                  LinkParams, TbsMap, TrafficModel,
                                  bits_per_ru, capacity_report, cnr_db,
                                  fspl_db, peak_rate_bps, per_sensor_bps,
                                  supportable_sensors)


class TestFspl:
    def test_frozen_values(self):
        assert fspl_db(40581.0, 1500.0) == pytest.approx(188.13828007603155, rel=1e-15)
        assert fspl_db(35786.0, 1500.0) == pytest.approx(187.0460883330372, rel=1e-15)

    def test_closed_form(self):
        d, f = 1234.5, 678.9
        expected = 32.45 + 20 * math.log10(d) + 20 * math.log10(f)
        assert fspl_db(d, f) == pytest.approx(expected, rel=1e-15)

    def test_distance_monotone(self):
        assert fspl_db(40581.0, 1500.0) > fspl_db(35786.0, 1500.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            fspl_db(0.0, 1500.0)
        with pytest.raises(ValidationError):
            fspl_db(100.0, -1.0)


class TestCnr:
    def test_frozen_values(self):
        assert cnr_db(TABLE1_10DEG) == pytest.approx(8.361407246691272, rel=1e-12)
        assert cnr_db(TABLE1_90DEG) == pytest.approx(9.453598989685617, rel=1e-12)

    def test_budget_composition(self):
        p = TABLE1_10DEG
        expected = ((p.eirp_dbm - 30.0) + p.g_over_t_db_k
                    - fspl_db(p.distance_km, p.freq_mhz)
                    - (0.16 + 3.0 + 2.2 + 3.0)
                    - 10.0 * math.log10(3750.0) + 228.6)
        assert cnr_db(p) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("edit, got", [
        (dict(eirp_dbm=1e308, g_over_t_db_k=1e308), "inf"),
        (dict(pl_atmos_db=1e308, pl_shadow_db=1e308), "-inf"),
        (dict(eirp_dbm=1e308, g_over_t_db_k=1e308, pl_atmos_db=1e308,
              pl_shadow_db=1e308, pl_scint_db=1e308, pl_polar_db=1e308), "inf"),
    ])
    def test_non_finite_budget_is_refused(self, edit, got):
        # each term is finite, but their sum overflows
        p = replace(TABLE1_10DEG, **edit)
        with pytest.raises(ValidationError) as exc:
            cnr_db(p)
        assert str(exc.value) == (
            f"CNR of the link.params budget {asdict(p)} must be finite, got {got}")

    def test_monotone_in_eirp_and_distance(self):
        import dataclasses
        up = dataclasses.replace(TABLE1_10DEG, eirp_dbm=26.0)
        far = dataclasses.replace(TABLE1_10DEG, distance_km=45000.0)
        assert cnr_db(up) > cnr_db(TABLE1_10DEG)
        assert cnr_db(far) < cnr_db(TABLE1_10DEG)


class TestTbs:
    def test_default_map(self):
        assert bits_per_ru(cnr_db(TABLE1_10DEG)) == 144
        assert bits_per_ru(cnr_db(TABLE1_90DEG)) == 144
        assert bits_per_ru(8.0) == 144  # threshold is inclusive

    def test_below_threshold_is_infeasible(self):
        with pytest.raises(LinkInfeasibleError):
            bits_per_ru(7.99)

    def test_infeasible_link_is_bad_input(self):
        # the budget is the user's configuration, so the CLI exits 1 on it
        with pytest.raises(ValidationError, match=r"^CNR 7\.9900 dB is below the "
                           r"lowest TBS threshold \(8\.0 dB\); the link cannot close$"):
            bits_per_ru(7.99)

    def test_multi_row_selection(self):
        tbs = TbsMap([(0.0, 16), (4.0, 56), (8.0, 144)])
        assert bits_per_ru(3.9, tbs) == 16
        assert bits_per_ru(4.0, tbs) == 56
        assert bits_per_ru(100.0, tbs) == 144

    def test_rows_must_strictly_increase(self):
        with pytest.raises(ValidationError):
            TbsMap([(0.0, 16), (0.0, 56)])
        with pytest.raises(ValidationError):
            TbsMap([(0.0, 56), (4.0, 16)])
        with pytest.raises(ValidationError):
            TbsMap([])

    def test_from_csv(self, tmp_path):
        p = tmp_path / "tbs.csv"
        p.write_text("min_cnr_db,bits_per_ru\n0.0,16\n8.0,144\n")
        tbs = TbsMap.from_csv(p)
        assert tbs.rows == [(0.0, 16), (8.0, 144)]

    def test_from_csv_bad_header(self, tmp_path):
        p = tmp_path / "tbs.csv"
        p.write_text("cnr,bits\n0.0,16\n")
        with pytest.raises(ValidationError):
            TbsMap.from_csv(p)

    @pytest.mark.parametrize("rows, where", [
        ([(math.nan, 16)], "row 1 min_cnr_db"),
        ([(0.0, 16), (math.inf, 56)], "row 2 min_cnr_db"),
        ([(0.0, 16.0)], "row 1 bits_per_ru"),
        ([(0.0, -1)], "row 1 bits_per_ru"),
        ([(0.0, True)], "row 1 bits_per_ru"),
        ([("0.0", 16)], "row 1 min_cnr_db"),
        ([(8.0, 10 ** 400)], "row 1 bits_per_ru"),
    ])
    def test_bad_rows_rejected(self, rows, where):
        with pytest.raises(ValidationError, match=f"TBS {where}"):
            TbsMap(rows)

    def test_bit_counts_past_the_largest_float_are_refused(self):
        # an integer compares with a float by its value, so the largest
        # float itself passes and the next integer up does not
        top = int(1.7976931348623157e308)
        assert TbsMap([(8.0, top)]).rows == [(8.0, top)]
        with pytest.raises(ValidationError, match=r"bits_per_ru must be at most 1\.79"):
            TbsMap([(8.0, top + 1)])
        with pytest.raises(ValidationError, match=r"^bits_ru must be at most 1\.79"):
            peak_rate_bps(8 * 10 ** 400)


class TestThroughput:
    def test_peak_rate(self):
        # 48 subcarriers x 144 bits per 32 ms RU
        assert peak_rate_bps(144) == pytest.approx(216000.0)

    def test_non_divisible_bandwidth_rejected(self):
        with pytest.raises(ValidationError):
            peak_rate_bps(144, system_bw_hz=180001.0)

    def test_overflowing_subcarrier_count_is_refused(self):
        # 180 kHz / 1e-320 Hz is past the largest float: refused before round
        with pytest.raises(ValidationError) as exc:
            peak_rate_bps(144, subcarrier_hz=1e-320)
        assert str(exc.value) == ("subcarrier count at system_bw_hz=180000.0 and "
                                  "subcarrier_hz=1e-320 must be finite and >= 0, got inf")

    def test_per_sensor_rates(self):
        assert per_sensor_bps(PERIODIC_REPORT) == pytest.approx(
            50.0 * 8.0 * 2.0 / 86400.0, rel=1e-15)
        assert per_sensor_bps(EVENT_REPORT) == pytest.approx(
            50.0 * 8.0 / 60.0, rel=1e-15)

    def test_supportable_sensors_exact(self):
        assert supportable_sensors(216000.0, per_sensor_bps(PERIODIC_REPORT)) == 23328000
        assert supportable_sensors(216000.0, per_sensor_bps(EVENT_REPORT)) == 32400

    def test_supportable_floor(self):
        assert supportable_sensors(10.0, 3.0) == 3
        with pytest.raises(ValidationError):
            supportable_sensors(10.0, 0.0)


class TestParams:
    def test_validation(self):
        import dataclasses
        with pytest.raises(ValidationError):
            dataclasses.replace(TABLE1_10DEG, distance_km=0.0)
        with pytest.raises(ValidationError):
            dataclasses.replace(TABLE1_10DEG, pl_shadow_db=-0.1)

    def test_table1_params_files_match_constants(self, tmp_path):
        # a params file of each Table 1 case reaches the budget as
        # linkbudget --params lays it over the link.params defaults
        for name, expected in (("10deg", TABLE1_10DEG), ("90deg", TABLE1_90DEG)):
            params = write_json(asdict(expected), tmp_path / f"table1-{name}.json")
            out = tmp_path / name
            assert main(["--out-dir", str(out), "linkbudget", "--params", str(params)]) == 0
            report = json.loads((out / "capacity_report.json").read_text())
            assert report == asdict(capacity_report(expected, PERIODIC_REPORT))
            layer = {"link": {"params": read_json(params, "link params file")}}
            assert LinkParams(**merge(DEFAULT_CONFIG, layer)["link"]["params"]) == expected

    def test_params_file_rejects_unknown_fields(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"eirp_dbm": 23.0, "bogus": 1}))
        assert main(["--out-dir", str(tmp_path), "linkbudget", "--params", str(p)]) == 1
        assert "link.params.bogus" in capsys.readouterr().err


class TestReport:
    def test_full_chain(self):
        rep = capacity_report(TABLE1_10DEG, PERIODIC_REPORT)
        assert rep.bits_per_ru == 144
        assert rep.peak_rate_bps == pytest.approx(216000.0)
        assert rep.supportable_sensors == 23328000

    def test_event_chain(self):
        rep = capacity_report(TABLE1_10DEG, EVENT_REPORT)
        assert rep.supportable_sensors == 32400

    def test_json_round_trip(self):
        rep = capacity_report(TABLE1_90DEG, PERIODIC_REPORT)
        parsed = json.loads(json_text(asdict(rep)))
        assert parsed["bits_per_ru"] == 144
        assert parsed["supportable_sensors"] == rep.supportable_sensors

    def test_numpy_fields_report_is_strict_json(self):
        # the checks accept numpy scalars, and the budget then computes in them
        params = replace(TABLE1_10DEG, eirp_dbm=np.float32(23.0), distance_km=np.int64(40581))
        report = asdict(capacity_report(params, PERIODIC_REPORT))
        assert isinstance(report["cnr_db"], np.float32)

        def refuse(constant):
            raise AssertionError(f"not strict JSON: {constant}")

        parsed = json.loads(json_text(report), parse_constant=refuse)
        assert parsed == {k: float(v) if isinstance(v, np.floating) else v
                          for k, v in report.items()}
        assert all(type(v) in (int, float) for v in parsed.values())

    def test_traffic_validation(self):
        with pytest.raises(ValidationError):
            TrafficModel(reports_per_day=0.0, payload_bytes=50.0)
        with pytest.raises(ValidationError):
            TrafficModel(reports_per_day=2.0, payload_bytes=-1.0)

    @pytest.mark.parametrize("payload", ["1e-300", "1e-320"])
    def test_demand_too_small_to_count_against(self, tmp_path, capsys, payload):
        # 1e-300 bytes makes the count overflow; at 1e-320 the rate underflows
        code = main(["--out-dir", str(tmp_path), "--set",
                     f"link.traffic.payload_bytes={payload}", "linkbudget"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: traffic payload_bytes=") and "runtime" not in err
        assert not (tmp_path / "capacity_report.json").exists()

    def test_smallest_countable_demand(self):
        # a tiny demand that still counts keeps its exact floor
        traffic = TrafficModel(reports_per_day=1.0, payload_bytes=1e-290)
        rep = capacity_report(TABLE1_10DEG, traffic)
        assert rep.supportable_sensors == math.floor(
            rep.peak_rate_bps / per_sensor_bps(traffic))
