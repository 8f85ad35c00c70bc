"""GEO NB-IoT uplink budget: CNR, resource-unit capacity, sensor headroom.

The chain: free-space path loss from slant distance and carrier frequency,
CNR from the dB budget (EIRP, G/T, four fixed losses, noise bandwidth,
Boltzmann constant), a threshold table mapping CNR to bits per resource
unit, peak system throughput from the subcarrier count and RU duration,
and finally how many reporting sensors that throughput supports.

The FSPL constant is the textbook 32.45 for km/MHz units. Reference CNR
figures for the two bundled elevation scenarios reproduce to about
0.01 dB; the residual comes from the rounded constant (32.4478 exact).
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .envdata import csv_cell, read_csv
from .errors import ValidationError, check_range

BOLTZMANN_DBW_K_HZ = -228.6
SYSTEM_BANDWIDTH_HZ = 180000.0
RU_DURATION_S = 0.032
SECONDS_PER_DAY = 86400.0


def _check_bits(name: str, bits) -> None:
    """check_range's integer rule, and at most the largest float."""
    check_range(name, bits, integer=True)
    if bits > sys.float_info.max:  # exact: an int compares by its value
        raise ValidationError(f"{name} must be at most {sys.float_info.max!r}, got {bits!r}")


class LinkInfeasibleError(ValidationError):
    """CNR fell below the lowest modulation threshold; the link cannot close.
    The budget is the user's configuration, so this is bad input."""


@dataclass(frozen=True)
class LinkParams:
    """Uplink budget inputs."""

    eirp_dbm: float
    g_over_t_db_k: float
    bandwidth_hz: float
    freq_mhz: float
    distance_km: float
    pl_atmos_db: float
    pl_shadow_db: float
    pl_scint_db: float
    pl_polar_db: float

    def __post_init__(self) -> None:
        for name in ("eirp_dbm", "g_over_t_db_k"):
            check_range(name, getattr(self, name), -math.inf)
        for name in ("bandwidth_hz", "freq_mhz", "distance_km"):
            check_range(name, getattr(self, name), above=True)
        for name in ("pl_atmos_db", "pl_shadow_db", "pl_scint_db", "pl_polar_db"):
            check_range(name, getattr(self, name))


# worst case: lowest elevation, longest slant range
TABLE1_10DEG = LinkParams(
    eirp_dbm=23.0, g_over_t_db_k=19.0, bandwidth_hz=3750.0, freq_mhz=1500.0,
    distance_km=40581.0, pl_atmos_db=0.16, pl_shadow_db=3.0,
    pl_scint_db=2.2, pl_polar_db=3.0)

# best case: satellite overhead
TABLE1_90DEG = LinkParams(
    eirp_dbm=23.0, g_over_t_db_k=19.0, bandwidth_hz=3750.0, freq_mhz=1500.0,
    distance_km=35786.0, pl_atmos_db=0.16, pl_shadow_db=3.0,
    pl_scint_db=2.2, pl_polar_db=3.0)


@dataclass(frozen=True)
class TrafficModel:
    """Average sensor uplink demand."""

    reports_per_day: float
    payload_bytes: float

    def __post_init__(self) -> None:
        for name in ("reports_per_day", "payload_bytes"):
            check_range(name, getattr(self, name), above=True)


PERIODIC_REPORT = TrafficModel(reports_per_day=2.0, payload_bytes=50.0)
EVENT_REPORT = TrafficModel(reports_per_day=1440.0, payload_bytes=50.0)


class TbsMap:
    """CNR thresholds to bits per resource unit, ascending in both."""

    def __init__(self, rows: list[tuple[float, int]]):
        if not rows:
            raise ValidationError("TBS map must have at least one row")
        for i, (c, b) in enumerate(rows, 1):
            check_range(f"TBS row {i} min_cnr_db", c, -math.inf)
            _check_bits(f"TBS row {i} bits_per_ru", b)
        for (c0, b0), (c1, b1) in zip(rows, rows[1:]):
            if not (c0 < c1 and b0 < b1):
                raise ValidationError(
                    f"TBS rows must strictly increase, got ({c0},{b0}) then ({c1},{b1})")
        self.rows = [(float(c), int(b)) for c, b in rows]

    @classmethod
    def from_csv(cls, path: str | Path) -> "TbsMap":
        """The map of a min_cnr_db,bits_per_ru CSV file (see envdata.read_csv)."""
        rows = []
        for line, (cnr, bits) in read_csv(path, "TBS file", ("min_cnr_db", "bits_per_ru")):
            where = f"TBS file {path} row {line}"
            rows.append((csv_cell(where, "min_cnr_db", cnr, float, -math.inf),
                         csv_cell(where, "bits_per_ru", bits, int, 0)))
        try:
            return cls(rows)
        except ValidationError as e:
            raise ValidationError(f"TBS file {path}: {e}") from None


# single anchor: the uplink single-tone TBS entry both scenarios land on
DEFAULT_TBS = TbsMap([(8.0, 144)])


@dataclass(frozen=True)
class CapacityReport:
    cnr_db: float
    bits_per_ru: int
    peak_rate_bps: float
    per_sensor_bps: float
    supportable_sensors: int


def fspl_db(distance_km: float, freq_mhz: float) -> float:
    """Free-space path loss, km/MHz form: 32.45 + 20 log10 d + 20 log10 f."""
    check_range("distance_km", distance_km, above=True)
    check_range("freq_mhz", freq_mhz, above=True)
    return 32.45 + 20.0 * math.log10(distance_km) + 20.0 * math.log10(freq_mhz)


def cnr_db(p: LinkParams) -> float:
    """Uplink carrier-to-noise ratio in dB from the full budget, which must
    be finite: dB terms near the largest float can sum past it."""
    cnr = ((p.eirp_dbm - 30.0) + p.g_over_t_db_k
           - fspl_db(p.distance_km, p.freq_mhz)
           - p.pl_atmos_db - p.pl_shadow_db - p.pl_scint_db - p.pl_polar_db
           - 10.0 * math.log10(p.bandwidth_hz) - BOLTZMANN_DBW_K_HZ)
    check_range(f"CNR of the link.params budget {asdict(p)}", cnr, -math.inf)
    return cnr


def bits_per_ru(cnr: float, tbs: TbsMap = DEFAULT_TBS) -> int:
    """Largest TBS row whose threshold the CNR meets."""
    best: int | None = None
    for min_cnr, bits in tbs.rows:
        if cnr >= min_cnr:
            best = bits
    if best is None:
        raise LinkInfeasibleError(
            f"CNR {cnr:.4f} dB is below the lowest TBS threshold "
            f"({tbs.rows[0][0]} dB); the link cannot close")
    return best


def peak_rate_bps(bits_ru: int, system_bw_hz: float = SYSTEM_BANDWIDTH_HZ,
                  subcarrier_hz: float = 3750.0,
                  ru_duration_s: float = RU_DURATION_S) -> float:
    """System peak throughput: all subcarriers sending one RU per duration."""
    _check_bits("bits_ru", bits_ru)
    for name, value in zip(("system_bw_hz", "subcarrier_hz", "ru_duration_s"),
                           (system_bw_hz, subcarrier_hz, ru_duration_s)):
        check_range(name, value, above=True)
    n_sub = system_bw_hz / subcarrier_hz
    check_range(f"subcarrier count at system_bw_hz={system_bw_hz!r} and "
                f"subcarrier_hz={subcarrier_hz!r}", n_sub)
    if abs(n_sub - round(n_sub)) > 1e-9:
        raise ValidationError(
            f"system bandwidth {system_bw_hz} is not a whole number of "
            f"{subcarrier_hz} Hz subcarriers")
    peak = bits_ru * round(n_sub) / ru_duration_s
    check_range(f"peak rate at system_bw_hz={system_bw_hz!r} and "
                f"ru_duration_s={ru_duration_s!r}", peak)
    return peak


def per_sensor_bps(t: TrafficModel) -> float:
    """Average uplink rate of one sensor, spread uniformly over the day."""
    return t.payload_bytes * 8.0 * t.reports_per_day / SECONDS_PER_DAY


def supportable_sensors(peak_bps: float, per_sensor: float) -> int:
    """How many sensors the peak throughput carries at the given demand."""
    check_range("per_sensor", per_sensor, above=True)
    check_range("peak_bps", peak_bps)
    return math.floor(peak_bps / per_sensor)


def capacity_report(p: LinkParams, traffic: TrafficModel,
                    tbs: TbsMap = DEFAULT_TBS,
                    system_bw_hz: float = SYSTEM_BANDWIDTH_HZ,
                    ru_duration_s: float = RU_DURATION_S) -> CapacityReport:
    """Full chain from link params and traffic model to sensor headroom."""
    cnr = cnr_db(p)
    bits = bits_per_ru(cnr, tbs)
    peak = peak_rate_bps(bits, system_bw_hz, p.bandwidth_hz, ru_duration_s)
    per = per_sensor_bps(traffic)
    # a demand whose rate underflows to 0, or whose count overflows
    if not (per > 0 and peak / per < math.inf):
        raise ValidationError(
            f"traffic payload_bytes={traffic.payload_bytes!r} at reports_per_day="
            f"{traffic.reports_per_day!r} is {per!r} bps per sensor, too small a "
            f"demand to count sensors against the {peak!r} bps peak")
    return CapacityReport(cnr_db=cnr, bits_per_ru=bits, peak_rate_bps=peak,
                          per_sensor_bps=per,
                          supportable_sensors=supportable_sensors(peak, per))
