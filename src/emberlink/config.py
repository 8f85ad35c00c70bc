"""Settings: the default configuration, its checked merge, and the
dataclasses built from a resolved configuration.

Every layer laid over DEFAULT_CONFIG goes through merge(), which rejects
unknown keys and values of another kind than their default, naming the
dotted key. A scenario bundle's sections are such a layer, as are the
CLI's --config file, --set assignments and flags, so the library
(harness.load_season_bundle) and the CLI build their configs one way.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass

from .carbon import USD_PER_TON
from .envdata import CALIFORNIA, check_fields, describe_kind, fits_kind
from .errors import ValidationError, check_range, check_seed
from .evolution import EvolutionConfig
from .firekernel import DEFAULT_PARAMS, SpreadParams
from .linkbudget import (PERIODIC_REPORT, RU_DURATION_S, SYSTEM_BANDWIDTH_HZ,
                         TABLE1_10DEG)

BASELINE_MODES = ("historical", "simulated-zero-sensor")
# an example value of every SweepConfig field, for its kind (see fits_kind)
_SWEEP_KINDS = {"sensor_counts": [0], "trials": 0, "base_seed": 0, "usd_per_ton": 0.0,
                "unit_sensor_cost_usd": [0.0], "cap_hours": 0.0, "baseline": ""}


@dataclass(frozen=True)
class SweepConfig:
    """Sweep settings: which counts, how many trials, how to price."""

    sensor_counts: tuple[int, ...]
    trials: int = 10
    base_seed: int = 0
    usd_per_ton: float = USD_PER_TON
    unit_sensor_cost_usd: tuple[float, ...] = (10.0, 20.0, 50.0, 100.0)
    cap_hours: float = 168.0
    baseline: str = "simulated-zero-sensor"

    def __post_init__(self) -> None:
        fields = dict(vars(self))
        for name in ("sensor_counts", "unit_sensor_cost_usd"):
            try:  # a tuple or numpy array is checked as the list it holds
                fields[name] = list(fields[name])
            except TypeError:
                pass  # not a sequence: check_fields names the field
        check_fields("sweep config", fields, _SWEEP_KINDS)
        counts = tuple(map(int, fields["sensor_counts"]))
        object.__setattr__(self, "sensor_counts", counts)
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "base_seed", int(self.base_seed))
        object.__setattr__(self, "unit_sensor_cost_usd",
                           tuple(map(float, fields["unit_sensor_cost_usd"])))
        if not counts:
            raise ValidationError("sensor_counts must be non-empty")
        for c in counts:
            check_range("sensor_counts", c, integer=True)
        if list(counts) != sorted(counts):
            raise ValidationError(f"sensor_counts must be ascending, got {counts}")
        check_range("trials", self.trials, 1, integer=True)
        # trial t deploys with seed base_seed + t
        check_seed("base_seed", self.base_seed)
        check_seed("base_seed + trials - 1", self.base_seed + self.trials - 1)
        check_range("usd_per_ton", self.usd_per_ton)
        if not self.unit_sensor_cost_usd:
            raise ValidationError("unit_sensor_cost_usd must be non-empty")
        for c in self.unit_sensor_cost_usd:
            check_range("unit_sensor_cost_usd", c)
        if self.baseline not in BASELINE_MODES:
            raise ValidationError(
                f"baseline must be one of {BASELINE_MODES}, got '{self.baseline}'")
        check_range("cap_hours", self.cap_hours, finite=False)


DEFAULT_CONFIG: dict = {
    "paths": {
        "scenario_bundle": None,
        "env_manifest": None,
        "biomass_manifest": None,
        "incidents_csv": None,
        "sensors_csv": None,
    },
    "geo": asdict(CALIFORNIA),
    "spread": asdict(DEFAULT_PARAMS),
    "evolution": {k: v for k, v in asdict(EvolutionConfig()).items()
                  if k != "params"},
    "sweep": {k: list(v) if isinstance(v, tuple) else v for k, v in
              asdict(SweepConfig(sensor_counts=(100000, 1000000))).items()},
    "link": {
        "params": asdict(TABLE1_10DEG),
        "traffic": asdict(PERIODIC_REPORT),
        "system_bw_hz": SYSTEM_BANDWIDTH_HZ,
        "ru_duration_s": RU_DURATION_S,
        "tbs_csv": None,
    },
    "out_dir": "out",
}


def merge(base: dict, override: dict, path: str = "",
          defaults: dict = DEFAULT_CONFIG) -> dict:
    """base with override laid over it, key by key; every key must exist in
    defaults (the DEFAULT_CONFIG section at path) and every value must be
    of its default's kind (see envdata.fits_kind)."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValidationError(f"unknown config key '{where}'")
        default = defaults[key]
        if isinstance(default, dict) and isinstance(value, dict):
            out[key] = merge(base[key], value, where, default)
        elif value is None and default is None:
            out[key] = None
        elif fits_kind(default, value):
            out[key] = copy.deepcopy(value)
        else:
            raise ValidationError(
                f"config key '{where}' must be {describe_kind(default)}, got {value!r}")
    return out


def bundle_config(raw: dict) -> dict:
    """DEFAULT_CONFIG with a parsed scenario bundle's sweep and evolution
    sections laid over it."""
    return merge(DEFAULT_CONFIG, {"sweep": raw["sweep"],
                                  "evolution": raw["evolution"]})


def evolution_config(config: dict) -> EvolutionConfig:
    return EvolutionConfig(params=SpreadParams(**config["spread"]),
                           **config["evolution"])


def sweep_config(config: dict) -> SweepConfig:
    return SweepConfig(**config["sweep"])
