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
import numbers
from dataclasses import asdict, dataclass

from .envdata import CALIFORNIA
from .errors import ValidationError
from .evolution import EvolutionConfig
from .firekernel import DEFAULT_PARAMS, SpreadParams
from .linkbudget import (PERIODIC_REPORT, RU_DURATION_S, SYSTEM_BANDWIDTH_HZ,
                         TABLE1_10DEG)

BASELINE_MODES = ("historical", "simulated-zero-sensor")


@dataclass(frozen=True)
class SweepConfig:
    """Sweep settings: which counts, how many trials, how to price."""

    sensor_counts: tuple[int, ...]
    trials: int = 10
    base_seed: int = 0
    usd_per_ton: float = 20.0
    unit_sensor_cost_usd: tuple[float, ...] = (10.0, 20.0, 50.0, 100.0)
    cap_hours: float = 168.0
    baseline: str = "simulated-zero-sensor"

    def __post_init__(self) -> None:
        counts = tuple(self.sensor_counts)
        for name, items in (("sensor_counts", counts), ("trials", (self.trials,)),
                            ("base_seed", (self.base_seed,))):
            # Python or numpy integers, never a bool or a float
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                       for v in items):
                raise ValidationError(f"{name} must be integral, got {getattr(self, name)!r}")
        counts = tuple(map(int, counts))
        object.__setattr__(self, "sensor_counts", counts)
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "base_seed", int(self.base_seed))
        object.__setattr__(self, "unit_sensor_cost_usd",
                           tuple(float(c) for c in self.unit_sensor_cost_usd))
        if not counts:
            raise ValidationError("sensor_counts must be non-empty")
        if any(c < 0 for c in counts):
            raise ValidationError(f"sensor_counts must be >= 0, got {counts}")
        if list(counts) != sorted(counts):
            raise ValidationError(f"sensor_counts must be ascending, got {counts}")
        # negated comparisons, so that NaN fails them too
        if not self.trials >= 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not self.base_seed >= 0:
            raise ValidationError(f"base_seed must be >= 0, got {self.base_seed}")
        if not 0.0 <= self.usd_per_ton < float("inf"):
            raise ValidationError(
                f"usd_per_ton must be finite and >= 0, got {self.usd_per_ton}")
        if not self.unit_sensor_cost_usd:
            raise ValidationError("unit_sensor_cost_usd must be non-empty")
        if not all(0.0 <= c < float("inf") for c in self.unit_sensor_cost_usd):
            raise ValidationError(
                f"unit_sensor_cost_usd must be finite and >= 0, "
                f"got {self.unit_sensor_cost_usd}")
        if self.baseline not in BASELINE_MODES:
            raise ValidationError(
                f"baseline must be one of {BASELINE_MODES}, got '{self.baseline}'")
        if not self.cap_hours >= 0:
            raise ValidationError(f"cap_hours must be >= 0, got {self.cap_hours}")


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


# keys with a non-null default whose dataclass field also takes None
_NULLABLE = ("link.params.elevation_deg",)


def _kind(default) -> str:
    """Name of the kind of value a key with this default takes."""
    if default is None:
        return "a string"
    if isinstance(default, int):
        return "an integer"
    if isinstance(default, float):
        return "a number"
    if isinstance(default, list):
        return f"a list of items that are each {_kind(default[0])}"
    return "a string" if isinstance(default, str) else "an object"


def _fits(default, value) -> bool:
    """Whether value is of its default's kind: no key takes a bool, an
    integer default takes only integers, a float default any number, a
    list default a list of its items' kind, a null default (a path) a
    string."""
    if isinstance(value, bool):
        return False
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(default[0], v) for v in value)
    return isinstance(value, str if default is None else type(default))


def merge(base: dict, override: dict, path: str = "",
          defaults: dict = DEFAULT_CONFIG) -> dict:
    """base with override laid over it, key by key; every key must exist in
    defaults (the DEFAULT_CONFIG section at path) and every value must be
    of its default's kind."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValidationError(f"unknown config key '{where}'")
        default = defaults[key]
        if isinstance(default, dict) and isinstance(value, dict):
            out[key] = merge(base[key], value, where, default)
        elif value is None and (default is None or where in _NULLABLE):
            out[key] = None
        elif _fits(default, value):
            out[key] = copy.deepcopy(value)
        else:
            raise ValidationError(
                f"config key '{where}' must be {_kind(default)}, got {value!r}")
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
