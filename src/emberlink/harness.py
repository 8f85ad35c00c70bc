"""Sensor-count sweeps over a season of incidents, and their CSV/JSON outputs.

A sweep replays every incident of a season against a grid of sensor counts
and deployment trials, totals burned hours, burned area and carbon cost per
(count, trial), and measures savings against a baseline: historical totals
from the incident file, or the same replay against an empty field. It
emits plot-ready per-trial and per-count CSVs plus a JSON manifest of every
effective setting and seed.

Fire growth does not depend on sensors, so each incident's circle
trajectory is computed once (optionally across worker processes) and
detection is replayed per deployment, the zero-sensor baseline included;
outputs are reduced in (count, trial, incident) order and are
byte-identical for any worker count.
"""

from __future__ import annotations

import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path

from . import __version__
from .carbon import average_biomass, carbon_price, emission_tons, savings
from .envdata import (BiomassGrid, EnvGrid, Incident, SynthSpec,
                      check_biomass_alignment, synth_biomass, synth_env)
from .errors import ValidationError
from .evolution import (BurnCircle, EvolutionConfig, IncidentResult,
                        circle_trajectory, replay_detection)
from .sensors import SensorField, deploy_uniform

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
        counts = tuple(int(c) for c in self.sensor_counts)
        object.__setattr__(self, "sensor_counts", counts)
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


@dataclass(frozen=True)
class SeasonTotals:
    """Season aggregates; sums run in incident order."""

    burned_hours: float
    burned_area_km2: float
    carbon_tons: float
    carbon_price_usd: float
    n_incidents: int
    n_detected: int


@dataclass(frozen=True)
class SweepRow:
    """One (sensor count, trial) season outcome; savings align with the
    configured unit costs."""

    n_sensors: int
    trial: int
    burned_hours: float
    burned_area_km2: float
    carbon_tons: float
    carbon_price_usd: float
    savings_usd: tuple[float, ...]


@dataclass(frozen=True)
class SummaryRow:
    """Per-count means over trials."""

    n_sensors: int
    burned_hours: float
    burned_area_km2: float
    carbon_tons: float
    carbon_price_usd: float
    savings_usd: tuple[float, ...]


def _replay_season(incidents: list[Incident],
                   trajectories: list[list[BurnCircle]], field_: SensorField,
                   bio: BiomassGrid, evo: EvolutionConfig, usd_per_ton: float,
                   ) -> tuple[list[IncidentResult], SeasonTotals]:
    """Replay each incident's trajectory against one field; totals sum in
    incident order."""
    results = [replay_detection(inc, circles, field_, evo)
               for inc, circles in zip(incidents, trajectories, strict=True)]
    hours = 0.0
    area = 0.0
    tons = 0.0
    detected = 0
    for r in results:
        hours += r.burned_hours
        area += r.burned_area_km2
        tons += emission_tons(r.burned_area_km2, average_biomass(r.circle, bio))
        detected += int(r.detected)
    return results, SeasonTotals(
        burned_hours=hours, burned_area_km2=area, carbon_tons=tons,
        carbon_price_usd=carbon_price(tons, usd_per_ton),
        n_incidents=len(results), n_detected=detected)


def baseline_totals(incidents: list[Incident],
                    trajectories: list[list[BurnCircle]] | None,
                    bio: BiomassGrid, mode: str, cfg: EvolutionConfig,
                    usd_per_ton: float = 20.0) -> SeasonTotals:
    """Reference totals the sweep savings are measured against.

    historical            sum the incident file's own duration/area fields;
                          carbon uses the grid-wide mean biomass over the
                          total area (the season-level accounting shortcut);
                          trajectories are unused and may be None
    simulated-zero-sensor replay each incident's circle trajectory (built
                          with cfg, one per incident, in order) against an
                          empty field, to the cap
    """
    if mode == "historical":
        hours = 0.0
        area = 0.0
        for inc in incidents:
            if inc.historical_burn_hours is None or inc.historical_area_km2 is None:
                raise ValidationError(
                    f"incident {inc.id} lacks contained/area history; "
                    f"historical baseline needs both columns")
            hours += inc.historical_burn_hours
            area += inc.historical_area_km2
        tons = emission_tons(area, float(bio.values.mean()))
        return SeasonTotals(burned_hours=hours, burned_area_km2=area,
                            carbon_tons=tons,
                            carbon_price_usd=carbon_price(tons, usd_per_ton),
                            n_incidents=len(incidents), n_detected=0)
    if mode == "simulated-zero-sensor":
        if trajectories is None:
            raise ValidationError(
                "simulated-zero-sensor baseline needs the incident trajectories")
        _, totals = _replay_season(incidents, trajectories,
                                   SensorField(positions=[]), bio, cfg,
                                   usd_per_ton)
        return totals
    raise ValidationError(f"baseline must be one of {BASELINE_MODES}, got '{mode}'")


# worker-process context for trajectory tasks, set once per worker
_TRAJ_CTX: tuple[EnvGrid, EvolutionConfig] | None = None


def _traj_init(env: EnvGrid, cfg: EvolutionConfig) -> None:
    global _TRAJ_CTX
    _TRAJ_CTX = (env, cfg)


def _traj_task(item: tuple[int, Incident]) -> tuple[int, list[BurnCircle]]:
    idx, incident = item
    assert _TRAJ_CTX is not None
    env, cfg = _TRAJ_CTX
    return idx, circle_trajectory(incident, env, cfg)


def _trajectories(incidents: list[Incident], env: EnvGrid,
                  cfg: EvolutionConfig, workers: int) -> list[list[BurnCircle]]:
    if workers <= 1:
        return [circle_trajectory(inc, env, cfg) for inc in incidents]
    out: list[list[BurnCircle] | None] = [None] * len(incidents)
    with ProcessPoolExecutor(max_workers=workers, initializer=_traj_init,
                             initargs=(env, cfg)) as pool:
        for idx, circles in pool.map(_traj_task, enumerate(incidents)):
            out[idx] = circles
    return out  # type: ignore[return-value]


def sweep(incidents: list[Incident], env: EnvGrid, bio: BiomassGrid,
          cfg: SweepConfig, evolution: EvolutionConfig = EvolutionConfig(),
          workers: int = 1,
          ) -> tuple[list[SweepRow], list[SummaryRow], dict]:
    """Season outcomes across sensor counts and deployment trials.

    Trial t of every count deploys with seed base_seed + t, so counts are
    compared on common random numbers; results and CSVs are deterministic
    for a fixed config, independent of the worker count. At most one
    worker process runs per incident and per CPU; manifest["workers"]
    records the count used.
    """
    check_biomass_alignment(bio, env)
    evo = replace(evolution, max_hours=cfg.cap_hours)
    workers = max(1, min(workers, len(incidents), os.cpu_count() or 1))
    trajectories = _trajectories(incidents, env, evo, workers)
    base = baseline_totals(incidents, trajectories, bio, cfg.baseline, evo,
                           cfg.usd_per_ton)
    rows: list[SweepRow] = []
    for count in cfg.sensor_counts:
        for trial in range(cfg.trials):
            field_ = deploy_uniform(count, env.rect, cfg.base_seed + trial)
            _, totals = _replay_season(incidents, trajectories, field_, bio,
                                       evo, cfg.usd_per_ton)
            rows.append(SweepRow(
                n_sensors=count, trial=trial,
                burned_hours=totals.burned_hours,
                burned_area_km2=totals.burned_area_km2,
                carbon_tons=totals.carbon_tons,
                carbon_price_usd=totals.carbon_price_usd,
                savings_usd=tuple(
                    savings(base.carbon_price_usd, totals.carbon_price_usd,
                            count, c).savings_usd
                    for c in cfg.unit_sensor_cost_usd)))

    summary: list[SummaryRow] = []
    for count in cfg.sensor_counts:
        group = [r for r in rows if r.n_sensors == count]
        n = len(group)
        summary.append(SummaryRow(
            n_sensors=count,
            burned_hours=sum(r.burned_hours for r in group) / n,
            burned_area_km2=sum(r.burned_area_km2 for r in group) / n,
            carbon_tons=sum(r.carbon_tons for r in group) / n,
            carbon_price_usd=sum(r.carbon_price_usd for r in group) / n,
            savings_usd=tuple(sum(r.savings_usd[i] for r in group) / n
                              for i in range(len(cfg.unit_sensor_cost_usd)))))

    manifest = {
        "version": __version__,
        "sweep": asdict(cfg),
        "evolution": asdict(evo),
        "deployment_seeds": [cfg.base_seed + t for t in range(cfg.trials)],
        "baseline": asdict(base),
        "env": {"nx": env.nx, "ny": env.ny, "nt": env.nt,
                "spacing_km": env.spacing_km, "origin": list(env.origin)},
        "biomass": {"nx": bio.nx, "ny": bio.ny, "spacing_km": bio.spacing_km,
                    "origin": list(bio.origin)},
        "n_incidents": len(incidents),
        "workers": workers,
        "trials_note": "rows are per-trial; summary rows average over trials",
    }
    return rows, summary, manifest


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _cost_label(cost: float) -> str:
    return f"cost{int(cost)}" if float(cost).is_integer() else f"cost{cost!r}"


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


# os.umask can only be read by setting it, which would race with other
# threads creating files, so it is read once at import
_FILE_MODE = 0o666 & ~_read_umask()


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write via a temp file and rename, so readers never see partials.

    The temp file is unique per call, so concurrent writers to one path
    never share it; the last rename wins and no temp file is left behind.
    """
    fpath = Path(path)
    fpath.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=fpath.parent, prefix=fpath.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, _FILE_MODE)  # mkstemp creates the file as 0600
        os.replace(tmp, fpath)
    except BaseException:
        os.unlink(tmp)
        raise
    return fpath


def write_sweep_csv(rows: list[SweepRow], costs: tuple[float, ...],
                    path: str | Path) -> Path:
    header = ["n_sensors", "trial", "burned_hours", "burned_area_km2",
              "carbon_tons", "carbon_price_usd"]
    header += [f"savings_usd@{_cost_label(c)}" for c in costs]
    lines = [",".join(header)]
    for r in rows:
        cells = [str(r.n_sensors), str(r.trial), _fmt(r.burned_hours),
                 _fmt(r.burned_area_km2), _fmt(r.carbon_tons),
                 _fmt(r.carbon_price_usd)]
        cells += [_fmt(s) for s in r.savings_usd]
        lines.append(",".join(cells))
    return atomic_write_text(path, "\n".join(lines) + "\n")


def write_summary_csv(summary: list[SummaryRow], costs: tuple[float, ...],
                      path: str | Path) -> Path:
    header = ["n_sensors", "mean_burned_hours", "mean_burned_area_km2",
              "mean_carbon_tons", "mean_carbon_price_usd"]
    header += [f"mean_savings_usd@{_cost_label(c)}" for c in costs]
    lines = [",".join(header)]
    for r in summary:
        cells = [str(r.n_sensors), _fmt(r.burned_hours), _fmt(r.burned_area_km2),
                 _fmt(r.carbon_tons), _fmt(r.carbon_price_usd)]
        cells += [_fmt(s) for s in r.savings_usd]
        lines.append(",".join(cells))
    return atomic_write_text(path, "\n".join(lines) + "\n")


def write_manifest(manifest: dict, path: str | Path) -> Path:
    return atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# bundled synthetic scenario
# ---------------------------------------------------------------------------

def bundled_scenario_path() -> Path:
    """Path of the packaged synthetic season bundle."""
    return Path(str(resources.files("emberlink").joinpath(
        "data/synthetic_season.json")))


def read_season_bundle(path: str | Path) -> dict:
    """Parsed scenario file, checked for its top-level fields; nothing
    is synthesized."""
    fpath = Path(path)
    if not fpath.is_file():
        raise ValidationError(f"scenario bundle missing: {fpath}")
    try:
        raw = json.loads(fpath.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario bundle {fpath} is not valid JSON: {exc}") from exc
    for key in ("env", "env_seed", "biomass", "incidents", "evolution", "sweep"):
        if key not in raw:
            raise ValidationError(f"scenario bundle missing field '{key}'")
    return raw


def load_season_bundle(path: str | Path,
                       ) -> tuple[list[Incident], EnvGrid, BiomassGrid,
                                  SweepConfig, EvolutionConfig]:
    """Materialize a self-contained scenario file.

    The bundle stores synthesis specs and seeds rather than rasters; grids
    regenerate deterministically on load.
    """
    raw = read_season_bundle(path)
    env = synth_env(SynthSpec.from_dict(raw["env"]), int(raw["env_seed"]))
    b = raw["biomass"]
    for key in ("nx", "ny", "spacing_km", "lo", "hi", "seed"):
        if key not in b:
            raise ValidationError(f"scenario bundle biomass missing field '{key}'")
    bio = synth_biomass(nx=int(b["nx"]), ny=int(b["ny"]),
                        spacing_km=float(b["spacing_km"]),
                        lo=float(b["lo"]), hi=float(b["hi"]),
                        seed=int(b["seed"]),
                        origin=tuple(b.get("origin", (0.0, 0.0))))
    incidents = []
    for n, item in enumerate(raw["incidents"]):
        for key in ("id", "start_hour", "x_km", "y_km"):
            if key not in item:
                raise ValidationError(
                    f"scenario bundle incident #{n} missing field '{key}'")
        xy = (float(item["x_km"]), float(item["y_km"]))
        if not env.rect.contains(xy):
            raise ValidationError(
                f"scenario bundle incident {item['id']}: ignition {xy} "
                f"outside the grid rectangle")
        start = int(item["start_hour"])
        if not 0 <= start < env.nt:
            raise ValidationError(
                f"scenario bundle incident {item['id']}: start hour {start} "
                f"outside [0, {env.nt})")
        incidents.append(Incident(id=str(item["id"]), start_hour=start,
                                  ignition_xy=xy))
    evo = EvolutionConfig(**raw["evolution"])
    swp = SweepConfig(**{**raw["sweep"],
                         "sensor_counts": tuple(raw["sweep"]["sensor_counts"])})
    return incidents, env, bio, swp, evo
