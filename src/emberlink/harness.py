"""Sensor-count sweeps over a season of incidents, and their CSV/JSON outputs.

A sweep replays every incident of a season against a grid of sensor counts
and deployment trials, totals burned hours, burned area and carbon cost per
(count, trial), and measures savings against a baseline: historical totals
from the incident file, or every incident left undetected. It emits
plot-ready per-trial and per-count CSVs plus a JSON manifest of every
effective setting and seed.

Fire growth does not depend on sensors, so each incident's circle
trajectory is computed once (optionally across worker processes) into one
SeasonTable that everything after reads: the zero-sensor baseline is its
undetected rows, and a trial's totals gather the hours, area and tons of
the rows its replays report, each distinct row priced once per sweep. A
trial deploys once, at the largest count, screened with the table's
screen disks, so it never holds the whole field. Totals and trial means
sum from a 0.0 row by np.cumsum, as a += loop does, and rows leave as
tuples in CSV column order, byte-identical for any worker count, through
envdata.write_csv. A scenario bundle's sweep and evolution sections go
through config.merge, as the CLI's do. `simulate` is a one-incident
SeasonTable, replayed and reported through the same methods.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .carbon import (USD_PER_TON, average_biomass, carbon_price, emission_tons,
                     savings)
from .config import (BASELINE_MODES, SweepConfig, bundle_config,
                     evolution_config, sweep_config)
from .envdata import (BiomassGrid, EnvGrid, Incident, SynthSpec, check_biomass_alignment,
                      check_fields, check_incident_id, check_placement, read_json,
                      synth_biomass, synth_env, write_csv, write_json)
from .errors import ValidationError, check_range, check_seed
from .evolution import (EvolutionConfig, circle_trajectory, replay_detection,
                        screen_disk, undetected_hours)
from .sensors import SensorField, deploy_uniform


class SeasonTable:
    """A sweep's trajectories, or simulate's one, as one (incident, row)
    table: circles, the (cx, cy, r) rows padded with zeros, their area
    math.pi * r * r and tons, NaN until a row is first reported (priced on
    bio, which only totals reads); and each incident's last row,
    undetected_hours (see evolution) and screen disk."""

    def __init__(self, incidents: list[Incident], trajectories: list[np.ndarray],
                 bio: BiomassGrid | None, evo: EvolutionConfig) -> None:
        self.circles = np.zeros((len(trajectories),
                                 max(map(len, trajectories), default=1), 3))
        for padded, circles in zip(self.circles, trajectories):
            padded[:len(circles)] = circles
        with np.errstate(over="ignore"):  # a square that overflows is inf
            self.area = math.pi * self.circles[..., 2] * self.circles[..., 2]
        self.last = np.array([len(c) - 1 for c in trajectories], dtype=np.int64)
        self.undetected_hours = np.array([undetected_hours(inc, circles, evo) for inc, circles
                                          in zip(incidents, trajectories, strict=True)], float)
        self.disks = [screen_disk(circles) for circles in trajectories]
        self.tons, self.bio = np.full(self.area.shape, np.nan), bio

    def replay(self, field_: SensorField,
               counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """(incident, count) reported rows and detecting draw indices (-1 if
        no sensor saw the fire), from one replay per trajectory against one field."""
        out = np.array([replay_detection(self.circles[i, :last + 1], disk, field_, counts)
                        for i, (last, disk) in enumerate(zip(self.last.tolist(), self.disks))],
                       dtype=np.int64).reshape(len(self.disks), 2, len(counts))
        return out[:, 0], out[:, 1]

    def hours(self, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Burned hours of (incident, count) outcomes: the reported row if a
        sensor saw the fire, else the incident's undetected_hours."""
        return np.where(draws >= 0, rows, self.undetected_hours[:, None])

    def totals(self, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """(counts, 4) burned hours, area, carbon tons and detections of
        (incident, count) outcomes, each 0.0 + x0 + x1 ... over the
        incidents in order; new rows are priced count by count."""
        at = (np.arange(len(rows))[:, None], rows)
        for j, i in zip(*np.nonzero(np.isnan(self.tons[at]).T)):
            k = rows[i, j]
            if math.isnan(self.tons[i, k]):  # not priced for an earlier count
                self.tons[i, k] = emission_tons(float(self.area[i, k]), average_biomass(
                    tuple(self.circles[i, k].tolist()), self.bio))
        table = np.zeros((len(rows) + 1, rows.shape[1], 4))  # row 0 stays 0.0
        table[1:] = np.stack([self.hours(rows, draws), self.area[at], self.tons[at],
                              draws >= 0], axis=-1)
        return np.cumsum(table, axis=0)[-1]


def baseline_totals(incidents: list[Incident], season: SeasonTable | None,
                    bio: BiomassGrid, mode: str,
                    usd_per_ton: float = USD_PER_TON) -> dict:
    """Reference totals the sweep savings are measured against, as the
    manifest stores them: burned_hours, burned_area_km2, carbon_tons and
    carbon_price_usd (floats), then n_incidents and n_detected (ints).

    historical            sum the incident file's own duration/area fields;
                          carbon uses the grid-wide mean biomass over the
                          total area (the season-level accounting shortcut);
                          season is unused and may be None
    simulated-zero-sensor the season table's undetected (last) rows
    """
    if mode == "historical":
        hours = area = 0.0
        for inc in incidents:
            if inc.historical_burn_hours is None or inc.historical_area_km2 is None:
                raise ValidationError(
                    f"incident {inc.id} lacks contained/area history; "
                    f"historical baseline needs both columns")
            hours += inc.historical_burn_hours
            area += inc.historical_area_km2
        tons, detected = emission_tons(area, float(bio.values.mean())), 0
    elif mode == "simulated-zero-sensor":
        if season is None:
            raise ValidationError(
                "simulated-zero-sensor baseline needs the incident trajectories")
        [[hours, area, tons, detected]] = season.totals(
            season.last[:, None], np.full((len(season.last), 1), -1)).tolist()
    else:
        raise ValidationError(
            f"baseline must be one of {BASELINE_MODES}, got '{mode}'")
    return {"burned_hours": hours, "burned_area_km2": area, "carbon_tons": tons,
            "carbon_price_usd": carbon_price(tons, usd_per_ton),
            "n_incidents": len(incidents), "n_detected": int(detected)}


# worker-process context for trajectory tasks, set once per worker
_TRAJ_CTX: tuple[EnvGrid, EvolutionConfig] | None = None


def _traj_init(env: EnvGrid, cfg: EvolutionConfig) -> None:
    global _TRAJ_CTX
    _TRAJ_CTX = (env, cfg)


def _traj_task(incident: Incident) -> np.ndarray:
    return circle_trajectory(incident, *_TRAJ_CTX)


def _trajectories(incidents: list[Incident], env: EnvGrid,
                  cfg: EvolutionConfig, workers: int) -> list[np.ndarray]:
    if workers <= 1:
        return [circle_trajectory(inc, env, cfg) for inc in incidents]
    with ProcessPoolExecutor(max_workers=workers, initializer=_traj_init,
                             initargs=(env, cfg)) as pool:
        # map yields results in input order
        return list(pool.map(_traj_task, incidents))


def sweep(incidents: list[Incident], env: EnvGrid, bio: BiomassGrid,
          cfg: SweepConfig, evolution: EvolutionConfig = EvolutionConfig(),
          workers: int = 1,
          ) -> tuple[list[tuple], list[tuple], dict]:
    """Season outcomes across sensor counts and deployment trials: the
    sweep_rows.csv rows (n_sensors, trial, burned_hours, burned_area_km2,
    carbon_tons, carbon_price_usd, *savings_usd per unit cost), count-major,
    and the sweep_summary.csv rows (n_sensors, *that count's trial means),
    as tuples of Python numbers, then the manifest.

    Trial t deploys max(sensor_counts) sensors once, with seed
    base_seed + t, and count n takes its first n draws: each count's
    outcomes are bitwise those against deploy_uniform(n) with that seed,
    so counts are compared on common random numbers. At most one worker
    process runs per incident and per CPU; manifest["workers"] records
    the count used, and nothing else depends on it.
    """
    check_biomass_alignment(bio, env)
    evo = replace(evolution, max_hours=cfg.cap_hours)
    workers = max(1, min(workers, len(incidents), os.cpu_count() or 1))
    season = SeasonTable(incidents, _trajectories(incidents, env, evo, workers), bio, evo)
    base = baseline_totals(incidents, season, bio, cfg.baseline, cfg.usd_per_ton)
    counts, costs = cfg.sensor_counts, cfg.unit_sensor_cost_usd
    seasons = np.stack([  # no name holds a field, so each is freed before the next
        season.totals(*season.replay(deploy_uniform(
            counts[-1], env.rect, cfg.base_seed + trial, season.disks), counts))
        for trial in range(cfg.trials)])
    # (trial, count, column) in the rows' column order from burned_hours
    # on; row 0 stays 0.0, so each mean sums from 0.0 in trial order
    table = np.zeros((cfg.trials + 1, len(counts), 4 + len(costs)))
    table[1:, :, :3] = seasons[..., :3]
    table[1:, :, 3] = [[carbon_price(tons, cfg.usd_per_ton) for tons in trial]
                       for trial in seasons[..., 2].tolist()]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        table[1:, :, 4:] = savings(base["carbon_price_usd"], table[1:, :, 3:4],
                                   np.array(counts)[:, None], np.array(costs))
        means = np.cumsum(table, axis=0)[-1] / cfg.trials
    # a price or saving past the largest float, or a sum of them over the
    # trials, leaves a mean non-finite
    for n, (price, *nets) in zip(counts, means[:, 3:].tolist()):
        check_range(f"mean price of {n} sensors at usd_per_ton={cfg.usd_per_ton!r}",
                    price, -math.inf)
        for cost, net in zip(costs, nets):
            check_range(f"mean savings of {n} sensors at unit_sensor_cost_usd={cost!r}",
                        net, -math.inf)
    rows = [(n, trial, *table[trial + 1, j].tolist())
            for j, n in enumerate(counts) for trial in range(cfg.trials)]
    summary = [(n, *means[j].tolist()) for j, n in enumerate(counts)]

    manifest = {
        "version": __version__,
        "sweep": asdict(cfg),
        "evolution": asdict(evo),
        "deployment_seeds": [cfg.base_seed + t for t in range(cfg.trials)],
        "baseline": base,
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


def write_sweep_csv(rows: list[tuple], costs: tuple[float, ...],
                    path: str | Path) -> Path:
    return write_csv(["n_sensors", "trial", "burned_hours", "burned_area_km2",
                      "carbon_tons", "carbon_price_usd",
                      *(f"savings_usd@{_cost_label(c)}" for c in costs)],
                     rows, path)


def write_summary_csv(summary: list[tuple], costs: tuple[float, ...],
                      path: str | Path) -> Path:
    return write_csv(["n_sensors", "mean_burned_hours", "mean_burned_area_km2",
                      "mean_carbon_tons", "mean_carbon_price_usd",
                      *(f"mean_savings_usd@{_cost_label(c)}" for c in costs)],
                     summary, path)


write_manifest = write_json  # the run manifest's writer, as perfbench/run.py calls it


# ---------------------------------------------------------------------------
# bundled synthetic scenario
# ---------------------------------------------------------------------------

def bundled_scenario_path() -> Path:
    """Path of the packaged synthetic season bundle."""
    return Path(str(resources.files("emberlink").joinpath(
        "data/synthetic_season.json")))


# example values of the bundle's own fields (see envdata.fits_kind)
_BUNDLE_KINDS = {"env": {}, "env_seed": 0, "biomass": {}, "incidents": [{}],
                 "evolution": {}, "sweep": {}}
_BIOMASS_KINDS = {"nx": 0, "ny": 0, "spacing_km": 0.0, "lo": 0.0, "hi": 0.0,
                  "seed": 0, "origin": (0.0, 0.0)}
_INCIDENT_KINDS = {"id": "", "start_hour": 0, "x_km": 0.0, "y_km": 0.0}


def read_season_bundle(path: str | Path) -> dict:
    """Parsed scenario file, checked for its top-level fields; nothing
    is synthesized."""
    return check_fields("scenario bundle", read_json(path, "scenario bundle"),
                        _BUNDLE_KINDS)


def season_scenario(raw: dict) -> tuple[list[Incident], EnvGrid, BiomassGrid]:
    """Incidents, environment and biomass of a parsed scenario bundle; its
    grids regenerate deterministically from the specs and seeds it stores."""
    try:
        spec = SynthSpec.from_dict(raw["env"])
    except ValidationError as exc:
        raise ValidationError(f"scenario bundle env: {exc}") from exc
    b = check_fields("scenario bundle biomass", raw["biomass"], _BIOMASS_KINDS,
                     ("nx", "ny", "spacing_km", "lo", "hi", "seed"))
    check_seed("scenario bundle env_seed", raw["env_seed"])
    check_seed("scenario bundle biomass seed", b["seed"])
    env = synth_env(spec, raw["env_seed"])
    bio = synth_biomass(nx=b["nx"], ny=b["ny"], spacing_km=float(b["spacing_km"]),
                        lo=float(b["lo"]), hi=float(b["hi"]), seed=b["seed"],
                        origin=tuple(b.get("origin", (0.0, 0.0))))
    incidents, seen = [], set()
    for n, item in enumerate(raw["incidents"]):
        check_fields(f"scenario bundle incident #{n}", item, _INCIDENT_KINDS)
        check_incident_id(f"scenario bundle incident #{n}", item["id"], seen)
        xy = (float(item["x_km"]), float(item["y_km"]))
        check_placement(f"scenario bundle incident {item['id']}", xy,
                        item["start_hour"], env)
        incidents.append(Incident(id=item["id"], start_hour=item["start_hour"],
                                  ignition_xy=xy))
    return incidents, env, bio


def load_season_bundle(path: str | Path,
                       ) -> tuple[list[Incident], EnvGrid, BiomassGrid,
                                  SweepConfig, EvolutionConfig]:
    """Materialize a self-contained scenario file, with the sweep and
    evolution configs the CLI builds from it: its sections are checked
    and laid over the default configuration."""
    raw = read_season_bundle(path)
    config = bundle_config(raw)
    swp, evo = sweep_config(config), evolution_config(config)
    return (*season_scenario(raw), swp, evo)
