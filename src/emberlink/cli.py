"""Command-line entry point.

Subcommands:
  simulate    run one incident, write its result JSON (and optional trace)
  sweep       run the sensor-count sweep, write CSVs and a run manifest
  linkbudget  evaluate the uplink budget, write a capacity report JSON
  synth-env   synthesize an environment grid from a spec file

Every model constant has a default in DEFAULT_CONFIG. load_config
resolves the configuration in one layered step, later layers winning:
defaults < a scenario bundle's sweep and evolution sections (read only
by the commands that use a bundle) < the JSON file selected with
--config < repeated --set dotted.key=value flags.
Keys a command would ignore are rejected. The resolved configuration is
echoed into the run manifest. Exit codes: 0 success, 1 bad input or
configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import harness, linkbudget
from .envdata import (CALIFORNIA, GeoTransform, SynthSpec, load_biomass,
                      load_env_grid, load_incidents, save_env_grid, synth_env)
from .errors import ValidationError
from .evolution import EvolutionConfig, simulate_incident, trace_rows
from .firekernel import SpreadParams
from .harness import (SweepConfig, atomic_write_text, load_season_bundle,
                      read_season_bundle, write_manifest, write_summary_csv,
                      write_sweep_csv)
from .sensors import SensorField, deploy_uniform, load_sensors

DEFAULT_CONFIG: dict = {
    "paths": {
        "scenario_bundle": None,
        "env_manifest": None,
        "biomass_manifest": None,
        "incidents_csv": None,
        "sensors_csv": None,
    },
    "geo": {
        "lat_min": CALIFORNIA.lat_min, "lat_max": CALIFORNIA.lat_max,
        "lon_min": CALIFORNIA.lon_min, "lon_max": CALIFORNIA.lon_max,
        "width_km": CALIFORNIA.width_km, "height_km": CALIFORNIA.height_km,
    },
    "spread": {
        "u_max_ms": 0.13, "windless_gain": 0.1, "wetness_cutoff": 0.35,
        "backspread_ratio": 0.2, "wind_sq_scale": 2500.0,
        "elongation_gain": 10.0, "elongation_rate": 0.017,
    },
    "evolution": {
        "dt_s": 3600.0, "snap_km": 0.05, "margin_km": 0.0,
        "max_hours": 168.0, "detect_at_ignition": True,
    },
    "sweep": {
        "sensor_counts": [100000, 1000000], "trials": 10, "base_seed": 0,
        "usd_per_ton": 20.0, "unit_sensor_cost_usd": [10.0, 20.0, 50.0, 100.0],
        "cap_hours": 168.0, "baseline": "simulated-zero-sensor",
    },
    "link": {
        "params": asdict(linkbudget.TABLE1_10DEG),
        "traffic": {"reports_per_day": 2.0, "payload_bytes": 50.0},
        "system_bw_hz": 180000.0,
        "ru_duration_s": 0.032,
        "tbs_csv": None,
    },
    "out_dir": "out",
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValidationError(f"unknown config key '{where}'")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _apply_set(config: dict, assignment: str) -> None:
    key, sep, raw = assignment.partition("=")
    if not sep:
        raise ValidationError(f"--set needs key=value, got '{assignment}'")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings pass through
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            raise ValidationError(f"unknown config key '{key}'")
        node = node[part]
    if parts[-1] not in node:
        raise ValidationError(f"unknown config key '{key}'")
    node[parts[-1]] = value


def _read_config_file(path: str) -> dict:
    fpath = Path(path)
    if not fpath.is_file():
        raise ValidationError(f"config file missing: {fpath}")
    try:
        return json.loads(fpath.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {fpath} is not valid JSON: {exc}") from exc


def _apply_layers(base: dict, user: dict, sets: list[str]) -> dict:
    config = _merge(base, user)
    for assignment in sets:
        _apply_set(config, assignment)
    return config


def load_config(path: str | None, sets: list[str], *,
                read_bundle: bool) -> dict:
    """Resolve the configuration; later layers win.

    defaults < scenario bundle sweep/evolution sections < --config file <
    --set assignments. The bundle path itself may come from any layer, so
    the layers are applied once to find it and again on top of it. With
    read_bundle False the bundle is neither read nor layered in.
    """
    user = _read_config_file(path) if path is not None else {}
    config = _apply_layers(DEFAULT_CONFIG, user, sets)
    bundle = config["paths"]["scenario_bundle"]
    if bundle and read_bundle:
        raw = read_season_bundle(bundle)
        base = _merge(DEFAULT_CONFIG, {"sweep": raw["sweep"],
                                       "evolution": raw["evolution"]})
        config = _apply_layers(base, user, sets)
    return config


def _evolution_config(config: dict) -> EvolutionConfig:
    return EvolutionConfig(params=SpreadParams(**config["spread"]),
                           **config["evolution"])


def _geo(config: dict) -> GeoTransform:
    return GeoTransform(**config["geo"])


def _check_paths(config: dict, command: str, used: tuple[str, ...] = ()) -> None:
    """Reject every set paths.* key the command does not read."""
    for key, value in config["paths"].items():
        if value and key not in used:
            reads = ", ".join(f"paths.{k}" for k in used) or "no paths"
            raise ValidationError(
                f"paths.{key} is not used by {command}, which reads {reads}")


def _load_scenario(config: dict, command: str, need_bio: bool,
                   other_paths: tuple[str, ...] = ()):
    """Resolve env / biomass / incidents from a scenario bundle or from the
    explicit per-file paths; a bundle excludes those paths."""
    paths = config["paths"]
    bundle = paths["scenario_bundle"]
    scenario = (("scenario_bundle",) if bundle else ("env_manifest", "incidents_csv")
                + (("biomass_manifest",) if need_bio else ()))
    _check_paths(config, command, scenario + other_paths)
    if bundle:
        incidents, env, bio, _, _ = load_season_bundle(bundle)
        return incidents, env, bio
    if not paths["env_manifest"]:
        raise ValidationError(
            "paths.env_manifest (or paths.scenario_bundle) must be set")
    env = load_env_grid(paths["env_manifest"])
    bio = None
    if need_bio:
        if not paths["biomass_manifest"]:
            raise ValidationError("paths.biomass_manifest must be set")
        bio = load_biomass(paths["biomass_manifest"])
    if not paths["incidents_csv"]:
        raise ValidationError("paths.incidents_csv must be set")
    incidents = load_incidents(paths["incidents_csv"], _geo(config), env)
    return incidents, env, bio


def cmd_simulate(config: dict, args: argparse.Namespace) -> int:
    sensors_csv = config["paths"]["sensors_csv"]
    if sensors_csv and args.deploy is not None:
        raise ValidationError("--deploy cannot be combined with paths.sensors_csv")
    evo = _evolution_config(config)
    incidents, env, _ = _load_scenario(config, "simulate", need_bio=False,
                                       other_paths=("sensors_csv",))
    wanted = [inc for inc in incidents if inc.id == args.incident]
    if not wanted:
        raise ValidationError(f"incident id '{args.incident}' not found")
    incident = wanted[0]
    if sensors_csv:
        field_ = load_sensors(sensors_csv)
    elif args.deploy is not None:
        field_ = deploy_uniform(args.deploy, env.rect, args.seed or 0)
    else:
        field_ = SensorField(positions=[])
    result = simulate_incident(incident, env, field_, evo)
    out_dir = Path(config["out_dir"])
    payload = asdict(result)
    atomic_write_text(out_dir / f"incident_{incident.id}.json",
                      json.dumps(payload, indent=2) + "\n")
    if args.trace:
        lines = ["t,center_x_km,center_y_km,radius_km,n_frontier"]
        for hour, c, n_frontier in trace_rows(incident, env, evo):
            lines.append(f"{hour},{c.center[0]!r},{c.center[1]!r},"
                         f"{c.radius_km!r},{n_frontier}")
        atomic_write_text(out_dir / f"incident_{incident.id}_trace.csv",
                          "\n".join(lines) + "\n")
    print(json.dumps(payload, indent=2))
    return 0


def cmd_sweep(config: dict, args: argparse.Namespace) -> int:
    if args.seed is not None:
        config["sweep"]["base_seed"] = args.seed
    swp = SweepConfig(**config["sweep"])
    # every sweep incident runs to sweep.cap_hours; record that horizon
    config["evolution"]["max_hours"] = swp.cap_hours
    evo = _evolution_config(config)
    incidents, env, bio = _load_scenario(config, "sweep", need_bio=True)
    rows, summary, manifest = harness.sweep(incidents, env, bio, swp,
                                            evolution=evo,
                                            workers=args.workers)
    manifest["config"] = config
    out_dir = Path(config["out_dir"])
    write_sweep_csv(rows, swp.unit_sensor_cost_usd, out_dir / "sweep_rows.csv")
    write_summary_csv(summary, swp.unit_sensor_cost_usd,
                      out_dir / "sweep_summary.csv")
    write_manifest(manifest, out_dir / "run_manifest.json")
    print(f"wrote {out_dir / 'sweep_rows.csv'}")
    print(f"wrote {out_dir / 'sweep_summary.csv'}")
    print(f"wrote {out_dir / 'run_manifest.json'}")
    return 0


def cmd_linkbudget(config: dict, args: argparse.Namespace) -> int:
    _check_paths(config, "linkbudget")
    link = config["link"]
    if args.params:
        params = linkbudget.LinkParams.from_json(args.params)
    else:
        params = linkbudget.LinkParams(**link["params"])
    traffic_cfg = link["traffic"]
    if args.traffic == "periodic":
        traffic = linkbudget.PERIODIC_REPORT
    elif args.traffic == "event":
        traffic = linkbudget.EVENT_REPORT
    else:
        traffic = linkbudget.TrafficModel(**traffic_cfg)
    tbs = (linkbudget.TbsMap.from_csv(link["tbs_csv"])
           if link["tbs_csv"] else linkbudget.DEFAULT_TBS)
    system_bw = (args.system_bw_hz if args.system_bw_hz is not None
                 else link["system_bw_hz"])
    report = linkbudget.capacity_report(params, traffic, tbs=tbs,
                                        system_bw_hz=system_bw,
                                        ru_duration_s=link["ru_duration_s"])
    text = report.to_json()
    atomic_write_text(Path(config["out_dir"]) / "capacity_report.json", text)
    print(text, end="")
    return 0


def cmd_synth_env(config: dict, args: argparse.Namespace) -> int:
    _check_paths(config, "synth-env")
    spath = Path(args.spec)
    if not spath.is_file():
        raise ValidationError(f"spec file missing: {spath}")
    try:
        raw = json.loads(spath.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"spec {spath} is not valid JSON: {exc}") from exc
    spec = SynthSpec.from_dict(raw)
    grid = synth_env(spec, args.seed or 0)
    out = Path(args.out) if args.out else Path(config["out_dir"]) / "env_manifest.json"
    save_env_grid(grid, out)
    print(f"wrote {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; bad usage is a validation failure here
    def error(self, message):  # noqa: A002 - argparse API
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emberlink",
                     description="Wildfire detection and carbon accounting toolkit")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out-dir", help="output directory (overrides config)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for parallel stages")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed override")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config value (dotted path, JSON value)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one incident")
    p_sim.add_argument("--incident", required=True, help="incident id")
    p_sim.add_argument("--deploy", type=int, default=None,
                       help="deploy this many uniform sensors (with --seed)")
    p_sim.add_argument("--trace", action="store_true",
                       help="also write an hourly trace CSV")

    sub.add_parser("sweep", help="run the sensor-count sweep")

    p_link = sub.add_parser("linkbudget", help="evaluate the uplink budget")
    p_link.add_argument("--params", help="LinkParams JSON file")
    p_link.add_argument("--traffic", choices=["periodic", "event"],
                        help="use a bundled traffic model")
    p_link.add_argument("--system-bw-hz", type=float, default=None,
                        help="override the system bandwidth")

    p_synth = sub.add_parser("synth-env", help="synthesize an environment grid")
    p_synth.add_argument("--spec", required=True, help="SynthSpec JSON file")
    p_synth.add_argument("--out", help="manifest output path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is not None and args.seed < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        if args.workers < 1:
            raise ValidationError(f"--workers must be >= 1, got {args.workers}")
        config = load_config(args.config, args.set,
                             read_bundle=args.command in ("simulate", "sweep"))
        if args.out_dir:
            config["out_dir"] = args.out_dir
        if args.command == "simulate":
            return cmd_simulate(config, args)
        if args.command == "sweep":
            return cmd_sweep(config, args)
        if args.command == "linkbudget":
            return cmd_linkbudget(config, args)
        if args.command == "synth-env":
            return cmd_synth_env(config, args)
        raise ValidationError(f"unknown command '{args.command}'")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
