"""Command-line entry point.

Subcommands:
  simulate    run one incident, write its result JSON (and optional trace)
  sweep       run the sensor-count sweep, write CSVs and a run manifest
  linkbudget  evaluate the uplink budget, write a capacity report JSON
  synth-env   synthesize an environment grid from a spec file

load_config resolves config.DEFAULT_CONFIG in one layered step, later
layers winning: defaults < a scenario bundle's sweep and evolution
sections < the --config file < repeated --set dotted.key=value flags <
the flags that set keys (--out-dir; --seed for sweep; --params, --traffic
and --system-bw-hz for linkbudget), each laid over by config.merge. A key
the command does not read is rejected if a layer changed it from the
defaults plus the bundle, as is a --seed or --workers it does not read.
The resolved configuration is echoed into the run manifest. Exit codes:
0 success, 1 bad input or configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import reduce
from pathlib import Path

from . import harness, linkbudget
from .config import (DEFAULT_CONFIG, bundle_config, evolution_config, merge,
                     sweep_config)
from .envdata import (GeoTransform, SynthSpec, load_biomass, load_env_grid,
                      load_incidents, read_json, save_env_grid, synth_env)
from .errors import ValidationError
from .evolution import simulate_incident, trace_rows
from .harness import (atomic_write_text, read_season_bundle, season_scenario,
                      write_manifest, write_summary_csv, write_sweep_csv)
from .sensors import SensorField, deploy_uniform, load_sensors

_TRAFFIC = {"periodic": linkbudget.PERIODIC_REPORT,
            "event": linkbudget.EVENT_REPORT}


def _set_layer(assignment: str) -> dict:
    """One --set dotted.key=value as a nested config layer."""
    key, sep, raw = assignment.partition("=")
    if not sep:
        raise ValidationError(f"--set needs key=value, got '{assignment}'")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings pass through
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


def _flag_layers(args: argparse.Namespace) -> list[dict]:
    """The command-line flags that set config keys, as config layers."""
    layers: list[dict] = []
    if args.out_dir:
        layers.append({"out_dir": args.out_dir})
    if args.command == "sweep" and args.seed is not None:
        layers.append({"sweep": {"base_seed": args.seed}})
    if args.command == "linkbudget":
        if args.params:
            layers.append({"link": {"params": read_json(args.params,
                                                        "link params file")}})
        if args.traffic:
            layers.append({"link": {"traffic": asdict(_TRAFFIC[args.traffic])}})
        if args.system_bw_hz is not None:
            layers.append({"link": {"system_bw_hz": args.system_bw_hz}})
    return layers


def _reads(args: argparse.Namespace, bundle: bool) -> tuple[str, ...]:
    """The config keys and sections the command reads."""
    if args.command == "linkbudget":
        return ("link", "out_dir")
    if args.command == "synth-env":
        return () if args.out else ("out_dir",)
    sweep = args.command == "sweep"
    scenario = (("paths.scenario_bundle",) if bundle else
                ("paths.env_manifest", "paths.incidents_csv", "geo")
                + (("paths.biomass_manifest",) if sweep else ()))
    # a sweep runs every incident to sweep.cap_hours, never evolution.max_hours
    own = ("sweep", "evolution.snap_km") if sweep else ("paths.sensors_csv", "evolution")
    return scenario + own + ("spread", "out_dir")


def _check_flags(args: argparse.Namespace) -> None:
    """Reject a --seed, --workers or --deploy out of range or not read."""
    deploy = getattr(args, "deploy", None)  # a simulate flag
    seeded = args.command in ("sweep", "synth-env") or deploy is not None
    for flag, value, least, read, readers in (
            ("--seed", args.seed, 0, seeded, "sweep, synth-env and simulate --deploy"),
            ("--workers", args.workers, 1, args.command == "sweep", "sweep"),
            ("--deploy", deploy, 0, True, "simulate")):
        if value is not None and value < least:
            raise ValidationError(f"{flag} must be >= {least}, got {value}")
        if value is not None and not read:
            raise ValidationError(f"{flag} is not used by {args.command}, only by {readers}")


def _changed(config: dict, base: dict, path: str = ""):
    """Dotted keys whose values differ between config and base."""
    for key, value in config.items():
        where = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _changed(value, base[key], where)
        elif value != base[key]:
            yield where


def load_config(args: argparse.Namespace) -> tuple[dict, dict | None]:
    """The resolved configuration of a parsed command line, and the parsed
    scenario bundle (None unless the command, simulate or sweep, reads one).

    The bundle path itself may come from any layer, so the layers are
    applied once to find it and again on top of the bundle's sections.
    """
    layers = [read_json(args.config, "config file")] if args.config else []
    layers += [_set_layer(s) for s in args.set] + _flag_layers(args)
    config = reduce(merge, layers, DEFAULT_CONFIG)
    bundle_path = config["paths"]["scenario_bundle"]
    bundle, base = None, DEFAULT_CONFIG
    if bundle_path and args.command in ("simulate", "sweep"):
        bundle = read_season_bundle(bundle_path)
        base = bundle_config(bundle)
        config = reduce(merge, layers, base)
    reads = _reads(args, bool(bundle_path))
    for key in _changed(config, base):
        if not any(key == r or key.startswith(r + ".") for r in reads):
            raise ValidationError(
                f"{key} is not used by {args.command}, which reads "
                f"{', '.join(reads) or 'no settings'}")
    return config, bundle


def _load_scenario(config: dict, bundle: dict | None, need_bio: bool):
    """Resolve env / biomass / incidents from the parsed scenario bundle or
    from the explicit per-file paths."""
    if bundle is not None:
        return season_scenario(bundle)
    paths = config["paths"]
    for key in ("env_manifest", "incidents_csv") + (("biomass_manifest",)
                                                    if need_bio else ()):
        if not paths[key]:
            raise ValidationError(f"paths.{key} (or paths.scenario_bundle) must be set")
    env = load_env_grid(paths["env_manifest"])
    bio = load_biomass(paths["biomass_manifest"]) if need_bio else None
    incidents = load_incidents(paths["incidents_csv"],
                               GeoTransform(**config["geo"]), env)
    return incidents, env, bio


def cmd_simulate(config: dict, bundle: dict | None,
                 args: argparse.Namespace) -> int:
    sensors_csv = config["paths"]["sensors_csv"]
    if sensors_csv and args.deploy is not None:
        raise ValidationError("--deploy cannot be combined with paths.sensors_csv")
    evo = evolution_config(config)
    incidents, env, _ = _load_scenario(config, bundle, need_bio=False)
    incident = next((inc for inc in incidents if inc.id == args.incident), None)
    if incident is None:
        raise ValidationError(f"incident id '{args.incident}' not found")
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


def cmd_sweep(config: dict, bundle: dict | None,
              args: argparse.Namespace) -> int:
    swp = sweep_config(config)
    # every sweep incident runs to sweep.cap_hours; record that horizon
    config = merge(config, {"evolution": {"max_hours": swp.cap_hours}})
    evo = evolution_config(config)
    incidents, env, bio = _load_scenario(config, bundle, need_bio=True)
    rows, summary, manifest = harness.sweep(incidents, env, bio, swp, evolution=evo,
                                            workers=args.workers or 1)
    manifest["config"] = config
    out_dir = Path(config["out_dir"])
    write_sweep_csv(rows, swp.unit_sensor_cost_usd, out_dir / "sweep_rows.csv")
    write_summary_csv(summary, swp.unit_sensor_cost_usd,
                      out_dir / "sweep_summary.csv")
    write_manifest(manifest, out_dir / "run_manifest.json")
    for name in ("sweep_rows.csv", "sweep_summary.csv", "run_manifest.json"):
        print(f"wrote {out_dir / name}")
    return 0


def cmd_linkbudget(config: dict, bundle: dict | None,
                   args: argparse.Namespace) -> int:
    link = config["link"]
    tbs = (linkbudget.TbsMap.from_csv(link["tbs_csv"])
           if link["tbs_csv"] else linkbudget.DEFAULT_TBS)
    report = linkbudget.capacity_report(
        linkbudget.LinkParams(**link["params"]),
        linkbudget.TrafficModel(**link["traffic"]), tbs=tbs,
        system_bw_hz=link["system_bw_hz"], ru_duration_s=link["ru_duration_s"])
    text = report.to_json()
    atomic_write_text(Path(config["out_dir"]) / "capacity_report.json", text)
    print(text, end="")
    return 0


def cmd_synth_env(config: dict, bundle: dict | None,
                  args: argparse.Namespace) -> int:
    spec = SynthSpec.from_dict(read_json(args.spec, "spec file"))
    grid = synth_env(spec, args.seed or 0)
    out = Path(args.out) if args.out else Path(config["out_dir"]) / "env_manifest.json"
    save_env_grid(grid, out)
    print(f"wrote {out}")
    return 0


_COMMANDS = {"simulate": cmd_simulate, "sweep": cmd_sweep,
             "linkbudget": cmd_linkbudget, "synth-env": cmd_synth_env}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; bad usage is a validation failure here
    def error(self, message):  # noqa: A002 - argparse API
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emberlink",
                     description="Wildfire detection and carbon accounting toolkit")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out-dir", help="output directory (overrides config)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for sweep (default 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for sweep, synth-env and simulate --deploy")
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
    p_link.add_argument("--traffic", choices=list(_TRAFFIC),
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
        _check_flags(args)
        config, bundle = load_config(args)
        return _COMMANDS[args.command](config, bundle, args)
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
