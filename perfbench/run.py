"""emberlink benchmark: the `emberlink sweep` pipeline, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload season-sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Each workload is a closed loop with one client. One iteration makes the
public calls `emberlink sweep` makes, in the same order and in this
process: harness.load_season_bundle -> harness.sweep -> write_sweep_csv /
write_summary_csv / write_manifest. Iterations repeat until --seconds have
passed (at least one runs), and every iteration's outputs are checked
(see checks.py). --seed S adds S to the bundle's env_seed and
sweep.base_seed; S = 0 is the bundle as shipped.

--trace 0 reports the end-to-end metrics of untraced iterations (medians).
--trace 1 runs one untraced iteration at the workload's worker count (for
harness.cpu_s and the tracing overhead), then one traced iteration at one
worker, and reports per-layer self times and counts (see tracer.py). The
spans are written to perfbench/out/<workload>/trace_s<seed>.csv.

Stdout holds an `env` line (run environment and output sha256s), one
`metric <name> <value> <unit>` line per metric, and, last, the JSON result
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy loads, so no run uses more threads
# than cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
from tracer import Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
SETUP_REPEATS = 5  # extra bundle loads per --trace 0 run, for setup_s

# many-fields is runnable but not listed in BENCHMARK.json: its run-to-run
# spread on a shared 2-core machine sits at the 0.25 bound (see README.md)
WORKLOADS = {
    "season-sweep": {"workers": 1, "sweep": {}},
    "long-fires": {"workers": 2, "sweep": {
        "cap_hours": 96.0, "sensor_counts": [10000], "trials": 1}},
    "many-fields": {"workers": 2, "sweep": {
        "cap_hours": 24.0, "sensor_counts": [1000, 10000, 100000, 1000000],
        "trials": 30}},
}
# --smoke: a tiny config through the same code
SMOKE = {"workers": 2, "incidents": 5, "sweep": {
    "cap_hours": 6.0, "sensor_counts": [100, 1000], "trials": 2}}

def load_harness():
    """Import emberlink from this checkout's src/, never from elsewhere."""
    if not (SRC / "emberlink" / "__init__.py").is_file():
        raise SystemExit(f"error: no emberlink sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from emberlink import harness
    if Path(harness.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: emberlink imported from {harness.__file__}")
    return harness


def write_bundle(harness, workload: dict, seed: int, out_dir: Path) -> Path:
    """The bundled season with the workload's sweep settings and the seed
    offset applied."""
    raw = json.loads(harness.bundled_scenario_path().read_text())
    raw["env_seed"] += seed
    raw["sweep"] = {**raw["sweep"], **workload["sweep"]}
    raw["sweep"]["base_seed"] += seed
    if "incidents" in workload:
        raw["incidents"] = raw["incidents"][:workload["incidents"]]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"bundle_s{seed}.json"
    path.write_text(json.dumps(raw, indent=2) + "\n")
    return path


def cpu_s() -> float:
    """User + system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def sweep_once(harness, bundle: Path, workers: int, out_dir: Path,
               tracer: Tracer | None = None) -> dict:
    """One `emberlink sweep`: load, sweep, write; wall and CPU times."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    cpu0 = cpu_s()
    t0 = perf_counter()
    with span("harness.load"):
        incidents, env, bio, swp, evo = harness.load_season_bundle(bundle)
    t1 = perf_counter()
    with span("harness.sweep"):
        rows, summary, manifest = harness.sweep(incidents, env, bio, swp,
                                                evolution=evo, workers=workers)
    t2 = perf_counter()
    with span("harness.write"):
        costs = swp.unit_sensor_cost_usd
        harness.write_sweep_csv(rows, costs, out_dir / "sweep_rows.csv")
        harness.write_summary_csv(summary, costs, out_dir / "sweep_summary.csv")
        harness.write_manifest(manifest, out_dir / "run_manifest.json")
    t3 = perf_counter()
    return {"setup_s": t1 - t0, "sweep_s": t2 - t1, "run_s": t3 - t0,
            "cpu_s": cpu_s() - cpu0}


def corrupt_rows(out_dir: Path) -> None:
    """Change one savings value in sweep_rows.csv (smoke mode only)."""
    path = out_dir / "sweep_rows.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1.0)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class Attempts:
    """Iterations tried, failed, their timings and output hashes."""

    def __init__(self, name: str, seed: int, out_dir: Path,
                 corrupt: bool = False) -> None:
        self.name, self.seed, self.out_dir = name, seed, out_dir
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.hashes: dict[str, str] = {}

    def run(self, harness, bundle: Path, workers: int,
            tracer: Tracer | None = None) -> dict | None:
        """Timings of one checked iteration, or None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            timing = sweep_once(harness, bundle, workers, self.out_dir, tracer)
            if self.corrupt:
                corrupt_rows(self.out_dir)
            self.hashes, problems = checks.check_outputs(
                self.out_dir, self.name, self.seed)
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        for problem in problems:
            print(f"output check failed: {problem}", file=sys.stderr)
        if problems:
            self.failed += 1
            return None
        return timing


def median_of(timings: list[dict], key: str) -> float | None:
    values = [t[key] for t in timings]
    return statistics.median(values) if values else None


def end_to_end(harness, bundle: Path, workers: int, seconds: float,
               attempts: Attempts) -> tuple[dict, dict]:
    """Untraced closed loop for --seconds: (metrics, extra info)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        harness.load_season_bundle(bundle)
        setups.append(perf_counter() - t0)
    timings: list[dict] = []
    start = perf_counter()
    while attempts.attempted == 0 or perf_counter() - start < seconds:
        timing = attempts.run(harness, bundle, workers)
        if timing is not None:
            timings.append(timing)
        if attempts.attempted == 1:
            # what one `emberlink sweep` process reaches; later iterations
            # start from heap the allocator kept, which would count twice
            peak = peak_rss_mb()
    setups += [t["setup_s"] for t in timings]
    metrics = {"run_s": median_of(timings, "run_s"),
               "setup_s": statistics.median(setups),
               "sweep_s": median_of(timings, "sweep_s"),
               "peak_rss_mb": peak}
    info = {"iterations": len(timings), "setup_samples": len(setups),
            "harness.cpu_s": median_of(timings, "cpu_s")}
    return metrics, info


def per_layer(harness, bundle: Path, workers: int, attempts: Attempts,
              trace_path: Path) -> tuple[dict, dict]:
    """One untraced iteration at `workers`, then one traced at 1 worker."""
    untraced = attempts.run(harness, bundle, workers)
    tracer = Tracer()
    with installed(tracer):
        traced = attempts.run(harness, bundle, 1, tracer)
    tracer.write_csv(trace_path)
    t = tracer

    def count(span: str, counter: str):
        return t.counters.get(counter, 0) if t.calls.get(span) else None

    def ratio(num, den):
        return num / den if num is not None and den else None

    queries = t.calls.get("sensors.first_query", 0) + t.calls.get("sensors.query", 0)
    prune_in = count("evolution.prune", "evolution.prune_points_in")
    metrics = {
        "envdata.synth_env_s": t.self_s("envdata.synth_env"),
        "envdata.synth_biomass_s": t.self_s("envdata.synth_biomass"),
        "envdata.sample_env_many_s": t.self_s("envdata.sample_env_many"),
        "envdata.points_sampled": count("envdata.sample_env_many",
                                        "envdata.points_sampled"),
        "firekernel.branch_endpoints_s": t.self_s("firekernel.branch_endpoints"),
        "firekernel.points_branched": count("firekernel.branch_endpoints",
                                            "firekernel.points_branched"),
        "evolution.trajectory_s": t.self_s("evolution.trajectory"),
        "evolution.incident_hours": count("evolution.trajectory",
                                          "evolution.incident_hours"),
        "evolution.frontier_peak": count("evolution.prune", "evolution.frontier_peak"),
        "evolution.prune_s": t.self_s("evolution.prune"),
        "evolution.prune_points_in": prune_in,
        "evolution.prune_kept_ratio": ratio(
            count("evolution.prune", "evolution.prune_points_out"), prune_in),
        "evolution.burned_circle_s": t.self_s("evolution.burned_circle"),
        "evolution.replay_s": t.self_s("evolution.replay"),
        "evolution.replays": t.calls.get("evolution.replay"),
        "sensors.deploy_s": t.self_s("sensors.deploy"),
        "sensors.sensors_deployed": count("sensors.deploy", "sensors.sensors_deployed"),
        "sensors.first_query_s": t.self_s("sensors.first_query"),
        "sensors.query_s": t.self_s("sensors.query"),
        "sensors.queries": queries or None,
        "sensors.hit_ratio": ratio(t.counters.get("sensors.hits"), queries),
        "carbon.average_biomass_s": t.self_s("carbon.average_biomass"),
        "carbon.average_biomass_calls": t.calls.get("carbon.average_biomass"),
        "harness.self_s": t.self_s("harness.sweep"),
        "harness.write_s": t.self_s("harness.write"),
        "harness.cpu_s": untraced["cpu_s"] if untraced else None,
    }
    info: dict = {"traced_sweep_s": traced["sweep_s"] if traced else None,
                  "spans": len(t.spans)}
    # tracing overhead is only a like-for-like difference when the
    # untraced iteration also ran at one worker
    if untraced and traced and workers == 1:
        info["harness.trace_overhead_s"] = traced["sweep_s"] - untraced["sweep_s"]
    return metrics, info


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    # a checkout without .git reports null; src_sha256 still identifies the
    # code (and git must not answer for a repository further up)
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_environment(workers: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "cache": _cache_sizes(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": _git_commit(),
            "src_sha256": _src_sha256(), "workers": workers,
            "thread_env": {v: os.environ[v] for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def measure(name: str, workload: dict, seed: int, seconds: float, trace: bool,
            corrupt: bool = False) -> dict:
    """Run one workload and print its report; returns the result object."""
    harness = load_harness()
    out_dir = OUT / name
    bundle = write_bundle(harness, workload, seed, out_dir)
    workers = min(workload["workers"], os.cpu_count() or 1)
    attempts = Attempts(name, seed, out_dir, corrupt)
    if trace:
        measured, info = per_layer(harness, bundle, workers, attempts,
                                   out_dir / f"trace_s{seed}.csv")
    else:
        measured, info = end_to_end(harness, bundle, workers, seconds, attempts)
    section = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    # a metric the code no longer measures reads null
    metrics = {m["name"]: {"value": measured.get(m["name"]), "unit": m["unit"]}
               for m in section}
    info["error_rate"] = attempts.failed / attempts.attempted
    env = run_environment(workers)
    print("env " + json.dumps({"workload": name, "seed": seed, "trace": int(trace),
                               **env, "outputs": attempts.hashes, **info}))
    for key, metric in metrics.items():
        print(f"metric {key} {json.dumps(metric['value'])} {metric['unit']}")
    print(f"metric error_rate {info['error_rate']!r} ratio")
    if "harness.trace_overhead_s" in info:
        print(f"metric harness.trace_overhead_s {info['harness.trace_overhead_s']!r} s")
    result = {"correct": attempts.failed == 0, "attempted": attempts.attempted,
              "failed": attempts.failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result


def smoke() -> int:
    """Seconds-long self-test of the benchmark on a tiny config.

    Checks that every metric BENCHMARK.json names is printed with its unit
    and a value, that a clean run has error_rate 0, and that a corrupted
    output file raises error_rate.
    """
    spec = json.loads(SPEC.read_text())
    failures = []

    def printed(trace: bool, corrupt: bool = False) -> tuple[dict, dict]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            result = measure("smoke", SMOKE, 0, 0.0, trace, corrupt)
        lines = {}
        for line in buf.getvalue().splitlines():
            if line.startswith("metric "):
                _, key, value, unit = line.split(" ")
                lines[key] = (json.loads(value), unit)
        return lines, result

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        lines, result = printed(trace)
        wanted = [(m["name"], m["unit"]) for m in spec[section]] + [("error_rate", "ratio")]
        for key, unit in wanted:
            if key not in lines or lines[key][1] != unit or lines[key][0] is None:
                failures.append(f"--trace {int(trace)}: metric {key} [{unit}] "
                                f"missing or unmeasured: {lines.get(key)}")
        if lines.get("error_rate", (None,))[0] != 0 or not result["correct"]:
            failures.append(f"--trace {int(trace)}: clean run failed its check")
    lines, result = printed(False, corrupt=True)
    if not lines.get("error_rate", (0,))[0] > 0 or result["correct"]:
        failures.append("a corrupted sweep_rows.csv did not raise error_rate")
    for failure in failures:
        print(f"smoke: FAIL {failure}")
    print(f"smoke: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own self-test and exit")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
