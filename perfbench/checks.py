"""Output checks for one sweep's files.

With a recorded reference for (workload, seed), both CSVs must match its
sha256 byte for byte. Every run also checks invariants: one row per
(count, trial), one summary row per count, every value finite, and each
row's savings equal to baseline_price - (price + n * cost) against the
manifest's baseline.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")
HASHED = ("sweep_rows.csv", "sweep_summary.csv")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference(workload: str, seed: int) -> dict[str, str] | None:
    refs = json.loads(REFERENCES.read_text())
    return refs.get(workload, {}).get(str(seed))


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(x) for x in row] for row in reader]


def check_outputs(out_dir: Path, workload: str,
                  seed: int) -> tuple[dict[str, str], list[str]]:
    """sha256 of the CSVs, and the problems found in out_dir's sweep
    outputs (empty when every check holds)."""
    problems: list[str] = []
    hashes = {name: sha256_of(out_dir / name) for name in HASHED}
    ref = reference(workload, seed)
    if ref is not None:
        for name in HASHED:
            if hashes[name] != ref[name]:
                problems.append(f"{name} sha256 {hashes[name]} != reference {ref[name]}")

    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    sweep = manifest["sweep"]
    counts = sweep["sensor_counts"]
    costs = sweep["unit_sensor_cost_usd"]
    base_price = manifest["baseline"]["carbon_price_usd"]
    header, rows = _read_csv(out_dir / "sweep_rows.csv")
    _, summary = _read_csv(out_dir / "sweep_summary.csv")
    if len(rows) != len(counts) * sweep["trials"]:
        problems.append(f"{len(rows)} rows, expected {len(counts)} x {sweep['trials']}")
    if len(summary) != len(counts):
        problems.append(f"{len(summary)} summary rows, expected {len(counts)}")
    if not all(math.isfinite(x) for row in rows + summary for x in row):
        problems.append("non-finite value in the sweep CSVs")
    price_col = header.index("carbon_price_usd")
    first_saving = price_col + 1
    for n, row in enumerate(rows):
        count, price = row[0], row[price_col]
        for k, cost in enumerate(costs):
            want = base_price - (price + count * cost)
            if row[first_saving + k] != want:
                problems.append(f"row {n}: savings@{cost} {row[first_saving + k]!r} "
                                f"!= baseline - (price + n * cost) {want!r}")
                break
    return hashes, problems
