"""Ground sensor fields: deployment, persistence, proximity queries.

A field is a flat (n, 2) array of planar sensor positions (km), plus the
deployment provenance needed to regenerate it: the RNG seed and the
region rectangle. Proximity queries run against a lazily built cell
grid over the field's bounding box, stored as CSR offsets into a
cell-sorted sensor order. The cell side is at least sqrt(area / n) and
span / n, so the grid has at most 3n + 1 cells: memory stays O(n)
however far apart the sensors lie, and a query touches only the cells
its disk overlaps. Results are always exact; the grid only narrows the
candidate set.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .envdata import Rect
from .errors import ValidationError

# smallest grid cell (km); keeps cells positive for coincident or
# collinear sensors
MIN_CELL_KM = 0.25

_Grid = tuple[float, float, float, int, int, np.ndarray, np.ndarray]


@dataclass
class SensorField:
    """Sensor positions with their deployment seed and region.

    seed and region are optional provenance: a field deployed by
    deploy_uniform carries both and can be regenerated bit-for-bit from
    (count, region, seed); hand-built or loaded fields may lack them.
    """

    positions: np.ndarray
    seed: int | None = None
    region: Rect | None = None
    _grid: _Grid | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.size == 0:
            pos = pos.reshape(0, 2)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValidationError(f"positions must be (n, 2), got {pos.shape}")
        if pos.size and not np.isfinite(pos).all():
            raise ValidationError("sensor positions contain non-finite values")
        if self.region is not None and pos.size:
            r = self.region
            ok = ((pos[:, 0] >= r.x0) & (pos[:, 0] <= r.x0 + r.width_km)
                  & (pos[:, 1] >= r.y0) & (pos[:, 1] <= r.y0 + r.height_km))
            if not ok.all():
                bad = int(np.flatnonzero(~ok)[0])
                raise ValidationError(
                    f"sensor {bad} at ({pos[bad, 0]}, {pos[bad, 1]}) lies outside "
                    f"the field region {r}")
        self.positions = pos

    def __len__(self) -> int:
        return self.positions.shape[0]

    def _index(self) -> _Grid:
        """(x0, y0, cell, nx, ny, starts, order): sensors of grid cell
        (i, j) are order[starts[i * ny + j]:starts[i * ny + j + 1]]."""
        if self._grid is None:
            # per-column reductions: axis=0 ones on an (n, 2) array are
            # an order of magnitude slower
            n = len(self)
            x, y = self.positions[:, 0], self.positions[:, 1]
            x0, y0 = float(x.min()), float(y.min())
            wx, wy = float(x.max()) - x0, float(y.max()) - y0
            cell = max(math.sqrt(wx * wy / n), max(wx, wy) / n, MIN_CELL_KM)
            i = np.floor((x - x0) / cell).astype(np.int64)
            j = np.floor((y - y0) / cell).astype(np.int64)
            nx, ny = int(i.max()) + 1, int(j.max()) + 1
            flat = i * ny + j
            starts = np.zeros(nx * ny + 1, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=nx * ny), out=starts[1:])
            self._grid = (x0, y0, cell, nx, ny, starts, np.argsort(flat))
        return self._grid

    def _candidates(self, center: tuple[float, float], radius: float) -> np.ndarray:
        # indices_within's rounded disk test can accept a sensor up to
        # ~3e-16 * radius + 3e-162 km (rounding, underflow) past the
        # radius; reaching past that margin with the build's monotone
        # floor formula keeps every such sensor a candidate
        x0, y0, cell, nx, ny, starts, order = self._index()
        reach = radius * (1.0 + 1e-12) + 1e-150
        i0 = max(math.floor((center[0] - reach - x0) / cell), 0)
        i1 = min(math.floor((center[0] + reach - x0) / cell), nx - 1)
        j0 = max(math.floor((center[1] - reach - y0) / cell), 0)
        j1 = min(math.floor((center[1] + reach - y0) / cell), ny - 1)
        if i0 > i1 or j0 > j1:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([order[starts[i * ny + j0]:starts[i * ny + j1 + 1]]
                               for i in range(i0, i1 + 1)])


def _inside(field_: SensorField, center: tuple[float, float],
            radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Unsorted (indices, squared distances) of the sensors in the closed disk."""
    if not 0 <= radius < math.inf:
        raise ValidationError(f"radius must be finite and >= 0, got {radius}")
    if not (math.isfinite(center[0]) and math.isfinite(center[1])):
        raise ValidationError(f"center must be finite, got {tuple(center)}")
    cand = (field_._candidates(center, radius) if len(field_)
            else np.empty(0, dtype=np.int64))
    if cand.size == 0:
        return cand, np.empty(0)
    d = field_.positions[cand] - np.asarray(center, dtype=float)
    dist2 = np.einsum("ij,ij->i", d, d)
    inside = dist2 <= radius * radius
    return cand[inside], dist2[inside]


def indices_within(field_: SensorField, center: tuple[float, float],
                   radius: float) -> np.ndarray:
    """Ascending indices of sensors inside the closed disk of given radius."""
    return np.sort(_inside(field_, center, radius)[0])


def nearest_index_within(field_: SensorField, center: tuple[float, float],
                         radius: float) -> int | None:
    """Index of the closest sensor in the closed disk, or None.

    Distance ties resolve to the lowest index.
    """
    hits, dist2 = _inside(field_, center, radius)
    if hits.size == 0:
        return None
    return int(hits[dist2 == dist2.min()].min())


def deploy_uniform(n: int, rect: Rect, seed: int) -> SensorField:
    """Drop n sensors i.i.d. uniform over the rectangle, reproducibly.

    The same (n, rect, seed) always yields the same field, on any
    platform; the stream is counter-based, so deployments of different
    sizes from one seed share a common prefix and never depend on call
    order.
    """
    if n < 0:
        raise ValidationError(f"sensor count must be >= 0, got {n}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n, 2))
    pos = np.empty((n, 2), dtype=float)
    pos[:, 0] = rect.x0 + rect.width_km * u[:, 0]
    pos[:, 1] = rect.y0 + rect.height_km * u[:, 1]
    return SensorField(positions=pos, seed=seed, region=rect)


def save_sensors(field_: SensorField, path: str | Path) -> Path:
    """Write a sensor CSV: '#' provenance lines, then x_km,y_km rows."""
    fpath = Path(path)
    fpath.parent.mkdir(parents=True, exist_ok=True)
    with fpath.open("w", newline="") as fh:
        if field_.region is not None:
            r = field_.region
            fh.write(f"# region={r.x0!r},{r.y0!r},{r.width_km!r},{r.height_km!r}\n")
        if field_.seed is not None:
            fh.write(f"# seed={field_.seed}\n")
        fh.write("x_km,y_km\n")
        for x, y in field_.positions:
            fh.write(f"{float(x)!r},{float(y)!r}\n")
    return fpath


def _parse_region(raw: str, fpath: Path) -> Rect:
    parts = raw.split(",")
    if len(parts) != 4:
        raise ValidationError(
            f"sensor file {fpath}: region needs x0,y0,width_km,height_km, got {raw!r}")
    try:
        x0, y0, w, h = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"sensor file {fpath}: bad region {raw!r}") from exc
    return Rect(x0=x0, y0=y0, width_km=w, height_km=h)


def load_sensors(path: str | Path) -> SensorField:
    """Read a sensor CSV written by save_sensors; positions round-trip exactly.

    A declared region header is enforced (any row outside it is an
    error); without one the region is inferred as the points' bounding
    rectangle.
    """
    fpath = Path(path)
    if not fpath.is_file():
        raise ValidationError(f"sensor file missing: {fpath}")
    meta: dict[str, str] = {}
    rows: list[tuple[float, float]] = []
    with fpath.open(newline="") as fh:
        lines = []
        for raw in fh:
            if raw.startswith("#"):
                body = raw[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            lines.append(raw)
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"sensor file {fpath} has no header") from None
        if [h.strip() for h in header] != ["x_km", "y_km"]:
            raise ValidationError(
                f"sensor file {fpath} header must be x_km,y_km, got {header}")
        for n, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValidationError(f"sensor file row {n}: expected 2 columns, got {len(row)}")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise ValidationError(f"sensor file row {n}: bad coordinate") from exc
    pos = np.asarray(rows, dtype=float).reshape(len(rows), 2)
    region = _parse_region(meta["region"], fpath) if "region" in meta else None
    if region is None and rows:
        lo = pos.min(axis=0)
        span = pos.max(axis=0) - lo
        region = Rect(x0=float(lo[0]), y0=float(lo[1]),
                      width_km=float(span[0]), height_km=float(span[1]))
    seed: int | None = None
    if "seed" in meta:
        try:
            seed = int(meta["seed"])
        except ValueError as exc:
            raise ValidationError(f"sensor file {fpath}: bad seed {meta['seed']!r}") from exc
    try:
        return SensorField(positions=pos, seed=seed, region=region)
    except ValidationError as exc:
        raise ValidationError(f"sensor file {fpath}: {exc}") from exc
