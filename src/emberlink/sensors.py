"""Ground sensor fields: deployment, persistence, proximity queries.

A field is a flat (n, 2) array of planar sensor positions (km), plus the
deployment provenance needed to regenerate it: the RNG seed and the
region rectangle. A field is checked, and its bounding box kept, from
four column reductions. Proximity queries run against a lazily built
cell grid over that box, stored as CSR offsets into a cell-sorted
sensor order. The cell side is sqrt(CELL_SENSORS * area / n), capped
at the larger span and at least that span / n, so a spread-out field
has about n / CELL_SENSORS cells and any field at most
2n + n / CELL_SENSORS + 1: memory stays O(n) however far apart the
sensors lie, and a query touches only the cells its disk overlaps.
Results are always exact; the grid only narrows the candidate set. A
field whose extent overflows a float has no grid, and its first query
raises.

Deployments from one seed nest: deploy_uniform(n) is a bitwise prefix
of deploy_uniform(N) for n <= N, so the first n sensors of one deployed
field stand for the n-sensor deployment (see evolution.replay_detection).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .envdata import Rect, check_seed
from .errors import ValidationError

# smallest grid cell (km); keeps cells positive for coincident or
# collinear sensors
MIN_CELL_KM = 0.25
# sensors per grid cell of a spread-out field: fewer, larger cells make
# a smaller and faster build, and a screen's disk still spans few cells
CELL_SENSORS = 64

_Grid = tuple[float, float, float, int, int, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SensorField:
    """Sensor positions with their deployment seed and region.

    seed and region are optional provenance: a field deployed by
    deploy_uniform carries both and can be regenerated bit-for-bit from
    (count, region, seed); hand-built or loaded fields may lack them.
    The field is frozen, as its box and grid are taken from its positions.
    """

    positions: np.ndarray
    seed: int | None = None
    region: Rect | None = None
    _grid: _Grid | None = field(default=None, init=False, repr=False, compare=False)
    # (x min, y min, x max, y max) of a non-empty field
    _box: tuple[float, float, float, float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.size == 0:
            pos = pos.reshape(0, 2)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValidationError(f"positions must be (n, 2), got {pos.shape}")
        if pos.size:
            # per-column reductions: axis=0 ones on an (n, 2) array are an
            # order of magnitude slower. min and max propagate NaN and
            # show +-inf, and a box inside the region holds every sensor
            x, y = pos[:, 0], pos[:, 1]
            box = (float(x.min()), float(y.min()), float(x.max()), float(y.max()))
            if not all(map(math.isfinite, box)):
                raise ValidationError("sensor positions contain non-finite values")
            r = self.region
            if r is not None and not (r.x0 <= box[0] and box[2] <= r.x0 + r.width_km
                                      and r.y0 <= box[1] and box[3] <= r.y0 + r.height_km):
                ok = ((x >= r.x0) & (x <= r.x0 + r.width_km)
                      & (y >= r.y0) & (y <= r.y0 + r.height_km))
                bad = int(np.flatnonzero(~ok)[0])
                raise ValidationError(
                    f"sensor {bad} at ({pos[bad, 0]}, {pos[bad, 1]}) lies outside "
                    f"the field region {r}")
            object.__setattr__(self, "_box", box)
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def _index(self) -> _Grid:
        """(x0, y0, cell, nx, ny, starts, order): sensors of grid cell
        (i, j) are order[starts[i * ny + j]:starts[i * ny + j + 1]]."""
        if self._grid is None:
            n = len(self)
            x, y = self.positions[:, 0], self.positions[:, 1]
            x0, y0, x1, y1 = self._box
            wx, wy = x1 - x0, y1 - y0
            if not wx + wy < math.inf:
                raise ValidationError(f"sensor positions span x {x0} to {x1} and "
                                      f"y {y0} to {y1} km, an extent past any float")
            # an overflowing CELL_SENSORS * wx * wy takes the whole span
            span = max(wx, wy)
            cell = max(min(math.sqrt(CELL_SENSORS * wx * wy / n), span), span / n,
                       MIN_CELL_KM)
            # floor((v - v0) / cell) is monotone in v, so the box's far
            # corner is in the last cell of each axis
            nx, ny = math.floor(wx / cell) + 1, math.floor(wy / cell) + 1
            # cell numbers i * ny + j, exact in float64 below 2**53,
            # built in one float scratch array and the int64 result
            f = y - y0
            f /= cell
            np.floor(f, out=f)
            flat = f.astype(np.int64)
            np.subtract(x, x0, out=f)
            f /= cell
            np.floor(f, out=f)
            f *= ny
            np.add(flat, f, out=flat, casting="unsafe")
            del f
            starts = np.zeros(nx * ny + 1, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=nx * ny), out=starts[1:])
            object.__setattr__(self, "_grid", (x0, y0, cell, nx, ny, starts,
                                               _cell_order(flat, nx * ny)))
        return self._grid

    def _candidates(self, center: tuple[float, float], radius: float) -> np.ndarray:
        # indices_within's rounded disk test can accept a sensor up to
        # ~3e-16 * radius + 3e-162 km (rounding, underflow) past the
        # radius; reaching past that margin with the build's monotone
        # floor formula keeps every such sensor a candidate. Once
        # radius * radius overflows, the test accepts every sensor
        # (any squared distance <= inf), so the reach covers the grid.
        x0, y0, cell, nx, ny, starts, order = self._index()
        reach = (radius * (1.0 + 1e-12) + 1e-150 if radius * radius < math.inf
                 else math.inf)
        i0 = max(_floor_within((center[0] - reach - x0) / cell, nx), 0)
        i1 = min(_floor_within((center[0] + reach - x0) / cell, nx), nx - 1)
        j0 = max(_floor_within((center[1] - reach - y0) / cell, ny), 0)
        j1 = min(_floor_within((center[1] + reach - y0) / cell, ny), ny - 1)
        if i0 > i1 or j0 > j1:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([order[starts[i * ny + j0]:starts[i * ny + j1 + 1]]
                               for i in range(i0, i1 + 1)])


def _cell_order(flat: np.ndarray, cells: int) -> np.ndarray:
    """Indices that sort flat (cell numbers below cells) by cell, each
    cell's sensors in index order; flat is consumed.

    One value sort of the int64 keys cell << bits | index, as prune does;
    a grid too large for those keys to fit in int64 takes a stable
    argsort, which gives the same order.
    """
    n = flat.size
    bits = (n - 1).bit_length()
    if cells << bits > 2 ** 63:
        return np.argsort(flat, kind="stable")
    flat <<= bits
    flat |= np.arange(n)
    flat.sort()
    flat &= (1 << bits) - 1
    return flat


def _floor_within(v: float, cells: int) -> int:
    """floor(v) for a cell bound, clamped to [-1, cells]: the clamp only
    moves bounds that lie off the grid, and keeps an infinite bound (an
    overflowed center +- reach) from raising in math.floor."""
    return math.floor(min(max(v, -1.0), float(cells)))


def squared_distances(x: np.ndarray, y: np.ndarray, cx, cy) -> np.ndarray:
    """dx*dx + dy*dy for dx = x - cx and dy = y - cy, broadcast; the
    disk test of every query and of the detection replay. A distance or
    square that overflows is inf, without a warning."""
    with np.errstate(over="ignore"):
        dx = x - cx
        dy = y - cy
        dx *= dx
        dy *= dy
        dx += dy
    return dx


def _inside(field_: SensorField, center: tuple[float, float],
            radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Unsorted (indices, squared distances) of the sensors in the closed disk."""
    if not 0 <= radius < math.inf:
        raise ValidationError(f"radius must be finite and >= 0, got {radius}")
    if not (math.isfinite(center[0]) and math.isfinite(center[1])):
        raise ValidationError(f"center must be finite, got {tuple(center)}")
    # Python floats: numpy scalars would warn where the reach overflows
    center, radius = (float(center[0]), float(center[1])), float(radius)
    cand = (field_._candidates(center, radius) if len(field_)
            else np.empty(0, dtype=np.int64))
    if cand.size == 0:
        return cand, np.empty(0)
    dist2 = squared_distances(field_.positions[cand, 0], field_.positions[cand, 1],
                              center[0], center[1])
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
    check_seed("deploy_uniform seed", seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    # in place, bitwise x0 + width * u (IEEE * and + commute); one column
    # at a time, as broadcasting a pair over (n, 2) runs a length-2 inner loop
    pos = rng.random((n, 2))
    pos[:, 0] *= rect.width_km
    pos[:, 0] += rect.x0
    pos[:, 1] *= rect.height_km
    pos[:, 1] += rect.y0
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
        # Python floats: an extent that overflows is inf, without a warning
        (x0, y0), (x1, y1) = pos.min(axis=0).tolist(), pos.max(axis=0).tolist()
        region = Rect(x0=x0, y0=y0, width_km=x1 - x0, height_km=y1 - y0)
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
