"""Ground sensor fields: deployment, persistence, proximity queries.

A field is a flat (n, 2) array of planar sensor positions (km), plus the
deployment provenance needed to regenerate it: the RNG seed and the
region rectangle. A field is checked, and its bounding box taken, from
four column reductions; a field whose extent overflows a float is
refused. A query tests every sensor of the field; the fields sweep and
simulate deploy are screened (see below), so they hold only the
sensors near their incidents.

Deployments from one seed nest: deploy_uniform(n) is a bitwise prefix
of deploy_uniform(N) for n <= N, so the first n sensors of one deployed
field stand for the n-sensor deployment (see evolution.replay_detection).
The draw runs in blocks of at most BLOCK_ROWS sensors of raw Philox
words, each the variate Generator.random makes of it. Given disks, a
deployment is screened before its words become positions: a raster over
the unit square of variates marks the cells whose positions a disk query
could find in some disk, a row is kept when the top bits of its two
words name a marked cell, and only kept rows are placed. The field
records their draw indices (ids) and how many were drawn, so a replay
against it answers for the whole draw while the whole draw is never held.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .envdata import Rect, csv_cell, read_csv, write_csv
from .errors import ValidationError, check_range, check_seed

# most sensors one deploy_uniform draw makes at a time: a block's 256 KB
# of words and its cell numbers are small enough that the allocator
# reuses their memory for the next block; at 65,536 rows it handed it
# back to the system each block, and a bundled sweep's deploys took
# ~200k page faults
BLOCK_ROWS = 1 << 14
# cells per side of the raster over the unit square of variates that a
# screened deployment marks its disks on, whatever the region's size; a
# power of two, so a word's cell is its top bits
RASTER_CELLS = 512

_Disk = tuple[tuple[float, float], float]  # (center, radius)


@dataclass(frozen=True)
class SensorField:
    """Sensor positions with their deployment seed and region.

    seed and region are optional provenance: a field deployed by
    deploy_uniform carries both and can be regenerated bit-for-bit from
    (count, region, seed); hand-built or loaded fields may lack them.
    A screened field (see deploy_uniform) holds part of a draw of drawn
    sensors: sensor i is draw ids[i], ids ascending. A field without
    ids is its own draw, and its drawn is its length. The field is
    frozen, as its positions are checked once, at construction.
    """

    positions: np.ndarray
    seed: int | None = None
    region: Rect | None = None
    ids: np.ndarray | None = None
    drawn: int | None = None

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
            x0, y0, x1, y1 = box
            if not (x1 - x0 < math.inf and y1 - y0 < math.inf):
                raise ValidationError(f"sensor positions span x {x0} to {x1} and "
                                      f"y {y0} to {y1} km, an extent past any float")
            r = self.region
            if r is not None and not (r.x0 <= x0 and x1 <= r.x0 + r.width_km
                                      and r.y0 <= y0 and y1 <= r.y0 + r.height_km):
                ok = ((x >= r.x0) & (x <= r.x0 + r.width_km)
                      & (y >= r.y0) & (y <= r.y0 + r.height_km))
                bad = int(np.flatnonzero(~ok)[0])
                raise ValidationError(
                    f"sensor {bad} at ({pos[bad, 0]}, {pos[bad, 1]}) lies outside "
                    f"the field region {r}")
        object.__setattr__(self, "positions", pos)
        if self.seed is not None:
            check_seed("sensor field seed", self.seed)
        n = len(pos)
        if (self.ids is None) != (self.drawn is None):
            raise ValidationError("sensor field ids and drawn go together: "
                                  f"got ids {self.ids!r} and drawn {self.drawn!r}")
        if self.ids is None:
            object.__setattr__(self, "drawn", n)
            return
        check_range("sensor field drawn", self.drawn, n, integer=True)
        ids = np.asarray(self.ids)
        if not (ids.shape == (n,) and ids.dtype.kind in "iu"
                and (ids[:1] >= 0).all() and (ids[-1:] < self.drawn).all()
                and (ids[1:] > ids[:-1]).all()):
            raise ValidationError(f"sensor field ids must be {n} ascending integer "
                                  f"draw indices in [0, {self.drawn}), got {ids!r}")
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return self.positions.shape[0]


def _reach(radius: float) -> float:
    """How far from a disk query's center, along either axis, its rounded
    test can accept a sensor: the test can accept one up to ~3e-16 *
    radius + 3e-162 km (rounding, underflow) past the radius, and this
    reaches past that margin. Once radius * radius overflows, the test
    accepts every sensor (any squared distance <= inf): the reach is inf."""
    return radius * (1.0 + 1e-12) + 1e-150 if radius * radius < math.inf else math.inf


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
    """(ascending indices, squared distances) of the sensors in the closed
    disk: one squared_distances pass over the whole field."""
    check_range("radius", radius)
    for v in center:
        check_range("center", v, -math.inf)
    # Python floats: a numpy scalar radius would warn where its square overflows
    center, radius = (float(center[0]), float(center[1])), float(radius)
    dist2 = squared_distances(field_.positions[:, 0], field_.positions[:, 1],
                              center[0], center[1])
    inside = np.flatnonzero(dist2 <= radius * radius)
    return inside, dist2[inside]


def indices_within(field_: SensorField, center: tuple[float, float],
                   radius: float) -> np.ndarray:
    """Ascending indices of sensors inside the closed disk of given radius."""
    return _inside(field_, center, radius)[0]


def nearest_index_within(field_: SensorField, center: tuple[float, float],
                         radius: float) -> int | None:
    """Index of the closest sensor in the closed disk, or None.

    Distance ties resolve to the lowest index.
    """
    hits, dist2 = _inside(field_, center, radius)
    if hits.size == 0:
        return None
    return int(hits[dist2.argmin()])


def _affine(u: np.ndarray, rect: Rect) -> np.ndarray:
    """The (k, 2) variates u made, in place, into positions: bitwise
    x0 + width * u per column (IEEE * and + commute), one column at a
    time, as broadcasting a pair over (k, 2) runs a length-2 inner loop.
    Monotone in u, as width >= 0."""
    u[:, 0] *= rect.width_km
    u[:, 0] += rect.x0
    u[:, 1] *= rect.height_km
    u[:, 1] += rect.y0
    return u


def _screen(rect: Rect, disks: Iterable[_Disk]) -> Callable[[np.ndarray], np.ndarray]:
    """keep(words): the ascending indices of the (k, 2) Philox words (see
    deploy_uniform) whose positions over rect a disk query (indices_within)
    could find in some (center, radius) disk.

    The raster is RASTER_CELLS square over the unit square of variates. A
    word r is the variate u = (r >> 11) * 2**-53, so its cell along an
    axis, floor(u * RASTER_CELLS), is exactly its top bits. Cell j's
    edges are the positions _affine gives the edge variates
    j / RASTER_CELLS and (j + 1) / RASTER_CELLS, and as _affine is
    monotone every position of the cell lies between them. Each disk
    marks every cell whose edge interval meets its bounding box, widened
    by the query's _reach, so any position the query accepts lies in a
    marked cell; a disk whose reach overflows marks every cell.
    """
    edges = _affine(np.outer(np.arange(RASTER_CELLS + 1) / RASTER_CELLS, (1.0, 1.0)), rect)
    disks = list(disks)
    centers = np.array([c for c, _ in disks], dtype=float).reshape(-1, 2)
    marked = np.zeros((RASTER_CELLS, RASTER_CELLS), dtype=bool)
    # a reach or bound that overflows is inf, without a warning
    with np.errstate(over="ignore"):
        reach = np.array([_reach(r) for _, r in disks], dtype=float).reshape(-1, 1)
        lo, hi = centers - reach, centers + reach
    # per axis, the first cell whose far edge reaches lo and the cell
    # past the last whose near edge is at most hi
    first = [np.searchsorted(edges[1:, k], lo[:, k]) for k in (0, 1)]
    stop = [np.searchsorted(edges[:-1, k], hi[:, k], side="right") for k in (0, 1)]
    for i0, i1, j0, j1 in zip(first[0], stop[0], first[1], stop[1]):
        marked[i0:i1, j0:j1] = True
    marked = marked.ravel()
    bits = RASTER_CELLS.bit_length() - 1
    shift = 64 - bits

    def keep(words: np.ndarray) -> np.ndarray:
        flat = words[:, 0] >> shift
        flat <<= bits
        flat |= words[:, 1] >> shift
        return np.flatnonzero(marked.take(flat))

    return keep


def deploy_uniform(n: int, rect: Rect, seed: int,
                   disks: Iterable[_Disk] | None = None) -> SensorField:
    """Drop n sensors i.i.d. uniform over the rectangle, reproducibly.

    The same (n, rect, seed) always yields the same field, on any
    platform; the stream is counter-based, so deployments of different
    sizes from one seed share a common prefix and never depend on call
    order. Given (center, radius) disks, the field is screened: it keeps,
    with their draw indices as ids, the sensors a disk query could find
    in some disk (every one it does find, and a few more), so any query
    inside those disks answers as against the whole field.
    """
    check_range("sensor count", n, integer=True)
    check_seed("deploy_uniform seed", seed)
    for name, lo in (("x0", -math.inf), ("y0", -math.inf), ("width_km", 0),
                     ("height_km", 0)):
        check_range(f"deploy region {name}", getattr(rect, name), lo)
    stream = np.random.Philox(key=seed)
    keep = None if disks is None else _screen(rect, disks)
    pos = np.empty((n, 2)) if keep is None else None
    kept, ids = [np.empty((0, 2))], [np.empty(0, dtype=np.int64)]
    for start in range(0, n, BLOCK_ROWS):
        # the stream's words fill in C order, so the blocks are bitwise
        # one (n, 2) draw; word r is the variate (r >> 11) * 2**-53, as
        # Generator.random makes it, and only the kept rows are placed
        words = stream.random_raw((min(n - start, BLOCK_ROWS), 2))
        if keep is None:
            out = pos[start:start + len(words)]
        else:
            at = keep(words)
            words = words[at]
            out = np.empty(words.shape)
            kept.append(out)
            ids.append(at + start)
        words >>= 11
        _affine(np.multiply(words, 2.0 ** -53, out=out), rect)
    if keep is None:
        return SensorField(positions=pos, seed=seed, region=rect)
    return SensorField(positions=np.concatenate(kept), seed=seed, region=rect,
                       ids=np.concatenate(ids), drawn=n)


def save_sensors(field_: SensorField, path: str | Path) -> Path:
    """Write a sensor CSV: '#' provenance lines, then x_km,y_km rows.

    A screened field is refused: its file would read back as a whole
    field that its seed and region do not regenerate."""
    if field_.ids is not None:
        raise ValidationError(f"a screened sensor field keeps {len(field_)} of its "
                              f"{field_.drawn} draws; save the whole deployment")
    meta = {} if field_.region is None else {"region": astuple(field_.region)}
    if field_.seed is not None:
        meta["seed"] = (field_.seed,)
    return write_csv(["x_km", "y_km"], field_.positions, path, meta)


def load_sensors(path: str | Path) -> SensorField:
    """Read a sensor CSV written by save_sensors (see envdata.read_csv; its
    '#' keys are region and seed); positions round-trip exactly. A declared
    region is enforced (any row outside it is an error); without one the
    region is inferred as the points' bounding rectangle."""
    meta = dict.fromkeys(("region", "seed"))
    rows: list[tuple[float, float]] = []
    for line, (x, y) in read_csv(path, "sensor file", ("x_km", "y_km"), meta=meta):
        try:
            rows.append((float(x), float(y)))
        except ValueError:  # csv_cell names the bad cell
            where = f"sensor file {path} row {line}"
            rows.append((csv_cell(where, "x_km", x), csv_cell(where, "y_km", y)))
    pos = np.asarray(rows, dtype=float).reshape(len(rows), 2)
    region = seed = None
    if meta["region"] is not None:
        where, text = meta["region"]
        parts = [csv_cell(where, "region", part) for part in text.split(",")]
        if len(parts) != 4:
            raise ValidationError(f"{where}: region needs x0,y0,width_km,height_km, got {text!r}")
        region = Rect(*parts)
    elif rows:
        # Python floats: an extent that overflows is inf, without a warning
        (x0, y0), (x1, y1) = pos.min(axis=0).tolist(), pos.max(axis=0).tolist()
        region = Rect(x0=x0, y0=y0, width_km=x1 - x0, height_km=y1 - y0)
    if meta["seed"] is not None:
        where, text = meta["seed"]
        seed = csv_cell(where, "seed", text, int)
    try:
        return SensorField(positions=pos, seed=seed, region=region)
    except ValidationError as exc:
        raise ValidationError(f"sensor file {path}: {exc}") from exc
