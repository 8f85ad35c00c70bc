"""Gridded environmental inputs: wind, soil wetness, biomass, incidents.

Grids live on a planar simulation rectangle in km. The hourly environment
grid holds eastward/northward 10 m wind (m/s) and volumetric soil water
(fraction of 1) on a coarse grid indexed [t][y][x]; above-ground live
biomass (Mg/ha) sits on its own finer static grid indexed [y][x]. An
environment grid is held as the lattice its cells are computed from (its
rasters if loaded; 0.6 MB if synthesized for the bundled season, whose
rasters take 97 MB), and evaluated only at the cells a lookup asks for.

File formats, each written whole through atomic_open (JSON as json_text):
  env manifest      JSON {nx, ny, nt, spacing_km, origin, files: {u10, v10, swvl1}}
  biomass manifest  JSON {nx, ny, spacing_km, file} (+ optional origin)
  rasters           flat little-endian float32, row-major
  incidents         CSV id,start_iso8601,lat_deg,lon_deg[,contained_iso8601][,area_acre]
Every CSV input (incidents, sensor files, TBS maps) is read by read_csv:
a header of the format's columns, in any order, each required one present
and none unknown or repeated; '#key=value' lines only before it, with the
keys the format declares; blank lines skipped; every other row as many
cells as the header. Errors read '<what> <path> row <file line>: ...'.

Lookups are nearest-cell (no interpolation) over a whole point array at
once; a position on a shared cell edge resolves to the lower-index cell,
and a position off the rectangle samples the nearest edge cell. An env
lookup returns the distinct cells the points fall in and each point's
slot among them, and evaluates nothing: cell_values evaluates a vector of
(hour, cell) pairs through EnvGrid._at, so a caller can take a cell's
values over a block of hours at once and reuse them while the cell stays
in use.

A synthesized random field is linearly upsampled from a coarse lattice.
Each axis takes its lower source indices and upper weights from _taps,
and every upsampled value is the one blend lo * (1 - w) + hi * w
(_blend), whether _lin_resample resamples a whole axis or EnvGrid._at
reads a few cells.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_range, check_seed

KM2_PER_ACRE = 0.00404686
BIOMASS_COARSE = 8  # side of the biomass field's random lattice, in points


@dataclass(frozen=True)
class Rect:
    """Axis-aligned planar rectangle: origin corner plus extents, in km."""

    x0: float
    y0: float
    width_km: float
    height_km: float

    def contains(self, xy: tuple[float, float]) -> bool:
        x, y = xy
        return (self.x0 <= x <= self.x0 + self.width_km
                and self.y0 <= y <= self.y0 + self.height_km)

    def clamp(self, xy: tuple[float, float]) -> tuple[float, float]:
        x = min(max(xy[0], self.x0), self.x0 + self.width_km)
        y = min(max(xy[1], self.y0), self.y0 + self.height_km)
        return (x, y)


@dataclass(frozen=True)
class GeoTransform:
    """Equirectangular mapping from a lat/lon box onto a planar rectangle."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    width_km: float
    height_km: float

    def __post_init__(self) -> None:
        for name in ("lat_min", "lat_max", "lon_min", "lon_max"):
            check_range(name, getattr(self, name), -math.inf)
        if not self.lat_min < self.lat_max:
            raise ValidationError(f"lat_min must be < lat_max ({self.lat_min} vs {self.lat_max})")
        if not self.lon_min < self.lon_max:
            raise ValidationError(f"lon_min must be < lon_max ({self.lon_min} vs {self.lon_max})")
        for name in ("width_km", "height_km"):
            check_range(name, getattr(self, name), above=True)


# California approximated by a 1000 x 1100 km rectangle (32 deg 32' N - 42 N,
# 124 deg 26' W - 114 deg 8' W).
CALIFORNIA = GeoTransform(
    lat_min=32.5333, lat_max=42.0,
    lon_min=-124.4333, lon_max=-114.1333,
    width_km=1000.0, height_km=1100.0,
)


def geo_to_planar(gt: GeoTransform, lat: float, lon: float) -> tuple[float, float]:
    """Map (lat, lon) inside the box to planar km; corners map to corners."""
    if not gt.lat_min <= lat <= gt.lat_max:
        raise ValidationError(f"lat {lat} outside [{gt.lat_min}, {gt.lat_max}]")
    if not gt.lon_min <= lon <= gt.lon_max:
        raise ValidationError(f"lon {lon} outside [{gt.lon_min}, {gt.lon_max}]")
    x = (lon - gt.lon_min) / (gt.lon_max - gt.lon_min) * gt.width_km
    y = (lat - gt.lat_min) / (gt.lat_max - gt.lat_min) * gt.height_km
    return (x, y)


def check_grid(what: str, spacing_km: float, origin, **dims: int) -> None:
    """Reject a grid (what names it) whose dims are not integers >= 1,
    whose spacing is not finite and > 0, or whose origin is not finite;
    callers check before anything is sized from the dims."""
    for name, n in dims.items():
        check_range(f"{what} {name}", n, 1, integer=True)
    check_range(f"{what} spacing_km", spacing_km, above=True)
    for v in origin:
        check_range(f"{what} origin", v, -math.inf)


def _real_array(name: str, arr, shape: tuple) -> np.ndarray:
    """arr as an array, checked to hold real numbers in the given shape;
    name names it in error messages."""
    try:
        arr = np.asarray(arr)
    except ValueError:  # a ragged nesting, refused below as not numeric
        arr = np.array(None)
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must be an array of real numbers")
    if arr.shape != shape:
        raise ValidationError(f"{name} shape {arr.shape} != declared {shape}")
    return arr


ENV_FIELDS = ("u10", "v10", "swvl1")


class EnvGrid:
    """Hourly wind and soil-wetness fields on the simulation rectangle.

    A grid owns one read-only (3, nt, cy, cx) lattice for its three
    fields, which a cell reads by linear upsampling in y, then x, then an
    optional scaling into the field's (lo, hi) range. A hand-built or
    loaded grid's lattice is its rasters, copied or read in (cy = ny,
    cx = nx, unscaled); a synthesized grid's is the coarse draws
    resampled in time for mode "random" (0.6 MB for the bundle, whose
    rasters would take 97 MB), one value per hour otherwise (cy = cx = 1).
    `u10`, `v10` and `swvl1` compute a new read-only raster on each
    access; cell_values evaluates only the (hour, cell) pairs asked for.
    """

    def __init__(self, nx: int, ny: int, nt: int, spacing_km: float,
                 origin: tuple[float, float], u10, v10, swvl1) -> None:
        check_grid("env grid", spacing_km, origin, nx=nx, ny=ny, nt=nt)
        fields = [_real_array(name, arr, (nt, ny, nx))
                  for name, arr in zip(ENV_FIELDS, (u10, v10, swvl1))]
        self._hold(nx, ny, nt, spacing_km, origin, np.stack(fields))

    @classmethod
    def _of_lattice(cls, geometry: tuple, lattice: np.ndarray,
                    ranges: list | None = None) -> EnvGrid:
        """The grid of geometry (nx, ny, nt, spacing_km, origin) that takes
        over a (3, nt, cy, cx) lattice, scaled into (lo, hi) ranges if given."""
        grid = cls.__new__(cls)
        grid._hold(*geometry, lattice, ranges)
        return grid

    def _hold(self, nx, ny, nt, spacing_km, origin, lattice, ranges=None) -> None:
        """Keep the geometry and the lattice, then check the fields' values."""
        self.nx, self.ny, self.nt = int(nx), int(ny), int(nt)
        self.spacing_km, self.origin = spacing_km, origin
        lattice.flags.writeable = False
        self._lattice = lattice
        _, _, cy, cx = lattice.shape
        self._base = (np.arange(3) * lattice[0].size)[:, None]  # each field's start
        self._hour = cy * cx
        rows, self._wy = _taps(cy, ny)
        self._cols, self._wx = _taps(cx, nx)
        self._rows = rows * cx
        # the lattice points a cell reads, [row][column] from its lowest
        self._corners = np.add.outer([0, cx] if self._wy is not None else [0],
                                     [0, 1] if self._wx is not None else [0])
        self._lo = self._scale = None
        if ranges is not None:
            # IEEE doubles of lo and hi - lo, as Python rounds them
            self._lo = np.array([[float(lo)] for lo, _ in ranges])
            self._scale = np.array([[float(hi - lo)] for lo, hi in ranges])
        for k, name in enumerate(ENV_FIELDS):
            lo, hi = self._extremes(k)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError(f"{name} contains non-finite values")
        smin, smax = self._extremes(2)
        if smin < 0.0 or smax > 1.0:
            raise ValidationError(f"swvl1 out of [0, 1]: range [{smin}, {smax}]")

    def _scaled(self, k: int, v: np.ndarray) -> np.ndarray:
        """Field k's upsampled values v, scaled into its range as float32 if it has one."""
        if self._scale is None:
            return v
        return (self._lo[k] + self._scale[k] * v).astype(np.float32)

    def _extremes(self, k: int) -> tuple[float, float]:
        """Least and greatest value of field k (NaN if it holds one): the
        lattice's, scaled, as upsampling and scaling are monotone."""
        ends = np.array([self._lattice[k].min(), self._lattice[k].max()])
        with np.errstate(over="ignore", invalid="ignore"):
            ends = self._scaled(k, ends)
        return float(ends[0]), float(ends[1])

    def _at(self, t, iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
        """The three fields' values at the cells (t, iy[i], ix[i]), or
        (t[i], iy[i], ix[i]) for an array of hours, one row per field, as
        _hours computes them: _blend in float64 along y, then x, then
        lo + (hi - lo) * v stored as float32. Every step is elementwise, so
        a cell-hour's values do not depend on the others asked for."""
        first = self._base + (self._rows[iy] + self._cols[ix] + t * self._hour)
        v = self._lattice.take(self._corners[:, :, None, None] + first)
        for w, i in ((self._wy, iy), (self._wx, ix)):
            v = v[0] if w is None else _blend(v[0], v[1], w[i])
        return self._scaled(slice(None), v)

    def _hours(self, k: int):
        """Field k's (ny, nx) raster of each hour in turn: the values _at reads."""
        _, _, cy, cx = self._lattice.shape
        along_y, along_x = _taps(cy, self.ny), _taps(cx, self.nx)
        for hour in self._lattice[k]:
            yield self._scaled(k, _lin_resample(_lin_resample(hour, along_y, 0), along_x, 1))

    def _raster(self, k: int) -> np.ndarray:
        """Field k's (nt, ny, nx) raster, filled hour by hour into a new read-only array."""
        dtype = self._lattice.dtype if self._scale is None else np.float32
        out = np.empty((self.nt, self.ny, self.nx), dtype=dtype)
        for t, values in enumerate(self._hours(k)):
            out[t] = values
        out.flags.writeable = False
        return out

    u10 = property(lambda self: self._raster(0), doc="eastward 10 m wind, m/s")
    v10 = property(lambda self: self._raster(1), doc="northward 10 m wind, m/s")
    swvl1 = property(lambda self: self._raster(2), doc="volumetric soil water, 0-1")

    @property
    def rect(self) -> Rect:
        return Rect(self.origin[0], self.origin[1],
                    self.nx * self.spacing_km, self.ny * self.spacing_km)


@dataclass
class BiomassGrid:
    """Static above-ground live biomass raster (Mg/ha), indexed [y][x].

    The grid owns a read-only copy of the values it was given, as an
    EnvGrid does, so writing to the passed array afterwards changes nothing.
    """

    nx: int
    ny: int
    spacing_km: float
    values: np.ndarray
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        check_grid("biomass", self.spacing_km, self.origin, nx=self.nx, ny=self.ny)
        self.nx, self.ny = int(self.nx), int(self.ny)
        self.values = np.array(_real_array("biomass", self.values, (self.ny, self.nx)))
        self.values.flags.writeable = False
        if not np.isfinite(self.values).all():
            raise ValidationError("biomass contains non-finite values")
        if float(self.values.min()) < 0.0:
            raise ValidationError("biomass values must be >= 0")

    @property
    def rect(self) -> Rect:
        return Rect(self.origin[0], self.origin[1],
                    self.nx * self.spacing_km, self.ny * self.spacing_km)


def check_biomass_alignment(bio: BiomassGrid, env: EnvGrid) -> None:
    """Require the biomass rectangle to match the env rectangle within one env cell."""
    tol = env.spacing_km
    er, br = env.rect, bio.rect
    for name, a, b in (("x0", br.x0, er.x0), ("y0", br.y0, er.y0),
                       ("width_km", br.width_km, er.width_km),
                       ("height_km", br.height_km, er.height_km)):
        if not abs(a - b) <= tol:  # NaN fails too
            raise ValidationError(
                f"biomass rectangle {name}={a} differs from env {name}={b} "
                f"by more than one env cell ({tol} km)")


@dataclass(frozen=True)
class Incident:
    """One fire outbreak: where and when it ignited, plus optional history."""

    id: str
    start_hour: int
    ignition_xy: tuple[float, float]
    historical_burn_hours: float | None = None
    historical_area_km2: float | None = None


def check_placement(what: str, xy: tuple[float, float], start_hour: int,
                    grid: EnvGrid) -> None:
    """Reject an incident (what names it) that ignites outside the grid
    rectangle or starts outside its hours."""
    if not grid.rect.contains(xy):
        raise ValidationError(f"{what}: ignition {xy} outside the grid rectangle")
    if not 0 <= start_hour < grid.nt:
        raise ValidationError(f"{what}: start hour {start_hour} outside [0, {grid.nt})")


def check_incident_id(what: str, id_: str, seen: set[str]) -> None:
    """Reject an incident (what names it) whose id is empty or among the
    ids of the season's incidents before it (seen), then add it to them."""
    if not id_ or id_ in seen:
        raise ValidationError(f"{what}: id {id_!r} must be non-empty and unique in the season")
    seen.add(id_)


def nearest_cells(grid: EnvGrid | BiomassGrid, xy) -> np.ndarray:
    """Column and row indices, int64 (2, ...), of the grid cells holding the
    positions xy = (x, y), x and y arrays or scalars: a position on a
    shared cell edge resolves to the lower-index cell, one off the
    rectangle to the nearest edge cell, and a NaN coordinate to the first.
    Both axes go through each numpy call at once."""
    xy = np.asarray(xy, dtype=float)
    axes = (2,) + (1,) * (xy.ndim - 1)
    origin = np.array(grid.origin, dtype=float).reshape(axes)
    cells = np.array((grid.nx, grid.ny)).reshape(axes)
    # the cell count ceil(offset / spacing), clamped to [1, n] before the
    # cast: the count that clamping the offset to [0, n * spacing] first
    # gives, as ceil is monotone and n * spacing / spacing rounds to
    # within an ulp of n
    k = np.subtract(xy, origin)
    k /= grid.spacing_km
    np.ceil(k, out=k)
    np.fmin(np.fmax(k, 1.0, out=k), cells, out=k)
    return k.astype(np.int64) - 1


def sample_env_many(
    grid: EnvGrid, points: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-cell lookup for every point of an (n, 2) array at hour t:
    the m distinct cells the points fall in, as ascending int64 cell
    numbers iy * nx + ix, and each point's slot among them.

    Each point takes the cell nearest_cells gives it, through the (2, n)
    view points.T, which is contiguous for a column-major frontier. No
    field is evaluated here: cell_values(grid, cells, t) gives the cells'
    (3, m) values at hour t, and values.take(slot, axis=1) the per-point
    values.
    """
    if not 0 <= t < grid.nt:
        raise ValidationError(f"hour {t} outside [0, {grid.nt})")
    ix, iy = nearest_cells(grid, np.asarray(points, dtype=float).T)
    # each distinct cell once, from a presence table spanning the call's cells
    # (the initial values only serve a call without points)
    cells = iy * grid.nx + ix
    first = cells.min(initial=grid.ny * grid.nx)
    cells -= first
    seen = np.zeros(cells.max(initial=-1) + 1, dtype=bool)
    seen[cells] = True
    distinct = seen.nonzero()[0]
    # each point's place among them, by the table's running count (below
    # the point count, so int32 holds it)
    rank = seen.cumsum(dtype=np.int32)
    rank -= 1
    slot = rank.take(cells)
    distinct += first
    return distinct, slot


def cell_values(grid: EnvGrid, cells: np.ndarray, t) -> np.ndarray:
    """Float64 (3, k) values of (u10, v10, swvl1) at the k cell numbers
    cells (iy * nx + ix, as sample_env_many gives them) at hour t, or at
    hours t[i], each within [0, nt) (see EnvGrid._at)."""
    return np.asarray(grid._at(t, cells // grid.nx, cells % grid.nx), dtype=float)


# ---------------------------------------------------------------------------
# JSON, CSV and raster IO
# ---------------------------------------------------------------------------

@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """The file a block writes to path, opened in mode ("w" or "wb"; text
    ends lines with \\n everywhere). It is created beside path under a
    unique temporary name with mode 0o666 less the umask, and renamed over
    path when the block completes, so readers never see a partial file;
    if the block raises, it is removed and path is left as it was."""
    fpath = Path(path)
    fpath.parent.mkdir(parents=True, exist_ok=True)
    tmp = fpath.with_name(f"{fpath.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, fpath)
    except BaseException:
        os.unlink(tmp)
        raise


def json_text(obj) -> str:
    """obj as strict JSON: 2-space indent, keys in their order, a final
    newline. A numpy scalar is the Python number it holds, and any other
    object JSON cannot hold raises TypeError. An infinity (an uncapped
    sweep's cap) is null, as strict JSON has none; a NaN raises ValueError."""
    strict = json.loads(json.dumps(obj, default=np.generic.item),
                        parse_constant=lambda c: None if "Inf" in c else math.nan)
    return json.dumps(strict, indent=2, allow_nan=False) + "\n"


def write_json(obj, path: str | Path) -> Path:
    """Write json_text(obj) to path through atomic_open."""
    with atomic_open(path) as fh:
        fh.write(json_text(obj))
    return Path(path)


def write_csv(header: list[str], rows, path: str | Path, meta: dict | None = None) -> Path:
    """Write a CSV through atomic_open, row by row: a '# key=value' line for
    each item of meta, whose value is a row, then the header and the rows.
    A cell is the repr of the Python number it holds, which round-trips
    every float exactly; an array row is converted by .tolist()."""
    def line(row) -> str:
        cells = row.tolist() if isinstance(row, np.ndarray) else (
            v.item() if isinstance(v, np.generic) else v for v in row)
        return ",".join(map(repr, cells)) + "\n"

    with atomic_open(path) as fh:
        fh.writelines(f"# {key}={line(value)}" for key, value in (meta or {}).items())
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line, rows))
    return Path(path)


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object a file holds; what names the file in error messages."""
    fpath = Path(path)
    if not fpath.is_file():
        raise ValidationError(f"{what} missing: {fpath}")
    try:
        raw = json.loads(fpath.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{what} {fpath} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(
            f"{what} {fpath} must hold a JSON object, got {type(raw).__name__}")
    return raw


def read_csv(path: str | Path, what: str, columns: tuple[str, ...],
             required: int | None = None, meta: dict | None = None):
    """The rows of the CSV file at path, by the module docstring's rules, as
    (1-based file line, cells in the order of columns, "" for one the header
    leaves out); the first required columns (default all) are required.
    Each '#' line sets a key of meta, once, to (where, value), where naming
    its line as csv_cell's does. Errors name the file as what and path."""
    if not os.path.isfile(path):
        raise ValidationError(f"{what} missing: {path}")
    with open(path, newline="") as fh:
        for line, text in enumerate(fh, 1):
            where = f"{what} {path} row {line}"
            if text.startswith("#"):
                key, eq, value = (part.strip() for part in text[1:].partition("="))
                if not eq or (meta or {}).get(key, "") is not None:
                    rule = f"may set {', '.join(meta)} once each" if meta else "are not allowed"
                    raise ValidationError(f"{where}: '#' lines {rule}, got {text.strip()!r}")
                meta[key] = (where, value)
            elif text.strip():
                break
        else:
            raise ValidationError(f"{what} {path} has no header")
        header = [name.strip() for name in next(csv.reader([text]))]
        check_fields(f"{where}: header", dict.fromkeys(header, ""),
                     dict.fromkeys(columns, ""), columns[:required])
        if len(set(header)) < len(header):
            raise ValidationError(f"{where}: header repeats {max(header, key=header.count)!r}")
        width = len(header)
        # each row's cells in columns' order, an appended "" for those left out
        pick = None if header == list(columns) else [
            header.index(name) if name in header else width for name in columns]
        reader = csv.reader(fh)
        for row in reader:
            if len(row) != width:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise ValidationError(f"{what} {path} row {line + reader.line_num}: the "
                                      f"header has {width} cells, this row {len(row)}")
            if pick is not None:
                row.append("")
                row = [row[i] for i in pick]
            yield line + reader.line_num, row


def _utc_time(text: str) -> datetime:
    """An ISO 8601 time as a naive UTC datetime; one without a zone is UTC."""
    dt = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    return dt if dt.tzinfo is None else dt.astimezone(timezone.utc).replace(tzinfo=None)


_CELL_KINDS = {float: "a number", int: "an integer", _utc_time: "an ISO 8601 time"}


def csv_cell(where: str, column: str, text: str, convert=float, lo: float | None = None):
    """A CSV cell's text read by convert (float, int or _utc_time), and
    checked to be at least lo if lo is given; where names the row as
    read_csv's errors do: '<what> <path> row <line>'."""
    try:
        value = convert(text)
    except ValueError:
        raise ValidationError(
            f"{where}: {column} must be {_CELL_KINDS[convert]}, got {text!r}") from None
    if lo is not None:
        check_range(f"{where}: {column}", value, lo, integer=convert is int)
    return value


def fits_kind(example, value) -> bool:
    """Whether value is of its example's kind. No kind takes a bool; an int
    takes integers, a float any real, a list a list of its first item's
    kind, a tuple as many items of its items' kinds, None (a path) a string."""
    if isinstance(value, bool):
        return False
    if isinstance(example, int):
        return isinstance(value, numbers.Integral)
    if isinstance(example, float):
        return isinstance(value, numbers.Real)
    if isinstance(example, list):
        return isinstance(value, list) and all(fits_kind(example[0], v) for v in value)
    if isinstance(example, tuple):
        return (isinstance(value, (list, tuple)) and len(value) == len(example)
                and all(map(fits_kind, example, value)))
    return isinstance(value, str if example is None else type(example))


def describe_kind(example) -> str:
    """Name of the kind of value an example takes (see fits_kind)."""
    if isinstance(example, int):
        return "an integer"
    if isinstance(example, float):
        return "a number"
    if isinstance(example, list):
        return f"a list of items that are each {describe_kind(example[0])}"
    if isinstance(example, tuple):
        return f"a list of {len(example)} items: {', '.join(map(describe_kind, example))}"
    return "an object" if isinstance(example, dict) else "a string"


def check_fields(what: str, section, kinds: dict, required: tuple | None = None) -> dict:
    """section, checked to be an object whose fields are all in kinds and of
    their example's kind, required ones (default all) present; what names it."""
    if not isinstance(section, dict):
        raise ValidationError(f"{what} must be an object, got {section!r}")
    for key, value in section.items():
        if key not in kinds:
            raise ValidationError(f"{what} has unknown field '{key}'")
        if not fits_kind(kinds[key], value):
            raise ValidationError(f"{what} field '{key}' must be "
                                  f"{describe_kind(kinds[key])}, got {value!r}")
    for key in kinds if required is None else required:
        if key not in section:
            raise ValidationError(f"{what} missing field '{key}'")
    return section


def _raster_file(path: Path, count: int, what: str) -> Path:
    """path, checked to be a file of count float32 values; what names it."""
    if not path.is_file():
        raise ValidationError(f"{what} raster file missing: {path}")
    if path.stat().st_size != 4 * count:
        raise ValidationError(f"{what} raster {path} holds {path.stat().st_size} "
                              f"bytes, expected {4 * count} ({count} float32 values)")
    return path


# example values of the manifests' fields (see fits_kind)
_ENV_MANIFEST_KINDS = {"nx": 0, "ny": 0, "nt": 0, "spacing_km": 0.0,
                       "origin": (0.0, 0.0), "files": {}}
_ENV_FILES_KINDS = {"u10": "", "v10": "", "swvl1": ""}
_BIOMASS_MANIFEST_KINDS = {"nx": 0, "ny": 0, "spacing_km": 0.0,
                           "origin": (0.0, 0.0), "file": ""}


def load_env_grid(manifest_path: str | Path) -> EnvGrid:
    """Load and validate an environment grid from its JSON manifest."""
    mpath = Path(manifest_path)
    manifest = check_fields("env manifest", read_json(mpath, "env manifest"),
                            _ENV_MANIFEST_KINDS, ("nx", "ny", "nt", "spacing_km", "files"))
    files = check_fields("env manifest files", manifest["files"], _ENV_FILES_KINDS)
    nx, ny, nt = int(manifest["nx"]), int(manifest["ny"]), int(manifest["nt"])
    origin = manifest.get("origin", (0.0, 0.0))
    check_grid("env manifest", manifest["spacing_km"], origin, nx=nx, ny=ny, nt=nt)
    paths = [_raster_file(mpath.parent / files[name], nx * ny * nt, name)
             for name in ENV_FIELDS]
    lattice = np.empty((3, nt, ny, nx), dtype="<f4")  # sized once every file is checked
    for path, out in zip(paths, lattice):
        with path.open("rb") as fh:
            if fh.readinto(out) != out.nbytes:
                raise ValidationError(f"raster {path} changed while it was read")
    return EnvGrid._of_lattice((nx, ny, nt, float(manifest["spacing_km"]),
                                (float(origin[0]), float(origin[1]))), lattice)


def _save_set(mpath: Path, manifest: dict, rasters: dict) -> Path:
    """Write a JSON manifest and its rasters (file name: arrays, written in
    turn as float32) as one set: no file is renamed into place until all are
    written (the manifest flushed at once), and the manifest is renamed last."""
    with ExitStack() as stack:
        print(json_text(manifest), end="", file=stack.enter_context(atomic_open(mpath)),
              flush=True)
        for name, arrays in rasters.items():
            fh = stack.enter_context(atomic_open(mpath.parent / name, "wb"))
            for values in arrays:
                np.asarray(values, dtype="<f4").tofile(fh)
    return mpath


def save_env_grid(grid: EnvGrid, manifest_path: str | Path) -> Path:
    """Write the grid's rasters next to a JSON manifest, hour by hour;
    returns the manifest path."""
    mpath = Path(manifest_path)
    files = {name: f"{mpath.stem}_{name}.f32" for name in ENV_FIELDS}
    return _save_set(mpath, {"nx": grid.nx, "ny": grid.ny, "nt": grid.nt,
                             "spacing_km": grid.spacing_km, "origin": list(grid.origin),
                             "files": files},
                     {files[name]: grid._hours(k) for k, name in enumerate(ENV_FIELDS)})


def load_biomass(manifest_path: str | Path) -> BiomassGrid:
    """Load and validate a biomass grid from its JSON manifest."""
    mpath = Path(manifest_path)
    manifest = check_fields("biomass manifest", read_json(mpath, "biomass manifest"),
                            _BIOMASS_MANIFEST_KINDS, ("nx", "ny", "spacing_km", "file"))
    nx, ny = int(manifest["nx"]), int(manifest["ny"])
    origin = manifest.get("origin", (0.0, 0.0))
    check_grid("biomass manifest", manifest["spacing_km"], origin, nx=nx, ny=ny)
    values = np.fromfile(_raster_file(mpath.parent / manifest["file"], nx * ny, "biomass"),
                         dtype="<f4").reshape(ny, nx)
    return BiomassGrid(nx=nx, ny=ny, spacing_km=float(manifest["spacing_km"]),
                       values=values, origin=(float(origin[0]), float(origin[1])))


def save_biomass(bio: BiomassGrid, manifest_path: str | Path) -> Path:
    mpath = Path(manifest_path)
    fname = f"{mpath.stem}_biomass.f32"
    return _save_set(mpath, {"nx": bio.nx, "ny": bio.ny, "spacing_km": bio.spacing_km,
                             "origin": list(bio.origin), "file": fname}, {fname: [bio.values]})


# ---------------------------------------------------------------------------
# synthetic grids
# ---------------------------------------------------------------------------

# an example value of every SynthSpec field, for its kind (see fits_kind)
_SPEC_KINDS = {"nx": 0, "ny": 0, "nt": 0, "spacing_km": 0.0, "origin": (0.0, 0.0),
               "mode": "", "u10": 0.0, "v10": 0.0, "swvl1": 0.0,
               "schedule": [(0, 0.0, 0.0, 0.0)], "u10_range": (0.0, 0.0),
               "v10_range": (0.0, 0.0), "swvl1_range": (0.0, 0.0),
               "coarse_nx": 0, "coarse_ny": 0, "coarse_nt": 0}


@dataclass
class SynthSpec:
    """Descriptor for a synthesized environment grid, checked when built.

    mode "constant"  : uniform u10 / v10 / swvl1 everywhere
    mode "schedule"  : piecewise-constant in time (entries of
                       (start_hour, u10, v10, swvl1), the first at hour
                       0), uniform in space
    mode "random"    : smooth random fields, linearly upsampled from a
                       coarse lattice of seeded uniform draws, scaled into
                       the given (lo, hi) ranges
    """

    nx: int
    ny: int
    nt: int
    spacing_km: float
    origin: tuple[float, float] = (0.0, 0.0)
    mode: str = "constant"
    u10: float = 0.0
    v10: float = 0.0
    swvl1: float = 0.0
    schedule: list[tuple[int, float, float, float]] = field(default_factory=list)
    u10_range: tuple[float, float] = (-5.0, 5.0)
    v10_range: tuple[float, float] = (-5.0, 5.0)
    swvl1_range: tuple[float, float] = (0.0, 0.3)
    coarse_nx: int = 6
    coarse_ny: int = 6
    coarse_nt: int = 12

    def __post_init__(self) -> None:
        check_fields("synth spec", vars(self), _SPEC_KINDS)
        check_grid("synth spec", self.spacing_km, self.origin, **{
            name: getattr(self, name)
            for name in ("nx", "ny", "nt", "coarse_nx", "coarse_ny", "coarse_nt")})
        for name in ("u10_range", "v10_range", "swvl1_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValidationError(f"synth spec {name} must have lo <= hi, got ({lo}, {hi})")
        if not 0 <= self.swvl1_range[0] <= self.swvl1_range[1] <= 1:
            raise ValidationError(f"synth spec swvl1_range outside [0, 1]: {self.swvl1_range}")
        if self.mode not in ("constant", "schedule", "random"):
            raise ValidationError(f"synth spec mode '{self.mode}' is unknown")
        if self.mode == "schedule" and min((e[0] for e in self.schedule), default=1) != 0:
            raise ValidationError("synth spec schedule must be non-empty and start at hour 0")
        self.schedule = [tuple(e) for e in self.schedule]  # type: ignore[misc]
        for name in ("origin", "u10_range", "v10_range", "swvl1_range"):
            setattr(self, name, tuple(getattr(self, name)))

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        """The spec a JSON object describes: no unknown or missing fields."""
        return cls(**check_fields("synth spec", d, _SPEC_KINDS, ("nx", "ny", "nt", "spacing_km")))


def _taps(n_old: int, n_new: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Linear resampling of n_old points to n_new along one axis: each new
    point's lower source index and the upper one's weight, or no weights
    where each new point copies its source (equal sizes, or one source)."""
    if n_old == n_new:
        return np.arange(n_new), None
    if n_old == 1:
        return np.zeros(n_new, dtype=int), None
    pos = np.linspace(0.0, n_old - 1.0, n_new)
    i0 = np.minimum(np.floor(pos).astype(int), n_old - 2)
    return i0, pos - i0


def _blend(lo: np.ndarray, hi: np.ndarray, w) -> np.ndarray:
    """lo * (1 - w) + hi * w, written into lo and hi: float64 arrays the
    caller made for it, so no blend allocates a raster-sized temporary."""
    lo *= 1.0 - w
    hi *= w
    return np.add(lo, hi, out=lo)


def _lin_resample(a: np.ndarray, taps: tuple, axis: int) -> np.ndarray:
    """a linearly resampled along axis by _taps(a.shape[axis], n_new), in a
    new array (a itself when each new point copies its own source); a is
    never written."""
    i0, w = taps
    if w is None:
        return a if i0.size == a.shape[axis] else a.take(i0, axis)
    w = w.reshape(-1, *[1] * (a.ndim - axis - 1))
    return _blend(a.take(i0, axis), a.take(i0 + 1, axis), w)


def _time_lattice(rng: np.random.Generator, spec: SynthSpec) -> np.ndarray:
    """One random field's coarse draw, resampled to every hour: the
    (nt, cy, cx) lattice its cells are upsampled from."""
    coarse = rng.random((min(spec.coarse_nt, spec.nt),
                         min(spec.coarse_ny, spec.ny),
                         min(spec.coarse_nx, spec.nx)))
    return _lin_resample(coarse, _taps(len(coarse), spec.nt), 0)


def synth_env(spec: SynthSpec, seed: int) -> EnvGrid:
    """Deterministically synthesize an EnvGrid from (spec, seed); it holds
    its fields as the lattice they are computed from (see EnvGrid)."""
    check_seed("synth_env seed", seed)
    geometry = (spec.nx, spec.ny, spec.nt, spec.spacing_km, spec.origin)
    if spec.mode == "random":
        rng = np.random.Generator(np.random.Philox(key=seed))
        lattice = np.stack([_time_lattice(rng, spec) for _ in ENV_FIELDS])
        return EnvGrid._of_lattice(geometry, lattice, [
            getattr(spec, f"{name}_range") for name in ENV_FIELDS])
    entries = sorted(spec.schedule) if spec.mode == "schedule" else [
        (0, spec.u10, spec.v10, spec.swvl1)]
    hourly = np.empty((3, spec.nt, 1, 1), dtype=np.float32)
    starts = [e[0] for e in entries] + [spec.nt]
    with np.errstate(over="ignore"):  # EnvGrid rejects what overflows float32
        for (h0, *values), h1 in zip(entries, starts[1:]):
            for k, value in enumerate(values):
                hourly[k, h0:h1] = value
    return EnvGrid._of_lattice(geometry, hourly)


def synth_biomass(nx: int, ny: int, spacing_km: float,
                  lo: float, hi: float, seed: int,
                  origin: tuple[float, float] = (0.0, 0.0)) -> BiomassGrid:
    """Deterministic smooth random biomass field in [lo, hi] Mg/ha."""
    check_grid("biomass", spacing_km, origin, nx=nx, ny=ny)
    check_seed("synth_biomass seed", seed)
    check_range("biomass lo", lo)
    check_range("biomass hi", hi, lo)
    rng = np.random.Generator(np.random.Philox(key=seed))
    c = rng.random((min(BIOMASS_COARSE, ny), min(BIOMASS_COARSE, nx)))
    f = _lin_resample(c, _taps(c.shape[0], ny), 0)
    f = _lin_resample(f, _taps(c.shape[1], nx), 1)
    values = (lo + (hi - lo) * f).astype(np.float32)
    return BiomassGrid(nx=nx, ny=ny, spacing_km=spacing_km, values=values, origin=origin)


# ---------------------------------------------------------------------------
# incidents
# ---------------------------------------------------------------------------

def load_incidents(path: str | Path, gt: GeoTransform, grid: EnvGrid,
                   epoch: datetime | None = None) -> list[Incident]:
    """Read an incident CSV (see read_csv), mapping lat/lon to planar km and
    times to hour indices; the last two columns are optional.

    Start timestamps floor to the hour relative to ``epoch`` (default:
    Jan 1 00:00 of the first row's start year). Duration keeps fractional
    hours; area converts from acres to km^2.
    """
    incidents, seen = [], set()
    for line, (rid, start, lat, lon, contained, area) in read_csv(path, "incident file", (
            "id", "start_iso8601", "lat_deg", "lon_deg", "contained_iso8601", "area_acre"), 4):
        where = f"incident file {path} row {line}"
        rid = rid.strip()
        check_incident_id(where, rid, seen)
        start = csv_cell(where, "start_iso8601", start, _utc_time)
        epoch = epoch or datetime(start.year, 1, 1)
        lat, lon = csv_cell(where, "lat_deg", lat), csv_cell(where, "lon_deg", lon)
        try:
            xy = geo_to_planar(gt, lat, lon)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        start_hour = math.floor((start - epoch).total_seconds() / 3600.0)
        check_placement(where, xy, start_hour, grid)
        burn_hours = area_km2 = None
        if contained.strip():
            contained = csv_cell(where, "contained_iso8601", contained, _utc_time)
            if contained < start:
                raise ValidationError(f"{where}: contained before start")
            burn_hours = (contained - start).total_seconds() / 3600.0
        if area.strip():
            area_km2 = csv_cell(where, "area_acre", area, float, 0) * KM2_PER_ACRE
        incidents.append(Incident(id=rid, start_hour=start_hour, ignition_xy=xy,
                                  historical_burn_hours=burn_hours, historical_area_km2=area_km2))
    return incidents
