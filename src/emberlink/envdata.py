"""Gridded environmental inputs: wind, soil wetness, biomass, incidents.

Grids live on a planar simulation rectangle in km. The hourly environment
grid holds eastward/northward 10 m wind (m/s) and volumetric soil water
(fraction of 1) on a coarse grid indexed [t][y][x]; above-ground live
biomass (Mg/ha) sits on its own finer static grid indexed [y][x]. A
synthesized environment grid is held as the lattice its cells are
computed from (0.6 MB for the bundled season, whose rasters would take
97 MB), and evaluated only at the cells a lookup asks for.

File formats:
  env manifest      JSON {nx, ny, nt, spacing_km, origin, files: {u10, v10, swvl1}}
  biomass manifest  JSON {nx, ny, spacing_km, file} (+ optional origin)
  rasters           flat little-endian float32, row-major
  incidents         CSV id,start_iso8601,lat_deg,lon_deg,contained_iso8601,area_acre

Lookups are nearest-cell (no interpolation) over a whole point array at
once; a position on a shared cell edge resolves to the lower-index cell,
and a position off the rectangle samples the nearest edge cell.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ValidationError

KM2_PER_ACRE = 0.00404686
BIOMASS_COARSE = 8  # side of the biomass field's random lattice, in points
SEED_LIMIT = 2 ** 128  # seeds are Philox keys, which lie in [0, 2**128)


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
        if not self.lat_min < self.lat_max:
            raise ValidationError(f"lat_min must be < lat_max ({self.lat_min} vs {self.lat_max})")
        if not self.lon_min < self.lon_max:
            raise ValidationError(f"lon_min must be < lon_max ({self.lon_min} vs {self.lon_max})")
        if self.width_km <= 0 or self.height_km <= 0:
            raise ValidationError("geo transform extents must be > 0")


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
    """Reject a grid (what names it) whose dims are below 1, whose spacing
    is not finite and > 0, or whose origin is not finite; callers check
    before anything is sized from the dims."""
    for name, n in dims.items():
        if not n >= 1:  # negated comparisons, so that NaN fails them too
            raise ValidationError(f"{what} {name} must be >= 1, got {n}")
    if not 0 < spacing_km < math.inf:
        raise ValidationError(f"{what} spacing_km must be finite and > 0, got {spacing_km}")
    if not all(map(math.isfinite, origin)):
        raise ValidationError(f"{what} origin must be finite, got {origin}")


def check_seed(what: str, seed: int) -> None:
    """Reject a seed (what names it) outside [0, SEED_LIMIT)."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValidationError(f"{what} must be in [0, 2**128), got {seed}")


ENV_FIELDS = ("u10", "v10", "swvl1")


class EnvGrid:
    """Hourly wind and soil-wetness fields on the simulation rectangle.

    A loaded or hand-built grid holds its three (nt, ny, nx) rasters and
    samples them by gather. A synthesized grid holds what synthesis
    computes them from, one (3, nt, cy, cx) lattice for the three fields:
    for mode "random" the coarse draws resampled in time, which a cell
    reads by linear upsampling in y, then x, then scaling into its range
    (0.6 MB for the bundle, whose rasters would take 97 MB); for modes
    "constant" and "schedule" one value per hour (cy = cx = 1). Its
    `u10`, `v10` and `swvl1` compute a full read-only raster on each
    access; sampling evaluates only the cells the points fall in.
    """

    def __init__(self, nx: int, ny: int, nt: int, spacing_km: float,
                 origin: tuple[float, float], u10: np.ndarray, v10: np.ndarray,
                 swvl1: np.ndarray) -> None:
        check_grid("env grid", spacing_km, origin, nx=nx, ny=ny, nt=nt)
        for name, arr in zip(ENV_FIELDS, (u10, v10, swvl1)):
            if arr.shape != (nt, ny, nx):
                raise ValidationError(
                    f"{name} shape {arr.shape} != declared {(nt, ny, nx)}")
        self._hold(nx, ny, nt, spacing_km, origin, (u10, v10, swvl1), None)

    @classmethod
    def _of_lattice(cls, spec: SynthSpec, lattice: np.ndarray,
                    ranges: list | None = None) -> EnvGrid:
        """The grid of spec whose fields a (3, nt, cy, cx) lattice gives,
        scaled into their (lo, hi) ranges, or taken as they are without."""
        grid = cls.__new__(cls)
        grid._hold(spec.nx, spec.ny, spec.nt, spec.spacing_km, spec.origin,
                   None, lattice, ranges)
        return grid

    def _hold(self, nx, ny, nt, spacing_km, origin, rasters, lattice,
              ranges=None) -> None:
        """Keep the geometry and the fields, then check the fields' values."""
        self.nx, self.ny, self.nt = nx, ny, nt
        self.spacing_km, self.origin = spacing_km, origin
        self._rasters, self._lattice = rasters, lattice
        if lattice is not None:
            _, _, cy, cx = lattice.shape
            self._flat = lattice.reshape(-1)
            self._base = (np.arange(3) * lattice[0].size)[:, None]  # each field's start
            self._hour = cy * cx
            rows, self._wy = _taps(cy, ny)
            self._cols, self._wx = _taps(cx, nx)
            self._rows = rows * cx
            # the lattice points a cell reads, [column][row] from its lowest
            self._corners = np.add.outer([0, 1] if self._wx is not None else [0],
                                         [0, cx] if self._wy is not None else [0])
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

    def _extremes(self, k: int) -> tuple[float, float]:
        """Least and greatest value of field k (NaN if it holds one): a
        lattice's scaled extremes, as the scaling is monotone."""
        values = self._rasters[k] if self._lattice is None else self._lattice[k]
        ends = np.array([values.min(), values.max()])
        if self._lattice is not None and self._scale is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                ends = (self._lo[k] + self._scale[k] * ends).astype(np.float32)
        return float(ends[0]), float(ends[1])

    def _at(self, t: int, iy: np.ndarray, ix: np.ndarray,
            fields: slice = slice(None)) -> list | np.ndarray:
        """The selected fields' values at the cells (t, iy[i], ix[i]), one
        row per field.

        A lattice is read as synthesis has always computed its rasters:
        lo * (1 - w) + hi * w in float64 along y, then along x, then
        lo + (hi - lo) * v, stored as float32."""
        if self._lattice is None:
            return [r[t, iy, ix] for r in self._rasters[fields]]
        first = self._base[fields] + (self._rows[iy] + self._cols[ix] + t * self._hour)
        v = self._flat[first[:, :, None, None] + self._corners]
        w = None if self._wy is None else self._wy[iy][:, None]
        v = v[..., 0] if w is None else v[..., 0] * (1.0 - w) + v[..., 1] * w
        w = None if self._wx is None else self._wx[ix]
        v = v[..., 0] if w is None else v[..., 0] * (1.0 - w) + v[..., 1] * w
        if self._scale is None:
            return v
        return (self._lo[fields] + self._scale[fields] * v).astype(np.float32)

    def _raster(self, k: int) -> np.ndarray:
        """Field k's (nt, ny, nx) raster; a lattice's is computed hour by
        hour into a new read-only array."""
        if self._lattice is None:
            return self._rasters[k]
        out = np.empty((self.nt, self.ny, self.nx), dtype=np.float32)
        iy, ix = np.divmod(np.arange(self.ny * self.nx), self.nx)
        for t in range(self.nt):
            out[t] = self._at(t, iy, ix, slice(k, k + 1)).reshape(self.ny, self.nx)
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
    """Static above-ground live biomass raster (Mg/ha), indexed [y][x]."""

    nx: int
    ny: int
    spacing_km: float
    values: np.ndarray
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        check_grid("biomass", self.spacing_km, self.origin, nx=self.nx, ny=self.ny)
        if self.values.shape != (self.ny, self.nx):
            raise ValidationError(
                f"biomass shape {self.values.shape} != declared {(self.ny, self.nx)}")
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


def sample_env_many(
    grid: EnvGrid, points: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-cell lookup of (u10, v10, swvl1) at every point of an (n, 2)
    array, hour t.

    A position on a shared cell edge resolves to the lower-index cell;
    positions outside the rectangle sample the nearest edge cell. Each
    distinct cell the points fall in is looked up once.
    """
    if not 0 <= t < grid.nt:
        raise ValidationError(f"hour {t} outside [0, {grid.nt})")
    pts = np.asarray(points, dtype=float)
    lx = np.clip(pts[:, 0] - grid.origin[0], 0.0, grid.nx * grid.spacing_km)
    ly = np.clip(pts[:, 1] - grid.origin[1], 0.0, grid.ny * grid.spacing_km)
    ix = np.clip(np.ceil(lx / grid.spacing_km).astype(np.int64) - 1, 0, grid.nx - 1)
    iy = np.clip(np.ceil(ly / grid.spacing_km).astype(np.int64) - 1, 0, grid.ny - 1)
    # each distinct cell once, from a presence table spanning the call's cells
    # (the initial values only serve a call without points)
    cells = iy * grid.nx + ix
    first = cells.min(initial=grid.ny * grid.nx)
    cells -= first
    seen = np.zeros(cells.max(initial=-1) + 1, dtype=bool)
    seen[cells] = True
    distinct = np.flatnonzero(seen)
    slot = np.searchsorted(distinct, cells)  # each point's place among them
    distinct += first
    values = grid._at(t, distinct // grid.nx, distinct % grid.nx)
    u, v, s = np.asarray(values, dtype=float).take(slot, axis=1)
    return u, v, s


# ---------------------------------------------------------------------------
# JSON and raster IO
# ---------------------------------------------------------------------------

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


def _read_raster(path: Path, count: int, what: str) -> np.ndarray:
    if not path.is_file():
        raise ValidationError(f"{what} raster file missing: {path}")
    data = np.fromfile(path, dtype="<f4")
    if data.size != count:
        raise ValidationError(
            f"{what} raster {path} holds {data.size} values, expected {count}")
    return data


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
    rasters = {name: _read_raster(mpath.parent / files[name], nx * ny * nt,
                                  name).reshape(nt, ny, nx)
               for name in _ENV_FILES_KINDS}
    return EnvGrid(nx=nx, ny=ny, nt=nt, spacing_km=float(manifest["spacing_km"]),
                   origin=(float(origin[0]), float(origin[1])), **rasters)


def save_env_grid(grid: EnvGrid, manifest_path: str | Path) -> Path:
    """Write the grid's rasters next to a JSON manifest; returns the manifest path."""
    mpath = Path(manifest_path)
    mpath.parent.mkdir(parents=True, exist_ok=True)
    stem = mpath.stem
    files = {}
    for name in ENV_FIELDS:
        fname = f"{stem}_{name}.f32"
        np.asarray(getattr(grid, name), dtype="<f4").tofile(mpath.parent / fname)
        files[name] = fname
    manifest = {"nx": grid.nx, "ny": grid.ny, "nt": grid.nt,
                "spacing_km": grid.spacing_km, "origin": list(grid.origin),
                "files": files}
    mpath.write_text(json.dumps(manifest, indent=2) + "\n")
    return mpath


def load_biomass(manifest_path: str | Path) -> BiomassGrid:
    """Load and validate a biomass grid from its JSON manifest."""
    mpath = Path(manifest_path)
    manifest = check_fields("biomass manifest", read_json(mpath, "biomass manifest"),
                            _BIOMASS_MANIFEST_KINDS, ("nx", "ny", "spacing_km", "file"))
    nx, ny = int(manifest["nx"]), int(manifest["ny"])
    origin = manifest.get("origin", (0.0, 0.0))
    check_grid("biomass manifest", manifest["spacing_km"], origin, nx=nx, ny=ny)
    values = _read_raster(mpath.parent / manifest["file"], nx * ny, "biomass").reshape(ny, nx)
    return BiomassGrid(nx=nx, ny=ny, spacing_km=float(manifest["spacing_km"]),
                       values=values, origin=(float(origin[0]), float(origin[1])))


def save_biomass(bio: BiomassGrid, manifest_path: str | Path) -> Path:
    mpath = Path(manifest_path)
    mpath.parent.mkdir(parents=True, exist_ok=True)
    fname = f"{mpath.stem}_biomass.f32"
    bio.values.astype("<f4").tofile(mpath.parent / fname)
    manifest = {"nx": bio.nx, "ny": bio.ny, "spacing_km": bio.spacing_km,
                "origin": list(bio.origin), "file": fname}
    mpath.write_text(json.dumps(manifest, indent=2) + "\n")
    return mpath


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


def _lin_resample(a: np.ndarray, n_new: int, axis: int) -> np.ndarray:
    """a linearly resampled to n_new points along axis, in a new array (or
    a itself when the size is unchanged); a is never written."""
    n_old = a.shape[axis]
    i0, w = _taps(n_old, n_new)
    if w is None:
        return a if n_old == n_new else np.repeat(a, n_new, axis=axis)
    shape = [1] * a.ndim
    shape[axis] = n_new
    w = w.reshape(shape)
    # i0 ascends, so repeating each index's slice gathers as np.take(a, i0)
    # does, in one copy
    reps = np.bincount(i0, minlength=n_old - 1)
    head, tail = [slice(None)] * a.ndim, [slice(None)] * a.ndim
    head[axis], tail[axis] = slice(0, n_old - 1), slice(1, n_old)
    lo = np.repeat(a[tuple(head)], reps, axis=axis)
    hi = np.repeat(a[tuple(tail)], reps, axis=axis)
    lo *= 1.0 - w
    hi *= w
    lo += hi
    return lo


def _time_lattice(rng: np.random.Generator, spec: SynthSpec) -> np.ndarray:
    """One random field's coarse draw, resampled to every hour: the
    (nt, cy, cx) lattice its cells are upsampled from."""
    coarse = rng.random((min(spec.coarse_nt, spec.nt),
                         min(spec.coarse_ny, spec.ny),
                         min(spec.coarse_nx, spec.nx)))
    return _lin_resample(coarse, spec.nt, axis=0)


def synth_env(spec: SynthSpec, seed: int) -> EnvGrid:
    """Deterministically synthesize an EnvGrid from (spec, seed); it holds
    its fields as a lattice (see EnvGrid), never as rasters."""
    check_seed("synth_env seed", seed)
    if spec.mode == "random":
        rng = np.random.Generator(np.random.Philox(key=seed))
        lattice = np.stack([_time_lattice(rng, spec) for _ in ENV_FIELDS])
        return EnvGrid._of_lattice(spec, lattice, [
            getattr(spec, f"{name}_range") for name in ENV_FIELDS])
    entries = sorted(spec.schedule) if spec.mode == "schedule" else [
        (0, spec.u10, spec.v10, spec.swvl1)]
    hourly = np.empty((3, spec.nt, 1, 1), dtype=np.float32)
    starts = [e[0] for e in entries] + [spec.nt]
    with np.errstate(over="ignore"):  # EnvGrid rejects what overflows float32
        for (h0, *values), h1 in zip(entries, starts[1:]):
            for k, value in enumerate(values):
                hourly[k, h0:h1] = value
    return EnvGrid._of_lattice(spec, hourly)


def synth_biomass(nx: int, ny: int, spacing_km: float,
                  lo: float, hi: float, seed: int,
                  origin: tuple[float, float] = (0.0, 0.0)) -> BiomassGrid:
    """Deterministic smooth random biomass field in [lo, hi] Mg/ha."""
    check_grid("biomass", spacing_km, origin, nx=nx, ny=ny)
    check_seed("synth_biomass seed", seed)
    if not 0 <= lo <= hi < math.inf:
        raise ValidationError(f"biomass range must satisfy 0 <= lo <= hi < inf, got ({lo}, {hi})")
    rng = np.random.Generator(np.random.Philox(key=seed))
    c = rng.random((min(BIOMASS_COARSE, ny), min(BIOMASS_COARSE, nx)))
    f = _lin_resample(c, ny, axis=0)
    f = _lin_resample(f, nx, axis=1)
    values = (lo + (hi - lo) * f).astype(np.float32)
    return BiomassGrid(nx=nx, ny=ny, spacing_km=spacing_km, values=values, origin=origin)


# ---------------------------------------------------------------------------
# incidents
# ---------------------------------------------------------------------------

def _parse_when(text: str, row: int, col: str) -> datetime:
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ValidationError(f"incident row {row}: bad {col} timestamp '{text}'") from exc
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return dt


def load_incidents(
    path: str | Path,
    gt: GeoTransform,
    grid: EnvGrid,
    epoch: datetime | None = None,
) -> list[Incident]:
    """Read an incident CSV, mapping lat/lon to planar km and times to hour indices.

    Start timestamps floor to the hour relative to ``epoch`` (default:
    Jan 1 00:00 of the first row's start year). Duration keeps fractional
    hours; area converts from acres to km^2.
    """
    fpath = Path(path)
    if not fpath.is_file():
        raise ValidationError(f"incident file missing: {fpath}")
    incidents: list[Incident] = []
    with fpath.open(newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        for col in ("id", "start_iso8601", "lat_deg", "lon_deg"):
            if col not in fields:
                raise ValidationError(f"incident CSV missing column '{col}'")
        for n, row in enumerate(reader, start=2):  # header is line 1
            rid = (row.get("id") or "").strip()
            if not rid:
                raise ValidationError(f"incident row {n}: empty id")
            start = _parse_when(row["start_iso8601"].strip(), n, "start")
            if epoch is None:
                epoch = start.replace(month=1, day=1, hour=0, minute=0,
                                      second=0, microsecond=0)
            try:
                lat, lon = float(row["lat_deg"]), float(row["lon_deg"])
            except ValueError as exc:
                raise ValidationError(f"incident row {n} ({rid}): bad lat/lon") from exc
            try:
                xy = geo_to_planar(gt, lat, lon)
            except ValidationError as exc:
                raise ValidationError(f"incident row {n} ({rid}): {exc}") from exc
            start_hour = math.floor((start - epoch).total_seconds() / 3600.0)
            check_placement(f"incident row {n} ({rid})", xy, start_hour, grid)
            burn_hours = None
            contained_text = (row.get("contained_iso8601") or "").strip()
            if contained_text:
                contained = _parse_when(contained_text, n, "contained")
                burn_hours = (contained - start).total_seconds() / 3600.0
                if burn_hours < 0:
                    raise ValidationError(
                        f"incident row {n} ({rid}): contained before start")
            area_km2 = None
            area_text = (row.get("area_acre") or "").strip()
            if area_text:
                try:
                    acres = float(area_text)
                except ValueError as exc:
                    raise ValidationError(
                        f"incident row {n} ({rid}): bad area_acre '{area_text}'") from exc
                if acres < 0:
                    raise ValidationError(f"incident row {n} ({rid}): negative area")
                area_km2 = acres * KM2_PER_ACRE
            incidents.append(Incident(id=rid, start_hour=start_hour, ignition_xy=xy,
                                      historical_burn_hours=burn_hours,
                                      historical_area_km2=area_km2))
    return incidents
