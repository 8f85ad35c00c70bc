"""Gridded environmental inputs: wind, soil wetness, biomass, incidents.

Grids live on a planar simulation rectangle in km. The hourly environment
grid holds eastward/northward 10 m wind (m/s) and volumetric soil water
(fraction of 1) on a coarse grid indexed [t][y][x]; above-ground live
biomass (Mg/ha) sits on its own finer static grid indexed [y][x].

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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ValidationError

KM2_PER_ACRE = 0.00404686


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


@dataclass
class EnvGrid:
    """Hourly wind and soil-wetness rasters on the simulation rectangle."""

    nx: int
    ny: int
    nt: int
    spacing_km: float
    origin: tuple[float, float]
    u10: np.ndarray
    v10: np.ndarray
    swvl1: np.ndarray

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nt) < 1:
            raise ValidationError(f"grid dims must be >= 1, got {self.nx}x{self.ny}x{self.nt}")
        if self.spacing_km <= 0:
            raise ValidationError(f"spacing_km must be > 0, got {self.spacing_km}")
        shape = (self.nt, self.ny, self.nx)
        for name in ("u10", "v10", "swvl1"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValidationError(f"{name} shape {arr.shape} != declared {shape}")
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite values")
        smin, smax = float(self.swvl1.min()), float(self.swvl1.max())
        if smin < 0.0 or smax > 1.0:
            raise ValidationError(f"swvl1 out of [0, 1]: range [{smin}, {smax}]")

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
        if min(self.nx, self.ny) < 1:
            raise ValidationError(f"biomass dims must be >= 1, got {self.nx}x{self.ny}")
        if self.spacing_km <= 0:
            raise ValidationError(f"biomass spacing_km must be > 0, got {self.spacing_km}")
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
        if abs(a - b) > tol:
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


def sample_env_many(
    grid: EnvGrid, points: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-cell lookup of (u10, v10, swvl1) at every point of an (n, 2)
    array, hour t.

    A position on a shared cell edge resolves to the lower-index cell;
    positions outside the rectangle sample the nearest edge cell.
    """
    if not 0 <= t < grid.nt:
        raise ValidationError(f"hour {t} outside [0, {grid.nt})")
    pts = np.asarray(points, dtype=float)
    lx = np.clip(pts[:, 0] - grid.origin[0], 0.0, grid.nx * grid.spacing_km)
    ly = np.clip(pts[:, 1] - grid.origin[1], 0.0, grid.ny * grid.spacing_km)
    ix = np.clip(np.ceil(lx / grid.spacing_km).astype(np.int64) - 1, 0, grid.nx - 1)
    iy = np.clip(np.ceil(ly / grid.spacing_km).astype(np.int64) - 1, 0, grid.ny - 1)
    return (grid.u10[t, iy, ix].astype(float),
            grid.v10[t, iy, ix].astype(float),
            grid.swvl1[t, iy, ix].astype(float))


# ---------------------------------------------------------------------------
# raster IO
# ---------------------------------------------------------------------------

def _read_raster(path: Path, count: int, what: str) -> np.ndarray:
    if not path.is_file():
        raise ValidationError(f"{what} raster file missing: {path}")
    data = np.fromfile(path, dtype="<f4")
    if data.size != count:
        raise ValidationError(
            f"{what} raster {path} holds {data.size} values, expected {count}")
    return data


def load_env_grid(manifest_path: str | Path) -> EnvGrid:
    """Load and validate an environment grid from its JSON manifest."""
    mpath = Path(manifest_path)
    if not mpath.is_file():
        raise ValidationError(f"env manifest missing: {mpath}")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"env manifest {mpath} is not valid JSON: {exc}") from exc
    for key in ("nx", "ny", "nt", "spacing_km", "files"):
        if key not in manifest:
            raise ValidationError(f"env manifest missing field '{key}'")
    nx, ny, nt = int(manifest["nx"]), int(manifest["ny"]), int(manifest["nt"])
    origin = tuple(manifest.get("origin", (0.0, 0.0)))
    count = nx * ny * nt
    rasters = {}
    for name in ("u10", "v10", "swvl1"):
        if name not in manifest["files"]:
            raise ValidationError(f"env manifest files missing '{name}'")
        rpath = mpath.parent / manifest["files"][name]
        rasters[name] = _read_raster(rpath, count, name).reshape(nt, ny, nx)
    return EnvGrid(nx=nx, ny=ny, nt=nt, spacing_km=float(manifest["spacing_km"]),
                   origin=(float(origin[0]), float(origin[1])), **rasters)


def save_env_grid(grid: EnvGrid, manifest_path: str | Path) -> Path:
    """Write the grid's rasters next to a JSON manifest; returns the manifest path."""
    mpath = Path(manifest_path)
    mpath.parent.mkdir(parents=True, exist_ok=True)
    stem = mpath.stem
    files = {}
    for name in ("u10", "v10", "swvl1"):
        fname = f"{stem}_{name}.f32"
        getattr(grid, name).astype("<f4").tofile(mpath.parent / fname)
        files[name] = fname
    manifest = {"nx": grid.nx, "ny": grid.ny, "nt": grid.nt,
                "spacing_km": grid.spacing_km, "origin": list(grid.origin),
                "files": files}
    mpath.write_text(json.dumps(manifest, indent=2) + "\n")
    return mpath


def load_biomass(manifest_path: str | Path) -> BiomassGrid:
    """Load and validate a biomass grid from its JSON manifest."""
    mpath = Path(manifest_path)
    if not mpath.is_file():
        raise ValidationError(f"biomass manifest missing: {mpath}")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"biomass manifest {mpath} is not valid JSON: {exc}") from exc
    for key in ("nx", "ny", "spacing_km", "file"):
        if key not in manifest:
            raise ValidationError(f"biomass manifest missing field '{key}'")
    nx, ny = int(manifest["nx"]), int(manifest["ny"])
    origin = tuple(manifest.get("origin", (0.0, 0.0)))
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

@dataclass
class SynthSpec:
    """Descriptor for a synthesized environment grid.

    mode "constant"  : uniform u10 / v10 / swvl1 everywhere
    mode "schedule"  : piecewise-constant in time (entries of
                       (start_hour, u10, v10, swvl1)), uniform in space
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

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        allowed = set(cls.__dataclass_fields__)
        unknown = set(d) - allowed
        if unknown:
            raise ValidationError(f"unknown synth spec fields: {sorted(unknown)}")
        spec = cls(**{k: v for k, v in d.items()})
        spec.origin = tuple(spec.origin)  # type: ignore[assignment]
        spec.schedule = [tuple(e) for e in spec.schedule]  # type: ignore[misc]
        spec.u10_range = tuple(spec.u10_range)  # type: ignore[assignment]
        spec.v10_range = tuple(spec.v10_range)  # type: ignore[assignment]
        spec.swvl1_range = tuple(spec.swvl1_range)  # type: ignore[assignment]
        return spec


def _lin_resample(a: np.ndarray, n_new: int, axis: int) -> np.ndarray:
    n_old = a.shape[axis]
    if n_old == n_new:
        return a
    if n_old == 1:
        return np.repeat(a, n_new, axis=axis)
    pos = np.linspace(0.0, n_old - 1.0, n_new)
    i0 = np.minimum(np.floor(pos).astype(int), n_old - 2)
    w = pos - i0
    shape = [1] * a.ndim
    shape[axis] = n_new
    w = w.reshape(shape)
    lo = np.take(a, i0, axis=axis)
    hi = np.take(a, i0 + 1, axis=axis)
    return lo * (1.0 - w) + hi * w


def _smooth_field(rng: np.random.Generator, spec: SynthSpec,
                  lo: float, hi: float) -> np.ndarray:
    coarse = rng.random((min(spec.coarse_nt, spec.nt),
                         min(spec.coarse_ny, spec.ny),
                         min(spec.coarse_nx, spec.nx)))
    f = _lin_resample(coarse, spec.nt, axis=0)
    f = _lin_resample(f, spec.ny, axis=1)
    f = _lin_resample(f, spec.nx, axis=2)
    return (lo + (hi - lo) * f).astype(np.float32)


def synth_env(spec: SynthSpec, seed: int) -> EnvGrid:
    """Deterministically synthesize an EnvGrid from (spec, seed)."""
    if min(spec.nx, spec.ny, spec.nt) < 1 or spec.spacing_km <= 0:
        raise ValidationError("synth spec dims must be >= 1 and spacing_km > 0")
    shape = (spec.nt, spec.ny, spec.nx)
    if spec.mode == "constant":
        u = np.full(shape, spec.u10, dtype=np.float32)
        v = np.full(shape, spec.v10, dtype=np.float32)
        s = np.full(shape, spec.swvl1, dtype=np.float32)
    elif spec.mode == "schedule":
        if not spec.schedule:
            raise ValidationError("schedule mode needs a non-empty schedule")
        entries = sorted(spec.schedule)
        if entries[0][0] != 0:
            raise ValidationError("schedule must start at hour 0")
        u = np.empty(shape, dtype=np.float32)
        v = np.empty(shape, dtype=np.float32)
        s = np.empty(shape, dtype=np.float32)
        starts = [e[0] for e in entries] + [spec.nt]
        for (h0, uu, vv, ss), h1 in zip(entries, starts[1:]):
            u[h0:h1] = uu
            v[h0:h1] = vv
            s[h0:h1] = ss
    elif spec.mode == "random":
        for name, (lo, hi) in (("u10_range", spec.u10_range),
                               ("v10_range", spec.v10_range),
                               ("swvl1_range", spec.swvl1_range)):
            if lo > hi:
                raise ValidationError(f"{name} has lo > hi: ({lo}, {hi})")
        if spec.swvl1_range[0] < 0 or spec.swvl1_range[1] > 1:
            raise ValidationError(f"swvl1_range outside [0, 1]: {spec.swvl1_range}")
        rng = np.random.Generator(np.random.Philox(key=seed))
        u = _smooth_field(rng, spec, *spec.u10_range)
        v = _smooth_field(rng, spec, *spec.v10_range)
        s = _smooth_field(rng, spec, *spec.swvl1_range)
    else:
        raise ValidationError(f"unknown synth mode '{spec.mode}'")
    return EnvGrid(nx=spec.nx, ny=spec.ny, nt=spec.nt, spacing_km=spec.spacing_km,
                   origin=spec.origin, u10=u, v10=v, swvl1=s)


def synth_biomass(nx: int, ny: int, spacing_km: float,
                  lo: float, hi: float, seed: int,
                  origin: tuple[float, float] = (0.0, 0.0),
                  coarse: int = 8) -> BiomassGrid:
    """Deterministic smooth random biomass field in [lo, hi] Mg/ha."""
    if lo < 0 or lo > hi:
        raise ValidationError(f"biomass range must satisfy 0 <= lo <= hi, got ({lo}, {hi})")
    rng = np.random.Generator(np.random.Philox(key=seed))
    c = rng.random((min(coarse, ny), min(coarse, nx)))
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
            if not grid.rect.contains(xy):
                raise ValidationError(
                    f"incident row {n} ({rid}): ignition {xy} outside the grid rectangle")
            start_hour = math.floor((start - epoch).total_seconds() / 3600.0)
            if not 0 <= start_hour < grid.nt:
                raise ValidationError(
                    f"incident row {n} ({rid}): start hour {start_hour} outside [0, {grid.nt})")
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
