"""Hourly fire-front evolution and sensor detection.

The fire is tracked as a frontier point set. One step is one hour of the
env grid: every frontier point grows its own local spread ellipse from
the wind and soil wetness at that point and hour, and contributes the
ellipse's four axis endpoints to the next frontier. The burned region at
each hour is summarized as a circle (mean of the branched points, max
distance as radius); detection happens when a sensor lies inside that
closed disk, from the zero-radius ignition circle at hour 0 on.

The 4^t branching blow-up is tamed by prune(): snap the frontier to a
lattice keeping one representative per cell. The dedup sorts one int64
key per point (lattice cell, then input index), so the kept frontier
comes out in lattice-cell order, (ki, kj) ascending. Pruning runs after
the hour's circle and detection check, so it never influences that
hour's result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .envdata import EnvGrid, Incident, sample_env_many
from .errors import ValidationError
from .firekernel import DEFAULT_PARAMS, SpreadParams, branch_endpoints
from .sensors import SensorField, nearest_index_within

STEP_S = 3600.0  # one step is one env hour, the unit of every hour count


@dataclass(frozen=True)
class EvolutionConfig:
    """Settings of the hourly evolution loop.

    snap_km      lattice pitch for frontier dedup (0 disables snapping)
    max_hours    horizon in env hours for incidents without a historical
                 duration; an incident's own historical_burn_hours wins
    """

    snap_km: float = 0.05
    max_hours: float = 168.0
    params: SpreadParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        # negated comparisons, so that NaN fails them too
        for name in ("snap_km", "max_hours"):
            if not getattr(self, name) >= 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class Frontier:
    """Active ignition points (n, 2), stamped with the absolute grid hour."""

    points: np.ndarray
    hour: int


@dataclass(frozen=True)
class BurnCircle:
    """Burned-region summary: point-mean center, max point distance."""

    center: tuple[float, float]
    radius_km: float

    @property
    def area_km2(self) -> float:
        return math.pi * self.radius_km * self.radius_km


@dataclass(frozen=True)
class IncidentResult:
    """Outcome of one simulated incident.

    detection_hour doubles as the burned-hours figure: hours until a
    sensor saw the fire, or the cap (or the env horizon) if none did.
    """

    incident_id: str
    detected: bool
    detection_hour: float
    detecting_sensor: int | None
    burned_area_km2: float
    circle_trace: tuple[BurnCircle, ...] = field(repr=False)

    @property
    def burned_hours(self) -> float:
        return self.detection_hour

    @property
    def circle(self) -> BurnCircle:
        return self.circle_trace[-1]


def step(frontier: Frontier, env: EnvGrid,
         params: SpreadParams = DEFAULT_PARAMS) -> Frontier:
    """Advance one env hour: branch each point into its ellipse axis endpoints.

    No pruning happens here; the result holds up to 4x the input points.
    Wind and wetness are sampled per point at the frontier's hour; points
    that drifted off the grid sample the nearest edge cell. Stepping past
    the grid's last hour raises (the time range is exhausted).
    """
    if not 0 <= frontier.hour < env.nt:
        raise ValidationError(
            f"cannot step at hour {frontier.hour}: env time range is [0, {env.nt})")
    u10, v10, swvl1 = sample_env_many(env, frontier.points, frontier.hour)
    branched = branch_endpoints(frontier.points, u10, v10, swvl1, STEP_S, params)
    return Frontier(points=branched.reshape(-1, 2), hour=frontier.hour + 1)


def burned_circle(points: np.ndarray) -> BurnCircle:
    """Circle over a point set: mean-point center, max distance radius.

    Each coordinate is summed left to right, as mean(axis=0) does on a
    C-ordered (n, 2) array, whatever the input's memory layout.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValidationError(f"need a non-empty (n, 2) point array, got {pts.shape}")
    n = pts.shape[0]
    center = (float(np.cumsum(pts[:, 0])[-1] / n),
              float(np.cumsum(pts[:, 1])[-1] / n))
    # squared distances dx*dx + dy*dy, computed in place
    dx = pts[:, 0] - center[0]
    dy = pts[:, 1] - center[1]
    dx *= dx
    dy *= dy
    dx += dy
    return BurnCircle(center=center, radius_km=float(np.sqrt(dx.max())))


def _lattice_cells(pts: np.ndarray, snap_km: float, bits: int) -> np.ndarray:
    """Snap-lattice cell number of every point, ascending in (ki, kj) order.

    Cells are numbered row-major over the frontier's cell bounding box,
    or by rank when that box is too large for cell << bits to fit in
    int64; either way cell << bits | index is exact.
    """
    scale = float(np.max(np.abs(pts)))
    if math.isnan(scale):
        raise ValidationError("frontier points contain NaN")
    if scale > 0 and snap_km < scale * 2.0 ** -53:
        # lattice finer than float spacing: cells can only merge exact
        # duplicates, so the coordinates themselves are the cell indices
        ki, kj = pts[:, 0], pts[:, 1]
    else:
        # here scale/snap <= 2**53, so the cell indices are exact
        ki = np.round(pts[:, 0] / snap_km).astype(np.int64)
        kj = np.round(pts[:, 1] / snap_km).astype(np.int64)
        i0, j0 = int(ki.min()), int(kj.min())
        wi, wj = int(ki.max()) - i0 + 1, int(kj.max()) - j0 + 1
        if wi * wj << bits <= 2 ** 63:
            return (ki - i0) * wj + (kj - j0)
    # ranks merge -0.0 with 0.0 as the lattice comparison does; the cell
    # numbers stay below n
    ri = np.unique(ki, return_inverse=True)[1]
    rj = np.unique(kj, return_inverse=True)[1]
    return np.unique(ri * (int(rj.max()) + 1) + rj, return_inverse=True)[1]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the positions where a sorted, non-empty array starts a run."""
    starts = np.empty(a.size, dtype=bool)
    starts[0] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def prune(frontier: Frontier, snap_km: float) -> Frontier:
    """Thin a frontier by snap dedup; with snap 0 this is the identity.

    With snap_km > 0, bucket points onto the snap lattice, cell (ki, kj)
    = round((x, y) / snap_km), and keep one point per cell: the
    lexicographically smallest (x, y), the first in input order among
    equals (-0.0 ties with 0.0). One value sort of the int64 keys
    cell << bits | input index groups each cell's points in input order,
    so the kept frontier comes out in lattice-cell order, (ki, kj)
    ascending.
    """
    if not snap_km >= 0:
        raise ValidationError(f"snap_km must be >= 0, got {snap_km}")
    pts = frontier.points
    n = pts.shape[0]
    if snap_km > 0 and n > 1:
        bits = (n - 1).bit_length()
        key = _lattice_cells(pts, snap_km, bits) << bits | np.arange(n)
        key.sort()
        idx = key & ((1 << bits) - 1)
        group = np.cumsum(_run_starts(key >> bits)) - 1
        cells = int(group[-1]) + 1
        # candidates: sorted positions at their cell's smallest x, then
        # of those at the smallest y; the first left per cell has the
        # lowest input index
        x = pts[:, 0].take(idx)
        xmin = np.full(cells, np.inf)
        np.minimum.at(xmin, group, x)
        cand = np.flatnonzero(x == xmin.take(group))
        at, y = group.take(cand), pts[:, 1].take(idx.take(cand))
        ymin = np.full(cells, np.inf)
        np.minimum.at(ymin, at, y)
        cand = cand[y == ymin.take(at)]
        first = cand[_run_starts(group.take(cand))]
        pts = pts.take(idx.take(first), axis=0)
    return Frontier(points=pts, hour=frontier.hour)


def incident_cap_hours(incident: Incident, cfg: EvolutionConfig) -> float:
    """Horizon for one incident: its own historical duration when known.

    Capping an undetected fire at its historical burn time makes the
    zero-sensor baseline reproduce history by construction.
    """
    if incident.historical_burn_hours is not None:
        return incident.historical_burn_hours
    return cfg.max_hours


def _evolve(incident: Incident, env: EnvGrid, cfg: EvolutionConfig):
    """Yield (hours_since_ignition, circle, active_frontier) per hour.

    Hour 0 yields the zero-radius ignition circle. Each later hour's
    circle is built from the raw branched points; the yielded frontier is
    the pruned set the next hour will grow from. Stops at the incident
    cap or when the env time range ends.
    """
    frontier = Frontier(points=np.asarray([incident.ignition_xy], dtype=float),
                        hour=incident.start_hour)
    circle = BurnCircle(center=incident.ignition_xy, radius_km=0.0)
    yield 0, circle, frontier
    cap = incident_cap_hours(incident, cfg)
    hours = 0
    while hours + 1 <= cap and frontier.hour < env.nt:
        raw = step(frontier, env, cfg.params)
        hours += 1
        circle = burned_circle(raw.points)
        frontier = prune(raw, cfg.snap_km)
        yield hours, circle, frontier


def simulate_incident(incident: Incident, env: EnvGrid, sensors: SensorField,
                      cfg: EvolutionConfig) -> IncidentResult:
    """Outcome of one incident: its full trajectory replayed against the field."""
    return replay_detection(incident, circle_trajectory(incident, env, cfg),
                            sensors, cfg)


def circle_trajectory(incident: Incident, env: EnvGrid,
                      cfg: EvolutionConfig) -> list[BurnCircle]:
    """Burned circles at hours 0..stop, ignoring sensors.

    Evolution never depends on the sensor field, so one trajectory can be
    replayed against many deployments (see replay_detection).
    """
    return [circle for _, circle, _ in _evolve(incident, env, cfg)]


def trace_rows(incident: Incident, env: EnvGrid,
               cfg: EvolutionConfig) -> list[tuple[int, BurnCircle, int]]:
    """(hour, circle, active frontier size) rows for trace output."""
    return [(hours, circle, frontier.points.shape[0])
            for hours, circle, frontier in _evolve(incident, env, cfg)]


def replay_detection(incident: Incident,
                     circles: list[BurnCircle] | tuple[BurnCircle, ...],
                     sensors: SensorField, cfg: EvolutionConfig) -> IncidentResult:
    """Detection outcome of a precomputed trajectory against one field.

    This is the only hourly detection loop: every caller first builds the
    trajectory with circle_trajectory (same env and cfg), then replays it.
    Every circle is checked, the hour-0 ignition circle first.
    """
    for k, circle in enumerate(circles):
        hit = nearest_index_within(sensors, circle.center, circle.radius_km)
        if hit is not None:
            return IncidentResult(
                incident_id=incident.id, detected=True, detection_hour=float(k),
                detecting_sensor=hit, burned_area_km2=circle.area_km2,
                circle_trace=tuple(circles[:k + 1]))
    # cap-limited runs report the (possibly fractional) cap; runs cut
    # short by the env horizon report the hours actually burned
    hours_run = len(circles) - 1
    cap = incident_cap_hours(incident, cfg)
    return IncidentResult(
        incident_id=incident.id, detected=False,
        detection_hour=cap if hours_run + 1 > cap else float(hours_run),
        detecting_sensor=None, burned_area_km2=circles[-1].area_km2,
        circle_trace=tuple(circles))
