"""Hourly fire-front evolution and sensor detection.

The fire is tracked as a frontier point set, grown by trace_rows one
hour of the env grid at a time: every frontier point grows its own
local spread ellipse from the wind and soil wetness at that point and
hour, and contributes the ellipse's four axis endpoints to the next
frontier. The ellipse terms of each env cell the frontier touches are
evaluated once per block of TERM_HOURS hours, into a small per-incident
table, and each point takes its cell's terms. A frontier's (n, 2)
points are column-major, x and y each contiguous: a view of the
kernel's buffer when branched, and written that way by prune. The
burned region at each hour is summarized as a circle (mean of the
branched points, max distance as radius), a (cx, cy, r) row of the
float64 (hours + 1, 3) trajectory array that starts at the zero-radius
ignition circle. A
sensor inside an hour's closed disk detects the fire; a replay takes
that row and the sensor's draw index (-1 if none) from one query over
the trajectory's screen disk, for every prefix of one field's sensors it
is asked about at once, as two int64 arrays over those counts. The
sweep and simulate both read them through harness.SeasonTable.

The 4^t branching blow-up is tamed by prune(): snap the frontier to a
lattice keeping one representative per cell. The dedup takes per-cell
minima over a table of cell numbers, with no sort, and the kept frontier
comes out in lattice-cell order, (ki, kj) ascending. Pruning runs after
the hour's circle is taken, so it never influences that hour's result.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .envdata import EnvGrid, Incident, cell_values, sample_env_many
from .errors import ValidationError, check_range
from .firekernel import DEFAULT_PARAMS, SpreadParams, branch_endpoints, ellipse_terms
from .sensors import (SensorField, indices_within, nearest_index_within,
                      squared_distances)

STEP_S = 3600.0  # one env hour, the unit of every hour count
MAX_POINTS = 1 << 22  # most points one hour may branch
TERM_HOURS = 24  # hours of a block of an incident's ellipse-term table

# the detection screen's slack over a disk query's rounding: relative,
# and absolute for squares that underflow
_SLACK = 1e-9
_TINY = 1e-150
_BLOCK = 1 << 20  # most hour x sensor distances a replay holds at once


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
        check_range("snap_km", self.snap_km)
        check_range("max_hours", self.max_hours, finite=False)


@dataclass(frozen=True)
class Frontier:
    """Active ignition points, float64 (n, 2): prune's argument and
    result, column-major as trace_rows branches them or prune keeps them."""

    points: np.ndarray


def burned_circle(points: np.ndarray) -> np.ndarray:
    """(cx, cy, r) row over a point set: mean-point center, max distance
    radius.

    Each coordinate is summed left to right, as mean(axis=0) does on a
    C-ordered (n, 2) array, whatever the input's memory layout.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValidationError(f"need a non-empty (n, 2) point array, got {pts.shape}")
    n = pts.shape[0]
    center = (float(np.cumsum(pts[:, 0])[-1] / n),
              float(np.cumsum(pts[:, 1])[-1] / n))
    d2 = squared_distances(pts[:, 0], pts[:, 1], *center)
    return np.array([*center, np.sqrt(d2.max())])


def _lattice_cells(x: np.ndarray, y: np.ndarray,
                   snap_km: float) -> tuple[np.ndarray, int]:
    """Snap-lattice cell number of every point (x[i], y[i]), ascending in
    (ki, kj), and the table size: row-major over the frontier's cell
    bounding box if it has at most 2n + 1024 cells, else the ranks of the
    occupied cells."""
    x0, x1, y0, y1 = (float(b) for b in (x.min(), x.max(), y.min(), y.max()))
    if math.isnan(x0) or math.isnan(y0):
        raise ValidationError("frontier points contain NaN")
    scale = max(-x0, x1, -y0, y1)  # the largest |coordinate|
    if scale > 0 and snap_km < scale * 2.0 ** -53:
        # lattice finer than float spacing: cells can only merge exact
        # duplicates, so the coordinates themselves are the cell indices
        ki, kj = x, y
    else:
        # here scale/snap <= 2**53, so the cell indices are exact; rint is
        # monotone, so the box's corners are those of the bounds
        i0, i1, j0, j1 = (int(np.rint(b / snap_km)) for b in (x0, x1, y0, y1))
        wi, wj = i1 - i0 + 1, j1 - j0 + 1
        ki, kj = x / snap_km, y / snap_km
        np.rint(ki, out=ki)
        np.rint(kj, out=kj)
        if wi * wj <= 2 * x.size + 1024:
            # (ki - i0) * wj + (kj - j0) in float64, exact as every term
            # is an integer below the table size
            ki -= i0
            ki *= wj
            kj -= j0
            ki += kj
            return ki.astype(np.int64), wi * wj
    # ranks keep the order and merge -0.0 with 0.0 as the lattice does
    ri = np.unique(ki, return_inverse=True)[1]
    rj = np.unique(kj, return_inverse=True)[1]
    cells, cell = np.unique(ri * (int(rj.max()) + 1) + rj, return_inverse=True)
    return cell, cells.size


def prune(frontier: Frontier, snap_km: float) -> Frontier:
    """Thin a frontier by snap dedup; with snap 0 this is the identity.

    With snap_km > 0, bucket points onto the snap lattice, cell (ki, kj)
    = round((x, y) / snap_km), and keep one point per cell: the
    lexicographically smallest (x, y), the first in input order among
    equals (-0.0 ties with 0.0). np.minimum.at passes over a table of
    cell numbers take each cell's smallest x, then the smallest y at that
    x, then the lowest input index. Nothing is sorted: read in cell order,
    the table gives the kept frontier in (ki, kj) order, written
    column-major as trace_rows branches its frontier.
    """
    check_range("snap_km", snap_km)
    pts = frontier.points
    n = pts.shape[0]
    if snap_km > 0 and n > 1:
        # the columns with numpy's own float64 descriptor: on another
        # instance of it (an unpickled array's) np.minimum.at runs a
        # generic loop, ~30x slower
        x, y = pts[:, 0].view(np.float64), pts[:, 1].view(np.float64)
        cell, size = _lattice_cells(x, y, snap_km)
        least = np.full(size, np.inf)
        np.minimum.at(least, cell, x)
        cand = np.flatnonzero(x == least.take(cell))
        at, y_cand = cell.take(cand), y.take(cand)
        least.fill(np.inf)
        np.minimum.at(least, at, y_cand)
        keep = y_cand == least.take(at)
        first = np.full(size, n)
        np.minimum.at(first, at[keep], cand[keep])
        kept = first[first < n]
        pts = np.array([x.take(kept), y.take(kept)]).T
    return Frontier(points=pts)


def incident_cap_hours(incident: Incident, cfg: EvolutionConfig) -> float:
    """Horizon for one incident: its own historical duration when known, so
    an undetected fire's baseline reproduces history by construction."""
    hours = incident.historical_burn_hours
    return cfg.max_hours if hours is None else hours


class _TermTable:
    """The ellipse terms of the env cells one incident's frontier touches,
    one block of TERM_HOURS hours at a time.

    A cell's entry is filled the first hour the frontier touches it in
    the block: its terms at that hour and each later hour of the block
    before the incident's stop hour, from one cell_values call over the
    hours and one ellipse_terms call for all the cells filled that hour.
    The next block starts with an empty table. An entry holds 10 float64
    (80 B) per hour, so the table holds at most (cells touched in the
    block) x TERM_HOURS x 80 B.
    """

    def __init__(self, env: EnvGrid, params: SpreadParams, start: int, stop: int) -> None:
        self.env, self.params, self.stop = env, params, stop
        self.end = start  # the block's end hour: the first call starts one

    def terms(self, cells: np.ndarray, hour: int) -> tuple[np.ndarray, np.ndarray]:
        """The (2, m) center and (2, m, 4) endpoint offsets of the m cells
        (ascending cell numbers from sample_env_many) at this hour; hours
        come in ascending order."""
        if hour >= self.end:
            self.end = min(hour + TERM_HOURS, self.stop)
            self.column = {}  # cell -> its entry's column at hour 0
            self.center, self.ends = np.empty((2, 0)), np.empty((2, 0, 4))
        wanted = cells.tolist()
        new = [c for c in wanted if c not in self.column]
        if new:
            span = self.end - hour
            for j, c in enumerate(new):
                self.column[c] = self.center.shape[1] + j * span - hour
            at = np.repeat(new, span)
            hours = np.tile(np.arange(hour, self.end), len(new))
            center, ends = ellipse_terms(*cell_values(self.env, at, hours),
                                         STEP_S, self.params)
            self.center = np.concatenate([self.center, center], axis=1)
            self.ends = np.concatenate([self.ends, ends], axis=1)
        cols = np.array([self.column[c] + hour for c in wanted])
        return self.center.take(cols, axis=1), self.ends.take(cols, axis=1)


def trace_rows(incident: Incident, env: EnvGrid,
               cfg: EvolutionConfig) -> tuple[np.ndarray, np.ndarray]:
    """(hours + 1, 3) burned circles and (hours + 1,) active frontier sizes.

    Row 0 is the zero-radius ignition circle. Each hour from the
    incident's start hour, every frontier point branches into its
    ellipse's four axis endpoints from its cell's wind and wetness at that
    hour (an off-grid point samples the nearest edge cell); the hour's
    circle is built from those raw points, and its size is that of the
    pruned set the next hour grows from. The cells' ellipse terms come
    from the incident's _TermTable, bitwise those of an evaluation per
    hour. Stops at the incident cap or the env horizon; a snap_km too
    fine to keep an hour below MAX_POINTS branched points is rejected
    before that hour branches.
    """
    check_range(f"incident {incident.id} start_hour", incident.start_hour, integer=True)
    points = np.asarray([incident.ignition_xy], dtype=float)
    hour = int(incident.start_hour)
    circles = [np.array([*incident.ignition_xy, 0.0])]
    sizes = [1]
    cap = incident_cap_hours(incident, cfg)
    # the hour after the last one the loop steps: the cap's or the env's
    stop = env.nt if not cap < env.nt - hour else hour + math.floor(cap)
    table = _TermTable(env, cfg.params, hour, stop)
    while len(circles) <= cap and hour < env.nt:
        if 4 * points.shape[0] > MAX_POINTS:
            raise ValidationError(
                f"incident {incident.id}: hour {len(circles)} would branch "
                f"past {MAX_POINTS} frontier points; evolution.snap_km="
                f"{cfg.snap_km} is too fine to bound the frontier")
        cells, slot = sample_env_many(env, points, hour)
        # a view of the kernel's (2, n, 4) buffer: contiguous x and y columns
        raw = branch_endpoints(points, *table.terms(cells, hour), slot).reshape(-1, 2)
        circles.append(burned_circle(raw))
        points = prune(Frontier(points=raw), cfg.snap_km).points
        sizes.append(points.shape[0])
        hour += 1
    return np.array(circles), np.array(sizes, dtype=np.int64)


def circle_trajectory(incident: Incident, env: EnvGrid,
                      cfg: EvolutionConfig) -> np.ndarray:
    """Float64 (hours + 1, 3) array of the burned (cx, cy, r) circles at
    hours 0..stop, ignoring sensors (see trace_rows).

    Evolution never depends on the sensor field, so one trajectory can be
    replayed against many deployments (see replay_detection).
    """
    return trace_rows(incident, env, cfg)[0]


def screen_disk(circles: np.ndarray) -> tuple[tuple[float, float], float]:
    """(center, radius) of a trajectory's detection screen: the disk about
    its last center that encloses every circle, widened past a disk
    query's rounding and capped at the largest float. Overflowing
    distances become inf, which only widens the screen."""
    cx, cy, r = np.asarray(circles, dtype=float).T
    center = (float(cx[-1]), float(cy[-1]))
    with np.errstate(over="ignore"):
        reach = float((np.hypot(cx - center[0], cy - center[1]) + r).max())
    return center, min(reach * (1.0 + _SLACK) + _TINY, sys.float_info.max)


def replay_detection(circles: np.ndarray, disk: tuple[tuple[float, float], float],
                     sensors: SensorField,
                     counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Detection outcomes of a (hours + 1, 3) trajectory from
    circle_trajectory, screened by its screen_disk, against the first n
    sensors of one field's draw for each n in counts (ascending, at most
    sensors.drawn): two int64 arrays over counts, the reported rows and the
    detecting draw indices, the last row and -1 where no sensor sees the
    fire. n sensors detect at the first hour k, from the ignition on, with
    a sensor at dx*dx + dy*dy <= r_k*r_k, the closest such sensor
    detecting (lowest index among ties). One nearest_index_within query
    over the disk screens the field whatever the counts. Deployments from
    one seed nest (see sensors), so against deploy_uniform(max(counts)), or
    that deployment screened with the disk, each outcome is bitwise the one
    against deploy_uniform(n).
    """
    xyr = np.asarray(circles, dtype=float)
    if not (xyr.ndim == 2 and xyr.shape[1:] == (3,) and xyr.size
            and np.isfinite(xyr).all() and (xyr[:, 2] >= 0).all()):
        raise ValidationError("trajectory circles must be a non-empty (hours + 1, 3) "
                              "array of finite centers and finite radii >= 0")
    if not (len(counts) and 0 <= counts[0] and counts[-1] <= sensors.drawn
            and all(a <= b for a, b in zip(counts, counts[1:]))):
        raise ValidationError(f"counts must be ascending sensor counts in "
                              f"[0, {sensors.drawn}], got {tuple(counts)}")
    cx, cy, r = xyr.T
    center, screen = disk
    # a square that overflows is inf, and every sensor lies within it
    with np.errstate(over="ignore"):
        r2 = r * r
    near = np.empty(0, dtype=np.int64)
    if nearest_index_within(sensors, center, screen) is not None:
        near = indices_within(sensors, center, screen)
    # the screened sensors' draw indices, ascending as near is: count n's
    # screened sensors are near[:m]
    ids = near if sensors.ids is None else sensors.ids[near]
    ends = np.searchsorted(ids, counts).tolist()
    hours = r.size
    # each screened sensor's first hit hour (hours if none yet) and its
    # squared distance then
    first = np.full(ends[-1], hours)
    first_d2 = np.empty(ends[-1])
    if ends[-1]:
        x, y = sensors.positions[near[:ends[-1]]].T
        # (hours, sensors) distance blocks of at most _BLOCK values, in
        # hour order
        rows = max(_BLOCK // x.size, 1)
        for h in range(0, hours, rows):
            d2 = squared_distances(x, y, cx[h:h + rows, None], cy[h:h + rows, None])
            inside = d2 <= r2[h:h + rows, None]
            new = np.flatnonzero(inside.any(axis=0) & (first == hours))
            at = inside[:, new].argmax(axis=0)
            first[new] = h + at
            first_d2[new] = d2[at, new]
    rows = np.full(len(ends), hours - 1, dtype=np.int64)
    draws = np.full(len(ends), -1, dtype=np.int64)
    for j, m in enumerate(ends):
        if m and (hit := int(first[:m].min())) < hours:
            ties = np.flatnonzero(first[:m] == hit)
            # ties is ascending, so argmin's first minimum is the lowest
            # index among the closest
            rows[j], draws[j] = hit, ids[ties[first_d2[ties].argmin()]]
    return rows, draws


def undetected_hours(incident: Incident, circles: np.ndarray,
                     cfg: EvolutionConfig) -> float:
    """Burned hours an incident reports if no sensor sees its trajectory:
    the (possibly fractional) cap if the trajectory ran to it, else the
    hours burned until the env horizon cut it short."""
    cap = incident_cap_hours(incident, cfg)
    return cap if len(circles) > cap else float(len(circles) - 1)

