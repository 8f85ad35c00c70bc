"""Single-ellipse fire spread math.

Fire from a point ignition under one wind/soil-wetness condition grows as an
ellipse elongated along the wind. Spread speed peaks at ``u_max`` in the
downwind direction, is damped by low wind and wet soil, and the back-spread
speed is a fixed fraction of the head speed. All speeds are m/s; geometry is
km; wind angles are radians from the +x axis.

The field functions (``wind_factor``, ``moisture_factor``, ``spread_speed``,
``length_breadth_ratio``) take scalars or numpy arrays; ``branch_endpoints``
grows one ellipse per point of a whole frontier at once and returns its
four axis endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError

M_PER_KM = 1000.0


@dataclass(frozen=True)
class SpreadParams:
    """Tuning constants of the spread model (defaults are the standard ones).

    u_max_ms         : maximum head spread speed (m/s)
    windless_gain    : wind-factor floor at zero wind
    wetness_cutoff   : volumetric soil-water fraction at which spread stops
    backspread_ratio : upwind speed as a fraction of head speed
    wind_sq_scale    : (m/s)^2 scale of the wind-factor exponential
    elongation_gain  : asymptotic extra length-to-breadth ratio at high wind
    elongation_rate  : per-(m/s) rate of the elongation exponential

    Every field is finite and >= 0; the two divisors, wetness_cutoff and
    wind_sq_scale, are > 0.
    """

    u_max_ms: float = 0.13
    windless_gain: float = 0.1
    wetness_cutoff: float = 0.35
    backspread_ratio: float = 0.2
    wind_sq_scale: float = 2500.0
    elongation_gain: float = 10.0
    elongation_rate: float = 0.017

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value < float("inf"):
                raise ValidationError(
                    f"{f.name} must be finite and >= 0, got {value}")
        for name in ("wetness_cutoff", "wind_sq_scale"):  # divisors
            if getattr(self, name) == 0.0:
                raise ValidationError(f"{name} must be > 0")


DEFAULT_PARAMS = SpreadParams()


def wind_factor(ws_ms, params: SpreadParams = DEFAULT_PARAMS):
    """Wind damping factor in [windless_gain, 1): 1 - (1-g0)*exp(-ws^2/scale).

    Evaluated as g0 + (1-g0)*(-expm1(...)), which hits the g0 floor
    exactly at calm and keeps precision for light winds.
    """
    ws = np.asarray(ws_ms, dtype=float)
    if np.any(ws < 0):
        raise ValueError("wind speed must be >= 0")
    g0 = params.windless_gain
    out = g0 + (1.0 - g0) * -np.expm1(-(ws * ws) / params.wind_sq_scale)
    return float(out) if np.isscalar(ws_ms) else out


def moisture_factor(beta_root, params: SpreadParams = DEFAULT_PARAMS):
    """Soil-wetness damping factor (1 - beta_m)^2, zero at/above the cutoff."""
    beta = np.asarray(beta_root, dtype=float)
    if np.any(beta < 0):
        raise ValueError("soil wetness must be >= 0")
    beta_m = np.minimum(beta / params.wetness_cutoff, 1.0)
    out = (1.0 - beta_m) ** 2
    return float(out) if np.isscalar(beta_root) else out


def spread_speed(ws_ms, beta_root, params: SpreadParams = DEFAULT_PARAMS):
    """Head spread speed u_p = u_max * wind_factor * moisture_factor (m/s)."""
    out = params.u_max_ms * wind_factor(ws_ms, params) * moisture_factor(beta_root, params)
    return float(out) if np.isscalar(ws_ms) and np.isscalar(beta_root) else out


def length_breadth_ratio(ws_ms, params: SpreadParams = DEFAULT_PARAMS):
    """Ellipse length-to-breadth ratio, 1 at calm, approaching 1+gain from below."""
    ws = np.asarray(ws_ms, dtype=float)
    if np.any(ws < 0):
        raise ValueError("wind speed must be >= 0")
    out = 1.0 + params.elongation_gain * (1.0 - np.exp(-params.elongation_rate * ws))
    return float(out) if np.isscalar(ws_ms) else out


def branch_endpoints(
    points: np.ndarray,
    u10: np.ndarray,
    v10: np.ndarray,
    swvl1: np.ndarray,
    dt_s: float,
    params: SpreadParams = DEFAULT_PARAMS,
) -> np.ndarray:
    """Axis endpoints of the ellipse grown at every point, shape (n, 4, 2).

    Each point is the ignition of its own ellipse: the downwind vertex is
    u_p * dt ahead of it along the wind and the upwind vertex u_b * dt
    behind it, so the center leads it by (u_p - u_b) / 2 * dt. Order per
    point: downwind vertex, upwind vertex, then the two minor-axis
    endpoints. A zero-speed point yields four copies of itself. Calm wind
    uses theta = 0.
    """
    if dt_s <= 0:
        raise ValueError(f"dt_s must be > 0, got {dt_s}")
    pts = np.asarray(points, dtype=float)
    u = np.asarray(u10, dtype=float)
    v = np.asarray(v10, dtype=float)
    ws = np.hypot(u, v)
    theta = np.where(ws > 0, np.arctan2(v, u), 0.0)

    u_p = spread_speed(ws, swvl1, params)
    u_b = params.backspread_ratio * u_p
    v_lat = (u_p + u_b) / (2.0 * length_breadth_ratio(ws, params))

    dt_km = dt_s / M_PER_KM
    a = (u_p + u_b) * dt_km / 2.0
    b = v_lat * dt_km
    offset = (u_p - u_b) * dt_km / 2.0
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cx = pts[:, 0] + offset * cos_t
    cy = pts[:, 1] + offset * sin_t

    out = np.empty((len(pts), 4, 2))
    out[:, 0, 0] = cx + a * cos_t
    out[:, 0, 1] = cy + a * sin_t
    out[:, 1, 0] = cx - a * cos_t
    out[:, 1, 1] = cy - a * sin_t
    out[:, 2, 0] = cx - b * sin_t
    out[:, 2, 1] = cy + b * cos_t
    out[:, 3, 0] = cx + b * sin_t
    out[:, 3, 1] = cy - b * cos_t
    return out
