"""Carbon accounting: burned area to tonnage, price, and net savings.

Emission follows the burned-area stock model: above-ground live biomass
averaged over the burned circle, marked up 20% for underground biomass,
times area, times a Mg/ha-to-ton-per-km2 unit factor of 100. Tonnage is
priced at a flat USD rate; savings net out the sensor hardware cost.

Biomass tonnage is treated as emitted carbon tonnage one to one (no
carbon-fraction or combustion-completeness factor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envdata import BiomassGrid
from .errors import ValidationError
from .evolution import BurnCircle

UNDERGROUND_FACTOR = 1.2   # underground biomass adds 20% of above-ground
UNIT_FACTOR = 100.0        # Mg/ha over km2 -> tons
USD_PER_TON = 20.0


@dataclass(frozen=True)
class SavingsReport:
    baseline_price_usd: float
    scenario_price_usd: float
    n_sensors: int
    unit_cost_usd: float
    savings_usd: float


def average_biomass(circle: BurnCircle, bio: BiomassGrid) -> float:
    """Mean biomass (Mg/ha) over grid cells whose centers lie in the circle.

    A circle too small to capture any cell center falls back to the value
    of the cell containing the circle center.
    """
    cx, cy = circle.center
    r = circle.radius_km
    qx, qy = bio.rect.clamp((cx, cy))
    if (qx - cx) ** 2 + (qy - cy) ** 2 > r * r:
        raise ValidationError(
            f"burn circle at ({cx}, {cy}) r={r} km lies outside the biomass grid")
    sp = bio.spacing_km
    i0 = max(int(np.floor((cx - r - bio.origin[0]) / sp)), 0)
    i1 = min(int(np.floor((cx + r - bio.origin[0]) / sp)), bio.nx - 1)
    j0 = max(int(np.floor((cy - r - bio.origin[1]) / sp)), 0)
    j1 = min(int(np.floor((cy + r - bio.origin[1]) / sp)), bio.ny - 1)
    if i1 >= i0 and j1 >= j0:
        xs = bio.origin[0] + (np.arange(i0, i1 + 1) + 0.5) * sp
        ys = bio.origin[1] + (np.arange(j0, j1 + 1) + 0.5) * sp
        dx2 = (xs - cx) ** 2
        dy2 = (ys - cy) ** 2
        inside = dy2[:, None] + dx2[None, :] <= r * r
        if inside.any():
            return float(bio.values[j0:j1 + 1, i0:i1 + 1][inside].mean())
    # tiny circle: nearest cell to the (clamped) center
    ix = min(max(int(np.floor((qx - bio.origin[0]) / sp)), 0), bio.nx - 1)
    iy = min(max(int(np.floor((qy - bio.origin[1]) / sp)), 0), bio.ny - 1)
    return float(bio.values[iy, ix])


def emission_tons(area_km2: float, b_avg: float,
                  underground_factor: float = UNDERGROUND_FACTOR,
                  unit_factor: float = UNIT_FACTOR) -> float:
    """Carbon tonnage for a burned area (km2) at mean biomass b_avg (Mg/ha)."""
    if area_km2 < 0:
        raise ValidationError(f"area_km2 must be >= 0, got {area_km2}")
    if b_avg < 0:
        raise ValidationError(f"b_avg must be >= 0, got {b_avg}")
    return area_km2 * underground_factor * b_avg * unit_factor


def carbon_price(tons: float, usd_per_ton: float = USD_PER_TON) -> float:
    if tons < 0:
        raise ValidationError(f"tons must be >= 0, got {tons}")
    if usd_per_ton < 0:
        raise ValidationError(f"usd_per_ton must be >= 0, got {usd_per_ton}")
    return tons * usd_per_ton


def savings(baseline_usd: float, scenario_usd: float,
            n_sensors: int, unit_cost_usd: float) -> SavingsReport:
    """Net savings: baseline cost minus scenario cost minus sensor spend.

    May be negative when the deployment costs more than it prevents.
    """
    value = baseline_usd - (scenario_usd + n_sensors * unit_cost_usd)
    return SavingsReport(baseline_price_usd=baseline_usd,
                         scenario_price_usd=scenario_usd,
                         n_sensors=n_sensors,
                         unit_cost_usd=unit_cost_usd,
                         savings_usd=value)

