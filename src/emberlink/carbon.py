"""Carbon accounting: burned area to tonnage, price, and net savings.

Emission follows the burned-area stock model: above-ground live biomass
averaged over the burned circle, marked up 20% for underground biomass,
times area, times a Mg/ha-to-ton-per-km2 unit factor of 100. Tonnage is
priced at a flat USD rate; savings net out the sensor hardware cost.

Biomass tonnage is treated as emitted carbon tonnage one to one (no
carbon-fraction or combustion-completeness factor).
"""

from __future__ import annotations

import numpy as np

from .envdata import BiomassGrid, nearest_cells
from .errors import ValidationError, check_range

UNDERGROUND_FACTOR = 1.2   # underground biomass adds 20% of above-ground
UNIT_FACTOR = 100.0        # Mg/ha over km2 -> tons
USD_PER_TON = 20.0


def average_biomass(circle: tuple[float, float, float] | np.ndarray,
                    bio: BiomassGrid) -> float:
    """Mean biomass (Mg/ha) over grid cells whose centers lie in the
    circle, a (center_x_km, center_y_km, radius_km) row.

    A circle too small to capture any cell center falls back to the value
    of the cell holding the circle center (see envdata.nearest_cells: a
    center on a shared cell edge reads the lower-index cell).
    """
    cx, cy, r = circle
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
    ix, iy = nearest_cells(bio, (cx, cy))  # tiny circle
    return float(bio.values[iy, ix])


def emission_tons(area_km2: float, b_avg: float) -> float:
    """Carbon tonnage for a burned area (km2) at mean biomass b_avg (Mg/ha)."""
    check_range("area_km2", area_km2)
    check_range("b_avg", b_avg)
    return area_km2 * UNDERGROUND_FACTOR * b_avg * UNIT_FACTOR


def carbon_price(tons: float, usd_per_ton: float = USD_PER_TON) -> float:
    check_range("tons", tons)
    check_range("usd_per_ton", usd_per_ton)
    price = tons * usd_per_ton
    check_range(f"price of {tons!r} tons at usd_per_ton={usd_per_ton!r}", price)
    return price


def savings(baseline_usd: float, scenario_usd: float,
            n_sensors: int, unit_cost_usd: float) -> float:
    """Net savings in USD: baseline cost minus scenario cost minus sensor
    spend. May be negative when the deployment costs more than it prevents.
    """
    return baseline_usd - (scenario_usd + n_sensors * unit_cost_usd)

