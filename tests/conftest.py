"""Fixtures shared by test modules."""

from __future__ import annotations

from dataclasses import replace

import pytest

from emberlink.evolution import trace_rows
from emberlink.harness import bundled_scenario_path, load_season_bundle


@pytest.fixture(scope="session")
def bundled_season():
    """The bundled season's incidents, env, biomass, sweep config and
    evolution config at the sweep's horizon, and each incident's (circles,
    frontier sizes) to that horizon, as sweep grows them."""
    incidents, env, bio, swp, evo = load_season_bundle(bundled_scenario_path())
    evo = replace(evo, max_hours=swp.cap_hours)
    return incidents, env, bio, swp, evo, [trace_rows(inc, env, evo) for inc in incidents]
