"""Pinned digests of the bundled season's trajectories and replays.

The sweep CSVs hold season sums, which can hide a change that moves one
incident's circle or detecting sensor. These digests cover every
incident-hour of the bundled season at its cap_hours and every replay
outcome of its first two deployment trials at each bundled count.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import replace

import pytest

from emberlink.evolution import replay_detection, trace_rows
from emberlink.harness import bundled_scenario_path, load_season_bundle
from emberlink.sensors import deploy_uniform

TRIALS = 2


@pytest.fixture(scope="module")
def season():
    """Incidents, env, sweep config, evolution config at the sweep's horizon,
    and each incident's (circles, frontier sizes)."""
    incidents, env, _, swp, evo = load_season_bundle(bundled_scenario_path())
    evo = replace(evo, max_hours=swp.cap_hours)  # as sweep runs them
    return incidents, env, swp, evo, [trace_rows(inc, env, evo) for inc in incidents]


def test_trajectory_digest(season):
    incidents, _, swp, _, traces = season
    h = hashlib.sha256()
    hours = 0
    for circles, sizes in traces:
        h.update(circles.astype("<f8").tobytes())
        h.update(sizes.astype("<i8").tobytes())
        hours += len(circles) - 1
    assert (len(incidents), swp.cap_hours, hours) == (50, 72.0, 3600)
    assert h.hexdigest() == (
        "55205773923abd8589236526bac89c576ed49dac550a896a65413e4bc1c4794a")


def test_replay_digest(season):
    incidents, env, swp, evo, traces = season
    h = hashlib.sha256()
    replays = detections = 0
    for count in swp.sensor_counts:
        for trial in range(TRIALS):
            field_ = deploy_uniform(count, env.rect, swp.base_seed + trial)
            for inc, (circles, _) in zip(incidents, traces, strict=True):
                [r] = replay_detection(inc, circles, field_, evo, (count,))
                sensor = -1 if r.detecting_sensor is None else r.detecting_sensor
                h.update(struct.pack("<?dqd3d", r.detected, r.detection_hour,
                                     sensor, r.burned_area_km2, *r.circle))
                replays += 1
                detections += r.detected
    assert swp.sensor_counts == (10000, 100000, 1000000)
    assert (replays, detections) == (300, 249)
    assert h.hexdigest() == (
        "611ac4e3d696f85ecfb028b8a33a98561816f889994b5e6d33a2e5512072a62a")
