"""Pinned digests of the bundled season's trajectories and replays.

The sweep CSVs hold season sums, which can hide a change that moves one
incident's circle or detecting sensor. These digests cover every
incident-hour of the bundled season at its cap_hours and every replay
outcome of its first two deployment trials at each bundled count.
"""

from __future__ import annotations

import hashlib
import math
import struct

import pytest

from emberlink.evolution import replay_detection, screen_disk, undetected_hours
from emberlink.sensors import deploy_uniform

TRIALS = 2


@pytest.fixture(scope="module")
def season(bundled_season):
    """Incidents, env, sweep config, evolution config at the sweep's horizon,
    and each incident's (circles, frontier sizes) (see conftest.py)."""
    incidents, env, _, swp, evo, traces = bundled_season
    return incidents, env, swp, evo, traces


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
                [(k, sensor)] = replay_detection(circles, screen_disk(circles),
                                                 field_, (count,))
                detected = sensor is not None
                hours = float(k) if detected else undetected_hours(inc, circles, evo)
                x, y, r = circles[k].tolist()
                h.update(struct.pack("<?dqd3d", detected, hours,
                                     sensor if detected else -1, math.pi * r * r, x, y, r))
                replays += 1
                detections += detected
    assert swp.sensor_counts == (10000, 100000, 1000000)
    assert (replays, detections) == (300, 249)
    assert h.hexdigest() == (
        "611ac4e3d696f85ecfb028b8a33a98561816f889994b5e6d33a2e5512072a62a")
