"""Pinned digests of the bundled season's trajectories and replays.

The sweep CSVs hold season sums, which can hide a change that moves one
incident's circle or detecting sensor. These digests cover every
incident-hour of the bundled season at its cap_hours and every replay
outcome of its first two deployment trials at each bundled count. The
`simulate` digests pin the incident JSON and trace CSV bytes of a few
runs, detected and undetected, so a change to the one-incident path that
moves a byte fails here.
"""

from __future__ import annotations

import hashlib
import math
import struct

import pytest

from emberlink.cli import main
from emberlink.evolution import replay_detection, screen_disk, undetected_hours
from emberlink.harness import bundled_scenario_path
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
                [k], [sensor] = (a.tolist() for a in replay_detection(
                    circles, screen_disk(circles), field_, (count,)))
                detected = sensor >= 0
                hours = float(k) if detected else undetected_hours(inc, circles, evo)
                x, y, r = circles[k].tolist()
                h.update(struct.pack("<?dqd3d", detected, hours,
                                     sensor, math.pi * r * r, x, y, r))
                replays += 1
                detections += detected
    assert swp.sensor_counts == (10000, 100000, 1000000)
    assert (replays, detections) == (300, 249)
    assert h.hexdigest() == (
        "611ac4e3d696f85ecfb028b8a33a98561816f889994b5e6d33a2e5512072a62a")


@pytest.mark.parametrize("incident, flags, run, json_hex, trace_hex", [
    # no sensors: undetected at the bundle's 72 h cap
    ("syn-001", [], [],
     "c887ae7d54b41e5e8aa6f24f2326a0f22ba502653b3ca6c56125cf8581abb278",
     "49ea05ad3240b15b47ecb829812c09dfc0824c0c569814cee94d03ec2ae29bb3"),
    # a fractional cap is the undetected hours
    ("syn-001", ["--set", "evolution.max_hours=4.5"], [],
     "4e4d8662e651e66c46b2f19b26b56c9adf097f2689451ac1c2dd57684d6d047c",
     "1440282bd08a764ba576cb00ce20560a791a7bcce61bb4b9f374d1475906d8bb"),
    # detected at hour 26
    ("syn-001", ["--seed", "3"], ["--deploy", "100000"],
     "479c0828e1937f2ef2dcb5958b12cc52b4ab7a06b71e19323d11f6d31ae0a29b",
     "49ea05ad3240b15b47ecb829812c09dfc0824c0c569814cee94d03ec2ae29bb3"),
    # detected at hour 6 by a screened deploy of 2M draws
    ("syn-007", ["--seed", "3"], ["--deploy", "2000000"],
     "7c29909d37e68dd81f8bc6118a7ca79467d747620cd5582c2721fe04956a9065",
     "5f56051994dc6392ddca328c87de0039dfd1377aebb2a35f6b7fe084361ac494"),
    # sensors deployed, none near: undetected
    ("syn-023", ["--seed", "3"], ["--deploy", "1000"],
     "5c2ba8098ac1ba4b7f2ee5e53ee7b5c01526e81894b888d81cdfaf625f685f5c",
     "02ac7a68727d5f863fbee9ceb7e7363507e45b705fc4eec0f22838aca23fa25a"),
    # detected at hour 58
    ("syn-050", ["--seed", "3"], ["--deploy", "1000"],
     "57f8bb77e71d57ad6f1a53f27cfe4135bf5dd9e777e07101f2f632c4cfcffa95",
     "4b8944eab631fe200ed72f124d9f35bbcd5f113e1b0449e22c739ec6230ce251"),
])
def test_simulate_digest(tmp_path, capsys, incident, flags, run, json_hex, trace_hex):
    argv = ["--out-dir", str(tmp_path), "--set",
            f"paths.scenario_bundle={bundled_scenario_path()}", *flags,
            "simulate", "--incident", incident, "--trace", *run]
    assert main(argv) == 0
    result = (tmp_path / f"incident_{incident}.json").read_bytes()
    trace = (tmp_path / f"incident_{incident}_trace.csv").read_bytes()
    # stdout is the incident JSON
    assert capsys.readouterr().out.encode() == result
    assert hashlib.sha256(result).hexdigest() == json_hex
    assert hashlib.sha256(trace).hexdigest() == trace_hex
