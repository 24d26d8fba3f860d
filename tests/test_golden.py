"""Byte-level pins of the two logs a simulation run writes.

The determinism tests in test_sim.py only show that a build agrees with
itself, which a change of event order or log encoding between builds
passes.  These SHA-256 digests were taken from the build before the
event core and the capture path were reworked for speed, so any drift
in event order, channel draws, transport behavior or line encoding
fails here.  An intended change to the log bytes must update the
digests and name the change in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest
from test_sim import OUTAGE

from wamsbench.scenario import load_scenario, parse_scenario
from wamsbench.sim import run_simulation

# bundled scenarios cut to 60 simulated seconds
GOLDEN = {
    "lossless": (
        "9b9c3e664f98bcb60b4dcb6bc0a41f265dda932bcafb5bb9418c95badfad6327",
        "78d76963d74f1c089b686ba781097bd2ae78494e894713d715b984b3314785f8",
    ),
    "lossy_0p3": (
        "2f78a7afbfe872a0cba00b36c6a550b47405581ad70e084401e2cc2a606c785c",
        "236a581bb3dec681616bf6dee50170e907e897dc256b6a4c7166be462dc166da",
    ),
    "paper_like": (
        "6b8c055527bc6ac4b4adc245df8ef631c47d1489bdbde1e39a76ed83b84c669b",
        "7fa36d6668d6991a182247d3f54dea879ebf3db37d90958a86b73e9fa1532ede",
    ),
}
# test_sim.OUTAGE: a concentrator outage answered with RSTs, then redials
OUTAGE_GOLDEN = (
    "22e031cd96062bc3f03d7557d85a46e9dbed57a45a2e8bd2834ad72031779d1a",
    "3f8029638695385fbb7a13b25bf0c80783354707b564faaa5f60aeb975d61bdc",
)


def digests(scenario, out_dir) -> tuple:
    result = run_simulation(scenario, out_dir)
    return tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (result.capture_path, result.measurements_path)
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_logs_match_golden_bytes(name, tmp_path):
    scenario = dataclasses.replace(load_scenario(name), duration_s=60)
    assert digests(scenario, tmp_path) == GOLDEN[name]


def test_outage_logs_match_golden_bytes(tmp_path):
    assert digests(parse_scenario(OUTAGE), tmp_path) == OUTAGE_GOLDEN
