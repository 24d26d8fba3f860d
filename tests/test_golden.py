"""Byte-level pins of the two logs a simulation run writes, and of what
the analyzer makes of them.

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
import random

import pytest
from test_sim import OUTAGE

from wamsbench import analyzer, cli
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

# exponential uplink jitter clamped at its cap, with loss and split
# frames; a constant downlink jitter.  Digests taken from the build
# before the channel drew its jitter through JitterSpec.sampler.
EXPONENTIAL = """
[scenario]
name = lab-exponential
seed = expo-1
duration_s = 60
devices = 3
[uplink]
t_p_ms = 40.0
p_loss = 0.02
jitter = exponential
jitter_median_ms = 10.0
jitter_cap_ms = 30.0
[downlink]
t_p_ms = 40.0
jitter = constant
jitter_median_ms = 2.5
jitter_cap_ms = 2.5
[device]
p_seg = 0.3
noise_sigma = 0.003
"""
EXPONENTIAL_GOLDEN = (
    "5ae2d30eef8e9328e04eac67b21c545dcfcb4eedb7768e4ebebda863933809c9",
    "b8d4460ffce7c4711f1773df9a5592c1d9f5750491714349bc34c44d1a902d84",
)


# a send delay (t_fdr_ms > 0), so every frame leaves through a scheduled
# send rather than from inside its grid tick; lognormal jitter both
# ways, uplink loss and split frames.  Digests taken from the build
# before the event core passed arguments with each queued action.
DELAYED_SEND = """
[scenario]
name = lab-delayed-send
seed = delayed-1
duration_s = 60
devices = 3
[uplink]
t_p_ms = 60.0
p_loss = 0.01
jitter = lognormal
jitter_median_ms = 8.0
jitter_sigma = 0.4
jitter_cap_ms = 30.0
[downlink]
t_p_ms = 60.0
jitter = lognormal
jitter_median_ms = 3.0
jitter_sigma = 0.3
jitter_cap_ms = 12.0
[device]
t_fdr_ms = 1.5
p_seg = 0.3
noise_sigma = 0.003
"""
DELAYED_SEND_GOLDEN = (
    "ddfd132519fa191daba137e690e9c648ba8aadf4bdaccaa56cb1606d59929db8",
    "2785f5e63596710f8fed9ddfad0d81e1299f433c83f15577d621f67ea920dc52",
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


def test_exponential_jitter_logs_match_golden_bytes(tmp_path):
    assert digests(parse_scenario(EXPONENTIAL), tmp_path) == EXPONENTIAL_GOLDEN


def test_delayed_send_logs_match_golden_bytes(tmp_path):
    assert digests(parse_scenario(DELAYED_SEND), tmp_path) == DELAYED_SEND_GOLDEN


# -- analyzer outputs ---------------------------------------------------------
#
# SHA-256 of what `analyze` writes and `report` prints, taken from the
# build whose loader kept each record line as a decoded dict, before the
# loader moved to tuples, then typed columns and a column cache.  The
# printed figures are rounded to 3-4 decimals, far above the last-bit
# drift a change of how a figure is summed makes, so FULL_PRECISION_GOLDEN
# also pins the unrounded figures: a throughput window's rate is its
# integer wire bytes times 8 over 1000, one correctly rounded division,
# and a loader or summary that sums the rates as floats drifts there.

ANALYZE_FILES = ("summary.csv", "delay_series.csv", "throughput_series.csv")
REPORT_SEED = "audit"

# (scenario, --t-fdr-ms; None keeps the default) -> (summary,
# delay series, throughput series, sampled report table)
ANALYZER_GOLDEN = {
    ("lossy_0p3", None): (
        "975267965381fa268e0a0151771e20872e267f1481f227036a784bc3e1f1ad61",
        "56f8926faa4bbf4aae463e64aab3f7e6573cf9ac510b01d2574acde1f7bc62a8",
        "ba120f4945b06f1af5c3d555d3de60f67970dc384e7a25fe183d10356745ebc2",
        "971a35c7d7bbbec39b43397fbe3b39468c905c7b32de43f05d88ab7044a9fe27",
    ),
    ("lossy_0p3", "1.5"): (
        "6ee5175dfd865b8bbb2b43eb2b6c5ffa69d95f9978f45a6d2776c871085a18a7",
        "db400d11a5b6a37d1270088315ba784a9b39d1f50eb59a72f10b1ee41a3d1d5c",
        # the throughput series does not depend on --t-fdr-ms
        "ba120f4945b06f1af5c3d555d3de60f67970dc384e7a25fe183d10356745ebc2",
        "b4021332cd7a2dff4c11c04f3bf4728aa08983afade3da0649d2aee75c9acdad",
    ),
    ("outage", None): (
        "fe00badd3a70f7950e085c756bbac62a7b71206e6953972bc7082f5b96951c27",
        "f2a15d8b57eca38ca1f21a9e225b50650531b06e8c988aaf198b7581909ab399",
        "9e7f1976a8121aa4e2ad5d6565b6eaf91135ceadf93fb050241cc0363c0b7246",
        "2b086d9b05c89baadf148cec269b091e862019ba6198eda7f0f8c136b85c7883",
    ),
}


@pytest.fixture(scope="module")
def analyzer_captures(tmp_path_factory):
    """Capture path and report sample size per scenario, simulated once."""
    lossy = dataclasses.replace(load_scenario("lossy_0p3"), duration_s=60)
    scenarios = {"lossy_0p3": lossy, "outage": parse_scenario(OUTAGE)}
    out = {}
    for name, scenario in scenarios.items():
        result = run_simulation(scenario, tmp_path_factory.mktemp(name))
        # 30 of lossy's 60 slots; half of the 12 s outage run's
        out[name] = (result.capture_path, min(30, scenario.duration_s // 2))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("key", sorted(ANALYZER_GOLDEN, key=str), ids=lambda k: "-".join(map(str, k)))
def test_analyzer_outputs_match_golden_bytes(key, analyzer_captures, tmp_path, capsys):
    name, t_fdr = key
    capture, sample = analyzer_captures[name]
    delay_opts = ["--t-fdr-ms", t_fdr] if t_fdr else []
    analyze = ["analyze", str(capture), "--out-dir", str(tmp_path), *delay_opts]
    assert cli.main(analyze) == 0
    got = [_sha((tmp_path / f).read_bytes()) for f in ANALYZE_FILES]
    capsys.readouterr()
    report = ["report", str(capture), "--sample-size", str(sample), "--sample-seed", REPORT_SEED]
    assert cli.main(report + delay_opts) == 0
    got.append(_sha(capsys.readouterr().out.encode()))
    assert tuple(got) == ANALYZER_GOLDEN[key]


# scenario -> SHA-256 of full_precision_figures()
FULL_PRECISION_GOLDEN = {
    "lossy_0p3": "402badb8cdfdc361828aec7120772b2f1e6366ed27d55513f5b4c59a2abd7301",
    "outage": "d40578ef163a48b9216f514a6c1e02d81920af8fdd5ba47ddae2e9a744aad0c5",
}


def full_precision_figures(capture) -> str:
    """repr of every float the outputs are printed from, unrounded."""
    population = capture.population_slots()
    sample = random.Random("golden").sample(range(population), population // 2)
    figures = [
        [dataclasses.astuple(m) for m in analyzer.summarize(capture).devices],
        [dataclasses.astuple(m) for m in analyzer.summarize(capture, sample, t_fdr_ms=1.5).devices],
        sorted(analyzer.throughput_series(capture).items()),
        [(d.t_ci_ms, d.t_ete_ms) for d in analyzer.one_way_delays(capture, t_fdr_ms=1.5, t_dcs_ms=0.25)],
    ]
    return repr(figures)


@pytest.mark.parametrize("name", ["lossy_0p3", "outage"])
def test_full_precision_figures_match_golden(name, analyzer_captures):
    capture = analyzer.load_capture(analyzer_captures[name][0])
    assert _sha(full_precision_figures(capture).encode()) == FULL_PRECISION_GOLDEN[name]
