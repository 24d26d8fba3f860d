"""Acceptance gates: ten end-to-end criteria at pinned tolerances.

One test per criterion.  Each prints a PASS line with its elapsed time
(or a FAIL line before the assertion surfaces) and enforces the
criterion's wall-clock budget, so a plain verbose pytest run reads as a
ten-line scorecard.
"""

import functools
import json
import random
import re
import signal
import subprocess
import sys
import time
from collections import defaultdict
from statistics import fmean

import pytest

import oracle_logs
from wamsbench import analyzer, cli, stats
from wamsbench.frame import FdrFrame, FrameDecodeError, decode_frame, encode_frame
from wamsbench.scenario import load_scenario
from wamsbench.sim import run_simulation
from wamsbench.simnet import ChannelParams, Link, Simulator, transit_delay
from wamsbench.tcplite import RetxClass, connect_pair

SERIALIZATION_55_MS = 8 * 55 / 384_000 * 1000  # 1.1458333... ms


def criterion(num, label, budget_s):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {label}")
                raise
            elapsed = time.monotonic() - start
            assert elapsed < budget_s, f"over budget: {elapsed:.2f}s >= {budget_s}s"
            print(f"PASS criterion {num}: {label} ({elapsed:.2f}s)")

        return run

    return wrap


@criterion(1, "sample-size reproduction", 1.0)
def test_criterion_01_sample_size_reproduction(capsys):
    z = stats.z_for_confidence(0.95)
    delay = stats.min_sample_size(stats.SampleSizeInputs(s=0.908, z=z, e=0.02, n_t=86400))
    tput = stats.min_sample_size(stats.SampleSizeInputs(s=0.186, z=z, e=0.02, n_t=86400))
    assert abs(delay - 7246.63) <= 1.0
    assert abs(tput - 330.65) <= 0.5
    assert stats.combined_min([delay, tput]) == delay
    # same figures through the command-line surface
    assert cli.main(["samplesize", "--s", "0.908", "--s", "0.186"]) == 0
    out = capsys.readouterr().out
    assert "n_min = 7246.63 (need 7247)" in out
    assert "n_min = 330.65 (need 331)" in out
    assert "combined: n_min = 7246.63" in out


@criterion(2, "serialization term", 1.0)
def test_criterion_02_serialization_term():
    params = ChannelParams(t_p_ms=0.0, r_ul_bps=384_000.0)
    delay_ms = transit_delay(55, params, random.Random("unused: jitter is zero"))
    assert abs(delay_ms - 1.1458) <= 1e-3  # within 1 us of the stated figure


@criterion(3, "lossless delay oracle", 10.0)
def test_criterion_03_lossless_oracle(tmp_path):
    assert cli.main(["simulate", "lossless", str(tmp_path)]) == 0
    rows = (tmp_path / "measurements.jsonl").read_text().splitlines()
    assert len(rows) - 2 == 6000  # header + 6000 rows + integrity
    capture = analyzer.load_capture(tmp_path / "capture.jsonl")
    delays = analyzer.one_way_delays(capture)
    assert len(delays) == 6000
    closed_form = 100.0 + SERIALIZATION_55_MS
    for d in delays:
        assert abs(d.t_ci_ms - closed_form) <= 1e-3  # us-clock quantization only
    summary = analyzer.summarize(capture)
    for dev in summary.devices:
        assert dev.retx_pct == 0.0
        assert dev.fast_retx_pct == 0.0
        assert dev.wasted_bw_pct == 0.0


@criterion(4, "loss-rate tracking", 60.0)
def test_criterion_04_loss_rate_tracking(tmp_path):
    scenario = load_scenario("lossy_0p3")
    assert scenario.frames_expected >= 100_000
    result = run_simulation(scenario, tmp_path)
    capture = analyzer.load_capture(result.capture_path)
    retx_pct, fast_pct = analyzer.retransmission_stats(capture)
    assert 0.2 <= retx_pct + fast_pct <= 0.4
    assert analyzer.wasted_bandwidth_pct(capture) == retx_pct + fast_pct


@criterion(5, "calibrated delay band", 60.0)
def test_criterion_05_calibrated_delay_band(tmp_path):
    assert cli.main(["simulate", "paper_like", str(tmp_path)]) == 0
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert header == "device,avg_throughput_kbps,avg_delay_ms,max_delay_ms,retx_pct,fast_retx_pct,wasted_bw_pct"
    capture = analyzer.load_capture(tmp_path / "capture.jsonl")
    summary = analyzer.summarize(capture)
    assert len(summary.devices) == 10
    for dev in summary.devices:
        assert 100.0 <= dev.avg_delay_ms <= 170.0
        assert dev.max_delay_ms < 1000.0


@criterion(6, "analyzer oracle equivalence", 1.0)
def test_criterion_06_analyzer_oracles(tmp_path):
    for builder in oracle_logs.ALL_ORACLES:
        _, verify = builder(tmp_path / f"{builder.__name__}.jsonl")
        verify(analyzer)


def _stream_frames(p_loss):
    """10^4 frames through one transport connection over lossy links."""
    sim = Simulator()
    uplink = Link(sim, ChannelParams(t_p_ms=20.0, p_loss=p_loss), random.Random(f"c7:{p_loss}:up"))
    downlink = Link(
        sim,
        ChannelParams(t_p_ms=20.0, r_ul_bps=7_200_000.0, p_loss=p_loss),
        random.Random(f"c7:{p_loss}:dn"),
    )
    client, server = connect_pair(sim, uplink, downlink, name=f"c7-{p_loss}")
    payload_rng = random.Random(f"c7:{p_loss}:payload")
    frames = [payload_rng.randbytes(55) for _ in range(10_000)]
    received = []
    server.on_deliver = received.append

    def pump():
        # 20 ms spacing: dup-acks from following frames keep fast
        # retransmit viable, as in the streaming regime being modeled
        for k, chunk in enumerate(frames):
            sim.schedule_in(k * 20_000, lambda chunk=chunk: client.send(chunk))

    client.on_established = pump
    client.open()
    sim.run_until(7_200_000_000)
    return frames, received, client


@criterion(7, "transport reliability", 30.0)
def test_criterion_07_transport_reliability():
    for p_loss in (0.0, 0.01, 0.1):
        frames, received, client = _stream_frames(p_loss)
        assert b"".join(received) == b"".join(frames), f"stream mismatch at p_loss={p_loss}"
        if p_loss == 0.0:
            assert client.wire_copies[RetxClass.RTO_RETX] == 0
            assert client.wire_copies[RetxClass.FAST_RETX] == 0


@criterion(8, "frame codec", 5.0)
def test_criterion_08_frame_codec():
    rng = random.Random("acceptance-codec")
    for _ in range(10_000):
        frame = FdrFrame(
            device_id=rng.randrange(0x10000),
            frame_seq=rng.randrange(0x100000000),
            utc_timestamp=rng.randrange(2**64),
            frequency=rng.uniform(49.0, 51.0),
            voltage_mag=rng.uniform(0.0, 2.0),
            voltage_angle=rng.uniform(-180.0, 179.9),
            status=rng.randrange(0x100),
        )
        wire = encode_frame(frame)
        assert len(wire) == 55
        assert decode_frame(wire) == frame
    one = encode_frame(FdrFrame(7, 42, 1_700_000_000_000, 50.01, 1.02, -12.5, status=1))
    for position in range(55 * 8):
        corrupt = bytearray(one)
        corrupt[position // 8] ^= 1 << (position % 8)
        with pytest.raises(FrameDecodeError):
            decode_frame(bytes(corrupt))


@criterion(9, "determinism", 20.0)
def test_criterion_09_determinism(tmp_path):
    scenario = load_scenario("lossless")
    first = run_simulation(scenario, tmp_path / "a")
    second = run_simulation(scenario, tmp_path / "b")
    assert first.capture_path.read_bytes() == second.capture_path.read_bytes()
    assert first.measurements_path.read_bytes() == second.measurements_path.read_bytes()


@criterion(10, "live loopback smoke", 40.0)
def test_criterion_10_live_loopback(tmp_path):
    serve = subprocess.Popen(
        [sys.executable, "-m", "wamsbench.cli", "serve", "--port", "0", "--out-dir", str(tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = serve.stdout.readline().strip()
        assert banner.startswith("listening on "), banner
        port = int(banner.rsplit(":", 1)[1])
        emulators = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "wamsbench.cli", "emulate",
                    "--port", str(port),
                    "--devices", "1",
                    "--first-device", str(dev),
                    "--duration-s", "30",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            for dev in (1, 2, 3)
        ]
        generated = 0
        for emu in emulators:
            out, _ = emu.communicate(timeout=38)
            assert emu.returncode == 0, out
            figures = re.search(r"generated (\d+) frames, sent (\d+)", out)
            assert figures, out
            generated += int(figures.group(1))
        time.sleep(1.0)  # let the kernel flush the last frames through
    finally:
        serve.send_signal(signal.SIGINT)
        serve.communicate(timeout=15)
    assert serve.returncode == 0
    lines = (tmp_path / "measurements.jsonl").read_text().splitlines()
    assert "integrity" in json.loads(lines[-1])
    rows = [json.loads(line) for line in lines[1:-1]]
    assert generated == 900
    assert len(rows) >= 0.95 * generated
    stamps = defaultdict(list)
    for row in rows:
        stamps[row["device_id"]].append(row["frame_timestamp"])
    assert sorted(stamps) == [1, 2, 3]
    for series in stamps.values():
        assert all(ts % 100 == 0 for ts in series)
        assert all(b > a for a, b in zip(series, series[1:]))
