"""Device emulation checks: waveform synthesis and the 10 Hz schedule.

The disturbance-decay and angle-integration assertions use closed-form
values computed here, not the generator's own arithmetic.
"""

import math
import random

import pytest

from wamsbench.fdr import (
    GRID_MS,
    DeviceNode,
    DisturbanceEvent,
    FdrConfig,
    SignalGenerator,
    SignalModel,
    next_grid_ms,
)
from wamsbench.frame import decode_frame
from wamsbench.simnet import ChannelParams, Link, Simulator
from wamsbench.tcplite import RST, Segment, connect_pair

EPOCH = 1_700_000_000_000  # grid-aligned UTC ms


@pytest.mark.parametrize("t_fdr_ms", [-0.5, math.inf, math.nan])
def test_processing_time_must_be_finite_and_non_negative(t_fdr_ms):
    with pytest.raises(ValueError, match="t_fdr_ms must be finite and non-negative"):
        FdrConfig(device_id=1, t_fdr_ms=t_fdr_ms)


def make_gen(model, seed=1, epoch=EPOCH):
    return SignalGenerator(model, epoch, random.Random(seed))


class TestSignalGenerator:
    def test_flat_model_holds_nominal_values(self):
        gen = make_gen(SignalModel(f_nominal=50.0))
        for k in range(200):
            frame = gen.measure(1, k + 1, EPOCH + k * GRID_MS)
            assert frame.frequency == 50.0
            assert frame.voltage_mag == 1.0
            assert frame.voltage_angle == 0.0

    def test_100_frames_span_9900_ms(self):
        gen = make_gen(SignalModel())
        stamps = [gen.measure(1, k + 1, EPOCH + k * GRID_MS).utc_timestamp for k in range(100)]
        assert stamps[-1] - stamps[0] == 9_900
        assert all(b - a == GRID_MS for a, b in zip(stamps, stamps[1:]))

    def test_disturbance_decays_exponentially(self):
        t0 = EPOCH + 5_000
        model = SignalModel(
            f_nominal=50.0,
            disturbances=(DisturbanceEvent(at_utc_ms=t0, step_hz=-0.2, tau_s=10.0),),
        )
        gen = make_gen(model)
        assert gen.frequency_at(t0 - GRID_MS) == 50.0  # not yet active
        assert gen.frequency_at(t0) == pytest.approx(50.0 - 0.2)
        # one time constant later the step has shrunk by e^-1
        assert gen.frequency_at(t0 + 10_000) == pytest.approx(50.0 - 0.2 * math.exp(-1.0))

    def test_wander_peaks_at_quarter_period(self):
        model = SignalModel(f_nominal=50.0, f_wander_amp=0.05, f_wander_period_s=60.0)
        gen = make_gen(model)
        assert gen.frequency_at(EPOCH + 15_000) == pytest.approx(50.05)

    def test_angle_integrates_frequency_deviation(self):
        # near-constant +0.5 Hz offset: 0.5 Hz * 0.1 s * 360 deg = 18 deg per tick
        model = SignalModel(
            f_nominal=50.0,
            disturbances=(DisturbanceEvent(at_utc_ms=EPOCH, step_hz=0.5, tau_s=1e9),),
        )
        gen = make_gen(model)
        angles = [gen.measure(1, k + 1, EPOCH + k * GRID_MS).voltage_angle for k in range(4)]
        assert angles == pytest.approx([0.0, 18.0, 36.0, 54.0], abs=1e-6)

    def test_angle_stays_in_half_open_range(self):
        model = SignalModel(
            f_nominal=50.0,
            noise_sigma=0.5,
            disturbances=(DisturbanceEvent(at_utc_ms=EPOCH, step_hz=4.9, tau_s=1e9),),
        )
        gen = make_gen(model)
        for k in range(500):
            frame = gen.measure(1, k + 1, EPOCH + k * GRID_MS)
            assert -180.0 <= frame.voltage_angle < 180.0

    def test_noise_is_deterministic_per_seed(self):
        model = SignalModel(noise_sigma=0.01)
        a = [make_gen(model, seed="s").measure(1, k + 1, EPOCH + k * GRID_MS) for k in range(50)]
        b = [make_gen(model, seed="s").measure(1, k + 1, EPOCH + k * GRID_MS) for k in range(50)]
        assert a == b

    def test_off_grid_timestamp_rejected(self):
        gen = make_gen(SignalModel())
        with pytest.raises(ValueError):
            gen.measure(1, 1, EPOCH + 50)

    def test_next_grid_ms(self):
        assert next_grid_ms(EPOCH) == EPOCH
        assert next_grid_ms(EPOCH + 1) == EPOCH + GRID_MS
        assert next_grid_ms(EPOCH + 99.9) == EPOCH + GRID_MS


class _Harness:
    """Minimal lossless wiring for one DeviceNode."""

    def __init__(self, sim, t_p_ms=10.0):
        self.sim = sim
        self.t_p_ms = t_p_ms
        self.received = bytearray()
        self.dials = 0

    def make_connection(self, node):
        self.dials += 1
        up = Link(
            self.sim,
            ChannelParams(t_p_ms=self.t_p_ms, r_ul_bps=384_000.0),
            random.Random(f"h{self.dials}:up"),
        )
        down = Link(
            self.sim,
            ChannelParams(t_p_ms=self.t_p_ms, r_ul_bps=7_200_000.0),
            random.Random(f"h{self.dials}:down"),
        )
        client, server = connect_pair(self.sim, up, down)
        server.on_deliver = self.received.extend
        return client

    def frames(self):
        assert len(self.received) % 55 == 0
        return [
            decode_frame(self.received[i : i + 55]) for i in range(0, len(self.received), 55)
        ]


class TestDeviceNode:
    def _node(self, sim, harness, duration_s, p_seg=0.0):
        config = FdrConfig(device_id=3, p_seg=p_seg)
        return DeviceNode(sim, config, EPOCH, "seed", duration_s, harness.make_connection)

    def test_streams_exactly_ten_frames_per_second(self):
        sim = Simulator()
        harness = _Harness(sim)
        node = self._node(sim, harness, duration_s=3)
        node.start()
        sim.run_until(10_000_000)
        assert node.frames_generated == 30
        assert node.frames_sent == 30
        frames = harness.frames()
        assert len(frames) == 30
        assert [f.frame_seq for f in frames] == list(range(1, 31))
        stamps = [f.utc_timestamp for f in frames]
        assert all(b - a == GRID_MS for a, b in zip(stamps, stamps[1:]))
        assert stamps[0] % GRID_MS == 0

    def test_first_timestamp_is_grid_point_after_establishment(self):
        sim = Simulator()
        harness = _Harness(sim, t_p_ms=10.0)
        node = self._node(sim, harness, duration_s=1)
        node.start()
        sim.run_until(5_000_000)
        # handshake needs ~21 ms, so the schedule starts at the 100 ms point
        assert harness.frames()[0].utc_timestamp == EPOCH + 100

    def test_split_frames_still_deliver_whole(self):
        sim = Simulator()
        harness = _Harness(sim)
        node = self._node(sim, harness, duration_s=2, p_seg=1.0)
        node.start()
        sim.run_until(10_000_000)
        assert [f.frame_seq for f in harness.frames()] == list(range(1, 21))

    def test_outage_drops_frames_without_buffering(self):
        sim = Simulator()
        harness = _Harness(sim)
        node = self._node(sim, harness, duration_s=5)
        node.start()
        # kill the connection just before the 2.0 s tick; the redial at
        # 2.95 s lands before the 3.0 s tick, so ticks 2.0..2.9 s drop
        sim.schedule(1_950_000, lambda: node.conn.deliver_segment(
            Segment(seq=0, ack=0, flags=frozenset({RST}))
        ))
        sim.run_until(20_000_000)
        assert node.reconnects == 1
        assert harness.dials == 2
        assert node.frames_generated == 50
        assert node.frames_dropped_offline == 10
        assert node.frames_sent == 40
        frames = harness.frames()
        assert len(frames) == 40
        # sequence numbers advanced across the gap
        seqs = [f.frame_seq for f in frames]
        assert seqs == list(range(1, 20)) + list(range(30, 51))
        gaps = {b - a for a, b in zip(seqs, seqs[1:])}
        assert gaps == {1, 11}
