"""Transport state-machine checks against hand-simulated traces.

The trace tests use a fake link with a constant one-way delay and a
scripted per-call drop list, so every expected segment, timer firing,
and estimator value below was worked out by hand before the assertions
were written.
"""

import random
from collections import Counter

import pytest

from wamsbench.simnet import ChannelParams, JitterSpec, Link, Simulator
from wamsbench.tcplite import (
    ACK,
    HEADER_BYTES,
    MAX_RTO_MS,
    PSH,
    SYN,
    SYN_RETRY_LIMIT,
    ConnState,
    Connection,
    RetxClass,
    Segment,
    TransportError,
    connect_pair,
)

MS = 1000  # us per ms


class FakeLink:
    """Constant-delay link with scripted drops (by transmit call index)."""

    def __init__(self, sim, delay_ms=10.0, drops=(), drop_all=False):
        self.sim = sim
        self.delay_us = round(delay_ms * MS)
        self.drops = set(drops)
        self.drop_all = drop_all
        self.calls = 0

    def transmit(self, serialized_bytes):
        idx = self.calls
        self.calls += 1
        if self.drop_all or idx in self.drops:
            return None
        return self.sim.now_us + self.delay_us


def make_pair(sim, client_drops=(), server_drops=(), delay_ms=10.0):
    uplink = FakeLink(sim, delay_ms, client_drops)
    downlink = FakeLink(sim, delay_ms, server_drops)
    client, server = connect_pair(sim, uplink, downlink)
    return client, server


def frame_bytes(fill, n=55):
    return bytes([fill]) * n


class TestHandshake:
    def test_lossless_handshake_is_exactly_three_segments(self):
        sim = Simulator()
        client, server = make_pair(sim)
        wire = []
        client.on_wire = lambda seg, arr: wire.append(("c", seg))
        server.on_wire = lambda seg, arr: wire.append(("s", seg))
        client.open()
        sim.run_until(100 * MS)
        assert client.established and server.established
        assert len(wire) == 3
        (d1, syn), (d2, synack), (d3, ack) = wire
        assert (d1, d2, d3) == ("c", "s", "c")
        assert syn.flags == frozenset({SYN}) and syn.seq == 0
        assert synack.flags == frozenset({SYN, ACK})
        assert synack.seq == 0 and synack.ack == 1
        assert ack.flags == frozenset({ACK})
        assert ack.seq == 1 and ack.ack == 1

    def test_handshake_rtt_seeds_the_estimator(self):
        sim = Simulator()
        client, server = make_pair(sim, delay_ms=10.0)
        client.open()
        sim.run_until(100 * MS)
        # SYN out at 0, SYN+ACK back at 20 ms
        assert client.srtt == pytest.approx(20.0)
        assert client.rttvar == pytest.approx(10.0)
        assert client.rto == pytest.approx(200.0)  # min_rto floor

    def test_dropped_syn_is_retransmitted_and_connection_opens(self):
        sim = Simulator()
        client, server = make_pair(sim, client_drops={0})
        client.open()
        sim.run_until(2_000 * MS)
        assert client.established and server.established
        assert client.wire_copies[RetxClass.RTO_RETX] == 1
        # Karn: the SYN was retransmitted, so its sample is discarded
        assert client.srtt is None

    def test_dead_uplink_fails_after_syn_retry_limit(self):
        sim = Simulator()
        failures = []
        uplink = FakeLink(sim, drop_all=True)
        downlink = FakeLink(sim)
        client, server = connect_pair(sim, uplink, downlink, on_failed=failures.append)
        client.open()
        sim.run_until(200_000 * MS)
        assert failures == ["retransmit limit exceeded"]
        assert client.state is ConnState.CLOSED
        assert client.wire_copies[RetxClass.FIRST] == 1
        assert client.wire_copies[RetxClass.RTO_RETX] == SYN_RETRY_LIMIT == 5

    def test_dropped_synack_still_opens_via_server_timer(self):
        sim = Simulator()
        client, server = make_pair(sim, server_drops={0})
        client.open()
        sim.run_until(5_000 * MS)
        assert client.established and server.established


class TestSend:
    def _established(self, sim):
        client, server = make_pair(sim)
        client.open()
        sim.run_until(100 * MS)
        assert client.established
        return client, server

    def test_send_requires_established(self):
        sim = Simulator()
        client, _ = make_pair(sim)
        with pytest.raises(TransportError):
            client.send(b"x")

    def test_empty_payload_rejected(self):
        sim = Simulator()
        client, _ = self._established(sim)
        with pytest.raises(TransportError):
            client.send(b"")

    def test_unsplit_frame_is_one_segment_95_wire_bytes(self):
        sim = Simulator()
        client, _ = self._established(sim)
        wire = []
        client.on_wire = lambda seg, arr: wire.append(seg)
        assert client.send(frame_bytes(1)) == 1
        assert len(wire) == 1
        assert wire[0].wire_bytes == 95  # 55 + 40

    def test_split_frame_is_two_segments_135_wire_bytes(self):
        sim = Simulator()
        client, _ = self._established(sim)
        wire = []
        client.on_wire = lambda seg, arr: wire.append(seg)
        assert client.send(frame_bytes(1), split=True) == 2
        assert [len(s.payload) for s in wire] == [27, 28]
        assert sum(s.wire_bytes for s in wire) == 135  # 55 + 2*40
        assert wire[1].seq == wire[0].seq + 27

    def test_consecutive_sends_use_contiguous_sequence_ranges(self):
        sim = Simulator()
        client, _ = self._established(sim)
        wire = []
        client.on_wire = lambda seg, arr: wire.append(seg)
        for fill in (1, 2, 3):
            client.send(frame_bytes(fill))
        assert [s.seq for s in wire] == [1, 56, 111]

    def test_delivery_and_ack_roundtrip(self):
        sim = Simulator()
        client, server = self._established(sim)
        got = []
        server.on_deliver = got.append
        client.send(frame_bytes(7))
        sim.run_until(200 * MS)
        assert got == [frame_bytes(7)]
        assert not client.unacked


class TestAckProcessing:
    """Drive one endpoint directly with crafted segments."""

    def _isolated_client(self, sim):
        # everything this client transmits vanishes; we inject replies
        client = Connection(sim, FakeLink(sim, drop_all=True), "client")
        client.open()
        client.on_segment(Segment(seq=0, ack=1, flags=frozenset({SYN, ACK})))
        assert client.established
        for fill in (1, 2, 3):
            client.send(frame_bytes(fill))
        return client

    def _pure_ack(self, ack):
        return Segment(seq=1, ack=ack, flags=frozenset({ACK}))

    def test_three_duplicate_acks_trigger_exactly_one_fast_retransmit(self):
        sim = Simulator()
        client = self._isolated_client(sim)
        for _ in range(3):
            client.on_segment(self._pure_ack(1))
        assert client.wire_copies[RetxClass.FAST_RETX] == 1
        assert client.dup_ack_count == 0

    def test_retransmit_is_a_copy_and_the_original_stays_first(self):
        sim = Simulator()
        client = self._isolated_client(sim)
        copies = []
        client.on_wire = lambda seg, arrival: copies.append(seg)
        for _ in range(3):
            client.on_segment(self._pure_ack(1))
        sim.run_until(sim.now_us + round(client.rto * MS))  # one RTO fires
        original = client.unacked[0].segment
        assert original.retx_class is RetxClass.FIRST
        assert [c.retx_class for c in copies] == [RetxClass.FAST_RETX, RetxClass.RTO_RETX]
        assert all(c[:4] == original[:4] for c in copies)

    def test_segment_is_immutable(self):
        seg = self._pure_ack(1)
        with pytest.raises(AttributeError):
            seg.retx_class = RetxClass.RTO_RETX

    def test_fast_retransmit_not_repeated_for_same_hole(self):
        sim = Simulator()
        client = self._isolated_client(sim)
        for _ in range(6):
            client.on_segment(self._pure_ack(1))
        # second burst of three finds the hole already retransmitted
        assert client.wire_copies[RetxClass.FAST_RETX] == 1

    def test_two_dupacks_then_advance_means_no_retransmit(self):
        sim = Simulator()
        client = self._isolated_client(sim)
        client.on_segment(self._pure_ack(1))
        client.on_segment(self._pure_ack(1))
        assert client.dup_ack_count == 2
        client.on_segment(self._pure_ack(56))
        assert client.dup_ack_count == 0
        assert client.wire_copies[RetxClass.FAST_RETX] == 0
        assert client.snd_una == 56

    def test_ack_advancing_past_everything_empties_unacked(self):
        sim = Simulator()
        client = self._isolated_client(sim)
        client.on_segment(self._pure_ack(166))
        assert not client.unacked
        assert client.snd_una == 166

    def test_ack_beyond_snd_next_ignored_and_counted(self):
        sim = Simulator()
        client = self._isolated_client(sim)
        client.on_segment(self._pure_ack(9_999))
        assert client.protocol_errors == 1
        assert client.snd_una == 1
        assert len(client.unacked) == 3


class TestRtoEstimator:
    def _fresh(self):
        sim = Simulator()
        return Connection(sim, FakeLink(sim), "client")

    def test_first_sample_initialization(self):
        conn = self._fresh()
        assert conn.rto_update(120.0) == pytest.approx(360.0)
        assert conn.srtt == pytest.approx(120.0)
        assert conn.rttvar == pytest.approx(60.0)

    def test_constant_rtt_converges_to_min_rto(self):
        conn = self._fresh()
        # independent recurrence with the same update order
        srtt = rttvar = None
        for _ in range(60):
            got = conn.rto_update(100.0)
            if srtt is None:
                srtt, rttvar = 100.0, 50.0
            else:
                srtt = 0.875 * srtt + 0.125 * 100.0
                rttvar = 0.75 * rttvar + 0.25 * abs(srtt - 100.0)
            assert got == pytest.approx(max(200.0, srtt + 4 * rttvar))
        assert conn.rto == pytest.approx(200.0)
        assert conn.rttvar == pytest.approx(0.0, abs=1e-4)

    def test_retransmitted_segment_never_updates_estimator(self):
        sim = Simulator()
        # client wire calls: 0=SYN, 1=handshake ACK, 2=first data copy
        client, server = make_pair(sim, client_drops={2})
        client.open()
        sim.run_until(100 * MS)
        srtt_before = client.srtt
        client.send(frame_bytes(1))
        sim.run_until(5_000 * MS)
        assert not client.unacked  # recovered by RTO
        assert client.wire_copies[RetxClass.RTO_RETX] == 1
        assert client.srtt == srtt_before

    def test_recovery_epoch_never_pollutes_the_estimator(self):
        sim = Simulator()
        # client wire calls: 0=SYN, 1=handshake ACK, 2=data1 (lost),
        # 3=data2, 4=RTO retransmit of data1, 5=data3
        client, server = make_pair(sim, client_drops={2})
        got = []
        server.on_deliver = got.append
        client.open()
        sim.run_until(50 * MS)
        assert (client.srtt, client.rttvar) == (pytest.approx(20.0), pytest.approx(10.0))
        client.send(frame_bytes(0xA1))
        client.send(frame_bytes(0xB2))
        backed_off = []
        sim.schedule(255 * MS, lambda: backed_off.append(client.rto))
        sim.run_until(300 * MS)
        # timeout at 250 ms doubled the rto; the recovering ack at
        # 270 ms covers two segments at once, which marks a recovery
        # epoch: no sample is taken from segments that sat behind the
        # hole, and the backoff is dropped again
        assert backed_off == [pytest.approx(400.0)]
        assert client.wire_copies[RetxClass.RTO_RETX] == 1
        assert client.wire_copies[RetxClass.FAST_RETX] == 0
        assert client.srtt == pytest.approx(20.0)
        assert client.rttvar == pytest.approx(10.0)
        assert client.rto == pytest.approx(200.0)
        assert got == [frame_bytes(0xA1) + frame_bytes(0xB2)]  # hole fill, one delivery
        # clean traffic after the epoch samples normally again
        client.send(frame_bytes(0xC3))
        sim.run_until(400 * MS)
        assert client.srtt == pytest.approx(20.0)
        assert client.rttvar == pytest.approx(7.5)
        assert got == [frame_bytes(0xA1) + frame_bytes(0xB2), frame_bytes(0xC3)]

    def test_backoff_doubles_and_caps(self):
        sim = Simulator()
        uplink = FakeLink(sim)
        downlink = FakeLink(sim)
        client, server = connect_pair(sim, uplink, downlink)
        client.open()
        sim.run_until(100 * MS)
        assert client.rto == pytest.approx(200.0)
        times = []
        client.on_wire = lambda seg, arr: times.append(sim.now_us)
        uplink.drop_all = True
        client.send(frame_bytes(1))
        sim.run_until(sim.now_us + 400_000 * MS)
        gaps = [round((b - a) / MS) for a, b in zip(times, times[1:])]
        # r, 2r, ... 256r, then capped; 13 retransmits fit in 400 s,
        # below the limit that fails the connection
        assert gaps == [200 * 2**k for k in range(9)] + [MAX_RTO_MS] * 4
        assert client.established


class TestReliability:
    def _run(self, p_loss, n_frames, seed, on_wire=None):
        sim = Simulator()
        jitter = JitterSpec("lognormal", 10.0, 0.4, 40.0)
        up = Link(
            sim,
            ChannelParams(t_p_ms=50.0, r_ul_bps=384_000.0, jitter=jitter, p_loss=p_loss),
            random.Random(f"{seed}:up"),
        )
        down = Link(
            sim,
            ChannelParams(t_p_ms=50.0, r_ul_bps=7_200_000.0, jitter=jitter, p_loss=p_loss),
            random.Random(f"{seed}:down"),
        )
        received = bytearray()
        client, server = connect_pair(sim, up, down, on_wire=on_wire)
        server.on_deliver = received.extend
        payload_rng = random.Random(f"{seed}:payload")
        split_rng = random.Random(f"{seed}:split")
        frames = [payload_rng.randbytes(55) for _ in range(n_frames)]
        sent = bytearray()
        state = {"idx": 0}

        def tick():
            if state["idx"] >= n_frames:
                return
            if client.established:
                frame = frames[state["idx"]]
                state["idx"] += 1
                sent.extend(frame)
                client.send(frame, split=split_rng.random() < 0.3)
            sim.schedule_in(100 * MS, tick)

        client.open()
        sim.schedule(100 * MS, tick)
        sim.run_until((n_frames * 100 + 60_000) * MS)
        return client, bytes(sent), bytes(received)

    @pytest.mark.parametrize("p_loss", [0.0, 0.05])
    def test_stream_delivered_intact(self, p_loss):
        client, sent, received = self._run(p_loss, 800, seed=11)
        assert len(sent) == 800 * 55
        assert received == sent

    def test_no_retransmissions_on_clean_channel(self):
        client, sent, received = self._run(0.0, 800, seed=12)
        assert received == sent
        assert client.wire_copies[RetxClass.RTO_RETX] == 0
        assert client.wire_copies[RetxClass.FAST_RETX] == 0

    def test_wire_copies_count_each_copy_on_the_wire_once(self):
        # the capture log records what on_wire sees, dropped copies too
        seen = Counter()
        client, _, _ = self._run(0.05, 800, seed=13, on_wire=lambda seg, arrival: seen.update([seg.retx_class]))
        assert seen == client.wire_copies
        assert min(seen[cls] for cls in RetxClass) > 0
