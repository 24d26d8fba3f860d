"""End-to-end simulation runs against closed-form timing oracles.

With jitter, loss, and segmentation all switched off the delivery time
of every frame is computable by hand: propagation plus the payload
serialization time at the uplink rate.  Those scenarios pin the whole
pipeline (generation, transport, channel, reassembly, logging) to
microsecond accuracy; the randomized scenario then only needs to check
conservation laws and byte-exact determinism.
"""

import dataclasses
import gc
import json
import warnings
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wamsbench import fdr, sim
from wamsbench.dcs import ms
from wamsbench.scenario import parse_scenario
from wamsbench.sim import _SimulationRun, run_simulation

LOSSLESS = """
[scenario]
name = lab-lossless
duration_s = 8
devices = 2
[uplink]
t_p_ms = 100.0
[device]
p_seg = 0
"""

ALWAYS_SPLIT = """
[scenario]
name = lab-split
duration_s = 3
devices = 1
[uplink]
t_p_ms = 20.0
[device]
p_seg = 1.0
"""

OUTAGE = """
[scenario]
name = lab-outage
duration_s = 12
devices = 1
dcs_outages = 4-7
[uplink]
t_p_ms = 10.0
[device]
p_seg = 0
"""

JITTERY = """
[scenario]
name = lab-jittery
duration_s = 3
devices = 2
[uplink]
t_p_ms = 50.0
p_loss = 0.05
jitter = lognormal
jitter_median_ms = 8.0
jitter_sigma = 0.4
jitter_cap_ms = 30.0
[downlink]
t_p_ms = 50.0
[device]
p_seg = 0.3
noise_sigma = 0.003
"""

SER_55_MS = 8 * 55 / 384_000 * 1000  # payload clock-out time at the uplink rate


def run(text, tmp_path, sub="run"):
    return run_simulation(parse_scenario(text), tmp_path / sub)


def read_log(path):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert "header" in lines[0] and "integrity" in lines[-1]
    return lines[0]["header"], lines[1:-1], lines[-1]["integrity"]


@pytest.fixture(scope="module")
def lossless(tmp_path_factory):
    return run(LOSSLESS, tmp_path_factory.mktemp("lossless"))


@pytest.fixture(scope="module")
def split_run(tmp_path_factory):
    return run(ALWAYS_SPLIT, tmp_path_factory.mktemp("split"))


@pytest.fixture(scope="module")
def outage(tmp_path_factory):
    return run(OUTAGE, tmp_path_factory.mktemp("outage"))


@pytest.fixture(scope="module")
def jittery(tmp_path_factory):
    return run(JITTERY, tmp_path_factory.mktemp("jittery"))


class TestLossless:
    def test_every_frame_arrives_exactly_once(self, lossless):
        assert lossless.rows == 2 * 8 * 10
        assert lossless.ingest_counters.get("duplicate_frames", 0) == 0
        assert lossless.ingest_counters.get("crc_errors", 0) == 0
        assert lossless.ingest_counters.get("resync_bytes", 0) == 0

    def test_delay_matches_closed_form(self, lossless):
        _, rows, _ = read_log(lossless.measurements_path)
        for row in rows:
            delay = row["arrival_time"] - row["frame_timestamp"]
            assert abs(delay - (100.0 + SER_55_MS)) < 0.001

    def test_no_retransmissions(self, lossless):
        _, records, _ = read_log(lossless.capture_path)
        assert all(r["retransmission_class"] == "FIRST" for r in records)
        assert all(r["wall_time"] is not None for r in records)

    def test_one_ack_per_delivered_data_segment(self, lossless):
        _, records, _ = read_log(lossless.capture_path)
        for dev in (1, 2):
            mine = [r for r in records if r["device_id"] == dev]
            data = [r for r in mine if r["direction"] == "UPLINK" and r["payload_bytes"]]
            acks = [r for r in mine if r["direction"] == "ACK"]
            # one pure ACK per data segment, plus the SYN+ACK
            assert len(acks) == len(data) + 1
            control = [r for r in mine if r["direction"] == "UPLINK" and not r["payload_bytes"]]
            assert len(control) == 2  # SYN and the handshake ACK

    def test_headers_carry_run_metadata(self, lossless):
        header, records, integrity = read_log(lossless.capture_path)
        assert header["log"] == "capture"
        assert header["mode"] == "sim"
        assert header["seed"] == "lab-lossless"
        assert header["scenario"] == "lab-lossless"
        assert header["t_fdr_ms"] == 0.0
        assert header["t_dcs_ms"] == 0.0
        assert integrity["records"] == len(records)
        assert integrity["dropped_copies"] == 0


class TestSplitFrames:
    def test_split_halves_arrive_and_only_second_completes(self, split_run):
        _, records, _ = read_log(split_run.capture_path)
        data = [r for r in records if r["direction"] == "UPLINK" and r["payload_bytes"]]
        assert [r["payload_bytes"] for r in data] == [27, 28] * 30
        for first, second in zip(data[0::2], data[1::2]):
            assert first["frame_complete"] is None
            (done,) = second["frame_complete"]
            assert done["arrival_time_of_last_byte"] == second["wall_time"]

    def test_split_delay_equals_whole_frame_delay(self, split_run):
        # both halves clock out back to back, so the last byte lands at
        # the same instant a single 55-byte segment would
        _, rows, _ = read_log(split_run.measurements_path)
        assert len(rows) == 30
        for row in rows:
            delay = row["arrival_time"] - row["frame_timestamp"]
            assert abs(delay - (20.0 + SER_55_MS)) < 0.001


class TestOutage:
    def test_gap_covers_outage_and_nothing_else(self, outage):
        _, rows, _ = read_log(outage.measurements_path)
        seqs = {row["frame_seq"] for row in rows}
        assert len(seqs) == len(rows)
        # frame 40 is sent at t=4.0 and refused mid-flight; the redial
        # only wins after the window closes, at the 7.1 s grid point
        assert set(range(1, 121)) - seqs == set(range(40, 71))

    def test_device_counters_tell_the_same_story(self, outage):
        (dev,) = outage.devices
        assert dev.frames_generated == 120
        assert dev.frames_dropped_offline == 30
        assert dev.frames_sent == 90
        assert dev.reconnects == 3
        assert dev.dials == 4
        assert outage.capture_counters["outage_rsts"] == 3

    def test_refused_copy_is_logged_as_arrived_but_incomplete(self, outage):
        # whole-frame copies otherwise always complete a frame in this
        # lossless scenario, so the one refused mid-outage stands out
        _, records, _ = read_log(outage.capture_path)
        refused = [
            r
            for r in records
            if r["direction"] == "UPLINK"
            and r["payload_bytes"] == 55
            and r["wall_time"] is not None
            and r["frame_complete"] is None
        ]
        assert len(refused) == 1
        assert refused[0]["seq_range"] == [1 + 39 * 55, 1 + 40 * 55]  # frame 40


class TestDevice:
    """A device's own behavior: the 10 Hz grid, its first tick, split
    frames and its drops while offline."""

    def test_streams_ten_frames_per_second_on_the_grid(self, lossless):
        _, rows, _ = read_log(lossless.measurements_path)
        for dev in lossless.devices:
            assert dev.frames_generated == dev.frames_sent == 8 * 10
            mine = [row for row in rows if row["device_id"] == dev.device_id]
            assert [row["frame_seq"] for row in mine] == list(range(1, 81))
            stamps = [row["frame_timestamp"] for row in mine]
            assert stamps[0] % fdr.GRID_MS == 0
            assert all(b - a == fdr.GRID_MS for a, b in zip(stamps, stamps[1:]))

    @pytest.mark.parametrize("t_p_ms,first_ms", [(10.0, 100), (60.0, 200)])
    def test_first_stamp_is_the_grid_point_after_the_handshake(self, t_p_ms, first_ms, tmp_path):
        # the handshake takes two propagation delays plus the
        # serialization of two 40-byte headers
        text = f"""
[scenario]
name = lab-first-stamp
duration_s = 1
devices = 1
[uplink]
t_p_ms = {t_p_ms}
[downlink]
t_p_ms = {t_p_ms}
"""
        result = run(text, tmp_path)
        header, rows, _ = read_log(result.measurements_path)
        assert rows[0]["frame_timestamp"] == header["epoch_utc_ms"] + first_ms

    def test_split_frames_arrive_whole(self, split_run):
        _, rows, _ = read_log(split_run.measurements_path)
        assert [row["frame_seq"] for row in rows] == list(range(1, 31))
        assert split_run.ingest_counters.get("resync_bytes", 0) == 0

    def test_frames_are_dropped_offline_and_the_seq_advances(self, outage):
        (dev,) = outage.devices
        _, rows, _ = read_log(outage.measurements_path)
        seqs = [row["frame_seq"] for row in rows]
        assert dev.frames_generated == dev.frames_sent + dev.frames_dropped_offline == seqs[-1]
        # frame 40 was sent into the outage and refused; the frames
        # generated while the device was offline left no bytes, only
        # their numbers
        (gap,) = [(a, b) for a, b in zip(seqs, seqs[1:]) if b - a != 1]
        assert gap == (39, 40 + dev.frames_dropped_offline + 1)

    def test_every_generated_frame_is_encoded_once_through_the_fdr_module(self, monkeypatch, tmp_path):
        # a tracer wraps fdr.encode_frame where it stands; a device that
        # held its own reference would bypass the wrapper
        calls = []
        encode_frame = fdr.encode_frame

        def counting_encode_frame(frame):
            calls.append(frame.frame_seq)
            return encode_frame(frame)

        monkeypatch.setattr(fdr, "encode_frame", counting_encode_frame)
        result = run(OUTAGE, tmp_path)
        (dev,) = result.devices
        assert calls == list(range(1, dev.frames_generated + 1))


class TestRandomizedRun:
    def test_loss_recovery_conserves_frames(self, jittery):
        assert jittery.rows == 60
        for dev in jittery.devices:
            assert dev.frames_sent == dev.frames_generated == 30

    def test_first_copy_payload_bytes_conserved(self, jittery):
        _, records, _ = read_log(jittery.capture_path)
        first_payload = sum(
            r["payload_bytes"]
            for r in records
            if r["direction"] == "UPLINK"
            and r["payload_bytes"]
            and r["retransmission_class"] == "FIRST"
        )
        assert first_payload == 55 * sum(d.frames_sent for d in jittery.devices)

    def test_frame_complete_entries_cover_every_row(self, jittery):
        _, records, _ = read_log(jittery.capture_path)
        _, rows, _ = read_log(jittery.measurements_path)
        completed = {
            (r["device_id"], done["frame_seq"])
            for r in records
            if r["frame_complete"]
            for done in r["frame_complete"]
        }
        assert completed == {(row["device_id"], row["frame_seq"]) for row in rows}

    def test_dropped_copies_have_null_wall_time(self, jittery):
        _, records, integrity = read_log(jittery.capture_path)
        dropped = [r for r in records if r["wall_time"] is None]
        assert integrity["dropped_copies"] == len(dropped) > 0

    def test_byte_identical_reruns(self, tmp_path_factory, jittery):
        again = run(JITTERY, tmp_path_factory.mktemp("jittery2"))
        assert again.capture_path.read_bytes() == jittery.capture_path.read_bytes()
        assert again.measurements_path.read_bytes() == jittery.measurements_path.read_bytes()


class TestRunLifetime:
    @pytest.mark.parametrize("text", [JITTERY, OUTAGE], ids=["jittery", "outage"])
    def test_finished_run_is_freed_without_the_cyclic_collector(self, text, tmp_path, monkeypatch):
        pairs = []  # held past the run, as the benchmark holds them

        def recording_connect_pair(*args, **kwargs):
            pairs.append(connect_pair(*args, **kwargs))
            return pairs[-1]

        connect_pair = sim.connect_pair
        monkeypatch.setattr(sim, "connect_pair", recording_connect_pair)
        gc.collect()
        gc.disable()
        try:
            run = _SimulationRun(parse_scenario(text), tmp_path)
            result = run.run()
            counters = result.capture_counters
            refs = [weakref.ref(run.ingest), weakref.ref(run.sim)]
            del run, result
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
        # every wire copy but the refusals' RSTs went through a connection,
        # whose counters stay readable after the run
        copies = sum(sum(conn.wire_copies.values()) for pair in pairs for conn in pair)
        assert copies + counters["outage_rsts"] == counters["records"]
        assert all(conn.protocol_errors == 0 for pair in pairs for conn in pair)


    def test_log_that_cannot_be_opened_leaves_no_log_open(self, tmp_path):
        (tmp_path / "measurements.jsonl").mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IsADirectoryError):
                run_simulation(parse_scenario(LOSSLESS), tmp_path)
            gc.collect()
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
        # the capture log was opened first, and closed with its trailer
        assert json.loads((tmp_path / "capture.jsonl").read_text().splitlines()[-1])["integrity"]["records"] == 0


class TestWallClock:
    @given(
        epoch_ms=st.integers(min_value=0, max_value=2**42 - 1),
        t_us=st.integers(min_value=0, max_value=10**11),
    )
    @settings(max_examples=2000, deadline=None)
    def test_integer_clock_equals_rounded_float_clock(self, epoch_ms, t_us):
        # write_record's arrival: the run's integer clock over 1000.0
        scenario = dataclasses.replace(parse_scenario(LOSSLESS), epoch_utc_ms=epoch_ms)
        run = _SimulationRun(scenario, "unused")
        assert run.epoch_us == epoch_ms * 1000
        assert (run.epoch_us + t_us) / 1000.0 == ms(epoch_ms + t_us / 1000.0)

    @pytest.mark.parametrize("epoch_ms", [2**42, 2**43 + 100, -100])
    def test_run_rejects_epoch_outside_integer_clock_range(self, epoch_ms, tmp_path):
        scenario = dataclasses.replace(parse_scenario(LOSSLESS), epoch_utc_ms=epoch_ms)
        with pytest.raises(ValueError, match="epoch_utc_ms"):
            run_simulation(scenario, tmp_path)
        assert not list(tmp_path.iterdir())  # nothing written
