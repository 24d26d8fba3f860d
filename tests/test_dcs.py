"""Concentrator checks: stream carving, arrival semantics, log shape.

The split-frame rule matters most here: a frame's arrival time is the
time of the delivery that completed it, never the first fragment's.
"""

import gc
import json
import math
import socket
import struct
import threading
import time
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wamsbench import cli
from wamsbench.analyzer import load_capture
from wamsbench.dcs import (
    CaptureRecord,
    FrameAssembler,
    IngestState,
    LiveDcsServer,
    LogWriter,
    MeasurementRow,
    RunLogs,
    SeqRuns,
    dumps,
    log_header,
)
from wamsbench.frame import MAGIC, FdrFrame, crc16, encode_frame


def make_frame(device_id=1, frame_seq=1, ts=1_700_000_000_000):
    return FdrFrame(
        device_id=device_id,
        frame_seq=frame_seq,
        utc_timestamp=ts,
        frequency=50.0,
        voltage_mag=1.0,
        voltage_angle=0.0,
    )


def _no_thread(thread):
    raise AssertionError(f"thread started: {thread!r}")


def wire(device_id=1, frame_seq=1, ts=1_700_000_000_000):
    return encode_frame(make_frame(device_id, frame_seq, ts))


def logged(out_dir, *copy):
    """The lines after the header of the capture log and of the
    measurements log that RunLogs writes for one wire copy."""
    logs = RunLogs(out_dir, lambda kind: log_header(kind, "sim", "s1", 0, 60, 0.0), ("outage_rsts",))
    logs.write(*copy)
    logs.close({"rows": 0})
    return [(out_dir / name).read_text().splitlines()[1:] for name in ("capture.jsonl", "measurements.jsonl")]


class TestFrameAssembler:
    def test_whole_frame_decodes(self):
        asm, counters = FrameAssembler(), Counter()
        frames = asm.feed(wire(), counters)
        assert frames == [make_frame()]
        assert asm.device_id == 1
        assert not counters

    def test_partial_then_rest(self):
        asm, counters = FrameAssembler(), Counter()
        data = wire()
        assert asm.feed(data[:27], counters) == []
        assert asm.feed(data[27:], counters) == [make_frame()]

    def test_byte_by_byte_completes_on_final_byte(self):
        asm, counters = FrameAssembler(), Counter()
        data = wire()
        for b in data[:-1]:
            assert asm.feed(bytes([b]), counters) == []
        assert asm.feed(data[-1:], counters) == [make_frame()]
        assert not counters

    def test_two_frames_one_chunk(self):
        frames = FrameAssembler().feed(wire(frame_seq=1) + wire(frame_seq=2), Counter())
        assert [f.frame_seq for f in frames] == [1, 2]

    def test_resync_over_leading_garbage(self):
        asm, counters = FrameAssembler(), Counter()
        frames = asm.feed(b"\x00\xffjunk" + wire(), counters)
        assert len(frames) == 1
        assert counters == {"resync_bytes": 6}
        assert asm.junk_since_frame == 0

    def test_corrupt_frame_skipped_clean_frame_recovered(self):
        corrupt = bytearray(wire(frame_seq=1))
        corrupt[30] ^= 0x01  # breaks the CRC, keeps the magic
        counters = Counter(crc_errors=2, rows=3)  # a run's counts so far
        frames = FrameAssembler().feed(bytes(corrupt) + wire(frame_seq=2), counters)
        assert [f.frame_seq for f in frames] == [2]
        assert counters == {"crc_errors": 3, "resync_bytes": 55, "rows": 3}

    @pytest.mark.parametrize("corrupt_at", [None, 30, 54])
    def test_whole_frame_fast_path_matches_the_scan(self, corrupt_at):
        data = bytearray(wire())
        if corrupt_at is not None:
            data[corrupt_at] ^= 0x01
        data = bytes(data)
        whole, counters = FrameAssembler(), Counter()
        frames = whole.feed(data, counters)
        split, split_counters = FrameAssembler(), Counter()
        split.feed(data[:1], split_counters)  # a lone first magic byte is only buffered
        split_frames = split.feed(data[1:], split_counters)
        assert frames == split_frames
        assert counters == split_counters
        assert bytes(whole.buf) == bytes(split.buf)
        assert (whole.device_id, whole.junk_since_frame) == (
            split.device_id,
            split.junk_since_frame,
        )

    def test_magic_split_across_feeds(self):
        asm, counters = FrameAssembler(), Counter()
        data = wire()
        assert asm.feed(b"junk" + data[:1], counters) == []
        assert asm.feed(data[1:], counters) == [make_frame()]
        assert counters == {"resync_bytes": 4}


class TestIngestState:
    # a frame's arrival is the delivery that returns it: the writers
    # stamp every frame a delivery returns with that delivery's instant
    def test_split_frame_comes_back_from_the_second_delivery(self):
        ingest, asm = IngestState(), FrameAssembler()
        data = wire()
        assert ingest.deliver(asm, data[:27]) == []
        assert ingest.deliver(asm, data[27:]) == [make_frame()]
        assert ingest.counters == {"rows": 1}

    def test_whole_frame_comes_back_from_its_delivery(self):
        assert IngestState().deliver(FrameAssembler(), wire()) == [make_frame()]

    def test_two_frames_one_delivery_come_back_together_in_order(self):
        frames = IngestState().deliver(FrameAssembler(), wire(frame_seq=2) + wire(frame_seq=1))
        assert frames == [make_frame(frame_seq=2), make_frame(frame_seq=1)]

    def test_integrity_events_reach_the_run_counters(self):
        corrupt = bytearray(wire(frame_seq=1))
        corrupt[30] ^= 0x01
        ingest = IngestState()
        frames = ingest.deliver(FrameAssembler(), b"junk" + bytes(corrupt) + wire(frame_seq=2))
        assert frames == [make_frame(frame_seq=2)]
        assert ingest.counters == {"resync_bytes": 4 + 55, "crc_errors": 1, "rows": 1}

    def test_duplicate_frame_keeps_first(self):
        ingest, asm = IngestState(), FrameAssembler()
        first = ingest.deliver(asm, wire())
        again = ingest.deliver(asm, wire())
        assert len(first) == 1 and again == []
        assert ingest.counters["duplicate_frames"] == 1
        assert ingest.counters["rows"] == 1

    def test_non_finite_frame_makes_no_row_but_its_seq_is_seen(self, caplog):
        # CRC-valid, so it decodes; NaN has no JSON spelling
        body = struct.pack(">HHIQdddB12x", MAGIC, 1, 1, 1_700_000_000_000, 50.0, math.nan, 0.0, 0)
        ingest, asm = IngestState(), FrameAssembler()
        assert ingest.deliver(asm, body + struct.pack(">H", crc16(body))) == []
        assert (ingest.counters["nonfinite_rows"], ingest.counters["rows"]) == (1, 0)
        assert caplog.messages == ["device 1: dropping 1 frame(s) with non-finite values"]
        assert ingest.deliver(asm, wire(frame_seq=1)) == []  # a finite copy of seq 1
        assert ingest.counters["duplicate_frames"] == 1
        assert (ingest.counters["nonfinite_rows"], ingest.counters["rows"]) == (1, 0)

    def test_duplicate_detection_spans_connections(self):
        # same frame resent on a new connection after a reconnect
        ingest = IngestState()
        ingest.deliver(FrameAssembler(), wire())
        again = ingest.deliver(FrameAssembler(), wire())
        assert again == []
        assert ingest.counters["duplicate_frames"] == 1

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 2), st.integers(1, 12)), max_size=60),
        st.booleans(),
    )
    def test_dedup_matches_a_reference_set(self, arrivals, in_order):
        # random draws repeat numbers and leave holes; sorted, most
        # arrivals extend a run, shuffled, most go through bisect
        if in_order:
            arrivals.sort()
        ingest = IngestState()
        assemblers = (FrameAssembler(), FrameAssembler())  # two connections
        reference = set()
        for k, (dev, seq) in enumerate(arrivals):
            frames = ingest.deliver(assemblers[k % 2], wire(device_id=dev, frame_seq=seq))
            assert frames == ([] if (dev, seq) in reference else [make_frame(dev, seq)])
            reference.add((dev, seq))
        assert ingest.counters["rows"] == len(reference)
        assert ingest.counters["duplicate_frames"] == len(arrivals) - len(reference)
        for dev, runs in ingest.seen.items():
            members = {seq for d, seq in reference if d == dev}
            bounds = sorted(zip(runs.starts, runs.ends))
            assert bounds == list(zip(runs.starts, runs.ends))
            # disjoint, and apart by at least one hole, so each run is a
            # maximal stretch of the reference set
            assert all(end < start for (_, end), (start, _) in zip(bounds, bounds[1:]))
            assert {n for start, end in bounds for n in range(start, end)} == members

    def test_seq_runs_merge_across_a_filled_hole(self):
        runs = SeqRuns()
        for n in (5, 6, 8, 9, 7, 1):
            assert runs.add(n)
        assert (runs.starts, runs.ends) == ([1, 5], [2, 10])
        assert not runs.add(7)

    def test_row_carries_the_frame_s_fields_and_its_arrival(self):
        (frame,) = IngestState().deliver(FrameAssembler(), wire(device_id=7, frame_seq=3))
        row = MeasurementRow.from_frame(frame, 1000.0)
        assert row == (7, 3, 1_700_000_000_000, 1000.0, 50.0, 1.0, 0.0, 0)
        assert row.frame_timestamp == frame.utc_timestamp

    def test_row_is_immutable(self):
        row = MeasurementRow.from_frame(make_frame(), 1000.0)
        with pytest.raises(AttributeError):
            row.arrival_time = 0.0


class TestLogWriter:
    def test_header_records_trailer_shape(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        writer = LogWriter(path, log_header("capture", "sim", "s1", 0, 60, 0.0))
        record = CaptureRecord(
            wall_time=101.146,
            device_id=1,
            direction="UPLINK",
            seq_range=(1, 56),
            payload_bytes=55,
            header_bytes=40,
            retransmission_class="FIRST",
            frame_complete=None,
        )
        writer.write(dumps(record.to_json()))
        writer.close({"records": 1})
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        head = json.loads(lines[0])["header"]
        assert head["log"] == "capture" and head["mode"] == "sim"
        body = json.loads(lines[1])
        assert body["seq_range"] == [1, 56]
        assert body["retransmission_class"] == "FIRST"
        assert json.loads(lines[2]) == {"integrity": {"records": 1}}

    def test_empty_log_is_header_plus_trailer(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        LogWriter(path, log_header("measurements", "live", None, 0, None, 10.0)).close({})
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert "header" in json.loads(lines[0])

    @pytest.mark.parametrize("wall_time", [1000.125, 1_700_000_000_101.146, 0.5])
    @pytest.mark.parametrize("device_id", [7, None])
    @pytest.mark.parametrize("n_rows", [0, 1, 2])
    def test_capture_line_is_the_encoded_record(self, wall_time, device_id, n_rows, tmp_path):
        # the frames a copy completes arrive with it, at its wall time
        frames = IngestState().deliver(FrameAssembler(), b"".join(wire(frame_seq=k) for k in range(1, n_rows + 1)))
        record = CaptureRecord(
            wall_time=wall_time,
            device_id=device_id,
            direction="ACK",
            seq_range=(1, 1 + 55 * n_rows),
            payload_bytes=55 * n_rows,
            header_bytes=40,
            retransmission_class="RTO_RETX",
            frame_complete=[
                {"frame_seq": f.frame_seq, "frame_timestamp": f.utc_timestamp, "arrival_time_of_last_byte": wall_time}
                for f in frames
            ] or None,
        )
        capture, rows = logged(tmp_path, wall_time, device_id, "ACK", 1, 1 + 55 * n_rows, 55 * n_rows, 40,
                               "RTO_RETX", frames)
        counts = {"ack_copies": 1, "dropped_copies": 0, "outage_rsts": 0, "records": 1, "uplink_copies": 0}
        assert capture == [dumps(record.to_json()), dumps({"integrity": counts})]
        assert rows[:-1] == [dumps(MeasurementRow.from_frame(f, wall_time).to_json()) for f in frames]

    @pytest.mark.parametrize("device_id", [7, None])
    def test_capture_line_of_a_dropped_copy_is_the_encoded_record(self, device_id, tmp_path):
        record = CaptureRecord(None, device_id, "UPLINK", (1, 56), 55, 40, "FIRST", None)
        capture, rows = logged(tmp_path, None, device_id, "UPLINK", 1, 56, 55, 40, "FIRST", None)
        counts = {"ack_copies": 0, "dropped_copies": 1, "outage_rsts": 0, "records": 1, "uplink_copies": 1}
        assert capture == [dumps(record.to_json()), dumps({"integrity": counts})]
        assert rows == [dumps({"integrity": {"rows": 0}})]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 65_535),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**64 - 1),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(0, 255),
        st.integers(0, 2**42 * 1000).map(lambda us: us / 1000.0),
    )
    def test_measurement_line_is_the_encoded_row(self, tmp_path_factory, device_id, seq, ts, freq, vmag, vangle,
                                                 status, arrival):
        frame = FdrFrame(device_id, seq, ts, freq, vmag, vangle, status)
        _, rows = logged(tmp_path_factory.mktemp("logs"), arrival, device_id, "UPLINK", 0, 55, 55, 0, "FIRST", [frame])
        assert rows[0] == dumps(MeasurementRow.from_frame(frame, arrival).to_json())

    def test_write_takes_an_encoded_line_as_is(self, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = LogWriter(path, {"k": 1})
        writer.write('{"already":"encoded"}')
        writer.write('{"already":"encoded"}\n{"already":"encoded"}')  # a block of lines
        writer.close()
        assert path.read_text().splitlines()[1:] == ['{"already":"encoded"}'] * 3

    def test_header_that_cannot_be_written_closes_the_file(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
                LogWriter(tmp_path / "log.jsonl", {"note": math.nan})  # a key the analyzer does not read
            gc.collect()
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key,value", [("skew_bound_ms", math.nan), ("t_fdr_ms", 1e300), ("t_dcs_ms", -2**63),
                                           ("duration_s", 2.5), ("epoch_utc_ms", "0")])
    def test_header_the_analyzer_refuses_opens_no_file(self, key, value, tmp_path):
        with pytest.raises(ValueError, match=f"^{key} must be "):
            LogWriter(tmp_path / "log.jsonl", {key: value})
        assert list(tmp_path.iterdir()) == []


class TestLiveDcsServer:
    def _send_frames(self, port, payloads):
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            for payload in payloads:
                sock.sendall(payload)
            time.sleep(0.3)  # let the handler drain before EOF

    def test_ingests_frames_from_real_socket(self, tmp_path):
        server = LiveDcsServer(out_dir=tmp_path, max_conns=4)
        server.start()
        try:
            self._send_frames(server.port, [wire(frame_seq=1), wire(frame_seq=2)])
            time.sleep(0.3)
        finally:
            server.stop()
        lines = [json.loads(l) for l in (tmp_path / "measurements.jsonl").read_text().splitlines()]
        rows = [l for l in lines if "header" not in l and "integrity" not in l]
        assert [r["frame_seq"] for r in rows] == [1, 2]
        assert lines[-1]["integrity"]["rows"] == 2
        cap_lines = [
            json.loads(l) for l in (tmp_path / "capture.jsonl").read_text().splitlines()
        ]
        recs = [l for l in cap_lines if "header" not in l and "integrity" not in l]
        assert sum(r["payload_bytes"] for r in recs) == 110
        assert all(r["direction"] == "UPLINK" for r in recs)
        assert all(r["header_bytes"] == 0 for r in recs)

    def test_non_finite_row_is_dropped_and_ingest_goes_on(self, tmp_path):
        # CRC-valid, so it decodes; NaN has no JSON spelling
        body = struct.pack(">HHIQdddB", MAGIC, 1, 1, 1_700_000_000_000, math.nan, 1.0, 0.0, 0)
        body += bytes(12)
        nan_frame = body + struct.pack(">H", crc16(body))
        server = LiveDcsServer(out_dir=tmp_path, max_conns=4)
        server.start()
        try:
            self._send_frames(server.port, [nan_frame, wire(frame_seq=2)])
            time.sleep(0.3)
        finally:
            server.stop()
        lines = [json.loads(l) for l in (tmp_path / "measurements.jsonl").read_text().splitlines()]
        assert [r["frame_seq"] for r in lines[1:-1]] == [2]
        assert lines[-1]["integrity"]["rows"] == 1
        assert lines[-1]["integrity"]["nonfinite_rows"] == 1
        cap_lines = [json.loads(l) for l in (tmp_path / "capture.jsonl").read_text().splitlines()]
        completed = [e["frame_seq"] for r in cap_lines[1:-1] for e in r["frame_complete"] or ()]
        assert completed == [2]
        assert cap_lines[-1]["integrity"]["records"] == len(cap_lines) - 2

    def test_trailers_list_integrity_counts_sorted_by_name(self, tmp_path):
        # how recv splits these bytes decides which event is counted
        # first, and so the order of the counters in memory
        corrupt = bytearray(wire(frame_seq=1))
        corrupt[30] ^= 0x01  # breaks the CRC, keeps the magic
        server = LiveDcsServer(out_dir=tmp_path, max_conns=4)
        server.start()
        try:
            self._send_frames(server.port, [b"junk", bytes(corrupt), wire(frame_seq=2)])
            time.sleep(0.3)
        finally:
            server.stop()
        capture, rows = ((tmp_path / name).read_text().splitlines() for name in ("capture.jsonl", "measurements.jsonl"))
        captured, ingested = (json.loads(lines[-1])["integrity"] for lines in (capture, rows))
        for integrity in captured, ingested:
            assert list(integrity) == sorted(integrity)
        # the capture trailer counts the copies, as a simulated one does,
        # and the connection events; the measurements trailer the ingest
        assert captured == {"ack_copies": 0, "dropped_connections": 0, "dropped_copies": 0,
                            "records": len(capture) - 2, "refused_connections": 0, "uplink_copies": len(capture) - 2}
        assert ingested == {"crc_errors": 1, "resync_bytes": 4 + 55, "rows": 1}

    def test_closed_connections_leave_no_ingest_state(self, tmp_path):
        server = LiveDcsServer(out_dir=tmp_path)
        server.start()
        try:
            for seq in range(1, 51):  # one short connection after another
                with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                    sock.sendall(wire(frame_seq=seq))
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and (
                server.ingest.counters["rows"] < 50 or server._conns
            ):
                time.sleep(0.05)
            assert server._conns == {}
        finally:
            server.stop()
        lines = [json.loads(l) for l in (tmp_path / "measurements.jsonl").read_text().splitlines()]
        # handlers of back-to-back connections may overlap
        assert sorted(r["frame_seq"] for r in lines[1:-1]) == list(range(1, 51))
        assert lines[-1]["integrity"]["rows"] == 50

    def test_half_frame_logs_a_null_device_then_the_id(self, tmp_path, capsys):
        data = wire(device_id=4)
        server = LiveDcsServer(out_dir=tmp_path)
        server.start()
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                sock.sendall(data[:20])
                time.sleep(0.3)  # the first 20 bytes arrive on their own
                sock.sendall(data[20:])
                time.sleep(0.3)
        finally:
            server.stop()
        path = tmp_path / "capture.jsonl"
        lines = path.read_text().splitlines()[1:-1]
        assert [json.loads(line)["device_id"] for line in lines] == [None, 4]
        assert '"device_id":null,' in lines[0]
        capture = load_capture(path)
        assert capture.skipped_lines == 0
        assert capture.integrity_problems() == []
        assert capture.counts["records"] == 2
        assert list(capture.slot_table().wire_bytes) == [None, 4]
        assert capture.slot_table().devices == [4]
        # the trailer vouches for the copies, so one edited count is caught
        head, *records, trailer = path.read_text().splitlines()
        assert trailer.count('"uplink_copies":2') == 1
        path.write_text("\n".join([head, *records, trailer.replace('"uplink_copies":2', '"uplink_copies":3')]) + "\n")
        assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "report")]) == 1
        assert "trailer counts uplink_copies=3, parsed 2" in capsys.readouterr().err

    def test_connections_start_no_thread(self, tmp_path, monkeypatch):
        server = LiveDcsServer(out_dir=tmp_path)
        server.start()
        socks = []
        try:
            monkeypatch.setattr(threading.Thread, "start", _no_thread)
            for seq in range(1, 51):  # all 50 open at once
                sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
                socks.append(sock)
                sock.sendall(wire(device_id=seq))
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and server.ingest.counters["rows"] < 50:
                time.sleep(0.05)
            assert len(server._conns) == 50
        finally:
            for sock in socks:
                sock.close()
            server.stop()
        lines = [json.loads(l) for l in (tmp_path / "measurements.jsonl").read_text().splitlines()]
        assert sorted(r["device_id"] for r in lines[1:-1]) == list(range(1, 51))
        assert lines[-1]["integrity"]["rows"] == 50

    def test_one_accept_drains_the_listen_queue(self, tmp_path, monkeypatch):
        # a burst of dials, taken one per select wake-up, overflowed
        # Python's default backlog of 128: the kernel dropped a SYN and
        # that dial waited out the 1 s retransmission timeout
        backlogs, create_server = [], socket.create_server

        def recorded(*args, backlog=None, **kwargs):
            backlogs.append(backlog)
            return create_server(*args, backlog=backlog, **kwargs)

        monkeypatch.setattr(socket, "create_server", recorded)
        monkeypatch.setattr(threading.Thread, "start", lambda thread: None)  # the loop stays still
        server = LiveDcsServer(out_dir=tmp_path, max_conns=32)
        server.start()
        socks = []
        try:
            for _ in range(40):  # all queued in the kernel, none accepted yet
                socks.append(socket.create_connection(("127.0.0.1", server.port), timeout=5.0))
            server._accept()
            assert len(server._conns) == 32
            assert server.logs.events["refused_connections"] == 8
            assert backlogs == [socket.SOMAXCONN]
        finally:
            for sock in socks:
                sock.close()
            server._stop.set()
            server._run()  # stopped: closes the listener and every connection
            server.logs.close(server.ingest.counters)

    def test_max_conns_refuses_extra_connection(self, tmp_path):
        server = LiveDcsServer(out_dir=tmp_path, max_conns=1)
        server.start()
        try:
            keeper = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
            time.sleep(0.3)  # let the first handler register
            extra = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
            # the refused socket gets closed on us: recv sees EOF
            extra.settimeout(5.0)
            assert extra.recv(1) == b""
            extra.close()
            keeper.close()
            time.sleep(0.3)
        finally:
            server.stop()
        trailer = json.loads(
            (tmp_path / "capture.jsonl").read_text().splitlines()[-1]
        )
        assert trailer["integrity"]["refused_connections"] == 1
        assert "refused_connections" not in json.loads((tmp_path / "measurements.jsonl").read_text().splitlines()[-1])
