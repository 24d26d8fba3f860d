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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wamsbench.analyzer import load_capture
from wamsbench.dcs import (
    CaptureRecord,
    FrameAssembler,
    IngestState,
    LiveDcsServer,
    LogWriter,
    MeasurementRow,
    SeqRuns,
    capture_line,
    dumps,
    frame_complete_entry,
    log_header,
    measurement_line,
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


class TestFrameAssembler:
    def test_whole_frame_decodes(self):
        asm = FrameAssembler()
        frames, events = asm.feed(wire())
        assert len(frames) == 1
        assert frames[0].device_id == 1
        assert asm.device_id == 1
        assert not events

    def test_partial_then_rest(self):
        asm = FrameAssembler()
        data = wire()
        frames, _ = asm.feed(data[:27])
        assert frames == []
        frames, _ = asm.feed(data[27:])
        assert len(frames) == 1

    def test_byte_by_byte_completes_on_final_byte(self):
        asm = FrameAssembler()
        data = wire()
        for b in data[:-1]:
            frames, _ = asm.feed(bytes([b]))
            assert frames == []
        frames, _ = asm.feed(data[-1:])
        assert len(frames) == 1

    def test_two_frames_one_chunk(self):
        asm = FrameAssembler()
        frames, _ = asm.feed(wire(frame_seq=1) + wire(frame_seq=2))
        assert [f.frame_seq for f in frames] == [1, 2]

    def test_resync_over_leading_garbage(self):
        asm = FrameAssembler()
        frames, events = asm.feed(b"\x00\xffjunk" + wire())
        assert len(frames) == 1
        assert events["resync_bytes"] == 6

    def test_corrupt_frame_skipped_clean_frame_recovered(self):
        corrupt = bytearray(wire(frame_seq=1))
        corrupt[30] ^= 0x01  # breaks the CRC, keeps the magic
        asm = FrameAssembler()
        frames, events = asm.feed(bytes(corrupt) + wire(frame_seq=2))
        assert [f.frame_seq for f in frames] == [2]
        assert events["crc_errors"] == 1
        assert events["resync_bytes"] == 55

    @pytest.mark.parametrize("corrupt_at", [None, 30, 54])
    def test_whole_frame_fast_path_matches_the_scan(self, corrupt_at):
        data = bytearray(wire())
        if corrupt_at is not None:
            data[corrupt_at] ^= 0x01
        data = bytes(data)
        whole = FrameAssembler()
        frames, events = whole.feed(data)
        split = FrameAssembler()
        split.feed(data[:1])  # a lone first magic byte is only buffered
        split_frames, split_events = split.feed(data[1:])
        assert frames == split_frames
        assert events == split_events
        assert bytes(whole.buf) == bytes(split.buf)
        assert (whole.device_id, whole.junk_since_frame) == (
            split.device_id,
            split.junk_since_frame,
        )

    def test_magic_split_across_feeds(self):
        asm = FrameAssembler()
        data = wire()
        frames, _ = asm.feed(b"junk" + data[:1])
        assert frames == []
        frames, _ = asm.feed(data[1:])
        assert len(frames) == 1


class TestIngestState:
    def test_split_frame_arrival_is_second_segment_time(self):
        ingest = IngestState()
        data = wire()
        assert ingest.deliver("c1", data[:27], 1000.0) == []
        rows = ingest.deliver("c1", data[27:], 1002.5)
        assert len(rows) == 1
        assert rows[0].arrival_time == 1002.5

    def test_whole_frame_arrival_is_segment_time(self):
        ingest = IngestState()
        rows = ingest.deliver("c1", wire(), 1001.0)
        assert rows[0].arrival_time == 1001.0

    def test_two_frames_one_segment_share_arrival(self):
        ingest = IngestState()
        rows = ingest.deliver("c1", wire(frame_seq=1) + wire(frame_seq=2), 2000.0)
        assert [r.frame_seq for r in rows] == [1, 2]
        assert [r.arrival_time for r in rows] == [2000.0, 2000.0]

    def test_duplicate_frame_keeps_first(self):
        ingest = IngestState()
        first = ingest.deliver("c1", wire(), 1000.0)
        again = ingest.deliver("c1", wire(), 1500.0)
        assert len(first) == 1 and again == []
        assert ingest.counters["duplicate_frames"] == 1
        assert ingest.counters["rows"] == 1

    def test_duplicate_detection_spans_connections(self):
        # same frame resent on a new connection after a reconnect
        ingest = IngestState()
        ingest.deliver("c1", wire(), 1000.0)
        again = ingest.deliver("c2", wire(), 1200.0)
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
        reference = set()
        for k, (dev, seq) in enumerate(arrivals):
            rows = ingest.deliver(f"c{k % 2}", wire(device_id=dev, frame_seq=seq), float(k))
            assert [(r.device_id, r.frame_seq, r.arrival_time) for r in rows] == (
                [] if (dev, seq) in reference else [(dev, seq, float(k))]
            )
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

    def test_row_carries_decoded_fields(self):
        ingest = IngestState()
        (row,) = ingest.deliver("c1", wire(device_id=7, frame_seq=3), 1000.0)
        assert row.device_id == 7
        assert row.frame_seq == 3
        assert row.frame_timestamp == 1_700_000_000_000
        assert row.frequency == 50.0
        assert row.status == 0

    def test_row_is_immutable(self):
        (row,) = IngestState().deliver("c1", wire(), 1000.0)
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
        writer.write(record.to_json())
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
    def test_capture_line_is_the_encoded_record(self, wall_time, device_id, n_rows):
        # the rows a copy completes arrive with it, at its wall time
        rows = IngestState().deliver(
            "c1", b"".join(wire(frame_seq=k) for k in range(1, n_rows + 1)), wall_time
        )
        record = CaptureRecord(
            wall_time=wall_time,
            device_id=device_id,
            direction="ACK",
            seq_range=(1, 1 + 55 * n_rows),
            payload_bytes=55 * n_rows,
            header_bytes=40,
            retransmission_class="RTO_RETX",
            frame_complete=[frame_complete_entry(r) for r in rows] or None,
        )
        line = capture_line(repr(wall_time), device_id, "ACK", 1, 1 + 55 * n_rows, 55 * n_rows, 40, "RTO_RETX", rows)
        assert line == dumps(record.to_json())

    @pytest.mark.parametrize("device_id", [7, None])
    def test_capture_line_of_a_dropped_copy_is_the_encoded_record(self, device_id):
        record = CaptureRecord(None, device_id, "UPLINK", (1, 56), 55, 40, "FIRST", None)
        assert capture_line("null", device_id, "UPLINK", 1, 56, 55, 40, "FIRST") == dumps(record.to_json())

    def test_measurement_line_is_the_encoded_row(self):
        row = MeasurementRow(3, 9, 1_700_000_000_900, 1_700_000_001_012.345, 49.98765432101, 1.0, -179.5, 2)
        assert measurement_line(row, repr(row.arrival_time)) == dumps(row.to_json())

    def test_write_takes_an_encoded_line_as_is(self, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = LogWriter(path, {"k": 1})
        writer.write('{"already":"encoded"}')
        writer.write({"already": "encoded"})
        writer.write('{"already":"encoded"}\n{"already":"encoded"}')  # a block of lines
        writer.close()
        assert path.read_text().splitlines()[1:] == ['{"already":"encoded"}'] * 4

    def test_header_that_cannot_be_written_closes_the_file(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
                LogWriter(tmp_path / "log.jsonl", {"note": math.nan})  # a key the analyzer does not read
            gc.collect()
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("key,value", [("skew_bound_ms", math.nan), ("t_fdr_ms", 1e300), ("t_dcs_ms", -2**63),
                                           ("duration_s", 2.5), ("epoch_utc_ms", "0")])
    def test_header_the_analyzer_refuses_opens_no_file(self, key, value, tmp_path):
        with pytest.raises(ValueError, match=f"^{key} must be "):
            LogWriter(tmp_path / "log.jsonl", {key: value})
        assert list(tmp_path.iterdir()) == []

    def test_frame_complete_entry_shape(self):
        ingest = IngestState()
        (row,) = ingest.deliver("c1", wire(), 1000.25)
        entry = frame_complete_entry(row)
        assert entry == {
            "frame_seq": 1,
            "frame_timestamp": 1_700_000_000_000,
            "arrival_time_of_last_byte": 1000.25,
        }


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

    def test_closed_connections_leave_no_ingest_state(self, tmp_path):
        server = LiveDcsServer(out_dir=tmp_path)
        server.start()
        try:
            for seq in range(1, 51):  # one short connection after another
                with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                    sock.sendall(wire(frame_seq=seq))
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and (
                server.ingest.counters["rows"] < 50 or server.ingest.assemblers or server._offsets
            ):
                time.sleep(0.05)
            assert server.ingest.assemblers == {}
            assert server._offsets == {}
        finally:
            server.stop()
        lines = [json.loads(l) for l in (tmp_path / "measurements.jsonl").read_text().splitlines()]
        # handlers of back-to-back connections may overlap
        assert sorted(r["frame_seq"] for r in lines[1:-1]) == list(range(1, 51))
        assert lines[-1]["integrity"]["rows"] == 50

    def test_half_frame_logs_a_null_device_then_the_id(self, tmp_path):
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
            assert len(server._offsets) == 50
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
            assert len(server._offsets) == 32
            assert server.ingest.counters["refused_connections"] == 8
            assert backlogs == [socket.SOMAXCONN]
        finally:
            for sock in socks:
                sock.close()
            server._stop.set()
            server._run()  # stopped: closes the listener and every connection
            server._capture.close(server.ingest.counters)
            server._rows.close(server.ingest.counters)

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
