"""Data concentrator: frame reassembly, log formats, and the live server.

The concentrator side is deliberately dumb: it sees an in-order byte
stream per connection (the transport already fixed ordering), carves it
into 55-byte frames, stamps each completed frame with the arrival time
of its final byte, and appends everything to two JSON-lines logs:

  capture.jsonl       one record per wire event (CaptureRecord)
  measurements.jsonl  one record per decoded frame (MeasurementRow)

Both logs start with a ``{"header": ...}`` line carrying run metadata
and end with an ``{"integrity": ...}`` trailer of counters, so a log is
self-describing and an analyzer can detect truncation.  All times are
UTC milliseconds; fractional digits carry microsecond precision.

A frame that arrives twice (retransmitted after a late ACK, or resent
across a reconnect) produces one row only: first arrival wins, the
duplicate is counted.  Corrupt bytes never kill a connection's stream;
the assembler scans forward to the next frame boundary and counts what
it skipped.
"""

import json
import logging
import math
import selectors
import socket
import threading
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple, Optional

from .analyzer import CLASSES, DIRECTIONS, check_header
from .frame import (
    FRAME_LEN,
    MAGIC_BYTES,
    ChecksumError,
    FdrFrame,
    FrameDecodeError,
    decode_frame,
)

log = logging.getLogger(__name__)

# a connection that produced this much junk without one valid frame is
# not speaking the protocol and gets dropped
JUNK_DROP_BYTES = 65_536

# what FrameAssembler.feed reports for a delivery without integrity
# events: one shared read-only Counter, so missing keys still read 0
_NO_EVENTS = MappingProxyType(Counter())


_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def dumps(obj) -> str:
    """Deterministic one-line JSON: fixed separators, insertion order."""
    return _ENCODER.encode(obj)


def ms(value: float) -> float:
    """Quantize a millisecond value to microsecond precision."""
    return round(value, 3)


class MeasurementRow(NamedTuple):
    device_id: int
    frame_seq: int
    frame_timestamp: int
    arrival_time: float
    frequency: float
    voltage_mag: float
    voltage_angle: float
    status: int

    @classmethod
    def from_frame(cls, frame: FdrFrame, arrival_ms: float) -> "MeasurementRow":
        """The row of ``frame`` arriving at ``arrival_ms``, a time already
        at microsecond precision (see ``ms``)."""
        device_id, frame_seq, utc, freq, vmag, vangle, status = frame
        return cls(device_id, frame_seq, utc, arrival_ms, freq, vmag, vangle, status)

    def to_json(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class CaptureRecord:
    """One wire event.

    wall_time is the arrival instant at the receiver, null for copies
    the channel dropped (they never arrived anywhere, but they consumed
    uplink bytes and the accounting must see them).  frame_complete
    lists every frame whose final byte was released to the application
    by this segment, each entry carrying the frame's own timestamp and
    the arrival time of its last byte.
    """

    wall_time: Optional[float]
    device_id: Optional[int]
    direction: str  # UPLINK or ACK
    seq_range: tuple
    payload_bytes: int
    header_bytes: int
    retransmission_class: str
    frame_complete: Optional[list]

    def to_json(self) -> dict:
        return {
            "wall_time": self.wall_time,
            "device_id": self.device_id,
            "direction": self.direction,
            "seq_range": list(self.seq_range),
            "payload_bytes": self.payload_bytes,
            "header_bytes": self.header_bytes,
            "retransmission_class": self.retransmission_class,
            "frame_complete": self.frame_complete,
        }


# the lines of MeasurementRow.to_json and CaptureRecord.to_json, spelled
# out for the writers' hot paths; %r or %s of an int or a finite float
# is exactly what dumps writes for it
_MEASUREMENT_LINE = (
    '{"device_id":%r,"frame_seq":%r,"frame_timestamp":%r,"arrival_time":%r,'
    '"frequency":%r,"voltage_mag":%r,"voltage_angle":%r,"status":%r}'
)
_CAPTURE_LINE = (
    '{"wall_time":%s,"device_id":%s,"direction":"%s","seq_range":[%r,%r],'
    '"payload_bytes":%r,"header_bytes":%r,"retransmission_class":"%s","frame_complete":%s}'
)
_FRAME_COMPLETE = '{"frame_seq":%r,"frame_timestamp":%r,"arrival_time_of_last_byte":%r}'


def measurement_line(row: MeasurementRow) -> str:
    """``dumps(row.to_json())`` for a row whose floats are finite, as
    every row decoded from an encoded frame is."""
    return _MEASUREMENT_LINE % row  # the line's fields are the row's, in order


def capture_line(
    wall_time: Optional[float],
    device_id: Optional[int],
    direction: str,
    seq_start: int,
    seq_end: int,
    payload_bytes: int,
    header_bytes: int,
    retransmission_class: str,
    rows: Optional[list] = None,
) -> str:
    """The encoded JSON line of the CaptureRecord with these fields,
    without building the record; ``rows`` are the MeasurementRows that
    make up its frame_complete list."""
    if rows:
        entries = ",".join(
            # r[1:4] is (frame_seq, frame_timestamp, arrival_time)
            [_FRAME_COMPLETE % r[1:4] for r in rows]
        )
        frame_complete = f"[{entries}]"
    else:
        frame_complete = "null"
    return _CAPTURE_LINE % (
        "null" if wall_time is None else repr(wall_time),
        "null" if device_id is None else device_id,
        direction,
        seq_start,
        seq_end,
        payload_bytes,
        header_bytes,
        retransmission_class,
        frame_complete,
    )


def frame_complete_entry(row: MeasurementRow) -> dict:
    return {
        "frame_seq": row.frame_seq,
        "frame_timestamp": row.frame_timestamp,
        "arrival_time_of_last_byte": row.arrival_time,
    }


def log_header(
    kind: str,
    mode: str,
    seed,
    epoch_utc_ms: int,
    duration_s: Optional[int],
    skew_bound_ms: float,
) -> dict:
    return {
        "log": kind,
        "mode": mode,
        "seed": seed,
        "epoch_utc_ms": epoch_utc_ms,
        "duration_s": duration_s,
        "skew_bound_ms": skew_bound_ms,
    }


class LogWriter:
    """Append-only JSON-lines file with a header line and a trailer.

    ValueError, before the file is opened, for a header the analyzer
    would refuse to load."""

    def __init__(self, path, header: dict):
        check_header(header)
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8", newline="\n")
        try:
            self.write({"header": header})
        except BaseException:
            self._fh.close()
            raise

    def write(self, obj) -> None:
        """Append one line: ``obj`` JSON-encoded, or as is when it is a
        str that already holds one encoded JSON value."""
        self._fh.write((obj if obj.__class__ is str else dumps(obj)) + "\n")

    def close(self, integrity: Optional[dict] = None) -> None:
        if integrity is not None:
            self.write({"integrity": dict(integrity)})
        self._fh.close()


class FrameAssembler:
    """Carves one connection's in-order byte stream into frames."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self.device_id: Optional[int] = None
        self.junk_since_frame = 0

    def feed(self, data: bytes) -> tuple:
        """Returns (decoded frames, Counter of integrity events); the
        counts are read-only when the delivery had none."""
        if not self.buf and len(data) == FRAME_LEN and data.startswith(MAGIC_BYTES):
            # the usual case: exactly one whole frame and nothing buffered
            try:
                frame = decode_frame(data)
            except FrameDecodeError:
                pass  # the scan below counts and skips it
            else:
                self.device_id = frame.device_id
                self.junk_since_frame = 0
                return [frame], _NO_EVENTS
        events: Counter = Counter()
        self.buf.extend(data)
        frames = []
        while True:
            idx = self.buf.find(MAGIC_BYTES)
            if idx < 0:
                # nothing frameable; keep a trailing half-magic byte
                keep = 1 if self.buf[-1:] == MAGIC_BYTES[:1] else 0
                junk = len(self.buf) - keep
                if junk:
                    events["resync_bytes"] += junk
                    del self.buf[:junk]
                break
            if idx > 0:
                events["resync_bytes"] += idx
                del self.buf[:idx]
            if len(self.buf) < FRAME_LEN:
                break
            try:
                frame = decode_frame(bytes(self.buf[:FRAME_LEN]))
            except ChecksumError:
                events["crc_errors"] += 1
                events["resync_bytes"] += 1
                del self.buf[:1]  # step past this magic and rescan
                continue
            del self.buf[:FRAME_LEN]
            frames.append(frame)
            self.device_id = frame.device_id
        if frames:
            self.junk_since_frame = 0
        else:
            self.junk_since_frame += events["resync_bytes"]
        return frames, events


class SeqRuns:
    """A set of ints kept as sorted, disjoint runs [start, end) that
    merge when they touch, so it costs memory per hole, not per member.

    Adding the number after the highest member extends the last run;
    anything else goes through bisect.
    """

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts: list = []
        self.ends: list = []

    def add(self, n: int) -> bool:
        """Add n; False when it was a member already."""
        starts, ends = self.starts, self.ends
        if ends and n == ends[-1]:
            ends[-1] = n + 1
            return True
        i = bisect_right(starts, n)  # runs starting at or below n
        if i and n < ends[i - 1]:
            return False
        joins_below = i and ends[i - 1] == n
        joins_above = i < len(starts) and starts[i] == n + 1
        if joins_below and joins_above:
            ends[i - 1] = ends[i]
            del starts[i], ends[i]
        elif joins_below:
            ends[i - 1] = n + 1
        elif joins_above:
            starts[i] = n
        else:
            starts.insert(i, n)
            ends.insert(i, n + 1)
        return True


class IngestState:
    """Shared reassembly state for all connections of one run.

    Deduplication is global on (device_id, frame_seq): the first
    arrival produces the row, later copies only bump a counter.  Each
    device's seen frame numbers are SeqRuns, which frames arriving in
    order keep at one run.
    """

    def __init__(self) -> None:
        self.assemblers: dict = {}
        self.seen: dict = {}  # device_id -> SeqRuns of frame_seq
        self.counters: Counter = Counter()

    def assembler(self, conn_key) -> FrameAssembler:
        asm = self.assemblers.get(conn_key)
        if asm is None:
            asm = self.assemblers[conn_key] = FrameAssembler()
        return asm

    def deliver(self, conn_key, data: bytes, arrival_ms: float) -> list:
        """Feed bytes delivered in order on one connection at
        ``arrival_ms``, a time at microsecond precision; returns the
        MeasurementRows completed by this delivery."""
        asm = self.assembler(conn_key)
        frames, events = asm.feed(data)
        if events:
            self.counters.update(events)
        rows = []
        for frame in frames:
            runs = self.seen.get(frame.device_id)
            if runs is None:
                runs = self.seen[frame.device_id] = SeqRuns()
            if not runs.add(frame.frame_seq):
                self.counters["duplicate_frames"] += 1
                continue
            rows.append(MeasurementRow.from_frame(frame, arrival_ms))
        self.counters["rows"] += len(rows)
        return rows


def _finite_row(row: MeasurementRow) -> bool:
    return (
        math.isfinite(row.frequency)
        and math.isfinite(row.voltage_mag)
        and math.isfinite(row.voltage_angle)
    )


class LiveDcsServer:
    """Real-socket concentrator: N device connections, one thread.

    start() runs one selectors loop on its own thread.  The loop
    accepts, reads, ingests and writes both logs, so records and rows
    land in arrival order with no queue and no lock.  A connection the
    loop has not read yet backs up in the kernel's socket buffers, so
    memory stays bounded however far the writes fall behind.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        out_dir: str = ".",
        max_conns: int = 64,
        skew_bound_ms: float = 10.0,
        duration_s: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        self.out_dir = Path(out_dir)
        self.max_conns = max_conns
        self.skew_bound_ms = skew_bound_ms
        self.duration_s = duration_s
        self.ingest = IngestState()
        self._stop = threading.Event()
        self._next_id = 0
        self._offsets: dict = {}  # conn_id -> delivered byte count, per open connection
        self._listener = None
        self._selector = None
        self._loop = None
        self._capture = None
        self._rows = None

    def start(self) -> None:
        """Bind, then open both logs, so a port that cannot be bound
        leaves an earlier run's logs as they were."""
        self._listener = socket.create_server((self.host, self.port))
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            epoch = round(time.time() * 1000)
            args = ("live", None, epoch, self.duration_s, self.skew_bound_ms)
            self._capture = LogWriter(self.out_dir / "capture.jsonl", log_header("capture", *args))
            self._rows = LogWriter(self.out_dir / "measurements.jsonl", log_header("measurements", *args))
        except BaseException:
            if self._capture is not None:
                self._capture.close()
            self._listener.close()
            raise
        self.port = self._listener.getsockname()[1]
        # a peer that gives up between select and accept must not block the loop
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._loop = threading.Thread(target=self._run, daemon=True)
        self._loop.start()
        log.info("dcs listening on %s:%d", self.host, self.port)

    def stop(self) -> None:
        self._stop.set()
        self._loop.join(timeout=10.0)
        self._capture.close(self.ingest.counters)
        self._rows.close(self.ingest.counters)

    # -- the loop ----------------------------------------------------------

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                for key, _ in self._selector.select(timeout=0.2):
                    if key.fileobj is self._listener:
                        self._accept()
                    else:
                        self._read(key.fileobj, key.data)
        finally:
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._selector.close()

    def _accept(self) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        if len(self._offsets) >= self.max_conns:
            log.warning("refusing connection from %s: at max_conns", addr)
            self.ingest.counters["refused_connections"] += 1
            sock.close()
            return
        self._next_id += 1
        self._offsets[self._next_id] = 0
        self._selector.register(sock, selectors.EVENT_READ, self._next_id)

    def _close(self, sock: socket.socket, conn_id: int) -> None:
        self._selector.unregister(sock)
        sock.close()
        self.ingest.assemblers.pop(conn_id, None)
        del self._offsets[conn_id]

    def _read(self, sock: socket.socket, conn_id: int) -> None:
        try:
            data = sock.recv(4096)  # selected as readable: returns at once
        except OSError:
            data = b""
        if not data:
            self._close(sock, conn_id)
            return
        arrival = ms(time.time() * 1000.0)
        rows = self.ingest.deliver(conn_id, data, arrival)
        finite = [r for r in rows if _finite_row(r)]
        if len(finite) < len(rows):
            # a CRC-valid frame can still carry NaN or inf, which no JSON
            # line may hold; such a row is never logged and never counted
            # as one
            bad = len(rows) - len(finite)
            log.warning("conn %d: dropping %d row(s) with non-finite values", conn_id, bad)
            self.ingest.counters["nonfinite_rows"] += bad
            self.ingest.counters["rows"] -= bad
            rows = finite
        asm = self.ingest.assemblers[conn_id]
        start = self._offsets[conn_id]
        end = self._offsets[conn_id] = start + len(data)
        # no sniffer in live mode: payload bytes only, every copy an
        # UPLINK one of class FIRST
        self._capture.write(
            capture_line(arrival, asm.device_id, DIRECTIONS[0], start, end, len(data), 0, CLASSES[0], rows)
        )
        self.ingest.counters["records"] += 1
        for row in rows:
            self._rows.write(measurement_line(row))
        if asm.junk_since_frame > JUNK_DROP_BYTES:
            log.warning("conn %d: dropping malformed stream", conn_id)
            self.ingest.counters["dropped_connections"] += 1
            self._close(sock, conn_id)
