"""Data concentrator: frame reassembly, log formats, and the live server.

The concentrator side is deliberately dumb: it sees an in-order byte
stream per connection (the transport already fixed ordering), carves it
into 55-byte frames, stamps each completed frame with the arrival time
of its final byte, and appends everything to two JSON-lines logs:

  capture.jsonl       one record per wire event (CaptureRecord)
  measurements.jsonl  one record per decoded frame (MeasurementRow)

Both logs start with a ``{"header": ...}`` line carrying run metadata
and end with an ``{"integrity": ...}`` trailer of counters, so a log is
self-describing and an analyzer can detect truncation.  ``RunLogs``
writes every line of both, for the simulator and the live server alike.
All times are UTC milliseconds; fractional digits carry microsecond
precision.

A frame that arrives twice (retransmitted after a late ACK, or resent
across a reconnect) produces one row only: first arrival wins, the
duplicate is counted.  Corrupt bytes never kill a connection's stream;
the assembler scans forward to the next frame boundary and counts what
it skipped.
"""

import json
import logging
import threading
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
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


_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def dumps(obj) -> str:
    """Deterministic one-line JSON: fixed separators, insertion order."""
    return _ENCODER.encode(obj)


def ms(value: float) -> float:
    """Quantize a millisecond value to microsecond precision."""
    return round(value, 3)


class MeasurementRow(NamedTuple):
    """The schema of a measurements.jsonl line; see RunLogs.write."""

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
# out for RunLogs.write, the one place that fills them; %r or %s of an
# int or a finite float is exactly what dumps writes for it.  An arrival
# instant comes in as its repr, formatted once for every line that
# carries it.
_MEASUREMENT_LINE = (
    '{"device_id":%r,"frame_seq":%r,"frame_timestamp":%r,"arrival_time":%s,'
    '"frequency":%r,"voltage_mag":%r,"voltage_angle":%r,"status":%r}'
)
_CAPTURE_LINE = (
    '{"wall_time":%s,"device_id":%s,"direction":"%s","seq_range":[%r,%r],'
    '"payload_bytes":%r,"header_bytes":%r,"retransmission_class":"%s","frame_complete":%s}'
)
_FRAME_COMPLETE = '{"frame_seq":%r,"frame_timestamp":%r,"arrival_time_of_last_byte":%s}'

# the most lines RunLogs holds for a log before it hands them on as one
# block
BLOCK_LINES = 256

_UPLINK = DIRECTIONS[0]


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
    would refuse to load or JSON cannot encode."""

    def __init__(self, path, header: dict):
        check_header(header)
        line = dumps({"header": header})
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8", newline="\n")
        self.write(line)

    def write(self, text: str) -> None:
        """Append ``text``, one encoded JSON value or a block of them
        joined by newlines, and a newline; every byte either log holds
        passes through here."""
        self._fh.write(text + "\n")

    def close(self, integrity: Optional[dict] = None) -> None:
        """Write the trailer, its counters sorted by name, and close."""
        try:
            if integrity is not None:
                self.write(dumps({"integrity": dict(sorted(integrity.items()))}))
        finally:
            self._fh.close()


class RunLogs:
    """Both logs of one run, simulated or live, and the one writer of
    every line they hold.

    ``write`` logs one wire copy: its capture line and the measurement
    line of each frame it completed, all at the copy's wall time.  Lines
    gather into blocks of up to BLOCK_LINES, each handed to its
    LogWriter in one write; ``flush`` hands on what is held.  ``close``
    writes both trailers: the capture's copy counts, ``records`` and the
    run's connection ``events``, and the measurements' ingest counters.

    ``header(kind)`` is the header of the log of that kind.  A log that
    cannot be opened leaves none open: the capture log, opened first,
    is closed with its trailer.
    """

    def __init__(self, out_dir, header, events: tuple):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.capture_path = out_dir / "capture.jsonl"
        self.measurements_path = out_dir / "measurements.jsonl"
        self.uplink_copies = self.ack_copies = self.dropped_copies = 0
        # the mode's connection events, counted by whoever meets them
        self.events = dict.fromkeys(events, 0)
        self._capture_lines: list = []
        self._row_lines: list = []
        self._capture = LogWriter(self.capture_path, header("capture"))
        try:
            self._rows = LogWriter(self.measurements_path, header("measurements"))
        except BaseException:
            self._capture.close(self.capture_counters())
            raise

    def write(self, wall_time: Optional[float], device_id: Optional[int], direction: str, seq_start: int,
              seq_end: int, payload_bytes: int, header_bytes: int, retransmission_class: str, frames) -> None:
        """Log the CaptureRecord with these fields, and the row of each of
        ``frames``, the FdrFrames its arrival completed (as
        ``IngestState.deliver`` returns them), without building either.
        ``wall_time`` is None for a copy the channel dropped."""
        if wall_time is None:
            wall = "null"
            self.dropped_copies += 1
        else:
            wall = repr(wall_time)
        if direction == _UPLINK:
            self.uplink_copies += 1
        else:
            self.ack_copies += 1
        if frames:
            rows = self._row_lines
            entries = []
            for device, frame_seq, timestamp, frequency, voltage_mag, voltage_angle, status in frames:
                entries.append(_FRAME_COMPLETE % (frame_seq, timestamp, wall))
                rows.append(_MEASUREMENT_LINE % (device, frame_seq, timestamp, wall, frequency, voltage_mag,
                                                 voltage_angle, status))
            frame_complete = "[" + ",".join(entries) + "]"
            if len(rows) >= BLOCK_LINES:
                self._hand_on(self._rows, rows)
        else:
            frame_complete = "null"
        lines = self._capture_lines
        lines.append(_CAPTURE_LINE % (wall, "null" if device_id is None else device_id, direction, seq_start, seq_end,
                                      payload_bytes, header_bytes, retransmission_class, frame_complete))
        if len(lines) >= BLOCK_LINES:
            self._hand_on(self._capture, lines)

    @staticmethod
    def _hand_on(writer: LogWriter, lines: list) -> None:
        if lines:
            writer.write("\n".join(lines))
            lines.clear()

    def flush(self) -> None:
        """Hand every held line to its log."""
        self._hand_on(self._capture, self._capture_lines)
        self._hand_on(self._rows, self._row_lines)

    def capture_counters(self) -> dict:
        """The capture trailer's counters."""
        records = self.uplink_copies + self.ack_copies
        return {"ack_copies": self.ack_copies, "dropped_copies": self.dropped_copies, "records": records,
                "uplink_copies": self.uplink_copies, **self.events}

    def close(self, ingest_counters: dict) -> None:
        """Hand on the held lines and write both trailers, the
        measurements' holding ``ingest_counters``; both logs are closed
        whatever fails."""
        try:
            self.flush()
        finally:
            try:
                self._capture.close(self.capture_counters())
            finally:
                self._rows.close(ingest_counters)


class FrameAssembler:
    """Carves one connection's in-order byte stream into frames."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self.device_id: Optional[int] = None
        self.junk_since_frame = 0

    def feed(self, data: bytes, counters: Counter) -> list:
        """Returns the frames ``data`` completed, counting skipped bytes
        and bad CRCs in ``counters`` (resync_bytes, crc_errors)."""
        if not self.buf and len(data) == FRAME_LEN and data.startswith(MAGIC_BYTES):
            # the usual case: exactly one whole frame and nothing buffered
            try:
                frame = decode_frame(data)
            except FrameDecodeError:
                pass  # the scan below counts and skips it
            else:
                self.device_id = frame.device_id
                self.junk_since_frame = 0
                return [frame]
        self.buf.extend(data)
        frames = []
        skipped = 0
        while True:
            idx = self.buf.find(MAGIC_BYTES)
            if idx < 0:
                # nothing frameable; keep a trailing half-magic byte
                keep = 1 if self.buf[-1:] == MAGIC_BYTES[:1] else 0
                junk = len(self.buf) - keep
                if junk:
                    skipped += junk
                    del self.buf[:junk]
                break
            if idx > 0:
                skipped += idx
                del self.buf[:idx]
            if len(self.buf) < FRAME_LEN:
                break
            try:
                frame = decode_frame(bytes(self.buf[:FRAME_LEN]))
            except ChecksumError:
                counters["crc_errors"] += 1
                skipped += 1
                del self.buf[:1]  # step past this magic and rescan
                continue
            del self.buf[:FRAME_LEN]
            frames.append(frame)
            self.device_id = frame.device_id
        if skipped:
            counters["resync_bytes"] += skipped
        if frames:
            self.junk_since_frame = 0
        else:
            self.junk_since_frame += skipped
        return frames


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
    """What every connection of one run shares: deduplication and the
    counters.  Each connection brings its own FrameAssembler.

    Deduplication is global on (device_id, frame_seq): the first
    arrival produces the row, later copies only bump a counter.  Each
    device's seen frame numbers are SeqRuns, which frames arriving in
    order keep at one run.  A CRC-valid frame can still carry NaN or
    inf, which no JSON line may hold: its first arrival makes no row and
    is counted in ``nonfinite_rows``, and later copies are duplicates.
    """

    def __init__(self) -> None:
        self.seen: dict = {}  # device_id -> SeqRuns of frame_seq
        self.counters: Counter = Counter()

    def deliver(self, asm: FrameAssembler, data: bytes) -> list:
        """Feed bytes delivered in order on the connection ``asm``
        reassembles; returns the FdrFrames this delivery completed that
        make rows, in delivery order."""
        kept = []
        nonfinite = 0
        for frame in asm.feed(data, self.counters):
            runs = self.seen.get(frame.device_id)
            if runs is None:
                runs = self.seen[frame.device_id] = SeqRuns()
            if not runs.add(frame.frame_seq):
                self.counters["duplicate_frames"] += 1
            elif isfinite(frame.frequency) and isfinite(frame.voltage_mag) and isfinite(frame.voltage_angle):
                kept.append(frame)
            else:
                nonfinite += 1
        self.counters["rows"] += len(kept)
        if nonfinite:
            log.warning("device %d: dropping %d frame(s) with non-finite values", asm.device_id, nonfinite)
            self.counters["nonfinite_rows"] += nonfinite
        return kept


class LiveDcsServer:
    """Real-socket concentrator: N device connections, one thread.

    start() runs one selectors loop on its own thread.  The loop
    accepts, reads, ingests and writes both logs, handing the lines it
    holds to the files once per pass, so records and rows land in
    arrival order with no queue and no lock.  A connection the
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
        # conn_id -> [delivered byte count, FrameAssembler], per open connection
        self._conns: dict = {}
        self._listener = None
        self._selector = None
        self._loop = None
        self.logs: Optional[RunLogs] = None

    def start(self) -> None:
        """Bind, then open both logs, so a port that cannot be bound
        leaves an earlier run's logs as they were."""
        # live commands only: an offline one never loads the socket stack
        import selectors
        import socket

        # a burst of dials waits in the kernel's queue until the loop
        # drains it; a full queue drops a SYN, and that dial waits out a
        # 1 s retransmission timeout
        self._listener = socket.create_server((self.host, self.port), backlog=socket.SOMAXCONN)
        try:
            args = ("live", None, round(time.time() * 1000), self.duration_s, self.skew_bound_ms)
            self.logs = RunLogs(
                self.out_dir, lambda kind: log_header(kind, *args), ("dropped_connections", "refused_connections")
            )
        except BaseException:
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
        self.logs.close(self.ingest.counters)

    # -- the loop ----------------------------------------------------------

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                for key, _ in self._selector.select(timeout=0.2):
                    if key.fileobj is self._listener:
                        self._accept()
                    else:
                        self._read(key.fileobj, key.data)
                # a running capture lags by no more than its file buffer
                self.logs.flush()
        finally:
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._selector.close()

    def _accept(self) -> None:
        """Take every connection waiting in the listen queue, refusing
        each one past max_conns."""
        from selectors import EVENT_READ

        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:  # the queue is empty (BlockingIOError), or a peer gave up
                return
            if len(self._conns) >= self.max_conns:
                log.warning("refusing connection from %s: at max_conns", addr)
                self.logs.events["refused_connections"] += 1
                sock.close()
                continue
            self._next_id += 1
            self._conns[self._next_id] = [0, FrameAssembler()]
            self._selector.register(sock, EVENT_READ, self._next_id)

    def _close(self, sock, conn_id: int) -> None:
        self._selector.unregister(sock)
        sock.close()
        del self._conns[conn_id]

    def _read(self, sock, conn_id: int) -> None:
        try:
            data = sock.recv(4096)  # selected as readable: returns at once
        except OSError:
            data = b""
        if not data:
            self._close(sock, conn_id)
            return
        arrival_time = ms(time.time() * 1000.0)
        conn = self._conns[conn_id]
        start, asm = conn
        frames = self.ingest.deliver(asm, data)
        end = conn[0] = start + len(data)
        # no sniffer in live mode: payload bytes only, every copy an
        # UPLINK one of class FIRST
        self.logs.write(arrival_time, asm.device_id, _UPLINK, start, end, len(data), 0, CLASSES[0], frames)
        if asm.junk_since_frame > JUNK_DROP_BYTES:
            log.warning("conn %d: dropping malformed stream", conn_id)
            self.logs.events["dropped_connections"] += 1
            self._close(sock, conn_id)
