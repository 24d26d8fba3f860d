"""Batch simulation runs: devices, channels, transport, and ingest in
one deterministic event loop.

A run gives every configured device its own uplink/downlink pair.  The
device dials over them, re-dials a fresh transport connection whenever
one fails, and ticks at 10 Hz from the first grid point after its first
handshake.  Each connection's concentrator end reassembles exactly the
byte stream the transport releases.  The run writes its two JSON-lines
logs through ``dcs.RunLogs``, as the live server does, so the analyzer
treats both modes identically.

Devices never buffer: a frame generated while the connection is down
is counted and dropped, and the sequence number still advances, so
gaps in the capture are honest evidence of the outage.

The capture log is an omniscient tap: every wire copy appears exactly
once.  Copies the channel dropped are written at transmit time with a
null wall_time; delivered data copies are written at arrival, after the
reassembler has decided which frames they completed, so the record can
carry the frame_complete list.  Line order is therefore not globally
time-sorted and readers must not assume it is.

Concentrator outages are modeled as the host refusing the port: any
segment arriving inside an outage window is answered with an RST over
the downlink instead of being delivered, which kills the sender's
connection and starts its redial loop.
"""

import logging
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

from . import fdr
from .analyzer import DIRECTIONS
from .dcs import FrameAssembler, IngestState, RunLogs, log_header
from .fdr import GRID_MS, SignalGenerator, next_grid_ms
from .scenario import MAX_EPOCH_UTC_MS, Scenario
from .simnet import Link, Simulator
from .tcplite import HEADER_BYTES, RST, SYN, Connection, Segment, connect_pair

log = logging.getLogger(__name__)

# after the last frame leaves the grid, let in-flight retransmissions
# and redial loops settle before the run stops
DRAIN_GRACE_S = 30

# a device's wait after a failed connection before it redials
RECONNECT_BACKOFF_MS = 1_000.0

# the record directions, as analyzer.DIRECTIONS names them
_UPLINK, _ACK = DIRECTIONS


@dataclass(frozen=True)
class DeviceReport:
    device_id: int
    frames_generated: int
    frames_sent: int
    frames_dropped_offline: int
    reconnects: int
    dials: int


@dataclass(frozen=True)
class RunResult:
    capture_path: Path
    measurements_path: Path
    devices: tuple
    capture_counters: dict
    ingest_counters: dict
    events_processed: int

    @property
    def rows(self) -> int:
        return self.ingest_counters.get("rows", 0)


class _DcsEndpoint(Connection):
    """The concentrator's end of one device connection.

    Every segment from the device arrives here before the transport
    sees it.  During an outage nothing reaches the transport at all:
    the host refuses the port and answers RST.  A data copy is logged
    at its arrival instant, together with the frames it completed (a
    segment makes at most one in-order delivery).
    """

    def __init__(self, device: "_Device", name: str, sim, link, role):
        super().__init__(
            sim,
            link,
            role,
            name=f"{name}.server",
            on_deliver=self._ingest,
            on_wire=device._on_downlink_wire,
        )
        self.device = device
        self.assembler = FrameAssembler()
        self._frames: Optional[list] = None  # frames the segment being delivered completed

    def _ingest(self, data: bytes) -> None:
        self._frames = self.device.run.ingest.deliver(self.assembler, data)

    def deliver_segment(self, seg: Segment) -> None:
        device = self.device
        run = device.run
        now_us = run.sim.now_us
        if run.outages and run.in_outage(now_us):
            if seg.payload:
                run.write_record(device.device_id, _UPLINK, seg, now_us)
            self._refuse()
            return
        super().deliver_segment(seg)
        if seg.payload:
            run.write_record(device.device_id, _UPLINK, seg, now_us, self._frames)
            self._frames = None

    def detach(self) -> None:
        super().detach()
        self.device = None

    def _refuse(self) -> None:
        run = self.device.run
        run.logs.events["outage_rsts"] += 1
        rst = Segment(0, 0, frozenset({RST}))
        arrival_us = self.link.transmit(HEADER_BYTES)
        run.write_record(self.device.device_id, _ACK, rst, arrival_us)
        if arrival_us is not None and self.peer is not None:
            run.sim.schedule(arrival_us, self.peer.deliver_segment, rst)


class _Device:
    """One simulated device and everything it owns for the lifetime of
    a run: its two channel links, its signal, its 10 Hz schedule, its
    dial loop, its capture hooks and counters, and both ends of every
    connection it dialed.

    The links persist across re-dials so their occupancy and random
    streams carry over; only the transport pair is rebuilt.
    """

    def __init__(self, run: "_SimulationRun", spec):
        sc = run.scenario
        self.run = run
        self.sim = run.sim
        self.device_id = device_id = spec.device_id
        self.p_seg = spec.p_seg
        self.t_fdr_ms = sc.t_fdr_ms
        self.uplink = Link(run.sim, spec.uplink, random.Random(f"{sc.seed}:dev{device_id}:up"))
        self.downlink = Link(run.sim, spec.downlink, random.Random(f"{sc.seed}:dev{device_id}:down"))
        self.epoch_utc_ms = sc.epoch_utc_ms
        self.signal = SignalGenerator(
            spec.signal, sc.epoch_utc_ms, random.Random(f"{sc.seed}:dev{device_id}:signal")
        )
        self._split_rng = random.Random(f"{sc.seed}:dev{device_id}:split")
        self.conn: Optional[Connection] = None  # the client end of the latest dial
        self.connections: list = []  # both ends of every dial
        self.frames_total = sc.duration_s * 1000 // GRID_MS
        self.frames_generated = self.frames_sent = self.frames_dropped_offline = 0
        self.reconnects = self.dials = 0
        self._ticking = False

    def dial(self) -> None:
        self.dials += 1
        name = f"dev{self.device_id}#{self.dials}"
        self.conn, server = connect_pair(
            self.sim,
            self.uplink,
            self.downlink,
            server_factory=partial(_DcsEndpoint, self, name),
            name=f"{name}.client",
            on_wire=self._on_uplink_wire,
            on_established=self._on_established,
            on_failed=self._on_failed,
        )
        self.connections += (self.conn, server)
        self.conn.open()

    def _on_established(self) -> None:
        if not self._ticking:
            self._ticking = True
            now_utc = self.epoch_utc_ms + self.sim.now_us / 1000.0
            first = next_grid_ms(now_utc)
            self.sim.schedule(round((first - self.epoch_utc_ms) * 1000), self._tick, first)

    def _on_failed(self, reason: str) -> None:
        self.reconnects += 1
        log.info("device %d: connection lost (%s), redialing", self.device_id, reason)
        self.sim.schedule_in(round(RECONNECT_BACKOFF_MS * 1000), self.dial)

    def _tick(self, t_utc_ms: int) -> None:
        if self.frames_generated >= self.frames_total:
            return
        self.frames_generated += 1
        frame = self.signal.measure(self.device_id, self.frames_generated, t_utc_ms)
        # looked up on the module at each call, where a tracer that wraps
        # fdr.encode_frame sees it
        payload = fdr.encode_frame(frame)
        split = self._split_rng.random() < self.p_seg
        if self.t_fdr_ms:
            self.sim.schedule_in(round(self.t_fdr_ms * 1000), self._send, payload, split)
        else:
            self._send(payload, split)
        if self.frames_generated < self.frames_total:
            self.sim.schedule_in(GRID_MS * 1000, self._tick, t_utc_ms + GRID_MS)

    def _send(self, payload: bytes, split: bool) -> None:
        if self.conn is not None and self.conn.established:
            self.conn.send(payload, split=split)
            self.frames_sent += 1
        else:
            self.frames_dropped_offline += 1  # no buffering by design

    # -- capture hooks -------------------------------------------------------

    def _on_uplink_wire(self, seg: Segment, arrival_us: Optional[int]) -> None:
        if seg.payload and arrival_us is not None:
            return  # written at arrival, with the reassembly outcome attached
        self.run.write_record(self.device_id, _UPLINK, seg, arrival_us)

    def _on_downlink_wire(self, seg: Segment, arrival_us: Optional[int]) -> None:
        self.run.write_record(self.device_id, _ACK, seg, arrival_us)

    def close(self) -> None:
        """Break the reference cycles between this device and its
        connections, once the run is over."""
        for conn in self.connections:
            conn.detach()
        self.connections.clear()

    def report(self) -> DeviceReport:
        return DeviceReport(
            device_id=self.device_id,
            frames_generated=self.frames_generated,
            frames_sent=self.frames_sent,
            frames_dropped_offline=self.frames_dropped_offline,
            reconnects=self.reconnects,
            dials=self.dials,
        )


class _SimulationRun:
    def __init__(self, scenario: Scenario, out_dir):
        if not 0 <= scenario.epoch_utc_ms < MAX_EPOCH_UTC_MS:
            raise ValueError(f"epoch_utc_ms={scenario.epoch_utc_ms} outside [0, 2**42)")
        self.scenario = scenario
        self.epoch_us = scenario.epoch_utc_ms * 1000
        self.out_dir = Path(out_dir)
        self.outages = scenario.outages
        self.sim = Simulator()
        self.ingest = IngestState()
        self.logs: Optional[RunLogs] = None

    def in_outage(self, t_us: int) -> bool:
        t_s = t_us / 1_000_000.0
        return any(start <= t_s < end for start, end in self.outages)

    def write_record(
        self,
        device_id: int,
        direction: str,
        seg: Segment,
        arrival_us: Optional[int],
        frames: Optional[list] = None,
    ) -> None:
        """Log one wire copy, encoded straight from the segment, with the
        ``frames`` its arrival completed."""
        seq, _, flags, payload, retx_class = seg
        payload_bytes = len(payload)
        self.logs.write(
            # the exact integer microsecond count over 1000.0 is the double
            # nearest the 3-decimal value, ms(epoch_utc_ms + arrival_us /
            # 1000.0), while the epoch is below 2**43 ms, at a tenth of the
            # cost of round
            None if arrival_us is None else (self.epoch_us + arrival_us) / 1000.0,
            device_id,
            direction,
            seq,
            # Segment.seq_len: a SYN takes one sequence number
            seq + payload_bytes + (SYN in flags),
            payload_bytes,
            HEADER_BYTES,
            retx_class._value_,  # Enum's value is a Python-level property
            frames,
        )

    def _header(self, kind: str) -> dict:
        sc = self.scenario
        header = log_header(kind, "sim", sc.seed, sc.epoch_utc_ms, sc.duration_s, sc.skew_bound_ms)
        header["scenario"] = sc.name
        header["t_fdr_ms"] = sc.t_fdr_ms
        header["t_dcs_ms"] = sc.t_dcs_ms
        return header

    def run(self) -> RunResult:
        sc = self.scenario
        devices = []
        try:
            self.logs = RunLogs(self.out_dir, self._header, ("outage_rsts",))
            devices = [_Device(self, spec) for spec in sc.devices]
            for device in devices:
                device.dial()
            processed = self.sim.run_until((sc.duration_s + DRAIN_GRACE_S) * 1_000_000)
        finally:
            if self.logs is not None:
                self.logs.close(self.ingest.counters)
            # a finished run is freed by reference counting alone, so the
            # process's peak memory does not depend on when the cyclic
            # collector happens to run
            self.sim.clear()
            for device in devices:
                device.close()
        capture_counters = self.logs.capture_counters()
        log.info(
            "scenario %s: %d events, %d rows, %d capture records",
            sc.name,
            processed,
            self.ingest.counters["rows"],
            capture_counters["records"],
        )
        return RunResult(
            capture_path=self.logs.capture_path,
            measurements_path=self.logs.measurements_path,
            devices=tuple(device.report() for device in devices),
            capture_counters=capture_counters,
            ingest_counters=dict(self.ingest.counters),
            events_processed=processed,
        )


def run_simulation(scenario: Scenario, out_dir) -> RunResult:
    """Execute one scenario and write capture/measurement logs to out_dir."""
    return _SimulationRun(scenario, out_dir).run()
