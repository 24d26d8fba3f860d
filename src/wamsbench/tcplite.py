"""Simplified reliable byte-stream transport over the simulated channel.

Reproduces the handful of TCP behaviors the testbench measures: the
three-way handshake, cumulative ACKs, adaptive retransmission timeout
with exponential backoff, fast retransmit on three duplicate ACKs, and
optional two-way segmentation of a frame.  Everything else (congestion
windows, SACK, graceful teardown) is deliberately out of scope; at 550
payload bytes per second per device none of it would ever engage.

Each wire copy carries a retransmission class (FIRST, RTO_RETX,
FAST_RETX) so the capture log can account for every byte placed on the
wire.  Header overhead is a fixed 40 bytes per segment (20 IP + 20 TCP,
no options); the serialization term on the channel uses the payload
length for data segments, since the link-rate math treats the frame
itself as the unit being clocked out.
"""

import enum
import logging
from collections import Counter
from typing import Callable, NamedTuple, Optional

from .analyzer import CLASSES
from .simnet import Simulator

log = logging.getLogger(__name__)

HEADER_BYTES = 40  # 20 IP + 20 TCP, no options

# RFC 6298's estimator gains and retransmission timeout bounds, RFC
# 5681's duplicate-ACK threshold, the byte a split frame is cut at, and
# the retransmissions of the lowest unacknowledged segment before a
# connection fails, in the handshake and after it
ALPHA, BETA = 0.125, 0.25
MIN_RTO_MS, MAX_RTO_MS, INITIAL_RTO_MS = 200.0, 60_000.0, 1_000.0
DUPACK_THRESHOLD = 3
SPLIT_AT = 27
SYN_RETRY_LIMIT, RETX_LIMIT = 5, 15

SYN = "SYN"
ACK = "ACK"
PSH = "PSH"
RST = "RST"

# flag sets of the segments sent on every frame, built once
_ACK_FLAGS = frozenset({ACK})
_DATA_FLAGS = frozenset({ACK, PSH})


class RetxClass(enum.Enum):
    # the classes a capture record may name, valued and ordered as
    # analyzer.CLASSES, which owns them
    FIRST, RTO_RETX, FAST_RETX = CLASSES

    # members are singletons, so identity hashing is exact; it keeps the
    # per-copy counter updates off Enum's Python-level __hash__
    __hash__ = object.__hash__


_FIRST = RetxClass.FIRST


class ConnState(enum.Enum):
    CLOSED = "CLOSED"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"


# the states each segment is tested against, resolved once: reading an
# Enum member off its class runs a Python-level descriptor
_CLOSED, _SYN_SENT, _SYN_RCVD, _ESTABLISHED = ConnState


class TransportError(Exception):
    """Operation not valid in the connection's current state."""


class Segment(NamedTuple):
    """One TCP-lite segment as it appears on the wire."""

    seq: int
    ack: int
    flags: frozenset
    payload: bytes = b""
    retx_class: RetxClass = RetxClass.FIRST

    @property
    def seq_len(self) -> int:
        # SYN consumes one sequence number; pure ACKs consume none
        return len(self.payload) + (1 if SYN in self.flags else 0)

    @property
    def wire_bytes(self) -> int:
        return HEADER_BYTES + len(self.payload)


# Segment(...) runs namedtuple's Python-level __new__; the segments sent
# for every frame are built from a full field tuple at half the cost
_new_segment = tuple.__new__


class _InFlight:
    """A sent segment waiting for its ACK; ``end`` is the sequence
    number an ACK must reach to cover it."""

    __slots__ = ("segment", "end", "send_time_us", "retx_count")

    def __init__(self, segment: Segment, send_time_us: int):
        self.segment = segment
        self.end = segment.seq + segment.seq_len
        self.send_time_us = send_time_us
        self.retx_count = 0


class Connection:
    """One endpoint of a TCP-lite connection.

    The two endpoints are cross-wired through ``peer`` and each owns a
    one-way channel link for its outgoing direction.  All state changes
    happen synchronously inside event callbacks, so a single event loop
    drives both ends without locks.

    on_deliver receives in-order application bytes.  on_wire sees every
    copy placed on the wire together with its arrival time in us, None
    when the channel dropped that copy.
    """

    def __init__(
        self,
        sim: Simulator,
        link,
        role: str,
        name: str = "",
        on_deliver: Optional[Callable[[bytes], None]] = None,
        on_wire: Optional[Callable[[Segment, Optional[int]], None]] = None,
        on_established: Optional[Callable[[], None]] = None,
        on_failed: Optional[Callable[[str], None]] = None,
    ):
        if role not in ("client", "server"):
            raise ValueError(f"role must be client or server, got {role!r}")
        self.sim = sim
        self.link = link
        self.role = role
        self.name = name or role
        self.peer: Optional["Connection"] = None
        self.on_deliver = on_deliver
        self.on_wire = on_wire
        self.on_established = on_established
        self.on_failed = on_failed

        self.state = ConnState.CLOSED
        self.snd_una = 0
        self.snd_next = 0
        self.rcv_next = 0
        self.dup_ack_count = 0
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = INITIAL_RTO_MS
        self.unacked: list[_InFlight] = []

        self._ooo: dict[int, bytes] = {}  # reassembly buffer, seq -> payload
        self._timer: Optional[list] = None  # Simulator cancel handle
        self._dead = False
        self.wire_copies: Counter = Counter()
        self.protocol_errors = 0
        self.dup_data_segments = 0

    # -- opening ---------------------------------------------------------

    def open(self) -> None:
        """Active open: send SYN and wait for the handshake to finish."""
        if self.state is not ConnState.CLOSED:
            raise TransportError(f"open in state {self.state.value}")
        if self.role != "client":
            raise TransportError("only the client end opens actively")
        self.snd_una = 0
        self.snd_next = 1  # SYN occupies sequence 0
        syn = Segment(0, 0, frozenset({SYN}))
        self.unacked.append(_InFlight(syn, self.sim.now_us))
        self.state = ConnState.SYN_SENT
        self._transmit(syn)
        self._arm_timer()

    # -- sending ---------------------------------------------------------

    def send(self, payload: bytes, split: bool = False) -> int:
        """Queue application bytes; returns the number of segments sent.

        ``split`` is the caller's per-frame segmentation decision: when
        true the payload goes out as two segments cut after byte
        SPLIT_AT.
        """
        if self.state is not _ESTABLISHED:
            raise TransportError(f"send in state {self.state.value}")
        if not payload:
            raise TransportError("empty payload")
        if split and len(payload) >= 2:
            cut = min(SPLIT_AT, len(payload) - 1)
            parts = [payload[:cut], payload[cut:]]
        else:
            parts = [payload]
        for part in parts:
            seg = _new_segment(Segment, (self.snd_next, self.rcv_next, _DATA_FLAGS, part, _FIRST))
            self.snd_next += len(part)  # seq_len of a data segment
            self.unacked.append(_InFlight(seg, self.sim.now_us))
            self._transmit(seg)
        if self._timer is None:  # never postpone an older segment's timeout
            self._arm_timer()
        return len(parts)

    def detach(self) -> None:
        """Let go of the peer, the simulator, the link, every callback
        and all in-flight state, once the run driving this end is over;
        the counters stay readable.  The two ends, their timer and their
        callbacks otherwise hold each other and the whole run in
        reference cycles that only the cyclic garbage collector frees."""
        self.peer = self.sim = self.link = self._timer = None
        self.on_deliver = self.on_wire = self.on_established = self.on_failed = None
        self.unacked = []
        self._ooo = {}

    @property
    def established(self) -> bool:
        return self.state is _ESTABLISHED

    # -- segment arrival ---------------------------------------------------

    def on_segment(self, seg: Segment) -> None:
        if RST in seg.flags:
            self._fail("reset by peer")
            return
        state = self.state
        if state is _CLOSED:
            return
        if state is _SYN_SENT:
            if SYN in seg.flags and ACK in seg.flags and seg.ack == self.snd_next:
                self._process_ack(seg)
                self.rcv_next = seg.seq + 1
                self.state = ConnState.ESTABLISHED
                self._send_pure_ack()
                if self.on_established:
                    self.on_established()
            return
        if state is _SYN_RCVD:
            if SYN in seg.flags and ACK not in seg.flags:
                return  # duplicate SYN; our timer re-sends the SYN+ACK
            if ACK in seg.flags and seg.ack >= 1:
                self._process_ack(seg)
                self.state = ConnState.ESTABLISHED
                if self.on_established:
                    self.on_established()
                if seg.payload:
                    self._process_data(seg)
            return
        # ESTABLISHED
        if SYN in seg.flags:
            self._send_pure_ack()  # peer missed our handshake ACK
            return
        if ACK in seg.flags:
            self._process_ack(seg)
        if seg.payload:
            self._process_data(seg)

    def accept_syn(self, seg: Segment) -> None:
        """Passive open: server reaction to the first SYN."""
        if self.role != "server":
            raise TransportError("only the server end accepts")
        if self.state is not ConnState.CLOSED:
            return
        self.rcv_next = seg.seq + 1
        self.snd_una = 0
        self.snd_next = 1
        synack = Segment(0, self.rcv_next, frozenset({SYN, ACK}))
        self.unacked.append(_InFlight(synack, self.sim.now_us))
        self.state = ConnState.SYN_RCVD
        self._transmit(synack)
        self._arm_timer()

    # -- ACK processing ----------------------------------------------------

    def _process_ack(self, seg: Segment) -> None:
        ack = seg.ack
        if ack > self.snd_next:
            self.protocol_errors += 1
            log.warning("%s: ack %d beyond snd_next %d ignored", self.name, ack, self.snd_next)
            return
        if ack > self.snd_una:
            self.snd_una = ack
            self.dup_ack_count = 0
            # unacked is in sequence order, so what the ack covers is a
            # prefix of it, deleted in place
            unacked = self.unacked
            covered = 0
            for entry in unacked:
                if entry.end > ack:
                    break
                covered += 1
            # An ack covering several segments marks a loss-recovery
            # epoch: the covered segments sat behind a receiver-side
            # hole, so their age measures the recovery, not the path.
            # Only the unambiguous single-segment case is sampled, and
            # never a retransmit (Karn's rule).
            if covered == 1 and unacked[0].retx_count == 0:
                self.rto_update((self.sim.now_us - unacked[0].send_time_us) / 1000.0)
            elif self.srtt is not None:
                # forward progress ends the timeout episode: drop the
                # exponential backoff back to the estimator's figure
                self.rto = min(max(MIN_RTO_MS, self.srtt + 4.0 * self.rttvar), MAX_RTO_MS)
            del unacked[:covered]
            if unacked:
                self._arm_timer()
            else:
                self._disarm_timer()
            return
        if (
            ack == self.snd_una
            and not seg.payload
            and SYN not in seg.flags
            and self.unacked
        ):
            self.dup_ack_count += 1
            if self.dup_ack_count >= DUPACK_THRESHOLD:
                self.dup_ack_count = 0
                lowest = self.unacked[0]
                if lowest.retx_count == 0:  # never race an RTO recovery
                    lowest.retx_count += 1
                    self._transmit(lowest.segment._replace(retx_class=RetxClass.FAST_RETX))

    def rto_update(self, sample_ms: float) -> float:
        """Feed one round-trip sample to the estimator; returns the new rto."""
        if self.srtt is None:
            self.srtt = sample_ms
            self.rttvar = sample_ms / 2.0
        else:
            self.srtt = (1.0 - ALPHA) * self.srtt + ALPHA * sample_ms
            self.rttvar = (1.0 - BETA) * self.rttvar + BETA * abs(self.srtt - sample_ms)
        self.rto = min(max(MIN_RTO_MS, self.srtt + 4.0 * self.rttvar), MAX_RTO_MS)
        return self.rto

    # -- data receive ------------------------------------------------------

    def _process_data(self, seg: Segment) -> None:
        if seg.seq == self.rcv_next:
            chunks = [seg.payload]
            self.rcv_next += len(seg.payload)
            while self.rcv_next in self._ooo:
                part = self._ooo.pop(self.rcv_next)
                chunks.append(part)
                self.rcv_next += len(part)
            if self.on_deliver:
                self.on_deliver(b"".join(chunks))
        elif seg.seq > self.rcv_next:
            self._ooo[seg.seq] = seg.payload  # hole before it; buffer
        else:
            self.dup_data_segments += 1
        self._send_pure_ack()

    def _send_pure_ack(self) -> None:
        seg = _new_segment(Segment, (self.snd_next, self.rcv_next, _ACK_FLAGS, b"", _FIRST))
        self._transmit(seg)

    # -- retransmission timer ----------------------------------------------

    def _arm_timer(self) -> None:
        # _disarm_timer then schedule_in, spelled out: it runs on every ACK
        sim = self.sim
        if self._timer is not None:
            sim.cancel(self._timer)
        self._timer = sim.schedule(sim.now_us + round(self.rto * 1000), self._on_rto)

    def _disarm_timer(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None

    def _on_rto(self) -> None:
        self._timer = None
        if not self.unacked:
            return  # nothing in flight, timer should have been disarmed
        handshake = self.state in (ConnState.SYN_SENT, ConnState.SYN_RCVD)
        limit = SYN_RETRY_LIMIT if handshake else RETX_LIMIT
        lowest = self.unacked[0]
        if lowest.retx_count >= limit:
            self._fail("retransmit limit exceeded")
            return
        lowest.retx_count += 1
        self._transmit(lowest.segment._replace(retx_class=RetxClass.RTO_RETX))
        self.rto = min(self.rto * 2.0, MAX_RTO_MS)  # exponential backoff
        self._arm_timer()

    def _fail(self, reason: str) -> None:
        if self._dead:
            return
        log.info("%s: connection failed: %s", self.name, reason)
        self._disarm_timer()
        self.state = ConnState.CLOSED
        self._dead = True
        self.unacked.clear()
        self._ooo.clear()
        if self.on_failed:
            self.on_failed(reason)

    # -- wire --------------------------------------------------------------

    def _transmit(self, seg: Segment) -> None:
        payload_len = len(seg.payload)
        self.wire_copies[seg.retx_class] += 1
        # data segments are clocked out at their payload length; control
        # segments have nothing but headers to serialize
        serialized = payload_len or HEADER_BYTES
        arrival_us = self.link.transmit(serialized)
        if self.on_wire:
            self.on_wire(seg, arrival_us)
        if arrival_us is not None and self.peer is not None:
            self.sim.schedule(arrival_us, self.peer.deliver_segment, seg)

    def deliver_segment(self, seg: Segment) -> None:
        """Entry point for segments arriving from the peer's channel."""
        if self._dead:
            return  # stale in-flight segment for a retired connection
        if self.state is _CLOSED and self.role == "server" and SYN in seg.flags:
            self.accept_syn(seg)
        else:
            self.on_segment(seg)


def connect_pair(
    sim: Simulator,
    uplink,
    downlink,
    server_factory: Callable[..., Connection] = Connection,
    **client_kwargs,
) -> tuple[Connection, Connection]:
    """Build a cross-wired client/server pair over two one-way links.

    ``server_factory`` builds the server end from (sim, link, role); a
    subclass of Connection may stand in for it.  The client still needs
    ``open()`` called to start the handshake.
    """
    client = Connection(sim, uplink, "client", **client_kwargs)
    server = server_factory(sim, downlink, "server")
    client.peer = server
    server.peer = client
    return client, server
