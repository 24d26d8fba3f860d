"""Emulated measurement device: signal synthesis plus the sending side.

A device produces one frame per 100 ms grid point, stamped with the
grid instant itself, and pushes it over a TCP-lite connection (in
simulation) or a real socket (live mode).  The synthesized waveform is
plumbing, not physics: nominal frequency plus a slow sine wander,
Gaussian noise, and optional exponentially-decaying step disturbances,
with the angle integrating the frequency deviation.  What matters
downstream is the timing and framing behavior, which is exact.

Devices never buffer: a frame generated while the connection is down
is counted and dropped, and the sequence number still advances, so
gaps in the capture are honest evidence of the outage.
"""

import heapq
import logging
import math
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .frame import FdrFrame, encode_frame
from .simnet import Simulator
from .tcplite import Connection

log = logging.getLogger(__name__)

GRID_MS = 100  # frame cadence: 10 samples per second


@dataclass(frozen=True)
class DisturbanceEvent:
    """Frequency step at a UTC instant, recovering exponentially."""

    at_utc_ms: int
    step_hz: float
    tau_s: float

    def __post_init__(self) -> None:
        if self.tau_s <= 0:
            raise ValueError("tau_s must be positive")


@dataclass(frozen=True)
class SignalModel:
    f_nominal: float = 50.0
    f_wander_amp: float = 0.0
    f_wander_period_s: float = 60.0
    noise_sigma: float = 0.0
    v_nominal: float = 1.0
    disturbances: tuple = ()

    def __post_init__(self) -> None:
        if self.f_nominal <= 0:
            raise ValueError("f_nominal must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.f_wander_period_s <= 0:
            raise ValueError("f_wander_period_s must be positive")


@dataclass(frozen=True)
class FdrConfig:
    device_id: int
    t_fdr_ms: float = 0.0
    p_seg: float = 0.15
    host: str = "127.0.0.1"
    port: int = 0
    signal: SignalModel = SignalModel()

    def __post_init__(self) -> None:
        if self.t_fdr_ms < 0:
            raise ValueError("t_fdr_ms must be non-negative")
        if not 0.0 <= self.p_seg <= 1.0:
            raise ValueError("p_seg outside [0, 1]")


def _wrap_angle(deg: float) -> float:
    return ((deg + 180.0) % 360.0) - 180.0


class SignalGenerator:
    """Stateful waveform source for one device.

    Each call to ``measure`` must use a UTC timestamp on the 100 ms
    grid; the angle integrates the frequency deviation between calls.
    """

    def __init__(self, model: SignalModel, epoch_utc_ms: int, rng: random.Random):
        self.model = model
        self.epoch_utc_ms = epoch_utc_ms
        self.rng = rng
        self._angle = 0.0
        self._last_utc_ms: Optional[int] = None

    def frequency_at(self, t_utc_ms: int) -> float:
        m = self.model
        t_s = (t_utc_ms - self.epoch_utc_ms) / 1000.0
        f = m.f_nominal
        if m.f_wander_amp:
            f += m.f_wander_amp * math.sin(2.0 * math.pi * t_s / m.f_wander_period_s)
        for ev in m.disturbances:
            if t_utc_ms >= ev.at_utc_ms:
                age_s = (t_utc_ms - ev.at_utc_ms) / 1000.0
                f += ev.step_hz * math.exp(-age_s / ev.tau_s)
        if m.noise_sigma:
            f += self.rng.gauss(0.0, m.noise_sigma)
        return f

    def measure(self, device_id: int, frame_seq: int, t_utc_ms: int) -> FdrFrame:
        if t_utc_ms % GRID_MS != 0:
            raise ValueError(f"timestamp {t_utc_ms} off the {GRID_MS} ms grid")
        f = self.frequency_at(t_utc_ms)
        if self._last_utc_ms is not None:
            dt_s = (t_utc_ms - self._last_utc_ms) / 1000.0
            self._angle = _wrap_angle(self._angle + 360.0 * (f - self.model.f_nominal) * dt_s)
        self._last_utc_ms = t_utc_ms
        return FdrFrame(device_id, frame_seq, t_utc_ms, f, self.model.v_nominal, self._angle)


def next_grid_ms(t_utc_ms: float) -> int:
    """First 100 ms grid instant at or after ``t_utc_ms``."""
    return math.ceil(t_utc_ms / GRID_MS) * GRID_MS


class DeviceNode:
    """Simulation-mode device: grid-aligned generation over TCP-lite.

    ``make_connection`` must return a fresh, fully wired client
    Connection each time; the node opens it, re-dials after failures,
    and starts its 10 Hz schedule at the first grid point at or after
    the first successful handshake.
    """

    def __init__(
        self,
        sim: Simulator,
        config: FdrConfig,
        epoch_utc_ms: int,
        seed: str,
        duration_s: int,
        make_connection: Callable[["DeviceNode"], Connection],
        reconnect_backoff_ms: float = 1_000.0,
    ):
        self.sim = sim
        self.config = config
        self.epoch_utc_ms = epoch_utc_ms
        self.duration_s = duration_s
        self.make_connection = make_connection
        self.reconnect_backoff_ms = reconnect_backoff_ms
        self.signal = SignalGenerator(
            config.signal, epoch_utc_ms, random.Random(f"{seed}:dev{config.device_id}:signal")
        )
        self._split_rng = random.Random(f"{seed}:dev{config.device_id}:split")
        self.conn: Optional[Connection] = None
        self.frames_total = duration_s * 1000 // GRID_MS
        self.frames_generated = 0
        self.frames_sent = 0
        self.frames_dropped_offline = 0
        self.reconnects = 0
        self._ticking = False

    def start(self) -> None:
        self._dial()

    def _dial(self) -> None:
        self.conn = self.make_connection(self)
        self.conn.on_established = self._on_established
        self.conn.on_failed = self._on_failed
        self.conn.open()

    def _on_established(self) -> None:
        if not self._ticking:
            self._ticking = True
            now_utc = self.epoch_utc_ms + self.sim.now_us / 1000.0
            first = next_grid_ms(now_utc)
            self.sim.schedule(
                round((first - self.epoch_utc_ms) * 1000), lambda: self._tick(first)
            )

    def _on_failed(self, reason: str) -> None:
        self.reconnects += 1
        log.info("device %d: connection lost (%s), redialing", self.config.device_id, reason)
        self.sim.schedule_in(round(self.reconnect_backoff_ms * 1000), self._dial)

    def _tick(self, t_utc_ms: int) -> None:
        if self.frames_generated >= self.frames_total:
            return
        self.frames_generated += 1
        frame = self.signal.measure(self.config.device_id, self.frames_generated, t_utc_ms)
        payload = encode_frame(frame)
        split = self._split_rng.random() < self.config.p_seg
        if self.config.t_fdr_ms:
            self.sim.schedule_in(
                round(self.config.t_fdr_ms * 1000), lambda: self._send(payload, split)
            )
        else:
            self._send(payload, split)
        if self.frames_generated < self.frames_total:
            self.sim.schedule_in(GRID_MS * 1000, lambda: self._tick(t_utc_ms + GRID_MS))

    def _send(self, payload: bytes, split: bool) -> None:
        if self.conn is not None and self.conn.established:
            self.conn.send(payload, split=split)
            self.frames_sent += 1
        else:
            self.frames_dropped_offline += 1  # no buffering by design


class LiveEmulator:
    """Real-socket device for live runs: one TCP client.

    Frames ride the kernel's TCP stack back-to-back; the DCS side
    reassembles them from the byte stream.  Timestamps come from the
    host clock rounded to the 100 ms grid.  ``emulate`` runs any number
    of them on one thread.
    """

    def __init__(
        self,
        config: FdrConfig,
        duration_s: int,
        seed: str = "live",
        connect_attempts: int = 5,
        connect_backoff_s: float = 0.5,
    ):
        self.config = config
        self.duration_s = duration_s
        self.seed = seed
        self.connect_attempts = connect_attempts
        self.connect_backoff_s = connect_backoff_s
        self.frames_generated = 0
        self.frames_sent = 0
        self.failed_reason: Optional[str] = None

    def _connect(self):
        """Dial, waiting between attempts; a generator like ``steps``
        that returns the socket, or None once every attempt failed."""
        last_err = None
        for attempt in range(self.connect_attempts):
            if attempt:
                yield time.time() + self.connect_backoff_s * attempt
            try:
                sock = socket.create_connection(
                    (self.config.host, self.config.port), timeout=5.0
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError as err:
                last_err = err
        self.failed_reason = f"connect to {self.config.host}:{self.config.port} failed: {last_err}"
        log.error("device %d: %s", self.config.device_id, self.failed_reason)
        return None

    def steps(self):
        """Stream frames until the duration elapses, as a generator: it
        yields each instant (``time.time()`` seconds) it waits for, and
        returns True when every frame was sent."""
        sock = yield from self._connect()
        if sock is None:
            return False
        epoch_ms = next_grid_ms(time.time() * 1000.0 + GRID_MS)
        gen = SignalGenerator(
            self.config.signal,
            epoch_ms,
            random.Random(f"{self.seed}:dev{self.config.device_id}:signal"),
        )
        total = self.duration_s * 1000 // GRID_MS
        try:
            for k in range(total):
                target_ms = epoch_ms + k * GRID_MS
                yield target_ms / 1000.0
                self.frames_generated += 1
                frame = gen.measure(self.config.device_id, self.frames_generated, target_ms)
                if self.config.t_fdr_ms:
                    yield time.time() + self.config.t_fdr_ms / 1000.0
                if sock is None:
                    sock = yield from self._connect()
                    if sock is None:
                        return False  # persistent failure: report offline
                try:
                    sock.sendall(encode_frame(frame))
                    self.frames_sent += 1
                except OSError as err:
                    log.warning("device %d: send failed (%s)", self.config.device_id, err)
                    sock.close()
                    sock = None  # redial before the next frame
        finally:
            if sock is not None:
                sock.close()
        return self.frames_sent == total


def emulate(emulators: list) -> list:
    """Run every emulator from one loop on this thread; returns what
    each one's ``steps`` returned.

    The loop keeps one deadline per device on a heap: a grid tick, a
    t_fdr_ms send delay or a redial backoff.  It sleeps until the
    earliest and runs that device up to its next wait.  A dial or a
    send blocks the loop for as long as it takes, up to the socket's
    5 s timeout.
    """
    outcomes = [None] * len(emulators)
    # (deadline, index, steps): the index breaks ties, so steps are never
    # compared; a list in order is a heap
    heap = [(0.0, k, emu.steps()) for k, emu in enumerate(emulators)]
    try:
        while heap:
            deadline, k, steps = heap[0]
            delay = deadline - time.time()
            if delay > 0:
                time.sleep(delay)
            try:
                heapq.heapreplace(heap, (next(steps), k, steps))
            except StopIteration as done:
                heapq.heappop(heap)
                outcomes[k] = done.value
    finally:
        for _, _, steps in heap:
            steps.close()  # closes the device's socket
    return outcomes
