"""Emulated measurement device: signal synthesis and live mode.

A device produces one frame per 100 ms grid point, stamped with the
grid instant itself.  The synthesized waveform is plumbing, not
physics: nominal frequency plus a slow sine wander, Gaussian noise, and
optional exponentially-decaying step disturbances, with the angle
integrating the frequency deviation.  What matters downstream is the
timing and framing behavior, which is exact.

``LiveEmulator`` streams those frames over a real socket, set by its
id, address and t_fdr_ms; a simulated device, which sends them over
TCP-lite, is ``sim._Device``, set by a ``scenario.DeviceSpec`` and the
scenario's t_fdr_ms.
"""

import heapq
import logging
import math
import random
import time
from dataclasses import dataclass
from typing import Optional

from .frame import FdrFrame, encode_frame

log = logging.getLogger(__name__)

GRID_MS = 100  # frame cadence: 10 samples per second
CONNECT_BACKOFF_S = 0.5  # a live device's wait after its first failed dial, growing linearly


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


class LiveEmulator:
    """Real-socket device for live runs: one TCP client.

    Frames ride the kernel's TCP stack back-to-back; the DCS side
    reassembles them from the byte stream.  Timestamps come from the
    host clock rounded to the 100 ms grid; the signal is the default
    ``SignalModel``.  ``emulate`` runs any number of them on one thread.
    """

    def __init__(
        self,
        device_id: int,
        host: str,
        port: int,
        duration_s: int,
        t_fdr_ms: float,
        connect_attempts: int,
    ):
        self.device_id = device_id
        self.host = host
        self.port = port
        self.t_fdr_ms = t_fdr_ms
        self.duration_s = duration_s
        self.connect_attempts = connect_attempts
        self.frames_generated = 0
        self.frames_sent = 0
        self.failed_reason: Optional[str] = None

    def _connect(self):
        """Dial, waiting between attempts; a generator like ``steps``
        that returns the socket, or None once every attempt failed."""
        import socket  # live commands only: an offline one never loads it

        last_err = None
        for attempt in range(self.connect_attempts):
            if attempt:
                yield time.time() + CONNECT_BACKOFF_S * attempt
            try:
                sock = socket.create_connection((self.host, self.port), timeout=5.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError as err:
                last_err = err
        self.failed_reason = f"connect to {self.host}:{self.port} failed: {last_err}"
        log.error("device %d: %s", self.device_id, self.failed_reason)
        return None

    def steps(self):
        """Stream frames until the duration elapses, as a generator: it
        yields each instant (``time.time()`` seconds) it waits for, and
        returns True when every frame was sent.  Once its first dial is
        up it yields None, and is sent the grid epoch of its first
        frame."""
        sock = yield from self._connect()
        if sock is None:
            return False
        total = self.duration_s * 1000 // GRID_MS
        try:
            epoch_ms = yield None
            # the default model has no noise, so nothing draws from the rng
            gen = SignalGenerator(SignalModel(), epoch_ms, random.Random(0))
            for k in range(total):
                target_ms = epoch_ms + k * GRID_MS
                yield target_ms / 1000.0
                self.frames_generated += 1
                frame = gen.measure(self.device_id, self.frames_generated, target_ms)
                if self.t_fdr_ms:
                    yield time.time() + self.t_fdr_ms / 1000.0
                if sock is None:
                    sock = yield from self._connect()
                    if sock is None:
                        return False  # persistent failure: report offline
                try:
                    sock.sendall(encode_frame(frame))
                    self.frames_sent += 1
                except OSError as err:
                    log.warning("device %d: send failed (%s)", self.device_id, err)
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
    5 s timeout.  Every device dials before the first tick: once none
    is still dialing, each one connected is sent one grid epoch, the
    first grid instant a grid interval after the last dial.
    """
    outcomes = [None] * len(emulators)
    # (deadline, index, steps): the index breaks ties, so steps are never
    # compared; a list in order is a heap
    heap = [(0.0, k, emu.steps()) for k, emu in enumerate(emulators)]
    connected = []  # the entries of the devices dialed in, waiting for the epoch
    # sent at each resume: None while a device is dialing, then the
    # fleet's epoch, which a device reads once, where it yielded None
    epoch_ms = None
    try:
        while heap or connected:
            if not heap:
                epoch_ms = next_grid_ms(time.time() * 1000.0 + GRID_MS)
                heap, connected = sorted(connected), []
            deadline, k, steps = heap[0]
            delay = deadline - time.time()
            if delay > 0:
                time.sleep(delay)
            try:
                wait = steps.send(epoch_ms)
            except StopIteration as done:
                heapq.heappop(heap)
                outcomes[k] = done.value
                continue
            if wait is None:
                connected.append(heapq.heappop(heap))
            else:
                heapq.heapreplace(heap, (wait, k, steps))
    finally:
        for _, _, steps in heap + connected:
            steps.close()  # closes the device's socket
    return outcomes
