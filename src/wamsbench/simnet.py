"""Deterministic discrete-event core and the impaired-channel model.

Simulation time is integer microseconds to keep event ordering exact.
Events scheduled for the same instant dispatch in insertion order.

A channel adds a fixed propagation delay, a serialization term from the
link rate, and a random jitter sample, and may drop a unit outright
with a fixed per-unit probability.  Every random draw comes from a
caller-supplied seeded generator, so identical seeds replay identical
runs.
"""

import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from math import exp, log
from typing import Callable, Optional

US_PER_MS = 1000


class SchedulingError(Exception):
    """Attempt to schedule an event before the current simulation time."""


class Simulator:
    """Event queue plus the simulation clock it drives.

    ``now_us`` is the clock, a plain attribute that only moves while
    events are processed; ties break in insertion order.  The heap holds
    plain ``[fire_us, seq, action, args]`` lists, so ordering is a
    C-level list comparison that never reaches ``action`` because
    ``seq`` is unique, and an event fires as ``action(*args)``, so no
    caller builds a closure per event.  ``schedule`` hands the entry
    back as the cancel handle; canceling (and firing) sets its action
    to None, so a canceled entry stays in the heap as a tombstone and
    is skipped when it surfaces.
    """

    def __init__(self) -> None:
        self.now_us = 0
        self._heap: list = []
        self._seq = 0
        self._tombstones = 0  # canceled entries still in the heap

    def schedule(self, fire_us: int, action: Callable[..., None], *args) -> list:
        """Queue ``action(*args)`` to run at ``fire_us``; returns a cancel
        handle."""
        if fire_us < self.now_us:
            raise SchedulingError(f"fire_us={fire_us} is before now={self.now_us}")
        entry = [fire_us, self._seq, action, args]
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    def schedule_in(self, delay_us: int, action: Callable[..., None], *args) -> list:
        return self.schedule(self.now_us + delay_us, action, *args)

    def cancel(self, handle: list) -> None:
        """Stop a queued event from firing, and let go of its arguments;
        a no-op once it has fired or been canceled."""
        if handle[2] is not None:
            handle[2] = handle[3] = None
            self._tombstones += 1

    def run_until(self, t_end_us: int) -> int:
        """Process every event with fire time <= ``t_end_us``, in order.

        The clock ends at exactly ``t_end_us`` even if the queue drains
        early.  Returns the number of events dispatched.
        """
        if t_end_us < self.now_us:
            raise SchedulingError(f"t_end_us={t_end_us} is before now={self.now_us}")
        heap = self._heap
        processed = 0
        while heap and heap[0][0] <= t_end_us:
            entry = heappop(heap)
            action = entry[2]
            if action is None:
                self._tombstones -= 1
                continue
            entry[2] = None  # fired: a later cancel of this handle is a no-op
            self.now_us = entry[0]
            action(*entry[3])
            processed += 1
        self.now_us = t_end_us
        return processed

    def pending(self) -> int:
        return len(self._heap) - self._tombstones

    def clear(self) -> None:
        """Drop every queued event without running it; the clock stays."""
        self._heap = []
        self._tombstones = 0


@dataclass(frozen=True)
class JitterSpec:
    """Random extra delay per transmitted unit, clamped to a hard cap.

    kind "constant" always yields median_ms; "exponential" draws with
    the given median; "lognormal" draws exp(N(ln median, sigma)).  Every
    sample is clamped to [0, cap_ms].
    """

    kind: str = "constant"
    median_ms: float = 0.0
    sigma: float = 0.0
    cap_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "exponential", "lognormal"):
            raise ValueError(f"unknown jitter kind {self.kind!r}")
        if self.median_ms < 0 or self.cap_ms < 0 or self.sigma < 0:
            raise ValueError("jitter parameters must be non-negative")
        if self.kind == "constant" and self.median_ms > self.cap_ms:
            raise ValueError("constant jitter above cap_ms")
        if self.kind != "constant" and self.median_ms > 0 and self.cap_ms <= 0:
            raise ValueError(f"{self.kind} jitter requires cap_ms > 0")

    def sample(self, rng: random.Random) -> float:
        if self.kind == "constant" or self.median_ms == 0:
            return min(self.median_ms, self.cap_ms)
        if self.kind == "exponential":
            raw = rng.expovariate(math.log(2) / self.median_ms)
        else:
            raw = rng.lognormvariate(math.log(self.median_ms), self.sigma)
        return min(raw, self.cap_ms)

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """A zero-argument draw that returns what ``self.sample(rng)``
        would, call for call, and leaves ``rng`` in the same state.

        The kind, the distribution parameter and the cap are resolved
        once, and a random draw spells out the float operations of
        ``random.Random.expovariate`` and ``lognormvariate`` (the same
        from Python 3.10 through 3.13), so it costs only its calls into
        ``rng.random``.  ``sample`` stays the reference the tests hold
        this to.
        """
        cap = self.cap_ms
        if self.kind == "constant" or self.median_ms == 0:
            value = min(self.median_ms, cap)
            return lambda: value
        uniform = rng.random
        if self.kind == "exponential":
            lambd = math.log(2) / self.median_ms

            def draw() -> float:
                raw = -log(1.0 - uniform()) / lambd
                return cap if cap < raw else raw  # min(raw, cap)

            return draw
        mu, sigma = math.log(self.median_ms), self.sigma
        magic = random.NV_MAGICCONST

        def draw() -> float:
            # normalvariate's Kinderman-Monahan loop, then exp
            while True:
                u1 = uniform()
                u2 = 1.0 - uniform()
                z = magic * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            raw = exp(mu + z * sigma)
            return cap if cap < raw else raw  # min(raw, cap)

        return draw


@dataclass(frozen=True)
class ChannelParams:
    """One direction of the access network, reduced to four knobs.

    t_p_ms is the mean propagation delay, r_ul_bps the link rate used
    for the serialization term, and p_loss an independent per-unit drop
    probability standing in for whatever makes the transport retransmit.
    """

    t_p_ms: float = 0.0
    r_ul_bps: float = 384_000.0
    jitter: JitterSpec = JitterSpec()
    p_loss: float = 0.0

    def __post_init__(self) -> None:
        if self.r_ul_bps <= 0:
            raise ValueError(f"r_ul_bps={self.r_ul_bps} must be positive")
        if self.t_p_ms < 0:
            raise ValueError(f"t_p_ms={self.t_p_ms} must be non-negative")
        if not 0.0 <= self.p_loss <= 1.0:
            raise ValueError(f"p_loss={self.p_loss} outside [0, 1]")


def serialization_ms(len_bytes: int, params: ChannelParams) -> float:
    return 8.0 * len_bytes / params.r_ul_bps * 1000.0


def transit_delay(len_bytes: int, params: ChannelParams, rng: random.Random) -> float:
    """Delay in ms for one unit of ``len_bytes``: propagation plus
    serialization plus one jitter draw."""
    if len_bytes <= 0:
        raise ValueError(f"len_bytes={len_bytes} must be positive")
    return params.t_p_ms + serialization_ms(len_bytes, params) + params.jitter.sample(rng)


def should_drop(params: ChannelParams, rng: random.Random) -> bool:
    """True with probability p_loss, independently per call."""
    if params.p_loss == 0.0:
        return False
    return rng.random() < params.p_loss


class Link:
    """Channel endpoint that also serializes back-to-back units in order.

    A unit entering a busy link waits for the previous unit's
    serialization to finish, so two segments of one split frame occupy
    the link sequentially instead of overlapping.  Loss is decided at
    entry; a dropped unit still occupies the link (loss is downstream).
    """

    def __init__(self, sim: Simulator, params: ChannelParams, rng: random.Random):
        self.sim = sim
        self.rng = rng
        self.params = params
        self._free_at_us = 0
        # the per-unit constants, resolved once, not on every transmit
        self._ser_us: dict = {}  # unit bytes -> serialization us
        self._jitter = params.jitter.sampler(rng)

    def transmit(self, serialized_bytes: int) -> Optional[int]:
        """Place one unit on the link; returns its arrival time in us,
        or None when the channel drops it."""
        # serialization_ms, should_drop and transit_delay, inlined on
        # the per-segment path
        params = self.params
        now_us = self.sim.now_us
        entry_us = now_us if now_us > self._free_at_us else self._free_at_us
        ser_us = self._ser_us.get(serialized_bytes)
        if ser_us is None:
            ser_us = round(8.0 * serialized_bytes / params.r_ul_bps * 1000.0 * US_PER_MS)
            self._ser_us[serialized_bytes] = ser_us
        self._free_at_us = entry_us + ser_us
        if params.p_loss != 0.0 and self.rng.random() < params.p_loss:
            return None
        return entry_us + ser_us + round((params.t_p_ms + self._jitter()) * US_PER_MS)
