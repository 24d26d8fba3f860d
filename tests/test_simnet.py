"""Event-queue ordering and channel-delay arithmetic checks.

Closed-form means for the clamped jitter distributions are derived
independently here (erf-based normal CDF for the lognormal case) and
compared against large Monte Carlo samples from the implementation.
"""

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wamsbench.simnet import (
    ChannelParams,
    JitterSpec,
    Link,
    SchedulingError,
    Simulator,
    serialization_ms,
    should_drop,
    transit_delay,
)


def _phi(x: float) -> float:
    # standard normal CDF
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def clamped_lognormal_mean(median: float, sigma: float, cap: float) -> float:
    """E[min(X, cap)] for X ~ LogNormal(ln median, sigma)."""
    mu = math.log(median)
    a = (math.log(cap) - mu - sigma * sigma) / sigma
    b = (math.log(cap) - mu) / sigma
    return math.exp(mu + sigma * sigma / 2.0) * _phi(a) + cap * (1.0 - _phi(b))


def clamped_exponential_mean(median: float, cap: float) -> float:
    """E[min(X, cap)] for X ~ Exp with the given median."""
    lam = math.log(2.0) / median
    return (1.0 - math.exp(-lam * cap)) / lam


class TestSimulator:
    def test_same_time_events_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule(500, lambda t=tag: fired.append(t))
        sim.schedule(100, lambda: fired.append("early"))
        sim.run_until(1000)
        assert fired == ["early", "a", "b", "c"]

    def test_clock_follows_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(250, lambda: seen.append(sim.now_us))
        sim.schedule(750, lambda: seen.append(sim.now_us))
        sim.run_until(750)
        assert seen == [250, 750]
        assert sim.now_us == 750

    def test_run_until_advances_clock_with_empty_queue(self):
        sim = Simulator()
        assert sim.run_until(12345) == 0
        assert sim.now_us == 12345

    def test_events_at_boundary_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(1000, lambda: fired.append(1))
        sim.schedule(1001, lambda: fired.append(2))
        assert sim.run_until(1000) == 1
        assert fired == [1]
        assert sim.run_until(2000) == 1
        assert fired == [1, 2]

    def test_canceled_event_never_fires(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(100, lambda: fired.append("keep"))
        drop = sim.schedule(100, lambda: fired.append("drop"))
        sim.cancel(drop)
        sim.cancel(drop)  # double cancel is a no-op
        sim.run_until(200)
        assert fired == ["keep"]
        assert keep != drop

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run_until(10)
        with pytest.raises(SchedulingError):
            sim.schedule(5, lambda: None)

    def test_run_until_backwards_raises(self):
        sim = Simulator()
        sim.run_until(100)
        with pytest.raises(SchedulingError):
            sim.run_until(99)

    def test_action_may_schedule_at_current_time(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append("first")
            sim.schedule(sim.now_us, lambda: fired.append("second"))

        sim.schedule(50, chain)
        sim.run_until(50)
        assert fired == ["first", "second"]

    def test_pending_tracks_live_events(self):
        sim = Simulator()
        a = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.pending() == 2
        sim.cancel(a)
        assert sim.pending() == 1
        sim.run_until(100)
        assert sim.pending() == 0

    def test_cancel_after_fire_is_a_no_op(self):
        sim = Simulator()
        fired = []
        done = sim.schedule(10, lambda: fired.append("done"))
        sim.schedule(20, lambda: fired.append("later"))
        sim.run_until(10)
        assert sim.pending() == 1
        sim.cancel(done)
        sim.cancel(done)
        assert sim.pending() == 1
        sim.run_until(30)
        assert fired == ["done", "later"]
        assert sim.pending() == 0

    def test_event_canceled_at_the_same_instant_does_not_fire(self):
        sim = Simulator()
        fired = []
        handles = {}

        def first():
            fired.append("first")
            sim.cancel(handles["victim"])

        sim.schedule(100, first)
        handles["victim"] = sim.schedule(100, lambda: fired.append("victim"))
        sim.schedule(100, lambda: fired.append("last"))
        assert sim.run_until(100) == 2
        assert fired == ["first", "last"]
        assert sim.pending() == 0

    def test_same_instant_fifo_survives_cancel_and_reschedule(self):
        sim = Simulator()
        fired = []
        handles = {tag: sim.schedule(500, lambda t=tag: fired.append(t)) for tag in "abcde"}
        # an action given its arguments fires as action(*args)
        handles["f"] = sim.schedule(500, fired.append, "f")
        handles["g"] = sim.schedule(500, fired.append, "g")
        sim.cancel(handles["b"])
        sim.cancel(handles["d"])
        sim.cancel(handles["g"])  # a canceled entry with arguments never fires
        assert handles["g"][3] is None  # nor keeps its arguments alive
        sim.schedule(500, lambda: fired.append("b2"))  # re-scheduled: joins the back
        sim.schedule_in(400, fired.append, "early")
        assert sim.pending() == 6
        sim.run_until(500)
        assert fired == ["early", "a", "c", "e", "f", "b2"]
        assert sim.pending() == 0


class TestJitterSpec:
    def test_constant_returns_median(self):
        spec = JitterSpec("constant", 5.0, 0.0, 10.0)
        rng = random.Random(1)
        assert all(spec.sample(rng) == 5.0 for _ in range(100))

    def test_zero_jitter_default(self):
        rng = random.Random(1)
        assert JitterSpec().sample(rng) == 0.0

    @pytest.mark.parametrize("kind", ["exponential", "lognormal"])
    def test_samples_stay_within_cap(self, kind):
        spec = JitterSpec(kind, 10.0, 0.8, 25.0)
        rng = random.Random(7)
        samples = [spec.sample(rng) for _ in range(5000)]
        assert all(0.0 <= s <= 25.0 for s in samples)
        assert max(samples) == 25.0  # cap actually binds somewhere

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            JitterSpec("uniform", 1.0, 0.0, 5.0)

    def test_rejects_negative_median(self):
        with pytest.raises(ValueError):
            JitterSpec("constant", -1.0, 0.0, 5.0)

    def test_rejects_constant_above_cap(self):
        with pytest.raises(ValueError):
            JitterSpec("constant", 6.0, 0.0, 5.0)

    def test_rejects_random_jitter_without_cap(self):
        with pytest.raises(ValueError):
            JitterSpec("lognormal", 10.0, 0.5, 0.0)

    def test_lognormal_clamped_mean_matches_closed_form(self):
        median, sigma, cap = 20.0, 0.5, 65.0
        spec = JitterSpec("lognormal", median, sigma, cap)
        rng = random.Random(123)
        n = 1_000_000
        samples = [spec.sample(rng) for _ in range(n)]
        expected = clamped_lognormal_mean(median, sigma, cap)
        se = statistics.stdev(samples) / math.sqrt(n)
        assert abs(statistics.fmean(samples) - expected) < 3 * se

    def test_exponential_clamped_mean_matches_closed_form(self):
        median, cap = 15.0, 50.0
        spec = JitterSpec("exponential", median, 0.0, cap)
        rng = random.Random(456)
        n = 1_000_000
        samples = [spec.sample(rng) for _ in range(n)]
        expected = clamped_exponential_mean(median, cap)
        se = statistics.stdev(samples) / math.sqrt(n)
        assert abs(statistics.fmean(samples) - expected) < 3 * se


class TestJitterSampler:
    """JitterSpec.sampler against the reference JitterSpec.sample."""

    @pytest.mark.parametrize(
        "spec,clamps",
        [
            (JitterSpec("constant", 5.0, 0.0, 10.0), False),
            (JitterSpec(), False),
            (JitterSpec("exponential", 10.0, 0.0, 25.0), True),
            (JitterSpec("exponential", 0.0, 0.0, 0.0), False),
            (JitterSpec("lognormal", 10.0, 0.8, 25.0), True),
            (JitterSpec("lognormal", 0.0, 0.5, 0.0), False),
            (JitterSpec("lognormal", 15.0, 0.0, 50.0), False),
        ],
        ids=[
            "constant",
            "default",
            "exponential",
            "exponential-median-0",
            "lognormal",
            "lognormal-median-0",
            "lognormal-sigma-0",
        ],
    )
    def test_draw_for_draw_equal_with_same_rng_state(self, spec, clamps):
        reference, mine = random.Random(2024), random.Random(2024)
        draw = spec.sampler(mine)
        expected = [spec.sample(reference) for _ in range(20_000)]
        assert [draw() for _ in range(20_000)] == expected
        assert mine.getstate() == reference.getstate()
        assert (spec.median_ms > 0 and spec.cap_ms in expected) == clamps

    def test_link_arrivals_match_reference_transmit(self):
        params = ChannelParams(
            t_p_ms=100.0,
            r_ul_bps=384_000.0,
            jitter=JitterSpec("exponential", 15.0, 0.0, 50.0),
            p_loss=0.05,
        )
        sizes = [55, 27, 28, 40] * 2_500
        sim = Simulator()
        link = Link(sim, params, random.Random("link"))
        got = [link.transmit(n) for n in sizes]
        # the channel arithmetic spelled out with the reference draws
        rng, free_at, expected = random.Random("link"), 0, []
        for n in sizes:
            entry, ser = free_at, round(serialization_ms(n, params) * 1000)
            free_at = entry + ser
            if should_drop(params, rng):
                expected.append(None)
            else:
                delay_ms = params.t_p_ms + params.jitter.sample(rng)
                expected.append(entry + ser + round(delay_ms * 1000))
        assert got == expected
        assert link.rng.getstate() == rng.getstate()
        assert None in got


class TestChannelParams:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ChannelParams(r_ul_bps=0)

    def test_rejects_negative_propagation(self):
        with pytest.raises(ValueError):
            ChannelParams(t_p_ms=-1.0)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_rejects_bad_loss(self, p):
        with pytest.raises(ValueError):
            ChannelParams(p_loss=p)

    def test_55_bytes_at_384kbps_serializes_in_1p1458_ms(self):
        # 8 * 55 / 384000 s = 440/384000 s = 1.14583... ms
        params = ChannelParams(t_p_ms=0.0, r_ul_bps=384_000.0)
        oracle_ms = 440.0 / 384_000.0 * 1000.0
        assert abs(serialization_ms(55, params) - oracle_ms) < 1e-9
        assert abs(serialization_ms(55, params) - 1.1458333) < 1e-3

    def test_transit_delay_sums_terms(self):
        params = ChannelParams(
            t_p_ms=100.0,
            r_ul_bps=384_000.0,
            jitter=JitterSpec("constant", 2.0, 0.0, 2.0),
        )
        rng = random.Random(0)
        assert abs(transit_delay(55, params, rng) - (100.0 + 1.1458333 + 2.0)) < 1e-3

    def test_transit_delay_rejects_empty_unit(self):
        with pytest.raises(ValueError):
            transit_delay(0, ChannelParams(), random.Random(0))

    def test_should_drop_extremes(self):
        rng = random.Random(5)
        never = ChannelParams(p_loss=0.0)
        always = ChannelParams(p_loss=1.0)
        assert not any(should_drop(never, rng) for _ in range(1000))
        assert all(should_drop(always, rng) for _ in range(1000))

    def test_loss_rate_near_nominal(self):
        params = ChannelParams(p_loss=0.003)
        rng = random.Random(99)
        n = 1_000_000
        drops = sum(should_drop(params, rng) for _ in range(n))
        assert 0.0025 < drops / n < 0.0035

    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=200, deadline=None)
    def test_serialization_scales_linearly(self, nbytes):
        params = ChannelParams(r_ul_bps=384_000.0)
        assert math.isclose(serialization_ms(nbytes, params), nbytes * 8000.0 / 384_000.0)


class TestLink:
    def _params(self, **kw):
        defaults = dict(t_p_ms=100.0, r_ul_bps=384_000.0)
        defaults.update(kw)
        return ChannelParams(**defaults)

    def test_idle_link_arrival_time(self):
        sim = Simulator()
        link = Link(sim, self._params(), random.Random(1))
        sim.run_until(1_000_000)
        arrival = link.transmit(55)
        # 1146 us serialization (rounded) plus 100 ms propagation
        assert arrival == 1_000_000 + 1146 + 100_000

    def test_back_to_back_units_queue_on_link(self):
        sim = Simulator()
        link = Link(sim, self._params(), random.Random(1))
        first = link.transmit(27)
        second = link.transmit(28)
        ser27 = round(serialization_ms(27, self._params()) * 1000)
        ser28 = round(serialization_ms(28, self._params()) * 1000)
        assert first == ser27 + 100_000
        # second waits for the first to finish serializing
        assert second == ser27 + ser28 + 100_000

    def test_split_frame_total_close_to_unsplit(self):
        params = self._params()
        sim_a, sim_b = Simulator(), Simulator()
        whole = Link(sim_a, params, random.Random(1)).transmit(55)
        link_b = Link(sim_b, params, random.Random(1))
        link_b.transmit(27)
        split = link_b.transmit(28)
        assert abs(whole - split) <= 1  # only integer-us rounding apart

    def test_dropped_unit_still_occupies_link(self):
        sim = Simulator()
        # seed 1's first two draws are 0.134 and 0.847: the first unit is
        # dropped, the second delivered
        link = Link(sim, self._params(p_loss=0.5), random.Random(1))
        assert link.transmit(55) is None
        arrival = link.transmit(55)
        # second unit queued behind the dropped one's serialization slot
        assert arrival == 1146 + 1146 + 100_000

    def test_deterministic_under_same_seed(self):
        params = self._params(
            p_loss=0.1,
            jitter=JitterSpec("lognormal", 10.0, 0.5, 40.0),
        )

        def run():
            sim = Simulator()
            link = Link(sim, params, random.Random(42))
            return [link.transmit(55) for _ in range(500)]

        assert run() == run()
