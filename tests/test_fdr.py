"""Device emulation checks: waveform synthesis and the 100 ms grid.

The disturbance-decay and angle-integration assertions use closed-form
values computed here, not the generator's own arithmetic.
"""

import math
import random

import pytest

from wamsbench.fdr import (
    GRID_MS,
    DisturbanceEvent,
    SignalGenerator,
    SignalModel,
    next_grid_ms,
)

EPOCH = 1_700_000_000_000  # grid-aligned UTC ms


def make_gen(model, seed=1, epoch=EPOCH):
    return SignalGenerator(model, epoch, random.Random(seed))


class TestSignalGenerator:
    def test_flat_model_holds_nominal_values(self):
        gen = make_gen(SignalModel(f_nominal=50.0))
        for k in range(200):
            frame = gen.measure(1, k + 1, EPOCH + k * GRID_MS)
            assert frame.frequency == 50.0
            assert frame.voltage_mag == 1.0
            assert frame.voltage_angle == 0.0

    def test_100_frames_span_9900_ms(self):
        gen = make_gen(SignalModel())
        stamps = [gen.measure(1, k + 1, EPOCH + k * GRID_MS).utc_timestamp for k in range(100)]
        assert stamps[-1] - stamps[0] == 9_900
        assert all(b - a == GRID_MS for a, b in zip(stamps, stamps[1:]))

    def test_disturbance_decays_exponentially(self):
        t0 = EPOCH + 5_000
        model = SignalModel(
            f_nominal=50.0,
            disturbances=(DisturbanceEvent(at_utc_ms=t0, step_hz=-0.2, tau_s=10.0),),
        )
        gen = make_gen(model)
        assert gen.frequency_at(t0 - GRID_MS) == 50.0  # not yet active
        assert gen.frequency_at(t0) == pytest.approx(50.0 - 0.2)
        # one time constant later the step has shrunk by e^-1
        assert gen.frequency_at(t0 + 10_000) == pytest.approx(50.0 - 0.2 * math.exp(-1.0))

    def test_wander_peaks_at_quarter_period(self):
        model = SignalModel(f_nominal=50.0, f_wander_amp=0.05, f_wander_period_s=60.0)
        gen = make_gen(model)
        assert gen.frequency_at(EPOCH + 15_000) == pytest.approx(50.05)

    def test_angle_integrates_frequency_deviation(self):
        # near-constant +0.5 Hz offset: 0.5 Hz * 0.1 s * 360 deg = 18 deg per tick
        model = SignalModel(
            f_nominal=50.0,
            disturbances=(DisturbanceEvent(at_utc_ms=EPOCH, step_hz=0.5, tau_s=1e9),),
        )
        gen = make_gen(model)
        angles = [gen.measure(1, k + 1, EPOCH + k * GRID_MS).voltage_angle for k in range(4)]
        assert angles == pytest.approx([0.0, 18.0, 36.0, 54.0], abs=1e-6)

    def test_angle_stays_in_half_open_range(self):
        model = SignalModel(
            f_nominal=50.0,
            noise_sigma=0.5,
            disturbances=(DisturbanceEvent(at_utc_ms=EPOCH, step_hz=4.9, tau_s=1e9),),
        )
        gen = make_gen(model)
        for k in range(500):
            frame = gen.measure(1, k + 1, EPOCH + k * GRID_MS)
            assert -180.0 <= frame.voltage_angle < 180.0

    def test_noise_is_deterministic_per_seed(self):
        model = SignalModel(noise_sigma=0.01)
        a = [make_gen(model, seed="s").measure(1, k + 1, EPOCH + k * GRID_MS) for k in range(50)]
        b = [make_gen(model, seed="s").measure(1, k + 1, EPOCH + k * GRID_MS) for k in range(50)]
        assert a == b

    def test_off_grid_timestamp_rejected(self):
        gen = make_gen(SignalModel())
        with pytest.raises(ValueError):
            gen.measure(1, 1, EPOCH + 50)

    def test_next_grid_ms(self):
        assert next_grid_ms(EPOCH) == EPOCH
        assert next_grid_ms(EPOCH + 1) == EPOCH + GRID_MS
        assert next_grid_ms(EPOCH + 99.9) == EPOCH + GRID_MS
