"""Sample-size math against independent statistical oracles."""

import math
import statistics
import sys

import pytest
import scipy.stats
from hypothesis import given, strategies as st

from wamsbench.stats import (
    SampleSizeInputs,
    combined_min,
    min_sample_size,
    presample_std,
    random_sample,
    required_samples,
    z_for_confidence,
)


class TestPresampleStd:
    def test_hand_arithmetic_pins_the_population_divisor(self):
        # mean 2, squared deviations 1 and 1, divided by N=2
        assert presample_std([1, 3]) == 1.0

    def test_constant_series_has_no_spread(self):
        assert presample_std([4.2] * 10) == 0.0

    def test_divisor_is_n_not_n_minus_1(self):
        series = [1.0, 2.0, 3.0]
        assert presample_std(series) == math.sqrt(2.0 / 3.0)
        assert presample_std(series) != statistics.stdev(series)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            presample_std([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50), st.floats(-1e6, 1e6))
    def test_shift_invariance(self, series, offset):
        shifted = presample_std([x + offset for x in series])
        assert shifted == pytest.approx(presample_std(series), abs=1e-6)


class TestMinSampleSize:
    def test_delay_figure(self):
        n = min_sample_size(SampleSizeInputs(s=0.908, z=1.959, e=0.02, n_t=86400))
        assert n == pytest.approx(7246.63, abs=0.01)
        assert required_samples(SampleSizeInputs(s=0.908, z=1.959, e=0.02, n_t=86400)) == 7247

    def test_throughput_figure(self):
        n = min_sample_size(SampleSizeInputs(s=0.186, z=1.959, e=0.02, n_t=86400))
        assert n == pytest.approx(330.65, abs=0.01)

    def test_zero_spread_needs_no_samples(self):
        assert min_sample_size(SampleSizeInputs(s=0.0, z=1.959, e=0.02, n_t=86400)) == 0.0

    def test_infinite_population_limit(self):
        inputs = SampleSizeInputs(s=0.5, z=1.959, e=0.01, n_t=10**9)
        uncorrected = (1.959 * 0.5 / 0.01) ** 2
        assert abs(min_sample_size(inputs) - uncorrected) / uncorrected < 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s=-0.1, z=1.959, e=0.02, n_t=100),
            dict(s=0.1, z=0.0, e=0.02, n_t=100),
            dict(s=0.1, z=1.959, e=0.0, n_t=100),
            dict(s=0.1, z=1.959, e=0.02, n_t=0),
        ],
    )
    def test_invariants_enforced(self, kwargs):
        with pytest.raises(ValueError):
            SampleSizeInputs(**kwargs)

    def test_spread_whose_square_overflows_is_refused(self):
        # z^2 s^2 is inf, and inf / inf would make the minimum NaN
        with pytest.raises(ValueError, match="^s=1e\\+200 is too large"):
            SampleSizeInputs(s=1e200, z=1.959, e=0.02, n_t=86400)
        # a spread whose z^2 s^2 stays finite is still taken
        assert required_samples(SampleSizeInputs(s=1e150, z=1.959, e=0.02, n_t=86400)) == 86400

    def test_error_whose_square_underflows_is_refused(self):
        # e^2 is 0, and with s=0 the minimum would be 0 / 0
        assert 1e-200 * 1e-200 == 0.0
        for s in (0.0, 1.0):
            with pytest.raises(ValueError, match="^e=1e-200 is too small: e\\^2 underflows to 0$"):
                SampleSizeInputs(s=s, z=1.959, e=1e-200, n_t=86400)
        # an error whose square is a subnormal is still taken
        assert min_sample_size(SampleSizeInputs(s=0.0, z=1.959, e=1e-160, n_t=86400)) == 0.0

    def test_population_that_overflows_a_double_is_refused(self):
        # min_sample_size divides by n_t, which would raise OverflowError
        for s in (0.0, 1.0):
            with pytest.raises(ValueError, match=f"^n_t={10**309} is too large: n_t overflows a double$"):
                SampleSizeInputs(s=s, z=1.959, e=0.02, n_t=10**309)
        # the largest population that converts is still taken
        largest = int(sys.float_info.max)
        assert required_samples(SampleSizeInputs(s=1.0, z=1.959, e=0.02, n_t=largest)) == 9595

    @given(
        s=st.floats(0.001, 100.0),
        bigger=st.floats(1.001, 4.0),
        e=st.floats(0.001, 10.0),
    )
    def test_monotone_in_spread_and_error(self, s, bigger, e):
        base = min_sample_size(SampleSizeInputs(s=s, z=1.959, e=e, n_t=86400))
        more_spread = min_sample_size(SampleSizeInputs(s=s * bigger, z=1.959, e=e, n_t=86400))
        looser_error = min_sample_size(SampleSizeInputs(s=s, z=1.959, e=e * bigger, n_t=86400))
        assert more_spread >= base >= looser_error

    @given(s=st.floats(0.0, 100.0), e=st.floats(0.001, 10.0), n_t=st.integers(1, 10**6))
    def test_cap_never_exceeds_population(self, s, e, n_t):
        assert 0 <= required_samples(SampleSizeInputs(s=s, z=1.959, e=e, n_t=n_t)) <= n_t


class TestCombination:
    def test_experiment_serves_the_hungriest_metric(self):
        assert combined_min([7246.63, 330.65]) == 7246.63

    def test_single_metric_passes_through(self):
        assert combined_min([42.0]) == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combined_min([])

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=10))
    def test_result_dominates_every_input(self, sizes):
        result = combined_min(sizes)
        assert all(result >= size for size in sizes)


class TestRandomSample:
    def test_full_population_draw_is_everything(self):
        assert random_sample(10, 10, seed="x") == list(range(10))

    def test_draws_are_distinct_sorted_and_deterministic(self):
        a = random_sample(86400, 8000, seed="pick-1")
        b = random_sample(86400, 8000, seed="pick-1")
        assert a == b == sorted(set(a))
        assert len(a) == 8000
        assert all(0 <= i < 86400 for i in a)

    def test_oversized_draw_rejected(self):
        with pytest.raises(ValueError):
            random_sample(5, 6, seed="x")

    def test_uniform_inclusion_frequency(self):
        # every index of 100 should land in a 10-element draw about 10%
        # of the time; bound the discrepancy by the chi-square 99%
        # quantile at 99 degrees of freedom
        counts = [0] * 100
        draws = 10_000
        for k in range(draws):
            for idx in random_sample(100, 10, seed=f"freq-{k}"):
                counts[idx] += 1
        expected = draws * 10 / 100
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < scipy.stats.chi2.ppf(0.99, 99)


class TestZTable:
    def test_tabulated_values(self):
        assert z_for_confidence(0.90) == 1.645
        assert z_for_confidence(0.95) == 1.959  # truncated table figure, kept verbatim
        assert z_for_confidence(0.99) == 2.576

    def test_against_normal_quantiles(self):
        # two-sided: the 0.90 and 0.99 entries match the standard normal
        # to the table's three decimals; 0.95 is the one deliberate
        # truncation (1.95996 rounds to 1.960)
        assert z_for_confidence(0.90) == pytest.approx(scipy.stats.norm.ppf(0.95), abs=5e-4)
        assert z_for_confidence(0.99) == pytest.approx(scipy.stats.norm.ppf(0.995), abs=5e-4)
        assert z_for_confidence(0.95) == pytest.approx(scipy.stats.norm.ppf(0.975), abs=1e-3)

    def test_untabulated_level_is_an_error(self):
        with pytest.raises(ValueError) as err:
            z_for_confidence(0.50)
        assert "0.90" in str(err.value)
