"""Unit tests for arrival generation."""

import numpy as np
import pytest

from repro.sim.arrivals import poisson_arrivals, uniform_arrivals


class TestPoisson:
    def test_rate_matches(self):
        rng = np.random.default_rng(0)
        times = poisson_arrivals(1000.0, 10.0, rng)
        assert len(times) == pytest.approx(10000, rel=0.05)

    def test_sorted_and_bounded(self):
        rng = np.random.default_rng(1)
        times = poisson_arrivals(500.0, 2.0, rng)
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0
        assert times[-1] < 2.0

    def test_zero_rate(self):
        rng = np.random.default_rng(0)
        assert len(poisson_arrivals(0.0, 10.0, rng)) == 0

    def test_negative_rate_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_arrivals(-1.0, 1.0, rng)

    def test_reproducible(self):
        a = poisson_arrivals(100.0, 1.0, np.random.default_rng(7))
        b = poisson_arrivals(100.0, 1.0, np.random.default_rng(7))
        assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate", [1e-307, 1e-300, 5e-324])
    def test_vanishing_rate_is_empty_without_overflow(self, rate):
        # Gaps near the float maximum used to overflow the cumulative sum
        # (numpy warned "overflow encountered in accumulate").
        times = poisson_arrivals(rate, 1.0, np.random.default_rng(0))
        assert times.dtype == np.float64
        assert len(times) == 0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "rate, duration",
        [(1000.0, 2.0), (3.5, 0.4), (0.25, 1.0), (1e-3, 5.0), (40.0, 0.05)],
    )
    def test_draws_unchanged_by_gap_clipping(self, seed, rate, duration):
        # The unclipped sum, for rates it cannot overflow: clipping gaps
        # to the window moves no arrival and no later draw.
        ref_rng = np.random.default_rng(seed)
        expected = rate * duration
        n = int(expected + 4.0 * np.sqrt(expected) + 16)
        ref = np.cumsum(ref_rng.exponential(1.0 / rate, size=n))
        while ref[-1] < duration:
            extra = ref_rng.exponential(1.0 / rate, size=max(16, n // 4))
            ref = np.concatenate([ref, ref[-1] + np.cumsum(extra)])
        rng = np.random.default_rng(seed)
        times = poisson_arrivals(rate, duration, rng)
        assert times.tobytes() == ref[ref < duration].tobytes()
        assert rng.random() == ref_rng.random()

    def test_exponential_gaps(self):
        rng = np.random.default_rng(3)
        times = poisson_arrivals(2000.0, 10.0, rng)
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(1 / 2000.0, rel=0.05)
        assert gaps.std() == pytest.approx(1 / 2000.0, rel=0.1)  # CV ~ 1


class TestUniform:
    def test_exact_count(self):
        assert len(uniform_arrivals(100.0, 2.0)) == 200

    def test_even_spacing(self):
        times = uniform_arrivals(10.0, 1.0)
        assert np.allclose(np.diff(times), 0.1)

    def test_bounded(self):
        times = uniform_arrivals(100.0, 1.0)
        assert times[0] >= 0
        assert times[-1] < 1.0

    def test_degenerate(self):
        assert len(uniform_arrivals(0.0, 1.0)) == 0
        assert len(uniform_arrivals(10.0, 0.0)) == 0

    def test_fractional_expectation_rounds_half_up(self):
        # rate * duration = 21.2 -> 21, but 21.5 and 21.8 -> 22; plain
        # int() truncation under-generated every fractional expectation.
        assert len(uniform_arrivals(10.6, 2.0)) == 21
        assert len(uniform_arrivals(10.75, 2.0)) == 22
        assert len(uniform_arrivals(10.9, 2.0)) == 22

    def test_tiny_rate_still_generates_traffic(self):
        # A segment with 0 < rate*duration < 1 used to receive zero
        # requests; half a request or more now rounds up to one.
        assert len(uniform_arrivals(0.3, 2.0)) == 1
        assert len(uniform_arrivals(0.2, 2.0)) == 0

    def test_effective_rate_error_bounded(self):
        # Rounding half-up keeps the realized count within half a
        # request of the expectation (truncation allowed a full one).
        for rate in (3.3, 10.6, 47.9, 333.7):
            n = len(uniform_arrivals(rate, 2.0))
            assert abs(n - rate * 2.0) <= 0.5
