"""Scenario clocks: virtual determinism vs the scaled monotonic clock."""

import asyncio

import pytest

from repro.serve import MonotonicClock, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero_and_is_virtual(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        assert clock.is_virtual

    def test_custom_start(self):
        assert VirtualClock(start_s=42.0).now() == 42.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="before t=0"):
            VirtualClock(start_s=-1.0)

    def test_advance_moves_time(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        assert clock.now() == 10.0
        clock.advance_to(10.0)  # same instant is fine
        assert clock.now() == 10.0

    def test_advance_backwards_rejected(self):
        clock = VirtualClock(start_s=5.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(1.0)

    def test_sleep_until_advances_without_blocking(self):
        clock = VirtualClock()

        async def scenario():
            await clock.sleep_until(100.0)
            return clock.now()

        assert asyncio.run(scenario()) == 100.0

    def test_sleep_until_past_instant_is_noop(self):
        clock = VirtualClock(start_s=50.0)

        async def scenario():
            await clock.sleep_until(10.0)
            return clock.now()

        assert asyncio.run(scenario()) == 50.0

    def test_work_stopwatch_frozen(self):
        """Zero work-seconds is what makes replays never observe lag."""
        clock = VirtualClock()
        clock.advance_to(1e6)
        assert clock.work_seconds() == 0.0


class TestMonotonicClock:
    def test_not_virtual(self):
        assert not MonotonicClock().is_virtual

    def test_time_scale_must_be_positive(self):
        # a NaN scale would make now() NaN, so a session ran unpaced
        for scale in (0.0, -2.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                MonotonicClock(time_scale=scale)

    def test_now_starts_near_zero_and_advances(self):
        clock = MonotonicClock(time_scale=1000.0)
        first = clock.now()
        assert first >= 0.0

        async def scenario():
            await asyncio.sleep(0.01)
            return clock.now()

        later = asyncio.run(scenario())
        assert later > first

    def test_sleep_until_past_instant_returns_immediately(self):
        clock = MonotonicClock(time_scale=1.0)

        async def scenario():
            await clock.sleep_until(0.0)  # already reached

        asyncio.run(scenario())

    def test_sleep_until_reaches_target(self):
        clock = MonotonicClock(time_scale=100.0)

        async def scenario():
            await clock.sleep_until(2.0)  # 2 scenario s = 20 real ms
            return clock.now()

        assert asyncio.run(scenario()) >= 2.0

    def test_work_stopwatch_advances(self):
        clock = MonotonicClock(time_scale=60.0)
        a = clock.work_seconds()
        b = clock.work_seconds()
        assert b >= a
