"""Request arrival generation.

Each placed partition receives an independent Poisson stream at its
``served_rate``: probabilistically splitting a service's Poisson process
across its partitions in proportion to routed rate is exactly equivalent to
a weighted random router in front of the fleet, and keeps the simulator
free of a global routing bottleneck.
"""

from __future__ import annotations

import math

import numpy as np


def poisson_arrivals(
    rate: float, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival times (seconds, ascending) of a Poisson process on [0, duration).

    Vectorized: draws ~``rate*duration`` exponential gaps in one shot and
    tops up in the rare case the cumulative sum falls short.

    Every gap is clipped to ``duration`` before the sum.  A clipped gap
    was at least ``duration`` long, so every arrival from it on lies past
    the window either way, and the arrivals before it keep their bits;
    but the sum stays below ``n * duration``, so a rate so small that its
    gaps near the float maximum cannot overflow it.
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if rate == 0 or duration <= 0:
        return np.empty(0, dtype=np.float64)
    expected = rate * duration
    n = int(expected + 4.0 * np.sqrt(expected) + 16)
    gaps = rng.exponential(1.0 / rate, size=n)
    times = np.cumsum(np.minimum(gaps, duration, out=gaps))
    while times[-1] < duration:  # pragma: no cover - statistically rare
        extra = rng.exponential(1.0 / rate, size=max(16, n // 4))
        np.minimum(extra, duration, out=extra)
        times = np.concatenate([times, times[-1] + np.cumsum(extra)])
    return times[times < duration]


def uniform_arrivals(rate: float, duration: float) -> np.ndarray:
    """Deterministic evenly-spaced arrivals (closed-loop load generator).

    The request count is ``rate * duration`` rounded half-up: truncating
    (the previous behaviour) silently under-generated load — a fractional
    expectation of 0.99 produced an effective rate up to a full request/s
    low, and a segment with ``0 < rate * duration < 1`` received zero
    traffic even though it was provisioned for some.
    """
    n = uniform_count(rate, duration)
    return (np.arange(n, dtype=np.float64) + 0.5) / rate


def uniform_count(rate: float, duration: float) -> int:
    """How many arrivals :func:`uniform_arrivals` generates; arrival
    ``i`` is at ``(i + 0.5) / rate``."""
    if rate <= 0 or duration <= 0:
        return 0
    return int(math.floor(rate * duration + 0.5))
