"""Time-varying request-rate traces.

The paper's evaluation fixes each scenario's rates, but its deployment
story (SIII-F) exists precisely because real cloud traffic moves: SLOs get
renegotiated and diurnal/bursty load changes the rates the Configurator
must satisfy.  A :class:`RateTrace` describes one service's rate over
time as piecewise-constant epochs; generators below produce the standard
shapes (diurnal sinusoid, step surge, flash crowd).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Epoch:
    """A constant-rate interval of a trace."""

    start_s: float
    rate: float  #: requests/s during the epoch

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.rate < 0:
            raise ValueError("epoch start and rate must be non-negative")


@dataclass(frozen=True)
class RateTrace:
    """Piecewise-constant request rate of one service."""

    service_id: str
    epochs: tuple[Epoch, ...]
    #: precomputed epoch starts for O(log n) lookups; derived, not an input
    _starts: tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not self.epochs:
            raise ValueError("trace needs at least one epoch")
        starts = [e.start_s for e in self.epochs]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("epochs must have strictly increasing starts")
        if self.epochs[0].start_s != 0.0:
            raise ValueError("the first epoch must start at t=0")
        object.__setattr__(self, "_starts", tuple(starts))

    def rate_at(self, t: float) -> float:
        """The trace's rate at absolute time ``t`` (seconds).

        An epoch's start is inclusive: ``rate_at(e.start_s)`` is already
        ``e.rate``.  Binary search over the precomputed starts.
        """
        if t < 0:
            raise ValueError("time must be non-negative")
        return self.epochs[bisect_right(self._starts, t) - 1].rate

    def peak_rate(self) -> float:
        return max(e.rate for e in self.epochs)

    def mean_rate(self, horizon_s: float) -> float:
        """Time-weighted mean rate over ``[0, horizon_s)``."""
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        total = 0.0
        for i, epoch in enumerate(self.epochs):
            if epoch.start_s >= horizon_s:
                break
            end = (
                self.epochs[i + 1].start_s
                if i + 1 < len(self.epochs)
                else horizon_s
            )
            end = min(end, horizon_s)
            total += epoch.rate * (end - epoch.start_s)
        return total / horizon_s


def diurnal_trace(
    service_id: str,
    base_rate: float,
    amplitude: float = 0.5,
    period_s: float = 86_400.0,
    epochs: int = 24,
    phase: float = 0.0,
) -> RateTrace:
    """A sinusoidal day/night pattern sampled into ``epochs`` steps."""
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must be in [0, 1]")
    if epochs < 1:
        raise ValueError("need at least one epoch")
    out = []
    for k in range(epochs):
        t = k * period_s / epochs
        factor = 1.0 + amplitude * math.sin(2 * math.pi * (t / period_s) + phase)
        out.append(Epoch(start_s=t, rate=base_rate * factor))
    return RateTrace(service_id=service_id, epochs=tuple(out))


def surge_trace(
    service_id: str,
    base_rate: float,
    surge_factor: float,
    surge_start_s: float,
    surge_end_s: float,
) -> RateTrace:
    """A step surge: base -> base*factor -> base (a product launch)."""
    if surge_factor <= 0 or not 0 < surge_start_s < surge_end_s:
        raise ValueError("invalid surge shape")
    return RateTrace(
        service_id=service_id,
        epochs=(
            Epoch(0.0, base_rate),
            Epoch(surge_start_s, base_rate * surge_factor),
            Epoch(surge_end_s, base_rate),
        ),
    )
