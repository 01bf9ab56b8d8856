"""The live clock: scenario time backed by the monotonic wall clock.

This is the **only** module in :mod:`repro.serve` that reads the wall
clock, and it reads it through the repository's one wall-clock tap,
:func:`repro.obs.wallclock.wall_seconds` (``time.monotonic()``).
Everything else — the gateway loop, the intake queue, the deadline
scheduler — takes time from the :class:`~repro.serve.clock.Clock`
interface, so the identical code path replays deterministically under a
:class:`~repro.serve.clock.VirtualClock`.
"""

from __future__ import annotations

import asyncio
import math

from repro.obs.wallclock import wall_seconds
from repro.serve.clock import Clock


class MonotonicClock(Clock):
    """Scenario time = scaled monotonic seconds since construction.

    ``time_scale`` is scenario seconds per real second: ``10.0`` runs a
    session ten times faster than real time (a one-hour scenario demos
    in six minutes), ``1.0`` is real time.
    """

    is_virtual = False

    def __init__(self, time_scale: float = 1.0) -> None:
        if not (math.isfinite(time_scale) and time_scale > 0):
            raise ValueError(
                f"time scale must be positive and finite, got {time_scale!r}"
            )
        self.time_scale = time_scale
        self._origin = wall_seconds()

    def now(self) -> float:
        return (wall_seconds() - self._origin) * self.time_scale

    async def sleep_until(self, t: float) -> None:
        delay = (t - self.now()) / self.time_scale
        if delay > 0:
            await asyncio.sleep(delay)

    def work_seconds(self) -> float:
        return wall_seconds()
