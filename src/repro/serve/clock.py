"""Scenario clocks: one gateway loop, two notions of time.

The serve gateway never reads the wall clock directly.  It asks a
:class:`Clock` for the current *scenario* time (seconds since the run
began, the unit every :class:`~repro.ops.events.OpsEvent` is stamped
in) and for a *work-seconds* stopwatch (real elapsed seconds, the unit
the deadline budget is spent in).  Swapping the clock swaps the
execution regime without touching the loop:

- :class:`~repro.serve.realclock.MonotonicClock` — live mode.  Scenario
  time tracks the monotonic wall clock (optionally scaled), sleeps
  really sleep, and ``work_seconds()`` measures real compute — so the
  deadline scheduler can observe lag and defer full re-plans.
- :class:`VirtualClock` — deterministic replay.  Scenario time moves
  only when the loop advances it, sleeps return immediately, and
  ``work_seconds()`` is frozen at ``0.0`` — the deadline scheduler
  never observes lag, so the gateway reduces to a pure driver over
  :meth:`FleetController.step() <repro.ops.controller.FleetController.step>`
  and replays any recorded timeline bit-identically to the offline
  reference.

``VirtualClock`` lives here; the real clock lives in
:mod:`repro.serve.realclock`, the only serve module that reads the wall
clock — through :func:`repro.obs.wallclock.wall_seconds`, the one file
the repro-lint D002 allowlist lets the control plane read it in.
"""

from __future__ import annotations

import asyncio
from abc import ABC, abstractmethod


class Clock(ABC):
    """Scenario time plus a work stopwatch, behind one interface."""

    #: True when scenario time only moves because the loop advances it
    #: (deterministic replay); False when it tracks the wall clock.
    is_virtual: bool = False

    @abstractmethod
    def now(self) -> float:
        """Current scenario time, in seconds since the run began."""

    @abstractmethod
    async def sleep_until(self, t: float) -> None:
        """Return once scenario time has reached ``t`` (never blocks on a
        past instant)."""

    @abstractmethod
    def work_seconds(self) -> float:
        """Monotonic stopwatch reading in *real* seconds, for budget
        accounting (differences are meaningful, absolute values are not).

        The virtual clock pins this to ``0.0``: a replay spends no
        budget, observes no lag, and therefore never defers — which is
        what makes virtual replay bit-identical to the offline
        controller.
        """


class VirtualClock(Clock):
    """Deterministic scenario time: advances only when told to."""

    is_virtual = True

    def __init__(self, start_s: float = 0.0) -> None:
        if start_s < 0:
            raise ValueError("clock cannot start before t=0")
        self._now = start_s

    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        """Move scenario time forward to ``t`` (backwards is an error)."""
        if t < self._now:
            raise ValueError(
                f"virtual clock cannot move backwards "
                f"({self._now:g} -> {t:g})"
            )
        self._now = t

    async def sleep_until(self, t: float) -> None:
        if t > self._now:
            self.advance_to(t)
        # Yield once so virtual and live runs share the same control-flow
        # shape through the event loop (one suspension per wait).
        await asyncio.sleep(0)

    def work_seconds(self) -> float:
        return 0.0
