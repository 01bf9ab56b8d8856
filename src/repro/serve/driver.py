"""Scripted drivers: steering a live gateway session.

A :class:`ScriptedDriver` turns a prepared timeline into a *stream*:
each event is emitted when the session clock reaches its stamp, which
is how the flash-crowd demo (scenario S16) steers a live gateway in
session time.  The driver remembers exactly what it sent
(:attr:`ScriptedDriver.sent`).  The session's own record is the
gateway's write-ahead journal (:mod:`repro.serve.journal`): it holds
every admitted event in the wire format, whatever the source, and
``serve --journal DIR --check-offline`` replays it through the
virtual-clock gateway against the offline controller.
"""

from __future__ import annotations

from typing import AsyncIterator, Iterable

from repro.ops.events import OpsEvent, timeline_key
from repro.serve.clock import Clock


class ScriptedDriver:
    """Replays a prepared timeline as a live stream, paced by a clock."""

    def __init__(self, events: Iterable[OpsEvent]) -> None:
        self.events: tuple[OpsEvent, ...] = tuple(
            sorted(events, key=timeline_key)
        )
        #: what was actually emitted, in emission order
        self.sent: list[OpsEvent] = []

    def source(self, clock: Clock) -> AsyncIterator[OpsEvent]:
        """The event stream a gateway consumes, paced by ``clock``."""
        return self._emit(clock)

    async def _emit(self, clock: Clock) -> AsyncIterator[OpsEvent]:
        for event in self.events:
            await clock.sleep_until(event.time_s)
            self.sent.append(event)
            yield event
