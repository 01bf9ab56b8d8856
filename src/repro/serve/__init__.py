"""Live-serving gateway: the FleetController as an async control plane.

Everything offline in this repo replays pre-merged timelines; this
package is the live half the paper's SIII-F re-planning story implies —
a long-running asyncio loop that consumes events as they surface,
re-plans incrementally under a wall-clock deadline budget, and serves
the :class:`~repro.ops.report.OpsReport` while it grows:

- :mod:`repro.serve.clock` / :mod:`repro.serve.realclock` — scenario
  time behind one interface: a deterministic
  :class:`~repro.serve.clock.VirtualClock` for bit-identical replay and
  a :class:`~repro.serve.realclock.MonotonicClock` for live sessions
  (the only serve module that reads the wall clock, through
  :func:`repro.obs.wallclock.wall_seconds`);
- :mod:`repro.serve.sources` — pluggable event sources (in-memory
  timelines, recorded JSONL sessions, line-delimited JSON streams) and
  the wire codec;
- :mod:`repro.serve.intake` — the ordered intake queue
  (:func:`~repro.ops.events.timeline_key` semantics over a live
  stream);
- :mod:`repro.serve.journal` — the write-ahead journal: admitted
  events are persisted in wire format before use; it is the one record
  a session leaves, so a crashed session replays bit-identically
  (:func:`~repro.serve.journal.replay_journal`);
- :mod:`repro.serve.gateway` — the
  :class:`~repro.serve.gateway.ServeGateway` control loop, its deadline
  scheduler, and the replay-identity helpers;
- :mod:`repro.serve.status` — the local HTTP status surface (imported
  on first access: only a live ``parvagpu serve`` starts it);
- :mod:`repro.serve.driver` — scripted drivers for steering live
  sessions (the S16 flash-crowd demo).

The identity contract: under the virtual clock the gateway's report is
bit-identical to ``FleetController.run`` on the same timeline —
:func:`~repro.serve.gateway.replay_identity_checked` asserts it, the
property suite fuzzes it, and CI runs it fatally on an S12 slice.
"""

from typing import TYPE_CHECKING

from repro import _lazy
from repro.serve.clock import Clock, VirtualClock
from repro.serve.driver import ScriptedDriver
from repro.serve.gateway import (
    GatewayHealth,
    ServeGateway,
    replay_gateway,
    replay_identity_checked,
)
from repro.serve.intake import IntakeItem, IntakeQueue
from repro.serve.journal import (
    Journal,
    JournalRecovery,
    JournalStats,
    journal_segments,
    read_journal,
    replay_journal,
)
from repro.serve.realclock import MonotonicClock
from repro.serve.sources import (
    EVENT_TYPES,
    decode_event,
    encode_event,
    event_from_doc,
    event_to_doc,
    jsonl_source,
    resilient_source,
    stream_source,
    timeline_source,
)

if TYPE_CHECKING:
    from repro.serve.status import StatusServer

#: The HTTP status surface is started only by ``parvagpu serve``.
_LAZY: _lazy.LazyTable = {"repro.serve.status": ("StatusServer",)}

__all__ = [
    "Clock",
    "VirtualClock",
    "MonotonicClock",
    "IntakeItem",
    "IntakeQueue",
    "ServeGateway",
    "GatewayHealth",
    "replay_gateway",
    "replay_identity_checked",
    "StatusServer",
    "ScriptedDriver",
    "EVENT_TYPES",
    "event_to_doc",
    "event_from_doc",
    "encode_event",
    "decode_event",
    "timeline_source",
    "jsonl_source",
    "stream_source",
    "resilient_source",
    "Journal",
    "JournalStats",
    "JournalRecovery",
    "journal_segments",
    "read_journal",
    "replay_journal",
]


def __getattr__(name: str) -> object:
    return _lazy.load(__name__, globals(), _LAZY, name)


def __dir__() -> list[str]:
    return _lazy.names(globals(), _LAZY)
