"""The control plane's single wall-clock tap.

Everything in :mod:`repro.obs` is deterministic by default: spans and
metrics carry scenario instants, and wall-clock *durations* appear only
as sidecar fields that are pinned to ``0.0`` unless a hub was built
with this module's :func:`wall_seconds`.  The live serve clock
(:class:`repro.serve.realclock.MonotonicClock`) reads time here too, so
span walls and the gateway's deadline stopwatch share one clock.
Keeping the one real clock read here makes ``repro.obs`` and
``repro.serve`` auditable: this file is on the repro-lint D002
allowlist; nothing else in either package may read the wall clock.
"""

from __future__ import annotations

import time


def wall_seconds() -> float:
    """Monotonic wall-clock seconds (``time.monotonic()``).

    Values from here must never reach fingerprinted state — they are
    the "second track" of the two-track clock API (see
    ``docs/observability.md``): sidecar durations, and the live serve
    clock's scenario time and deadline stopwatch.
    """
    return time.monotonic()
