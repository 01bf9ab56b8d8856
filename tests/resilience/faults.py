"""Seeded fault plans: break the infrastructure on purpose.

The determinism contract makes resilience claims cheap to *verify*
(recovered must be bit-identical to uninterrupted), but only if the
failure paths actually run.  This module injects the infrastructure
faults the control plane claims to survive:

- **journal truncation/corruption** — :func:`truncate_journal` tears the
  final write off a segment (the crash-mid-append case recovery must
  tolerate), :func:`corrupt_journal` flips a bit mid-segment (which
  replay must *count*, not silently absorb);
- **source stalls** — :func:`stalling_source_factory` builds intake
  sources that die mid-stream, for the gateway's retry/backoff ladder;
- **run-record bit-flips and torn writes** — :func:`flip_bit` damages
  one bit of a file and :func:`truncate_tail` tears its end off; the
  per-line checksums of :mod:`repro.ops.checkpoint` must catch the
  first, and resume must drop a torn final line.

Every fault site is drawn from a seeded ``random.Random`` stream —
two runs of one plan inject identically.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Any, AsyncIterator, Callable, Sequence

# --------------------------------------------------------------------- #
# file faults: run records and journal segments
# --------------------------------------------------------------------- #


def flip_bit(path: str | Path, *, seed: int = 0) -> int:
    """Flip one seeded-random bit of ``path``; returns the byte offset.

    The canonical file-corruption fault: exactly one bit differs,
    which only a real checksum (not a length or version check) catches.
    """
    target = Path(path)
    data = bytearray(target.read_bytes())
    if not data:
        raise ValueError(f"cannot flip a bit of empty file {target}")
    rng = random.Random(f"flip:{seed}")
    offset = rng.randrange(len(data))
    data[offset] ^= 1 << rng.randrange(8)
    target.write_bytes(bytes(data))
    return offset


def truncate_tail(path: str | Path, nbytes: int) -> int:
    """Chop ``nbytes`` off the end of ``path`` (a torn final write).

    Returns the new size.  Truncating more than the file holds leaves
    an empty file — the crash-before-first-flush case.
    """
    target = Path(path)
    size = target.stat().st_size
    new_size = max(0, size - nbytes)
    os.truncate(target, new_size)
    return new_size


def truncate_journal(dir_path: str | Path, nbytes: int = 16) -> Path:
    """Tear ``nbytes`` off the journal's *last* segment (crash mid-append)."""
    segment = _last_segment(dir_path)
    truncate_tail(segment, nbytes)
    return segment


def corrupt_journal(dir_path: str | Path, *, seed: int = 0) -> Path:
    """Flip a bit somewhere in the journal's last segment."""
    segment = _last_segment(dir_path)
    flip_bit(segment, seed=seed)
    return segment


def _last_segment(dir_path: str | Path) -> Path:
    from repro.serve.journal import journal_segments

    segments = journal_segments(dir_path)
    if not segments:
        raise ValueError(f"no journal segments under {dir_path}")
    return segments[-1]


# --------------------------------------------------------------------- #
# source stalls
# --------------------------------------------------------------------- #


def stalling_source_factory(
    events: Sequence[Any],
    *,
    fail_after: int,
    failures: int = 1,
    exc_type: type[Exception] = ConnectionError,
) -> Callable[[], AsyncIterator[Any]]:
    """A source factory whose first ``failures`` streams die mid-flight.

    Each construction yields ``events`` from the start; the first
    ``failures`` constructions raise ``exc_type`` after ``fail_after``
    events.  Built for :func:`repro.serve.sources.resilient_source`,
    which restarts the factory and skips what was already delivered —
    so the recovered stream is exactly ``events``, once.
    """
    if fail_after < 0:
        raise ValueError("fail_after must be >= 0")
    state = {"constructions": 0}

    def factory() -> AsyncIterator[Any]:
        construction = state["constructions"]
        state["constructions"] += 1

        async def source() -> AsyncIterator[Any]:
            for n, event in enumerate(events):
                if construction < failures and n >= fail_after:
                    raise exc_type(
                        f"injected source stall after {n} events "
                        f"(construction {construction})"
                    )
                yield event

        return source()

    return factory
