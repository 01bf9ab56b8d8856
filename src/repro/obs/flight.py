"""The flight recorder: a bounded ring of recent spans and decisions.

A crashing control plane cannot be asked questions, so the hub keeps
the last ``capacity`` observability entries — closed spans plus
explicit decision notes (path choices, safe-mode entries) — in a ring
that costs one deque append per entry: a closed span is kept as the
:class:`Span` itself and rendered only when the ring is read, so no
rendering happens inside the span that encloses it.  When a run record
fails (a write error, or a ``CheckpointError`` on resume) or the gateway
enters safe mode, the ring is dumped to a JSON document (and optionally
to a file) for post-mortem.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from typing import Union

from repro.obs.trace import Span

_PathLike = Union[str, pathlib.Path]

FLIGHT_FORMAT = "parvagpu-flight"
FLIGHT_VERSION = 1


class FlightRecorder:
    """Bounded ring of recent observability entries."""

    def __init__(self, capacity: int = 256, enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.enabled = enabled
        self.dumps = 0
        self.last_dump: dict[str, object] | None = None
        self.last_dump_path: str | None = None
        self._ring: deque[Union[Span, dict[str, object]]] = deque(
            maxlen=capacity
        )

    def note(
        self, kind: str, *, t_s: float = 0.0, **fields: object
    ) -> None:
        """Record one decision (path choice, degradation, ...)."""
        if not self.enabled:
            return
        self._ring.append({"kind": kind, "t_s": t_s, **fields})

    def add_span(self, span: Span) -> None:
        """Tracer sink: closed spans enter the ring automatically."""
        if not self.enabled:
            return
        self._ring.append(span)

    def entries(self) -> list[dict[str, object]]:
        return [
            {"kind": "span", **e.to_doc()} if isinstance(e, Span) else e
            for e in self._ring
        ]

    def __len__(self) -> int:
        return len(self._ring)

    def dump(
        self, reason: str, path: _PathLike | None = None
    ) -> dict[str, object] | None:
        """Dump the ring; returns the document (``None`` if disabled).

        With ``path`` the document is also written to disk, and
        ``last_dump_path`` names the file.  Write failures are swallowed —
        the flight recorder must never turn a degradation into a
        crash — but leave ``last_dump_path`` unset.
        """
        if not self.enabled:
            return None
        self.dumps += 1
        doc: dict[str, object] = {
            "format": FLIGHT_FORMAT,
            "version": FLIGHT_VERSION,
            "reason": reason,
            "entries": self.entries(),
        }
        self.last_dump = doc
        self.last_dump_path = None
        if path is not None:
            try:
                pathlib.Path(path).write_text(
                    json.dumps(doc, sort_keys=True, indent=1) + "\n"
                )
                self.last_dump_path = str(path)
            except OSError:
                pass
        return doc
