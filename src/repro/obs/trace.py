"""Structured trace spans for the per-interval decision path.

A :class:`Tracer` records a tree of :class:`Span` objects —
``interval`` roots with ``intake``/``apply``/``replan``/``measure``/
``scatter``/``gather``/``report`` children — and exports them as JSONL
or Chrome ``trace_event`` JSON (loadable in ``chrome://tracing`` and
Perfetto).

Span *identity* is scenario time only: ``t0_s``/``t1_s`` are
deterministic scenario instants, sequence numbers come from open
order, and args are caller-supplied deterministic values.  The wall
track (``wall_ms``) is a sidecar: it is pinned to ``0.0`` unless the
tracer was built with a wall callable (see
:mod:`repro.obs.wallclock`), which is exactly why span trees are
byte-identical across replays under ``VirtualClock`` — and why a live
session's trace is allowed to differ in (and only in) its sidecars.
"""

from __future__ import annotations

import json
import pathlib
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Callable, Union

_PathLike = Union[str, pathlib.Path]


@dataclass(slots=True)
class Span:
    """One node of the decision-path tree."""

    seq: int
    name: str
    cat: str
    t0_s: float
    t1_s: float
    parent: int  # seq of the enclosing span, -1 at the root
    wall_s: float = 0.0
    args: dict[str, object] = field(default_factory=dict)

    def to_doc(self) -> dict[str, object]:
        return {
            "seq": self.seq,
            "name": self.name,
            "cat": self.cat,
            "t0_s": self.t0_s,
            "t1_s": self.t1_s,
            "parent": self.parent,
            "wall_ms": round(self.wall_s * 1e3, 3),
            "args": dict(self.args),
        }


#: Shared dummy yielded by a disabled tracer (never recorded).
_DISABLED_SPAN = Span(-1, "disabled", "obs", 0.0, 0.0, -1)


class _OpenSpan:
    """The ``with`` handle :meth:`Tracer.span` returns.

    A plain class rather than a generator-based context manager: spans
    open and close on every interval of a live session, and the handle
    keeps that bookkeeping to a few attribute reads.
    """

    __slots__ = ("_tracer", "_name", "_cat", "_t_s", "_args", "_span", "_w0")

    def __init__(
        self, tracer: "Tracer", name: str, cat: str, t_s: float | None,
        args: dict[str, object],
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._t_s = t_s
        self._args = args
        self._span = _DISABLED_SPAN
        self._w0 = 0.0

    def __enter__(self) -> Span:
        tracer = self._tracer
        if not tracer.enabled:
            return _DISABLED_SPAN
        stack = tracer._stack
        parent = stack[-1] if stack else -1
        t_s = self._t_s
        if t_s is None:
            t_s = tracer.spans[parent].t0_s if parent >= 0 else 0.0
        sp = self._span = Span(
            len(tracer.spans), self._name, self._cat, t_s, t_s, parent,
            args=self._args,
        )
        tracer.spans.append(sp)
        stack.append(sp.seq)
        if tracer._wall is not None:
            self._w0 = tracer._wall()
        return sp

    def __exit__(self, *exc: object) -> None:
        sp = self._span
        if sp is _DISABLED_SPAN:
            return
        tracer = self._tracer
        if tracer._wall is not None:
            sp.wall_s = tracer._wall() - self._w0
        tracer._stack.pop()
        if tracer._sink is not None:
            tracer._sink(sp)


class Tracer:
    """Records spans in open order; exports JSONL and Chrome JSON."""

    def __init__(
        self,
        wall: Callable[[], float] | None = None,
        sink: Callable[[Span], None] | None = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._wall = wall
        self._sink = sink

    def span(
        self, name: str, *, t_s: float | None = None, cat: str = "ops",
        **args: object,
    ) -> AbstractContextManager[Span]:
        """Open a span; children opened inside nest under it.

        ``t_s`` is the deterministic scenario instant; ``None`` inherits
        the enclosing span's instant (0.0 at the root), so nested layers
        need not thread scenario time through their call chain.  Assign
        ``sp.t1_s`` inside the block to give the span scenario extent.
        The wall sidecar is measured on exit when a wall track exists.
        """
        return _OpenSpan(self, name, cat, t_s, args)

    def to_jsonl(self) -> list[str]:
        """One span per line, open order, keys sorted (byte-stable)."""
        return [
            json.dumps(sp.to_doc(), sort_keys=True) for sp in self.spans
        ]

    def write_jsonl(self, path: _PathLike) -> None:
        text = "\n".join(self.to_jsonl())
        pathlib.Path(path).write_text(text + "\n" if text else "")

    def chrome_doc(self) -> dict[str, object]:
        """The Chrome ``trace_event`` document (Perfetto-loadable).

        Complete ("X") events on one pid/tid; ``ts``/``dur`` are
        scenario microseconds, wall sidecars ride in ``args.wall_ms``.
        """
        events: list[dict[str, object]] = []
        for sp in self.spans:
            events.append({
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "name": sp.name,
                "cat": sp.cat,
                "ts": round(sp.t0_s * 1e6),
                "dur": max(round((sp.t1_s - sp.t0_s) * 1e6), 0),
                "args": {
                    "seq": sp.seq,
                    "parent": sp.parent,
                    "wall_ms": round(sp.wall_s * 1e3, 3),
                    **sp.args,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: _PathLike) -> None:
        doc = self.chrome_doc()
        pathlib.Path(path).write_text(
            json.dumps(doc, sort_keys=True, indent=1) + "\n"
        )
