"""Deterministic observability plane: metrics, traces, flight recorder.

The control plane's introspection layer, built so that *recording
never perturbs the identity contract*:

- :mod:`repro.obs.registry` — counters, gauges, histograms with fixed
  bucket edges, plus attachment of existing stats objects
  (``GatewayHealth``, ``SegmentMemo``, ``JournalStats``) behind their
  plain-attribute APIs;
- :mod:`repro.obs.trace` — structured spans over the per-interval
  decision path, exported as JSONL and Chrome ``trace_event`` JSON
  (``parvagpu ops --trace out.json``, Perfetto-loadable), span trees
  byte-identical across replays under ``VirtualClock``;
- :mod:`repro.obs.flight` — a bounded ring of recent spans and
  decisions, dumped automatically when a run record fails (a write
  error or a ``CheckpointError`` on resume) or on safe-mode entry;
- :mod:`repro.obs.prometheus` — the ``GET /metrics`` text exposition
  (imported on first access: only the status endpoint renders it);
- :mod:`repro.obs.wallclock` — the package's only wall-clock read
  (D002-allowlisted); everywhere else time is a scenario instant or a
  caller-observed duration.

The two-track clock rule, in one line: *scenario instants are
identity, wall durations are sidecars* — see ``docs/observability.md``.
"""

from typing import TYPE_CHECKING

from repro import _lazy
from repro.obs.flight import FlightRecorder
from repro.obs.hub import ObsHub
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    fields_doc,
)
from repro.obs.trace import Span, Tracer

if TYPE_CHECKING:
    from repro.obs.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus

#: Only the status endpoint renders the exposition.
_LAZY: _lazy.LazyTable = {
    "repro.obs.prometheus": ("PROMETHEUS_CONTENT_TYPE", "render_prometheus"),
}

__all__ = [
    "ObsHub",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "fields_doc",
    "Tracer",
    "Span",
    "FlightRecorder",
    "render_prometheus",
    "PROMETHEUS_CONTENT_TYPE",
]


def __getattr__(name: str) -> object:
    return _lazy.load(__name__, globals(), _LAZY, name)


def __dir__() -> list[str]:
    return _lazy.names(globals(), _LAZY)
