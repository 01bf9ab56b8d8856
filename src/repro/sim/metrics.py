"""Simulation measurements: latency records, SLO compliance, SM activity."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class BatchRecord:
    """One executed batch."""

    segment_key: str
    service_id: str
    dispatch_time: float  #: seconds
    completion_time: float
    batch_size: int
    max_request_latency_ms: float  #: worst end-to-end latency in the batch
    violated: bool  #: did the batch miss the service SLO?


@dataclass
class ServiceStats:
    """Aggregated serving quality of one service."""

    service_id: str
    slo_ms: float
    batches: int = 0
    violations: int = 0
    requests: int = 0
    latency_sum_ms: float = 0.0
    latency_max_ms: float = 0.0

    @property
    def compliance(self) -> float:
        """Fraction of batches meeting the SLO (Fig. 8's metric)."""
        if self.batches == 0:
            return 1.0
        return 1.0 - self.violations / self.batches

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_sum_ms / self.requests if self.requests else 0.0


def check_window(duration_s: float, warmup_s: float) -> None:
    """Refuse a measurement window no engine can serve: ``duration_s``
    (warmup included) must be finite and exceed a finite ``warmup_s >= 0``."""
    if not (math.isfinite(warmup_s) and warmup_s >= 0):
        raise ValueError(f"warmup must be finite and >= 0, got {warmup_s!r}")
    if not (math.isfinite(duration_s) and duration_s > warmup_s):
        raise ValueError(
            f"duration must be finite and exceed warmup ({warmup_s!r} s), "
            f"got {duration_s!r}"
        )


@dataclass
class SimulationReport:
    """Everything a simulation run measured."""

    duration_s: float
    warmup_s: float
    services: dict[str, ServiceStats] = field(default_factory=dict)
    #: DCGM-style activity per segment key ("gpu0/<svc>/<slot>"), in [0, 1].
    segment_activity: dict[str, float] = field(default_factory=dict)
    #: requests completed per service during the measured window
    completed: dict[str, int] = field(default_factory=dict)
    events_processed: int = 0

    @property
    def overall_compliance(self) -> float:
        """Batch-weighted SLO compliance across services."""
        batches = sum(s.batches for s in self.services.values())
        violations = sum(s.violations for s in self.services.values())
        if batches == 0:
            return 1.0
        return 1.0 - violations / batches

    @property
    def violation_rate(self) -> float:
        return 1.0 - self.overall_compliance

    def achieved_rate(self, service_id: str) -> float:
        """Measured goodput of one service, requests/s."""
        window = self.duration_s - self.warmup_s
        if window <= 0:
            return 0.0
        return self.completed.get(service_id, 0) / window

    def fingerprint(self) -> str:
        """Canonical byte-form of the run's *exact* statistics.

        Covers every field that is bit-identical between the event-driven
        engine and the batch-granularity fast path: integer counts
        (batches, violations, requests, completions) and the per-service
        worst latency (a max over per-batch values both engines compute
        with the same float expressions).  Order-sensitive float
        accumulations — latency sums, busy SM-time — are deliberately
        excluded (the engines sum in different orders, so the last ulps
        can differ); :meth:`close_to` checks those.  A full identity
        check is ``a.fingerprint() == b.fingerprint() and a.close_to(b)``.
        """
        doc = {
            "duration_s": self.duration_s,
            "warmup_s": self.warmup_s,
            "services": {
                sid: [
                    st.batches,
                    st.violations,
                    st.requests,
                    self.completed.get(sid, 0),
                    format(st.latency_max_ms, ".17g"),
                ]
                for sid, st in sorted(self.services.items())
            },
            "segments": sorted(self.segment_activity),
        }
        return json.dumps(doc, sort_keys=True)

    def close_to(self, other: "SimulationReport", rtol: float = 1e-9) -> bool:
        """Whether order-sensitive float statistics agree within ``rtol``.

        Complements :meth:`fingerprint`: per-service latency sums and
        per-segment activity are accumulated in different orders by the
        two simulation engines, so they match to ~1e-12 relative rather
        than bitwise.
        """

        def ok(a: float, b: float) -> bool:
            return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)

        if set(self.services) != set(other.services):
            return False
        if set(self.segment_activity) != set(other.segment_activity):
            return False
        return all(
            ok(st.latency_sum_ms, other.services[sid].latency_sum_ms)
            for sid, st in self.services.items()
        ) and all(
            ok(act, other.segment_activity[key])
            for key, act in self.segment_activity.items()
        )

    def summary_rows(self) -> list[tuple[str, float, float, float]]:
        """(service, compliance %, mean latency ms, achieved rate) rows."""
        return [
            (
                sid,
                100.0 * st.compliance,
                st.mean_latency_ms,
                self.achieved_rate(sid),
            )
            for sid, st in sorted(self.services.items())
        ]
