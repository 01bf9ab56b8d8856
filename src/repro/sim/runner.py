"""One-call simulation of a placement under a scenario's traffic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

import numpy as np

from repro.core.placement import Placement
from repro.core.service import Service
from repro.gpu.telemetry import SMActivityTracker
from repro.sim.arrivals import poisson_arrivals, uniform_arrivals
from repro.sim.engine import EventQueue
from repro.sim.metrics import (
    BatchRecord, ServiceStats, SimulationReport, check_window,
)
from repro.sim.server import SegmentServer

if TYPE_CHECKING:  # imported lazily at runtime to avoid a module cycle
    from repro.sim.fastpath import PlanMemo


def segment_key(gpu_id: int, service_id: str, start: Optional[int]) -> str:
    """Canonical key shared with :mod:`repro.metrics.slack`."""
    return f"gpu{gpu_id}/{service_id}/{'mps' if start is None else start}"


@dataclass(frozen=True)
class IntervalMeasurement:
    """One interval's serving quality, as both control loops consume it.

    The offline :class:`~repro.ops.controller.FleetController` and the
    live serve gateway measure intervals through the same call
    (:func:`measure_interval`), so the numbers a live status endpoint
    publishes are definitionally the numbers an offline replay records.
    """

    compliance: float
    fingerprint: str
    #: service id -> measured compliance, in simulator insertion order
    per_service: Mapping[str, float]
    #: the least compliant service (the first in insertion order on a
    #: tie; None without services): given by a measurement that keeps
    #: it, else found once at construction
    worst_service: Optional[str] = None

    def __post_init__(self) -> None:
        if self.worst_service is None and self.per_service:
            object.__setattr__(
                self,
                "worst_service",
                min(self.per_service, key=self.per_service.__getitem__),
            )

    @property
    def worst_compliance(self) -> Optional[float]:
        worst = self.worst_service
        return None if worst is None else self.per_service[worst]


def measure_interval(
    placement: Placement,
    services: Iterable[Service],
    measure_s: float,
    warmup_s: float = 0.1,
    seed: int = 0,
    plans: Optional["PlanMemo"] = None,
) -> IntervalMeasurement:
    """Serve ``placement`` for ``measure_s`` and distill interval stats.

    Overall + per-tenant compliance and the stats fingerprint the
    identity checks compare, as :func:`simulate_placement` (warmup +
    measurement window) reports them.  With ``plans`` (a
    :class:`~repro.sim.fastpath.PlanMemo`) every unchanged GPU plan is
    served from its last measurement, bit-identically; a placement that
    lists one GPU id twice raises ``ValueError``.  Without it, the
    event-driven reference engine serves the whole placement.
    """
    duration_s = warmup_s + measure_s
    if plans is not None:
        return IntervalMeasurement(
            *plans.measure(placement, services, duration_s, warmup_s)
        )
    sim = simulate_placement(
        placement, services, duration_s=duration_s, warmup_s=warmup_s,
        seed=seed, fast_path=False,
    )
    return IntervalMeasurement(
        compliance=sim.overall_compliance,
        fingerprint=sim.fingerprint(),
        per_service={
            sid: st.compliance for sid, st in sim.services.items()
        },
    )


def simulate_placement(
    placement: Placement,
    services: Iterable[Service],
    duration_s: float = 2.0,
    warmup_s: float = 0.5,
    seed: int = 0,
    arrivals: str = "uniform",
    fast_path: bool = True,
) -> SimulationReport:
    """Drive ``placement`` with request traffic and measure serving quality.

    ``arrivals`` selects the load generator: ``"uniform"`` (default) is an
    open-loop constant-rate generator — the standard serving-benchmark
    configuration and the regime the paper's compliance numbers imply —
    while ``"poisson"`` adds arrival burstiness (stressing queue headroom).

    ``duration_s`` covers warmup + measurement; statistics (SLO compliance,
    activity, goodput) only count batches dispatched after ``warmup_s``.

    ``fast_path`` (default on) runs the batch-granularity kernel of
    :mod:`repro.sim.fastpath` — identical serving decisions derived by
    index arithmetic over each segment's arrival array, ~``batch_size``×
    fewer iteration steps.  ``fast_path=False`` keeps the per-request
    discrete-event engine as the naive reference (the perf harness checks
    the two against each other on every recorded run).
    """
    if fast_path:
        from repro.sim.fastpath import simulate_placement_fast

        return simulate_placement_fast(
            placement, services, duration_s=duration_s, warmup_s=warmup_s,
            seed=seed, arrivals=arrivals,
        )
    check_window(duration_s, warmup_s)
    svc_by_id = {s.id: s for s in services}
    events = EventQueue()
    tracker = SMActivityTracker(window_start=warmup_s)
    report = SimulationReport(duration_s=duration_s, warmup_s=warmup_s)
    for sid, svc in svc_by_id.items():
        report.services[sid] = ServiceStats(
            service_id=sid, slo_ms=svc.slo_latency_ms
        )
        report.completed[sid] = 0

    def on_batch(rec: BatchRecord) -> None:
        st = report.services[rec.service_id]
        st.batches += 1
        st.violations += int(rec.violated)
        st.requests += rec.batch_size
        st.latency_sum_ms += rec.max_request_latency_ms * rec.batch_size
        st.latency_max_ms = max(st.latency_max_ms, rec.max_request_latency_ms)
        report.completed[rec.service_id] += rec.batch_size

    rng = np.random.default_rng(seed)
    servers: list[SegmentServer] = []
    for gpu_id, seg in placement.iter_segments():
        if seg.service_id not in svc_by_id:
            raise ValueError(f"placement references unknown service {seg.service_id!r}")
        key = segment_key(gpu_id, seg.service_id, seg.start)
        server = SegmentServer(
            key=key,
            segment=seg,
            slo_ms=svc_by_id[seg.service_id].slo_latency_ms,
            events=events,
            tracker=tracker,
            on_batch=on_batch,
            warmup_s=warmup_s,
        )
        servers.append(server)
        if arrivals == "poisson":
            times = poisson_arrivals(seg.served_rate, duration_s, rng)
        elif arrivals == "uniform":
            times = uniform_arrivals(seg.served_rate, duration_s)
        else:
            raise ValueError(f"unknown arrival process {arrivals!r}")
        for t in times:
            events.schedule(float(t), server.on_arrival)

    report.events_processed = events.run(until=duration_s + 1.0)

    window_end = duration_s
    for server in servers:
        sample = tracker.sample(server.key, window_end)
        report.segment_activity[server.key] = sample.activity
    return report
