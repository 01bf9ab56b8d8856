"""What a fleet-operations run measured: the OpsReport.

The controller appends one :class:`IntervalRecord` per timeline instant
(the state the fleet served in until the next instant) and one
:class:`FailureRecord` per GPU lost.  The report aggregates what users
actually experienced: compliance over time, GPU-hours burned,
reconfiguration downtime, time-to-restore per failure, and per-tenant SLO
attainment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional


@dataclass
class IntervalRecord:
    """The fleet's state from ``time_s`` until the next timeline instant."""

    time_s: float
    duration_s: float  #: until the next instant (or the horizon)
    path: str  #: "full" (re-schedule) or "incremental"
    #: due events by kind — includes the ``skipped`` ones, so summing a
    #: kind here over-counts actions actually taken when skips occurred
    events: Mapping[str, int]
    skipped: int  #: events that could not apply (unknown ids, empty fleet)
    services: int
    num_gpus: int
    spare_gpus: int
    reconfig_ops: int
    reconfig_work_s: float
    max_downtime_s: float  #: worst per-service serving gap this interval
    downtime_total_s: float
    zero_downtime: bool  #: shadow budget absorbed the whole transition
    compliance: Optional[float] = None  #: measured, when serving was simulated
    worst_service: Optional[str] = None
    worst_service_compliance: Optional[float] = None
    fingerprint: str = ""  #: placement fingerprint (identity checks)
    sim_fingerprint: Optional[str] = None  #: simulation stats fingerprint
    #: per-service measured compliance (kept in memory for attainment;
    #: not serialized per interval — to_doc() emits aggregates only)
    per_service_compliance: Mapping[str, float] = field(default_factory=dict)
    #: wall-clock sidecars (live gateway sessions only): never part of
    #: the fingerprint, surfaced in to_doc() only when present, so
    #: replayed documents are byte-identical to offline ones
    obs_sidecar: dict[str, float] = field(default_factory=dict)

    def to_doc(self) -> dict:
        doc = {
            "time_s": round(self.time_s, 3),
            "duration_s": round(self.duration_s, 3),
            "path": self.path,
            "events": dict(sorted(self.events.items())),
            "skipped": self.skipped,
            "services": self.services,
            "gpus": self.num_gpus,
            "spares": self.spare_gpus,
            "reconfig_ops": self.reconfig_ops,
            "reconfig_work_s": round(self.reconfig_work_s, 3),
            "max_downtime_s": round(self.max_downtime_s, 3),
            "zero_downtime": self.zero_downtime,
            "compliance": (
                None if self.compliance is None else round(self.compliance, 6)
            ),
            "worst_service": self.worst_service,
            "worst_service_compliance": (
                None
                if self.worst_service_compliance is None
                else round(self.worst_service_compliance, 6)
            ),
        }
        if self.obs_sidecar:
            doc["obs"] = {
                k: round(v, 6) for k, v in sorted(self.obs_sidecar.items())
            }
        return doc


@dataclass
class FailureRecord:
    """One GPU leaving the fleet and (maybe) coming back."""

    time_s: float
    gpu_id: int
    kind: str  #: "failure" or "preemption"
    event_id: str
    affected_services: tuple[str, ...]
    lost_capacity: float  #: requests/s that vanished with the device
    replan_work_s: float  #: reconfiguration work to relocate its segments
    max_downtime_s: float  #: worst affected-service gap during relocation
    restored_at_s: Optional[float] = None  #: set when the GPU rejoined

    @property
    def time_to_restore_s(self) -> Optional[float]:
        if self.restored_at_s is None:
            return None
        return self.restored_at_s - self.time_s

    def to_doc(self) -> dict:
        return {
            "time_s": round(self.time_s, 3),
            "gpu": self.gpu_id,
            "kind": self.kind,
            "event_id": self.event_id,
            "affected_services": len(self.affected_services),
            "lost_capacity": round(self.lost_capacity, 1),
            "replan_work_s": round(self.replan_work_s, 3),
            "max_downtime_s": round(self.max_downtime_s, 3),
            "restored_at_s": (
                None if self.restored_at_s is None else round(self.restored_at_s, 3)
            ),
            "time_to_restore_s": (
                None
                if self.time_to_restore_s is None
                else round(self.time_to_restore_s, 3)
            ),
        }


@dataclass
class OpsReport:
    """The full closed-loop run."""

    horizon_s: float
    geometry: str = "mig"
    fast_path: bool = True
    intervals: list[IntervalRecord] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # fleet-cost aggregates
    # ------------------------------------------------------------------ #

    @property
    def gpu_hours(self) -> float:
        """Device-hours the run consumed (spares excluded — they idle)."""
        return sum(r.num_gpus * r.duration_s for r in self.intervals) / 3600.0

    @property
    def peak_gpus(self) -> int:
        return max((r.num_gpus for r in self.intervals), default=0)

    @property
    def total_reconfig_ops(self) -> int:
        return sum(r.reconfig_ops for r in self.intervals)

    @property
    def total_reconfig_work_s(self) -> float:
        return sum(r.reconfig_work_s for r in self.intervals)

    @property
    def total_downtime_s(self) -> float:
        """Summed per-service serving gaps (zero under shadow admission)."""
        return sum(
            r.downtime_total_s for r in self.intervals if not r.zero_downtime
        )

    # ------------------------------------------------------------------ #
    # serving-quality aggregates
    # ------------------------------------------------------------------ #

    def _measured(self) -> list[IntervalRecord]:
        return [r for r in self.intervals if r.compliance is not None]

    @property
    def mean_compliance(self) -> Optional[float]:
        """Duration-weighted mean measured compliance (or None)."""
        rows = self._measured()
        total = sum(r.duration_s for r in rows)
        if not rows or total <= 0:
            return None
        return sum(r.compliance * r.duration_s for r in rows) / total

    @property
    def min_compliance(self) -> Optional[float]:
        rows = self._measured()
        if not rows:
            return None
        return min(r.compliance for r in rows)

    def compliance_series(self) -> list[tuple[float, float]]:
        """(time, measured compliance) over the run."""
        return [(r.time_s, r.compliance) for r in self._measured()]

    def slo_attainment(self, target: float = 0.99) -> dict[str, float]:
        """Per-tenant fraction of measured intervals at/above ``target``.

        A tenant only counts in intervals where it existed and was
        measured, so a mid-run arrival is judged on its own lifetime.
        """
        present: dict[str, int] = {}
        attained: dict[str, int] = {}
        for r in self._measured():
            for sid, c in r.per_service_compliance.items():
                present[sid] = present.get(sid, 0) + 1
                if c >= target:
                    attained[sid] = attained.get(sid, 0) + 1
        return {
            sid: attained.get(sid, 0) / n for sid, n in sorted(present.items())
        }

    # ------------------------------------------------------------------ #
    # failure aggregates
    # ------------------------------------------------------------------ #

    @property
    def restored_count(self) -> int:
        return sum(1 for f in self.failures if f.restored_at_s is not None)

    @property
    def mean_time_to_restore_s(self) -> Optional[float]:
        vals = [
            f.time_to_restore_s
            for f in self.failures
            if f.time_to_restore_s is not None
        ]
        if not vals:
            return None
        return sum(vals) / len(vals)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_doc(self, attainment_target: float = 0.99) -> dict:
        """JSON-ready document (committed as BENCH_ops evidence)."""
        attainment = self.slo_attainment(attainment_target)
        doc = {
            "horizon_s": self.horizon_s,
            "geometry": self.geometry,
            "fast_path": self.fast_path,
            "intervals": [r.to_doc() for r in self.intervals],
            "failures": [f.to_doc() for f in self.failures],
            "gpu_hours": round(self.gpu_hours, 3),
            "peak_gpus": self.peak_gpus,
            "reconfig_ops": self.total_reconfig_ops,
            "reconfig_work_s": round(self.total_reconfig_work_s, 3),
            "downtime_s": round(self.total_downtime_s, 3),
            "mean_compliance": (
                None
                if self.mean_compliance is None
                else round(self.mean_compliance, 6)
            ),
            "min_compliance": (
                None
                if self.min_compliance is None
                else round(self.min_compliance, 6)
            ),
            "restored": self.restored_count,
            "mean_time_to_restore_s": (
                None
                if self.mean_time_to_restore_s is None
                else round(self.mean_time_to_restore_s, 3)
            ),
        }
        if attainment:
            doc["attainment_target"] = attainment_target
            doc["tenants_measured"] = len(attainment)
            doc["tenants_attaining"] = sum(
                1 for v in attainment.values() if v >= 1.0 - 1e-12
            )
            worst = sorted(attainment.items(), key=lambda kv: kv[1])[:5]
            doc["worst_tenants"] = [
                {"service": sid, "attainment": round(v, 4)} for sid, v in worst
            ]
        return doc
