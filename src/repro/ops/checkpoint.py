"""Versioned, checksummed control-plane checkpoints.

A checkpoint freezes everything a :class:`~repro.ops.controller.
FleetController` run carries between interval boundaries — the deployed
placement, the spare/retired GPU ledgers, the live
:class:`~repro.ops.report.OpsReport` accumulators, the pending
(controller-scheduled) event heap, and the offline run loop's static
timeline cursor — as one JSON document.  Restoring it and continuing
the run is **bit-identical** to never having stopped: every value that
feeds a fingerprint round-trips exactly (JSON floats serialize via
``repr`` and parse back to the same IEEE-754 double), and everything
that is *derived* (triplet memos, the segment memo, slot indexes)
is deliberately left out and rewarmed, because a memo hit is by
construction bit-identical to a fresh computation.

File format::

    {"format": "parvagpu-checkpoint", "version": 1,
     "sha256": <hex digest of the canonical state payload>,
     "state": {...}}

The digest is computed over the canonical compact-JSON rendering of
``state`` (sorted keys, no whitespace), so any bit flip in the payload
— the fault injector's favourite — fails verification before a single
field is trusted.  Writes are atomic (temp file + fsync + rename): a
crash mid-write leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.placement import GPUPlan, PlacedSegment, Placement
from repro.core.segments import Segment
from repro.core.service import Service
from repro.gpu.geometry import get_geometry
from repro.ops.events import OpsEvent, event_to_doc
from repro.ops.report import FailureRecord, IntervalRecord, OpsReport
from repro.profiler.table import ProfileEntry

#: Bump on any incompatible change to the state payload layout.
CHECKPOINT_VERSION = 1

_FORMAT = "parvagpu-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint is unreadable, corrupt, or from an incompatible run."""


# --------------------------------------------------------------------- #
# scalar / structural codecs (exact round-trips, no lossy conversions)
# --------------------------------------------------------------------- #


def _entry_to_doc(entry: ProfileEntry) -> dict[str, Any]:
    return {
        "model": entry.model,
        "instance_size": entry.instance_size,
        "batch_size": entry.batch_size,
        "num_processes": entry.num_processes,
        "latency_ms": entry.latency_ms,
        "throughput": entry.throughput,
        "memory_gb": entry.memory_gb,
        "sm_activity": entry.sm_activity,
    }


def _entry_from_doc(doc: Mapping[str, Any]) -> ProfileEntry:
    return ProfileEntry(
        model=doc["model"],
        instance_size=doc["instance_size"],
        batch_size=doc["batch_size"],
        num_processes=doc["num_processes"],
        latency_ms=doc["latency_ms"],
        throughput=doc["throughput"],
        memory_gb=doc["memory_gb"],
        sm_activity=doc["sm_activity"],
    )


def _plan_segment_to_doc(seg: Segment) -> dict[str, Any]:
    return {
        "service_id": seg.service_id,
        "model": seg.model,
        "instance_size": seg.instance_size,
        "batch_size": seg.batch_size,
        "num_processes": seg.num_processes,
        "throughput": seg.throughput,
        "latency_ms": seg.latency_ms,
        "sm_activity": seg.sm_activity,
        "geometry": seg.geometry.name,
    }


def _plan_segment_from_doc(doc: Mapping[str, Any]) -> Segment:
    return Segment(
        service_id=doc["service_id"],
        model=doc["model"],
        instance_size=doc["instance_size"],
        batch_size=doc["batch_size"],
        num_processes=doc["num_processes"],
        throughput=doc["throughput"],
        latency_ms=doc["latency_ms"],
        sm_activity=doc["sm_activity"],
        geometry=get_geometry(doc["geometry"]),
    )


def service_to_doc(svc: Service) -> dict[str, Any]:
    """The identity-bearing service fields *including* Configurator state.

    The Algorithm-1 outputs (``opt_tri_array``/``opt_seg``/``num_opt_seg``/
    ``last_seg``) are not scratch: the SIII-F incremental paths read the
    previous plan between intervals, so a resumed run without them would
    take different placement decisions than the uninterrupted one.
    """
    return {
        "id": svc.id,
        "model": svc.model,
        "slo_latency_ms": svc.slo_latency_ms,
        "request_rate": svc.request_rate,
        "slo_factor": svc.slo_factor,
        "opt_tri_array": [
            [size, _entry_to_doc(entry)]
            for size, entry in svc.opt_tri_array.items()
        ],
        "opt_seg": (
            None if svc.opt_seg is None else _plan_segment_to_doc(svc.opt_seg)
        ),
        "num_opt_seg": svc.num_opt_seg,
        "last_seg": (
            None
            if svc.last_seg is None
            else _plan_segment_to_doc(svc.last_seg)
        ),
    }


def service_from_doc(doc: Mapping[str, Any]) -> Service:
    svc = Service(
        id=doc["id"],
        model=doc["model"],
        slo_latency_ms=doc["slo_latency_ms"],
        request_rate=doc["request_rate"],
        slo_factor=doc["slo_factor"],
    )
    svc.opt_tri_array = {
        int(size): _entry_from_doc(entry)
        for size, entry in doc["opt_tri_array"]
    }
    if doc["opt_seg"] is not None:
        svc.opt_seg = _plan_segment_from_doc(doc["opt_seg"])
    svc.num_opt_seg = doc["num_opt_seg"]
    if doc["last_seg"] is not None:
        svc.last_seg = _plan_segment_from_doc(doc["last_seg"])
    return svc


def _segment_to_doc(seg: PlacedSegment) -> dict[str, Any]:
    return seg._asdict()


def _segment_from_doc(doc: Mapping[str, Any]) -> PlacedSegment:
    return PlacedSegment(*(doc[name] for name in PlacedSegment._fields))


def placement_to_doc(placement: Placement) -> dict[str, Any]:
    """Every fingerprint-bearing field of a deployment map, in order."""
    return {
        "framework": placement.framework,
        "scheduling_delay_ms": placement.scheduling_delay_ms,
        "rates_assigned": placement.rates_assigned,
        "gpus": [
            {
                "gpu_id": plan.gpu_id,
                "geometry": plan.geometry,
                "segments": [_segment_to_doc(s) for s in plan.segments],
            }
            for plan in placement.gpus
        ],
    }


def placement_from_doc(doc: Mapping[str, Any]) -> Placement:
    gpus = [
        GPUPlan(
            gpu_id=g["gpu_id"],
            geometry=g["geometry"],
            segments=tuple(_segment_from_doc(s) for s in g["segments"]),
        )
        for g in doc["gpus"]
    ]
    return Placement(
        framework=doc["framework"],
        gpus=gpus,
        scheduling_delay_ms=doc["scheduling_delay_ms"],
        rates_assigned=doc["rates_assigned"],
    )


def _interval_to_doc(rec: IntervalRecord) -> dict[str, Any]:
    # Full fidelity — unlike IntervalRecord.to_doc(), which is a summary
    # view: per_service_compliance is in-memory-only there but feeds the
    # restored report's slo_attainment, so it must survive here.
    return {
        "time_s": rec.time_s,
        "duration_s": rec.duration_s,
        "path": rec.path,
        "events": dict(rec.events),
        "skipped": rec.skipped,
        "services": rec.services,
        "num_gpus": rec.num_gpus,
        "spare_gpus": rec.spare_gpus,
        "reconfig_ops": rec.reconfig_ops,
        "reconfig_work_s": rec.reconfig_work_s,
        "max_downtime_s": rec.max_downtime_s,
        "downtime_total_s": rec.downtime_total_s,
        "zero_downtime": rec.zero_downtime,
        "compliance": rec.compliance,
        "worst_service": rec.worst_service,
        "worst_service_compliance": rec.worst_service_compliance,
        "fingerprint": rec.fingerprint,
        "sim_fingerprint": rec.sim_fingerprint,
        "per_service_compliance": (
            None
            if rec.per_service_compliance is None
            else dict(rec.per_service_compliance)
        ),
    }


def _interval_from_doc(doc: Mapping[str, Any]) -> IntervalRecord:
    return IntervalRecord(
        time_s=doc["time_s"],
        duration_s=doc["duration_s"],
        path=doc["path"],
        events=dict(doc["events"]),
        skipped=doc["skipped"],
        services=doc["services"],
        num_gpus=doc["num_gpus"],
        spare_gpus=doc["spare_gpus"],
        reconfig_ops=doc["reconfig_ops"],
        reconfig_work_s=doc["reconfig_work_s"],
        max_downtime_s=doc["max_downtime_s"],
        downtime_total_s=doc["downtime_total_s"],
        zero_downtime=doc["zero_downtime"],
        compliance=doc["compliance"],
        worst_service=doc["worst_service"],
        worst_service_compliance=doc["worst_service_compliance"],
        fingerprint=doc["fingerprint"],
        sim_fingerprint=doc["sim_fingerprint"],
        per_service_compliance=doc["per_service_compliance"],
    )


def _failure_to_doc(rec: FailureRecord) -> dict[str, Any]:
    return {
        "time_s": rec.time_s,
        "gpu_id": rec.gpu_id,
        "kind": rec.kind,
        "event_id": rec.event_id,
        "affected_services": list(rec.affected_services),
        "lost_capacity": rec.lost_capacity,
        "replan_work_s": rec.replan_work_s,
        "max_downtime_s": rec.max_downtime_s,
        "restored_at_s": rec.restored_at_s,
    }


def _failure_from_doc(doc: Mapping[str, Any]) -> FailureRecord:
    return FailureRecord(
        time_s=doc["time_s"],
        gpu_id=doc["gpu_id"],
        kind=doc["kind"],
        event_id=doc["event_id"],
        affected_services=tuple(doc["affected_services"]),
        lost_capacity=doc["lost_capacity"],
        replan_work_s=doc["replan_work_s"],
        max_downtime_s=doc["max_downtime_s"],
        restored_at_s=doc["restored_at_s"],
    )


def report_to_doc(report: OpsReport) -> dict[str, Any]:
    """Full-fidelity report state (richer than ``OpsReport.to_doc``)."""
    return {
        "horizon_s": report.horizon_s,
        "geometry": report.geometry,
        "fast_path": report.fast_path,
        "intervals": [_interval_to_doc(r) for r in report.intervals],
        "failures": [_failure_to_doc(r) for r in report.failures],
    }


def report_from_doc(doc: Mapping[str, Any]) -> OpsReport:
    """The report :func:`report_to_doc` wrote.  A ``workers`` key (the
    process fan-out older checkpoints recorded) is ignored: no result
    ever depended on it."""
    return OpsReport(
        horizon_s=doc["horizon_s"],
        geometry=doc["geometry"],
        fast_path=doc["fast_path"],
        intervals=[_interval_from_doc(r) for r in doc["intervals"]],
        failures=[_failure_from_doc(r) for r in doc["failures"]],
    )


def timeline_digest(events: Sequence[OpsEvent]) -> str:
    """Order-sensitive digest of a (sorted, filtered) static timeline.

    Stored in every checkpoint and re-verified on resume: resuming
    against a *different* timeline would not crash — it would silently
    diverge from the uninterrupted run, which is worse.
    """
    h = hashlib.sha256()
    for event in events:
        h.update(_canonical(event_to_doc(event)))
        h.update(b"\n")
    return h.hexdigest()


# --------------------------------------------------------------------- #
# the checkpoint file
# --------------------------------------------------------------------- #


def _canonical(state: Mapping[str, Any]) -> bytes:
    """The canonical byte rendering the checksum is computed over."""
    return json.dumps(
        state, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def state_digest(state: Mapping[str, Any]) -> str:
    return hashlib.sha256(_canonical(state)).hexdigest()


def write_checkpoint(path: str | Path, state: Mapping[str, Any]) -> None:
    """Atomically write ``state`` as a versioned, checksummed checkpoint.

    The document is staged to a temp file in the target directory,
    flushed and fsynced, then renamed over ``path`` — a crash at any
    point leaves either the old checkpoint or the new one, never a torn
    hybrid (which the checksum would reject anyway).
    """
    target = Path(path)
    # Serialize the state payload exactly once: the canonical rendering
    # both feeds the digest and is spliced verbatim into the envelope.
    # (The payload dominates write cost; a second json.dumps of the
    # envelope-with-state would double it.)
    payload = _canonical(state)
    digest = hashlib.sha256(payload).hexdigest()
    head = json.dumps(
        {"format": _FORMAT, "version": CHECKPOINT_VERSION, "sha256": digest},
        separators=(",", ":"),
    )
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(head[:-1].encode("ascii"))
        fh.write(b',"state":')
        fh.write(payload)
        fh.write(b"}\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)


def read_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read, verify, and return a checkpoint's state payload.

    Raises :class:`CheckpointError` on a missing file, unparseable
    JSON, wrong format marker, unsupported version, or — the case the
    fault injector drills — a checksum mismatch.
    """
    target = Path(path)
    try:
        raw = target.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {target} is not valid UTF-8: the file is corrupt"
        ) from exc
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {target}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {target} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise CheckpointError(f"{target} is not a {_FORMAT} file")
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {target} has version {version!r}; this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    state = doc.get("state")
    if not isinstance(state, dict):
        raise CheckpointError(f"checkpoint {target} carries no state payload")
    digest = state_digest(state)
    if digest != doc.get("sha256"):
        raise CheckpointError(
            f"checkpoint {target} failed checksum verification "
            f"(expected {doc.get('sha256')!r}, computed {digest!r}): "
            "the file is corrupt"
        )
    return state


def resolve_resume(
    resume: str | Path | Mapping[str, Any],
) -> dict[str, Any]:
    """A resume argument is either a checkpoint path or an in-memory state."""
    if isinstance(resume, Mapping):
        return dict(resume)
    return read_checkpoint(resume)


__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "placement_from_doc",
    "placement_to_doc",
    "read_checkpoint",
    "report_from_doc",
    "report_to_doc",
    "resolve_resume",
    "service_from_doc",
    "service_to_doc",
    "state_digest",
    "timeline_digest",
    "write_checkpoint",
]
