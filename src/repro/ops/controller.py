"""The closed-loop fleet controller.

``FleetController.run`` drives a deployment through an adversarial
operational timeline: at every timeline instant it applies the batch of
due events through the *cheapest correct path* — the SIII-F incremental
machinery (one-service SLO updates, single-GPU failover, spare restores,
service teardown) for single-service and single-GPU deltas, a full
re-schedule only when the structural delta demands it (bootstrap, or a
churn burst touching more than ``full_replan_fraction`` of the fleet) —
prices every transition with the reconfiguration cost model, and (when
asked) measures each interval's serving quality with the simulation fast
path.

Incremental deltas update the deployment manager's persistent allocator
state in place (O(touched GPUs) per event, see
:mod:`repro.core.deployment`); a full re-schedule replaces it.

Two identity checks guard every run:

- **state round-trip** (every interval of every run): after each
  interval the placement must survive the allocator-state round trip
  and mirror the live allocator state and cluster exactly — the
  :class:`~repro.ops.verify.StateVerifier`, incremental on the fast
  path, rebuilt (cold) at every :meth:`begin`;
- **fast vs naive replay** (:func:`run_identity_checked`): the same
  timeline replayed from scratch on the naive reference machinery
  (unindexed allocator, unmemoized configurator, per-request event-driven
  simulator) must produce fingerprint-identical placements — and
  fingerprint-identical serving statistics — at every interval.

Determinism: timelines are pure data, victim selection derives from event
draws plus the controller seed, and the simulator is seeded — two runs
(or the fast/naive pair) see the exact same trajectory.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Mapping,
    Optional,
    Sequence,
)

from repro.core.deployment import DeploymentManager
from repro.core.failover import FailoverController
from repro.core.parvagpu import ParvaGPU
from repro.core.placement import Placement
from repro.core.service import (
    DEFAULT_SLO_FACTOR,
    InfeasibleServiceError,
    Service,
)
from repro.gpu.cluster import ReconfigurationPlan
from repro.gpu.reconfig import ReconfigurationCost, ShadowBudget, price_plan
from repro.ops.checkpoint import (
    MEASURED_FIELDS,
    RECORD_FORMAT,
    RECORD_VERSION,
    CheckpointError,
    RecordWriter,
    read_record,
    services_digest,
    timeline_digest,
)
from repro.ops.events import (
    GpuFailure,
    GpuRecovery,
    OpsEvent,
    RateEpoch,
    ServiceArrival,
    ServiceDeparture,
    SloChange,
    SpotPreemptionWave,
    timeline_key,
)
from repro.obs import ObsHub, Span
from repro.ops.report import FailureRecord, IntervalRecord, OpsReport
from repro.ops.verify import OpsIdentityError, StateVerifier
from repro.profiler.table import ProfileTable

if TYPE_CHECKING:  # the measurement engine is imported when a run opens
    from repro.sim.fastpath import PlanMemo, SegmentMemo


def _record_digest(canonical: str) -> str:
    """Collapse a canonical fingerprint string to its sha256 hex digest.

    Interval records store digests, not the multi-hundred-KB canonical
    renderings: identity checks only ever compare fingerprints for
    equality (between replays, across resume, fast vs. naive), and a
    digest comparison is the same check — while keeping fleet-scale
    reports and their run records a couple of MB instead of hundreds.
    """
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class OutOfOrderEventError(ValueError):
    """The step API received an instant or event that moves time backwards.

    :meth:`FleetController.step` requires monotonically non-decreasing
    instants and refuses events stamped *after* the instant they are
    applied at — the two ways an unsorted input stream would silently
    corrupt a replay.
    """


@dataclass
class _RunState:
    """Everything one begin()/step()/finish() cycle carries between steps."""

    work: list[Service]
    by_id: dict[str, Service]
    report: OpsReport
    horizon_s: float
    measure_s: float
    warmup_s: float
    sim_seed: int
    #: controller-scheduled events (wave restores): (key, seq, event)
    pending: list[tuple[tuple[float, int, str], int, OpsEvent]] = field(
        default_factory=list
    )
    last_t: Optional[float] = None
    steps: int = 0


class FleetController:
    """Consumes an event timeline, keeping one deployment correct throughout."""

    def __init__(
        self,
        profiles: Optional[Mapping[str, ProfileTable]] = None,
        fast_path: bool = True,
        seed: int = 0,
        spare_shadow_gpus: int = 4,
        full_replan_fraction: float = 0.5,
        obs: Optional[ObsHub] = None,
    ) -> None:
        if profiles is None:
            from repro.profiler import profile_workloads

            profiles = profile_workloads()
        self.profiles = profiles
        self.fast_path = fast_path
        self.seed = seed
        if not 0.0 < full_replan_fraction <= 1.0:
            raise ValueError("full_replan_fraction must be in (0, 1]")
        #: fraction of the fleet an interval's arrivals+departures must
        #: exceed before a full re-schedule replaces per-service updates
        self.full_replan_fraction = full_replan_fraction
        self.scheduler = ParvaGPU(profiles, fast_path=fast_path)
        self.spare_shadow_gpus = spare_shadow_gpus
        #: the run-scoped per-plan layer and its segment memo; live
        #: only inside a fast run
        self._plans: Optional["PlanMemo"] = None
        #: the current (else the last) run's segment memo; None on the
        #: reference path (``fast_path=False``), which measures on the
        #: event engine
        self.segment_memo: Optional["SegmentMemo"] = None
        #: failure event_id -> the GPU id the draw resolved to
        self._eid_to_gpu: dict[str, int] = {}
        #: the active begin()/step()/finish() cycle, if any
        self._run: Optional[_RunState] = None
        self._pending_seq = 0
        #: the observability hub: metrics + spans + flight recorder.
        #: Recording is sidecar-only — nothing the hub stores ever
        #: reaches fingerprinted state, so replays stay bit-identical
        #: with observability enabled (the default).
        self.obs = obs if obs is not None else ObsHub()
        self._m_intervals = self.obs.counter(
            "ops_intervals_total", "intervals the controller closed"
        )
        self._m_events = self.obs.counter(
            "ops_events_applied_total",
            "timeline events applied, by event kind",
            ("kind",),
        )
        self._m_replans = self.obs.counter(
            "ops_replans_total",
            "interval re-plans taken, by path (full vs incremental)",
            ("path",),
        )
        self._m_failures = self.obs.counter(
            "ops_failures_total", "GPU failures/preemptions handled"
        )
        self._m_services = self.obs.gauge(
            "ops_fleet_services", "services currently deployed"
        )
        self._m_gpus = self.obs.gauge(
            "ops_fleet_gpus", "GPUs in the deployed placement"
        )
        self._m_spares = self.obs.gauge(
            "ops_spare_gpus", "spare GPUs held back for failover"
        )
        self._m_record_flushes = self.obs.counter(
            "ops_checkpoint_writes_total", "run-record flushes to disk"
        )
        self._m_stage_wall = self.obs.histogram(
            "ops_stage_wall_seconds",
            "wall-clock sidecar per decision-path stage (0 when "
            "deterministic)",
            ("stage",),
        )
        #: one ``(record, new failures, stage spans)`` per closed step,
        #: folded into the ``ops_*`` families when the registry is
        #: collected rather than on the decision path (each entry holds
        #: only objects the report and the tracer keep anyway)
        self._step_log: list[tuple[IntervalRecord, int, list[Span]]] = []
        self.obs.registry.on_collect(self._fold_step_log)
        self._reset_deployment()

    def _reset_deployment(self) -> None:
        """Fresh deployment state: manager, failover, shadow budget.

        Called at construction *and* at the top of every :meth:`run`, so
        a controller is reentrant — a second run bootstraps from scratch
        instead of silently continuing from the previous run's final
        deployment (the module's determinism guarantee).  The final
        state of the last run stays inspectable on ``self.manager``
        until the next run begins.
        """
        self.manager = DeploymentManager(
            self.profiles, fast_path=self.fast_path
        )
        self.failover = FailoverController(self.manager)
        self.shadows = ShadowBudget(spare_gpus=self.spare_shadow_gpus)
        self._eid_to_gpu = {}
        self.obs.registry.attach("alloc", self.manager.stats)
        #: the per-interval state check (no memo yet: its first check
        #: starts from an empty one)
        self.verifier = StateVerifier(self.manager, fast_path=self.fast_path)
        self.obs.registry.attach("check", self.verifier.stats)

    # ------------------------------------------------------------------ #
    # the re-entrant step API
    # ------------------------------------------------------------------ #

    def begin(
        self,
        services: Sequence[Service],
        horizon_s: float,
        measure_s: float = 0.0,
        warmup_s: float = 0.1,
        sim_seed: int = 0,
    ) -> OpsReport:
        """Open a run: fresh deployment state, an empty report, no steps.

        The returned :class:`OpsReport` is *live* — :meth:`step` appends
        to it in place, so a long-running caller (the serve gateway) can
        snapshot it between steps.
        """
        if self._run is not None:
            raise RuntimeError(
                "a run is already active on this controller; call finish()"
            )
        if not (math.isfinite(horizon_s) and horizon_s > 0):
            raise ValueError(
                f"horizon must be positive and finite, got {horizon_s!r}"
            )
        for name, value in (("measure_s", measure_s), ("warmup_s", warmup_s)):
            # measure_s=0 means "do not measure"; a NaN, infinite or
            # negative window would fail (or lie) at the first step
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value!r}"
                )
        self._reset_deployment()
        # Private copies: the run rewrites rates/SLOs/plan state, and
        # callers reasonably reuse their Service objects afterwards.
        work = [
            Service(
                id=s.id,
                model=s.model,
                slo_latency_ms=s.slo_latency_ms,
                request_rate=s.request_rate,
                slo_factor=s.slo_factor,
            )
            for s in services
        ]
        by_id = {s.id: s for s in work}
        if len(by_id) != len(work):
            raise ValueError("duplicate service ids")
        report = OpsReport(
            horizon_s=horizon_s,
            geometry=self.manager.geometry.name,
            fast_path=self.fast_path,
        )
        self._pending_seq = 0
        self._eid_to_gpu = {}
        # The run's measurement engine: on the fast path a per-plan layer
        # over a segment memo, carried across intervals (an event perturbs
        # a handful of services, so most segments resolve from cache); on
        # the reference path none (the event engine measures).  A resumed
        # run starts it cold: a hit is bit-identical to a fresh kernel run.
        self.segment_memo = self._plans = None
        if self.fast_path:
            from repro.sim.fastpath import PlanMemo

            plans = PlanMemo()
            self.obs.registry.attach("sim_memo", plans.memo)
            self.segment_memo = plans.memo
            self._plans = plans
        self._run = _RunState(
            work=work,
            by_id=by_id,
            report=report,
            horizon_s=horizon_s,
            measure_s=measure_s,
            warmup_s=warmup_s,
            sim_seed=sim_seed,
        )
        return report

    def _require_run(self) -> _RunState:
        if self._run is None:
            raise RuntimeError("no active run; call begin() first")
        return self._run

    def step(self, t: float, events: Sequence[OpsEvent] = ()) -> IntervalRecord:
        """Apply one instant's event batch and record the interval.

        Instants must be monotonically non-decreasing across steps, and
        every event must be stamped at or before the instant it is
        applied at; violating either raises
        :class:`OutOfOrderEventError` (the run loop used to silently
        assume sorted input).  Events inside the batch are applied in
        :func:`~repro.ops.events.timeline_key` order regardless of the
        order given.

        The previous interval's duration is closed off as ``t`` minus
        its instant; the new interval provisionally extends to the
        horizon until a later step (or nothing) supersedes it — interval
        accounting therefore never looks ahead, which is what lets a
        live gateway drive this API one instant at a time.
        """
        return self._step(t, events, None)

    def _step(
        self,
        t: float,
        events: Sequence[OpsEvent],
        recorded: Optional[Mapping[str, Any]],
    ) -> IntervalRecord:
        """:meth:`step`, or with ``recorded`` (a run record's interval
        line) a replayed step: the recorded measurement stands in for
        serving the interval again (:meth:`_replayed`)."""
        run = self._require_run()
        if t < 0:
            raise ValueError("step instant must be non-negative")
        if t >= run.horizon_s:
            raise ValueError(
                f"step instant t={t:g} is at or beyond the horizon "
                f"({run.horizon_s:g} s)"
            )
        if run.last_t is not None and t < run.last_t:
            raise OutOfOrderEventError(
                f"step instant t={t:g} precedes the already-applied instant "
                f"t={run.last_t:g}; instants must be monotonically "
                "non-decreasing"
            )
        late = [e for e in events if e.time_s > t]
        if late:
            e = min(late, key=timeline_key)
            raise OutOfOrderEventError(
                f"{e.kind} stamped time_s={e.time_s:g} cannot apply at "
                f"the earlier instant t={t:g}"
            )
        if run.report.intervals:
            prev = run.report.intervals[-1]
            prev.duration_s = t - prev.time_s
        failures_before = len(run.report.failures)
        with self.obs.span(
            "interval", t_s=t, cat="interval", step=run.steps,
            events=len(events),
        ) as interval_span:
            with self.obs.span("apply", t_s=t, cat="interval") as sp:
                # the batch applies in timeline order
                record = self._apply_batch(
                    t, sorted(events, key=timeline_key), run.work,
                    run.by_id, run.report, run.pending,
                )
                sp.args["path"] = record.path
            stages = [sp]
            placement = self.manager.current
            # One rendering of the unchanged map serves the check and the
            # interval record.
            with self.obs.span("check", t_s=t, cat="interval") as sp:
                lines, counts = self.verifier.verify(run.work)
                sp.args.update(counts)
            stages.append(sp)
            with self.obs.span("fingerprint", t_s=t, cat="interval") as sp:
                record.fingerprint = _record_digest("\n".join(lines))
            stages.append(sp)
            if recorded is not None:
                self._replayed(record, recorded)
            elif run.measure_s > 0:
                with self.obs.span(
                    "measure", t_s=t, cat="interval",
                    services=len(run.work),
                ) as sp:
                    sp.args.update(self._measure(record, placement, run))
                stages.append(sp)
            with self.obs.span("report", t_s=t, cat="interval") as sp:
                record.duration_s = run.horizon_s - t
                run.report.intervals.append(record)
            new_failures = len(run.report.failures) - failures_before
            # The interval span is the step's decision record (the flight
            # ring keeps it): the path taken and what could not apply.
            interval_span.args.update(
                path=record.path, skipped=record.skipped,
                failures=new_failures,
            )
        stages.append(interval_span)
        if self.obs.enabled:
            self._step_log.append((record, new_failures, stages))
        run.last_t = t
        run.steps += 1
        return record

    def _fold_step_log(self) -> None:
        """Fold the steps closed since the last collect into the
        ``ops_*`` families, in step order."""
        log, self._step_log = self._step_log, []
        for record, new_failures, stages in log:
            for sp in stages:
                self._m_stage_wall.observe(sp.wall_s, stage=sp.name)
            self._m_intervals.inc()
            self._m_replans.inc(path=record.path)
            for kind in sorted(record.events):
                self._m_events.inc(record.events[kind], kind=kind)
            if new_failures:
                self._m_failures.inc(new_failures)
        if log:
            record = log[-1][0]
            self._m_services.set(record.services)
            self._m_gpus.set(record.num_gpus)
            self._m_spares.set(record.spare_gpus)

    def pending_due(self, t: float) -> list[OpsEvent]:
        """Pop controller-scheduled events (wave restores) due at ``t``."""
        run = self._require_run()
        out: list[OpsEvent] = []
        while run.pending and run.pending[0][0][0] <= t:
            out.append(heappop(run.pending)[2])
        return out

    def next_pending_time(self) -> Optional[float]:
        """Earliest controller-scheduled event time, or None."""
        run = self._require_run()
        return run.pending[0][0][0] if run.pending else None

    def would_full_replan(self, events: Iterable[OpsEvent]) -> bool:
        """Would this batch take the full re-schedule path if stepped now?

        The serve gateway's deadline scheduler asks this *before*
        committing to a step, so it can defer an expensive full re-plan
        past a blown budget; the predicate is exactly the branch
        :meth:`step` takes.  An arrival the step would refuse (see
        :meth:`_apply_service_event`) does not count.
        """
        run = self._require_run()
        if self.manager.current is None:
            return True
        structural = sum(
            1
            for e in events
            if isinstance(e, ServiceDeparture)
            or isinstance(e, ServiceArrival)
            and self._plannable(e.model, e.slo_latency_ms)
        )
        return structural > self.full_replan_fraction * max(1, len(run.work))

    def finish(self) -> OpsReport:
        """Close the run and return its report.

        The last interval keeps its provisional duration (to the
        horizon); the final deployment stays inspectable on
        ``self.manager`` until the next :meth:`begin`.
        """
        run = self._require_run()
        self._plans = None
        self._run = None
        return run.report

    # ------------------------------------------------------------------ #
    # the offline run loop (a driver over the step API)
    # ------------------------------------------------------------------ #

    def run(
        self,
        services: Sequence[Service],
        timeline: Iterable[OpsEvent],
        horizon_s: float,
        measure_s: float = 0.0,
        warmup_s: float = 0.1,
        sim_seed: int = 0,
        *,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str | Path] = None,
        resume: Optional[str | Path] = None,
        max_steps: Optional[int] = None,
    ) -> OpsReport:
        """Drive ``services`` through ``timeline`` until ``horizon_s``.

        With ``measure_s > 0`` every interval's deployment is *served*
        for that long (after ``warmup_s`` of warmup) and per-tenant SLO
        compliance is recorded, on the controller's own path: a fast
        controller through its run's memo, a naive reference on the
        event-driven simulation engine.

        Crash resilience: with ``checkpoint_path`` the run appends one
        line per closed interval to a run record
        (:mod:`repro.ops.checkpoint`), written and fsynced every
        ``checkpoint_every`` lines and when the run stops.  ``resume``
        (a record's path) re-drives the recorded prefix through this
        loop — the recorded measurements stand in for serving it again,
        and every replayed interval's instant and placement fingerprint
        must equal the record's — then continues live, appending to the
        record when ``checkpoint_path`` names the same file.  The
        record's controller configuration, run parameters, services and
        timeline must match this run's (verified against its header).
        ``max_steps`` stops after that many total intervals — the
        planned-drain counterpart of a crash.
        """
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every and checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        static = sorted(
            (e for e in timeline if e.time_s < horizon_s), key=timeline_key
        )
        params: dict[str, Any] = dict(
            horizon_s=horizon_s, measure_s=measure_s, warmup_s=warmup_s,
            sim_seed=sim_seed,
        )
        header = {
            "format": RECORD_FORMAT,
            "version": RECORD_VERSION,
            **self._config_doc(),
            **params,
            "services_sha": services_digest(services),
            "timeline_sha": timeline_digest(static),
        }
        writer: Optional[RecordWriter] = None
        try:
            recorded = None if resume is None else read_record(resume, header)
            self.begin(services, **params)
            try:
                if checkpoint_path is not None:
                    same = recorded is not None and os.path.exists(
                        checkpoint_path
                    ) and os.path.samefile(checkpoint_path, recorded.path)
                    writer = RecordWriter(
                        checkpoint_path, header, checkpoint_every,
                        recorded if same else None,
                    )
                replay: deque[dict[str, Any]] = deque(
                    () if recorded is None else recorded.intervals
                )
                si = 0
                # the bootstrap interval exists even on an empty timeline
                t: Optional[float] = 0.0
                while t is not None:
                    batch: list[OpsEvent] = []
                    while si < len(static) and static[si].time_s <= t:
                        batch.append(static[si])
                        si += 1
                    batch.extend(self.pending_due(t))
                    # Replayed steps bypass the public step(), which
                    # drivers and probes wrap to observe live steps only.
                    if replay:
                        record = self._step(t, batch, replay.popleft())
                    else:
                        record = self.step(t, batch)
                    steps = self._require_run().steps
                    if writer is not None and steps > writer.lines:
                        writer.append(record)
                    if max_steps is not None and steps >= max_steps:
                        break
                    t = self._next_instant(static, si)
                if writer is not None:
                    writer.flush()
            finally:
                report = self.finish()
                if writer is not None:
                    self._m_record_flushes.inc(writer.flushes)
        except (CheckpointError, OSError):
            # Post-mortem evidence first, then the error proceeds.
            self.obs.dump_flight("checkpoint-error")
            raise
        return report

    def _replayed(
        self, record: IntervalRecord, recorded: Mapping[str, Any]
    ) -> None:
        """Check that a replayed step reached the recorded instant and
        placement, then copy in the recorded measurement."""
        if (recorded["t"], recorded["fingerprint"]) != (
            record.time_s, record.fingerprint,
        ):
            raise CheckpointError(
                f"replay diverges from the run record at t={record.time_s!r}"
                f" (the record has t={recorded['t']!r}, fingerprint "
                f"{str(recorded['fingerprint'])[:12]} against "
                f"{record.fingerprint[:12]})"
            )
        for name in MEASURED_FIELDS:
            setattr(record, name, recorded[name])

    def _config_doc(self) -> dict[str, Any]:
        """The configuration a run record must match to resume."""
        return {
            "seed": self.seed,
            "fast_path": self.fast_path,
            "full_replan_fraction": self.full_replan_fraction,
            "spare_shadow_gpus": self.spare_shadow_gpus,
        }

    def _next_instant(
        self, static: Sequence[OpsEvent], si: int
    ) -> Optional[float]:
        """The run loop's next step instant, or None when drained."""
        next_times = []
        if si < len(static):
            next_times.append(static[si].time_s)
        pt = self.next_pending_time()
        if pt is not None:
            next_times.append(pt)
        return min(next_times) if next_times else None

    # ------------------------------------------------------------------ #
    # event application
    # ------------------------------------------------------------------ #

    def _apply_batch(
        self,
        t: float,
        batch: list[OpsEvent],
        work: list[Service],
        by_id: dict[str, Service],
        report: OpsReport,
        pending: list,
    ) -> IntervalRecord:
        counts: dict[str, int] = {}
        skipped = 0
        costs: list[ReconfigurationCost] = []
        ops = 0

        def count(e: OpsEvent) -> None:
            counts[e.kind] = counts.get(e.kind, 0) + 1

        service_events = [
            e
            for e in batch
            if isinstance(e, (ServiceDeparture, ServiceArrival, SloChange, RateEpoch))
        ]
        gpu_events = [
            e
            for e in batch
            if isinstance(e, (GpuRecovery, GpuFailure, SpotPreemptionWave))
        ]

        bootstrap = self.manager.current is None
        full = self.would_full_replan(service_events)
        for e in service_events:
            applied, plan = self._apply_service_event(
                e, work, by_id, replan=not full
            )
            if not applied:
                skipped += 1
            if plan is not None:
                costs.append(price_plan(plan))
                ops += plan.num_operations
            count(e)
        if full:
            # The delta demands a full re-plan: every service-level event
            # is folded into the fleet state; schedule from scratch.
            for svc in work:
                svc.request_rate = max(svc.request_rate, 1e-6)
                svc.reset_plan()
            placement = self.scheduler.schedule(work)
            plan = self.manager.deploy(placement)
            cost = price_plan(plan)
            if bootstrap:
                # Initial deployment precedes serving: the setup work is
                # real, but no tenant was interrupted — recording the
                # instance-creation time as per-service downtime would
                # dominate every run's headline downtime with a gap
                # nobody experienced.
                cost = ReconfigurationCost(
                    total_work_s=cost.total_work_s,
                    downtime_s={},
                    shadow_gpus=0,
                )
            costs.append(cost)
            ops += plan.num_operations
            # A from-scratch map renumbers GPUs: failed/spare ids recorded
            # against the old map are meaningless now.
            self.failover.reset()
            self._eid_to_gpu.clear()

        for e in gpu_events:
            applied, applied_costs, n = self._apply_gpu_event(
                t, e, by_id, report, pending
            )
            if not applied:
                skipped += 1
            costs.extend(applied_costs)
            ops += n
            count(e)

        total = ReconfigurationCost.combine(costs)
        return IntervalRecord(
            time_s=t,
            duration_s=0.0,  # filled by the run loop
            path="full" if full else "incremental",
            events=counts,
            skipped=skipped,
            services=len(work),
            num_gpus=self.manager.num_gpus,
            spare_gpus=len(self.manager.spare_gpus),
            reconfig_ops=ops,
            reconfig_work_s=total.total_work_s,
            max_downtime_s=total.max_downtime_s,
            downtime_total_s=total.downtime_total_s,
            zero_downtime=self.shadows.admit(t, total),
        )

    def _apply_service_event(
        self,
        e: ServiceArrival | ServiceDeparture | SloChange | RateEpoch,
        work: list[Service],
        by_id: dict[str, Service],
        replan: bool,
    ) -> tuple[bool, Optional[ReconfigurationPlan]]:
        """Fold one service-level event into the fleet state; with
        ``replan``, also re-plan it through the SIII-F incremental path.

        Returns whether the event applied, and the re-plan's transition
        (None when nothing was re-planned: no ``replan``, or an SLO or
        rate the service already has).  An arrival of a model nobody
        profiled, or an arrival or SLO change no operating point can
        meet, is refused: it counts as skipped and leaves the service,
        ``work`` and the placement as they were."""
        svc = by_id.get(e.service_id)
        if isinstance(e, ServiceArrival):
            if svc is not None:
                return False, None
            if not self._plannable(e.model, e.slo_latency_ms):
                return False, None
            svc = Service(
                id=e.service_id,
                model=e.model,
                slo_latency_ms=e.slo_latency_ms,
                request_rate=e.request_rate,
            )
            work.append(svc)
            by_id[svc.id] = svc
        elif svc is None:
            return False, None
        elif isinstance(e, ServiceDeparture):
            work.remove(svc)
            del by_id[svc.id]
            if not replan:
                return True, None
            _, plan = self.manager.remove_service(by_id, svc.id)
            return True, plan
        elif isinstance(e, SloChange):
            if replan and svc.slo_latency_ms == e.slo_latency_ms:
                return True, None
            if not self._plannable(
                svc.model, e.slo_latency_ms, svc.slo_factor
            ):
                return False, None
            svc.slo_latency_ms = e.slo_latency_ms
        elif isinstance(e, RateEpoch):
            rate = max(e.rate, 1e-6)
            if replan and svc.request_rate == rate:
                return True, None
            svc.request_rate = rate
        else:  # pragma: no cover
            raise TypeError(f"not a service-level event: {e!r}")
        if not replan:
            return True, None
        _, plan = self.manager.update_slo(by_id, svc)
        return True, plan

    def _plannable(
        self,
        model: str,
        slo_latency_ms: float,
        slo_factor: float = DEFAULT_SLO_FACTOR,
    ) -> bool:
        """Whether the Segment Configurator can plan a service of
        ``model`` under ``slo_latency_ms``: the model is known and
        profiled, and some operating point meets the SLO (the request
        rate never decides that)."""
        try:
            probe = Service(
                id=model, model=model, slo_latency_ms=slo_latency_ms,
                request_rate=1.0, slo_factor=slo_factor,
            )
            self.scheduler.configurator.triplet_decision(probe)
        except (KeyError, InfeasibleServiceError):
            return False
        return True

    def _fail_one(
        self,
        t: float,
        gpu_id: int,
        kind: str,
        event_id: str,
        by_id: dict[str, Service],
        report: OpsReport,
    ) -> tuple[ReconfigurationCost, int]:
        result = self.failover.fail_gpu(gpu_id, by_id)
        report.failures.append(
            FailureRecord(
                time_s=t,
                gpu_id=gpu_id,
                kind=kind,
                event_id=event_id,
                affected_services=result.affected_services,
                lost_capacity=sum(result.lost_capacity.values()),
                replan_work_s=result.cost.total_work_s,
                max_downtime_s=result.cost.max_downtime_s,
            )
        )
        return result.cost, result.reconfig_ops

    def _apply_gpu_event(
        self,
        t: float,
        e: OpsEvent,
        by_id: dict[str, Service],
        report: OpsReport,
        pending: list,
    ) -> tuple[bool, list[ReconfigurationCost], int]:
        if isinstance(e, GpuRecovery):
            gid = e.gpu_id if e.gpu_id is not None else self._eid_to_gpu.get(e.ref)
            if gid is None or gid not in self.failover.failed:
                return False, [], 0
            self.failover.restore_gpu(gid)
            for rec in reversed(report.failures):
                if rec.gpu_id == gid and rec.restored_at_s is None:
                    rec.restored_at_s = t
                    break
            return True, [], 0
        if isinstance(e, GpuFailure):
            if e.gpu_id is not None and e.gpu_id in self.manager.spare_gpus:
                # Losing a spare tears down nothing: drop it from the
                # free pool and remember it as failed so it can return.
                # Still a real GPU loss — record it (zero lost capacity,
                # zero relocation work) so restores find their failure
                # and the report's failure tally matches the timeline.
                self.manager.fail_spare(e.gpu_id)
                self._eid_to_gpu[e.event_id] = e.gpu_id
                report.failures.append(
                    FailureRecord(
                        time_s=t,
                        gpu_id=e.gpu_id,
                        kind="failure",
                        event_id=e.event_id,
                        affected_services=(),
                        lost_capacity=0.0,
                        replan_work_s=0.0,
                        max_downtime_s=0.0,
                    )
                )
                return True, [], 0
            if e.gpu_id is not None:
                if not self.manager.hosts_segments(e.gpu_id):
                    return False, [], 0
                gid = e.gpu_id
            else:
                occupied = self.manager.occupied_gpus()
                if not occupied:
                    return False, [], 0
                gid = occupied[int(e.draw * len(occupied))]
            cost, ops = self._fail_one(
                t, gid, "failure", e.event_id, by_id, report
            )
            self._eid_to_gpu[e.event_id] = gid
            return True, [cost], ops
        if isinstance(e, SpotPreemptionWave):
            occupied = self.manager.occupied_gpus()
            if not occupied:
                return False, [], 0
            count = min(
                len(occupied), max(1, math.ceil(e.fraction * len(occupied)))
            )
            rng = random.Random(f"{self.seed}:{e.event_id}:{e.draw}")
            victims = sorted(rng.sample(occupied, count))
            costs: list[ReconfigurationCost] = []
            ops = 0
            for gid in victims:
                if not self.manager.hosts_segments(gid):
                    # an earlier victim's relocation drained this GPU;
                    # preempting idle hardware tears down nothing
                    continue
                cost, n = self._fail_one(
                    t, gid, "preemption", f"{e.event_id}/{gid}", by_id, report
                )
                costs.append(cost)
                ops += n
                if e.restore_delay_s is not None:
                    back = t + e.restore_delay_s
                    if back < report.horizon_s:
                        ev = GpuRecovery(time_s=back, gpu_id=gid)
                        heappush(
                            pending,
                            (timeline_key(ev), self._pending_seq, ev),
                        )
                        self._pending_seq += 1
            return True, costs, ops
        raise TypeError(f"not a GPU-level event: {e!r}")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # measurement
    # ------------------------------------------------------------------ #

    def _measure(
        self, record: IntervalRecord, placement: Placement, run: _RunState
    ) -> dict[str, int]:
        """Serve ``placement`` into ``record``; returns the measure
        span's work counts: memo hits, misses the closed form resolved,
        plans reused whole and plans re-resolved out of the segments
        served, and services re-aggregated (the reference engine
        resolves every plan and aggregates every service)."""
        from repro.sim.runner import measure_interval

        plans = self._plans
        before = (0, 0) if plans is None else (
            plans.memo.hits_total, plans.memo.closed_form_total
        )
        m = measure_interval(
            placement,
            run.work,
            measure_s=run.measure_s,
            warmup_s=run.warmup_s,
            seed=run.sim_seed,
            plans=plans,
        )
        record.compliance = m.compliance
        record.sim_fingerprint = _record_digest(m.fingerprint)
        record.per_service_compliance = m.per_service
        if m.per_service:
            record.worst_service = m.worst_service
            record.worst_service_compliance = m.worst_compliance
        if plans is None:
            return {
                "memo_hits": 0, "closed_form": 0, "plans_reused": 0,
                "plans_resolved": len(placement.gpus),
                "services_reaggregated": len(m.per_service),
                "segments": sum(len(g.segments) for g in placement.gpus),
            }
        memo = plans.memo
        return {
            "memo_hits": memo.hits_total - before[0],
            "closed_form": memo.closed_form_total - before[1],
            "plans_reused": plans.reused,
            "plans_resolved": plans.resolved,
            "services_reaggregated": plans.reaggregated,
            "segments": plans.segments,
        }


def assert_reports_identical(fast: OpsReport, naive: OpsReport) -> None:
    """Raise :class:`OpsIdentityError` unless two replays of one timeline
    agree on every interval's time, placement fingerprint, and (when
    measured) simulation stats fingerprint.

    The single definition of the replay identity contract — shared by
    :func:`run_identity_checked` and the perf harness's recorded runs.
    """
    if len(fast.intervals) != len(naive.intervals):
        raise OpsIdentityError(
            f"interval counts differ: {len(fast.intervals)} vs "
            f"{len(naive.intervals)}"
        )
    for a, b in zip(fast.intervals, naive.intervals):
        if a.time_s != b.time_s or a.fingerprint != b.fingerprint:
            raise OpsIdentityError(
                f"placement fingerprints diverge at t={a.time_s}"
            )
        if a.sim_fingerprint != b.sim_fingerprint:
            raise OpsIdentityError(
                f"simulation fingerprints diverge at t={a.time_s}"
            )


def run_identity_checked(
    services: Sequence[Service],
    timeline: Iterable[OpsEvent],
    horizon_s: float,
    measure_s: float = 0.0,
    warmup_s: float = 0.1,
    sim_seed: int = 0,
    **controller_kwargs: object,
) -> tuple[OpsReport, OpsReport]:
    """Replay one timeline on the fast path *and* the naive reference.

    Both controllers consume the identical timeline from scratch; every
    interval's placement fingerprint — and, when serving is measured, its
    simulation stats fingerprint — must match exactly, or
    :class:`OpsIdentityError` is raised.

    The naive reference runs without a segment memo on the event-driven
    engine, so every interval checks the memoized fast replay against
    memo-free measurement.

    Returns ``(fast_report, naive_report)``.
    """
    timeline = tuple(timeline)
    fast = FleetController(fast_path=True, **controller_kwargs).run(
        services, timeline, horizon_s,
        measure_s=measure_s, warmup_s=warmup_s, sim_seed=sim_seed,
    )
    naive = FleetController(fast_path=False, **controller_kwargs).run(
        services, timeline, horizon_s,
        measure_s=measure_s, warmup_s=warmup_s, sim_seed=sim_seed,
    )
    assert_reports_identical(fast, naive)
    return fast, naive
