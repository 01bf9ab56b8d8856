"""The live-serving gateway: FleetController as an async control loop.

:class:`ServeGateway` wraps the re-entrant
:meth:`begin() <repro.ops.controller.FleetController.begin>` /
:meth:`step() <repro.ops.controller.FleetController.step>` /
:meth:`finish() <repro.ops.controller.FleetController.finish>` API in a
long-running asyncio loop: a feeder task drains an event source into
the ordered :class:`~repro.serve.intake.IntakeQueue`, the loop wakes at
each due instant, applies the batch through the controller's cheapest
correct path, and keeps a materialized :class:`OpsReport` snapshot for
the status surface.

**Deadline budget.**  In live mode the loop tracks *lag* — how far
scenario time has drifted past the instant being applied.  When lag
exceeds ``deadline_budget_s`` and the due batch would take the full
re-schedule path (structural churn above the controller's
``full_replan_fraction``), the batch is *deferred*: parked, coalesced
with the next due batch, and retried — so cheap single-delta events
keep landing on time while an expensive re-plan waits for slack.
Deferral never applies to GPU events (lost hardware cannot wait), to
the bootstrap placement, or past ``max_deferrals`` consecutive skips;
parked depth is surfaced as a health signal and any leftovers are
force-flushed before the run closes.

**Identity contract.**  Under a
:class:`~repro.serve.clock.VirtualClock` the gateway is a pure driver
over the offline controller: the source is drained completely before
the first step (so instant grouping sees the whole timeline, exactly
like :meth:`FleetController.run`), the clock's work stopwatch is frozen
at zero (so lag is zero and the scheduler never defers, even with a
budget configured), and stepping instants are the event instants — the
replayed report is bit-identical to the offline reference
(:func:`replay_identity_checked` asserts it; the perf harness's serve
suite records it).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import AsyncIterator, ClassVar, Iterable, Optional, Sequence

from repro.core.service import Service
from repro.obs import fields_doc
from repro.ops.controller import FleetController, assert_reports_identical
from repro.ops.events import (
    GpuFailure,
    GpuRecovery,
    OpsEvent,
    SpotPreemptionWave,
)
from repro.ops.report import OpsReport
from repro.serve.clock import Clock, VirtualClock
from repro.serve.intake import IntakeItem, IntakeQueue
from repro.serve.journal import Journal
from repro.serve.sources import timeline_source

#: Events the deadline scheduler refuses to defer: lost (or returning)
#: hardware must be handled the instant it surfaces.
_URGENT = (GpuFailure, GpuRecovery, SpotPreemptionWave)


def reaction_percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


@dataclass
class GatewayHealth:
    """Degradation signals the live status surface publishes."""

    steps: int = 0
    events_applied: int = 0
    #: batches the deadline scheduler parked instead of stepping
    deferrals: int = 0
    #: events currently parked awaiting slack
    deferred_depth: int = 0
    max_deferred_depth: int = 0
    #: deferred leftovers force-applied at shutdown
    forced_flushes: int = 0
    #: steps whose instant had to be clamped forward (late live events)
    late_steps: int = 0
    #: events refused because they were stamped at/past the horizon
    dropped_beyond_horizon: int = 0
    #: source reconnect attempts that eventually made progress
    source_retries: int = 0
    #: sources that died for good (retry budget exhausted) — safe mode
    source_failures: int = 0
    #: undecodable intake lines skipped (degraded-intake mode)
    malformed_lines: int = 0
    #: events admitted through the HTTP write path (``POST /events``)
    injected_events: int = 0
    #: HTTP submissions refused (malformed body or closed intake)
    rejected_events: int = 0
    #: transport errors swallowed while serving the status surface
    http_errors: int = 0
    #: the intake source is gone; the loop is draining what it has and
    #: will close the journal at shutdown
    safe_mode: bool = False
    #: per-step reaction latency in real seconds: work-stopwatch span
    #: from the batch's earliest enqueue to step completion (live only)
    reactions_s: list[float] = field(default_factory=list)

    #: the one spec driving both the ``/health`` document and the
    #: ``gateway_*`` metric families (see repro.obs.registry.attach)
    OBS_FIELDS: ClassVar[dict[str, str]] = {
        "steps": "counter",
        "events_applied": "counter",
        "deferrals": "counter",
        "deferred_depth": "gauge",
        "max_deferred_depth": "gauge",
        "forced_flushes": "counter",
        "late_steps": "counter",
        "dropped_beyond_horizon": "counter",
        "source_retries": "counter",
        "source_failures": "counter",
        "malformed_lines": "counter",
        "injected_events": "counter",
        "rejected_events": "counter",
        "http_errors": "counter",
        "safe_mode": "gauge",
    }

    def reaction_percentiles(self) -> dict[str, float]:
        return {
            "p50_ms": reaction_percentile(self.reactions_s, 0.50) * 1e3,
            "p95_ms": reaction_percentile(self.reactions_s, 0.95) * 1e3,
            "p99_ms": reaction_percentile(self.reactions_s, 0.99) * 1e3,
        }

    def to_doc(self) -> dict[str, object]:
        doc = fields_doc(self)
        if self.reactions_s:
            pct = self.reaction_percentiles()
            doc["reaction_p50_ms"] = round(pct["p50_ms"], 3)
            doc["reaction_p95_ms"] = round(pct["p95_ms"], 3)
            doc["reaction_p99_ms"] = round(pct["p99_ms"], 3)
        return doc


class ServeGateway:
    """One live (or replayed) serving session over a FleetController."""

    def __init__(
        self,
        controller: FleetController,
        services: Sequence[Service],
        horizon_s: float,
        clock: Optional[Clock] = None,
        *,
        measure_s: float = 0.0,
        warmup_s: float = 0.1,
        sim_seed: int = 0,
        deadline_budget_s: Optional[float] = None,
        max_deferrals: int = 8,
        snapshot_every: int = 0,
        journal: Optional[Journal] = None,
    ) -> None:
        if deadline_budget_s is not None and deadline_budget_s <= 0:
            raise ValueError("deadline budget must be positive")
        if max_deferrals < 1:
            raise ValueError("max_deferrals must be >= 1")
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        self.controller = controller
        self.services = list(services)
        self.horizon_s = horizon_s
        self.clock: Clock = clock if clock is not None else VirtualClock()
        self.measure_s = measure_s
        self.warmup_s = warmup_s
        self.sim_seed = sim_seed
        self.deadline_budget_s = deadline_budget_s
        self.max_deferrals = max_deferrals
        #: refresh the cached status snapshot every N steps (0 = only on
        #: demand / at shutdown — the cheap default for pure replays)
        self.snapshot_every = snapshot_every
        #: write-ahead journal: every admitted event is persisted before
        #: it enters the intake queue, so a crashed session replays
        self.journal = journal
        self.intake = IntakeQueue()
        self.health = GatewayHealth()
        # The gateway shares its controller's hub and binds the wall
        # sidecar track to the clock's work stopwatch: a VirtualClock
        # pins it to 0.0, so replayed traces/metrics stay byte-identical
        # while live sessions get true wall sidecars for free.
        self.obs = controller.obs
        self.obs.set_wall(self.clock.work_seconds)
        self.obs.registry.attach("gateway", self.health)
        if journal is not None:
            self.obs.registry.attach("journal", journal.stats)
        self._m_reaction = self.obs.histogram(
            "gateway_reaction_seconds",
            "wall sidecar: batch earliest-enqueue to step completion "
            "(live sessions only)",
        )
        self.report: Optional[OpsReport] = None
        self._deferred: list[IntakeItem] = []
        self._streak = 0  # consecutive deferrals
        self._last_t: Optional[float] = None
        self._cached_snapshot: Optional[dict[str, object]] = None
        self._source_error: Optional[str] = None

    # ------------------------------------------------------------------ #
    # the control loop
    # ------------------------------------------------------------------ #

    async def run(self, source: AsyncIterator[OpsEvent]) -> OpsReport:
        """Consume ``source`` to exhaustion and return the closed report."""
        self.report = self.controller.begin(
            self.services,
            self.horizon_s,
            measure_s=self.measure_s,
            warmup_s=self.warmup_s,
            sim_seed=self.sim_seed,
        )
        feeder: Optional[asyncio.Task[None]] = None
        try:
            if self.clock.is_virtual:
                # A deterministic replay groups instants exactly like the
                # offline run loop, which requires seeing the whole
                # timeline before the first step.
                await self._feed(source)
            else:
                feeder = asyncio.create_task(self._feed(source))
            await self._loop(feeder)
        finally:
            if feeder is not None:
                feeder.cancel()
                try:
                    await feeder
                except asyncio.CancelledError:
                    pass
            self.report = self.controller.finish()
            if self.journal is not None:
                self.journal.close()
        self._refresh_snapshot()
        return self.report

    async def _feed(self, source: AsyncIterator[OpsEvent]) -> None:
        try:
            async for event in source:
                self._admit(event)
        except (ConnectionError, OSError, EOFError, ValueError) as exc:
            # The last rung of the intake degradation ladder: per-line
            # skips and source reconnects happen upstream (``sources``);
            # an error surfacing *here* means the stream is gone for
            # good.  Enter safe mode: drain what was admitted, then shut
            # down through the normal path, which closes the journal.
            self.health.source_failures += 1
            self.health.safe_mode = True
            self._source_error = f"{type(exc).__name__}: {exc}"
            self.obs.note("safe-mode", error=self._source_error)
            self.obs.dump_flight("safe-mode")
        finally:
            self.intake.close()

    def _admit(self, event: OpsEvent) -> bool:
        """Horizon-check, journal (write-ahead), and enqueue one event.

        A closed intake refuses before anything is journaled, so the
        journal never holds an event the session did not act on.
        """
        if self.intake.closed:
            raise RuntimeError("intake queue is closed")
        if event.time_s >= self.horizon_s:
            self.health.dropped_beyond_horizon += 1
            return False
        if self.journal is not None:
            self.journal.append(event)
        self.intake.push(event, enqueued_at=self.clock.work_seconds())
        return True

    def inject(self, events: Sequence[OpsEvent]) -> tuple[int, int]:
        """Admit externally submitted events (the HTTP write path).

        Returns ``(accepted, dropped)`` — dropped meaning stamped at or
        past the horizon.  Raises :class:`RuntimeError` once the intake
        is closed (the session is draining or finished).
        """
        accepted = 0
        dropped = 0
        for event in events:
            if self._admit(event):
                accepted += 1
                self.health.injected_events += 1
            else:
                dropped += 1
        return accepted, dropped

    def count_malformed(self, line: str) -> None:
        """``on_malformed`` hook for sources: count a skipped bad line."""
        del line
        self.health.malformed_lines += 1

    def count_retry(self, exc: BaseException) -> None:
        """``on_retry`` hook for :func:`resilient_source`."""
        del exc
        self.health.source_retries += 1

    async def _loop(self, feeder: Optional[asyncio.Task[None]]) -> None:
        t = 0.0  # the bootstrap interval exists even on an empty stream
        while True:
            await self._wait_scenario(t)
            earlier = self.intake.next_time()
            if earlier is not None and earlier < t:
                t = earlier  # late/earlier work surfaced while waiting
            items = self.intake.pop_due(t)
            pending = self.controller.pending_due(t)
            self._step_or_defer(t, items, pending)
            nxt = self._next_instant()
            if nxt is None:
                if feeder is not None and not self.intake.closed:
                    # live stream still open: park until more work or EOF
                    await self.intake.wait_arrival()
                    continue
                break
            t = nxt
        self._flush_deferred()

    async def _wait_scenario(self, target: float) -> None:
        """Reach scenario instant ``target``; in live mode, wake early when
        an earlier-stamped event arrives so the caller can re-aim."""
        if self.clock.is_virtual:
            await self.clock.sleep_until(target)
            return
        while self.clock.now() < target:
            if self.intake.closed:
                # no more arrivals can surface: a plain sleep suffices
                await self.clock.sleep_until(target)
                return
            sleeper = asyncio.ensure_future(self.clock.sleep_until(target))
            waker = asyncio.ensure_future(self.intake.wait_arrival())
            done, not_done = await asyncio.wait(
                {sleeper, waker}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in not_done:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            if waker in done:
                earlier = self.intake.next_time()
                if earlier is not None and earlier < target:
                    return

    def _next_instant(self) -> Optional[float]:
        candidates = [
            x
            for x in (
                self.intake.next_time(),
                self.controller.next_pending_time(),
            )
            if x is not None
        ]
        return min(candidates) if candidates else None

    # ------------------------------------------------------------------ #
    # stepping and the deadline scheduler
    # ------------------------------------------------------------------ #

    def _step_or_defer(
        self,
        t: float,
        items: list[IntakeItem],
        pending: list[OpsEvent],
    ) -> None:
        bootstrap = self.health.steps == 0
        if not items and not pending and not self._deferred and not bootstrap:
            return  # spurious wake: nothing due, nothing parked
        batch_items = self._deferred + items
        events = [it.event for it in batch_items] + pending
        if self._should_defer(t, events, bootstrap):
            self._deferred = batch_items
            self._streak += 1
            self.health.deferrals += 1
            self.health.deferred_depth = len(self._deferred)
            self.health.max_deferred_depth = max(
                self.health.max_deferred_depth, self.health.deferred_depth
            )
            return
        self._apply(t, batch_items, events)

    def _should_defer(
        self, t: float, events: list[OpsEvent], bootstrap: bool
    ) -> bool:
        if self.deadline_budget_s is None or bootstrap or not events:
            return False
        if self._streak >= self.max_deferrals:
            return False  # starvation cap: the re-plan lands regardless
        if any(isinstance(e, _URGENT) for e in events):
            return False
        if not self.controller.would_full_replan(events):
            return False  # cheap single-delta path: apply on time
        # Lag is the one degradation signal: how far scenario time has
        # drifted past the instant being applied.  The virtual clock
        # always reads now() == t here, so replays never defer.
        lag = self.clock.now() - t
        return lag > self.deadline_budget_s

    def _apply(
        self,
        t: float,
        batch_items: list[IntakeItem],
        events: list[OpsEvent],
    ) -> None:
        # A late live event may be stamped before the last applied
        # instant; the step API refuses to move time backwards, so the
        # instant is clamped forward (and counted as degradation).
        if self._last_t is not None and t < self._last_t:
            t = self._last_t
            self.health.late_steps += 1
        with self.obs.span(
            "intake", t_s=t, cat="interval",
            events=len(events), batch=len(batch_items),
        ):
            record = self.controller.step(t, events)
        finished = self.clock.work_seconds()
        self._last_t = t
        self._deferred = []
        self._streak = 0
        self.health.steps += 1
        self.health.events_applied += len(events)
        self.health.deferred_depth = 0
        if batch_items and not self.clock.is_virtual:
            earliest = min(it.enqueued_at for it in batch_items)
            reaction = finished - earliest
            self.health.reactions_s.append(reaction)
            self._m_reaction.observe(reaction)
            # Wall sidecars on the record, never in fingerprinted state:
            # a live OpsReport can show true reaction latency while the
            # identity-checked document stays untouched (PR-7 follow-up).
            record.obs_sidecar["wall_arrival_s"] = earliest
            record.obs_sidecar["wall_finished_s"] = finished
            record.obs_sidecar["reaction_s"] = reaction
        if self.snapshot_every and self.health.steps % self.snapshot_every == 0:
            self._refresh_snapshot()

    def _flush_deferred(self) -> None:
        """Force-apply anything still parked when the run winds down."""
        if not self._deferred:
            return
        t = max(it.event.time_s for it in self._deferred)
        if self._last_t is not None:
            t = max(t, self._last_t)
        self.health.forced_flushes += 1
        self._apply(t, self._deferred, [it.event for it in self._deferred])

    # ------------------------------------------------------------------ #
    # the status snapshot
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, object]:
        """The materialized status document (built on first demand)."""
        if self._cached_snapshot is None:
            self._refresh_snapshot()
            assert self._cached_snapshot is not None
        return self._cached_snapshot

    def health_doc(self) -> dict[str, object]:
        """The full health surface: gateway and journal."""
        doc = self.health.to_doc()
        if self._source_error is not None:
            doc["source_error"] = self._source_error
        if self.journal is not None:
            doc["journal"] = self.journal.stats.to_doc()
        return doc

    def _refresh_snapshot(self) -> None:
        self._cached_snapshot = {
            "scenario_time_s": round(self.clock.now(), 3),
            "virtual_clock": self.clock.is_virtual,
            "intake_depth": len(self.intake),
            "health": self.health_doc(),
            "report": None if self.report is None else self.report.to_doc(),
        }


# ---------------------------------------------------------------------- #
# replay helpers: the gateway as an offline-identical timeline consumer
# ---------------------------------------------------------------------- #


def replay_gateway(
    services: Sequence[Service],
    timeline: Iterable[OpsEvent],
    horizon_s: float,
    *,
    measure_s: float = 0.0,
    warmup_s: float = 0.1,
    sim_seed: int = 0,
    deadline_budget_s: Optional[float] = None,
    controller: Optional[FleetController] = None,
    **controller_kwargs: object,
) -> OpsReport:
    """Replay a recorded timeline through the virtual-clock gateway.

    Constructs a :class:`FleetController` from ``controller_kwargs``
    (unless one is given), drives it through ``timeline`` with a fresh
    :class:`~repro.serve.clock.VirtualClock`, and returns the closed
    report — which the identity contract binds bit-for-bit to
    ``FleetController.run`` on the same timeline.
    """
    if controller is None:
        controller = FleetController(**controller_kwargs)
    gateway = ServeGateway(
        controller,
        services,
        horizon_s,
        VirtualClock(),
        measure_s=measure_s,
        warmup_s=warmup_s,
        sim_seed=sim_seed,
        deadline_budget_s=deadline_budget_s,
    )
    return asyncio.run(gateway.run(timeline_source(timeline)))


def replay_identity_checked(
    services: Sequence[Service],
    timeline: Iterable[OpsEvent],
    horizon_s: float,
    *,
    measure_s: float = 0.0,
    warmup_s: float = 0.1,
    sim_seed: int = 0,
    deadline_budget_s: Optional[float] = None,
    **controller_kwargs: object,
) -> tuple[OpsReport, OpsReport]:
    """Virtual-clock gateway replay vs the offline reference run.

    The gateway consumes ``timeline`` through the async loop; the
    reference is a plain ``FleetController.run`` over the identical
    timeline.
    Every interval's placement and simulation fingerprints must match
    exactly or :class:`~repro.ops.controller.OpsIdentityError` is
    raised.  Returns ``(gateway_report, offline_report)``.
    """
    timeline = tuple(timeline)
    gateway_report = replay_gateway(
        services,
        timeline,
        horizon_s,
        measure_s=measure_s,
        warmup_s=warmup_s,
        sim_seed=sim_seed,
        deadline_budget_s=deadline_budget_s,
        **controller_kwargs,
    )
    offline = FleetController(**controller_kwargs).run(
        services,
        timeline,
        horizon_s,
        measure_s=measure_s,
        warmup_s=warmup_s,
        sim_seed=sim_seed,
    )
    assert_reports_identical(gateway_report, offline)
    return gateway_report, offline
