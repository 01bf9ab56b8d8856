"""Deployment and the SIII-F SLO-update path.

``DeploymentManager`` owns a :class:`~repro.gpu.cluster.Cluster` and keeps
it in sync with the latest placement.  The SLO-update path re-runs the
Segment Configurator for *one* service, removes only that service's
segments from the deployment map, re-relocates them into the existing map
and re-optimizes — so services whose placement did not change are not
reconfigured (the paper's reconfiguration-overhead argument).

The manager also tracks **spare GPUs**: devices that are known-good but
currently host nothing, e.g. a preempted spot GPU that came back
(:meth:`~repro.core.failover.FailoverController.restore_gpu`), and
**retired GPUs** whose ids stay reserved while they are down.  Both
ledgers change only through manager methods, and the retired ledger is
the one record of reserved ids: every incremental re-plan's allocator
numbers fresh GPUs past it (``SegmentAllocator(reserved=...)``).

Incremental deltas (SLO/rate updates, departures, failover) enter one
placement state through one method, :meth:`DeploymentManager.apply`;
the full schedule (:meth:`deploy`) is the other way in.  The manager's
``fast_path`` picks what ``apply`` runs a delta on:

- the **live state** (``fast_path=True``, the default): a
  :class:`~repro.core.allocator.LiveFleet` plus the published placement's
  per-GPU plans (by id and in order), a service->GPU map and the ids of
  the occupied GPUs.  It is built lazily from the placement on the first
  delta after a full deploy and then updated in place: a delta re-plans,
  validates and diffs only the GPUs it touched, re-routes only the
  services whose segments it moved (and the one it re-planned), and
  publishes a new :class:`Placement` whose ``gpus`` list shares every
  untouched :class:`GPUPlan` — and its cached fingerprint line.  Plans
  are immutable by type, so publishing is copy-on-write by construction:
  a touched GPU gets a new plan, and re-routing replaces only the plans
  whose shares moved.  The fleet's committed per-GPU states are frozen
  the same way;
- the **rebuild** (``fast_path=False``): the plain list
  :meth:`~DeploymentManager.build_states` rebuilds from the current
  placement — spares appended as empty GPUs after the live fleet, so
  restored capacity is drafted only when no hole in the live fleet
  fits — after which the whole map is re-rated and deployed.  It is the
  naive reference the live state is replayed against, and the fleet
  controller's per-interval check compares the two.

A delta is written once, over a
:data:`~repro.core.allocator.GPUOrder`: handed the live fleet it probes
through the slot index, handed the rebuilt list it runs the naive scan.

:meth:`deploy` of any placement the live state did not produce (a full
schedule) takes the full cluster diff and drops the live state.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Callable,
    ClassVar,
    Mapping,
    Optional,
    Sequence,
    cast,
)

from repro.core.allocator import (
    Commit,
    GPUOrder,
    LiveFleet,
    SegmentAllocator,
    _GPUState,
    placed_segment,
    plan_from_state,
    states_from_placement,
)
from repro.core.configurator import SegmentConfigurator
from repro.core.placement import GPUPlan, PlacedSegment, Placement
from repro.core.segments import Segment
from repro.core.service import Service, Services, service_index
from repro.gpu.cluster import Cluster, ReconfigurationPlan
from repro.gpu.geometry import PartitionGeometry, get_geometry
from repro.gpu.mig import MIG_GEOMETRY
from repro.profiler.table import ProfileTable


@dataclass
class AllocatorStats:
    """Deterministic work counters of the allocator state.

    Sidecar-only (never fingerprinted); the fleet controller attaches
    them to its registry as ``alloc_*`` families.
    """

    #: allocator states rebuilt from a placement
    states_rebuilt: int = 0
    #: GPUs those rebuilds created
    gpus_rebuilt: int = 0
    #: GPUs live deltas updated in place (changed or left the order)
    gpus_touched: int = 0
    #: GPUs the live deltas' compaction walks visited, and the segments
    #: those walks moved
    compact_visits: int = 0
    compact_moves: int = 0

    OBS_FIELDS: ClassVar[dict[str, str]] = {
        "states_rebuilt": "counter",
        "gpus_rebuilt": "counter",
        "gpus_touched": "counter",
        "compact_visits": "counter",
        "compact_moves": "counter",
    }


def _positions(pairs: Sequence[tuple[Segment, int]]) -> dict[str, list[int]]:
    """Where each service's (Segment, start) pairs sit on one GPU."""
    at: dict[str, list[int]] = {}
    for i, (seg, _) in enumerate(pairs):
        at.setdefault(seg.service_id, []).append(i)
    return at


class LiveState:
    """The persistent allocator state behind one published placement."""

    def __init__(self, placement: Placement, fleet: LiveFleet) -> None:
        self.placement = placement
        self.fleet = fleet
        #: gpu_id -> the published plan (shared with ``placement``)
        self.plans: dict[int, GPUPlan] = {g.gpu_id: g for g in placement.gpus}
        #: the published plans in the fleet's live order (the published
        #: placement holds a copy, so nothing outside edits this one)
        self.gpus: list[GPUPlan] = list(placement.gpus)
        #: ids of the GPUs hosting segments, ascending
        self.occupied: list[int] = sorted(
            g.gpu_id for g in placement.gpus if not g.is_empty
        )
        #: gpu_id -> the committed allocator state its plan was built
        #: from: ``states[g].placed[i]`` is ``plans[g].segments[i]``
        self.states: dict[int, _GPUState] = {
            state.gpu_id: state
            for state in fleet.index.states(
                key for key in fleet.live_keys() if key in fleet.index
            )
        }
        #: service -> ids of the GPUs hosting it
        self.hosts: dict[str, set[int]] = {}
        for g in placement.gpus:
            for seg in g.segments:
                self.hosts.setdefault(seg.service_id, set()).add(g.gpu_id)


class DeploymentManager:
    """Keeps a physical (simulated) cluster in sync with placements.

    ``geometry`` is the geometry of the *profiles* handed in — the one the
    SLO-update path re-plans with (MIG by default).  Per-GPU state during
    incremental re-planning always follows each plan's own geometry.
    ``fast_path`` picks the state every incremental delta runs on: the
    live state (True) or the rebuild reference (False).  The SLO-update
    path always plans with MPS and Allocation Optimization.
    """

    def __init__(
        self,
        profiles: Mapping[str, ProfileTable],
        geometry: PartitionGeometry = MIG_GEOMETRY,
        fast_path: bool = True,
    ) -> None:
        self.profiles = profiles
        self.geometry = geometry
        self.fast_path = fast_path
        self.cluster = Cluster(geometry=geometry)
        self.configurator = SegmentConfigurator(
            profiles, geometry=geometry, memoize=fast_path
        )
        self.current: Optional[Placement] = None
        self.stats = AllocatorStats()
        self._spares: dict[int, str] = {}
        self._retired: dict[int, str] = {}
        self._live: Optional[LiveState] = None

    # ------------------------------------------------------------------ #
    # GPU ledgers
    # ------------------------------------------------------------------ #

    @property
    def spare_gpus(self) -> Mapping[int, str]:
        """Known-good empty GPUs available to re-plans: gpu_id -> geometry
        name.  Populated by ``FailoverController.restore_gpu``."""
        return MappingProxyType(self._spares)

    @property
    def retired_gpus(self) -> Mapping[int, str]:
        """GPUs out of service (failed/preempted, not yet restored):
        gpu_id -> geometry name.  Their ids stay reserved — a re-plan
        must never hand a dead device's id to a fresh GPU, or a later
        restore would collide with live capacity."""
        return MappingProxyType(self._retired)

    def retire_gpu(self, gpu_id: int, geometry: str) -> None:
        """Take a hosting GPU out of service, reserving its id."""
        self._retired[gpu_id] = geometry
        if self._live is not None:
            self._live.fleet.retire(gpu_id)

    def fail_spare(self, gpu_id: int) -> str:
        """A spare GPU failed: move it to the retired ledger."""
        geometry = self._spares.pop(gpu_id)
        self.retire_gpu(gpu_id, geometry)
        return geometry

    def restore_retired(self, gpu_id: int) -> str:
        """A retired GPU is back: register it as a spare."""
        geometry = self._retired.pop(gpu_id)
        self._spares[gpu_id] = geometry
        if self._live is not None:
            self._live.fleet.add_spare(gpu_id, geometry)
        return geometry

    def set_ledgers(
        self, spares: Mapping[int, str], retired: Mapping[int, str]
    ) -> None:
        """Replace both ledgers (a full re-plan)."""
        self._spares = dict(spares)
        self._retired = dict(retired)
        self._live = None

    def _synced(self) -> Optional[LiveState]:
        """The live state, if it is the current placement's."""
        live = self._live
        if live is None or live.placement is not self.current:
            return None
        return live

    def plan_of(self, gpu_id: int) -> Optional[GPUPlan]:
        """The current placement's plan for ``gpu_id``, if it has one: a
        lookup in the live state, a scan without one."""
        live = self._synced()
        if live is not None:
            return live.plans.get(gpu_id)
        if self.current is None:
            return None
        return next((g for g in self.current.gpus if g.gpu_id == gpu_id), None)

    def hosts_segments(self, gpu_id: int) -> bool:
        """Does ``gpu_id`` host segments in the current placement?"""
        plan = self.plan_of(gpu_id)
        return plan is not None and not plan.is_empty

    def hosts_service(self, service_id: str) -> bool:
        """Does ``service_id`` have segments in the current placement?"""
        live = self._synced()
        if live is not None:
            return service_id in live.hosts
        return self.current is not None and bool(
            self.current.segments_of(service_id)
        )

    def occupied_gpus(self) -> list[int]:
        """Ids of the GPUs hosting segments in the current placement,
        ascending: a copy of the list the live state maintains, a recount
        without one."""
        live = self._synced()
        if live is not None:
            return list(live.occupied)
        if self.current is None:
            return []
        return sorted(g.gpu_id for g in self.current.gpus if not g.is_empty)

    @property
    def num_gpus(self) -> int:
        """GPUs hosting segments in the current placement (0 before the
        first deploy); maintained by the live state, counted without
        one."""
        live = self._synced()
        if live is not None:
            return len(live.occupied)
        return 0 if self.current is None else self.current.num_gpus

    # ------------------------------------------------------------------ #
    # initial deployment
    # ------------------------------------------------------------------ #

    def deploy(self, placement: Placement) -> ReconfigurationPlan:
        """Reconfigure the cluster to host ``placement``.

        Returns the reconfiguration plan that was executed; every running
        instance it does not destroy kept serving throughout (the paper's
        shadow-process-free fast path).  The live allocator state (if
        any) is dropped: the next incremental delta rebuilds it from
        ``placement``.
        """
        self._live = None
        placement.validate()
        plan = self.cluster.plan_reconfiguration(placement.to_instance_specs())
        self.cluster.execute(plan)
        self.current = placement
        # A spare that the re-plan drafted is spare no longer.
        if self._spares:
            occupied = {g.gpu_id for g in placement.gpus if not g.is_empty}
            self._spares = {
                gid: name
                for gid, name in self._spares.items()
                if gid not in occupied
            }
        return plan

    # ------------------------------------------------------------------ #
    # incremental deltas
    # ------------------------------------------------------------------ #

    def apply(
        self,
        services: Services,
        delta: Callable[[GPUOrder], None],
        leaving: Optional[str] = None,
    ) -> tuple[Placement, ReconfigurationPlan]:
        """Run one incremental delta, then publish and deploy its map.

        ``leaving`` names a service whose segments are dropped before
        ``delta`` runs (it is being re-planned or departs).  On the fast
        path ``delta`` runs on the live fleet and only what it touched is
        published; a delta that raises drops the live state (the
        placement and the cluster are untouched until publication), so
        the next delta rebuilds it from the unchanged current placement.
        On the reference path it runs on :meth:`build_states`, and the
        whole map is assembled, re-rated and deployed.
        """
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        if not self.fast_path:
            gpus = self.build_states(exclude_service=leaving)
            delta(gpus)
            placement = SegmentAllocator._to_placement(gpus)
            placement.framework = self.current.framework
            placement.assign_rates({
                sid: s.request_rate
                for sid, s in service_index(services).items()
            })
            return placement, self.deploy(placement)
        live = self.live_state()
        try:
            if leaving is not None:
                for gid in sorted(live.hosts.get(leaving, ())):
                    live.fleet.remove_segments(gid, leaving)
            delta(live.fleet)
            return self._publish(live, services, live.fleet.commit(), leaving)
        except BaseException:
            self._live = None
            raise

    def build_states(
        self, exclude_service: Optional[str] = None
    ) -> list[_GPUState]:
        """Allocator build-state of the live map, spares included.

        The rebuild reference of every incremental re-plan (SLO updates,
        failover, departures): per-GPU states are rebuilt from the current
        placement (each under its own geometry) and the registered spare
        GPUs are appended as empty states in gpu-id order, so restored
        capacity is drafted only when no hole in the live fleet fits.

        Retired GPUs (failed, not yet restored) hold no state: a retired
        GPU the placement still lists (a failed GPU whose segments are
        being relocated) is left out, and the re-plan's allocator keeps
        fresh ids above every retired one (its ``reserved`` ids).
        """
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        retired = self._retired
        states = [
            state
            for state in states_from_placement(
                self.current, exclude_service=exclude_service
            )
            if state.gpu_id not in retired
        ]
        live = {s.gpu_id for s in states}
        states += [
            _GPUState(gpu_id=gid, geometry=get_geometry(name))
            for gid, name in sorted(self._spares.items())
            if gid not in live
        ]
        self.stats.states_rebuilt += 1
        self.stats.gpus_rebuilt += len(states)
        return states

    def live_state(self) -> LiveState:
        """The live state of the current placement, built on first use."""
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        live = self._synced()
        if live is None:
            states = states_from_placement(self.current)
            self.stats.states_rebuilt += 1
            self.stats.gpus_rebuilt += len(states)
            fleet = LiveFleet(states, self._spares, self._retired)
            live = self._live = LiveState(self.current, fleet)
        return live

    def live_states(self) -> Optional[list[_GPUState]]:
        """The live state in :meth:`build_states` order, or None if the
        current placement has none (nothing incremental since a deploy)."""
        live = self._synced()
        return None if live is None else live.fleet.states_in_order()

    def _publish(
        self,
        live: LiveState,
        services: Services,
        commit: Commit,
        leaving: Optional[str] = None,
    ) -> tuple[Placement, ReconfigurationPlan]:
        """Publish a committed delta: plans, rates, scoped cluster diff.

        Equal, byte for byte, to ``_to_placement`` + ``assign_rates`` +
        :meth:`deploy` over the whole fleet, in O(what the delta moved).
        A service's shares depend only on its rate and on its segments'
        (gpu, start, capacity) sequence in placement order, which is the
        sequence ``assign_rates`` sums.  The live section keeps its order,
        so that sequence moved only if the service's segments on some
        changed or departed GPU did.  Only those services, and
        ``leaving`` (the service the delta re-planned or removed: a
        re-planned one's rate may have changed even where its segments
        did not), are re-routed at their current rate over every GPU
        hosting them.  Every other
        service keeps its shares exactly: on a changed GPU its segments
        take the served rates its old plan carried.  Untouched GPUs keep
        their plans, the plan list is patched at the positions that
        changed, and only changed GPUs are validated and diffed.  A delta
        re-plans every service whose rate it changes, so the others kept
        the rates they were routed with (a rate changed behind the
        manager's back is what the fleet controller's state check reports
        as stale).
        """
        assert self.current is not None
        fleet = live.fleet
        plans = live.plans
        hosts = live.hosts
        occupied = live.occupied
        changed = commit.changed
        moved: set[str] = set()  # services whose shares may move
        if leaving is not None:
            moved.add(leaving)
        states = live.states
        for gid in commit.left:
            old = plans.pop(gid, None)
            states.pop(gid, None)
            if old is None or old.is_empty:
                continue
            del occupied[bisect_left(occupied, gid)]
            for seg in old.segments:
                moved.add(seg.service_id)
                hosts[seg.service_id].discard(gid)
        # Each changed GPU's segments, service by service, against its old
        # plan's through the allocator state that plan was built from
        # (``states[g].placed[i]`` is ``plans[g].segments[i]``).  A
        # service whose (Segment, start) pairs on the GPU are equal, in
        # order, keeps its published segments (a drained GPU mostly takes
        # back what it held); one whose (start, capacity) sequence is
        # equal gets new segments at its old served rates; any other one
        # moved.
        fresh: list[tuple[int, list[PlacedSegment], list[int], str]] = []
        for gid in changed:
            state = fleet[fleet.key_of(gid)]
            geometry = state.geometry
            old_state = states.get(gid)
            states[gid] = state
            old = plans.get(gid)
            if old is None or old.is_empty:
                insort(occupied, gid)
                plans[gid] = plan_from_state(state)
                for seg, _ in state.placed:
                    hosts.setdefault(seg.service_id, set()).add(gid)
                    moved.add(seg.service_id)
                continue
            assert old_state is not None
            olds = old.segments
            pairs = state.placed
            was = _positions(old_state.placed)
            segs: list[Optional[PlacedSegment]] = [None] * len(pairs)
            carried: list[int] = []  # positions holding an old served rate
            for sid, now in _positions(pairs).items():
                then = was.pop(sid, None)
                if then is not None and len(then) == len(now) and all(
                    old_state.placed[i] == pairs[j] for i, j in zip(then, now)
                ):
                    for i, j in zip(then, now):
                        segs[j] = olds[i]
                    carried += now
                    continue
                made = [placed_segment(*pairs[j], geometry) for j in now]
                if then is None:
                    hosts.setdefault(sid, set()).add(gid)
                    moved.add(sid)
                elif [(olds[i].start, olds[i].capacity) for i in then] == [
                    (seg.start, seg.capacity) for seg in made
                ]:
                    made = [
                        seg.with_served_rate(olds[i].served_rate)
                        for i, seg in zip(then, made)
                    ]
                    carried += now
                else:
                    moved.add(sid)
                for j, seg in zip(now, made):
                    segs[j] = seg
            for sid in was:  # gone from this GPU
                hosts[sid].discard(gid)
                moved.add(sid)
            fresh.append((
                gid, cast(list[PlacedSegment], segs),  # every one filled
                carried, geometry.name,
            ))
        # A moved service restarts from the rebuild's unrouted 0.0 and is
        # re-routed below; every other service keeps its served rates.
        for gid, placed, carried, name in fresh:
            for j in carried:
                if placed[j].service_id in moved:
                    placed[j] = placed[j].with_served_rate(0.0)
            plans[gid] = GPUPlan(gid, tuple(placed), name)
        by_id = service_index(services)
        emptied = []
        for sid in moved:
            if sid in hosts and not hosts[sid]:
                del hosts[sid]
                emptied.append(sid)
        lost = sorted(sid for sid in emptied if sid in by_id)
        if lost:
            raise ValueError(f"no partitions for service {lost[0]!r}")

        # Re-route every plan hosting a moved service, in placement
        # order: assign_rates then sums each service's capacity exactly
        # as over the whole map, and replaces only the plans whose
        # shares moved (the others keep their cached lines).  A hosted
        # service without a rate carries rate 0, as on a rebuilt plan.
        key_of = fleet.key_of
        rerouted = sorted(
            {gid for sid in moved for gid in hosts.get(sid, ())},
            key=key_of,
        )
        routed = Placement(framework="", gpus=[plans[gid] for gid in rerouted])
        rates: dict[str, float] = {}
        for sid in sorted(moved):
            if sid in hosts:
                svc = by_id.get(sid)
                rates[sid] = 0.0 if svc is None else svc.request_rate
        routed.assign_rates(rates)
        plans.update(zip(rerouted, routed.gpus))

        # The live section kept its order: drop the GPUs that left at
        # their positions, append the joining ones, then patch every
        # GPU whose plan is new.
        gpus = live.gpus
        for i in commit.left_at:
            del gpus[i]
        joined = len(fleet.live_keys()) - len(gpus)
        gpus += [plans[gid] for gid in changed[len(changed) - joined:]]
        position = fleet.position
        for gid in set(changed).union(rerouted):
            gpus[position(gid)] = plans[gid]
        placement = Placement(
            framework=self.current.framework,
            gpus=list(gpus),
            rates_assigned=True,
        )
        for gid in changed:
            plans[gid].validate()
        target = Placement(
            framework=placement.framework,
            gpus=[plans[gid] for gid in sorted(changed, key=key_of)],
        ).to_instance_specs()
        plan = self.cluster.plan_reconfiguration(
            target, gpu_ids=set(changed).union(commit.left)
        )
        self.cluster.execute(plan)
        self.current = live.placement = placement
        for gid in commit.drafted:
            self._spares.pop(gid, None)
        stats = self.stats
        stats.gpus_touched += len(changed) + len(commit.left)
        stats.compact_visits += commit.compact_visits
        stats.compact_moves += commit.compact_moves
        return placement, plan

    # ------------------------------------------------------------------ #
    # service departure
    # ------------------------------------------------------------------ #

    def remove_service(
        self, services: Services, departed_id: str
    ) -> tuple[Placement, ReconfigurationPlan]:
        """Tear down one service, leaving every other segment in place.

        ``services`` is the *remaining* fleet (the departed service
        excluded) — its rates are re-assigned over the surviving map.
        GPUs fully emptied by the departure are released (scale-in), not
        kept as spares: a spare records restored capacity, not a tenant
        leaving.
        """
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        if not self.hosts_service(departed_id):
            raise ValueError(f"service {departed_id!r} hosts no segments")
        return self.apply(services, lambda gpus: None, leaving=departed_id)

    # ------------------------------------------------------------------ #
    # SLO update (SIII-F)
    # ------------------------------------------------------------------ #

    def update_slo(
        self,
        services: Services,
        changed: Service,
        new_slo_ms: Optional[float] = None,
        new_rate: Optional[float] = None,
    ) -> tuple[Placement, ReconfigurationPlan]:
        """Re-plan one service without re-profiling or moving the others.

        Implements SIII-F: the Segment Configurator reconstructs only the
        changed service's segments; the deployment map keeps every other
        service where it is; relocation + optimization run for the changed
        service's segments only.
        """
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        if new_slo_ms is not None:
            changed.slo_latency_ms = new_slo_ms
        if new_rate is not None:
            changed.request_rate = new_rate
        changed.reset_plan()
        self.configurator.configure([changed])
        allocator = SegmentAllocator(
            geometry=self.geometry, reserved=self._retired
        )
        by_id = service_index(services)

        def replan(gpus: GPUOrder) -> None:
            allocator.relocate(gpus, changed.segments())
            allocator.allocation_optimization(gpus, by_id)

        return self.apply(by_id, replan, leaving=changed.id)
