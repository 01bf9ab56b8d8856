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
ledgers change only through manager methods.

Incremental deltas (SLO/rate updates, departures, failover) have two
entry points into one placement state, the full schedule being the
third (:meth:`deploy`):

- the **live state** (``fast_path=True``, the default): a
  :class:`~repro.core.allocator.LiveFleet` plus the published placement's
  per-GPU plans (by id and in order), a service->GPU map and the ids of
  the occupied GPUs.  It is built lazily from the placement on the first
  delta after a full deploy and then updated in place: a delta re-plans,
  re-rates, validates and diffs only the GPUs (and services) it touched,
  and publishes a new :class:`Placement` whose ``gpus`` list shares every
  untouched :class:`GPUPlan` — and its cached fingerprint line.  Plans
  are immutable by type, so publishing is copy-on-write by construction:
  a touched GPU gets a new plan, and re-routing replaces only the plans
  whose shares moved.  The fleet's committed per-GPU states are frozen
  the same way;
- the **rebuild** (``fast_path=False``): :meth:`apply_rebuilt` runs a
  delta on the plain list :meth:`build_states` rebuilds from the current
  placement — spares appended as empty GPUs after the live fleet and
  retired ids as blocked sentinels, so restored capacity is drafted only
  when no hole in the live fleet fits — then re-rates and deploys the
  whole map.  It is the naive reference the live state is replayed
  against, and the fleet controller's per-interval check compares the
  two.

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
from typing import Callable, ClassVar, Collection, Mapping, Optional

from repro.core.allocator import (
    Commit,
    GPUOrder,
    LiveFleet,
    SegmentAllocator,
    _GPUState,
    plan_from_state,
    states_from_placement,
)
from repro.core.configurator import SegmentConfigurator
from repro.core.placement import GPUPlan, Placement
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

    OBS_FIELDS: ClassVar[dict[str, str]] = {
        "states_rebuilt": "counter",
        "gpus_rebuilt": "counter",
        "gpus_touched": "counter",
    }


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
    """

    def __init__(
        self,
        profiles: Mapping[str, ProfileTable],
        cluster: Optional[Cluster] = None,
        geometry: PartitionGeometry = MIG_GEOMETRY,
    ) -> None:
        self.profiles = profiles
        self.geometry = geometry
        self.cluster = (
            cluster if cluster is not None else Cluster(geometry=geometry)
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
            self._live.fleet.retire(gpu_id, geometry)

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

    def hosts_segments(self, gpu_id: int) -> bool:
        """Does ``gpu_id`` host segments in the current placement?"""
        if self._live is not None and self._live.placement is self.current:
            plan = self._live.plans.get(gpu_id)
            return plan is not None and not plan.is_empty
        return self.current is not None and any(
            g.gpu_id == gpu_id and not g.is_empty for g in self.current.gpus
        )

    def occupied_gpus(self) -> list[int]:
        """Ids of the GPUs hosting segments in the current placement,
        ascending: a copy of the list the live state maintains, a recount
        without one."""
        live = self._live
        if live is not None and live.placement is self.current:
            return list(live.occupied)
        if self.current is None:
            return []
        return sorted(g.gpu_id for g in self.current.gpus if not g.is_empty)

    @property
    def num_gpus(self) -> int:
        """GPUs hosting segments in the current placement (0 before the
        first deploy); maintained by the live state, counted without
        one."""
        live = self._live
        if live is not None and live.placement is self.current:
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
    # incremental allocator state: the rebuild reference
    # ------------------------------------------------------------------ #

    def build_states(
        self,
        exclude_service: Optional[str] = None,
        skip_gpu: Optional[int] = None,
    ) -> list[_GPUState]:
        """Allocator build-state of the live map, spares included.

        The rebuild reference of every incremental re-plan (SLO updates,
        failover, departures): per-GPU states are rebuilt from the current
        placement (each under its own geometry) and the registered spare
        GPUs are appended as empty states in gpu-id order, so restored
        capacity is drafted only when no hole in the live fleet fits.

        Retired GPUs (failed, not yet restored) are appended as *blocked*
        sentinel states: first-fit can never place on them and
        ``_to_placement`` drops them, but their presence keeps the
        allocator's fresh-GPU id counter above every dead device's id —
        so a later restore never collides with live capacity.
        """
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        states = states_from_placement(
            self.current, exclude_service=exclude_service, skip_gpu=skip_gpu
        )
        states += self.ledger_states(
            {s.gpu_id for s in states}, skip_gpu=skip_gpu
        )
        self.stats.states_rebuilt += 1
        self.stats.gpus_rebuilt += len(states)
        return states

    def ledger_states(
        self, live: Collection[int], skip_gpu: Optional[int] = None
    ) -> list[_GPUState]:
        """What :meth:`build_states` appends after the placement's GPUs
        ``live``: an empty state per spare, then a blocked sentinel per
        retired id, each in gpu-id order."""
        states: list[_GPUState] = []
        for gid in sorted(self._spares):
            if gid in live or gid == skip_gpu:
                continue
            states.append(
                _GPUState(gpu_id=gid, geometry=get_geometry(self._spares[gid]))
            )
        for gid in sorted(self._retired):
            if gid in live:
                continue
            states.append(
                _GPUState(
                    gpu_id=gid,
                    geometry=get_geometry(self._retired[gid]),
                    blocked=True,
                )
            )
        return states

    def apply_rebuilt(
        self,
        services: Services,
        delta: Callable[[list[_GPUState]], None],
        exclude_service: Optional[str] = None,
        skip_gpu: Optional[int] = None,
    ) -> tuple[Placement, ReconfigurationPlan]:
        """Run ``delta`` on a rebuilt state, then assemble, re-rate and
        deploy the whole map — the reference twin of :meth:`apply_live`.
        """
        gpus = self.build_states(
            exclude_service=exclude_service, skip_gpu=skip_gpu
        )
        assert self.current is not None
        delta(gpus)
        placement = SegmentAllocator._to_placement(gpus)
        placement.framework = self.current.framework
        placement.assign_rates({
            sid: s.request_rate
            for sid, s in service_index(services).items()
        })
        return placement, self.deploy(placement)

    # ------------------------------------------------------------------ #
    # incremental allocator state: the live state
    # ------------------------------------------------------------------ #

    def live_state(self) -> LiveState:
        """The live state of the current placement, built on first use."""
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        live = self._live
        if live is None or live.placement is not self.current:
            states = states_from_placement(self.current)
            self.stats.states_rebuilt += 1
            self.stats.gpus_rebuilt += len(states)
            fleet = LiveFleet(states, self._spares, self._retired)
            live = self._live = LiveState(self.current, fleet)
        return live

    def live_states(self) -> Optional[list[_GPUState]]:
        """The live state in :meth:`build_states` order, or None if the
        current placement has none (nothing incremental since a deploy)."""
        live = self._live
        if live is None or live.placement is not self.current:
            return None
        return live.fleet.states_in_order()

    def apply_live(
        self,
        services: Services,
        delta: Callable[[LiveState], None],
    ) -> tuple[Placement, ReconfigurationPlan]:
        """Run ``delta`` on the live state, then publish and deploy.

        A delta that raises drops the live state (the placement and the
        cluster are untouched until publication), so the next delta
        rebuilds it from the unchanged current placement.
        """
        live = self.live_state()
        try:
            delta(live)
            return self._publish(live, services, live.fleet.commit())
        except BaseException:
            self._live = None
            raise

    def _publish(
        self, live: LiveState, services: Services, commit: Commit
    ) -> tuple[Placement, ReconfigurationPlan]:
        """Publish a committed delta: plans, rates, scoped cluster diff.

        Equal, byte for byte, to ``_to_placement`` + ``assign_rates`` +
        :meth:`deploy` over the whole fleet, in O(what the delta
        touched): untouched GPUs keep their plans, every service with a
        segment on a touched GPU is re-routed at its current rate with
        the full placement-order summation, the plan list is patched at
        the positions that changed, and only touched GPUs are validated
        and diffed.  A delta re-plans every service whose rate it
        changes, so the services it did not touch kept the rates they
        were routed with (a rate changed behind the manager's back is
        what the fleet controller's state check reports as stale).
        """
        assert self.current is not None
        fleet = live.fleet
        plans = live.plans
        hosts = live.hosts
        occupied = live.occupied
        changed = commit.changed
        rerate: set[str] = set()  # services whose routing may move
        for gid in commit.left:
            old = plans.pop(gid, None)
            if old is None or old.is_empty:
                continue
            del occupied[bisect_left(occupied, gid)]
            for seg in old.segments:
                rerate.add(seg.service_id)
                hosts[seg.service_id].discard(gid)
        for gid in changed:
            old = plans.get(gid)
            if old is None or old.is_empty:
                insort(occupied, gid)
                before: set[str] = set()
            else:
                before = {s.service_id for s in old.segments}
            plan = plans[gid] = plan_from_state(fleet[fleet.key_of(gid)])
            after = {s.service_id for s in plan.segments}
            for sid in before - after:
                hosts[sid].discard(gid)
            for sid in after - before:
                hosts.setdefault(sid, set()).add(gid)
            rerate |= before | after
        by_id = service_index(services)
        emptied = []
        for sid in rerate:
            if not hosts[sid]:
                del hosts[sid]
                emptied.append(sid)
        lost = sorted(sid for sid in emptied if sid in by_id)
        if lost:
            raise ValueError(f"no partitions for service {lost[0]!r}")

        # Re-route every plan hosting a re-routed service, in placement
        # order: assign_rates then sums each service's capacity exactly
        # as over the whole map, and replaces only the plans whose
        # shares moved (the others keep their cached lines).  A hosted
        # service without a rate carries rate 0, as on a rebuilt plan.
        key_of = fleet.key_of
        rerouted = sorted(
            {gid for sid in rerate for gid in hosts.get(sid, ())},
            key=key_of,
        )
        routed = Placement(framework="", gpus=[plans[gid] for gid in rerouted])
        rates: dict[str, float] = {}
        for sid in sorted(rerate):
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
        self.stats.gpus_touched += len(changed) + len(commit.left)
        return placement, plan

    # ------------------------------------------------------------------ #
    # service departure
    # ------------------------------------------------------------------ #

    def remove_service(
        self,
        services: Services,
        departed_id: str,
        fast_path: bool = True,
    ) -> tuple[Placement, ReconfigurationPlan]:
        """Tear down one service, leaving every other segment in place.

        ``services`` is the *remaining* fleet (the departed service
        excluded) — its rates are re-assigned over the surviving map.
        GPUs fully emptied by the departure are released (scale-in), not
        kept as spares: a spare records restored capacity, not a tenant
        leaving.  ``fast_path=False`` takes the rebuild reference.
        """
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        if not fast_path:
            if not self.current.segments_of(departed_id):
                raise ValueError(f"service {departed_id!r} hosts no segments")
            return self.apply_rebuilt(
                services, lambda gpus: None, exclude_service=departed_id
            )

        if departed_id not in self.live_state().hosts:
            raise ValueError(f"service {departed_id!r} hosts no segments")

        def depart(live: LiveState) -> None:
            for gid in sorted(live.hosts[departed_id]):
                live.fleet.remove_segments(gid, departed_id)

        return self.apply_live(services, depart)

    # ------------------------------------------------------------------ #
    # SLO update (SIII-F)
    # ------------------------------------------------------------------ #

    def update_slo(
        self,
        services: Services,
        changed: Service,
        new_slo_ms: Optional[float] = None,
        new_rate: Optional[float] = None,
        use_mps: bool = True,
        optimize: bool = True,
        fast_path: bool = True,
    ) -> tuple[Placement, ReconfigurationPlan]:
        """Re-plan one service without re-profiling or moving the others.

        Implements SIII-F: the Segment Configurator reconstructs only the
        changed service's segments; the deployment map keeps every other
        service where it is; relocation + optimization run for the changed
        service's segments only.  ``fast_path=False`` re-plans on the
        naive scans over a rebuilt state (identical placements, reference
        baseline).
        """
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        if new_slo_ms is not None:
            changed.slo_latency_ms = new_slo_ms
        if new_rate is not None:
            changed.request_rate = new_rate
        changed.reset_plan()

        configurator = SegmentConfigurator(
            self.profiles, max_processes=3 if use_mps else 1,
            geometry=self.geometry, memoize=fast_path,
        )
        configurator.configure([changed])

        allocator = SegmentAllocator(optimize=optimize, geometry=self.geometry)
        by_id = service_index(services)

        def replan(gpus: GPUOrder) -> None:
            queues = allocator._new_queues(self.geometry.instance_sizes)
            for seg in changed.segments():
                allocator._enqueue(queues, seg)
            allocator._allocation(queues, gpus, self.geometry)
            if optimize:
                allocator.allocation_optimization(gpus, by_id)

        if not fast_path:
            return self.apply_rebuilt(
                by_id, replan, exclude_service=changed.id
            )

        def replan_live(live: LiveState) -> None:
            for gid in sorted(live.hosts.get(changed.id, ())):
                live.fleet.remove_segments(gid, changed.id)
            replan(live.fleet)

        return self.apply_live(by_id, replan_live)
