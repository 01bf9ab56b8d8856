"""GPU failure handling on top of the SIII-F incremental machinery.

Cloud GPUs fail (or get preempted — the paper cites SpotServe's preemptible
instances as a serving reality).  When a GPU dies, every segment it hosted
loses capacity; the recovery path mirrors the SLO-update path: the affected
services' lost segments are re-enqueued and relocated into the surviving
map (growing the fleet only if no hole fits), while untouched services keep
serving.

On the fast path a failure is a delta on the deployment manager's live
allocator state: the victim leaves the order, its segments are relocated
and the optimization pass runs over the GPUs that can have changed, so
recovery costs O(touched GPUs) rather than a rebuild of the fleet
(``fast_path=False`` keeps the rebuild as the reference).

Failures are not permanent: a preempted spot GPU that comes back (or a
failed device that is repaired) rejoins the fleet through
:meth:`FailoverController.restore_gpu`, which registers it as a *spare*
with the :class:`~repro.core.deployment.DeploymentManager` — the next
incremental re-plan sees the restored capacity as an empty GPU after the
live fleet, so it is drafted exactly when no existing hole fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.allocator import GPUOrder, SegmentAllocator
from repro.core.deployment import DeploymentManager
from repro.core.placement import Placement
from repro.core.segments import Segment
from repro.core.service import Services, service_index
from repro.gpu.geometry import get_geometry
from repro.gpu.reconfig import ReconfigurationCost, price_plan


@dataclass(frozen=True)
class FailoverResult:
    """Outcome of recovering from one GPU failure."""

    failed_gpu: int
    affected_services: tuple[str, ...]
    lost_capacity: Mapping[str, float]  #: requests/s lost per service
    placement: Placement  #: the recovered deployment map
    cost: ReconfigurationCost
    reconfig_ops: int = 0  #: MIG/MPS create+destroy operations executed


class FailoverController:
    """Recovers deployments from GPU failures (and takes GPUs back)."""

    def __init__(
        self,
        manager: DeploymentManager,
        optimize: bool = True,
        fast_path: bool = True,
    ) -> None:
        self.manager = manager
        self.optimize = optimize
        # fast_path=False recovers on the naive scans — identical
        # placements, kept as the reference baseline.
        self.fast_path = fast_path

    @property
    def failed(self) -> Mapping[int, str]:
        """GPUs currently out of the fleet: gpu_id -> geometry name.

        Shared with the deployment manager (``retired_gpus``), which
        keeps every re-plan from reusing a dead device's id.
        ``restore_gpu`` consumes entries; a full re-schedule renumbers
        GPU ids, so callers that re-plan from scratch must ``reset()``.
        """
        return self.manager.retired_gpus

    def fail_gpu(self, gpu_id: int, services: Services) -> FailoverResult:
        """Handle the loss of ``gpu_id``: relocate its segments elsewhere.

        ``services`` is looked up by id (pass a mapping to skip indexing
        a sequence, see :func:`~repro.core.service.service_index`).
        """
        manager = self.manager
        current = manager.current
        if current is None:
            raise RuntimeError("nothing deployed yet")
        live = manager.live_state() if self.fast_path else None
        victim = (
            live.plans.get(gpu_id)
            if live is not None
            else next((g for g in current.gpus if g.gpu_id == gpu_id), None)
        )
        if victim is None or victim.is_empty:
            raise ValueError(f"GPU {gpu_id} hosts no segments")

        # The victim's services are re-planned whatever else moves, so one
        # missing from ``services`` fails up front, with names, before
        # anything is retired (a survivor's lookup in allocation
        # optimization raises its own named error).
        by_id = service_index(services)
        missing = sorted({
            seg.service_id
            for seg in victim.segments
            if seg.service_id not in by_id
        })
        if missing:
            raise ValueError(
                "deployment hosts services missing from the `services` "
                f"argument: {', '.join(missing)}"
            )

        victim_geometry = get_geometry(victim.geometry)
        lost: dict[str, float] = {}
        lost_segments: list[Segment] = []
        for seg in victim.segments:
            lost[seg.service_id] = lost.get(seg.service_id, 0.0) + seg.capacity
            lost_segments.append(
                Segment(
                    service_id=seg.service_id,
                    model=seg.model,
                    instance_size=int(seg.gpcs),
                    batch_size=seg.batch_size,
                    num_processes=seg.num_processes,
                    throughput=seg.capacity,
                    latency_ms=seg.latency_ms,
                    sm_activity=seg.sm_activity,
                    geometry=victim_geometry,
                )
            )

        # Retire the victim first: its id must stay reserved (a blocked
        # sentinel in the rebuilt state, a retired id in the live one) so
        # relocation can neither place on the dead device nor hand its id
        # to a fresh GPU.
        manager.retire_gpu(gpu_id, victim.geometry)
        allocator = SegmentAllocator(
            optimize=self.optimize, geometry=victim_geometry
        )

        def relocate(gpus: GPUOrder) -> None:
            queues = allocator._new_queues(victim_geometry.instance_sizes)
            for seg in lost_segments:
                allocator._enqueue(queues, seg)
            allocator._allocation(queues, gpus, victim_geometry)
            if self.optimize:
                allocator.allocation_optimization(gpus, by_id)

        if live is not None:
            placement, plan = manager.apply_live(
                by_id, lambda state: relocate(state.fleet)
            )
        else:
            # The rebuild reference: allocator state from every surviving
            # GPU (plus any registered spares), each under its own
            # geometry.
            placement, plan = manager.apply_rebuilt(
                by_id, relocate, skip_gpu=gpu_id
            )
        return FailoverResult(
            failed_gpu=gpu_id,
            affected_services=tuple(sorted(lost)),
            lost_capacity=lost,
            placement=placement,
            cost=price_plan(plan),
            reconfig_ops=plan.num_operations,
        )

    def restore_gpu(self, gpu_id: int) -> str:
        """Return a failed/preempted GPU to the free pool.

        The GPU re-registers as a spare with the deployment manager —
        every re-plan's allocator state includes spares as empty GPUs, so
        the restored capacity is visible to the very next re-plan without
        touching anything currently serving.  Returns the geometry name
        of the restored device.
        """
        if gpu_id not in self.failed:
            raise ValueError(f"GPU {gpu_id} is not registered as failed")
        if self.manager.hosts_segments(gpu_id):  # pragma: no cover
            # registry corruption guard
            raise ValueError(f"GPU {gpu_id} is currently hosting segments")
        return self.manager.restore_retired(gpu_id)

    def reset(self) -> None:
        """Forget failed/spare bookkeeping (after a from-scratch re-plan).

        A full re-schedule renumbers GPU ids, so failed-GPU ids recorded
        against the old map are meaningless; callers that fall back to a
        full re-plan clear both registries.
        """
        self.manager.set_ledgers({}, {})
