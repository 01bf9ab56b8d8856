"""Multi-GPU cluster with reconfiguration planning.

A :class:`Cluster` is an elastic pool of :class:`~repro.gpu.gpu.GPU` objects
(the evaluation uses multiples of 8-GPU ``p4de.24xlarge`` instances, but the
scheduling algorithms are agnostic to node boundaries).  Pools may be
heterogeneous: each GPU carries its own
:class:`~repro.gpu.geometry.PartitionGeometry`, so one cluster can mix
MIG-partitioned A100s with XCD-partitioned MI300Xs.  It also implements
the SIII-F deployment path: given a new target allocation map, compute the
minimal set of instance creations/destructions so that services whose
placement is unchanged are not disturbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.gpu.geometry import PartitionGeometry
from repro.gpu.gpu import GPU, GPUError, Instance
from repro.gpu.mig import MIG_GEOMETRY


@dataclass(frozen=True)
class InstanceSpec:
    """Target description of one instance: where, how big, who owns it."""

    gpu_id: int
    size: int
    start: int
    owner: str
    num_processes: int = 1
    batch_size: int = 1
    geometry: str = "mig"  #: partition-geometry registry name of the device


@dataclass
class ReconfigurationPlan:
    """Diff between the running state and a target allocation map:
    every running instance it does not destroy keeps serving."""

    destroy: list[tuple[int, tuple[int, int, str]]] = field(default_factory=list)
    create: list[InstanceSpec] = field(default_factory=list)

    @property
    def num_operations(self) -> int:
        return len(self.destroy) + len(self.create)

    @property
    def is_noop(self) -> bool:
        return self.num_operations == 0


class Cluster:
    """An elastic pool of partitionable GPUs (MIG-capable by default)."""

    def __init__(
        self, num_gpus: int = 0, geometry: PartitionGeometry = MIG_GEOMETRY
    ) -> None:
        self.default_geometry = geometry
        self._gpus: list[GPU] = [
            GPU(i, geometry=geometry) for i in range(num_gpus)
        ]

    # ------------------------------------------------------------------ #
    # pool management
    # ------------------------------------------------------------------ #

    @property
    def gpus(self) -> tuple[GPU, ...]:
        return tuple(self._gpus)

    def __len__(self) -> int:
        return len(self._gpus)

    def gpu(self, gpu_id: int) -> GPU:
        try:
            return self._gpus[gpu_id]
        except IndexError:
            raise GPUError(f"no GPU with id {gpu_id}") from None

    def add_gpu(self, geometry: Optional[PartitionGeometry] = None) -> GPU:
        """Grow the pool by one GPU (cloud elasticity).

        ``geometry`` defaults to the cluster's default; passing another
        geometry builds a heterogeneous pool.
        """
        g = GPU(len(self._gpus), geometry=geometry or self.default_geometry)
        self._gpus.append(g)
        return g

    def ensure_capacity(self, num_gpus: int) -> None:
        while len(self._gpus) < num_gpus:
            self.add_gpu()

    def geometries(self) -> tuple[str, ...]:
        """Distinct geometry names present in the pool, sorted."""
        return tuple(sorted({g.geometry.name for g in self._gpus}))

    def used_gpu_count(self) -> int:
        """GPUs hosting at least one instance — the paper's Fig. 5 metric."""
        return sum(1 for g in self._gpus if not g.is_empty)

    def instances(self) -> Iterable[tuple[GPU, Instance]]:
        for g in self._gpus:
            for inst in g.instances:
                yield g, inst

    def instances_of(self, owner: str) -> list[tuple[GPU, Instance]]:
        return [(g, i) for g, i in self.instances() if i.owner == owner]

    # ------------------------------------------------------------------ #
    # deployment
    # ------------------------------------------------------------------ #

    def apply_specs(self, specs: Iterable[InstanceSpec]) -> list[Instance]:
        """Create the instances ``specs`` describe.

        GPUs created to host a spec take the spec's geometry, so a
        heterogeneous placement materializes a heterogeneous pool.  An
        empty GPU of another geometry is re-provisioned to the spec's: a
        re-plan may hand a released GPU's id to a fresh GPU of the other
        geometry.  A spec targeting a GPU of another geometry that still
        hosts instances is an error.
        """
        from repro.gpu.geometry import get_geometry

        created: list[Instance] = []
        for spec in specs:
            self.ensure_capacity(spec.gpu_id)  # default-geometry gap fill
            geometry = get_geometry(spec.geometry)
            if len(self._gpus) == spec.gpu_id:
                self.add_gpu(geometry=geometry)
            g = self.gpu(spec.gpu_id)
            if g.geometry.name != geometry.name:
                if not g.is_empty:
                    raise GPUError(
                        f"GPU {spec.gpu_id} is {g.geometry.name}; spec wants "
                        f"{spec.geometry}"
                    )
                g = self._gpus[spec.gpu_id] = GPU(spec.gpu_id, geometry=geometry)
            inst = g.create_instance(spec.size, spec.start, owner=spec.owner)
            for _ in range(spec.num_processes):
                inst.mps.launch(spec.owner)
            created.append(inst)
        return created

    def plan_reconfiguration(
        self,
        target: Iterable[InstanceSpec],
        gpu_ids: Optional[Iterable[int]] = None,
    ) -> ReconfigurationPlan:
        """Diff running instances against ``target`` (SIII-F update path).

        Instances matching a target spec exactly (gpu, start, size, owner)
        stay untouched; everything else is destroyed/created.  The paper
        keeps unchanged services live during reconfiguration, so minimizing
        the diff minimizes service disruption.

        ``gpu_ids`` scopes the diff to those GPUs: only their running
        instances are visited, and ``target`` must hold specs for those
        GPUs only.  Instances match per GPU, so the scoped plan is the
        full plan's restriction to the scope.
        """
        plan = ReconfigurationPlan()
        target = list(target)
        wanted = {(s.gpu_id, s.start, s.size, s.owner) for s in target}
        matched: set[tuple[int, int, int, str]] = set()

        gpus: Iterable[GPU] = (
            self._gpus
            if gpu_ids is None
            else [
                self._gpus[gid]
                for gid in sorted(set(gpu_ids))
                if gid < len(self._gpus)
            ]
        )
        for g in gpus:
            for inst in g.instances:
                key = (g.gpu_id, inst.start, inst.size, inst.owner or "")
                if key in wanted and key not in matched:
                    matched.add(key)
                else:
                    plan.destroy.append(
                        (g.gpu_id, (inst.start, inst.size, inst.owner or ""))
                    )
        for spec in target:
            key = (spec.gpu_id, spec.start, spec.size, spec.owner)
            if key not in matched:
                plan.create.append(spec)
        return plan

    def execute(self, plan: ReconfigurationPlan) -> None:
        """Apply a reconfiguration plan to the live cluster."""
        for gpu_id, (start, size, owner) in plan.destroy:
            g = self.gpu(gpu_id)
            for inst in g.instances:
                if (inst.start, inst.size, inst.owner or "") == (start, size, owner):
                    g.destroy_instance(inst)
                    break
            else:  # pragma: no cover - defensive
                raise GPUError(
                    f"plan refers to missing instance {size}@{start} on GPU {gpu_id}"
                )
        self.apply_specs(plan.create)

    def clear(self) -> None:
        for g in self._gpus:
            g.destroy_all()

    def snapshot(self) -> tuple[tuple[int, tuple[tuple[int, int, Optional[str]], ...]], ...]:
        return tuple((g.gpu_id, g.snapshot()) for g in self._gpus)
