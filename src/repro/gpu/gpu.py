"""A single partitionable GPU: slice slots plus instance lifecycle.

A :class:`GPU` owns a :class:`~repro.gpu.geometry.PartitionLayout` for its
:class:`~repro.gpu.geometry.PartitionGeometry` (NVIDIA MIG by default) and
associates every placed instance with an owner tag (a service id in the
scheduler layers) and an :class:`~repro.gpu.mps.MPSContext`.  The class is
purely mechanical: it enforces partition legality but applies *no
placement policy* — slot-preference logic lives in the Segment Allocator
where the paper specifies it.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.gpu.geometry import (
    PartitionGeometry,
    PartitionLayout,
    PlacedPartition,
)
from repro.gpu.mig import MIG_GEOMETRY, SMS_PER_GPC
from repro.gpu.mps import MPSContext
from repro.gpu.slices import (
    NUM_SLICES,
    full_mask,
    largest_free_run,
    popcount,
    slice_indices,
)

#: Usable SMs on a fully-MIG-partitioned A100 (98 = 14 SMs x 7 GPCs).
SMS_PER_GPU = SMS_PER_GPC * NUM_SLICES


#: ``(gpu_id, start, size, owner)`` of one instance (an unowned
#: instance's owner is ``""``), as deployment maps key their instances
InstanceKey = tuple[int, int, int, str]


class GPUError(RuntimeError):
    """Raised on illegal instance operations."""


@dataclass(frozen=True)
class Instance:
    """A live partition instance on a specific GPU.

    Frozen: where it sits and who owns it are fixed for its lifetime, so
    the GPU's instance keys stay exact between create and destroy.
    """

    placed: PlacedPartition
    owner: Optional[str] = None  #: service id occupying the instance
    mps: MPSContext = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.mps is None:
            object.__setattr__(self, "mps", MPSContext())

    @property
    def size(self) -> int:
        return self.placed.size

    @property
    def start(self) -> int:
        return self.placed.start

    @property
    def sm_count(self) -> int:
        return self.placed.size * self.placed.geometry.sms_per_slice


class GPU:
    """One partitionable GPU (MIG-enabled A100-class by default)."""

    __slots__ = ("gpu_id", "geometry", "instance_keys", "_layout", "_instances")

    def __init__(
        self, gpu_id: int, geometry: PartitionGeometry = MIG_GEOMETRY
    ) -> None:
        self.gpu_id = gpu_id
        self.geometry = geometry
        self._layout = PartitionLayout(geometry)
        self._instances: list[Instance] = []
        #: every instance's key, sorted; maintained on create and destroy
        #: (read it, never assign it)
        self.instance_keys: tuple[InstanceKey, ...] = ()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def instances(self) -> tuple[Instance, ...]:
        return tuple(self._instances)

    def _key(self, inst: Instance) -> InstanceKey:
        return (self.gpu_id, inst.start, inst.size, inst.owner or "")

    @property
    def layout(self) -> PartitionLayout:
        return self._layout

    @property
    def occupied_mask(self) -> int:
        return self._layout.mask

    @property
    def used_gpcs(self) -> int:
        """Slices of compute allocated to instances (excludes blocked)."""
        return self._layout.used_gpcs

    @property
    def free_gpcs(self) -> int:
        """Slices neither occupied nor blocked."""
        return self.geometry.num_slices - popcount(
            self._layout.mask, num_slices=self.geometry.num_slices
        )

    @property
    def is_empty(self) -> bool:
        return not self._instances

    def free_slice_indices(self) -> tuple[int, ...]:
        n = self.geometry.num_slices
        return slice_indices(full_mask(n) & ~self._layout.mask, num_slices=n)

    def largest_free_run(self) -> int:
        return largest_free_run(
            self._layout.mask, num_slices=self.geometry.num_slices
        )

    def can_place(self, size: int, start: Optional[int] = None) -> bool:
        """Whether an instance of ``size`` fits (at ``start`` or anywhere)."""
        if size not in self.geometry.instance_sizes:
            return False
        legal = self.geometry.legal_starts(size)
        starts = (start,) if start is not None else legal
        return any(
            s in legal and self._layout.can_add(size, s) for s in starts
        )

    def feasible_starts(self, size: int) -> tuple[int, ...]:
        """All start slots currently legal for an instance of ``size``."""
        return tuple(
            s
            for s in self.geometry.legal_starts(size)
            if self._layout.can_add(size, s)
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def create_instance(
        self, size: int, start: int, owner: Optional[str] = None
    ) -> Instance:
        """Create a partition instance; raises :class:`GPUError` when illegal."""
        if size not in self.geometry.instance_sizes:
            raise GPUError(f"no {self.geometry.name} profile of size {size}")
        if start not in self.geometry.legal_starts(size):
            raise GPUError(f"size-{size} instance may not start at slot {start}")
        if not self._layout.can_add(size, start):
            raise GPUError(
                f"GPU {self.gpu_id}: slices "
                f"{slice_indices(self.geometry.occupied_mask(size, start), num_slices=self.geometry.num_slices)}"
                f" not free"
            )
        placed = self.geometry.place(size, start)
        self._layout.add(placed)
        inst = Instance(placed=placed, owner=owner)
        self._instances.append(inst)
        keys, key = self.instance_keys, self._key(inst)
        i = bisect(keys, key)
        self.instance_keys = keys[:i] + (key,) + keys[i:]
        return inst

    def destroy_instance(self, inst: Instance) -> None:
        """Tear an instance down, freeing its slices."""
        try:
            self._instances.remove(inst)
        except ValueError:
            raise GPUError(
                f"instance {inst.placed} does not live on GPU {self.gpu_id}"
            ) from None
        keys = self.instance_keys
        i = keys.index(self._key(inst))
        self.instance_keys = keys[:i] + keys[i + 1:]
        inst.mps.terminate_all()
        self._layout.remove(inst.placed)

    def destroy_all(self) -> None:
        for inst in list(self._instances):
            self.destroy_instance(inst)

    def instances_of(self, owner: str) -> tuple[Instance, ...]:
        return tuple(i for i in self._instances if i.owner == owner)

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self) -> tuple[tuple[int, int, Optional[str]], ...]:
        """Hashable ``(start, size, owner)`` description, sorted by start."""
        return tuple(
            sorted((i.start, i.size, i.owner) for i in self._instances)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ",".join(f"{i.size}@{i.start}" for i in self._instances)
        return f"GPU({self.gpu_id}: {body or 'empty'})"


def total_sms(gpus: Iterable[GPU]) -> int:
    """Aggregate usable SM/CU count of a set of GPUs."""
    return sum(g.geometry.total_sms for g in gpus)
