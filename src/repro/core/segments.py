"""GPU segments: process-shared partition instances running one workload.

A segment is the paper's unit of allocation — an (instance size, batch
size, process count) triplet bound to a service, carrying the profiled
throughput and latency of that operating point.  Segments are
geometry-tagged: the default is the MIG geometry (sizes 1/2/3/4/7), an
MI300X segment carries the XCD geometry (sizes 1/2/4/8).
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple, Self

from repro.gpu.geometry import PartitionGeometry
from repro.gpu.mig import MIG_GEOMETRY
from repro.profiler.table import ProfileEntry


class _SegmentFields(NamedTuple):
    service_id: str
    model: str
    instance_size: int  #: slices: 1, 2, 3, 4 or 7 on MIG; 1, 2, 4, 8 on MI300X
    batch_size: int
    num_processes: int
    throughput: float  #: profiled aggregate requests/s
    latency_ms: float  #: profiled per-batch latency
    sm_activity: float  #: profiled SM activity at full load
    geometry: PartitionGeometry = MIG_GEOMETRY


class Segment(_SegmentFields):
    """One GPU segment as decided by the Segment Configurator.

    Tuple-backed and immutable, so comparing two allocator states
    compares their segments as plain tuples.  Geometries are registry
    singletons, so the ``geometry`` field compares by identity.
    """

    __slots__ = ()

    def __new__(
        cls,
        service_id: str,
        model: str,
        instance_size: int,
        batch_size: int,
        num_processes: int,
        throughput: float,
        latency_ms: float,
        sm_activity: float,
        geometry: PartitionGeometry = MIG_GEOMETRY,
    ) -> "Segment":
        if instance_size not in geometry.instance_sizes:
            raise ValueError(
                f"no {geometry.name} instance of size {instance_size}"
            )
        if batch_size < 1 or num_processes < 1:
            raise ValueError("batch size and process count must be >= 1")
        if throughput <= 0:
            raise ValueError("segment throughput must be positive")
        return tuple.__new__(cls, (
            service_id, model, instance_size, batch_size, num_processes,
            throughput, latency_ms, sm_activity, geometry,
        ))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Self:
        # namedtuple's _make (and so _replace) skips __new__: validate
        return cls(*iterable)

    @property
    def triplet(self) -> tuple[int, int, int]:
        return (self.instance_size, self.batch_size, self.num_processes)

    @property
    def sm_count(self) -> int:
        return self.instance_size * self.geometry.sms_per_slice

    @property
    def throughput_per_gpc(self) -> float:
        return self.throughput / self.instance_size

    @classmethod
    def from_entry(
        cls,
        service_id: str,
        entry: ProfileEntry,
        geometry: PartitionGeometry = MIG_GEOMETRY,
    ) -> "Segment":
        """Build a segment from a profiled operating point."""
        return cls(
            service_id=service_id,
            model=entry.model,
            instance_size=entry.instance_size,
            batch_size=entry.batch_size,
            num_processes=entry.num_processes,
            throughput=entry.throughput,
            latency_ms=entry.latency_ms,
            sm_activity=entry.sm_activity,
            geometry=geometry,
        )

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``svc@3g b8 p2 (1234 req/s)``."""
        return (
            f"{self.service_id}@{self.instance_size}g "
            f"b{self.batch_size} p{self.num_processes} "
            f"({self.throughput:.0f} req/s)"
        )
