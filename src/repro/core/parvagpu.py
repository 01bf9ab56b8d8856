"""The end-to-end ParvaGPU scheduler facade.

``ParvaGPU.schedule(services)`` runs Algorithm 1 (Segment Configurator)
followed by Algorithm 2 (Segment Allocator) and returns a validated
:class:`~repro.core.placement.Placement` with the measured scheduling
delay attached.  The two ablation variants of the evaluation are flags:

- ``use_mps=False``  -> ParvaGPU-single (process count capped at 1);
- ``optimize=False`` -> ParvaGPU-unoptimized (no Allocation Optimization).

``geometry`` retargets the whole pipeline at another partition geometry
(e.g. :data:`repro.gpu.amd.MI300X_GEOMETRY`); the supplied profiles must
then have been measured on that geometry
(``profile_workloads(geometry=...)``).  For clusters mixing geometries use
:class:`repro.core.hetero.HeterogeneousParvaGPU`.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from repro.core.allocator import OPTIMIZATION_GPC_THRESHOLD, SegmentAllocator
from repro.core.configurator import SegmentConfigurator
from repro.core.placement import Placement
from repro.core.service import Service
from repro.gpu.geometry import PartitionGeometry
from repro.gpu.mig import MIG_GEOMETRY
from repro.profiler.table import ProfileTable


class ParvaGPU:
    """Configurator + Allocator pipeline (Fig. 2)."""

    def __init__(
        self,
        profiles: Mapping[str, ProfileTable],
        use_mps: bool = True,
        optimize: bool = True,
        threshold: int = OPTIMIZATION_GPC_THRESHOLD,
        geometry: PartitionGeometry = MIG_GEOMETRY,
        fast_path: bool = True,
    ) -> None:
        self.profiles = profiles
        self.use_mps = use_mps
        self.optimize = optimize
        self.geometry = geometry
        # ``fast_path`` turns on the indexed allocator and memoized
        # configurator together; placements are byte-identical either way,
        # so False exists only as the reference baseline for the perf
        # harness and identity tests.
        self.fast_path = fast_path
        self.configurator = SegmentConfigurator(
            profiles, max_processes=3 if use_mps else 1,
            geometry=self.geometry, memoize=fast_path,
        )
        self.allocator = SegmentAllocator(
            optimize=optimize, threshold=threshold, geometry=self.geometry,
            indexed=fast_path,
        )

    @property
    def name(self) -> str:
        suffix = "" if self.geometry is MIG_GEOMETRY else f"@{self.geometry.name}"
        if not self.use_mps:
            return f"parvagpu-single{suffix}"
        if not self.optimize:
            return f"parvagpu-unoptimized{suffix}"
        return f"parvagpu{suffix}"

    def schedule(self, services: Sequence[Service]) -> Placement:
        """Run the full pipeline, timing it (Fig. 9's scheduling delay)."""
        t0 = time.perf_counter()  # repro-lint: disable=D002 (scheduling delay is fig9's measured quantity, not simulated state)
        self.configurator.configure(services)
        placement = self.allocator.allocate(services)
        delay_ms = (time.perf_counter() - t0) * 1e3  # repro-lint: disable=D002 (stopwatch stop for the fig9 delay measurement)
        placement.framework = self.name
        placement.scheduling_delay_ms = delay_ms
        placement.assign_rates({s.id: s.request_rate for s in services})
        placement.validate()
        return placement
