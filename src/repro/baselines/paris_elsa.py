"""PARIS and ELSA (DAC'22), reimplemented — the remaining MIG row of Table I.

PARIS ("PARtition Intelligently by Size") picks a MIG instance size per
workload from its batch-size distribution: the partition must meet the SLO
at the distribution's upper percentile, not just the mean.  ELSA ("ELastic
Scheduling Algorithm") then schedules request batches *temporally* across
the heterogeneously-partitioned GPU pool.

Table I's characterization, reproduced here:

- MIG yes / MPS no (one process per instance);
- internal slack **not** prevented: sizing to the upper batch percentile
  over-provisions for the common case, and without MPS the instances idle
  during host-side phases;
- external fragmentation **not** prevented: instances are packed first-fit
  with no slot-preference or splitting machinery;
- no high-request-rate support in the original (single-node focus) — but
  unlike GSLICE it degrades by adding GPUs rather than failing, since MIG
  instances replicate naturally; we follow the charitable reading and
  replicate (its Table-I "N/A" spatial scheduling).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.baselines.base import Framework, InfeasibleScheduleError
from repro.core.placement import GPUPlan, PlacedSegment, Placement
from repro.core.service import Service
from repro.gpu.geometry import PartitionLayout
from repro.gpu.mig import MIG_GEOMETRY
from repro.profiler.table import ProfileEntry

#: PARIS sizes against this percentile of the batch-size distribution: the
#: chosen instance must meet the SLO even for upper-tail batches.
TAIL_FACTOR = 2.0


class ParisElsa(Framework):
    """The PARIS (sizing) + ELSA (placement) pipeline."""

    @property
    def name(self) -> str:
        return "paris-elsa"

    # ------------------------------------------------------------------ #
    # PARIS: instance sizing from the batch distribution
    # ------------------------------------------------------------------ #

    def _paris_size(self, service: Service) -> tuple[int, ProfileEntry]:
        """Smallest instance size whose *tail-batch* latency meets the SLO.

        The batch distribution is summarized by its mean entry (max
        throughput under SLO) and a tail batch ``TAIL_FACTOR`` times
        larger; the instance must satisfy the SLO at the tail too.
        """
        table = self._table(service)
        for size in MIG_GEOMETRY.instance_sizes:
            best: Optional[ProfileEntry] = None
            for e in table.entries_for_size(size):
                if e.num_processes != 1:
                    continue
                if e.latency_ms >= service.effective_slo_ms:
                    continue
                tail_batch = min(128, int(e.batch_size * TAIL_FACTOR))
                tail = table.lookup(size, tail_batch, 1)
                if tail is not None and tail.latency_ms >= service.effective_slo_ms:
                    continue  # tail batches would violate: size up
                if best is None or e.throughput > best.throughput:
                    best = e
            if best is not None:
                return size, best
        raise InfeasibleScheduleError(
            f"paris-elsa: {service.id} meets its SLO on no instance size"
        )

    # ------------------------------------------------------------------ #
    # ELSA: first-fit placement over heterogeneously partitioned GPUs
    # ------------------------------------------------------------------ #

    def _schedule(self, services: Sequence[Service]) -> Placement:
        demands: list[tuple[Service, int, ProfileEntry, int]] = []
        for svc in services:
            size, entry = self._paris_size(svc)
            count = max(1, math.ceil(svc.request_rate / entry.throughput))
            demands.append((svc, size, entry, count))
        # largest instances first (plain FFD, no slot preferences)
        demands.sort(key=lambda d: d[1], reverse=True)

        layouts: list[PartitionLayout] = []
        segments: list[list[PlacedSegment]] = []  # per GPU

        def place(size: int) -> tuple[int, int]:
            starts = MIG_GEOMETRY.legal_starts(size, extended=False)
            for gpu_id, layout in enumerate(layouts):
                for start in starts:
                    if layout.can_add(size, start, extended=False):
                        layout.add(MIG_GEOMETRY.place(size, start))
                        return gpu_id, start
            layout = PartitionLayout(MIG_GEOMETRY)
            start = starts[0]
            layout.add(MIG_GEOMETRY.place(size, start))
            layouts.append(layout)
            segments.append([])
            return len(layouts) - 1, start

        for svc, size, entry, count in demands:
            for _ in range(count):
                gpu_id, start = place(size)
                segments[gpu_id].append(
                    PlacedSegment(
                        service_id=svc.id,
                        model=svc.model,
                        kind="mig",
                        gpcs=float(size),
                        batch_size=entry.batch_size,
                        num_processes=1,
                        capacity=entry.throughput,
                        latency_ms=entry.latency_ms,
                        sm_activity=entry.sm_activity,
                        start=start,
                    )
                )
        return Placement(
            framework=self.name,
            gpus=[GPUPlan(i, tuple(segs)) for i, segs in enumerate(segments)],
        )
