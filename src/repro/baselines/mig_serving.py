"""MIG-serving (Tan et al.), fast algorithm, reimplemented.

MIG-serving frames instance sizing *and* placement as one cutting-stock
problem: repeatedly choose a whole-GPU MIG configuration (one of the 19 of
Figure 1), assign its instance slots to services, and deduct the served
throughput — a greedy over scored configurations (their "fast algorithm";
the genetic/MCTS "slow algorithms" take hours and the paper only compares
against fast).

Behaviours the ParvaGPU paper attributes to it, which emerge here:

- **No MPS**: one process per instance, so instances idle while batches
  transfer — internal slack.
- **Heuristic over-allocation**: the slot score rewards raw instance
  throughput (``ALPHA`` bias) on top of matched demand, so low-rate
  services receive instances far larger than they need (the paper:
  "over-allocation resulting from its heuristic algorithm in scenarios
  with smaller request rates").
- **Fragmentation-averse scoring**: configurations with unassigned GPCs
  score poorly (``BETA`` penalty), so chosen GPUs are filled — external
  fragmentation stays low at the cost of more slack.
- **Very high scheduling overhead**: every GPU decision scans all 19
  configurations x 7 slots x N services; with demand-proportional GPU
  counts the delay grows superlinearly in scenario scale (Figs. 9/11).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.base import Framework, InfeasibleScheduleError
from repro.core.placement import GPUPlan, PlacedSegment, Placement
from repro.core.service import Service
from repro.gpu.geometry import enumerate_layouts
from repro.gpu.mig import MIG_GEOMETRY
from repro.profiler.table import ProfileEntry

#: Over-allocation bias: fraction of an instance's *raw* throughput counted
#: as benefit even beyond the service's remaining demand.  The high value is
#: what makes MIG-serving hand large instances to low-rate services (its
#: documented internal-slack failure mode at small scenarios).
ALPHA = 0.8

#: Score penalty per unassigned GPC in a candidate configuration.
BETA = 200.0

#: Safety derating MIG-serving applies to profiled throughput.
DERATE = 0.8

#: Conservative latency margin: MIG-serving only trusts operating points
#: comfortably inside the SLO, which pushes services onto larger instances
#: (more over-allocation, the paper's internal-slack observation).
LATENCY_MARGIN = 0.75


class MigServing(Framework):
    """The MIG-serving fast algorithm."""

    def __init__(self, profiles):
        super().__init__(profiles)
        self._configs = enumerate_layouts(MIG_GEOMETRY)

    @property
    def name(self) -> str:
        return "mig-serving"

    # ------------------------------------------------------------------ #
    # per-service instance performance (single process, no MPS)
    # ------------------------------------------------------------------ #

    def _best_entry(self, service: Service, size: int) -> Optional[ProfileEntry]:
        """Best single-process point of ``size`` under the service's SLO."""
        best: Optional[ProfileEntry] = None
        for e in self._table(service).entries_for_size(size):
            if e.num_processes != 1:
                continue
            if e.latency_ms >= service.effective_slo_ms * LATENCY_MARGIN:
                continue
            if best is None or e.throughput > best.throughput:
                best = e
        return best

    # ------------------------------------------------------------------ #
    # greedy cutting stock
    # ------------------------------------------------------------------ #

    def _schedule(self, services: Sequence[Service]) -> Placement:
        # NOTE: deliberately *not* memoized across the search.  MIG-serving
        # performs sizing and allocation jointly, re-deriving each service's
        # best operating point inside the per-GPU configuration scan; that
        # coupled search is precisely the "very high scheduling overhead"
        # the paper measures (Figs. 9/11), so the reimplementation pays it.
        def entry(svc: Service, size: int) -> Optional[ProfileEntry]:
            return self._best_entry(svc, size)

        remaining: dict[str, float] = {s.id: s.request_rate for s in services}
        by_id = {s.id: s for s in services}
        for svc in services:
            if all(entry(svc, sz) is None for sz in (1, 2, 3, 4, 7)):
                raise InfeasibleScheduleError(
                    f"mig-serving: {svc.id} meets its SLO on no instance size"
                )

        placement = Placement(framework=self.name)
        gpu_id = 0
        while any(r > 1e-9 for r in remaining.values()):
            best_score = float("-inf")
            best_assignment: Optional[
                list[tuple[str, int, int, ProfileEntry]]
            ] = None

            # The expensive joint search the paper criticizes: every
            # configuration is scored against every service, per GPU.
            for layout in self._configs:
                rem = dict(remaining)
                assignment: list[tuple[str, int, int, ProfileEntry]] = []
                score = 0.0
                unused_gpcs = 0
                for inst in sorted(
                    layout.instances, key=lambda i: i.size, reverse=True
                ):
                    slot_best: Optional[tuple[float, str, ProfileEntry]] = None
                    for sid, r in rem.items():
                        if r <= 1e-9:
                            continue
                        e = entry(by_id[sid], inst.size)
                        if e is None:
                            continue
                        tp = e.throughput * DERATE
                        benefit = min(r, tp) + ALPHA * tp
                        if slot_best is None or benefit > slot_best[0]:
                            slot_best = (benefit, sid, e)
                    if slot_best is None:
                        unused_gpcs += inst.size
                        continue
                    benefit, sid, e = slot_best
                    score += benefit
                    rem[sid] -= e.throughput * DERATE
                    assignment.append((sid, inst.size, inst.start, e))
                score -= BETA * unused_gpcs
                if assignment and score > best_score:
                    best_score = score
                    best_assignment = assignment

            if best_assignment is None:  # pragma: no cover - defensive
                raise InfeasibleScheduleError(
                    "mig-serving: no configuration makes progress"
                )

            segments: list[PlacedSegment] = []
            for sid, size, start, e in best_assignment:
                remaining[sid] -= e.throughput * DERATE
                segments.append(
                    PlacedSegment(
                        service_id=sid,
                        model=by_id[sid].model,
                        kind="mig",
                        gpcs=float(size),
                        batch_size=e.batch_size,
                        num_processes=1,
                        capacity=e.throughput,
                        latency_ms=e.latency_ms,
                        sm_activity=e.sm_activity,
                        start=start,
                    )
                )
            placement.gpus.append(GPUPlan(gpu_id, tuple(segments)))
            gpu_id += 1
        return placement
