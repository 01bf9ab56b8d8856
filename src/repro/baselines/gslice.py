"""GSLICE (SoCC'20), reimplemented — the remaining MPS-only row of Table I.

GSLICE self-tunes MPS partition sizes on a **single GPU**: it measures each
workload's latency/throughput at the current quota, grows partitions that
miss their SLO, shrinks over-provisioned ones (preventing internal slack),
and pairs this with adaptive batching.  Table I's characterization, which
this implementation reproduces:

- MPS yes / MIG no;
- internal-slack prevention **yes** (the self-tuning loop right-sizes);
- external-fragmentation prevention no;
- **no high-request-rate support**: one GPU only — demand beyond a single
  GPU raises :class:`InfeasibleScheduleError` (the ParvaGPU paper: "without
  considering multi-GPU environments, GSLICE is incapable of handling high
  request rates");
- low scheduling overhead (a handful of tuning iterations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.baselines.base import Framework, InfeasibleScheduleError
from repro.core.placement import GPUPlan, PlacedSegment, Placement
from repro.core.service import Service
from repro.models.interference import Corunner, InterferenceModel
from repro.models.perf import PROFILE_BATCH_SIZES, PerfModel
from repro.models.zoo import get_model

#: Quota adjustment step of the self-tuning loop (fraction of the GPU).
TUNING_STEP = 0.05

#: Iteration cap — GSLICE converges in a few rounds or not at all.
MAX_ROUNDS = 40


@dataclass
class _Tuned:
    service: Service
    fraction: float
    batch: int
    latency_ms: float
    capacity: float
    activity: float


class GSlice(Framework):
    """The GSLICE single-GPU self-tuning scheduler."""

    def __init__(self, profiles, interference: Optional[InterferenceModel] = None):
        super().__init__(profiles)
        self.interference = (
            interference if interference is not None else InterferenceModel()
        )

    @property
    def name(self) -> str:
        return "gslice"

    # ------------------------------------------------------------------ #
    # measurement (stands in for GSLICE's online latency/throughput probes)
    # ------------------------------------------------------------------ #

    def _measure(
        self, service: Service, fraction: float, others: Sequence[tuple[Service, float]]
    ) -> Optional[_Tuned]:
        """Best adaptive batch at ``fraction`` given the co-runner set."""
        spec = get_model(service.model)
        perf = PerfModel(spec)
        corunners = [
            Corunner(get_model(s.model), f) for s, f in others if f > 0
        ]
        slowdown = self.interference.slowdown(spec, corunners)
        best: Optional[_Tuned] = None
        for b in PROFILE_BATCH_SIZES:
            if not perf.fits(7, b, 1):
                continue
            lat = perf.latency_ms(7.0 * fraction, b, 1) * slowdown
            if lat >= service.effective_slo_ms:
                continue
            tp = 1000.0 * b / lat
            if best is None or tp > best.capacity:
                best = _Tuned(
                    service=service,
                    fraction=fraction,
                    batch=b,
                    latency_ms=lat,
                    capacity=tp,
                    activity=perf.sm_activity(7.0 * fraction, b, 1),
                )
        return best

    # ------------------------------------------------------------------ #
    # the self-tuning loop
    # ------------------------------------------------------------------ #

    def _schedule(self, services: Sequence[Service]) -> Placement:
        if not services:
            raise InfeasibleScheduleError("gslice: no services")
        n = len(services)
        fractions = {s.id: 1.0 / n for s in services}

        for _ in range(MAX_ROUNDS):
            changed = False
            tuned: dict[str, Optional[_Tuned]] = {}
            for svc in services:
                others = [
                    (o, fractions[o.id]) for o in services if o.id != svc.id
                ]
                tuned[svc.id] = self._measure(svc, fractions[svc.id], others)

            for svc in services:
                t = tuned[svc.id]
                free = 1.0 - sum(fractions.values())
                if (t is None or t.capacity < svc.request_rate) and (
                    free >= TUNING_STEP - 1e-9
                ):
                    fractions[svc.id] += TUNING_STEP  # grow under-performer
                    changed = True
                elif t is not None and t.capacity > 1.3 * svc.request_rate and (
                    fractions[svc.id] > TUNING_STEP + 1e-9
                ):
                    fractions[svc.id] -= TUNING_STEP  # shave slack
                    changed = True
            if not changed:
                break

        segments: list[PlacedSegment] = []
        for svc in services:
            others = [(o, fractions[o.id]) for o in services if o.id != svc.id]
            t = self._measure(svc, fractions[svc.id], others)
            if t is None or t.capacity < svc.request_rate:
                raise InfeasibleScheduleError(
                    f"gslice: {svc.id} cannot be served on a single shared "
                    f"GPU ({svc.request_rate:.0f} req/s under "
                    f"{svc.effective_slo_ms:.0f} ms)"
                )
            segments.append(
                PlacedSegment(
                    service_id=svc.id,
                    model=svc.model,
                    kind="mps",
                    gpcs=7.0 * t.fraction,
                    batch_size=t.batch,
                    num_processes=1,
                    capacity=t.capacity,
                    latency_ms=t.latency_ms,
                    sm_activity=t.activity,
                )
            )
        return Placement(
            framework=self.name, gpus=[GPUPlan(0, tuple(segments))]
        )
