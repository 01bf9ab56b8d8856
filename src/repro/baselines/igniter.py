"""iGniter (Xu et al., TPDS'22), reimplemented.

iGniter provisions one MPS partition per service on whole GPUs, sized by an
interference-aware performance model fitted from lightweight profiling.
The ParvaGPU paper highlights three behaviours we reproduce:

1. **Over-allocation against model error** — after computing the minimal
   resource share that meets the SLO at the target rate, iGniter adds a
   guard band (``GUARD_FRACTION``) because its lightweight profiling is
   imprecise; that guard band is pure internal slack.
2. **No fragmentation handling** — partitions are packed first-fit
   decreasing; leftover GPU fractions are simply wasted (Fig. 7 shows
   ~27% external fragmentation on average).
3. **No high-request-rate mechanism** — a service is a single partition;
   when its rate exceeds what a full GPU sustains under the SLO,
   scheduling fails.  This is why the paper's S5/S6 results omit iGniter.
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

#: Resource-share granularity of iGniter's provisioning model.
FRACTION_STEP = 0.05

#: Extra share added to every partition to absorb prediction error (SII-A of
#: the paper: "iGniter allocates additional GPU resources to each workload,
#: leading to internal slack").
GUARD_FRACTION = 0.10

#: iGniter budgets interference assuming a typical co-runner mix occupying
#: the rest of the GPU at average bandwidth intensity.
_ASSUMED_CORUNNER_BW = 0.6

#: Fraction of each GPU iGniter leaves unallocated as an interference
#: reserve when consolidating partitions (its provisioning model inflates
#: per-GPU demand; the reserve plus packing leftovers is the ~27% external
#: fragmentation Fig. 7 reports).
GPU_BUDGET = 0.85


@dataclass
class _Partition:
    service: Service
    fraction: float
    batch: int
    capacity: float
    latency_ms: float
    activity: float


class IGniter(Framework):
    """The iGniter scheduler."""

    def __init__(self, profiles, interference: Optional[InterferenceModel] = None):
        super().__init__(profiles)
        self.interference = (
            interference if interference is not None else InterferenceModel()
        )

    @property
    def name(self) -> str:
        return "igniter"

    # ------------------------------------------------------------------ #
    # sizing
    # ------------------------------------------------------------------ #

    def _size_partition(self, service: Service) -> _Partition:
        """Minimal share meeting SLO + rate, plus the guard band."""
        spec = get_model(service.model)
        perf = PerfModel(spec)
        steps = int(round(1.0 / FRACTION_STEP))
        for step in range(1, steps + 1):
            fraction = step * FRACTION_STEP
            gpcs = 7.0 * fraction
            # Interference budget: the rest of the GPU runs other services.
            assumed = Corunner(
                get_model(service.model), max(0.05, 1.0 - fraction)
            )
            slowdown = 1.0 + self.interference.kappa * (
                0.5 + 0.5 * spec.bw_intensity
            ) * _ASSUMED_CORUNNER_BW * assumed.share
            for b in PROFILE_BATCH_SIZES:
                if not perf.fits(7, b, 1):
                    continue
                lat = perf.latency_ms(gpcs, b, 1) * slowdown
                if lat >= service.effective_slo_ms:
                    continue
                tp = 1000.0 * b / lat
                if tp >= service.request_rate:
                    padded = min(1.0, fraction + GUARD_FRACTION)
                    pgpcs = 7.0 * padded
                    plat = perf.latency_ms(pgpcs, b, 1) * slowdown
                    return _Partition(
                        service=service,
                        fraction=padded,
                        batch=b,
                        capacity=1000.0 * b / plat,
                        latency_ms=plat,
                        activity=perf.sm_activity(pgpcs, b, 1),
                    )
        raise InfeasibleScheduleError(
            f"igniter: {service.id} needs more than one full GPU "
            f"({service.request_rate:.0f} req/s under "
            f"{service.effective_slo_ms:.0f} ms) and iGniter cannot split "
            "services across partitions"
        )

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def _schedule(self, services: Sequence[Service]) -> Placement:
        partitions = [self._size_partition(s) for s in services]
        partitions.sort(key=lambda p: p.fraction, reverse=True)

        gpus: list[list[_Partition]] = []
        free: list[float] = []
        for part in partitions:
            for i in range(len(gpus)):
                if part.fraction <= free[i] + 1e-9:
                    gpus[i].append(part)
                    free[i] -= part.fraction
                    break
            else:
                gpus.append([part])
                free.append(GPU_BUDGET - part.fraction)

        placement = Placement(framework=self.name)
        for gpu_id, members in enumerate(gpus):
            segments: list[PlacedSegment] = []
            for part in members:
                segments.append(
                    PlacedSegment(
                        service_id=part.service.id,
                        model=part.service.model,
                        kind="mps",
                        gpcs=7.0 * part.fraction,
                        batch_size=part.batch,
                        num_processes=1,
                        capacity=part.capacity,
                        latency_ms=part.latency_ms,
                        sm_activity=part.activity,
                    )
                )
            placement.gpus.append(GPUPlan(gpu_id, tuple(segments)))
        return placement
