"""gpulet (Choi et al., USENIX ATC'22), reimplemented.

gpulet partitions whole GPUs with MPS percentage quotas ("gpulets") under
three structural rules the ParvaGPU paper calls out:

1. **At most two workloads per GPU.**  The interference predictor was only
   trained on pairs, so consolidation stops at two.
2. **The second partition gets *all* remaining resources.**  The first
   partition is sized to its workload's need (10% granularity); whatever is
   left goes wholesale to the partner — no external fragmentation, but
   plenty of *internal slack* (the partner rarely needs that much).
3. **Pairwise interference is predicted, with error.**  Sizing uses the
   error-prone predictor from :class:`repro.models.interference
   .InterferenceOracle`; the placement records ground-truth latency, so an
   underestimated pair can genuinely violate its SLO at serving time (the
   paper observed 3.5% violations in S2).

High request rates are supported by splitting a service into several
gpulets, each at most a full GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.baselines.base import Framework, InfeasibleScheduleError
from repro.core.placement import GPUPlan, PlacedSegment, Placement
from repro.core.service import Service
from repro.models.interference import Corunner, InterferenceOracle
from repro.models.perf import PROFILE_BATCH_SIZES, PerfModel
from repro.models.zoo import get_model

#: MPS quota granularity gpulet uses when sizing the first partition.
FRACTION_STEP = 0.10

#: Interference headroom gpulet budgets while sizing (it later verifies the
#: pair with the predictor, so sizing only needs a mild cushion).
SIZING_HEADROOM = 1.10

#: Share of the GPU gpulet refuses to promise to a pair: the sum of the two
#: partitions' base requirements plus this interference reserve must fit,
#: or the candidate partner goes to a fresh GPU (the "sum of their resource
#: usage and additional resources considering interference" test, SII-A).
PAIRING_RESERVE = 0.15


@dataclass
class _Gpulet:
    """One MPS partition request before placement."""

    service: Service
    fraction: float  #: share of a whole GPU, (0, 1]
    batch: int
    capacity: float  #: requests/s at this fraction, interference-free
    rate_share: float  #: portion of the service's rate this gpulet carries


class Gpulet(Framework):
    """The gpulet scheduler."""

    def __init__(self, profiles, oracle: Optional[InterferenceOracle] = None):
        super().__init__(profiles)
        self.oracle = oracle if oracle is not None else InterferenceOracle()

    @property
    def name(self) -> str:
        return "gpulet"

    # ------------------------------------------------------------------ #
    # sizing
    # ------------------------------------------------------------------ #

    def _best_point(
        self, service: Service, fraction: float
    ) -> Optional[tuple[int, float, float]]:
        """Best (batch, latency, throughput) at ``fraction`` under the SLO."""
        perf = PerfModel(get_model(service.model))
        gpcs = 7.0 * fraction
        best: Optional[tuple[int, float, float]] = None
        for b in PROFILE_BATCH_SIZES:
            if not perf.fits(7, b, 1):  # whole-GPU memory bound
                continue
            lat = perf.latency_ms(gpcs, b, 1) * SIZING_HEADROOM
            if lat >= service.effective_slo_ms:
                continue
            tp = perf.throughput(gpcs, b, 1)
            if best is None or tp > best[2]:
                best = (b, lat / SIZING_HEADROOM, tp)
        return best

    def _make_gpulets(self, service: Service) -> list[_Gpulet]:
        """Split a service into gpulets, each at most one full GPU."""
        remaining = service.request_rate
        out: list[_Gpulet] = []
        while remaining > 1e-9:
            chosen: Optional[_Gpulet] = None
            for step in range(1, int(round(1.0 / FRACTION_STEP)) + 1):
                fraction = step * FRACTION_STEP
                point = self._best_point(service, fraction)
                if point is None:
                    continue
                b, lat, tp = point
                # The chunk is sized against the interference-budgeted
                # throughput (latency inflated by SIZING_HEADROOM), so a
                # typical co-runner leaves utilization below one; only
                # pairs whose interference the predictor *underestimates*
                # beyond the budget drift into overload.
                budgeted = tp / SIZING_HEADROOM
                if budgeted >= remaining:
                    chosen = _Gpulet(service, fraction, b, tp, remaining)
                    break
            if chosen is None:
                point = self._best_point(service, 1.0)
                if point is None:
                    raise InfeasibleScheduleError(
                        f"gpulet: {service.id} cannot meet "
                        f"{service.effective_slo_ms:.0f} ms on a full GPU"
                    )
                b, lat, tp = point
                chosen = _Gpulet(service, 1.0, b, tp, tp / SIZING_HEADROOM)
            out.append(chosen)
            remaining -= chosen.rate_share
        return out

    # ------------------------------------------------------------------ #
    # pairing
    # ------------------------------------------------------------------ #

    def _pair_ok(self, first: _Gpulet, second: _Gpulet, f2: float) -> bool:
        """Predicted-interference SLO check for a candidate pair."""
        for victim, partner, vf, pf in (
            (first, second, first.fraction, f2),
            (second, first, f2, second.fraction),
        ):
            spec = get_model(victim.service.model)
            partner_spec = get_model(partner.service.model)
            slowdown = self.oracle.predicted_slowdown(
                spec, [Corunner(partner_spec, pf)]
            )
            perf = PerfModel(spec)
            lat = perf.latency_ms(7.0 * vf, victim.batch, 1) * slowdown
            if lat >= victim.service.effective_slo_ms:
                return False
        return True

    def _actual_point(
        self, glet: _Gpulet, fraction: float, partner: Optional[_Gpulet]
    ) -> tuple[float, float, float]:
        """Ground-truth (latency, capacity, activity) for the placed partition."""
        spec = get_model(glet.service.model)
        perf = PerfModel(spec)
        slowdown = 1.0
        if partner is not None:
            slowdown = self.oracle.actual_slowdown(
                spec, [Corunner(get_model(partner.service.model), partner.fraction)]
            )
        gpcs = 7.0 * fraction
        lat = perf.latency_ms(gpcs, glet.batch, 1) * slowdown
        capacity = 1000.0 * glet.batch / lat
        activity = perf.sm_activity(gpcs, glet.batch, 1)
        return lat, capacity, activity

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def _schedule(self, services: Sequence[Service]) -> Placement:
        gpulets: list[_Gpulet] = []
        for svc in services:
            gpulets.extend(self._make_gpulets(svc))
        gpulets.sort(key=lambda g: g.fraction, reverse=True)

        # Each entry: (first gpulet, second gpulet or None).
        gpus: list[list[_Gpulet]] = []
        free: list[float] = []  # remaining fraction of each GPU
        for glet in gpulets:
            placed = False
            for i, members in enumerate(gpus):
                if (
                    len(members) >= 2
                    or glet.fraction > free[i] - PAIRING_RESERVE + 1e-9
                ):
                    continue
                if self._pair_ok(members[0], glet, free[i]):
                    # Rule 2: the partner absorbs ALL remaining resources,
                    # and gpulet re-derives the best batch for the enlarged
                    # partition (part of its "medium" scheduling overhead).
                    glet.fraction = free[i]
                    rebatch = self._best_point(glet.service, glet.fraction)
                    if rebatch is not None:
                        glet.batch, _, glet.capacity = rebatch
                    members.append(glet)
                    free[i] = 0.0
                    placed = True
                    break
            if not placed:
                gpus.append([glet])
                free.append(1.0 - glet.fraction)

        placement = Placement(framework=self.name)
        for gpu_id, members in enumerate(gpus):
            segments: list[PlacedSegment] = []
            for idx, glet in enumerate(members):
                partner = members[1 - idx] if len(members) == 2 else None
                lat, capacity, activity = self._actual_point(
                    glet, glet.fraction, partner
                )
                segments.append(
                    PlacedSegment(
                        service_id=glet.service.id,
                        model=glet.service.model,
                        kind="mps",
                        gpcs=7.0 * glet.fraction,
                        batch_size=glet.batch,
                        num_processes=1,
                        capacity=capacity,
                        latency_ms=lat,
                        sm_activity=activity,
                        served_rate=glet.rate_share,
                    )
                )
            placement.gpus.append(GPUPlan(gpu_id, tuple(segments)))
        # Traffic was routed per-gpulet chunk above: the second partition of
        # a pair keeps only its chunk even though it owns all remaining
        # resources — that gap *is* gpulet's internal slack.
        placement.rates_assigned = True
        return placement
