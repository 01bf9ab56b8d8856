"""MIG/MPS reconfiguration cost model and the shadow-process strategy.

SIII-F: "reconfiguration of MIG and MPS ... can range from milliseconds to
a few seconds" and services being reconfigured "can continue operating
using shadow processes on spare GPUs".  This module prices a
:class:`~repro.gpu.cluster.ReconfigurationPlan`:

- without shadows, every service whose instances are destroyed/created is
  briefly down for the duration of its MIG/MPS operations;
- with shadows, affected services keep serving on spare GPUs during the
  swap — zero downtime at the cost of temporarily renting extra GPUs.

Costs default to the ranges NVIDIA's tooling exhibits on Ampere: tearing
an instance down is fast, creating one plus spawning its MPS daemon and
loading model weights dominates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.gpu.cluster import ReconfigurationPlan

#: seconds per MIG instance destruction
DESTROY_COST_S = 0.2

#: seconds per MIG instance creation (incl. MPS daemon start)
CREATE_COST_S = 1.0

#: seconds per serving process launch (CUDA context + weight load)
PROCESS_LAUNCH_COST_S = 2.0


@dataclass(frozen=True)
class ReconfigurationCost:
    """Priced reconfiguration: total work and per-service downtime
    (disrupted services only; an untouched service has no entry)."""

    total_work_s: float  #: serial MIG/MPS operation time
    downtime_s: Mapping[str, float]  #: per-service serving gap (no shadows)
    shadow_gpus: int  #: spare GPUs needed for a zero-downtime swap

    @property
    def max_downtime_s(self) -> float:
        return max(self.downtime_s.values(), default=0.0)

    @property
    def downtime_total_s(self) -> float:
        """Summed per-service downtime; ``0.0`` (a float) when quiet."""
        return sum(self.downtime_s.values(), 0.0)

    @property
    def disrupted_services(self) -> tuple[str, ...]:
        return tuple(sorted(s for s, d in self.downtime_s.items() if d > 0))

    @classmethod
    def combine(cls, costs: "Sequence[ReconfigurationCost]") -> "ReconfigurationCost":
        """Aggregate sequential reconfigurations into one cost.

        Work and per-service downtime sum (the operations serialize);
        shadow demand is the *max* concurrent need, since each swap's
        spares are released before the next begins.  The single home of
        this arithmetic: the fleet controller's per-interval batches
        combine here.

        O(disrupted services): each service's downtime is summed in cost
        order, and the result lists the services sorted.
        """
        summed: dict[str, float] = {}
        for c in costs:
            for sid, d in c.downtime_s.items():
                summed[sid] = summed[sid] + d if sid in summed else d
        return cls(
            total_work_s=sum(c.total_work_s for c in costs),
            downtime_s={sid: summed[sid] for sid in sorted(summed)},
            shadow_gpus=max((c.shadow_gpus for c in costs), default=0),
        )


def price_plan(
    plan: ReconfigurationPlan,
    destroy_cost_s: float = DESTROY_COST_S,
    create_cost_s: float = CREATE_COST_S,
    process_cost_s: float = PROCESS_LAUNCH_COST_S,
) -> ReconfigurationCost:
    """Price a reconfiguration plan.

    Downtime accrues per service: each destroyed instance interrupts its
    owner until the replacement instance (and its processes) are up; the
    per-service downtime is the sum of its own operations, since GPU
    reconfiguration on one device serializes.  Instances outside the
    diff cost nothing and get no entry — the SIII-F argument for
    minimizing the diff.
    """
    downtime: dict[str, float] = {}
    total = 0.0
    for _, (_, _, owner) in plan.destroy:
        downtime[owner] = downtime.get(owner, 0.0) + destroy_cost_s
        total += destroy_cost_s
    for spec in plan.create:
        cost = create_cost_s + process_cost_s * spec.num_processes
        downtime[spec.owner] = downtime.get(spec.owner, 0.0) + cost
        total += cost

    # A zero-downtime swap shadows every disrupted service's *new* segments
    # on spare GPUs; the spare count is the slice-weight of created
    # instances rounded up to whole GPUs, computed per geometry (7 GPC
    # slices on a MIG A100, 8 XCDs on an MI300X) since a shadow device
    # must match the hardware it stands in for.
    from repro.gpu.geometry import get_geometry

    created_by_geometry: dict[str, int] = {}
    for spec in plan.create:
        created_by_geometry[spec.geometry] = (
            created_by_geometry.get(spec.geometry, 0) + spec.size
        )
    shadow_gpus = sum(
        -(-gpcs // get_geometry(name).num_slices)
        for name, gpcs in created_by_geometry.items()
        if gpcs
    )

    return ReconfigurationCost(
        total_work_s=total,
        downtime_s={sid: d for sid, d in downtime.items() if d},
        shadow_gpus=shadow_gpus,
    )


@dataclass
class ShadowBudget:
    """Tracks spare-GPU usage across a sequence of reconfigurations."""

    spare_gpus: int
    peak_used: int = 0
    events: list[tuple[float, int]] = field(default_factory=list)

    def admit(self, when_s: float, cost: ReconfigurationCost) -> bool:
        """Can this reconfiguration run with zero downtime right now?"""
        ok = cost.shadow_gpus <= self.spare_gpus
        if ok:
            self.peak_used = max(self.peak_used, cost.shadow_gpus)
            self.events.append((when_s, cost.shadow_gpus))
        return ok
