"""Trace-driven autoscaling: re-schedule as request rates move.

Closes the loop the paper leaves as deployment machinery: given per-service
:class:`~repro.sim.traces.RateTrace` objects, the autoscaler re-runs the
scheduler at every epoch boundary where rates changed, deploys the new map
through :class:`~repro.core.deployment.DeploymentManager` (so unchanged
services are untouched), and prices each transition with the SIII-F
reconfiguration cost model (shadow processes on spare GPUs for
zero-downtime swaps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.core.deployment import DeploymentManager
from repro.core.parvagpu import ParvaGPU
from repro.core.service import Service
from repro.gpu.reconfig import ReconfigurationCost, ShadowBudget, price_plan
from repro.profiler.table import ProfileTable
from repro.sim.traces import RateTrace, epoch_boundaries


@dataclass(frozen=True)
class ScalingStep:
    """One autoscaling decision."""

    time_s: float
    rates: Mapping[str, float]
    num_gpus: int
    reconfig_ops: int
    unchanged_instances: int
    cost: ReconfigurationCost
    zero_downtime: bool
    #: measured SLO compliance of the epoch's deployment (None when the
    #: run was not asked to simulate serving quality)
    compliance: Optional[float] = None


@dataclass
class ScalingReport:
    """The full trace-driven run."""

    steps: list[ScalingStep] = field(default_factory=list)

    @property
    def peak_gpus(self) -> int:
        return max((s.num_gpus for s in self.steps), default=0)

    @property
    def mean_gpus(self) -> float:
        if not self.steps:
            return 0.0
        return sum(s.num_gpus for s in self.steps) / len(self.steps)

    @property
    def total_reconfig_ops(self) -> int:
        return sum(s.reconfig_ops for s in self.steps)

    @property
    def mean_compliance(self) -> Optional[float]:
        """Mean measured SLO compliance across simulated steps (or None)."""
        vals = [s.compliance for s in self.steps if s.compliance is not None]
        if not vals:
            return None
        return sum(vals) / len(vals)

    def gpu_series(self) -> list[tuple[float, int]]:
        return [(s.time_s, s.num_gpus) for s in self.steps]


class Autoscaler:
    """Re-schedules a ParvaGPU deployment as traces evolve."""

    def __init__(
        self,
        profiles: Mapping[str, ProfileTable],
        spare_gpus: int = 2,
        scheduler: Optional[ParvaGPU] = None,
    ) -> None:
        self.profiles = profiles
        self.scheduler = scheduler if scheduler is not None else ParvaGPU(profiles)
        self.manager = DeploymentManager(profiles)
        self.shadows = ShadowBudget(spare_gpus=spare_gpus)

    def run(
        self,
        services: Sequence[Service],
        traces: Sequence[RateTrace],
        horizon_s: Optional[float] = None,
        measure_s: float = 0.0,
        sim_seed: int = 0,
    ) -> ScalingReport:
        """Walk every epoch boundary, re-scheduling where rates changed.

        With ``measure_s > 0`` every step's deployment is additionally
        *served*: the simulator replays ``measure_s`` seconds of the
        epoch's traffic against the placement and records the measured
        SLO compliance on the step, on the scheduler's ``fast_path``: the
        batch-granularity simulation kernel (default) or the per-request
        event-driven reference — without the fast path, measuring a
        fleet-scale trace run is impractical.
        """
        fast_path = getattr(self.scheduler, "fast_path", True)
        # Work on private copies: a trace run rewrites request rates and
        # Algorithm-1 plan state epoch after epoch, and callers reasonably
        # reuse their Service objects for a second experiment afterwards.
        work = [
            Service(
                id=s.id,
                model=s.model,
                slo_latency_ms=s.slo_latency_ms,
                request_rate=s.request_rate,
                slo_factor=s.slo_factor,
            )
            for s in services
        ]
        by_id = {s.id: s for s in work}
        trace_by_id = {t.service_id: t for t in traces}
        unknown = set(trace_by_id) - set(by_id)
        if unknown:
            raise ValueError(f"traces for unknown services: {sorted(unknown)}")

        report = ScalingReport()
        previous_rates: dict[str, float] = {}
        # Instances on the cluster: each plan keeps all but the ones it
        # destroys, so a step's kept count needs no survivor list.
        running = sum(1 for _ in self.manager.cluster.instances())
        for t in epoch_boundaries(traces):
            if horizon_s is not None and t >= horizon_s:
                break
            rates = {
                sid: (
                    trace_by_id[sid].rate_at(t)
                    if sid in trace_by_id
                    else by_id[sid].request_rate
                )
                for sid in by_id
            }
            if rates == previous_rates:
                continue

            if self.manager.current is None:
                # First epoch: full schedule + deployment.
                for sid, rate in rates.items():
                    by_id[sid].request_rate = max(rate, 1e-6)
                    by_id[sid].reset_plan()
                placement = self.scheduler.schedule(work)
                plan = self.manager.deploy(placement)
                costs = [price_plan(plan)]
                ops = plan.num_operations
                unchanged = running - len(plan.destroy)
                running = unchanged + len(plan.create)
            else:
                # Subsequent epochs: the SIII-F incremental path — only
                # services whose rate moved are re-planned and relocated;
                # everything else keeps its instances.
                costs = []
                ops = 0
                unchanged = 0
                placement = self.manager.current
                for sid in sorted(rates):
                    if rates[sid] == previous_rates.get(sid):
                        continue
                    placement, plan = self.manager.update_slo(
                        work,
                        by_id[sid],
                        new_rate=max(rates[sid], 1e-6),
                        use_mps=self.scheduler.use_mps,
                        optimize=self.scheduler.optimize,
                        fast_path=fast_path,
                    )
                    costs.append(price_plan(plan))
                    ops += plan.num_operations
                    # Accumulate: with several rates moving in one epoch,
                    # each re-plan counts its own untouched instances.
                    kept = running - len(plan.destroy)
                    unchanged += kept
                    running = kept + len(plan.create)

            total_cost = ReconfigurationCost.combine(costs)
            compliance = None
            if measure_s > 0:
                from repro.sim.runner import simulate_placement

                sim = simulate_placement(
                    placement,
                    work,
                    duration_s=measure_s,
                    warmup_s=0.0,
                    seed=sim_seed,
                    fast_path=fast_path,
                )
                compliance = sim.overall_compliance
            report.steps.append(
                ScalingStep(
                    time_s=t,
                    rates=dict(rates),
                    num_gpus=placement.num_gpus,
                    reconfig_ops=ops,
                    unchanged_instances=unchanged,
                    cost=total_cost,
                    zero_downtime=self.shadows.admit(t, total_cost),
                    compliance=compliance,
                )
            )
            previous_rates = rates
        return report
