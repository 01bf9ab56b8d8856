"""Fleet-operations scenarios: S12 (tenant churn), S13 (chaos week),
S14 (spot fleet with recovery), S15 (the 10k-service chaos week),
S16 (the live flash-crowd session).

Each scenario is two things: a registry-visible :class:`Scenario` (its
*base fleet*, resampled from Table IV like S9-S11, so ``parvagpu schedule
--scenario S12`` works like any other scenario) and an :func:`ops_run`
package — the base fleet plus a deterministic event timeline for the
:class:`~repro.ops.controller.FleetController`.  Everything derives from
:data:`OPS_SEED`, so two processes (or the fast/naive identity replay)
build the exact same run.

:func:`bench_ops_run` builds the perf-harness tier at an arbitrary fleet
size: one simulated day of MTBF failures with repair, spot preemption
waves with restore, tenant churn, and SLO renegotiations — the
"everything at once" workload the ``--suite ops`` benchmark records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.service import Service
from repro.ops.chaos import (
    flash_crowds,
    mtbf_failures,
    rate_epochs,
    slo_renegotiations,
    spot_preemption_waves,
    tenant_churn,
)
from repro.ops.events import OpsEvent, merge_timeline
from repro.scenarios.fleet import fleet_loads, fleet_traces
from repro.scenarios.table4 import Scenario, ScenarioTable

#: Default deterministic seed for every ops scenario and bench run.
OPS_SEED = 20240802

#: Base-fleet sizes and horizons (simulated seconds).
S12_FLEET_SIZE = 100
S12_HORIZON_S = 6 * 3600.0  # a churn-heavy quarter day
S13_FLEET_SIZE = 80
S13_HORIZON_S = 7 * 86_400.0  # the chaos week
S14_FLEET_SIZE = 100
S14_HORIZON_S = 12 * 3600.0  # half a day on spot capacity
S15_FLEET_SIZE = 10_000
S15_HORIZON_S = 7 * 86_400.0  # the 10k-service chaos week
S16_FLEET_SIZE = 100
S16_HORIZON_S = 2 * 3600.0  # a live flash-crowd session


@dataclass(frozen=True)
class OpsRun:
    """One ready-to-run fleet-operations workload."""

    name: str
    description: str
    services: tuple[Service, ...]
    timeline: tuple[OpsEvent, ...]
    horizon_s: float

    @property
    def num_events(self) -> int:
        return len(self.timeline)


def _base_services(name: str) -> tuple[Service, ...]:
    from repro.scenarios.registry import scenario_services

    return tuple(scenario_services(name))


def _s12_run(seed: int) -> OpsRun:
    services = _base_services("S12")
    base_ids = [s.id for s in services]
    timeline = merge_timeline(
        tenant_churn(
            horizon_s=S12_HORIZON_S,
            arrivals=18,
            departures=12,
            seed=seed,
            base_ids=base_ids,
        ),
        slo_renegotiations(
            [(s.id, s.slo_latency_ms) for s in services],
            horizon_s=S12_HORIZON_S,
            count=3,
            seed=seed,
        ),
    )
    return OpsRun(
        name="S12",
        description=OPS_SCENARIOS["S12"].description,
        services=services,
        timeline=timeline,
        horizon_s=S12_HORIZON_S,
    )


def _s13_run(seed: int) -> OpsRun:
    services = _base_services("S13")
    traces = fleet_traces(
        list(services),
        epochs=14,  # two boundaries per simulated day
        period_s=S13_HORIZON_S,
        amplitude=0.4,
        seed=seed,
    )
    timeline = merge_timeline(
        rate_epochs(traces, horizon_s=S13_HORIZON_S),
        flash_crowds(
            traces,
            horizon_s=S13_HORIZON_S,
            num_crowds=3,
            seed=seed,
            duration_range_s=(3600.0, 10_800.0),
        ),
        mtbf_failures(
            horizon_s=S13_HORIZON_S,
            mtbf_s=1.5 * 86_400.0,
            seed=seed,
            repair_s=8 * 3600.0,
        ),
        spot_preemption_waves(
            horizon_s=S13_HORIZON_S,
            every_s=3.5 * 86_400.0,
            fraction=0.06,
            seed=seed,
            restore_delay_s=6 * 3600.0,
        ),
    )
    return OpsRun(
        name="S13",
        description=OPS_SCENARIOS["S13"].description,
        services=services,
        timeline=timeline,
        horizon_s=S13_HORIZON_S,
    )


def _s14_run(seed: int) -> OpsRun:
    services = _base_services("S14")
    timeline = merge_timeline(
        spot_preemption_waves(
            horizon_s=S14_HORIZON_S,
            every_s=2 * 3600.0,
            fraction=0.1,
            seed=seed,
            restore_delay_s=3600.0,
        ),
    )
    return OpsRun(
        name="S14",
        description=OPS_SCENARIOS["S14"].description,
        services=services,
        timeline=timeline,
        horizon_s=S14_HORIZON_S,
    )


def _s15_run(seed: int) -> OpsRun:
    """The 10k-service chaos week: the control plane at fleet scale.

    Event density is deliberately low relative to the fleet size — a
    fleet-level failure every ~12 h, one preemption wave per day, single
    -digit churn and renegotiations — so the timeline stays at dozens of
    instants over the week and per-interval serving measurement (the
    bootstrap's cold measurement above all) dominates the replay.
    """
    services = _base_services("S15")
    timeline = merge_timeline(
        mtbf_failures(
            horizon_s=S15_HORIZON_S,
            mtbf_s=12 * 3600.0,
            seed=seed,
            repair_s=6 * 3600.0,
        ),
        spot_preemption_waves(
            horizon_s=S15_HORIZON_S,
            every_s=86_400.0,
            fraction=0.01,
            seed=seed,
            restore_delay_s=8 * 3600.0,
        ),
        tenant_churn(
            horizon_s=S15_HORIZON_S,
            arrivals=8,
            departures=6,
            seed=seed,
            base_ids=[s.id for s in services],
        ),
        slo_renegotiations(
            [(s.id, s.slo_latency_ms) for s in services],
            horizon_s=S15_HORIZON_S,
            count=3,
            seed=seed,
        ),
    )
    return OpsRun(
        name="S15",
        description=OPS_SCENARIOS["S15"].description,
        services=services,
        timeline=timeline,
        horizon_s=S15_HORIZON_S,
    )


def _s16_run(seed: int) -> OpsRun:
    """The live-serving demo: a 100-service fleet hit by flash crowds.

    Built for the serve gateway (``parvagpu serve --scenario S16``): a
    short two-hour session dense enough to watch live — diurnal rate
    epochs, three flash crowds, and one mid-session GPU failure with
    repair — while staying entirely on the cheap incremental paths, so
    compliance holds >= 99% throughout.  The scripted driver streams
    this timeline in session time; the recorded session replays
    bit-identically under the virtual clock.
    """
    services = _base_services("S16")
    traces = fleet_traces(
        list(services),
        epochs=8,
        period_s=S16_HORIZON_S,
        amplitude=0.3,
        seed=seed,
    )
    timeline = merge_timeline(
        rate_epochs(traces, horizon_s=S16_HORIZON_S),
        flash_crowds(
            traces,
            horizon_s=S16_HORIZON_S,
            num_crowds=3,
            seed=seed,
            duration_range_s=(600.0, 1_500.0),
        ),
        mtbf_failures(
            horizon_s=S16_HORIZON_S,
            mtbf_s=S16_HORIZON_S,  # ~one failure per session
            seed=seed,
            repair_s=1_800.0,
        ),
    )
    return OpsRun(
        name="S16",
        description=OPS_SCENARIOS["S16"].description,
        services=services,
        timeline=timeline,
        horizon_s=S16_HORIZON_S,
    )


_RUN_BUILDERS = {
    "S12": _s12_run,
    "S13": _s13_run,
    "S14": _s14_run,
    "S15": _s15_run,
    "S16": _s16_run,
}


def ops_run(name: str, seed: int = OPS_SEED) -> OpsRun:
    """Build a registered ops scenario's services + timeline."""
    try:
        builder = _RUN_BUILDERS[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown ops scenario {name!r}; "
            f"known: {', '.join(_RUN_BUILDERS)}"
        ) from None
    return builder(seed)


def bench_ops_run(num_services: int, seed: int = OPS_SEED) -> OpsRun:
    """The perf-harness tier: one simulated day, everything at once.

    Failures with repair, preemption waves with restore, tenant churn,
    and SLO renegotiations over a ``num_services`` base fleet — well past
    twenty events at every tier, all draw-resolved so the same timeline
    scales from 100 to thousands of services.
    """
    horizon_s = 86_400.0
    loads = fleet_loads(num_services, seed=seed)
    from repro.scenarios.registry import scenario_services

    services = tuple(
        scenario_services(
            Scenario(
                name=f"OPS-{num_services}",
                description=f"{num_services}-service ops bench fleet",
                loads=loads,
            )
        )
    )
    timeline = merge_timeline(
        mtbf_failures(
            horizon_s=horizon_s, mtbf_s=10_800.0, seed=seed, repair_s=7_200.0
        ),
        spot_preemption_waves(
            horizon_s=horizon_s,
            every_s=36_000.0,
            fraction=0.03,
            seed=seed,
            restore_delay_s=14_400.0,
        ),
        tenant_churn(
            horizon_s=horizon_s,
            arrivals=6,
            departures=4,
            seed=seed,
            base_ids=[s.id for s in services],
        ),
        slo_renegotiations(
            [(s.id, s.slo_latency_ms) for s in services],
            horizon_s=horizon_s,
            count=2,
            seed=seed,
        ),
    )
    return OpsRun(
        name=f"OPS-{num_services}",
        description=(
            f"ops bench: {num_services} services, one simulated day of "
            f"failures + preemptions + churn + renegotiations"
        ),
        services=services,
        timeline=timeline,
        horizon_s=horizon_s,
    )


#: The registered base fleets (picked up by the scenario registry), each
#: drawn when first resolved.
OPS_SCENARIOS = ScenarioTable({
    "S12": lambda: Scenario(
        name="S12",
        description=(
            f"Tenant-churn fleet: {S12_FLEET_SIZE} base services with "
            f"arrivals/departures and SLO renegotiations over "
            f"{S12_HORIZON_S / 3600:g} h (pair with repro.scenarios.ops"
            f".ops_run('S12'))"
        ),
        loads=fleet_loads(S12_FLEET_SIZE, seed=OPS_SEED),
    ),
    "S13": lambda: Scenario(
        name="S13",
        description=(
            f"Chaos week: {S13_FLEET_SIZE} services on diurnal traces "
            f"with MTBF failures, repairs, preemption waves and flash "
            f"crowds over 7 simulated days (ops_run('S13'))"
        ),
        loads=fleet_loads(S13_FLEET_SIZE, seed=OPS_SEED),
    ),
    "S14": lambda: Scenario(
        name="S14",
        description=(
            f"Spot fleet with recovery: {S14_FLEET_SIZE} services riding "
            f"preemption/restore waves every ~2 h for "
            f"{S14_HORIZON_S / 3600:g} h (ops_run('S14'))"
        ),
        loads=fleet_loads(S14_FLEET_SIZE, seed=OPS_SEED),
    ),
    "S15": lambda: Scenario(
        name="S15",
        description=(
            f"10k-service chaos week: {S15_FLEET_SIZE} services through "
            f"7 simulated days of MTBF failures, daily preemption waves, "
            f"churn and renegotiations — the fleet-scale control-plane "
            f"workload (ops_run('S15'))"
        ),
        loads=fleet_loads(S15_FLEET_SIZE, seed=OPS_SEED),
    ),
    "S16": lambda: Scenario(
        name="S16",
        description=(
            f"Live flash-crowd session: {S16_FLEET_SIZE} services through "
            f"{S16_HORIZON_S / 3600:g} h of rate epochs, three flash "
            f"crowds and one GPU failure with repair — the serve "
            f"gateway's demo workload (parvagpu serve --scenario S16; "
            f"ops_run('S16'))"
        ),
        loads=fleet_loads(S16_FLEET_SIZE, seed=OPS_SEED),
    ),
})

OPS_SCENARIO_NAMES: tuple[str, ...] = tuple(OPS_SCENARIOS)
