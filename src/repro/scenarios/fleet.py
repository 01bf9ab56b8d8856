"""Synthetic fleet-scale scenarios: S9 (fleet sweep), S10 (diurnal
autoscaling) and S11 (million-request high-rate replay).

Table IV tops out at eleven services — the paper's single-cluster scale.
The ROADMAP's fleet scale is thousands of tenants, so these scenarios
synthesize deterministic large fleets by resampling the Table-IV load
cells: every synthetic service takes a real (model, SLO) pair from S1-S6
(guaranteed feasible on every registered geometry), relaxes the SLO by a
bounded factor (relaxing never removes operating points), and scales the
request rate.  Everything is seeded, so two processes — or two runs of
the perf harness comparing the indexed and naive schedulers — see the
exact same fleet.

``S9`` is the 1000-service fleet used by the registry; the perf harness
sweeps :data:`FLEET_TIERS` (100/1000/5000) around it.  ``S10`` pairs a
fleet with per-service diurnal rate traces (phase-shifted so the fleet's
load moves as a wave, not in lockstep) for the fleet controller.
``S11`` is the S9 fleet at :data:`S11_RATE_SCALE` x request rates — a
serving replay whose traffic exceeds a million requests, the workload
the batch-granularity simulation fast path exists for.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.core.service import Service
from repro.scenarios.table4 import SCENARIOS as TABLE4_SCENARIOS
from repro.scenarios.table4 import Scenario, ScenarioTable, WorkloadLoad
from repro.sim.traces import RateTrace, diurnal_trace

#: Service counts the perf harness sweeps (S9 is the middle tier).
FLEET_TIERS: tuple[int, ...] = (100, 1000, 5000)

#: Default deterministic seed for all fleet synthesis.
FLEET_SEED = 20240731

#: Services in the registered S9 scenario.
S9_FLEET_SIZE = 1000

#: Services / trace epochs in the registered S10 scenario: large enough
#: to exercise fleet-scale re-planning, small enough that the controller
#: (one incremental re-plan per changed service per epoch) stays tractable
#: in the opt-in perf harness.
S10_FLEET_SIZE = 200
S10_EPOCHS = 4

#: S11, the million-request replay: the S9 fleet with every request rate
#: scaled up, simulated for ``S11_DURATION_S`` seconds of traffic — a
#: few million requests, which only the batch-granularity simulation
#: fast path serves in reasonable time (the per-request event engine
#: heap-pushes one Python event per arrival).
S11_FLEET_SIZE = 1000
S11_RATE_SCALE = 1.5
S11_DURATION_S = 2.0


def _base_loads() -> list[WorkloadLoad]:
    """Every Table-IV cell, in table order — the resampling population."""
    return [
        load
        for name in sorted(TABLE4_SCENARIOS)
        for load in TABLE4_SCENARIOS[name].loads
    ]


def fleet_loads(
    num_services: int, seed: int = FLEET_SEED, rate_scale: float = 1.0
) -> tuple[WorkloadLoad, ...]:
    """``num_services`` deterministic synthetic load cells.

    ``rate_scale`` multiplies every sampled request rate (after the
    per-service jitter, so the rng stream — and hence the fleet's
    composition — is identical across scales); S11 uses it to turn the
    S9 fleet into a high-rate replay.
    """
    if num_services < 1:
        raise ValueError("fleet needs at least one service")
    rng = random.Random(f"{seed}:{num_services}")
    base = _base_loads()
    out = []
    for _ in range(num_services):
        cell = rng.choice(base)
        out.append(
            WorkloadLoad(
                model=cell.model,
                # Rates span small tenants to hot services; any positive
                # rate is feasible (Demand Matching just adds segments).
                request_rate=round(
                    cell.request_rate * rng.uniform(0.2, 2.0) * rate_scale, 1
                ),
                # Only ever relax the SLO: a larger latency budget keeps
                # every profiled operating point of the base cell legal.
                slo_latency_ms=round(cell.slo_latency_ms * rng.uniform(1.0, 1.5)),
            )
        )
    return tuple(out)


def fleet_scenario(
    num_services: int,
    seed: int = FLEET_SEED,
    name: Optional[str] = None,
    rate_scale: float = 1.0,
) -> Scenario:
    """A synthetic fleet as a registry-compatible :class:`Scenario`."""
    return Scenario(
        name=name or f"FLEET-{num_services}",
        description=(
            f"Synthetic {num_services}-service fleet resampled from "
            f"Table IV (seed {seed})"
        ),
        loads=fleet_loads(num_services, seed, rate_scale=rate_scale),
    )


def fleet_services(
    num_services: int, seed: int = FLEET_SEED, rate_scale: float = 1.0
) -> list[Service]:
    """Scheduler-ready services with unique ids (``<model>#<k>``)."""
    from repro.scenarios.registry import scenario_services

    return scenario_services(
        fleet_scenario(num_services, seed, rate_scale=rate_scale)
    )


def fleet_traces(
    services: Sequence[Service],
    epochs: int = S10_EPOCHS,
    period_s: float = 86_400.0,
    amplitude: float = 0.4,
    seed: int = FLEET_SEED,
) -> list[RateTrace]:
    """Phase-shifted diurnal traces, one per service.

    Random phases spread the services over the day (tenants in different
    time zones), so every epoch boundary moves *some* rates, each
    re-planned on the controller's incremental path.
    """
    rng = random.Random(f"{seed}:{len(services)}:{epochs}")
    return [
        diurnal_trace(
            svc.id,
            base_rate=svc.request_rate,
            amplitude=amplitude,
            period_s=period_s,
            epochs=epochs,
            phase=rng.uniform(0.0, 6.283185307179586),
        )
        for svc in services
    ]


#: The registered fleet scenarios (picked up by the scenario registry),
#: each drawn when first resolved.
FLEET_SCENARIOS = ScenarioTable({
    "S9": lambda: Scenario(
        name="S9",
        description=(
            f"Fleet-scale sweep anchor: {S9_FLEET_SIZE} synthetic services "
            f"resampled from Table IV (seed {FLEET_SEED})"
        ),
        loads=fleet_loads(S9_FLEET_SIZE),
    ),
    "S10": lambda: Scenario(
        name="S10",
        description=(
            f"Fleet-scale diurnal autoscaling: {S10_FLEET_SIZE} synthetic "
            f"services with phase-shifted day/night traces "
            f"(pair with fleet_traces())"
        ),
        loads=fleet_loads(S10_FLEET_SIZE),
    ),
    "S11": lambda: Scenario(
        name="S11",
        description=(
            f"Million-request replay: the S9 fleet at {S11_RATE_SCALE}x "
            f"request rates — ~{S11_DURATION_S:g} s of traffic exceeds "
            f"10^6 requests, tractable only under the simulation fast path"
        ),
        loads=fleet_loads(S11_FLEET_SIZE, rate_scale=S11_RATE_SCALE),
    ),
})

FLEET_SCENARIO_NAMES: tuple[str, ...] = tuple(FLEET_SCENARIOS)
