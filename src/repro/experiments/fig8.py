"""Figure 8 — SLO compliance rate, measured in the discrete-event simulator."""

from __future__ import annotations

from repro.experiments.common import (
    SCENARIO_NAMES,
    STANDARD_FRAMEWORKS,
    schedule_scenario,
)
from repro.experiments.registry import ExperimentResult
from repro.sim import simulate_placement


def run(
    frameworks: tuple[str, ...] = STANDARD_FRAMEWORKS,
    duration_s: float = 2.0,
    warmup_s: float = 0.5,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig8",
        title="SLO compliance rate (%) per scenario",
        columns=("scenario", *frameworks),
    )
    for scenario in SCENARIO_NAMES:
        row: list[object] = [scenario]
        for fw in frameworks:
            placement, services = schedule_scenario(fw, scenario)
            if placement is None:
                row.append(None)
                continue
            report = simulate_placement(
                placement,
                services,
                duration_s=duration_s,
                warmup_s=warmup_s,
                seed=seed,
            )
            row.append(100.0 * report.overall_compliance)
        result.add(*row)
    result.notes.append(
        "paper: no framework violates SLOs except gpulet (3.5% violations "
        "in S2, attributed to interference misprediction)"
    )
    return result
