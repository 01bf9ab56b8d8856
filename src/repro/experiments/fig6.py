"""Figure 6 — internal slack rate of each baseline and ParvaGPU.

Slack is Eq. 3 computed from DCGM-style SM activity.  By default the
harness uses the analytic activity (profiled operating-point activity
scaled by routed load); with ``simulate=True`` it measures activity in the
discrete-event simulator instead, which is slower but end-to-end.
"""

from __future__ import annotations

from repro.experiments.common import (
    SCENARIO_NAMES,
    STANDARD_FRAMEWORKS,
    schedule_scenario,
)
from repro.experiments.registry import ExperimentResult
from repro.metrics import internal_slack
from repro.sim import simulate_placement


def run(
    frameworks: tuple[str, ...] = STANDARD_FRAMEWORKS,
    simulate: bool = False,
    duration_s: float = 2.0,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig6",
        title="Internal slack rate (%) per scenario"
        + (" [simulated]" if simulate else " [analytic]"),
        columns=("scenario", *frameworks),
    )
    for scenario in SCENARIO_NAMES:
        row: list[object] = [scenario]
        for fw in frameworks:
            placement, services = schedule_scenario(fw, scenario)
            if placement is None:
                row.append(None)
                continue
            if simulate:
                report = simulate_placement(
                    placement,
                    services,
                    duration_s=duration_s,
                    seed=seed,
                )
                slack = internal_slack(placement, report.segment_activity)
            else:
                slack = internal_slack(placement)
            row.append(100.0 * slack)
        result.add(*row)
    result.notes.append(
        "paper: gpulet/iGniter/MIG-serving/ParvaGPU-single average "
        "+26/+32/+30/+4.7 points over ParvaGPU; ParvaGPU in the 3-5% range "
        "(their scenario rates were chosen to align with profiled segment "
        "capacities; ours follow Table IV verbatim, so absolute slack is "
        "higher but the ordering and gaps reproduce)"
    )
    return result
