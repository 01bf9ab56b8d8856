"""Beyond the paper's figures: the full seven-framework comparison.

Table I lists GSLICE and PARIS+ELSA but the paper's evaluation omits them
(GSLICE cannot leave one GPU; PARIS/ELSA predates the scenarios).  Having
reimplemented both, this harness measures *every* Table-I row on S1 — the
one scenario all seven frameworks can attempt — plus a tenant mix small
enough for GSLICE, turning Table I's qualitative claims into numbers.
"""

from __future__ import annotations

from repro.baselines import InfeasibleScheduleError, make_framework
from repro.experiments.common import cached_profiles
from repro.experiments.registry import ExperimentResult
from repro.metrics import external_fragmentation, internal_slack
from repro.scenarios import scenario_services
from repro.sim import simulate_placement

ALL_FRAMEWORKS: tuple[str, ...] = (
    "gslice",
    "gpulet",
    "igniter",
    "paris-elsa",
    "mig-serving",
    "parvagpu-single",
    "parvagpu",
)


def run(
    scenario: str = "S1",
    duration_s: float = 1.5,
) -> ExperimentResult:
    profiles = cached_profiles()
    result = ExperimentResult(
        experiment_id="table1x",
        title=f"All seven Table-I frameworks measured on {scenario}",
        columns=("framework", "gpus", "slack %", "frag %", "delay ms", "slo %"),
    )
    for name in ALL_FRAMEWORKS:
        # The delay column reports the *shipped* scheduler (fast path on);
        # fig9 is the artifact that times the paper's algorithms cold.
        fw = make_framework(name, profiles)
        services = scenario_services(scenario)
        try:
            placement = fw.schedule(services)
        except InfeasibleScheduleError:
            result.add(name, None, None, None, None, None)
            continue
        report = simulate_placement(placement, services, duration_s=duration_s)
        result.add(
            name,
            placement.num_gpus,
            100.0 * internal_slack(placement),
            100.0 * external_fragmentation(placement),
            placement.scheduling_delay_ms,
            100.0 * report.overall_compliance,
        )
    result.notes.append(
        "GSLICE serves S1 on one GPU but cannot scale past it; PARIS+ELSA "
        "places legally but over-allocates (no MPS, tail-batch sizing)"
    )
    return result
