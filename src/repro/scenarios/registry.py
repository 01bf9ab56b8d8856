"""The combined scenario registry: Table IV (S1-S6) plus extensions.

Single source of truth for resolving scenario names — every public
resolver (:func:`repro.scenarios.get_scenario`, the Table-IV module's
historical ``get_scenario``, and the SIV-D scaling sweep) routes here, so
new scenario tables register once and are visible everywhere.
"""

from __future__ import annotations

from functools import partial

from repro.core.service import Service
from repro.scenarios.extended import EXTENDED_SCENARIOS
from repro.scenarios.fleet import FLEET_SCENARIOS
from repro.scenarios.ops import OPS_SCENARIOS
from repro.scenarios.table4 import SCENARIOS as TABLE4_SCENARIOS
from repro.scenarios.table4 import Scenario, ScenarioTable

#: Every registered scenario, Table-IV columns first; a scenario is
#: built the first time it is resolved, by whichever table holds it.
SCENARIOS = ScenarioTable({
    name: partial(table.__getitem__, name)
    for table in (
        TABLE4_SCENARIOS, EXTENDED_SCENARIOS, FLEET_SCENARIOS, OPS_SCENARIOS,
    )
    for name in table
})

SCENARIO_NAMES: tuple[str, ...] = tuple(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}"
        ) from None


def scenario_services(scenario: Scenario | str) -> list[Service]:
    """Fresh :class:`Service` objects for a scenario (scheduler input).

    Table-IV-style scenarios list each model once, so the model name is
    the service id.  Fleet scenarios (S9/S10) repeat models; repeats get a
    ``#<k>`` suffix so service ids stay unique while single-occurrence
    scenarios keep their historical ids.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    seen: dict[str, int] = {}
    services = []
    for load in scenario.loads:
        k = seen.get(load.model, 0)
        seen[load.model] = k + 1
        services.append(
            Service(
                id=load.model if k == 0 else f"{load.model}#{k}",
                model=load.model,
                slo_latency_ms=load.slo_latency_ms,
                request_rate=load.request_rate,
            )
        )
    return services
