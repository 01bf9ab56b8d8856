"""Evaluation scenarios: Table IV, the SIV-D scaling sweep, the
geometry-stress extensions S7/S8, the synthetic fleets S9-S11, and the
fleet-operations runs S12-S14.

:func:`get_scenario` and :func:`scenario_services` resolve names across
*all* registered scenario tables (S1-S6 from Table IV, S7/S8 from
:mod:`repro.scenarios.extended`, S9-S11 from
:mod:`repro.scenarios.fleet`, S12-S14 from :mod:`repro.scenarios.ops`)
via :mod:`repro.scenarios.registry`.  Every table but Table IV is a
:class:`~repro.scenarios.table4.ScenarioTable`: a scenario's loads are
drawn when it is first resolved, not at import.
"""

from repro.scenarios.registry import (
    SCENARIOS,
    SCENARIO_NAMES,
    get_scenario,
    scenario_services,
)
from repro.scenarios.table4 import (
    SCENARIO_NAMES as TABLE4_SCENARIO_NAMES,
    Scenario,
)
from repro.scenarios.scaling import scaled_scenario
from repro.scenarios.fleet import (
    FLEET_SCENARIO_NAMES,
    FLEET_TIERS,
    fleet_scenario,
    fleet_services,
    fleet_traces,
)
from repro.scenarios.ops import (
    OPS_SCENARIO_NAMES,
    OpsRun,
    bench_ops_run,
    ops_run,
)

__all__ = [
    "SCENARIOS",
    "SCENARIO_NAMES",
    "TABLE4_SCENARIO_NAMES",
    "FLEET_SCENARIO_NAMES",
    "OPS_SCENARIO_NAMES",
    "FLEET_TIERS",
    "Scenario",
    "OpsRun",
    "get_scenario",
    "scenario_services",
    "scaled_scenario",
    "fleet_scenario",
    "fleet_services",
    "fleet_traces",
    "ops_run",
    "bench_ops_run",
]
