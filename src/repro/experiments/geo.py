"""Geometry comparison — A100-only vs MI300X-only vs mixed fleets.

Beyond-the-paper experiment enabled by the pluggable partition geometries:
schedule the Table-IV workloads (plus the S7/S8 geometry-stress scenarios)
on three fleets —

- ``a100``   — the paper's MIG fleet (7 GPC slices per GPU);
- ``mi300x`` — an AMD fleet partitioned by XCD modes (SPX/DPX/QPX/CPX);
- ``mixed``  — a heterogeneous cluster, services assigned per Eq. 2 to the
  geometry serving them most efficiently;

and report, per (scenario, fleet): devices used, allocated compute in
A100-GPC equivalents (the cross-vendor unit), and simulated SLO
compliance.  Run via ``parvagpu experiment geo``; output is printed only
(deliberately not archived under ``benchmarks/out/`` so the MIG artifact
set stays byte-stable — see ``docs/experiments.md``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.hetero import _profiles_for, make_mixed_scheduler
from repro.core.parvagpu import ParvaGPU
from repro.core.placement import Placement
from repro.core.service import InfeasibleServiceError
from repro.experiments.registry import ExperimentResult
from repro.gpu.geometry import get_geometry
from repro.scenarios import scenario_services
from repro.sim import simulate_placement

#: Scenarios compared: a light and a heavy Table-IV column, plus the two
#: geometry-stress scenarios added alongside the MI300X backend.
GEO_SCENARIOS: tuple[str, ...] = ("S1", "S2", "S7", "S8")

FLEETS: tuple[str, ...] = ("a100", "mi300x", "mixed")


def _fleet_scheduler(fleet: str):
    if fleet == "a100":
        return ParvaGPU(_profiles_for("mig"))
    if fleet == "mi300x":
        return ParvaGPU(
            _profiles_for("mi300x"), geometry=get_geometry("mi300x")
        )
    if fleet == "mixed":
        return make_mixed_scheduler()
    raise KeyError(f"unknown fleet {fleet!r}; known: {', '.join(FLEETS)}")


def _allocated_gpc_equiv(placement: Placement) -> float:
    return sum(seg.effective_gpcs for _, seg in placement.iter_segments())


def run(
    scenarios: tuple[str, ...] = GEO_SCENARIOS,
    duration_s: float = 1.5,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="geo",
        title="Partition-geometry comparison: A100 vs MI300X vs mixed fleets",
        columns=(
            "scenario",
            "fleet",
            "gpus",
            "gpc_equiv",
            "slo_compliance_pct",
        ),
    )
    for scenario in scenarios:
        for fleet in FLEETS:
            services = scenario_services(scenario)
            placement: Optional[Placement]
            try:
                placement = _fleet_scheduler(fleet).schedule(services)
            except InfeasibleServiceError:
                placement = None
            if placement is None:
                result.add(scenario, fleet, None, None, None)
                continue
            report = simulate_placement(
                placement, services, duration_s=duration_s
            )
            result.add(
                scenario,
                fleet,
                placement.num_gpus,
                _allocated_gpc_equiv(placement),
                100.0 * report.overall_compliance,
            )
    result.notes.append(
        "gpc_equiv: allocated compute in A100-GPC equivalents "
        "(1 MI300X XCD = 1.4 GPC); mixed assigns each service to its most "
        "efficient geometry per Eq. 2"
    )
    return result
