"""ParvaGPU (SC 2024) reproduction.

Efficient spatial GPU sharing for large-scale DNN inference: combined
MIG + MPS scheduling via the Segment Configurator / Segment Allocator,
every baseline it was evaluated against, and a simulated multi-GPU
substrate with a discrete-event serving simulator.  Scheduling is
formulated over pluggable *partition geometries*: the paper's A100-class
MIG rules (:data:`repro.gpu.mig.MIG_GEOMETRY`) and AMD MI300X XCD
partitioning (:data:`repro.gpu.amd.MI300X_GEOMETRY`) ship in-tree, and
heterogeneous clusters mixing both are scheduled by
:class:`~repro.core.hetero.HeterogeneousParvaGPU`.

Quickstart::

    from repro import ParvaGPU, Service, profile_workloads

    profiles = profile_workloads()
    services = [
        Service("vision", "resnet-50", slo_latency_ms=200, request_rate=800),
        Service("nlp", "bert-large", slo_latency_ms=2000, request_rate=120),
    ]
    placement = ParvaGPU(profiles).schedule(services)
    print(placement.num_gpus, "GPUs")

Retarget the same pipeline at an MI300X fleet::

    from repro import get_geometry

    amd = get_geometry("mi300x")
    placement = ParvaGPU(
        profile_workloads(geometry=amd), geometry=amd
    ).schedule(services)

Importing ``repro`` loads no subsystem: every name below is imported
from its defining module on first access, so ``import repro.<module>``
costs only what that module needs.
"""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.baselines.base import InfeasibleScheduleError
    from repro.baselines.gpulet import Gpulet
    from repro.baselines.igniter import IGniter
    from repro.baselines.mig_serving import MigServing
    from repro.baselines.variants import all_frameworks, make_framework
    from repro.core.allocator import SegmentAllocator
    from repro.core.configurator import SegmentConfigurator
    from repro.core.deployment import DeploymentManager
    from repro.core.hetero import GeometryPool, HeterogeneousParvaGPU
    from repro.core.parvagpu import ParvaGPU
    from repro.core.placement import Placement
    from repro.core.predictor import Prediction, Predictor
    from repro.core.segments import Segment
    from repro.core.service import Service
    from repro.gpu.amd import MI300X_GEOMETRY
    from repro.gpu.cluster import Cluster
    from repro.gpu.geometry import (
        PartitionGeometry,
        available_geometries,
        get_geometry,
    )
    from repro.gpu.gpu import GPU
    from repro.gpu.mig import MIG_GEOMETRY
    from repro.metrics.fragmentation import external_fragmentation
    from repro.metrics.slack import internal_slack
    from repro.ops.controller import FleetController, run_identity_checked
    from repro.ops.events import merge_timeline
    from repro.ops.report import OpsReport
    from repro.profiler.profiler import Profiler, profile_workloads
    from repro.profiler.table import ProfileTable
    from repro.scenarios.ops import ops_run
    from repro.scenarios.registry import get_scenario, scenario_services
    from repro.scenarios.scaling import scaled_scenario
    from repro.sim.fastpath import simulate_placement_fast
    from repro.sim.runner import simulate_placement

__version__ = "1.0.0"

#: Every public name, by defining module: importing ``repro`` loads none
#: of them, so a run pays only for the subsystems it touches (see
#: "Imports" in docs/architecture.md).
_LAZY: _lazy.LazyTable = {
    "repro.baselines.base": ("InfeasibleScheduleError",),
    "repro.baselines.gpulet": ("Gpulet",),
    "repro.baselines.igniter": ("IGniter",),
    "repro.baselines.mig_serving": ("MigServing",),
    "repro.baselines.variants": ("all_frameworks", "make_framework"),
    "repro.core.allocator": ("SegmentAllocator",),
    "repro.core.configurator": ("SegmentConfigurator",),
    "repro.core.deployment": ("DeploymentManager",),
    "repro.core.hetero": ("GeometryPool", "HeterogeneousParvaGPU"),
    "repro.core.parvagpu": ("ParvaGPU",),
    "repro.core.placement": ("Placement",),
    "repro.core.predictor": ("Prediction", "Predictor"),
    "repro.core.segments": ("Segment",),
    "repro.core.service": ("Service",),
    "repro.gpu.amd": ("MI300X_GEOMETRY",),
    "repro.gpu.cluster": ("Cluster",),
    "repro.gpu.geometry": (
        "PartitionGeometry", "available_geometries", "get_geometry",
    ),
    "repro.gpu.gpu": ("GPU",),
    "repro.gpu.mig": ("MIG_GEOMETRY",),
    "repro.metrics.fragmentation": ("external_fragmentation",),
    "repro.metrics.slack": ("internal_slack",),
    "repro.ops.controller": ("FleetController", "run_identity_checked"),
    "repro.ops.events": ("merge_timeline",),
    "repro.ops.report": ("OpsReport",),
    "repro.profiler.profiler": ("Profiler", "profile_workloads"),
    "repro.profiler.table": ("ProfileTable",),
    "repro.scenarios.ops": ("ops_run",),
    "repro.scenarios.registry": ("get_scenario", "scenario_services"),
    "repro.scenarios.scaling": ("scaled_scenario",),
    "repro.sim.fastpath": ("simulate_placement_fast",),
    "repro.sim.runner": ("simulate_placement",),
}


def __getattr__(name: str) -> object:
    return _lazy.load(__name__, globals(), _LAZY, name)


def __dir__() -> list[str]:
    return _lazy.names(globals(), _LAZY)

__all__ = [
    "DeploymentManager",
    "ParvaGPU",
    "Placement",
    "Prediction",
    "Predictor",
    "Segment",
    "SegmentAllocator",
    "SegmentConfigurator",
    "Service",
    "Gpulet",
    "IGniter",
    "InfeasibleScheduleError",
    "MigServing",
    "all_frameworks",
    "make_framework",
    "GPU",
    "Cluster",
    "MI300X_GEOMETRY",
    "MIG_GEOMETRY",
    "PartitionGeometry",
    "available_geometries",
    "get_geometry",
    "GeometryPool",
    "HeterogeneousParvaGPU",
    "external_fragmentation",
    "internal_slack",
    "ProfileTable",
    "Profiler",
    "profile_workloads",
    "get_scenario",
    "scaled_scenario",
    "scenario_services",
    "simulate_placement",
    "simulate_placement_fast",
    "FleetController",
    "OpsReport",
    "merge_timeline",
    "run_identity_checked",
    "ops_run",
    "__version__",
]
