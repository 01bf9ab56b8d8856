"""ParvaGPU's core: the paper's contribution.

- :mod:`repro.core.service`      -- the Service object (Table II).
- :mod:`repro.core.segments`     -- GPU segments (MPS-enabled MIG instances).
- :mod:`repro.core.configurator` -- Algorithm 1: Optimal Triplet Decision +
  Demand Matching.
- :mod:`repro.core.allocator`    -- Algorithm 2: Segment Relocation +
  Allocation Optimization.
- :mod:`repro.core.slotindex`    -- per-size free-slot indexes, the
  allocator's first-fit fast path (byte-identical placements).
- :mod:`repro.core.placement`    -- the deployment map produced by the
  allocator, shared with every baseline.
- :mod:`repro.core.deployment`   -- mapping a deployment map onto a
  :class:`~repro.gpu.cluster.Cluster`, plus the SIII-F SLO-update path.
- :mod:`repro.core.parvagpu`     -- the end-to-end scheduler facade.
- :mod:`repro.core.hetero`       -- ParvaGPU over heterogeneous clusters
  mixing partition geometries (A100 MIG + MI300X XCD).
- :mod:`repro.core.predictor`    -- the SIV-D predictor (no physical GPUs).

The control plane never runs the last two, so their names are imported
on first access.
"""

from typing import TYPE_CHECKING

from repro import _lazy
from repro.core.service import Service, InfeasibleServiceError
from repro.core.segments import Segment
from repro.core.placement import GPUPlan, Placement, PlacedSegment
from repro.core.configurator import SegmentConfigurator
from repro.core.allocator import SegmentAllocator, OPTIMIZATION_GPC_THRESHOLD
from repro.core.slotindex import SlotIndex
from repro.core.parvagpu import ParvaGPU
from repro.core.deployment import DeploymentManager

if TYPE_CHECKING:
    from repro.core.hetero import GeometryPool, HeterogeneousParvaGPU
    from repro.core.predictor import Prediction, Predictor

#: Re-exports no control-plane run uses, imported on first access.
_LAZY: _lazy.LazyTable = {
    "repro.core.hetero": ("GeometryPool", "HeterogeneousParvaGPU"),
    "repro.core.predictor": ("Prediction", "Predictor"),
}

__all__ = [
    "GeometryPool",
    "HeterogeneousParvaGPU",
    "Service",
    "InfeasibleServiceError",
    "Segment",
    "GPUPlan",
    "Placement",
    "PlacedSegment",
    "SegmentConfigurator",
    "SegmentAllocator",
    "SlotIndex",
    "OPTIMIZATION_GPC_THRESHOLD",
    "ParvaGPU",
    "DeploymentManager",
    "Prediction",
    "Predictor",
]


def __getattr__(name: str) -> object:
    return _lazy.load(__name__, globals(), _LAZY, name)


def __dir__() -> list[str]:
    return _lazy.names(globals(), _LAZY)
