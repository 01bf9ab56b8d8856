"""Simulated partitionable-GPU substrate: NVIDIA MIG + MPS, AMD MI300X XCDs.

This package reproduces the *mechanical* behaviour of the hardware layer the
paper runs on, generalized behind a pluggable partition-geometry contract:

- :mod:`repro.gpu.slices`   -- compute-slice bitmask arithmetic (any width).
- :mod:`repro.gpu.geometry` -- the :class:`PartitionGeometry` contract,
  generic layouts, and the geometry registry.
- :mod:`repro.gpu.mig`      -- NVIDIA MIG as :data:`MIG_GEOMETRY`: instance
  sizes, memory map, placement rules (Figure 1's 19 layouts are
  ``enumerate_layouts(MIG_GEOMETRY)``).
- :mod:`repro.gpu.amd`      -- AMD MI300X: XCD compute-partition modes
  (SPX/DPX/QPX/CPX) and NPS memory interleaving.
- :mod:`repro.gpu.gpu`      -- a single GPU: slice slots, instance lifecycle.
- :mod:`repro.gpu.mps`      -- the MPS control daemon attached to an instance.
- :mod:`repro.gpu.telemetry`-- DCGM-style SM-activity accounting (Eq. 3 input).
- :mod:`repro.gpu.cluster`  -- a (possibly heterogeneous) multi-GPU cluster
  with reconfiguration diffs.

Only the *structure* of partitioning is modelled here; the performance of
code running on an instance lives in :mod:`repro.models.perf`.
"""

from repro.gpu.geometry import (
    PartitionGeometry,
    PartitionLayout,
    PlacedPartition,
    available_geometries,
    default_geometry,
    enumerate_layouts,
    get_geometry,
    register_geometry,
)
from repro.gpu.mig import INSTANCE_SIZES, MIG_GEOMETRY
from repro.gpu.amd import MI300X_GEOMETRY, compute_mode_for, legal_memory_modes
from repro.gpu.gpu import GPU, GPUError, NUM_SLICES
from repro.gpu.mps import MPSContext, MPSError
from repro.gpu.telemetry import SMActivityTracker, ActivitySample
from repro.gpu.cluster import Cluster, ReconfigurationPlan

__all__ = [
    "PartitionGeometry",
    "PartitionLayout",
    "PlacedPartition",
    "available_geometries",
    "default_geometry",
    "enumerate_layouts",
    "get_geometry",
    "register_geometry",
    "INSTANCE_SIZES",
    "MIG_GEOMETRY",
    "MI300X_GEOMETRY",
    "compute_mode_for",
    "legal_memory_modes",
    "GPU",
    "GPUError",
    "NUM_SLICES",
    "MPSContext",
    "MPSError",
    "SMActivityTracker",
    "ActivitySample",
    "Cluster",
    "ReconfigurationPlan",
]
