"""Tests for the PartitionGeometry contract, registry, and generic layout."""

import pytest

from repro.gpu.amd import MI300X_GEOMETRY
from repro.gpu.generations import geometry_for_generation
from repro.gpu.geometry import (
    PartitionLayout,
    PlacedPartition,
    available_geometries,
    default_geometry,
    get_geometry,
)
from repro.gpu.gpu import GPU, GPUError
from repro.gpu.mig import MEMORY_GB, MIG_GEOMETRY


class TestRegistry:
    def test_builtins_registered(self):
        assert {"mig", "mi300x"} <= set(available_geometries())

    def test_aliases(self):
        assert get_geometry("a100") is MIG_GEOMETRY
        assert get_geometry("nvidia") is MIG_GEOMETRY
        assert get_geometry("AMD") is MI300X_GEOMETRY
        assert get_geometry("MI300X") is MI300X_GEOMETRY

    def test_default_is_mig(self):
        assert default_geometry() is MIG_GEOMETRY

    def test_unknown_raises_with_known_list(self):
        with pytest.raises(KeyError, match="known:"):
            get_geometry("tpu-v5")


class TestMigGeometryMatchesTables:
    """MIG_GEOMETRY is the single source of truth behind repro.gpu.mig."""

    def test_memory_map(self):
        for size, gb in MEMORY_GB.items():
            assert MIG_GEOMETRY.instance_memory_gb(size) == gb

    def test_slot_rules(self):
        assert MIG_GEOMETRY.legal_starts(2, extended=True) == (0, 2, 4, 5)
        assert MIG_GEOMETRY.legal_starts(2, extended=False) == (0, 2, 4)
        assert MIG_GEOMETRY.occupied_mask(3, 0) == 0b1111  # blocks slice 3

    def test_compute_accounting(self):
        assert MIG_GEOMETRY.total_sms == 98
        assert MIG_GEOMETRY.gpc_equivalent(7) == 7.0  # the reference unit

    def test_free_mixing(self):
        assert MIG_GEOMETRY.can_coexist((4, 2), 1)


class TestPlacedPartition:
    def test_validates_against_geometry(self):
        with pytest.raises(ValueError):
            MI300X_GEOMETRY.place(3, 0)  # no size-3 XCD mode
        with pytest.raises(ValueError):
            MI300X_GEOMETRY.place(4, 2)  # 4-XCD partitions start at 0/4

    def test_equality_is_geometry_aware(self):
        mig = MIG_GEOMETRY.place(4, 0)
        amd = MI300X_GEOMETRY.place(4, 0)
        assert mig != amd
        # the shared ``place`` instance equals a directly built one
        direct = PlacedPartition(size=4, start=0, geometry=MIG_GEOMETRY)
        assert mig is not direct
        assert mig == direct
        assert hash(mig) == hash(direct)

    def test_cross_geometry_layouts_reject_foreign_instances(self):
        layout = PartitionLayout(MIG_GEOMETRY)
        with pytest.raises(ValueError):
            layout.add(MI300X_GEOMETRY.place(4, 0))

    def test_memory_property(self):
        assert MI300X_GEOMETRY.place(1, 0).memory_gb == 24.0
        assert MIG_GEOMETRY.place(1, 0).memory_gb == 10


class TestGenerationGeometries:
    def test_default_generation_is_the_mig_singleton(self):
        assert geometry_for_generation("a100-80gb") is MIG_GEOMETRY

    def test_h200_memory_map_moves_oom_boundaries(self):
        h200 = geometry_for_generation("h200-141gb")
        assert h200.instance_memory_gb(7) == 141
        assert h200.instance_memory_gb(1) == pytest.approx(141 / 8)
        # placement rules are untouched across NVIDIA generations
        assert h200.legal_starts(3) == MIG_GEOMETRY.legal_starts(3)
        assert h200.occupied_mask(3, 0) == MIG_GEOMETRY.occupied_mask(3, 0)


class TestGeometryAwareGPU:
    def test_mi300x_gpu_lifecycle(self):
        gpu = GPU(0, geometry=MI300X_GEOMETRY)
        a = gpu.create_instance(4, 0, owner="svc-a")
        assert a.sm_count == 4 * 38
        assert gpu.free_gpcs == 4
        # device-wide mode: a QPX instance cannot join a DPX device
        with pytest.raises(GPUError):
            gpu.create_instance(2, 4, owner="svc-b")
        gpu.create_instance(4, 4, owner="svc-b")
        assert gpu.used_gpcs == 8
        gpu.destroy_all()
        assert gpu.is_empty

    def test_default_gpu_still_mig(self):
        gpu = GPU(0)
        assert gpu.geometry is MIG_GEOMETRY
        gpu.create_instance(3, 0)
        assert gpu.free_gpcs == 3  # slice 3 blocked
