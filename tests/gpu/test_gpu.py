"""Unit tests for the single-GPU instance lifecycle."""

import pytest

from repro.gpu.gpu import GPU, GPUError, SMS_PER_GPC, SMS_PER_GPU


class TestCreation:
    def test_create_valid(self):
        gpu = GPU(0)
        inst = gpu.create_instance(4, 0, owner="a")
        assert inst.size == 4
        assert inst.owner == "a"
        assert gpu.used_gpcs == 4

    def test_sm_accounting(self):
        gpu = GPU(0)
        inst = gpu.create_instance(3, 4)
        assert inst.sm_count == 3 * SMS_PER_GPC
        assert SMS_PER_GPU == 7 * SMS_PER_GPC

    def test_create_invalid_size(self):
        with pytest.raises(GPUError):
            GPU(0).create_instance(5, 0)

    def test_create_illegal_start(self):
        with pytest.raises(GPUError):
            GPU(0).create_instance(4, 1)

    def test_create_overlap(self):
        gpu = GPU(0)
        gpu.create_instance(4, 0)
        with pytest.raises(GPUError):
            gpu.create_instance(7, 0)

    def test_full_partitioning(self):
        gpu = GPU(0)
        for slot in range(7):
            gpu.create_instance(1, slot)
        assert gpu.used_gpcs == 7
        assert gpu.free_gpcs == 0
        assert not gpu.can_place(1)


class TestDestroy:
    def test_destroy_frees_slices(self):
        gpu = GPU(0)
        inst = gpu.create_instance(7, 0)
        gpu.destroy_instance(inst)
        assert gpu.is_empty
        assert gpu.can_place(7, 0)

    def test_destroy_foreign_instance_raises(self):
        gpu_a, gpu_b = GPU(0), GPU(1)
        inst = gpu_a.create_instance(1, 0)
        with pytest.raises(GPUError):
            gpu_b.destroy_instance(inst)

    def test_destroy_all(self):
        gpu = GPU(0)
        gpu.create_instance(3, 4)
        gpu.create_instance(2, 0)
        gpu.destroy_all()
        assert gpu.is_empty

    def test_destroy_terminates_mps(self):
        gpu = GPU(0)
        inst = gpu.create_instance(2, 0)
        inst.mps.launch("svc")
        gpu.destroy_instance(inst)
        assert inst.mps.num_processes == 0


class TestQueries:
    def test_feasible_starts_for_three_after_blocking(self):
        gpu = GPU(0)
        gpu.create_instance(3, 0)  # blocks slice 3
        assert gpu.feasible_starts(3) == (4,)
        assert gpu.feasible_starts(1) == (4, 5, 6)

    def test_largest_free_run(self):
        gpu = GPU(0)
        gpu.create_instance(1, 3)
        assert gpu.largest_free_run() == 3

    def test_instances_of(self):
        gpu = GPU(0)
        gpu.create_instance(1, 0, owner="x")
        gpu.create_instance(1, 1, owner="y")
        gpu.create_instance(1, 2, owner="x")
        assert len(gpu.instances_of("x")) == 2

    def test_snapshot_sorted_and_hashable(self):
        gpu = GPU(0)
        gpu.create_instance(3, 4, owner="b")
        gpu.create_instance(2, 0, owner="a")
        snap = gpu.snapshot()
        assert snap == ((0, 2, "a"), (4, 3, "b"))
        hash(snap)

    def test_instance_keys_follow_create_and_destroy(self):
        gpu = GPU(3)
        b = gpu.create_instance(3, 4, owner="b")
        gpu.create_instance(2, 0, owner="a")
        c = gpu.create_instance(1, 2)
        assert gpu.instance_keys == ((3, 0, 2, "a"), (3, 2, 1, ""), (3, 4, 3, "b"))
        gpu.destroy_instance(b)
        gpu.destroy_instance(c)
        assert gpu.instance_keys == ((3, 0, 2, "a"),)
        gpu.destroy_all()
        assert gpu.instance_keys == ()
        with pytest.raises(AttributeError):
            b.owner = "x"  # an instance's key fields are frozen

    def test_can_place_any_start(self):
        gpu = GPU(0)
        gpu.create_instance(4, 0)
        assert gpu.can_place(3)  # at slot 4
        assert not gpu.can_place(4)
        assert not gpu.can_place(7)
