"""Unit tests for the multi-GPU cluster and reconfiguration planning."""

import pytest

from repro.gpu.cluster import Cluster, InstanceSpec
from repro.gpu.gpu import GPUError


def spec(gpu_id, size, start, owner, procs=1):
    return InstanceSpec(
        gpu_id=gpu_id, size=size, start=start, owner=owner, num_processes=procs
    )


class TestPool:
    def test_initial_capacity(self):
        assert len(Cluster(3)) == 3

    def test_add_gpu_numbers_sequentially(self):
        c = Cluster(1)
        g = c.add_gpu()
        assert g.gpu_id == 1

    def test_ensure_capacity(self):
        c = Cluster()
        c.ensure_capacity(4)
        assert len(c) == 4
        c.ensure_capacity(2)  # never shrinks
        assert len(c) == 4

    def test_unknown_gpu(self):
        with pytest.raises(GPUError):
            Cluster(1).gpu(5)

    def test_used_gpu_count_ignores_empty(self):
        c = Cluster(3)
        c.gpu(1).create_instance(1, 0, owner="a")
        assert c.used_gpu_count() == 1


class TestApplySpecs:
    def test_grows_and_launches_processes(self):
        c = Cluster()
        c.apply_specs([spec(0, 4, 0, "a", procs=2), spec(1, 7, 0, "b")])
        assert len(c) == 2
        a = c.instances_of("a")
        assert len(a) == 1
        assert a[0][1].mps.num_processes == 2

    def test_iteration(self):
        c = Cluster()
        c.apply_specs([spec(0, 3, 4, "a"), spec(0, 2, 0, "b")])
        owners = sorted(i.owner for _, i in c.instances())
        assert owners == ["a", "b"]

    def test_empty_gpu_reprovisioned_to_spec_geometry(self):
        """A re-plan may hand a released GPU's id to a fresh GPU of the
        other geometry: the emptied GPU takes the spec's geometry."""
        c = Cluster()
        c.apply_specs([
            spec(0, 7, 0, "a"),
            InstanceSpec(gpu_id=1, size=8, start=0, owner="b", geometry="mi300x"),
        ])
        assert c.gpu(1).geometry.name == "mi300x"
        plan = c.plan_reconfiguration([spec(0, 7, 0, "a"), spec(1, 4, 0, "c")])
        c.execute(plan)
        assert c.gpu(1).geometry.name == "mig"
        assert c.gpu(1).snapshot() == ((0, 4, "c"),)
        assert c.gpu(0).snapshot() == ((0, 7, "a"),)

    def test_hosting_gpu_of_other_geometry_refused(self):
        c = Cluster()
        c.apply_specs([spec(0, 4, 0, "a")])
        foreign = InstanceSpec(
            gpu_id=0, size=2, start=4, owner="b", geometry="mi300x"
        )
        with pytest.raises(GPUError, match="GPU 0 is mig; spec wants mi300x"):
            c.apply_specs([foreign])
        assert c.gpu(0).snapshot() == ((0, 4, "a"),)


class TestReconfiguration:
    def test_noop_plan(self):
        c = Cluster()
        target = [spec(0, 4, 0, "a")]
        c.apply_specs(target)
        plan = c.plan_reconfiguration(target)
        assert plan.is_noop
        c.execute(plan)
        assert c.gpu(0).snapshot() == ((0, 4, "a"),)

    def test_changed_service_replanned(self):
        c = Cluster()
        c.apply_specs([spec(0, 4, 0, "a"), spec(0, 3, 4, "b")])
        # 'a' moves to a size-2; 'b' stays.
        plan = c.plan_reconfiguration([spec(0, 2, 0, "a"), spec(0, 3, 4, "b")])
        # The plan is exactly its diff: 'b' is in neither list.
        assert plan.destroy == [(0, (0, 4, "a"))]
        assert plan.create == [spec(0, 2, 0, "a")]
        assert plan.num_operations == 2

    def test_execute_applies_diff(self):
        c = Cluster()
        c.apply_specs([spec(0, 4, 0, "a"), spec(0, 3, 4, "b")])
        plan = c.plan_reconfiguration([spec(0, 2, 0, "a"), spec(0, 3, 4, "b")])
        c.execute(plan)
        snap = c.gpu(0).snapshot()
        assert (0, 2, "a") in snap
        assert (4, 3, "b") in snap

    def test_duplicate_instances_matched_once(self):
        c = Cluster()
        c.apply_specs([spec(0, 1, 0, "a"), spec(0, 1, 1, "a")])
        plan = c.plan_reconfiguration([spec(0, 1, 0, "a"), spec(0, 1, 1, "a")])
        assert plan.is_noop

    def test_clear(self):
        c = Cluster()
        c.apply_specs([spec(0, 7, 0, "a")])
        c.clear()
        assert c.used_gpu_count() == 0
