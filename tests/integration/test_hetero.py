"""End-to-end schedule -> simulate across partition geometries.

Covers the acceptance paths of the pluggable-geometry refactor: the
MI300X-only pipeline, heterogeneous A100+MI300X clusters, and the
invariant that the default MIG path is untouched by the refactor.
"""

import pytest

from repro.core.hetero import (
    GeometryPool,
    HeterogeneousParvaGPU,
    make_mixed_scheduler,
)
from repro.core.parvagpu import ParvaGPU
from repro.core.service import Service
from repro.gpu.geometry import get_geometry
from repro.gpu.reconfig import price_plan
from repro.profiler import profile_workloads
from repro.scenarios import scenario_services
from repro.sim import simulate_placement


@pytest.fixture(scope="module")
def amd_geometry():
    return get_geometry("mi300x")


@pytest.fixture(scope="module")
def amd_profiles(amd_geometry):
    return profile_workloads(geometry=amd_geometry)


class TestMI300XPipeline:
    @pytest.fixture(scope="class")
    def result(self, amd_profiles, amd_geometry):
        services = scenario_services("S2")
        placement = ParvaGPU(amd_profiles, geometry=amd_geometry).schedule(services)
        report = simulate_placement(placement, services, duration_s=1.5)
        return placement, report

    def test_placement_valid_and_pure_amd(self, result):
        placement, _ = result
        placement.validate()
        assert placement.geometries() == ("mi300x",)
        for _, seg in placement.iter_segments():
            assert seg.kind == "xcd"
            assert int(seg.gpcs) in (1, 2, 4, 8)

    def test_device_modes_are_uniform(self, result):
        """Every MI300X hosts instances of one size (device-wide mode)."""
        placement, _ = result
        for plan in placement.gpus:
            sizes = {int(s.gpcs) for s in plan.segments}
            assert len(sizes) == 1

    def test_capacity_covers_demand(self, result):
        placement, _ = result
        for svc in scenario_services("S2"):
            assert placement.total_capacity(svc.id) >= 0.95 * svc.request_rate

    def test_slo_compliance(self, result):
        _, report = result
        assert report.overall_compliance > 0.99

    def test_fewer_devices_than_a100_fleet(self, result, profiles):
        """A ~1.6x-A100 device should serve S2 with fewer boards."""
        placement, _ = result
        services = scenario_services("S2")
        mig_placement = ParvaGPU(profiles).schedule(services)
        assert placement.num_gpus <= mig_placement.num_gpus


class TestHeterogeneousCluster:
    @pytest.fixture(scope="class")
    def result(self, profiles, amd_profiles, amd_geometry):
        services = scenario_services("S7")
        scheduler = HeterogeneousParvaGPU(
            [
                GeometryPool(get_geometry("mig"), profiles),
                GeometryPool(amd_geometry, amd_profiles),
            ]
        )
        placement = scheduler.schedule(services)
        report = simulate_placement(placement, services, duration_s=1.5)
        return services, placement, report

    def test_valid_and_feasible(self, result):
        services, placement, _ = result
        placement.validate()
        for svc in services:
            assert placement.total_capacity(svc.id) >= 0.95 * svc.request_rate

    def test_gpu_ids_unique_across_pools(self, result):
        _, placement, _ = result
        ids = [plan.gpu_id for plan in placement.gpus]
        assert len(ids) == len(set(ids))

    def test_slo_compliance(self, result):
        _, _, report = result
        assert report.overall_compliance > 0.99

    def test_pool_caps_spill(self, profiles, amd_profiles, amd_geometry):
        """Capping the AMD pool at zero devices forces an all-MIG result."""
        services = scenario_services("S1")
        scheduler = HeterogeneousParvaGPU(
            [
                GeometryPool(get_geometry("mig"), profiles),
                GeometryPool(amd_geometry, amd_profiles, max_gpus=0),
            ]
        )
        placement = scheduler.schedule(services)
        placement.validate()
        assert placement.geometries() == ("mig",)


class TestMI300XDeployment:
    """The SIII-F machinery must follow the placement's geometry."""

    @pytest.fixture()
    def deployed(self, amd_profiles, amd_geometry):
        from repro.core.deployment import DeploymentManager

        services = scenario_services("S1")
        placement = ParvaGPU(amd_profiles, geometry=amd_geometry).schedule(services)
        manager = DeploymentManager(amd_profiles, geometry=amd_geometry)
        manager.deploy(placement)
        return services, placement, manager

    def test_cluster_materializes_amd_gpus(self, deployed):
        _, placement, manager = deployed
        assert manager.cluster.geometries() == ("mi300x",)
        assert manager.cluster.used_gpu_count() == placement.num_gpus

    def test_slo_update_replans_under_xcd_rules(self, deployed):
        services, _, manager = deployed
        changed = services[0]
        running = sum(1 for _ in manager.cluster.instances())
        new_placement, plan = manager.update_slo(
            services, changed, new_rate=changed.request_rate * 1.5
        )
        new_placement.validate()
        assert new_placement.geometries() == ("mi300x",)
        # untouched services keep serving (the SIII-F argument)
        assert len(plan.destroy) < running


class TestMixedGeometryRateUpdates:
    """SIII-F rate updates on a MIG + MI300X deployment.

    At these SLOs Eq.-2 pool assignment puts resnet-50@250ms on MI300X
    and mobilenetv2@150ms on MIG, so moving the mobilenet's rate
    re-plans on the MIG pool while the MI300X-resident service keeps
    serving untouched (re-planned services land on the manager's
    profile geometry, MIG).
    """

    @pytest.fixture()
    def deployed(self, profiles):
        from repro.core.deployment import DeploymentManager

        services = [
            Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
            Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
        ]
        manager = DeploymentManager(profiles)
        manager.deploy(make_mixed_scheduler().schedule(services))
        return services, manager

    def test_surge_grows_and_ebb_shrinks_mixed_fleet(self, deployed):
        services, manager = deployed
        gpus = [manager.current.num_gpus]
        for rate in (16000.0, 4000.0):
            placement, plan = manager.update_slo(
                services, services[1], new_rate=rate
            )
            gpus.append(placement.num_gpus)
            # the MI300X-resident service was never re-planned
            assert price_plan(plan).downtime_s.get("a", 0.0) == 0.0
        placement.validate()
        assert set(placement.geometries()) == {"mig", "mi300x"}
        assert gpus[1] > gpus[0]
        assert gpus[2] < gpus[1]
        for svc in services:
            capacity = placement.total_capacity(svc.id)
            assert capacity >= svc.request_rate * (1 - 1e-9), svc.id

    def test_untouched_pool_keeps_instances(self, deployed):
        services, manager = deployed
        placement, _ = manager.update_slo(
            services, services[1], new_rate=12000.0
        )
        amd_plans = [g for g in placement.gpus if g.geometry == "mi300x"]
        assert amd_plans, "resnet-50 should live on the MI300X pool"
        assert all(
            seg.service_id == "a" for g in amd_plans for seg in g.segments
        )

    def test_measured_compliance_across_geometries(self, deployed):
        """The simulator serves the merged heterogeneous placement
        directly, before and after a re-plan."""
        services, manager = deployed
        compliance = [
            simulate_placement(
                manager.current, services, duration_s=0.4, warmup_s=0.0
            ).overall_compliance
        ]
        placement, _ = manager.update_slo(
            services, services[1], new_rate=5200.0
        )
        compliance.append(
            simulate_placement(
                placement, services, duration_s=0.4, warmup_s=0.0
            ).overall_compliance
        )
        assert sum(compliance) / len(compliance) > 0.95


class TestMigPathUnchanged:
    def test_explicit_mig_geometry_matches_default(self, profiles):
        """geometry=MIG must be the identity refactor: same placement."""
        services_a = scenario_services("S2")
        services_b = scenario_services("S2")
        default = ParvaGPU(profiles).schedule(services_a)
        explicit = ParvaGPU(
            profiles, geometry=get_geometry("mig")
        ).schedule(services_b)

        def shape(placement):
            return [
                sorted(
                    (s.service_id, s.gpcs, s.start, s.batch_size, s.num_processes)
                    for s in plan.segments
                )
                for plan in placement.gpus
            ]

        assert shape(default) == shape(explicit)
        assert default.framework == explicit.framework == "parvagpu"
