"""Unit tests for the ParvaGPU facade, predictor, and deployment manager."""

import pytest

from repro.core import DeploymentManager, ParvaGPU, Predictor, Service
from repro.core.failover import FailoverController
from repro.core.segments import Segment
from repro.scenarios import scenario_services


class TestFacade:
    def test_names(self, profiles):
        assert ParvaGPU(profiles).name == "parvagpu"
        assert ParvaGPU(profiles, use_mps=False).name == "parvagpu-single"
        assert ParvaGPU(profiles, optimize=False).name == "parvagpu-unoptimized"

    def test_schedule_records_delay_and_rates(self, profiles, make_service):
        placement = ParvaGPU(profiles).schedule([make_service(rate=900.0)])
        assert placement.scheduling_delay_ms > 0
        assert placement.rates_assigned
        total = sum(s.served_rate for _, s in placement.iter_segments())
        assert total == pytest.approx(900.0)

    def test_single_variant_uses_one_process(self, profiles, make_service):
        placement = ParvaGPU(profiles, use_mps=False).schedule(
            [make_service(rate=900.0)]
        )
        assert all(
            s.num_processes == 1 for _, s in placement.iter_segments()
        )

    def test_mps_variant_never_worse(self, profiles, make_service):
        for rate in (800.0, 4000.0, 12000.0):
            multi = ParvaGPU(profiles).schedule([make_service(sid="m", rate=rate)])
            single = ParvaGPU(profiles, use_mps=False).schedule(
                [make_service(sid="s", rate=rate)]
            )
            assert multi.num_gpus <= single.num_gpus


class TestSegmentType:
    def test_invalid_segment(self):
        with pytest.raises(ValueError):
            Segment("s", "m", 5, 8, 1, 100.0, 10.0, 0.9)
        with pytest.raises(ValueError):
            Segment("s", "m", 1, 0, 1, 100.0, 10.0, 0.9)
        with pytest.raises(ValueError):
            Segment("s", "m", 1, 8, 1, 0.0, 10.0, 0.9)

    def test_describe(self):
        seg = Segment("svc", "m", 3, 8, 2, 1234.0, 10.0, 0.9)
        assert "svc@3g" in seg.describe()
        assert seg.sm_count == 42
        assert seg.throughput_per_gpc == pytest.approx(1234.0 / 3)


class TestPredictor:
    def test_prediction_fields(self, profiles, make_service):
        pred = Predictor(ParvaGPU(profiles)).predict([make_service(rate=900.0)])
        assert pred.framework == "parvagpu"
        assert pred.num_gpus == pred.placement.num_gpus
        assert pred.total_demand == pytest.approx(900.0)
        assert pred.total_capacity >= pred.total_demand
        assert pred.overprovision_factor >= 1.0


class TestDeploymentManager:
    def test_deploy_creates_instances(self, profiles, make_service):
        services = [make_service(sid="a", rate=700.0)]
        placement = ParvaGPU(profiles).schedule(services)
        mgr = DeploymentManager(profiles)
        plan = mgr.deploy(placement)
        assert len(plan.create) == len(list(placement.iter_segments()))
        assert mgr.cluster.used_gpu_count() == placement.num_gpus

    def test_redeploy_same_map_is_noop(self, profiles, make_service):
        services = [make_service(sid="a", rate=700.0)]
        placement = ParvaGPU(profiles).schedule(services)
        mgr = DeploymentManager(profiles)
        mgr.deploy(placement)
        plan = mgr.deploy(placement)
        assert plan.is_noop

    def test_update_slo_keeps_other_services(self, profiles):
        services = [
            Service("a", "resnet-50", slo_latency_ms=250, request_rate=700),
            Service("b", "vgg-16", slo_latency_ms=400, request_rate=500),
        ]
        placement = ParvaGPU(profiles).schedule(services)
        mgr = DeploymentManager(profiles)
        mgr.deploy(placement)
        b_before = {
            (gpu_id, s.start, s.gpcs)
            for gpu_id, s in placement.iter_segments()
            if s.service_id == "b"
        }
        new_placement, _ = mgr.update_slo(
            services, services[0], new_slo_ms=120.0, new_rate=2100.0
        )
        b_after = {
            (gpu_id, s.start, s.gpcs)
            for gpu_id, s in new_placement.iter_segments()
            if s.service_id == "b"
        }
        assert b_before == b_after
        assert new_placement.total_capacity("a") >= 2100.0

    def test_reference_manager_runs_every_delta_on_the_rebuild(
        self, profiles
    ):
        """``fast_path`` is the manager's: a reference manager runs each
        delta on a rebuild and never builds a live state, a fast one
        builds it once, and both publish the same maps."""
        def deployed(fast_path):
            services = scenario_services("S2")
            manager = DeploymentManager(profiles, fast_path=fast_path)
            manager.deploy(ParvaGPU(profiles).schedule(services))
            return services, manager

        def deltas(services, manager):
            svc = services[0]
            yield manager.update_slo(
                services, svc, new_rate=svc.request_rate * 2.5
            )[0]
            remaining = services[:-1]
            yield manager.remove_service(remaining, services[-1].id)[0]
            victim = manager.occupied_gpus()[0]
            failover = FailoverController(manager)
            yield failover.fail_gpu(victim, remaining).placement

        ref_services, ref = deployed(False)
        fast_services, fast = deployed(True)
        steps = zip(deltas(ref_services, ref), deltas(fast_services, fast))
        for n, (ref_map, fast_map) in enumerate(steps, start=1):
            assert ref.live_states() is None
            assert ref.stats.states_rebuilt == n
            assert fast.live_states() is not None
            assert fast.stats.states_rebuilt == 1
            assert ref.current is ref_map and fast.current is fast_map
            assert ref_map.fingerprint() == fast_map.fingerprint()
        assert n == 3

    def test_update_before_deploy_raises(self, profiles, make_service):
        mgr = DeploymentManager(profiles)
        with pytest.raises(RuntimeError):
            mgr.update_slo([make_service()], make_service())
