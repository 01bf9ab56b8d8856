"""Integration tests for trace-driven autoscaling."""

import pytest

from repro.core import DeploymentManager, ParvaGPU, Service
from repro.core.autoscaler import Autoscaler
from repro.core.hetero import make_mixed_scheduler
from repro.sim.traces import Epoch, RateTrace, diurnal_trace, surge_trace


@pytest.fixture
def services():
    return [
        Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
        Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
    ]


class TestAutoscaler:
    def test_fleet_follows_load(self, profiles, services):
        traces = [
            surge_trace("a", base_rate=2000, surge_factor=4.0,
                        surge_start_s=100.0, surge_end_s=200.0),
        ]
        report = Autoscaler(profiles).run(services, traces)
        gpus = dict(report.gpu_series())
        assert gpus[100.0] > gpus[0.0]  # surge grows the fleet
        assert gpus[200.0] < gpus[100.0]  # and it shrinks back

    def test_steps_only_on_rate_changes(self, profiles, services):
        flat = RateTrace("a", (Epoch(0.0, 2000.0), Epoch(50.0, 2000.0)))
        report = Autoscaler(profiles).run(services, [flat])
        assert len(report.steps) == 1  # the 50 s epoch changed nothing

    def test_unchanged_service_not_reconfigured(self, profiles, services):
        traces = [
            surge_trace("a", base_rate=2000, surge_factor=3.0,
                        surge_start_s=60.0, surge_end_s=120.0),
        ]
        report = Autoscaler(profiles).run(services, traces)
        surge_step = next(s for s in report.steps if s.time_s == 60.0)
        # service b kept at least one instance live through the transition
        assert surge_step.unchanged_instances >= 1
        assert surge_step.cost.downtime_s.get("b", 0.0) == 0.0

    def test_diurnal_day(self, profiles, services):
        traces = [
            diurnal_trace("a", base_rate=2000, amplitude=0.5, epochs=6),
            diurnal_trace("b", base_rate=4000, amplitude=0.5, epochs=6,
                          phase=1.0),
        ]
        report = Autoscaler(profiles, spare_gpus=4).run(services, traces)
        assert len(report.steps) == 6
        assert report.peak_gpus >= report.mean_gpus
        assert report.total_reconfig_ops > 0
        assert all(s.zero_downtime for s in report.steps)

    def test_measured_compliance(self, profiles, services):
        traces = [diurnal_trace("a", base_rate=2000, amplitude=0.3, epochs=3)]
        report = Autoscaler(profiles).run(services, traces, measure_s=0.5)
        assert len(report.steps) == 3
        for step in report.steps:
            assert step.compliance is not None
            assert 0.0 <= step.compliance <= 1.0
        # scheduled capacity always covers the traced rates here
        assert report.mean_compliance > 0.95

    def test_measurement_off_by_default(self, profiles, services):
        traces = [diurnal_trace("a", base_rate=2000, epochs=2)]
        report = Autoscaler(profiles).run(services, traces)
        assert all(s.compliance is None for s in report.steps)
        assert report.mean_compliance is None

    def test_horizon_cuts_trace(self, profiles, services):
        traces = [diurnal_trace("a", base_rate=2000, epochs=10,
                                period_s=1000.0)]
        report = Autoscaler(profiles).run(services, traces, horizon_s=500.0)
        assert all(s.time_s < 500.0 for s in report.steps)

    def test_unknown_trace_service(self, profiles, services):
        bad = [diurnal_trace("ghost", base_rate=100)]
        with pytest.raises(ValueError):
            Autoscaler(profiles).run(services, bad)

    def test_unchanged_accumulates_over_multiple_replans(self, profiles):
        """Several rates moving in one epoch: unchanged counts must sum.

        The regression: ``unchanged`` was overwritten per re-planned
        service, so a step reported only the *last* plan's untouched
        instances.  The expectation is replicated by hand: run the same
        first-epoch deployment, then the same per-service SLO updates in
        the autoscaler's (sorted) order, summing each plan's unchanged
        list — the step must report exactly that sum.
        """
        services = [
            Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
            Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
            Service("c", "densenet-121", slo_latency_ms=200, request_rate=1500),
        ]
        traces = [
            surge_trace("a", base_rate=2000, surge_factor=3.0,
                        surge_start_s=60.0, surge_end_s=120.0),
            surge_trace("b", base_rate=4000, surge_factor=2.0,
                        surge_start_s=60.0, surge_end_s=120.0),
        ]
        report = Autoscaler(profiles).run(services, traces)
        surge_step = next(s for s in report.steps if s.time_s == 60.0)

        work = [
            Service(s.id, s.model, slo_latency_ms=s.slo_latency_ms,
                    request_rate=s.request_rate)
            for s in services
        ]
        by_id = {s.id: s for s in work}
        for svc in work:
            svc.reset_plan()
        manager = DeploymentManager(profiles)
        manager.deploy(ParvaGPU(profiles).schedule(work))

        def running():
            return {
                (g.gpu_id, i.start, i.size, i.owner)
                for g, i in manager.cluster.instances()
            }

        expected = 0
        for sid, new_rate in (("a", 6000.0), ("b", 8000.0)):
            before = running()
            manager.update_slo(work, by_id[sid], new_rate=new_rate)
            expected += len(before & running())
        assert expected > 0
        assert surge_step.unchanged_instances == expected

    def test_run_does_not_mutate_caller_services(self, profiles, services):
        """A trace run must leave the caller's Service objects reusable."""
        traces = [
            surge_trace("a", base_rate=2000, surge_factor=4.0,
                        surge_start_s=100.0, surge_end_s=200.0),
        ]
        before = [
            (s.id, s.request_rate, s.slo_latency_ms, s.slo_factor)
            for s in services
        ]
        Autoscaler(profiles).run(services, traces)
        after = [
            (s.id, s.request_rate, s.slo_latency_ms, s.slo_factor)
            for s in services
        ]
        assert before == after
        for svc in services:  # Algorithm-1 plan state untouched too
            assert svc.opt_tri_array == {}
            assert svc.opt_seg is None
            assert svc.num_opt_seg == 0
            assert svc.last_seg is None

    def test_mixed_geometry_fleet(self, profiles):
        """Autoscaling a heterogeneous (mig + mi300x) deployment.

        The first epoch schedules through HeterogeneousParvaGPU, so the
        fleet genuinely spans both geometries; subsequent epochs walk the
        SIII-F incremental path, whose per-GPU states follow each plan's
        own geometry (re-planned services land on the manager's profile
        geometry, MIG — untouched MI300X plans keep serving).
        """
        # Eq.-2 pool assignment at these SLOs: resnet-50@250ms scores
        # best on MI300X, mobilenetv2@150ms on MIG — so surging the
        # mobilenet exercises incremental re-plans on the MIG pool while
        # the MI300X-resident service keeps serving untouched.
        services = [
            Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
            Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
        ]
        scaler = Autoscaler(profiles, scheduler=make_mixed_scheduler())
        traces = [
            surge_trace("b", base_rate=4000, surge_factor=4.0,
                        surge_start_s=100.0, surge_end_s=200.0),
        ]
        report = scaler.run(services, traces)
        assert len(report.steps) == 3
        placement = scaler.manager.current
        placement.validate()
        assert set(placement.geometries()) == {"mig", "mi300x"}
        gpus = dict(report.gpu_series())
        assert gpus[100.0] > gpus[0.0]
        assert gpus[200.0] < gpus[100.0]
        for svc in services:
            capacity = placement.total_capacity(svc.id)
            assert capacity >= svc.request_rate * (1 - 1e-9), svc.id
        # the MI300X-resident service was never re-planned: no downtime
        for step in report.steps[1:]:
            assert step.cost.downtime_s.get("a", 0.0) == 0.0

    def test_mixed_geometry_untouched_pool_keeps_instances(self, profiles):
        """An epoch that only moves a MIG service's rate leaves every
        MI300X instance running (unchanged across the reconfiguration)."""
        services = [
            Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
            Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
        ]
        scaler = Autoscaler(profiles, scheduler=make_mixed_scheduler())
        traces = [
            surge_trace("b", base_rate=4000, surge_factor=3.0,
                        surge_start_s=50.0, surge_end_s=100.0),
        ]
        scaler.run(services, traces, horizon_s=60.0)
        placement = scaler.manager.current
        amd_plans = [g for g in placement.gpus if g.geometry == "mi300x"]
        assert amd_plans, "resnet-50 should live on the MI300X pool"
        assert all(
            seg.service_id == "a" for g in amd_plans for seg in g.segments
        )

    def test_mixed_geometry_measured_compliance(self, profiles):
        """Serving measurement crosses geometries: the simulator consumes
        the merged heterogeneous placement directly."""
        services = [
            Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
            Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
        ]
        scaler = Autoscaler(profiles, scheduler=make_mixed_scheduler())
        traces = [diurnal_trace("b", base_rate=4000, amplitude=0.3, epochs=2)]
        report = scaler.run(services, traces, measure_s=0.4)
        assert report.mean_compliance is not None
        assert report.mean_compliance > 0.95

    def test_two_runs_from_same_services_agree(self, profiles, services):
        """Reusing one service list for two experiments is now safe."""
        traces = [
            surge_trace("a", base_rate=2000, surge_factor=4.0,
                        surge_start_s=100.0, surge_end_s=200.0),
        ]
        first = Autoscaler(profiles).run(services, traces)
        second = Autoscaler(profiles).run(services, traces)
        assert [s.num_gpus for s in first.steps] == [
            s.num_gpus for s in second.steps
        ]
        assert [s.rates for s in first.steps] == [
            s.rates for s in second.steps
        ]
