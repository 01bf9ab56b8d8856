"""Trace-driven autoscaling: rate traces as a FleetController timeline.

A trace set becomes :class:`RateEpoch` events through ``rate_epochs``;
the controller bootstraps once and re-plans, per instant, only the
services whose rate moved.
"""

import pytest

from repro.core.service import Service
from repro.ops import FleetController
from repro.ops.chaos import rate_epochs
from repro.sim.traces import Epoch, RateTrace, diurnal_trace, surge_trace

DAY_S = 86_400.0


@pytest.fixture
def services():
    return [
        Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
        Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
    ]


class TestTraceAutoscaling:
    def test_fleet_follows_load(self, profiles, services):
        """A 4x surge on ``a`` grows the fleet, and its end shrinks it."""
        timeline = rate_epochs([
            surge_trace("a", base_rate=2000, surge_factor=4.0,
                        surge_start_s=100.0, surge_end_s=200.0),
        ])
        report = FleetController(profiles).run(
            services, timeline, horizon_s=300.0
        )
        gpus = {r.time_s: r.num_gpus for r in report.intervals}
        assert gpus[100.0] > gpus[0.0]  # surge grows the fleet
        assert gpus[200.0] < gpus[100.0]  # and it shrinks back

    def test_flat_epoch_records_a_noop_interval(self, profiles, services):
        """An epoch that moves no rate is still an interval: nothing is
        reconfigured and the placement is the previous one."""
        flat = RateTrace("a", (Epoch(0.0, 2000.0), Epoch(50.0, 2000.0)))
        report = FleetController(profiles).run(
            services, rate_epochs([flat]), horizon_s=100.0
        )
        first, second = report.intervals
        assert second.reconfig_ops == 0
        assert second.fingerprint == first.fingerprint

    def test_unknown_trace_service_is_skipped(self, profiles, services):
        """Skipped, not fatal, in the bootstrap's full re-plan and at a
        later incremental instant alike."""
        ghost = diurnal_trace("ghost", base_rate=100, epochs=2)
        report = FleetController(profiles).run(
            services, rate_epochs([ghost]), horizon_s=DAY_S
        )
        assert [r.skipped for r in report.intervals] == [1, 1]
        assert report.intervals[1].reconfig_ops == 0

    def test_untouched_service_keeps_instances_through_surge(
        self, profiles, services
    ):
        """Surging ``a`` re-plans ``a`` alone: every instance of ``b``
        stays the same live object across the transition."""
        timeline = rate_epochs([
            surge_trace("a", base_rate=2000, surge_factor=3.0,
                        surge_start_s=60.0, surge_end_s=120.0),
        ])
        ctrl = FleetController(profiles)
        ctrl.begin(services, horizon_s=180.0)
        ctrl.step(0.0, [e for e in timeline if e.time_s == 0.0])
        before = ctrl.manager.cluster.instances_of("b")
        surge = ctrl.step(60.0, [e for e in timeline if e.time_s == 60.0])
        after = ctrl.manager.cluster.instances_of("b")
        ctrl.finish()
        assert surge.path == "incremental" and surge.reconfig_ops > 0
        assert before
        assert len(after) == len(before)
        assert all(
            g0 is g1 and i0 is i1
            for (g0, i0), (g1, i1) in zip(before, after)
        )

    def test_diurnal_day_zero_downtime(self, profiles, services):
        traces = [
            diurnal_trace("a", base_rate=2000, amplitude=0.5, epochs=6),
            diurnal_trace("b", base_rate=4000, amplitude=0.5, epochs=6,
                          phase=1.0),
        ]
        report = FleetController(profiles, spare_shadow_gpus=4).run(
            services, rate_epochs(traces, DAY_S), DAY_S
        )
        gpus = [r.num_gpus for r in report.intervals]
        assert len(gpus) == 6
        assert report.peak_gpus >= sum(gpus) / len(gpus)
        assert report.total_reconfig_ops > 0
        assert all(r.zero_downtime for r in report.intervals)

    def test_measured_compliance(self, profiles, services):
        traces = [diurnal_trace("a", base_rate=2000, amplitude=0.3, epochs=3)]
        report = FleetController(profiles).run(
            services, rate_epochs(traces, DAY_S), DAY_S,
            measure_s=0.5, warmup_s=0.0,
        )
        assert len(report.intervals) == 3
        for interval in report.intervals:
            assert interval.compliance is not None
            assert 0.0 <= interval.compliance <= 1.0
        # scheduled capacity always covers the traced rates here
        assert report.mean_compliance > 0.95
