"""The closed-loop fleet controller: event application, identity, spares."""

import pytest

from repro.core.service import Service
from repro.gpu.geometry import get_geometry
from repro.ops import FleetController, merge_timeline, run_identity_checked
from repro.ops.events import (
    GpuFailure,
    GpuRecovery,
    RateEpoch,
    ServiceArrival,
    ServiceDeparture,
    SloChange,
    SpotPreemptionWave,
)
from repro.sim.traces import surge_trace
from repro.ops.chaos import rate_epochs


@pytest.fixture
def services():
    return [
        Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
        Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
        Service("c", "densenet-121", slo_latency_ms=200, request_rate=1500),
    ]


def controller(profiles, **kw):
    return FleetController(profiles, **kw)


class TestBootstrapAndRates:
    def test_empty_timeline_deploys_once(self, profiles, services):
        report = controller(profiles).run(services, (), horizon_s=100.0)
        assert len(report.intervals) == 1
        rec = report.intervals[0]
        assert rec.path == "full"
        assert rec.duration_s == 100.0
        assert rec.num_gpus > 0
        # serving measurement is off by default
        assert rec.compliance is None and report.mean_compliance is None

    def test_surge_grows_and_shrinks_fleet(self, profiles, services):
        timeline = rate_epochs(
            [surge_trace("a", 2000, surge_factor=4.0,
                         surge_start_s=100.0, surge_end_s=200.0)]
        )
        report = controller(profiles).run(services, timeline, horizon_s=300.0)
        gpus = {r.time_s: r.num_gpus for r in report.intervals}
        assert gpus[100.0] > gpus[0.0]
        assert gpus[200.0] < gpus[100.0]
        assert all(r.path in ("full", "incremental") for r in report.intervals)
        assert report.intervals[1].path == "incremental"

    def test_unchanged_rate_is_cheap(self, profiles, services):
        timeline = [RateEpoch(time_s=50.0, service_id="a", rate=2000.0)]
        report = controller(profiles).run(services, timeline, horizon_s=100.0)
        assert report.intervals[1].reconfig_ops == 0

    def test_bootstrap_records_work_but_no_downtime(self, profiles, services):
        """Initial deployment precedes serving: setup work is priced, but
        no tenant was interrupted — downtime starts at zero."""
        report = controller(profiles).run(services, (), horizon_s=50.0)
        rec = report.intervals[0]
        assert rec.reconfig_work_s > 0
        assert rec.downtime_total_s == 0.0
        assert repr(rec.downtime_total_s) == "0.0"  # a float, not int 0
        assert rec.zero_downtime
        assert report.total_downtime_s == 0.0

    def test_gpu_hours_integrate_intervals(self, profiles, services):
        report = controller(profiles).run(services, (), horizon_s=7200.0)
        rec = report.intervals[0]
        assert report.gpu_hours == pytest.approx(rec.num_gpus * 2.0)


class TestChurn:
    def test_arrival_gets_capacity(self, profiles, services):
        timeline = [
            ServiceArrival(time_s=60.0, service_id="newbie", model="vgg-16",
                           request_rate=400.0, slo_latency_ms=300.0)
        ]
        ctrl = controller(profiles)
        report = ctrl.run(services, timeline, horizon_s=120.0)
        placement = ctrl.manager.current
        assert placement.total_capacity("newbie") >= 400.0 * (1 - 1e-9)
        assert report.intervals[-1].services == 4

    def test_departure_releases_segments(self, profiles, services):
        timeline = [ServiceDeparture(time_s=60.0, service_id="b")]
        ctrl = controller(profiles)
        report = ctrl.run(services, timeline, horizon_s=120.0)
        assert not ctrl.manager.current.segments_of("b")
        assert report.intervals[-1].services == 2

    def test_departure_can_release_gpus(self, profiles):
        fat = [
            Service("big", "vgg-19", slo_latency_ms=400, request_rate=4000),
            Service("small", "mobilenetv2", slo_latency_ms=150, request_rate=500),
        ]
        timeline = [ServiceDeparture(time_s=10.0, service_id="big")]
        report = controller(profiles).run(fat, timeline, horizon_s=20.0)
        assert (
            report.intervals[-1].num_gpus < report.intervals[0].num_gpus
        )

    def test_unknown_ids_are_skipped_not_fatal(self, profiles, services):
        timeline = [
            ServiceDeparture(time_s=10.0, service_id="ghost"),
            RateEpoch(time_s=10.0, service_id="phantom", rate=10.0),
            SloChange(time_s=10.0, service_id="spook", slo_latency_ms=99.0),
            GpuRecovery(time_s=10.0, ref="never-failed"),
        ]
        report = controller(profiles).run(services, timeline, horizon_s=20.0)
        assert report.intervals[1].skipped == 4

    @pytest.mark.parametrize("replan_fraction", [1.0, 0.2])
    def test_unplannable_events_are_refused(
        self, profiles, services, replan_fraction
    ):
        """An SLO no operating point meets, an arrival of a model nobody
        profiled and an arrival with such an SLO are skipped, mid-run, on
        the incremental path and inside a full re-plan (fraction 0.2: the
        valid arrival alone exceeds it), leaving the service, the fleet
        and the placement as they were — fast and reference alike.
        Refused arrivals do not count towards a full re-plan."""
        refused = [
            SloChange(time_s=20.0, service_id="b", slo_latency_ms=0.5),
            ServiceArrival(time_s=20.0, service_id="x", model="nope",
                           request_rate=10.0, slo_latency_ms=100.0),
            ServiceArrival(time_s=20.0, service_id="y", model="vgg-16",
                           request_rate=10.0, slo_latency_ms=0.5),
        ]
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.5),
            *refused,
            ServiceArrival(time_s=20.0, service_id="n", model="resnet-50",
                           request_rate=300.0, slo_latency_ms=300.0),
            RateEpoch(time_s=30.0, service_id="b", rate=5000.0),
        ]
        fast, naive = run_identity_checked(
            services, timeline, horizon_s=60.0, profiles=profiles,
            full_replan_fraction=replan_fraction,
        )
        for report in (fast, naive):
            step = report.intervals[2]
            assert step.skipped == len(refused)
            assert step.path == ("full" if replan_fraction < 1 else
                                 "incremental")
            assert step.services == 4
            assert [r.skipped for r in report.intervals] == [0, 0, 3, 0]
        ctrl = controller(profiles, full_replan_fraction=replan_fraction)
        ctrl.begin(services, horizon_s=60.0)
        ctrl.step(0.0)
        before = ctrl.manager.current
        record = ctrl.step(20.0, refused)
        assert record.skipped == len(refused)
        assert ctrl.manager.current is before
        assert [s.id for s in ctrl._run.work] == ["a", "b", "c"]
        assert ctrl._run.by_id["b"].slo_latency_ms == 150
        ctrl.finish()

    def test_churn_burst_triggers_full_replan(self, profiles, services):
        timeline = [
            ServiceArrival(time_s=30.0, service_id=f"new-{i}",
                           model="mobilenetv2", request_rate=300.0,
                           slo_latency_ms=200.0)
            for i in range(4)
        ]
        ctrl = controller(profiles, full_replan_fraction=0.5)
        report = ctrl.run(services, timeline, horizon_s=60.0)
        # 4 arrivals > 0.5 * 3 services: the delta demands a re-schedule
        assert report.intervals[1].path == "full"
        assert report.intervals[1].services == 7

    def test_slo_renegotiation_replans_one_service(self, profiles, services):
        timeline = [SloChange(time_s=40.0, service_id="b", slo_latency_ms=400.0)]
        ctrl = controller(profiles)
        report = ctrl.run(services, timeline, horizon_s=80.0)
        step = report.intervals[1]
        assert step.path == "incremental"
        # a/c keep serving through b's renegotiation
        assert step.max_downtime_s >= 0.0
        assert ctrl.manager.current.total_capacity("b") >= 4000 * (1 - 1e-9)


def churn(t, arrivals, departures):
    return [
        ServiceArrival(time_s=t, service_id=f"new-{i}", model="mobilenetv2",
                       request_rate=300.0, slo_latency_ms=200.0)
        for i in range(arrivals)
    ] + [
        ServiceDeparture(time_s=t, service_id=sid)
        for sid in "abcd"[:departures]
    ]


#: case -> (step instant, batch, full re-plan?); four services and
#: full_replan_fraction=0.5 put the threshold at 2 structural events
REPLAN_CASES = {
    "bootstrap": (0.0, [], True),
    "bootstrap-with-arrival": (0.0, churn(0.0, 1, 0), True),
    "below-threshold": (10.0, churn(10.0, 1, 0), False),
    "at-threshold": (10.0, churn(10.0, 1, 1) + [
        RateEpoch(time_s=10.0, service_id="c", rate=3000.0),
        SloChange(time_s=10.0, service_id="d", slo_latency_ms=500.0),
    ], False),
    "above-threshold": (10.0, churn(10.0, 2, 1), True),
    "gpu-only": (10.0, [GpuFailure(time_s=10.0, event_id="f0", draw=0.3)],
                 False),
}


@pytest.mark.parametrize("case", sorted(REPLAN_CASES))
def test_would_full_replan_is_the_step_path(profiles, services, case):
    """The gateway's predicate is exactly the branch ``step`` takes."""
    t, batch, expected = REPLAN_CASES[case]
    ctrl = controller(profiles, full_replan_fraction=0.5)
    ctrl.begin(services + [
        Service("d", "vgg-16", slo_latency_ms=300, request_rate=500),
    ], horizon_s=60.0)
    if t > 0.0:
        ctrl.step(0.0)
    predicted = ctrl.would_full_replan(batch)
    assert predicted is expected
    assert predicted == (ctrl.step(t, batch).path == "full")
    ctrl.finish()


class TestFailuresAndSpares:
    def test_failure_restores_capacity(self, profiles, services):
        timeline = [GpuFailure(time_s=30.0, event_id="f0", draw=0.0)]
        ctrl = controller(profiles)
        ctrl.run(services, timeline, horizon_s=60.0)
        placement = ctrl.manager.current
        for svc in services:
            assert placement.total_capacity(svc.id) >= svc.request_rate * (
                1 - 1e-9
            )

    def test_recovery_registers_spare(self, profiles, services):
        timeline = [
            GpuFailure(time_s=30.0, event_id="f0", draw=0.0),
            GpuRecovery(time_s=60.0, ref="f0"),
        ]
        ctrl = controller(profiles)
        report = ctrl.run(services, timeline, horizon_s=90.0)
        assert report.intervals[-1].spare_gpus == 1
        assert report.restored_count == 1
        (failure,) = report.failures
        assert failure.time_to_restore_s == 30.0

    def test_wave_preempts_fraction_and_schedules_restores(
        self, profiles, services
    ):
        timeline = [
            SpotPreemptionWave(time_s=30.0, event_id="w0", fraction=0.5,
                               draw=0.3, restore_delay_s=40.0)
        ]
        ctrl = controller(profiles, seed=1)
        report = ctrl.run(services, timeline, horizon_s=120.0)
        preempted = [f for f in report.failures if f.kind == "preemption"]
        assert preempted
        assert all(f.restored_at_s == 70.0 for f in preempted)
        # the controller-scheduled restores created their own interval
        assert any(r.time_s == 70.0 for r in report.intervals)

    def test_failing_a_spare_is_recorded_and_restorable(self, profiles, services):
        """An explicit-id failure hitting a *spare* GPU tears down
        nothing, but is still a recorded loss whose recovery is
        stamped."""
        ctrl = controller(profiles)
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.0),
            GpuRecovery(time_s=20.0, ref="f0"),       # gpu 0 is now a spare
            GpuFailure(time_s=30.0, event_id="f1", gpu_id=0),  # lose the spare
            GpuRecovery(time_s=40.0, ref="f1"),
        ]
        report = ctrl.run(services, timeline, horizon_s=50.0)
        assert report.intervals[-1].skipped == 0
        assert len(report.failures) == 2
        spare_loss = report.failures[1]
        assert spare_loss.gpu_id == 0 and spare_loss.lost_capacity == 0.0
        assert spare_loss.restored_at_s == 40.0
        assert report.restored_count == 2
        assert ctrl.manager.spare_gpus == {0: "mig"}

    def test_failure_on_empty_fleet_is_skipped(self, profiles):
        lone = [Service("a", "resnet-50", slo_latency_ms=250, request_rate=500)]
        timeline = [
            ServiceDeparture(time_s=10.0, service_id="a"),
            GpuFailure(time_s=20.0, event_id="f0", draw=0.5),
        ]
        report = controller(profiles).run(lone, timeline, horizon_s=30.0)
        assert report.intervals[-1].skipped == 1
        assert not report.failures


class TestIdentityAndDeterminism:
    def test_controller_is_reentrant(self, profiles, services):
        """Regression: a second run() on one controller used to continue
        from the first run's final deployment instead of bootstrapping —
        silently non-deterministic results."""
        timeline = [GpuFailure(time_s=20.0, event_id="f0", draw=0.5)]
        ctrl = controller(profiles)
        first = ctrl.run(services, timeline, horizon_s=50.0)
        second = ctrl.run(services, timeline, horizon_s=50.0)
        assert second.intervals[0].path == "full"
        assert [r.fingerprint for r in first.intervals] == [
            r.fingerprint for r in second.intervals
        ]

    def test_two_runs_identical(self, profiles, services):
        timeline = merge_timeline(
            [GpuFailure(time_s=25.0, event_id="f0", draw=0.7)],
            [RateEpoch(time_s=50.0, service_id="a", rate=5000.0)],
            [GpuRecovery(time_s=75.0, ref="f0")],
        )
        runs = [
            controller(profiles).run(
                services, timeline, horizon_s=100.0, measure_s=0.2
            )
            for _ in range(2)
        ]
        a, b = runs
        assert [r.fingerprint for r in a.intervals] == [
            r.fingerprint for r in b.intervals
        ]
        assert [r.sim_fingerprint for r in a.intervals] == [
            r.sim_fingerprint for r in b.intervals
        ]

    def test_fast_vs_naive_replay_identical(self, profiles, services):
        timeline = merge_timeline(
            [GpuFailure(time_s=25.0, event_id="f0", draw=0.2)],
            [RateEpoch(time_s=50.0, service_id="b", rate=9000.0)],
            [ServiceArrival(time_s=60.0, service_id="n", model="resnet-101",
                            request_rate=200.0, slo_latency_ms=300.0)],
            [GpuRecovery(time_s=75.0, ref="f0")],
        )
        fast, naive = run_identity_checked(
            services, timeline, horizon_s=100.0, measure_s=0.2,
            profiles=profiles,
        )
        assert fast.fast_path and not naive.fast_path
        assert [r.fingerprint for r in fast.intervals] == [
            r.fingerprint for r in naive.intervals
        ]

    def test_caller_services_not_mutated(self, profiles, services):
        timeline = [RateEpoch(time_s=10.0, service_id="a", rate=9999.0)]
        before = [(s.id, s.request_rate, s.slo_latency_ms) for s in services]
        controller(profiles).run(services, timeline, horizon_s=20.0)
        assert before == [
            (s.id, s.request_rate, s.slo_latency_ms) for s in services
        ]
        for s in services:
            assert s.opt_tri_array == {}

    def test_measured_compliance_recorded(self, profiles, services):
        report = controller(profiles).run(
            services, (), horizon_s=50.0, measure_s=0.3
        )
        rec = report.intervals[0]
        assert rec.compliance is not None and 0.0 <= rec.compliance <= 1.0
        assert rec.sim_fingerprint
        assert rec.worst_service in {"a", "b", "c"}
        attainment = report.slo_attainment(target=0.0)
        assert set(attainment) == {"a", "b", "c"}
        assert all(v == 1.0 for v in attainment.values())


class TestRetiredIdReservation:
    def test_failed_gpu_id_never_reused_while_down(self, profiles, services):
        """Regression: failing the highest-id GPU then growing the fleet
        used to hand the dead device's id to a fresh GPU, so a later
        restore collided with live capacity."""
        ctrl = controller(profiles)
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.999),  # highest id
            RateEpoch(time_s=20.0, service_id="b", rate=20000.0),  # grow
            GpuRecovery(time_s=30.0, ref="f0"),
            RateEpoch(time_s=40.0, service_id="b", rate=4000.0),
        ]
        report = ctrl.run(services, timeline, horizon_s=60.0)
        assert report.restored_count == 1
        assert report.intervals[-1].skipped == 0

    def test_restored_capacity_visible_to_next_replan(self, profiles, services):
        """After a restore, growth drafts the spare before opening a new
        GPU id — the restored device rejoins the serving fleet."""
        ctrl = controller(profiles)
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.0),
            GpuRecovery(time_s=20.0, ref="f0"),
            RateEpoch(time_s=30.0, service_id="b", rate=30000.0),
        ]
        ctrl.run(services, timeline, horizon_s=60.0)
        assert not ctrl.manager.spare_gpus  # the spare was drafted
        restored_id = 0  # draw=0.0 fails the lowest occupied id
        assert any(
            g.gpu_id == restored_id and not g.is_empty
            for g in ctrl.manager.current.gpus
        )


class TestStepApiOrdering:
    """The re-entrant step API refuses to move time backwards."""

    def test_backwards_instant_raises(self, profiles, services):
        from repro.ops import OutOfOrderEventError

        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0)
        ctrl.step(0.0)
        ctrl.step(50.0)
        with pytest.raises(OutOfOrderEventError, match="non-decreasing"):
            ctrl.step(25.0)
        ctrl.finish()

    def test_same_instant_is_allowed(self, profiles, services):
        """Non-decreasing, not strictly increasing: a live gateway may
        clamp a late event onto the last applied instant."""
        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0)
        ctrl.step(0.0)
        ctrl.step(50.0)
        ctrl.step(50.0, [RateEpoch(time_s=10.0, service_id="a", rate=1.0)])
        report = ctrl.finish()
        assert [r.time_s for r in report.intervals] == [0.0, 50.0, 50.0]

    def test_event_stamped_after_instant_raises(self, profiles, services):
        from repro.ops import OutOfOrderEventError

        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0)
        ctrl.step(0.0)
        future = RateEpoch(time_s=80.0, service_id="a", rate=1.0)
        with pytest.raises(OutOfOrderEventError, match="cannot apply"):
            ctrl.step(50.0, [future])
        ctrl.finish()

    def test_step_beyond_horizon_raises(self, profiles, services):
        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0)
        with pytest.raises(ValueError, match="beyond the horizon"):
            ctrl.step(100.0)
        ctrl.finish()

    @pytest.mark.parametrize(
        "measure_s, warmup_s",
        [
            (float("nan"), 0.1),
            (float("inf"), 0.1),
            (-0.2, 0.1),
            (0.2, -0.5),
            (0.2, float("nan")),
            (0.2, float("inf")),
        ],
        ids=[
            "measure-nan", "measure-inf", "measure-negative",
            "warmup-negative", "warmup-nan", "warmup-inf",
        ],
    )
    def test_begin_refuses_a_window_it_cannot_honour(
        self, profiles, measure_s, warmup_s
    ):
        """A NaN, infinite or negative window fails at ``begin``, not at
        the first step (or, for a negative warmup, by recording
        compliance from zero requests)."""
        ctrl = controller(profiles)
        one = [Service("a", "resnet-50", slo_latency_ms=250, request_rate=500)]
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            ctrl.begin(
                one, horizon_s=100.0, measure_s=measure_s, warmup_s=warmup_s
            )
        # nothing was opened: a valid run can begin on the same controller
        ctrl.begin(one, horizon_s=100.0, measure_s=0.0, warmup_s=0.0)
        ctrl.step(0.0)
        report = ctrl.finish()
        assert report.intervals[0].compliance is None

    @pytest.mark.parametrize(
        "horizon_s", [float("nan"), float("inf"), 0.0, -1.0],
        ids=["nan", "inf", "zero", "negative"],
    )
    def test_begin_refuses_a_horizon_it_cannot_end(self, profiles, horizon_s):
        """A NaN horizon would report NaN GPU-hours and an infinite one
        would run the whole timeline, then report infinite GPU-hours."""
        ctrl = controller(profiles)
        one = [Service("a", "resnet-50", slo_latency_ms=250, request_rate=500)]
        with pytest.raises(ValueError, match="positive and finite"):
            ctrl.begin(one, horizon_s=horizon_s)

    def test_begin_step_finish_matches_run(self, profiles, services):
        """Driving the step API by hand is the run loop, bit for bit."""
        timeline = merge_timeline(
            [GpuFailure(time_s=20.0, event_id="f0", draw=0.3)],
            [RateEpoch(time_s=60.0, service_id="b", rate=8000.0)],
        )
        offline = controller(profiles).run(
            services, timeline, horizon_s=100.0, measure_s=0.2
        )
        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0, measure_s=0.2)
        ctrl.step(0.0)
        ctrl.step(20.0, [timeline[0]])
        ctrl.step(60.0, [timeline[1]])
        manual = ctrl.finish()
        assert manual.to_doc() == offline.to_doc()


class TestLiveAllocatorState:
    """Fast (live state) vs naive (rebuild per delta), edge case by case.

    ``run_identity_checked`` pins every interval's placement fingerprint;
    the fast replay's per-interval check also compares the live state
    with its rebuild GPU for GPU.
    """

    @staticmethod
    def identity(profiles, services, timeline, horizon_s, **kw):
        fast, naive = run_identity_checked(
            services, timeline, horizon_s=horizon_s, profiles=profiles, **kw
        )
        assert [r.reconfig_ops for r in fast.intervals] == [
            r.reconfig_ops for r in naive.intervals
        ]
        return fast, naive

    def test_several_events_at_one_instant(self, profiles, services):
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.2),
            GpuFailure(time_s=20.0, event_id="f1", draw=0.9),
            GpuRecovery(time_s=20.0, ref="f0"),
            SloChange(time_s=20.0, service_id="a", slo_latency_ms=400),
            RateEpoch(time_s=20.0, service_id="b", rate=7000.0),
            ServiceArrival(time_s=20.0, service_id="n", model="vgg-16",
                           request_rate=300.0, slo_latency_ms=400.0),
            ServiceDeparture(time_s=20.0, service_id="c"),
        ]
        fast, _ = self.identity(profiles, services, timeline, 40.0)
        assert sum(fast.intervals[-1].events.values()) == 6

    def test_failing_spare(self, profiles, services):
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.0),
            GpuRecovery(time_s=20.0, ref="f0"),  # gpu 0 is now a spare
            GpuFailure(time_s=30.0, event_id="f1", gpu_id=0),
            RateEpoch(time_s=40.0, service_id="b", rate=30000.0),
            GpuRecovery(time_s=50.0, ref="f1"),
            RateEpoch(time_s=60.0, service_id="b", rate=40000.0),
        ]
        fast, _ = self.identity(profiles, services, timeline, 80.0)
        assert fast.failures[1].lost_capacity == 0.0

    def test_wave_victim_drained_by_earlier_victim(self, profiles):
        """A full wave over a fleet with departure holes: relocating an
        early victim drains a later one, which the wave then skips."""
        fleet = [
            Service("s0", "vgg-16", slo_latency_ms=250, request_rate=300),
            Service("s1", "vgg-16", slo_latency_ms=800, request_rate=3000),
            Service("s2", "vgg-16", slo_latency_ms=150, request_rate=1500),
            Service("s3", "bert-large", slo_latency_ms=800, request_rate=300),
            Service("s4", "resnet-50", slo_latency_ms=250, request_rate=100),
            Service("s5", "resnet-152", slo_latency_ms=800, request_rate=500),
        ]
        timeline = [
            ServiceDeparture(time_s=1.0, service_id="s1"),
            SpotPreemptionWave(time_s=9.0, event_id="w", fraction=1.0,
                               draw=0.74),
        ]
        fast, _ = self.identity(profiles, fleet, timeline, 20.0)
        occupied = fast.intervals[-2].num_gpus  # every one is a victim
        preempted = [f for f in fast.failures if f.kind == "preemption"]
        assert 0 < len(preempted) < occupied

    def test_unknown_recovery_and_departure(self, profiles, services):
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.999),  # top id
            GpuRecovery(time_s=20.0, gpu_id=0),  # live, never failed
            GpuRecovery(time_s=20.0, gpu_id=99),  # never existed
            GpuRecovery(time_s=20.0, ref="nope"),
            ServiceDeparture(time_s=30.0, service_id="ghost"),
            RateEpoch(time_s=40.0, service_id="a", rate=6000.0),
        ]
        fast, _ = self.identity(profiles, services, timeline, 60.0)
        assert [r.skipped for r in fast.intervals] == [0, 0, 3, 1, 0]

    def test_restore_mid_run(self, profiles, services, tmp_path):
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.3),
            RateEpoch(time_s=20.0, service_id="a", rate=6000.0),
            GpuRecovery(time_s=30.0, ref="f0"),
            RateEpoch(time_s=40.0, service_id="b", rate=9000.0),
            GpuFailure(time_s=50.0, event_id="f1", draw=0.6),
        ]
        path = tmp_path / "ckpt.json"
        controller(profiles).run(
            services, timeline, horizon_s=60.0, checkpoint_path=path,
            max_steps=3,
        )
        resumed = controller(profiles).run(
            services, timeline, horizon_s=60.0, resume=path
        )
        naive = controller(profiles, fast_path=False).run(
            services, timeline, horizon_s=60.0
        )
        assert [r.fingerprint for r in resumed.intervals] == [
            r.fingerprint for r in naive.intervals
        ]

    def test_work_counters(self, profiles, services):
        """alloc_* and check_* counters: the check rebuilds the whole
        fleet once (the bootstrap check, from an empty memo) and
        afterwards only the GPUs a delta changed; the live state is
        rebuilt once per deploy, and no check runs build_states."""
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.3),
            RateEpoch(time_s=20.0, service_id="a", rate=6000.0),
            GpuRecovery(time_s=30.0, ref="f0"),
        ]
        ctrl = controller(profiles)
        report = ctrl.run(services, timeline, horizon_s=60.0)
        assert [r.num_gpus for r in report.intervals] == [2, 2, 3, 3]
        stats = ctrl.manager.stats
        # one live-state build; the full reference never ran
        assert (stats.states_rebuilt, stats.gpus_rebuilt) == (1, 2)
        assert stats.gpus_touched == 6
        # compaction stops only at GPUs hosting a compactable segment
        # behind the lowest hole: 2 visits over the two re-plans, 3 moves
        assert (stats.compact_visits, stats.compact_moves) == (2, 3)
        check = ctrl.verifier.stats
        assert check.full_fallbacks == 0
        # 2 bootstrap GPUs, then 2 (failover) + 3 (rate re-plan) changed
        # GPUs; the recovery only turns a retired id into a spare
        assert check.gpus_rebuilt == 2 + 2 + 3 + 0
        assert check.services_rerated == 3 + 3 + 3 + 0
        # lines rendered (cache misses): each changed published plan
        # once; the recovery interval reads every line from its plan's
        # cache
        assert check.lines_rendered == 2 + 2 + 3 + 0
        # on three GPUs every plan hosting a re-rated service changed, so
        # no served rate is compared on a plan verified before
        assert check.rates_compared == 0
        spans = [
            sp.args for sp in ctrl.obs.tracer.spans if sp.name == "check"
        ]
        assert [a["gpus_rebuilt"] for a in spans] == [2, 2, 3, 0]
        assert [a["lines_rendered"] for a in spans] == [2, 2, 3, 0]
        assert [a["full"] for a in spans] == [0, 0, 0, 0]
        assert [a["rates_compared"] for a in spans] == [0, 0, 0, 0]
        scraped = {
            m.name: m for m in ctrl.obs.registry.collect()
            if m.name.startswith(("alloc_", "check_", "sim_memo_"))
        }
        assert sorted(scraped) == [
            "alloc_compact_moves", "alloc_compact_visits",
            "alloc_gpus_rebuilt", "alloc_gpus_touched", "alloc_states_rebuilt",
            "check_full_fallbacks", "check_gpus_rebuilt",
            "check_lines_rendered", "check_live_compared",
            "check_rates_compared", "check_services_rerated",
            "sim_memo_closed_form_total", "sim_memo_hits_total",
            "sim_memo_misses_total",
        ]

    def test_check_compares_only_changed_live_states(self, profiles):
        """On a 100+ GPU fleet, the check of a single-failure interval
        compares element-wise no more live states than the GPUs the
        failure changed — given a new plan or taken out — (the rest are
        the frozen objects it verified last); the reference verifier
        compares the whole fleet."""
        from repro.ops.verify import StateVerifier
        from repro.scenarios.fleet import fleet_services

        ctrl = controller(profiles)
        ctrl.begin(fleet_services(200), horizon_s=100.0)
        ctrl.step(0.0)
        assert ctrl.manager.num_gpus >= 100
        # the first failure builds the live state: all of it is new
        ctrl.step(1.0, [GpuFailure(time_s=1.0, event_id="f0", draw=0.5)])
        for k, draw in enumerate((0.1, 0.7, 0.3)):
            before = {g.gpu_id: g for g in ctrl.manager.current.gpus}
            compared = ctrl.verifier.stats.live_compared
            ctrl.step(2.0 + k, [
                GpuFailure(time_s=2.0 + k, event_id=f"f{k + 1}", draw=draw),
            ])
            after = {g.gpu_id: g for g in ctrl.manager.current.gpus}
            changed = len(before.keys() - after.keys()) + sum(
                before.get(gid) is not plan for gid, plan in after.items()
            )
            assert 0 < ctrl.verifier.stats.live_compared - compared <= changed
        reference = StateVerifier(ctrl.manager, fast_path=False)
        reference.verify(ctrl._run.work)
        live = ctrl.manager.live_states()
        assert reference.stats.live_compared == len(live) > 100
        ctrl.finish()

    def test_rate_replan_reroutes_only_what_moved(self, profiles):
        """A rate re-plan on a 100+ GPU fleet re-routes only the services
        whose segments moved: a co-hosted service keeps its shares, so
        the plans hosting it elsewhere stay the same objects.  The check
        still re-rates it and compares its served rates there by value
        instead of rendering those lines again: it renders exactly one
        line per changed plan (the published one; its round trip is
        compared field by field)."""
        from repro.scenarios.fleet import fleet_services

        fleet = fleet_services(200)
        ctrl = controller(profiles)
        ctrl.begin(fleet, horizon_s=100.0)
        ctrl.step(0.0)
        assert ctrl.manager.num_gpus >= 100
        compared = 0
        for k, svc in enumerate(fleet[:6]):
            ctrl.step(1.0 + k, [RateEpoch(
                time_s=1.0 + k, service_id=svc.id,
                rate=svc.request_rate * 1.7,
            )])
            args = [
                sp.args for sp in ctrl.obs.tracer.spans if sp.name == "check"
            ][-1]
            assert args["full"] == 0
            assert args["lines_rendered"] == args["gpus_rebuilt"]
            compared += args["rates_compared"]
        assert compared > 0
        assert ctrl.verifier.stats.rates_compared == compared
        ctrl.finish()

    def test_quiet_interval_costs_nothing_per_plan(self, profiles):
        """On a 100+ GPU fleet, an interval without events resolves no
        plan, re-aggregates no service and compares no position of the
        check's lists element-wise; the bootstrap interval did all of
        it."""
        from repro.scenarios.fleet import fleet_services

        fleet = fleet_services(200)
        ctrl = controller(profiles)
        ctrl.begin(fleet, horizon_s=100.0, measure_s=0.1, warmup_s=0.05)
        ctrl.step(0.0)
        ctrl.step(1.0, [GpuFailure(time_s=1.0, event_id="f0", draw=0.5)])
        ctrl.step(2.0)
        ctrl.finish()
        gpus = ctrl.manager.num_gpus
        assert gpus >= 100
        measure = [sp.args for sp in ctrl.obs.tracer.spans
                   if sp.name == "measure"]
        check = [sp.args for sp in ctrl.obs.tracer.spans
                 if sp.name == "check"]
        boot, _, quiet = measure
        assert boot["plans_resolved"] >= 100 and boot["plans_reused"] == 0
        assert boot["services_reaggregated"] == len(fleet)
        assert quiet["plans_resolved"] == 0
        assert quiet["services_reaggregated"] == 0
        assert quiet["plans_reused"] == gpus
        assert quiet["memo_hits"] == quiet["segments"]
        assert check[0]["full"] == 0 and check[0]["positions_compared"] > 0
        assert check[2]["full"] == 0
        assert check[2]["positions_compared"] == 0
        assert check[2]["gpus_rebuilt"] == check[2]["lines_rendered"] == 0

    def test_per_service_maps_are_per_interval(self, profiles, services):
        """Each measured interval records its own per-service map: the
        measurement layer keeps one across intervals and hands out
        copies, so editing one record moves no other."""
        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=60.0, measure_s=0.1)
        first, second = ctrl.step(0.0), ctrl.step(1.0)
        third = ctrl.step(2.0)
        ctrl.finish()
        maps = [r.per_service_compliance for r in (first, second, third)]
        assert len({id(m) for m in maps}) == 3
        assert maps[0] == maps[1] == maps[2]
        assert list(maps[1]) == ["a", "b", "c"]
        maps[0]["a"] = -1.0
        assert maps[1]["a"] == maps[2]["a"] != -1.0

    def test_step_metrics_fold_in_at_collect(self, profiles, services):
        """Steps queue their ``ops_*`` updates; a collect folds each
        closed step in exactly once, in step order."""
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.3),
            RateEpoch(time_s=20.0, service_id="a", rate=6000.0),
            RateEpoch(time_s=20.0, service_id="b", rate=3000.0),
        ]
        ctrl = controller(profiles)
        report = ctrl.run(services, timeline, horizon_s=60.0)

        def scrape():
            return {
                m.name: m for m in ctrl.obs.registry.collect()
                if m.name.startswith("ops_")
            }

        first = scrape()
        assert first["ops_intervals_total"].samples() == [((), 3.0)]
        assert first["ops_events_applied_total"].samples() == [
            (("GpuFailure",), 1.0), (("RateEpoch",), 2.0),
        ]
        assert first["ops_replans_total"].samples() == [
            (("full",), 1.0), (("incremental",), 2.0),
        ]
        assert first["ops_failures_total"].samples() == [
            ((), float(len(report.failures))),
        ]
        last = report.intervals[-1]
        assert first["ops_fleet_gpus"].samples() == [((), last.num_gpus)]
        assert first["ops_fleet_services"].samples() == [
            ((), float(len(services))),
        ]
        # apply/check/fingerprint/interval once per step (no measurement)
        assert first["ops_stage_wall_seconds"].samples() == [
            ((stage,), 3.0)
            for stage in ("apply", "check", "fingerprint", "interval")
        ]
        second = scrape()
        assert {k: m.samples() for k, m in second.items()} == {
            k: m.samples() for k, m in first.items()
        }

    def test_check_catches_live_state_divergence(self, profiles, services):
        """The per-interval check compares the live state with its
        rebuild even when the published placement is intact.  Committed
        states are frozen, so the divergence is a write through
        ``writable`` that no commit published."""
        from repro.ops import OpsIdentityError

        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0)
        ctrl.step(0.0)
        ctrl.step(10.0, [GpuFailure(time_s=10.0, event_id="f0", draw=0.0)])
        fleet = ctrl.manager.live_state().fleet
        key = fleet.live_keys()[0]
        mi300x = get_geometry("mi300x")
        with pytest.raises(AttributeError, match="frozen"):
            fleet[key].geometry = mi300x
        fleet.index.writable(key).geometry = mi300x
        with pytest.raises(OpsIdentityError, match="live allocator state"):
            ctrl.step(20.0)
        ctrl.finish()

    @pytest.mark.parametrize("which", ["spare", "retired"])
    def test_check_catches_ledger_divergence(self, profiles, services, which):
        """The spares after the live GPUs are checked too: a spare state
        that no longer matches the manager's spare ledger, or a retired
        id the fleet holds again, fails the check though the placement
        is intact."""
        from repro.ops import OpsIdentityError

        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0)
        ctrl.step(0.0)
        ctrl.step(10.0, [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.0),
            GpuFailure(time_s=10.0, event_id="f1", draw=0.0),
        ])
        ctrl.step(20.0, [GpuRecovery(time_s=20.0, ref="f0")])
        ctrl.step(30.0)  # verified with one spare and one retired id
        manager = ctrl.manager
        fleet = manager.live_state().fleet
        if which == "spare":
            (gid,) = manager.spare_gpus
            state = fleet.index.writable(fleet.key_of(gid))
            state.geometry = get_geometry("mi300x")
        else:  # a retired id back in the fleet behind the ledger's back
            ((gid, name),) = manager.retired_gpus.items()
            fleet.add_spare(gid, name)
        with pytest.raises(OpsIdentityError, match="live allocator state"):
            ctrl.step(40.0)
        ctrl.finish()

    def _failed_over(self, profiles, services):
        """A controller one failover past its bootstrap."""
        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0)
        ctrl.step(0.0)
        ctrl.step(10.0, [GpuFailure(time_s=10.0, event_id="f0", draw=0.0)])
        return ctrl

    def test_check_catches_unrated_work_rate(self, profiles, services):
        """A rate changed in the run's services without re-rating the
        map: the round trip routes the new rate and no longer matches."""
        from repro.ops import OpsIdentityError

        ctrl = self._failed_over(profiles, services)
        ctrl._run.work[0].request_rate *= 2.0
        with pytest.raises(OpsIdentityError, match="round trip"):
            ctrl.step(20.0)
        ctrl.finish()

    def test_check_catches_rewritten_served_rate(self, profiles, services):
        """A published plan replaced by one whose first segment carries
        another served rate, on a GPU no delta of the interval touches.
        Plans are immutable, so the old in-place rewrite raises."""
        from repro.core.placement import GPUPlan
        from repro.ops import OpsIdentityError

        ctrl = self._failed_over(profiles, services)
        gpus = ctrl.manager.current.gpus
        plan = gpus[-1]
        seg = plan.segments[0]
        rewritten = seg.with_served_rate(seg.served_rate + 1.0)
        with pytest.raises(TypeError):
            plan.segments[0] = rewritten
        gpus[-1] = GPUPlan(
            plan.gpu_id, (rewritten,) + plan.segments[1:], plan.geometry
        )
        with pytest.raises(OpsIdentityError, match="round trip"):
            ctrl.step(20.0)
        ctrl.finish()

    def test_check_catches_cluster_divergence(self, profiles, services):
        """One cluster instance destroyed behind the manager's back."""
        from repro.ops import OpsIdentityError

        ctrl = self._failed_over(profiles, services)
        gpu, inst = next(iter(ctrl.manager.cluster.instances()))
        gpu.destroy_instance(inst)
        with pytest.raises(OpsIdentityError, match="do not mirror"):
            ctrl.step(20.0)
        ctrl.finish()


@pytest.mark.parametrize("field, published, round_trip", [
    ("sm_activity", 0.0, -0.0),
    ("capacity", 500.0, 500),
    ("batch_size", 8, 8.0),
])
def test_round_trip_compare_is_as_strict_as_the_line(
    field, published, round_trip
):
    """The incremental check compares a changed GPU's round trip with
    its published plan field by field instead of rendering both lines:
    a field equal by ``==`` but rendered otherwise by the line (-0.0 and
    0.0 by ``%r``, 500 and 500.0 by ``%r``, 8 and 8.0 by ``%s``) still
    fails the round trip, and an equal copy passes."""
    from repro.core.placement import GPUPlan, PlacedSegment
    from repro.ops import OpsIdentityError
    from repro.ops.verify import StateVerifier

    def segment(**fields):
        base = dict(
            service_id="a", model="resnet-50", kind="mig", gpcs=2.0,
            batch_size=8, num_processes=1, capacity=500.0, latency_ms=25.0,
            sm_activity=0.5, start=0, served_rate=100.0, geometry="mig",
        )
        base.update(fields)
        # tuple.__new__, as with_served_rate does: no validation
        return tuple.__new__(PlacedSegment, tuple(base.values()))

    pub = GPUPlan(0, (segment(**{field: published}),))

    def check(plan):
        return StateVerifier._check_rates(
            {0: plan}, {0: pub}, {0: 0}, {"a": {0}}, ["a"], {"a": 100.0}
        )

    assert check(GPUPlan(0, (segment(**{field: published}),))) == 0
    with pytest.raises(OpsIdentityError, match="round trip"):
        check(GPUPlan(0, (segment(**{field: round_trip}),)))
