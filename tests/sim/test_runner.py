"""Integration tests for the simulation runner."""

import pytest

from repro.core.parvagpu import ParvaGPU
from repro.core.placement import PlacedSegment, Placement
from repro.core.service import Service
from repro.sim import measure_interval, simulate_placement
from repro.sim.fastpath import PlanMemo


def toy_placement(capacity=500.0, served=400.0, batch=8, procs=2, lat=20.0):
    p = Placement(framework="toy")
    p.add(
        0,
        PlacedSegment(
            service_id="svc",
            model="resnet-50",
            kind="mig",
            gpcs=2.0,
            batch_size=batch,
            num_processes=procs,
            capacity=capacity,
            latency_ms=lat,
            sm_activity=0.9,
            start=0,
            served_rate=served,
        ),
    )
    return p


def toy_service(slo=300.0, rate=400.0):
    return Service("svc", "resnet-50", slo_latency_ms=slo, request_rate=rate)


class TestRunner:
    def test_underloaded_segment_meets_slo(self):
        report = simulate_placement(
            toy_placement(), [toy_service()], duration_s=1.5, warmup_s=0.25
        )
        assert report.overall_compliance == 1.0
        assert report.violation_rate == 0.0

    def test_goodput_matches_offered_load(self):
        report = simulate_placement(
            toy_placement(served=400.0), [toy_service()], duration_s=2.0
        )
        assert report.achieved_rate("svc") == pytest.approx(400.0, rel=0.1)

    def test_overloaded_segment_violates(self):
        # Offered 3x capacity: queue grows, batches go late.
        report = simulate_placement(
            toy_placement(capacity=500.0, served=1500.0),
            [toy_service(rate=1500.0)],
            duration_s=2.0,
        )
        assert report.overall_compliance < 0.9

    def test_activity_scales_with_load(self):
        lo = simulate_placement(
            toy_placement(served=100.0), [toy_service(rate=100.0)], duration_s=2.0
        )
        hi = simulate_placement(
            toy_placement(served=450.0), [toy_service(rate=450.0)], duration_s=2.0
        )
        (k_lo,) = lo.segment_activity
        assert hi.segment_activity[k_lo] > lo.segment_activity[k_lo]
        assert 0.0 < hi.segment_activity[k_lo] <= 1.0

    def test_poisson_vs_uniform(self):
        uni = simulate_placement(
            toy_placement(), [toy_service()], duration_s=2.0, arrivals="uniform"
        )
        poi = simulate_placement(
            toy_placement(), [toy_service()], duration_s=2.0, arrivals="poisson"
        )
        assert uni.overall_compliance >= poi.overall_compliance

    def test_unknown_arrivals_rejected(self):
        with pytest.raises(ValueError):
            simulate_placement(
                toy_placement(), [toy_service()], arrivals="bursty"
            )

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError):
            simulate_placement(
                toy_placement(), [toy_service()], duration_s=0.2, warmup_s=0.5
            )

    @pytest.mark.parametrize(
        "duration_s, warmup_s",
        [
            (float("nan"), 0.5),
            (float("inf"), 0.5),
            (0.5, 0.5),
            (2.0, float("nan")),
            (2.0, float("inf")),
            (2.0, -0.5),
        ],
        ids=["duration-nan", "duration-inf", "duration-at-warmup",
             "warmup-nan", "warmup-inf", "warmup-negative"],
    )
    def test_every_engine_refuses_a_bad_window(self, duration_s, warmup_s):
        """The event engine, the fast kernel and the per-plan layer share
        one window check: finite duration > finite warmup >= 0."""
        args = (toy_placement(), [toy_service()])
        for fast_path in (True, False):
            with pytest.raises(ValueError, match="finite"):
                simulate_placement(
                    *args, duration_s=duration_s, warmup_s=warmup_s,
                    fast_path=fast_path,
                )
        with pytest.raises(ValueError, match="finite"):
            measure_interval(
                *args, measure_s=duration_s - warmup_s, warmup_s=warmup_s,
                plans=PlanMemo(),
            )

    def test_unknown_service_rejected(self):
        placement = toy_placement()
        other = Service("other", "vgg-16", slo_latency_ms=100, request_rate=10)
        with pytest.raises(ValueError):
            simulate_placement(placement, [other])

    def test_deterministic_given_seed(self):
        a = simulate_placement(
            toy_placement(), [toy_service()], duration_s=1.0, seed=3,
            arrivals="poisson",
        )
        b = simulate_placement(
            toy_placement(), [toy_service()], duration_s=1.0, seed=3,
            arrivals="poisson",
        )
        assert a.overall_compliance == b.overall_compliance
        assert a.segment_activity == b.segment_activity


class TestEndToEnd:
    def test_parvagpu_schedule_serves_cleanly(self, profiles):
        services = [
            Service("img", "inceptionv3", slo_latency_ms=300, request_rate=900),
            Service("cls", "resnet-50", slo_latency_ms=250, request_rate=1200),
        ]
        placement = ParvaGPU(profiles).schedule(services)
        report = simulate_placement(placement, services, duration_s=2.0)
        assert report.overall_compliance == pytest.approx(1.0, abs=0.02)
        for sid in ("img", "cls"):
            svc = next(s for s in services if s.id == sid)
            assert report.achieved_rate(sid) == pytest.approx(
                svc.request_rate, rel=0.15
            )
