"""Fast-path simulation kernel vs the event-driven reference engine."""

import numpy as np
import pytest

from repro.core.placement import PlacedSegment, Placement
from repro.core.service import Service
from repro.sim import simulate_placement, simulate_placement_fast
from repro.sim.fastpath import (
    _SegmentKernel,
    _simulate_segment,
    _simulate_segment_vectorized,
)


def one_segment(
    capacity=500.0,
    served=400.0,
    batch=8,
    procs=2,
    lat=25.0,
    kind="mig",
    geometry="mig",
    gpcs=2.0,
):
    p = Placement(framework="toy")
    p.add(
        0,
        PlacedSegment(
            service_id="svc",
            model="resnet-50",
            kind=kind,
            gpcs=gpcs,
            batch_size=batch,
            num_processes=procs,
            capacity=capacity,
            latency_ms=lat,
            sm_activity=0.9,
            start=0,
            served_rate=served,
            geometry=geometry,
        ),
    )
    return p


def service(slo=300.0, rate=400.0):
    return Service("svc", "resnet-50", slo_latency_ms=slo, request_rate=rate)


def both(placement, services, **kw):
    fast = simulate_placement(placement, services, fast_path=True, **kw)
    ref = simulate_placement(placement, services, fast_path=False, **kw)
    return fast, ref


def assert_identical(fast, ref):
    assert fast.fingerprint() == ref.fingerprint()
    assert fast.close_to(ref)


class TestIdentity:
    """The fast path replicates the reference decision-for-decision."""

    @pytest.mark.parametrize("arrivals", ["uniform", "poisson"])
    @pytest.mark.parametrize("load", [0.3, 0.95, 2.0])
    def test_regimes(self, arrivals, load):
        p = one_segment(served=500.0 * load)
        fast, ref = both(p, [service(rate=500.0 * load)], arrivals=arrivals)
        assert_identical(fast, ref)

    def test_warmup_boundary(self):
        # A warmup cutting through mid-stream batches: stats must gate on
        # dispatch time identically in both engines.
        p = one_segment(served=430.0, batch=16)
        fast, ref = both(p, [service(rate=430.0)], duration_s=1.0, warmup_s=0.33)
        assert_identical(fast, ref)

    def test_zero_flush_budget(self):
        # SLO below exec + safety: flush_wait collapses to 0 and every
        # arrival dispatches immediately.
        p = one_segment(served=300.0, batch=8, lat=25.0)
        fast, ref = both(p, [service(slo=10.0, rate=300.0)])
        assert_identical(fast, ref)
        assert ref.overall_compliance < 1.0

    def test_sub_batch_traffic(self):
        # Fewer requests than one batch: a single flush-forced tail.
        p = one_segment(served=3.0, batch=64)
        fast, ref = both(p, [service(rate=3.0)])
        assert_identical(fast, ref)
        assert fast.services["svc"].requests > 0

    def test_zero_rate_segment(self):
        p = one_segment(served=0.0)
        fast, ref = both(p, [service(rate=1.0)])
        assert_identical(fast, ref)
        assert fast.segment_activity == ref.segment_activity == {
            "gpu0/svc/0": 0.0
        }

    def test_mi300x_geometry(self):
        p = one_segment(served=600.0, kind="xcd", geometry="mi300x", gpcs=1.0)
        fast, ref = both(p, [service(rate=600.0)])
        assert_identical(fast, ref)

    def test_multi_service_mixed_fleet(self):
        p = Placement(framework="toy")
        p.add(
            0,
            PlacedSegment(
                service_id="a", model="resnet-50", kind="mig", gpcs=2.0,
                batch_size=8, num_processes=2, capacity=500.0,
                latency_ms=25.0, sm_activity=0.9, start=0, served_rate=420.0,
            ),
        )
        p.add(
            1,
            PlacedSegment(
                service_id="b", model="vgg-16", kind="xcd", gpcs=2.0,
                batch_size=4, num_processes=1, capacity=300.0,
                latency_ms=40.0, sm_activity=0.9, start=0, served_rate=280.0,
                geometry="mi300x",
            ),
        )
        svcs = [
            Service("a", "resnet-50", slo_latency_ms=200, request_rate=420),
            Service("b", "vgg-16", slo_latency_ms=350, request_rate=280),
        ]
        fast, ref = both(p, svcs, arrivals="poisson", seed=7)
        assert_identical(fast, ref)

    def test_default_engine_is_fast(self):
        p = one_segment()
        default = simulate_placement(p, [service()])
        fast = simulate_placement_fast(p, [service()])
        assert default.fingerprint() == fast.fingerprint()


class TestValidation:
    def test_bad_duration(self):
        with pytest.raises(ValueError):
            simulate_placement_fast(
                one_segment(), [service()], duration_s=0.2, warmup_s=0.5
            )

    def test_unknown_service(self):
        other = Service("x", "vgg-16", slo_latency_ms=100, request_rate=10)
        with pytest.raises(ValueError):
            simulate_placement_fast(one_segment(), [other])

    def test_unknown_arrivals(self):
        with pytest.raises(ValueError):
            simulate_placement_fast(
                one_segment(), [service()], arrivals="bursty"
            )


class TestVectorizedPath:
    """The numpy closed form agrees with the scalar kernel where it applies."""

    def kernel(self, batch=8, procs=1, served=400.0):
        seg = one_segment(
            served=served, batch=batch, procs=procs
        ).gpus[0].segments[0]
        return _SegmentKernel.from_segment(seg, 300.0)

    def test_vectorizes_uniform_unsaturated(self):
        from repro.sim.arrivals import uniform_arrivals

        # (procs, rate): one process never overlaps; two and three MPS
        # processes pipeline batches (a batch dispatches while the last
        # one still runs) without ever running out of processes.
        for procs, rate in ((1, 200.0), (2, 500.0), (3, 800.0)):
            kernel = self.kernel(batch=8, procs=procs, served=rate)
            times = uniform_arrivals(rate, 2.0)
            fills = times[7::8]
            overlap = fills[:-1] + kernel.latency_ms(8, 1) / 1e3 >= fills[1:]
            assert overlap.any() == (procs > 1)
            vec = _simulate_segment_vectorized(kernel, times, 0.5, 3.0)
            assert vec is not None  # the regime applies
            scalar = _simulate_segment(kernel, times, 0.5, 3.0)
            assert (vec.batches, vec.violations, vec.requests, vec.steps) == (
                scalar.batches, scalar.violations, scalar.requests,
                scalar.steps,
            )
            assert vec.latency_max_ms == scalar.latency_max_ms
            assert vec.latency_sum_ms == pytest.approx(
                scalar.latency_sum_ms, rel=1e-12
            )
            assert vec.busy_sm_s == pytest.approx(scalar.busy_sm_s, rel=1e-12)

    def test_declines_saturated(self):
        from repro.sim.arrivals import uniform_arrivals

        # Fills arrive faster than `procs` batches complete: some fill
        # finds every process busy, which only the per-batch kernel models.
        for procs, rate in ((1, 1500.0), (2, 1000.0), (3, 1000.0)):
            kernel = self.kernel(batch=8, procs=procs, served=rate)
            times = uniform_arrivals(rate, 1.0)
            vec = _simulate_segment_vectorized(kernel, times, 0.25, 2.0)
            assert vec is None

    def test_empty_arrivals(self):
        kernel = self.kernel()
        res = _simulate_segment_vectorized(
            kernel, np.empty(0, dtype=np.float64), 0.5, 3.0
        )
        assert res is not None and res.batches == 0


class TestReportFingerprint:
    def test_detects_integer_divergence(self):
        p = one_segment()
        a = simulate_placement(p, [service()])
        b = simulate_placement(p, [service()])
        assert a.fingerprint() == b.fingerprint()
        b.services["svc"].violations += 1
        assert a.fingerprint() != b.fingerprint()

    def test_close_to_tolerates_ulps_only(self):
        p = one_segment()
        a = simulate_placement(p, [service()])
        b = simulate_placement(p, [service()])
        b.services["svc"].latency_sum_ms *= 1.0 + 1e-13
        assert a.close_to(b)
        b.services["svc"].latency_sum_ms *= 1.0 + 1e-6
        assert not a.close_to(b)
