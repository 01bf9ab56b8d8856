"""Fast-path simulation kernel vs the event-driven reference engine."""

import numpy as np
import pytest

from repro.core.placement import PlacedSegment, Placement
from repro.core.service import Service
from repro.sim import simulate_placement, simulate_placement_fast
from repro.sim.arrivals import uniform_arrivals
from repro.sim.fastpath import (
    _arrival_counts,
    _closed_form,
    _resolve_rows,
    _SegmentKernel,
    _simulate_segment,
    SegmentMemo,
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


def solve(misses, duration_s, warmup_s, until):
    """One call of the closed form, as ``_resolve_rows`` makes it."""
    counts = _arrival_counts(misses, duration_s)
    return _closed_form(misses, counts, warmup_s, until)


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
    """The batched numpy closed form agrees with the scalar kernel where
    it applies."""

    def kernel(self, batch=8, procs=1):
        return _SegmentKernel("resnet-50", 2.0, batch, procs, 25.0, 300.0, 42)

    def test_vectorizes_uniform_unsaturated(self):
        # (procs, rate): one process never overlaps; two and three MPS
        # processes pipeline batches (a batch dispatches while the last
        # one still runs) without ever running out of processes.  All
        # three are solved in one call.
        misses = []
        for procs, rate in ((1, 200.0), (2, 500.0), (3, 800.0)):
            kernel = self.kernel(batch=8, procs=procs)
            times = uniform_arrivals(rate, 2.0)
            fills = times[7::8]
            overlap = fills[:-1] + kernel.exec_s[0] >= fills[1:]
            assert overlap.any() == (procs > 1)
            misses.append((kernel, rate, None))
        rows = solve(misses, 2.0, 0.5, 3.0)
        for (kernel, rate, _), vec in zip(misses, rows):
            assert vec is not None  # the regime applies
            scalar = _simulate_segment(
                kernel, uniform_arrivals(rate, 2.0), 0.5, 3.0
            ).row()
            assert vec[:3] == scalar[:3] and vec[6] == scalar[6]
            assert vec[4] == scalar[4]
            assert vec[3] == pytest.approx(scalar[3], rel=1e-12)
            assert vec[5] == pytest.approx(scalar[5], rel=1e-12)

    def test_declines_saturated(self):
        # Fills arrive faster than `procs` batches complete: some fill
        # finds every process busy, which only the per-batch kernel models.
        misses = [
            (self.kernel(batch=8, procs=procs), rate, None)
            for procs, rate in ((1, 1500.0), (2, 1000.0), (3, 1000.0))
        ]
        assert solve(misses, 1.0, 0.25, 2.0) == [None, None, None]

    def test_empty_arrivals(self):
        rows = solve(
            [(self.kernel(), 0.0, np.empty(0, dtype=np.float64)),
             (self.kernel(), 0.0, None)],
            2.0, 0.5, 3.0,
        )
        assert rows == [(0, 0, 0, 0.0, 0.0, 0.0, 0)] * 2

    def test_memo_counts_each_miss_once(self):
        # A signature repeated within one call is a miss per occurrence,
        # and the closed form's count is per occurrence too; the next
        # call hits.
        seg = one_segment(served=500.0).gpus[0].segments[0]
        memo = SegmentMemo()
        runs = [(seg, 300.0, 42, None), (seg, 300.0, 42, None)]
        rows = _resolve_rows(runs, "uniform", 2.0, 0.5, memo)
        assert rows[0] == rows[1]
        assert (memo.misses_total, memo.closed_form_total) == (2, 2)
        assert _resolve_rows(runs, "uniform", 2.0, 0.5, memo) == rows
        assert (memo.hits_total, memo.misses_total) == (2, 2)

    def test_small_calls_skip_the_pass(self):
        # Misses holding fewer full batches than the pass's threshold run
        # on the per-batch kernel; the same segment in a larger call is
        # solved by the closed form, with the same exact fields.
        from repro.sim.fastpath import _PASS_MIN_BATCHES

        short = one_segment(served=100.0).gpus[0].segments[0]
        run = (short, 300.0, 42, None)
        memo = SegmentMemo()
        (alone,) = _resolve_rows([run], "uniform", 1.0, 0.25, memo)
        assert 0 < alone[0] < _PASS_MIN_BATCHES
        assert memo.closed_form_total == 0
        kernel = _SegmentKernel("resnet-50", 2.0, 8, 2, 25.0, 300.0, 42)
        times = uniform_arrivals(100.0, 1.0)
        assert alone == _simulate_segment(kernel, times, 0.25, 2.0).row()
        many = [
            (one_segment(served=100.0 + i).gpus[0].segments[0], 300.0, 42,
             None)
            for i in range(_PASS_MIN_BATCHES // alone[0] + 1)
        ] + [run]
        memo = SegmentMemo()
        together = _resolve_rows(many, "uniform", 1.0, 0.25, memo)
        assert memo.closed_form_total == len(many)
        assert together[-1][:3] == alone[:3]
        assert together[-1][4] == alone[4] and together[-1][6] == alone[6]


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
