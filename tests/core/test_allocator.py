"""Unit tests for Algorithm 2: Segment Relocation + Allocation Optimization."""

import pytest

from repro.core.allocator import (
    OPTIMIZATION_GPC_THRESHOLD,
    SegmentAllocator,
    _GPUState,
)
from repro.core.configurator import SegmentConfigurator
from repro.core.segments import Segment
from repro.gpu.mig import MIG_GEOMETRY
from repro.metrics import external_fragmentation


def seg(size, sid="svc", tp=100.0, model="resnet-50"):
    return Segment(
        service_id=sid,
        model=model,
        instance_size=size,
        batch_size=8,
        num_processes=1,
        throughput=tp,
        latency_ms=10.0,
        sm_activity=0.9,
    )


def configured(profiles, make_service, **kwargs):
    svc = make_service(**kwargs)
    SegmentConfigurator(profiles).configure([svc])
    return svc


class TestSlotRules:
    def test_preference_tables_match_paper(self):
        preferences = MIG_GEOMETRY.slot_preferences
        fallbacks = MIG_GEOMETRY.slot_fallbacks
        assert preferences[7] == (0,)
        assert preferences[4] == (0,)
        assert preferences[3] == (4,)  # "priority to slot 4"
        assert preferences[2] == (0, 2)  # "preferably slots 0 or 2"
        assert preferences[1] == (0, 1, 2, 3)  # "initially 0-3"
        assert fallbacks[3] == ()  # never block slice 3
        assert fallbacks[2] == (4, 5)
        assert fallbacks[1] == (4, 5, 6)

    def test_gpustate_prefers_slot4_for_threes(self):
        state = _GPUState(gpu_id=0)
        assert state.try_place(seg(3)) == 4

    def test_gpustate_fallback(self):
        state = _GPUState(gpu_id=0)
        state.try_place(seg(4))  # occupies 0-3
        assert state.try_place(seg(2)) is None  # slots 0/2 taken
        assert state.try_place(seg(2), fallback=True) == 4

    def test_ones_fill_lower_half_first(self):
        state = _GPUState(gpu_id=0)
        starts = [state.try_place(seg(1)) for _ in range(4)]
        assert starts == [0, 1, 2, 3]
        assert state.try_place(seg(1)) is None
        assert state.try_place(seg(1), fallback=True) == 4


class TestSegmentRelocation:
    def test_descending_size_order(self, profiles, make_service):
        """A size-7 segment always lands on its own (first-fit) GPU."""
        svc_big = configured(profiles, make_service, sid="big", model="vgg-19",
                             slo=180.0, rate=2000.0)
        svc_small = configured(profiles, make_service, sid="small",
                               model="mobilenetv2", slo=100.0, rate=500.0)
        allocator = SegmentAllocator(optimize=False)
        placement = allocator.allocate([svc_small, svc_big])
        placement.validate()

    def test_placement_is_legal_mig(self, profiles, make_service):
        services = [
            configured(profiles, make_service, sid=f"s{i}", model=m,
                       slo=250.0, rate=800.0 * (i + 1))
            for i, m in enumerate(
                ["resnet-50", "vgg-16", "densenet-121", "inceptionv3"]
            )
        ]
        placement = SegmentAllocator(optimize=False).allocate(services)
        placement.validate()  # raises on any illegal layout

    def test_all_segments_placed(self, profiles, make_service):
        services = [
            configured(profiles, make_service, sid=f"s{i}", rate=1500.0)
            for i in range(3)
        ]
        placement = SegmentAllocator(optimize=False).allocate(services)
        placed = len(list(placement.iter_segments()))
        expected = sum(len(s.segments()) for s in services)
        assert placed == expected

    def test_first_fit_reuses_gpus(self, profiles, make_service):
        svc = configured(profiles, make_service, rate=200.0)
        placement = SegmentAllocator(optimize=False).allocate([svc])
        assert placement.num_gpus == 1


class TestAllocationOptimization:
    def test_threshold_default_is_four(self):
        assert OPTIMIZATION_GPC_THRESHOLD == 4

    def test_optimization_never_uses_more_gpus(self, profiles, make_service):
        for rate in (500.0, 2500.0, 8000.0):
            services = [
                configured(profiles, make_service, sid=f"s{i}-{rate}",
                           model=m, slo=300.0, rate=rate)
                for i, m in enumerate(["resnet-50", "vgg-16", "inceptionv3"])
            ]
            unopt = SegmentAllocator(optimize=False).allocate(services)
            services2 = [
                configured(profiles, make_service, sid=f"t{i}-{rate}",
                           model=m, slo=300.0, rate=rate)
                for i, m in enumerate(["resnet-50", "vgg-16", "inceptionv3"])
            ]
            opt = SegmentAllocator(optimize=True).allocate(services2)
            assert opt.num_gpus <= unopt.num_gpus

    def test_hosted_service_missing_from_argument(self, profiles, make_service):
        """A placed service absent from ``services`` must be a named
        ValueError, not a bare KeyError mid-optimization (reachable from
        the SLO-update and failover incremental paths).  The guard fires
        where the drain pass looks the service up, so the ghost sits
        alone on a light GPU."""
        import pytest

        svc = configured(profiles, make_service, sid="present", rate=4000.0)
        ghost = configured(profiles, make_service, sid="ghost", rate=500.0)
        allocator = SegmentAllocator(optimize=True)
        gpus = allocator.segment_relocation([ghost])
        with pytest.raises(ValueError, match="ghost"):
            allocator.allocation_optimization(gpus, [svc])

    @pytest.mark.parametrize("indexed", [True, False])
    def test_drained_service_missing_from_argument_is_named(
        self, profiles, make_service, indexed
    ):
        """The drain pass looks up every service on a light GPU; one
        missing from ``services`` raises the named ValueError, with every
        missing name, on the slot index and on the naive scan alike."""
        svc = configured(profiles, make_service, sid="present", rate=4000.0)
        ghosts = [
            configured(profiles, make_service, sid=sid, rate=100.0)
            for sid in ("ghost-a", "ghost-b")
        ]
        allocator = SegmentAllocator(optimize=True, indexed=indexed)
        gpus = allocator.segment_relocation(ghosts)  # one light GPU
        with pytest.raises(
            ValueError,
            match="placement hosts services missing from the `services` "
            "argument: ghost-a, ghost-b",
        ):
            allocator.allocation_optimization(gpus, [svc])

    def test_optimization_preserves_capacity(self, profiles, make_service):
        svc = configured(profiles, make_service, rate=4000.0)
        placement = SegmentAllocator(optimize=True).allocate([svc])
        assert placement.total_capacity(svc.id) >= 4000.0 * (1 - 1e-9)

    def test_optimized_placement_legal(self, profiles, make_service):
        services = [
            configured(profiles, make_service, sid=f"s{i}", model=m,
                       slo=160.0, rate=3000.0)
            for i, m in enumerate(
                ["resnet-50", "densenet-169", "mobilenetv2", "vgg-16",
                 "resnet-101"]
            )
        ]
        placement = SegmentAllocator(optimize=True).allocate(services)
        placement.validate()

    def test_optimization_reduces_fragmentation(self, profiles, make_service):
        """On mixes where relocation strands a fragmented GPU, optimization
        must not make fragmentation worse."""
        services = [
            configured(profiles, make_service, sid=f"s{i}", model=m,
                       slo=140.0, rate=1200.0)
            for i, m in enumerate(
                ["densenet-201", "resnet-152", "vgg-19", "densenet-169"]
            )
        ]
        unopt = SegmentAllocator(optimize=False).allocate(services)
        services2 = [
            configured(profiles, make_service, sid=f"t{i}", model=m,
                       slo=140.0, rate=1200.0)
            for i, m in enumerate(
                ["densenet-201", "resnet-152", "vgg-19", "densenet-169"]
            )
        ]
        opt = SegmentAllocator(optimize=True).allocate(services2)
        assert external_fragmentation(opt) <= external_fragmentation(unopt) + 1e-9

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            SegmentAllocator(threshold=-1)


class TestSmallSegments:
    def test_small_segments_cover_amount(self, profiles, make_service):
        svc = configured(profiles, make_service, rate=900.0)
        smalls = SegmentAllocator._small_segments(svc, 450.0)
        assert sum(s.throughput for s in smalls) >= 450.0
        assert all(s.instance_size <= 2 for s in smalls)

    def test_small_segments_zero_amount(self, profiles, make_service):
        svc = configured(profiles, make_service, rate=900.0)
        assert SegmentAllocator._small_segments(svc, 0.0) == []
        assert SegmentAllocator._small_segments(svc, -5.0) == []

    def test_small_segments_minimal_tail(self, profiles, make_service):
        """The final chunk uses the smallest triplet that still covers."""
        svc = configured(profiles, make_service, rate=900.0)
        tiny = SegmentAllocator._small_segments(svc, 1.0)
        assert len(tiny) == 1
