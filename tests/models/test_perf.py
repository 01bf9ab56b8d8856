"""Unit tests for the analytic performance model's structural properties."""

import pytest

from repro.gpu.amd import MI300X_GEOMETRY
from repro.gpu.mig import INSTANCE_SIZES, MIG_GEOMETRY
from repro.models.perf import (
    MAX_BATCH,
    PROFILE_BATCH_SIZES,
    PROFILE_PROCESS_COUNTS,
    PerfModel,
)
from repro.models.zoo import get_model, model_names


@pytest.fixture(scope="module")
def perf():
    return PerfModel(get_model("resnet-50"))


class TestGrid:
    def test_profile_grid_shape(self):
        assert PROFILE_BATCH_SIZES == (1, 2, 4, 8, 16, 32, 64, 128)
        assert PROFILE_PROCESS_COUNTS == (1, 2, 3)
        assert MAX_BATCH == 128


class TestComputeAndOverhead:
    def test_compute_scales_down_with_instance(self, perf):
        assert perf.compute_ms(4, 16) < perf.compute_ms(1, 16)

    def test_compute_grows_with_batch(self, perf):
        assert perf.compute_ms(1, 32) > perf.compute_ms(1, 16)

    def test_overhead_grows_with_batch(self, perf):
        assert perf.overhead_ms(64) > perf.overhead_ms(1)

    def test_invalid_inputs(self, perf):
        with pytest.raises(ValueError):
            perf.compute_ms(0, 1)
        with pytest.raises(ValueError):
            perf.compute_ms(1, 0)
        with pytest.raises(ValueError):
            perf.latency_ms(1, 1, 0)


class TestWorkloadCharacteristics:
    """The SIII-B observations that drive the whole design."""

    def test_latency_decreases_with_instance_size(self, perf):
        lats = [perf.latency_ms(g, 16, 1) for g in INSTANCE_SIZES]
        assert lats == sorted(lats, reverse=True)

    def test_latency_increases_with_batch(self, perf):
        for g in (1, 4):
            lats = [perf.latency_ms(g, b, 1) for b in PROFILE_BATCH_SIZES]
            assert lats == sorted(lats)

    def test_latency_nondecreasing_with_procs(self, perf):
        for g in (1, 4):
            for b in (4, 32):
                lats = [perf.latency_ms(g, b, p) for p in (1, 2, 3)]
                assert lats == sorted(lats)

    def test_throughput_saturates_on_small_instance(self, perf):
        """Small instance + big batch: more processes ~ flat throughput but
        much higher latency (the size-1/batch-4 InceptionV3 observation)."""
        tp1 = perf.throughput(1, 32, 1)
        tp3 = perf.throughput(1, 32, 3)
        lat1 = perf.latency_ms(1, 32, 1)
        lat3 = perf.latency_ms(1, 32, 3)
        assert tp3 < tp1 * 1.6  # diminishing returns
        assert lat3 > 2.0 * lat1  # disproportionate latency

    def test_throughput_scales_on_big_instance(self, perf):
        """Big instance + modest batch: processes overlap the overhead."""
        tp1 = perf.throughput(4, 8, 1)
        tp2 = perf.throughput(4, 8, 2)
        lat1 = perf.latency_ms(4, 8, 1)
        lat2 = perf.latency_ms(4, 8, 2)
        assert tp2 > 1.6 * tp1
        assert lat2 < 1.3 * lat1

    def test_sm_activity_bounds(self, perf):
        for g in INSTANCE_SIZES:
            for b in (1, 16, 128):
                for p in (1, 2, 3):
                    assert 0.0 < perf.sm_activity(g, b, p) <= 1.0

    def test_saturated_activity_near_one(self, perf):
        # Three processes on a small instance keep the SMs busy.
        assert perf.sm_activity(1, 32, 3) > 0.9


class TestMemory:
    def test_memory_grows_with_batch_and_procs(self, perf):
        assert perf.memory_gb(32, 1) > perf.memory_gb(1, 1)
        assert perf.memory_gb(8, 3) > perf.memory_gb(8, 1)

    def test_oom_on_small_instance(self):
        bert = PerfModel(get_model("bert-large"))
        # 3 processes of BERT at batch 128 cannot fit 10 GB.
        assert not bert.fits(1, 128, 3)
        assert bert.fits(7, 128, 3)

    def test_sweep_skips_oom(self):
        bert = PerfModel(get_model("bert-large"))
        points = bert.sweep()
        assert all(
            p.memory_gb <= {1: 10, 2: 20, 3: 40, 4: 40, 7: 80}[int(p.instance_size)]
            for p in points
        )
        full = len(INSTANCE_SIZES) * len(PROFILE_BATCH_SIZES) * 3
        assert 0 < len(points) < full


class TestOperatingPoint:
    def test_evaluate_consistency(self, perf):
        pt = perf.evaluate(2, 16, 2)
        assert pt.throughput == pytest.approx(
            1000.0 * 2 * 16 / pt.latency_ms
        )
        assert pt.throughput_per_gpc == pytest.approx(pt.throughput / 2)

    @pytest.mark.parametrize(
        "geometry", [MIG_GEOMETRY, MI300X_GEOMETRY], ids=lambda g: g.name
    )
    def test_evaluate_equals_the_separate_methods(self, geometry):
        """``evaluate`` computes in one pass what the per-quantity methods
        compute separately, bit for bit, over every model's full grid."""
        for name in model_names():
            model = PerfModel(get_model(name), geometry=geometry)
            for size in geometry.instance_sizes:
                gpcs = model.effective_gpcs(size)
                for b in PROFILE_BATCH_SIZES:
                    for p in PROFILE_PROCESS_COUNTS:
                        pt = model.evaluate(size, b, p)
                        assert (
                            pt.latency_ms, pt.throughput, pt.sm_activity,
                            pt.memory_gb,
                        ) == (
                            model.latency_ms(gpcs, b, p),
                            model.throughput(gpcs, b, p),
                            model.sm_activity(gpcs, b, p),
                            model.memory_gb(b, p),
                        ), (name, size, b, p)

    def test_evaluate_rejects_zero_processes(self, perf):
        with pytest.raises(ValueError, match="process count"):
            perf.evaluate(1, 1, 0)

    def test_max_single_gpu_throughput_monotone_in_slo(self, perf):
        loose = perf.max_single_gpu_throughput(500.0)
        tight = perf.max_single_gpu_throughput(20.0)
        assert loose >= tight >= 0.0

    def test_max_single_gpu_zero_when_impossible(self):
        bert = PerfModel(get_model("bert-large"))
        assert bert.max_single_gpu_throughput(0.5) == 0.0
