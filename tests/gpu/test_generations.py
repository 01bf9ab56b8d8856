"""Unit tests for GPU generations (Discussion section)."""

import pytest

from repro.gpu.generations import (
    DEFAULT_GENERATION,
    GENERATIONS,
    GPUGeneration,
    geometry_for_generation,
    get_generation,
)
from repro.gpu.mig import MEMORY_GB
from repro.models.perf import PerfModel
from repro.models.zoo import get_model


class TestCatalogue:
    def test_default_matches_evaluation_hardware(self):
        gen = get_generation(DEFAULT_GENERATION)
        assert gen.architecture == "ampere"
        assert gen.memory_map == MEMORY_GB

    def test_named_generations_present(self):
        for name in ("a100-40gb", "h100-80gb", "h200-141gb", "b200-192gb"):
            assert name in GENERATIONS

    def test_hopper_memory_exceeds_ampere(self):
        h200 = geometry_for_generation("h200-141gb")
        a100 = geometry_for_generation("a100-80gb")
        for size in (1, 2, 3, 4, 7):
            assert h200.instance_memory_gb(size) > a100.instance_memory_gb(size)

    def test_unknown_generation(self):
        with pytest.raises(KeyError):
            get_generation("mi300x")

    def test_validation(self):
        with pytest.raises(ValueError):
            GPUGeneration("x", "a", 80, {1: 10.0})
        with pytest.raises(ValueError):
            GPUGeneration(
                "x", "a", 80, {1: 10, 2: 20, 3: 40, 4: 40, 7: 79}
            )

    def test_feasible_sizes(self):
        a100 = geometry_for_generation("a100-80gb")
        assert a100.feasible_sizes(9.0) == (1, 2, 3, 4, 7)
        assert a100.feasible_sizes(41.0) == (7,)
        assert a100.feasible_sizes(100.0) == ()


class TestPerfModelIntegration:
    def test_memory_map_moves_oom_boundary(self):
        bert = get_model("bert-large")
        small = PerfModel(bert, geometry=geometry_for_generation("a100-40gb"))
        big = PerfModel(bert, geometry=geometry_for_generation("h200-141gb"))
        # three BERT processes at batch 32 OOM a 5 GB slice but fit 17.6 GB
        assert not small.fits(1, 32, 3)
        assert big.fits(1, 32, 3)

    def test_compute_is_generation_invariant(self):
        spec = get_model("resnet-50")
        default = PerfModel(spec)
        hopper = PerfModel(spec, geometry=geometry_for_generation("h100-80gb"))
        assert default.latency_ms(2, 16, 2) == hopper.latency_ms(2, 16, 2)
        assert default.throughput(2, 16, 2) == hopper.throughput(2, 16, 2)
