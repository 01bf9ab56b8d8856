"""Unit tests for the framebuffer capacity model.

Capacity is part of the :class:`~repro.gpu.geometry.PartitionGeometry`
contract, so each rule is checked on every built-in geometry and every
derived NVIDIA generation.
"""

import pytest

from repro.gpu.amd import MI300X_GEOMETRY
from repro.gpu.generations import (
    DEFAULT_GENERATION,
    GENERATIONS,
    geometry_for_generation,
)
from repro.gpu.mig import MIG_GEOMETRY

#: the built-in geometries plus every derived NVIDIA generation (the
#: default generation is MIG_GEOMETRY itself)
GEOMETRIES = [MIG_GEOMETRY, MI300X_GEOMETRY] + [
    geometry_for_generation(name)
    for name in sorted(GENERATIONS)
    if name != DEFAULT_GENERATION
]


def test_capacity_map():
    assert MIG_GEOMETRY.instance_memory_gb(1) == 10
    assert MIG_GEOMETRY.instance_memory_gb(3) == 40
    assert MIG_GEOMETRY.instance_memory_gb(7) == 80


def test_unknown_size():
    for geo in GEOMETRIES:
        bad = max(geo.instance_sizes) + 1
        with pytest.raises(ValueError, match=f"size {bad}"):
            geo.instance_memory_gb(bad)
    with pytest.raises(ValueError):
        MIG_GEOMETRY.instance_memory_gb(5)  # no 5-GPC MIG profile


def test_fits_boundary():
    for geo in GEOMETRIES:
        for size in geo.instance_sizes:
            gb = geo.instance_memory_gb(size)
            assert geo.fits_in_memory(gb, size), (geo.name, size)
            assert not geo.fits_in_memory(gb + 0.1, size), (geo.name, size)


def test_fits_negative_requirement():
    for geo in GEOMETRIES:
        with pytest.raises(ValueError):
            geo.fits_in_memory(-1.0, geo.instance_sizes[0])
