"""MIG-capable NVIDIA GPU generations (the paper's Discussion section).

"All NVIDIA GPUs adopting MIG across the Ampere, Hopper, and latest
Blackwell architectures maintain identical MIG configurations" — *within
the NVIDIA line*, the 19 layouts and slot rules of :mod:`repro.gpu.mig`
are generation-invariant; what changes is the framebuffer behind each
instance size.  (The invariance does **not** extend across vendors: AMD's
MI300X partitions by device-wide XCD modes instead — see
:mod:`repro.gpu.amd` — which is exactly why the scheduling layers consume
a :class:`~repro.gpu.geometry.PartitionGeometry` rather than the MIG
tables directly.)  This module captures the NVIDIA memory maps so the
feasibility of spatial sharing (notably the Discussion's LLM argument: a
7 GB LLaMA fits a 1g slice of an H200 but not of an A100-40GB) can be
studied quantitatively, and derives a per-generation geometry via
:func:`geometry_for_generation`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.gpu.geometry import PartitionGeometry, register_geometry
from repro.gpu.mig import INSTANCE_SIZES, MIG_GEOMETRY


@dataclass(frozen=True)
class GPUGeneration:
    """One MIG-capable GPU model.

    Its memory questions (per-size framebuffer, the sizes a footprint
    fits) are answered by :func:`geometry_for_generation`.
    """

    name: str
    architecture: str
    total_memory_gb: int
    memory_map: dict[int, float]  #: instance size -> framebuffer GB

    def __post_init__(self) -> None:
        if set(self.memory_map) != set(INSTANCE_SIZES):
            raise ValueError(f"{self.name}: memory map must cover {INSTANCE_SIZES}")
        if self.memory_map[7] != self.total_memory_gb:
            raise ValueError(f"{self.name}: 7-GPC instance owns the whole board")


def _gen(name: str, arch: str, total: int, per_slice: float) -> GPUGeneration:
    return GPUGeneration(
        name=name,
        architecture=arch,
        total_memory_gb=total,
        memory_map={
            1: per_slice,
            2: 2 * per_slice,
            3: 4 * per_slice,  # 3-GPC instances own 4 memory slices
            4: 4 * per_slice,
            7: float(total),
        },
    )


#: The MIG-capable generations named in the paper (SII-B + Discussion).
GENERATIONS: dict[str, GPUGeneration] = {
    g.name: g
    for g in (
        _gen("a100-40gb", "ampere", 40, 5.0),
        _gen("a100-80gb", "ampere", 80, 10.0),
        _gen("h100-80gb", "hopper", 80, 10.0),
        _gen("h200-141gb", "hopper", 141, 141 / 8),
        _gen("b200-192gb", "blackwell", 192, 24.0),
    )
}

#: The evaluation's hardware (p4de.24xlarge => A100-80GB).
DEFAULT_GENERATION = "a100-80gb"


def get_generation(name: str) -> GPUGeneration:
    try:
        return GENERATIONS[name.strip().lower()]
    except KeyError:
        known = ", ".join(sorted(GENERATIONS))
        raise KeyError(f"unknown GPU generation {name!r}; known: {known}") from None


#: Derived per-generation geometries, built (and registered) on demand.
_GENERATION_GEOMETRIES: dict[str, PartitionGeometry] = {}


def geometry_for_generation(name: str) -> PartitionGeometry:
    """A MIG-rules :class:`PartitionGeometry` with ``name``'s memory map.

    Placement rules, slot preferences and slice count are identical across
    NVIDIA generations; only the framebuffer per instance size moves.  The
    derived geometry is registered in the geometry registry (as e.g.
    ``"mig-h200-141gb"``) so geometry-tagged placements can resolve it.
    """
    gen = get_generation(name)
    if gen.name == DEFAULT_GENERATION:
        return MIG_GEOMETRY
    if gen.name not in _GENERATION_GEOMETRIES:
        # Registered under "mig-<generation>" only — no aliases, so the
        # pre-existing generation-name aliases keep resolving to the
        # default MIG geometry regardless of call order.
        _GENERATION_GEOMETRIES[gen.name] = register_geometry(
            replace(
                MIG_GEOMETRY,
                name=f"mig-{gen.name}",
                memory_map=dict(gen.memory_map),
                profile_names={
                    s: f"{s}g.{gen.memory_map[s]:.0f}gb" for s in INSTANCE_SIZES
                },
            )
        )
    return _GENERATION_GEOMETRIES[gen.name]
