"""MIG instance profiles, placement legality, and the 19 A100 configurations.

The paper's Figure 1 lists the 19 instance combinations an A100/H100 admits
when MIG is enabled.  The combinatorial structure behind that table is:

* instances come in sizes 1, 2, 3, 4 and 7 GPCs (5 and 6 do not exist);
* each size may only *start* at certain slices (its "slots"):

  ====  ==================  =============================================
  size  legal start slots    note
  ====  ==================  =============================================
  7     0                   whole GPU
  4     0                   occupies slices 0-3
  3     0 or 4              a size-3 at slot 0 additionally *blocks*
                            slice 3 (paper SIII-E1: "placing a size 3
                            segment in slot 0 prevents the allocation of
                            a size 1 segment in slot 3")
  2     0, 2, 4 (and 5)     slot 5 is the paper's extension; the
                            canonical Figure-1 enumeration uses 0/2/4
  1     0-6                 any slice
  ====  ==================  =============================================

These rules are :data:`MIG_GEOMETRY` — the NVIDIA instantiation of
:class:`repro.gpu.geometry.PartitionGeometry` — and every layer reaches
MIG through it (``MIG_GEOMETRY.legal_starts``/``.place``,
``PartitionLayout(MIG_GEOMETRY)``); there is no second, MIG-only API.
The AMD counterpart lives in :mod:`repro.gpu.amd`.

``enumerate_layouts(MIG_GEOMETRY)`` regenerates Figure 1 exactly: the 18
maximal layouts composed from the lower region (slices 0-3) and the upper
region (slices 4-6), plus the full-GPU size-7 layout, i.e. 19
configurations.
"""

from __future__ import annotations

from repro.gpu.geometry import PartitionGeometry, register_geometry
from repro.gpu.slices import NUM_SLICES, mask_of

#: Instance sizes that exist on A100/H100-class hardware, ascending.
INSTANCE_SIZES: tuple[int, ...] = (1, 2, 3, 4, 7)

#: Framebuffer capacity (GB) of each instance size on an 80 GB A100
#: (paper SII-B: "instances with 10, 20, 40, 40, 80GB of GPU memory").
MEMORY_GB: dict[int, int] = {1: 10, 2: 20, 3: 40, 4: 40, 7: 80}

#: MIG profile names as ``nvidia-smi`` would print them for an A100-80GB.
PROFILE_NAMES: dict[int, str] = {
    1: "1g.10gb",
    2: "2g.20gb",
    3: "3g.40gb",
    4: "4g.40gb",
    7: "7g.80gb",
}

#: Start slots allowed by the canonical (NVIDIA-documented) placement rules.
_CANONICAL_STARTS: dict[int, tuple[int, ...]] = {
    7: (0,),
    4: (0,),
    3: (0, 4),
    2: (0, 2, 4),
    1: (0, 1, 2, 3, 4, 5, 6),
}

#: Start slots under the paper's extended rule set (size 2 may also start at
#: slot 5, occupying slices 5-6).  The Segment Allocator uses these.
_EXTENDED_STARTS: dict[int, tuple[int, ...]] = {
    7: (0,),
    4: (0,),
    3: (0, 4),
    2: (0, 2, 4, 5),
    1: (0, 1, 2, 3, 4, 5, 6),
}

#: SMs per GPC on GA100 (the A100 exposes 98 usable SMs under MIG = 14 per
#: GPC slice, which is the number DCGM-style accounting needs).
SMS_PER_GPC = 14

#: The NVIDIA MIG geometry: seven GPC slices, five instance sizes, free
#: mixing of sizes on one GPU.  Slot preferences implement SIII-E1: sizes
#: 7/4 only fit slot 0; size 3 prefers slot 4 (slot 0 would block slice 3);
#: size 2 prefers the lower half; size 1 fills slots 0-3 before 4-6.
MIG_GEOMETRY: PartitionGeometry = register_geometry(
    PartitionGeometry(
        name="mig",
        vendor="nvidia",
        kind="mig",
        slice_label="GPC",
        num_slices=NUM_SLICES,
        instance_sizes=INSTANCE_SIZES,
        memory_map=dict(MEMORY_GB),
        profile_names=dict(PROFILE_NAMES),
        canonical_starts=_CANONICAL_STARTS,
        extended_starts=_EXTENDED_STARTS,
        blocked_extra={(3, 0): mask_of([3])},
        slot_preferences={7: (0,), 4: (0,), 3: (4,), 2: (0, 2), 1: (0, 1, 2, 3)},
        slot_fallbacks={7: (), 4: (), 3: (), 2: (4, 5), 1: (4, 5, 6)},
        sms_per_slice=SMS_PER_GPC,
        gpc_equiv_per_slice=1.0,
        uniform_instance_sizes=False,
        small_sizes=(1, 2),
        compact_max_size=3,
    ),
    aliases=("nvidia", "a100", "a100-80gb", "h100", "h100-80gb"),
)
