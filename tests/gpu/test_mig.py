"""Unit tests for MIG profiles, placement rules, and Figure 1.

MIG is :data:`MIG_GEOMETRY`; every rule is read through the
:class:`~repro.gpu.geometry.PartitionGeometry` contract.
"""

import pytest

from repro.gpu.geometry import PartitionLayout, enumerate_layouts
from repro.gpu.mig import INSTANCE_SIZES, MEMORY_GB
from repro.gpu.mig import MIG_GEOMETRY as MIG
from repro.gpu.slices import popcount, slice_indices


class TestProfiles:
    def test_sizes(self):
        assert INSTANCE_SIZES == (1, 2, 3, 4, 7)

    def test_no_5_or_6(self):
        # SII-B: "due to hardware limitations, configurations of 5 or 6
        # GPCs are not possible".
        for bad in (0, 5, 6, 8):
            with pytest.raises(ValueError):
                MIG.legal_starts(bad)

    def test_memory_map_matches_paper(self):
        # SII-B: "instances with 10, 20, 40, 40, 80GB of GPU memory".
        assert [MEMORY_GB[s] for s in INSTANCE_SIZES] == [10, 20, 40, 40, 80]

    def test_profile_names(self):
        assert MIG.profile_name(1) == "1g.10gb"
        assert MIG.profile_name(7) == "7g.80gb"

    def test_profile_lookup_consistent(self):
        assert MIG.instance_sizes == INSTANCE_SIZES
        for size in INSTANCE_SIZES:
            assert MIG.profile_name(size).startswith(f"{size}g.")
            assert MIG.instance_memory_gb(size) == MEMORY_GB[size]


class TestLegalStarts:
    def test_size7_only_slot0(self):
        assert MIG.legal_starts(7) == (0,)

    def test_size4_only_slot0(self):
        assert MIG.legal_starts(4) == (0,)

    def test_size3_slots(self):
        assert MIG.legal_starts(3) == (0, 4)

    def test_size2_extended_includes_slot5(self):
        # SIII-E1: "size 2 segments can be placed in slots 0, 2, 4, or 5".
        assert MIG.legal_starts(2, extended=True) == (0, 2, 4, 5)

    def test_size2_canonical_excludes_slot5(self):
        assert MIG.legal_starts(2, extended=False) == (0, 2, 4)

    def test_size1_everywhere(self):
        assert MIG.legal_starts(1) == tuple(range(7))


class TestOccupiedMask:
    def test_size3_at_slot0_blocks_slice3(self):
        # SIII-E1: "placing a size 3 segment in slot 0 prevents the
        # allocation of a size 1 segment in slot 3".
        assert slice_indices(MIG.occupied_mask(3, 0)) == (0, 1, 2, 3)

    def test_size3_at_slot4_blocks_nothing_extra(self):
        assert slice_indices(MIG.occupied_mask(3, 4)) == (4, 5, 6)

    def test_other_sizes_exact(self):
        assert popcount(MIG.occupied_mask(7, 0)) == 7
        assert popcount(MIG.occupied_mask(4, 0)) == 4
        assert slice_indices(MIG.occupied_mask(2, 5)) == (5, 6)
        assert slice_indices(MIG.occupied_mask(1, 3)) == (3,)


class TestPlacedInstance:
    def test_illegal_start_rejected(self):
        with pytest.raises(ValueError):
            MIG.place(4, 2)
        with pytest.raises(ValueError):
            MIG.place(7, 1)
        with pytest.raises(ValueError):
            MIG.place(3, 2)

    def test_properties(self):
        inst = MIG.place(2, 2)
        assert inst.slices == (2, 3)
        assert inst.memory_gb == 20


class TestMigLayout:
    def test_empty(self):
        layout = PartitionLayout(MIG)
        assert layout.used_gpcs == 0
        assert len(layout) == 0

    def test_add_overlap_rejected(self):
        layout = PartitionLayout(MIG, [MIG.place(4, 0)])
        with pytest.raises(ValueError):
            layout.add(MIG.place(2, 2))

    def test_three_at_zero_blocks_one_at_three(self):
        layout = PartitionLayout(MIG, [MIG.place(3, 0)])
        assert not layout.can_add(1, 3)
        assert layout.can_add(3, 4)

    def test_used_gpcs_excludes_blocked(self):
        layout = PartitionLayout(MIG, [MIG.place(3, 0)])
        assert layout.used_gpcs == 3  # slice 3 blocked but not compute

    def test_remove_restores(self):
        layout = PartitionLayout(MIG)
        inst = MIG.place(4, 0)
        layout.add(inst)
        assert not layout.can_add(4, 0)
        layout.remove(inst)
        assert layout.can_add(4, 0)
        assert len(layout) == 0

    def test_sizes_descending(self):
        layout = PartitionLayout(
            MIG, [MIG.place(1, 0), MIG.place(3, 4), MIG.place(2, 2)]
        )
        assert layout.sizes() == (3, 2, 1)

    def test_full_gpu_is_maximal(self):
        layout = PartitionLayout(MIG, [MIG.place(7, 0)])
        assert layout.is_maximal()

    def test_signature_is_position_sensitive(self):
        a = PartitionLayout(MIG, [MIG.place(2, 0), MIG.place(1, 2)])
        b = PartitionLayout(MIG, [MIG.place(1, 0), MIG.place(2, 2)])
        assert a.signature() != b.signature()


class TestFigure1:
    def test_exactly_19_configurations(self):
        assert len(enumerate_layouts(MIG)) == 19

    def test_first_is_full_gpu(self):
        assert enumerate_layouts(MIG)[0].sizes() == (7,)

    def test_last_is_seven_ones(self):
        assert enumerate_layouts(MIG)[-1].sizes() == (1,) * 7

    def test_known_configs_present(self):
        sizes = {c.sizes() for c in enumerate_layouts(MIG)}
        # Combinations named in SII-B: "1-1-1-1-1-1-1, 4-3, 4-2-1, and 4-1-1-1".
        for expected in [(7,), (4, 3), (4, 2, 1), (4, 1, 1, 1), (1,) * 7, (3, 3)]:
            assert expected in sizes

    def test_all_maximal_and_unique(self):
        configs = enumerate_layouts(MIG)
        sigs = {c.signature() for c in configs}
        assert len(sigs) == len(configs)
        for c in configs:
            assert c.is_maximal()

    def test_signatures_in_discovery_order(self):
        # The enumeration expands each partial layout once; the layouts
        # and their order must be those of the exhaustive search.
        assert [c.signature() for c in enumerate_layouts(MIG)] == [
            ((0, 7),),
            ((0, 4), (4, 3)),
            ((0, 4), (4, 2), (6, 1)),
            ((0, 4), (4, 1), (5, 1), (6, 1)),
            ((0, 3), (4, 3)),
            ((0, 2), (2, 2), (4, 3)),
            ((0, 3), (4, 2), (6, 1)),
            ((0, 2), (2, 1), (3, 1), (4, 3)),
            ((0, 1), (1, 1), (2, 2), (4, 3)),
            ((0, 3), (4, 1), (5, 1), (6, 1)),
            ((0, 1), (1, 1), (2, 1), (3, 1), (4, 3)),
            ((0, 2), (2, 2), (4, 2), (6, 1)),
            ((0, 2), (2, 2), (4, 1), (5, 1), (6, 1)),
            ((0, 2), (2, 1), (3, 1), (4, 2), (6, 1)),
            ((0, 1), (1, 1), (2, 2), (4, 2), (6, 1)),
            ((0, 2), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)),
            ((0, 1), (1, 1), (2, 2), (4, 1), (5, 1), (6, 1)),
            ((0, 1), (1, 1), (2, 1), (3, 1), (4, 2), (6, 1)),
            ((0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)),
        ]

    def test_no_config_exceeds_seven_gpcs(self):
        for c in enumerate_layouts(MIG):
            assert c.used_gpcs <= 7
            assert len(c) <= 7  # at most seven instances (SII-B)
