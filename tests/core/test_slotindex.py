"""Unit tests for the allocator's free-slot index.

The index's contract: after any sequence of places, removals, drains,
GPU registrations and discards (with ``touch``/``add``/``discard`` at the
capacity-changing events), a candidate query returns exactly the GPU the
naive linear scan would pick — or None exactly when the scan finds
nothing.  The tests key every GPU by its list position, the order the
naive scan walks.
"""

import random

import pytest

from repro.core.allocator import _GPUState
from repro.core.segments import Segment
from repro.core.slotindex import CompactionHeads, SlotIndex
from repro.gpu.geometry import get_geometry

MIG = get_geometry("mig")
MI300X = get_geometry("mi300x")


def _segment(size, geometry=MIG, sid="svc"):
    return Segment(
        service_id=sid,
        model="resnet-50",
        instance_size=size,
        batch_size=4,
        num_processes=1,
        throughput=100.0,
        latency_ms=10.0,
        sm_activity=0.5,
        geometry=geometry,
    )


def _naive_first_fit(gpus, size, fallback, geometry, gone=()):
    """Reference: lowest list position with a feasible slot."""
    for pos, state in enumerate(gpus):
        if pos in gone or state.geometry.name != geometry.name:
            continue
        if state.has_free_slot(size, fallback=fallback):
            return pos
    return None


def _assert_matches_naive(index, gpus, geometry, gone=()):
    for size in geometry.instance_sizes:
        for fallback in (False, True):
            assert index.first_candidate(
                geometry.name, size, fallback
            ) == _naive_first_fit(
                gpus, size, fallback, geometry, gone=gone
            ), (
                size,
                fallback,
            )


def _keyed(gpus):
    """An index with every GPU registered under its list position."""
    index = SlotIndex()
    for pos, state in enumerate(gpus):
        index.add(pos, state)
    return index


class TestSlotIndex:
    def test_empty_list_has_no_candidates(self):
        index = SlotIndex()
        assert index.first_candidate("mig", 1) is None

    def test_place_tracks_first_fit(self):
        gpus = [_GPUState(gpu_id=i) for i in range(3)]
        index = _keyed(gpus)
        # Fill GPU 0 with a size-7, so size queries fall through to GPU 1.
        assert index.place(_segment(7)) == 0
        assert index.first_candidate("mig", 1) == 1
        _assert_matches_naive(index, gpus, MIG)

    def test_remove_then_touch_restores_candidacy(self):
        gpus = [_GPUState(gpu_id=0), _GPUState(gpu_id=1)]
        index = _keyed(gpus)
        index.place(_segment(7))
        assert index.first_candidate("mig", 7) == 1
        seg, start = gpus[0].placed[0]
        gpus[0].placed.remove((seg, start))
        gpus[0].layout.remove(MIG.place(seg.instance_size, start))
        index.touch(0)
        assert index.first_candidate("mig", 7) == 0
        _assert_matches_naive(index, gpus, MIG)

    def test_add_registers_new_gpus(self):
        index = _keyed([_GPUState(gpu_id=0)])
        index.place(_segment(7))
        assert index.place(_segment(7)) is None  # fleet is full
        index.add(1, _GPUState(gpu_id=1))
        assert index.place(_segment(7)) == 1

    def test_compaction_heads_bound_the_search(self):
        gpus = [_GPUState(gpu_id=i) for i in range(3)]
        index = _keyed(gpus)
        index.place(_segment(7))  # occupies position 0
        heads = CompactionHeads(index)
        assert heads.lowest("mig", 1) == heads.floor() == 1
        assert heads.place(_segment(1), limit=1) is None
        assert heads.place(_segment(1), limit=2) == 1

    def test_foreign_geometry_never_matches(self):
        gpus = [
            _GPUState(gpu_id=0, geometry=MI300X),
            _GPUState(gpu_id=1, geometry=MIG),
        ]
        index = _keyed(gpus)
        assert index.first_candidate("mig", 1) == 1
        assert index.place(_segment(1)) == 1

    def test_uniform_size_rule_reflected(self):
        """On MI300X, placing one size evicts the others' candidacy."""
        gpus = [_GPUState(gpu_id=0, geometry=MI300X)]
        index = _keyed(gpus)
        assert index.place(_segment(2, geometry=MI300X)) == 0
        assert index.first_candidate("mi300x", 2) == 0  # three slots left
        assert index.first_candidate("mi300x", 4) is None  # mode is fixed
        _assert_matches_naive(index, gpus, MI300X)

    @pytest.mark.parametrize("geometry", [MIG, MI300X], ids=lambda g: g.name)
    def test_randomized_operations_match_naive(self, geometry):
        """Fuzz place/remove/drain/append/discard; the index never drifts."""
        rng = random.Random(1234)
        gpus = []
        gone = set()  # discarded positions, skipped by the naive scan
        index = SlotIndex()
        for step in range(300):
            op = rng.random()
            live = [pos for pos in range(len(gpus)) if pos not in gone]
            if op < 0.55:  # place a random size via the index
                size = rng.choice(geometry.instance_sizes)
                seg = _segment(size, geometry=geometry)
                expected = _naive_first_fit(
                    gpus, size, False, geometry, gone=gone
                )
                if expected is None:
                    expected = _naive_first_fit(
                        gpus, size, True, geometry, gone=gone
                    )
                assert index.place(seg) == expected
            elif op < 0.72 and live:  # remove a random placed segment
                pos = rng.choice(live)
                if gpus[pos].placed:
                    seg, start = rng.choice(gpus[pos].placed)
                    gpus[pos].placed.remove((seg, start))
                    gpus[pos].layout.remove(
                        geometry.place(seg.instance_size, start)
                    )
                    index.touch(pos)
            elif op < 0.82 and live:  # drain a whole GPU
                pos = rng.choice(live)
                gpus[pos].free_all()
                index.touch(pos)
            elif op < 0.85 and live:  # a GPU leaves the order
                pos = rng.choice(live)
                index.discard(pos)
                gone.add(pos)
            else:  # register a fresh GPU behind every other
                gpus.append(
                    _GPUState(gpu_id=len(gpus), geometry=geometry)
                )
                index.add(len(gpus) - 1, gpus[-1])
            if step % 25 == 0:
                _assert_matches_naive(index, gpus, geometry, gone=gone)
        _assert_matches_naive(index, gpus, geometry, gone=gone)
