"""Property: the indexed compaction walk makes the list path's moves.

``SegmentAllocator._compact`` over a :class:`LiveFleet` visits only the
GPUs that host a compactable segment and answers every probe from the
cached lowest feasible GPU per slot key
(:class:`~repro.core.slotindex.CompactionHeads`); over a plain list it
is the reference, probing every earlier GPU.  On generated MIG and MI300X
fleets — live GPUs, spares, fresh tail GPUs opened during the operation,
reserved ids that fresh GPUs are numbered past, and holes opened by
removals — both must end in the same states, GPU for GPU.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import LiveFleet, SegmentAllocator, _GPUState
from repro.core.segments import Segment
from repro.gpu.geometry import PartitionGeometry, get_geometry

GEOMETRIES = {name: get_geometry(name) for name in ("mig", "mi300x")}
CAPACITIES = (40.0, 75.5, 100.0, 180.25)

#: one GPU's segments: (size pick, service pick, capacity pick) each
gpu_cells = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=8,
)

fleets = st.fixed_dictionaries({
    "live": st.lists(gpu_cells, min_size=1, max_size=10),
    "spares": st.integers(min_value=0, max_value=2),
    "retired": st.integers(min_value=0, max_value=2),
    "fresh": st.lists(gpu_cells, max_size=2),
    # (GPU pick, service pick): drop that service's segments there
    "removals": st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=6,
    ),
})


def _fill(state: _GPUState, cells, geometry: PartitionGeometry) -> None:
    sizes = geometry.instance_sizes
    for size_pick, sid, cap in cells:
        seg = Segment(
            service_id=f"s{sid}", model="resnet-50",
            instance_size=sizes[size_pick % len(sizes)], batch_size=4,
            num_processes=1, throughput=CAPACITIES[cap], latency_ms=10.0,
            sm_activity=0.5, geometry=geometry,
        )
        if state.try_place(seg) is None:
            state.try_place(seg, fallback=True)


def _build(spec, geometry: PartitionGeometry) -> LiveFleet:
    """A live fleet as an operation hands it to compaction."""
    states = []
    for gid, cells in enumerate(spec["live"]):
        state = _GPUState(gpu_id=gid, geometry=geometry)
        _fill(state, cells, geometry)
        states.append(state)
    n = len(states)
    spares = {n + k: geometry.name for k in range(spec["spares"])}
    n += spec["spares"]
    retired = range(n, n + spec["retired"])
    fleet = LiveFleet(states, spares, retired)
    # as ``SegmentAllocator(reserved=retired)`` numbers fresh GPUs
    next_id = max(fleet.next_gpu_id(), n + spec["retired"])
    for cells in spec["fresh"]:  # opened by this operation's allocation
        state = _GPUState(gpu_id=next_id, geometry=geometry)
        next_id += 1
        fleet.append(state)
        _fill(state, cells, geometry)
    live = [s.gpu_id for s in states if not s.is_empty]
    for pick, sid in spec["removals"]:
        if live:
            gid = live[pick % len(live)]
            fleet.remove_segments(gid, f"s{sid}")
    return fleet


def _view(states):
    return [(s.gpu_id, s.geometry.name, list(s.placed)) for s in states]


def _compacted(spec, geometry: PartitionGeometry) -> tuple[list, list, int]:
    """Both walks over the same fleet: (indexed result, list result,
    segments the indexed walk moved)."""
    fleet = _build(spec, geometry)
    reference = [s.thawed() for s in fleet.states_in_order()]
    allocator = SegmentAllocator(geometry=geometry)
    allocator._compact(fleet)
    allocator._compact(reference)
    return _view(fleet.states_in_order()), _view(reference), fleet.compact_moves


def test_indexed_compaction_matches_list_path():
    moves: dict[str, int] = {}
    for name, geometry in GEOMETRIES.items():

        @given(fleets)
        @settings(max_examples=60, deadline=None, derandomize=True)
        def example(spec):
            indexed, reference, moved = _compacted(spec, geometry)
            assert indexed == reference
            moves[geometry.name] = moves.get(geometry.name, 0) + moved

        example()
    # the walks moved something on both geometries
    assert all(moves.get(name) for name in GEOMETRIES), moves


def test_head_gpu_fills_mid_walk():
    """GPU 0 has one size-1 hole, the head of the size-1 keys; the back
    GPUs each host a size-1 segment.  The first move fills the head, so
    the next probe must re-resolve it to GPU 1's hole."""
    mig = GEOMETRIES["mig"]
    spec = {
        # sizes (1, 2, 3, 4, 7) by pick: GPU 0 = 4 + 2 (one 1-hole left
        # at slot 6), GPU 1 = 4 + 1 + 1 (one 1-hole), then three GPUs
        # with a lone size-1 segment
        "live": [
            [(3, 0, 0), (1, 0, 0)],
            [(3, 1, 0), (0, 1, 0), (0, 1, 0)],
            [(0, 2, 1)], [(0, 3, 2)], [(0, 4, 3)],
        ],
        "spares": 1, "retired": 1, "fresh": [[(0, 5, 0)]], "removals": [],
    }
    indexed, reference, moved = _compacted(spec, mig)
    assert indexed == reference
    assert moved >= 2
    hosts = {gid: [seg.service_id for seg, _ in placed]
             for gid, _, placed in indexed}
    assert "s5" in hosts[0]  # the fresh GPU's segment filled the head
    assert len(hosts[1]) == 4  # ... and the next one GPU 1's hole
