"""Algorithm 2 — the GPU Segment Allocator.

Two stages:

1. **Segment Relocation** (``SEGMENTRELOCATION``): every service's optimal
   segments (x ``num_opt_seg``) and last segment are enqueued into
   per-size queues; ``ALLOCATION`` then drains the queues largest-size
   first, placing each segment on the first GPU with a feasible slot —
   first-fit-decreasing, the classic heuristic for irregular packing.

   Slot preferences come from the partition geometry.  The MIG geometry
   implements SIII-E1 verbatim:

   * sizes 7 and 4 only fit slot 0;
   * size 3 prefers slot 4 (slot 0 would block slice 3, wasting a GPC);
   * size 2 prefers slots 0/2, avoiding 4/5 which size-3 segments need;
   * size 1 fills slots 0-3 before 4-6 for the same reason.

   The MI300X geometry has no blocking rule — partition sizes tile the 8
   XCDs — but adds a coexistence rule instead: compute-partition modes are
   device-wide, so a GPU only accepts segments of one size and first-fit
   naturally groups same-sized segments per device.

2. **Allocation Optimization** (``ALLOCATIONOPTIMIZATION``): walking GPUs
   from the back, any GPU with at most ``threshold`` (= 4, the paper's
   heuristic) allocated slices is drained; the freed throughput is
   re-covered with small segments (geometry ``small_sizes``) taken from
   each service's optimal-triplet array and repacked into the holes of
   front GPUs.  Surplus capacity from one GPU's split is credited against
   the next (the ``freed_rate`` array), so the split emits the fewest
   small segments possible.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    ClassVar,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    NoReturn,
    Optional,
    Sequence,
    Union,
)

from repro.core.placement import GPUPlan, PlacedSegment, Placement
from repro.core.segments import Segment
from repro.core.service import Service, Services, service_index
from repro.core.slotindex import CompactionHeads, SlotIndex
from repro.gpu.geometry import PartitionGeometry, PartitionLayout, get_geometry
from repro.gpu.mig import MIG_GEOMETRY
from repro.profiler.table import ProfileEntry

#: GPUs with at most this many allocated slices are considered fragmented
#: and drained by Allocation Optimization (SIII-E2 sets it to 4
#: heuristically; the same default serves the 8-XCD MI300X well).
OPTIMIZATION_GPC_THRESHOLD = 4

@dataclass(slots=True)
class _GPUState:
    """Mutable per-GPU build state during allocation.

    A :class:`LiveFleet` freezes every state it commits (:meth:`freeze`)
    and replaces a frozen state by its :meth:`thawed` copy before the
    first write of a later operation: copy-on-write, so a committed
    state object never changes and the state check can skip one it
    already verified by identity.
    """

    gpu_id: int
    geometry: PartitionGeometry = MIG_GEOMETRY
    layout: PartitionLayout = None  # type: ignore[assignment]
    placed: list[tuple[Segment, int]] = field(default_factory=list)

    #: set on committed states (see :meth:`freeze`)
    frozen: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if self.layout is None:
            self.layout = PartitionLayout(self.geometry)

    def freeze(self) -> None:
        """Make this state immutable in place: every attribute write and
        every ``placed`` mutation raises from now on."""
        self.placed = _FrozenPlaced(self.placed)
        self.__class__ = _FrozenGPUState

    def thawed(self) -> "_GPUState":
        """A mutable copy (the layout copied, ``placed`` a fresh list)."""
        return _GPUState(
            self.gpu_id, self.geometry, self.layout.copy(), list(self.placed)
        )

    @property
    def used_gpcs(self) -> int:
        return self.layout.used_gpcs

    @property
    def is_empty(self) -> bool:
        return not self.placed

    def first_free_slot(self, size: int, fallback: bool = False) -> Optional[int]:
        """First preference-ordered slot that can host ``size``, or None."""
        slots = (
            self.geometry.fallback_slots(size)
            if fallback
            else self.geometry.preferred_slots(size)
        )
        for start in slots:
            if self.layout.can_add(size, start):
                return start
        return None

    def has_free_slot(self, size: int, fallback: bool = False) -> bool:
        return self.first_free_slot(size, fallback=fallback) is not None

    def try_place(self, seg: Segment, fallback: bool = False) -> Optional[int]:
        """Place ``seg`` at a preferred (or fallback) slot, or return None."""
        if seg.geometry.name != self.geometry.name:
            return None  # a segment never lands on a foreign-geometry GPU
        start = self.first_free_slot(seg.instance_size, fallback=fallback)
        if start is None:
            return None
        self.layout.add(self.geometry.place(seg.instance_size, start))
        self.placed.append((seg, start))
        return start

    def free_all(self) -> list[Segment]:
        """Drain every segment, returning them."""
        segs = [s for s, _ in self.placed]
        self.placed.clear()
        self.layout = PartitionLayout(self.geometry)
        return segs


def _refuse_write(*_args: object, **_kwargs: object) -> NoReturn:
    raise AttributeError(
        "a committed allocator state is frozen; write to the copy "
        "SlotIndex.writable returns"
    )


class _FrozenPlaced(list[tuple[Segment, int]]):
    """A frozen state's ``placed``: equal to the list it copies, and
    every mutator raises."""

    __slots__ = ()
    append = extend = insert = pop = remove = clear = _refuse_write
    sort = reverse = __setitem__ = __delitem__ = _refuse_write
    __iadd__ = __imul__ = _refuse_write


class _FrozenGPUState(_GPUState):
    """A committed :class:`_GPUState` (see :meth:`_GPUState.freeze`)."""

    __slots__ = ()
    frozen = True
    __setattr__ = try_place = free_all = _refuse_write  # type: ignore[assignment]


def placed_to_segment(
    seg: PlacedSegment, geometry: PartitionGeometry
) -> Segment:
    """The allocator :class:`Segment` a placed segment was planned from."""
    return Segment(
        service_id=seg.service_id,
        model=seg.model,
        instance_size=int(seg.gpcs),
        batch_size=seg.batch_size,
        num_processes=seg.num_processes,
        throughput=seg.capacity,
        latency_ms=seg.latency_ms,
        sm_activity=seg.sm_activity,
        geometry=geometry,
    )


def states_from_placement(
    placement: Placement, exclude_service: Optional[str] = None
) -> list[_GPUState]:
    """Rebuild allocator build-state from a live deployment map.

    The seed of the deployment manager's live allocator state and the
    rebuild reference of every incremental re-plan (SLO updates,
    failover): each plan's state carries the plan's own geometry, so
    incremental re-planning on MI300X or mixed placements replays the
    correct placement rules.  Segments of ``exclude_service`` are
    omitted (they are being re-planned).
    """

    states: list[_GPUState] = []
    for plan in placement.gpus:
        geometry = get_geometry(plan.geometry)
        state = _GPUState(gpu_id=plan.gpu_id, geometry=geometry)
        for seg in plan.segments:
            if exclude_service is not None and seg.service_id == exclude_service:
                continue
            state.layout.add(geometry.place(int(seg.gpcs), seg.start))
            state.placed.append((placed_to_segment(seg, geometry), seg.start))
        states.append(state)
    return states


def placed_segment(
    seg: Segment, start: int, geometry: PartitionGeometry
) -> PlacedSegment:
    """The deployment-map segment of one placed allocator segment (rate
    unassigned): :func:`placed_to_segment` inverted."""
    return PlacedSegment(
        service_id=seg.service_id,
        model=seg.model,
        kind=geometry.kind,
        gpcs=float(seg.instance_size),
        batch_size=seg.batch_size,
        num_processes=seg.num_processes,
        capacity=seg.throughput,
        latency_ms=seg.latency_ms,
        sm_activity=seg.sm_activity,
        start=start,
        geometry=geometry.name,
    )


def plan_from_state(state: _GPUState) -> GPUPlan:
    """The deployment-map plan of one build state (rates unassigned)."""
    geometry = state.geometry
    return GPUPlan(
        state.gpu_id,
        tuple(placed_segment(seg, start, geometry) for seg, start in state.placed),
        geometry.name,
    )


class Commit(NamedTuple):
    """What :meth:`LiveFleet.commit` closed, as gpu ids."""

    #: live GPUs whose contents changed (the joining ones last, in the
    #: order they joined the live section)
    changed: list[int]
    #: GPUs that left the order (emptied or retired)
    left: list[int]
    #: spares that now host segments
    drafted: list[int]
    #: the positions the leaving GPUs held in the live section, last first
    left_at: list[int]
    #: GPUs the operation's compaction walks visited, and the segments
    #: they moved
    compact_visits: int
    compact_moves: int


#: Order-key sections of a :class:`LiveFleet`.  Live GPUs take keys from
#: a counter below ``_SPARE_KEYS``; a spare sits at ``_SPARE_KEYS +
#: gpu_id`` (after every live GPU, in gpu-id order); a GPU opened during
#: an operation sits at ``_FRESH_KEYS + n`` (after every spare) until
#: :meth:`LiveFleet.commit` files it into the live section.
_SPARE_KEYS = 1 << 48
_FRESH_KEYS = 2 << 48


class LiveFleet:
    """The allocator build state as one persistent, order-keyed object.

    The indexed allocator state: ``_GPUState``s under first-fit order
    keys plus their :class:`~repro.core.slotindex.SlotIndex`.  A full
    schedule starts from an empty fleet
    (:meth:`SegmentAllocator.make_index`); the deployment manager's live
    fleet holds what
    :meth:`~repro.core.deployment.DeploymentManager.build_states`
    rebuilds from a published placement — live GPUs in placement order,
    then spares in gpu-id order — and keeps it across incremental
    operations.  Retired GPUs are not held: their ids stay reserved on
    the manager's retired ledger, which the allocator reads
    (``SegmentAllocator(reserved=...)``).  Keys replace list
    positions: a GPU leaving the order drops its key without shifting
    anyone else's, so incremental operations cost O(touched GPUs)
    instead of a rebuild.

    :meth:`commit` closes an operation the way the next rebuild would see
    it: emptied GPUs leave the order (unless they are spares), and
    drafted spares, then GPUs opened during the operation, join the end
    of the live section.  Every committed state is frozen; an operation
    writes through :meth:`SlotIndex.writable`, which swaps a frozen state
    for its thawed copy on the first write.
    """

    def __init__(
        self,
        states: Iterable[_GPUState],
        spares: Mapping[int, str],
        retired: Collection[int],
    ) -> None:
        self.index = SlotIndex()
        self._key_of: dict[int, int] = {}
        self._order: list[int] = []  # live keys, ascending
        self._tail: set[int] = set()  # spare and fresh keys
        self._next_live = 0
        self._next_fresh = _FRESH_KEYS
        self._ids: list[int] = []  # max-heap (negated) of held ids
        # live keys at/below the default drain threshold
        self._light: set[int] = set()
        # (geometry name, size) -> live keys hosting a compactable
        # segment of that size, and each such key's (name, size) pairs
        self._hosting: dict[tuple[str, int], set[int]] = {}
        self._sizes: dict[int, frozenset[tuple[str, int]]] = {}
        #: this operation's compaction work (see ``Commit``)
        self.compact_visits = 0
        self.compact_moves = 0
        self._left: list[int] = []  # live gpu ids that left this operation
        self._gone: list[int] = []  # ... and their keys
        for state in states:
            key = self._next_live
            self._next_live += 1
            state.freeze()
            self._register(key, state)
            self._order.append(key)
            self._track(key, state)
        for gid in sorted(spares):
            if gid not in self._key_of:
                self.add_spare(gid, spares[gid])
        # A retired GPU still in ``states`` (a failed GPU whose segments
        # are about to move) leaves the order at the first commit.
        for gid in retired:
            self.retire(gid)
        # An empty plan in the published map leaves the order at the
        # first commit, exactly as the next rebuild would drop it.
        self.index.touched = {
            key
            for key in self._order
            if key in self.index and self[key].is_empty
        }

    # ------------------------------------------------------------------ #
    # the allocator's view
    # ------------------------------------------------------------------ #

    def __getitem__(self, key: int) -> _GPUState:
        return self.index.state(key)

    def __iter__(self) -> Iterator[_GPUState]:
        """Every registered state (not in first-fit order)."""
        for key in self._order:
            if key in self.index:
                yield self.index.state(key)
        for key in sorted(self._tail):
            yield self.index.state(key)

    def append(self, state: _GPUState) -> None:
        """Register a GPU opened by ``ALLOCATION`` behind every spare."""
        key = self._next_fresh
        self._next_fresh += 1
        self._register(key, state)
        self._tail.add(key)

    def next_gpu_id(self) -> int:
        """One past the largest id held (live, spare or fresh)."""
        ids = self._ids
        held = self._key_of
        while ids and -ids[0] not in held:
            heapq.heappop(ids)
        return (-ids[0] if ids else -1) + 1

    def drain_order(self, threshold: int) -> list[int]:
        """Keys the drain pass must visit, last first.

        A GPU's load only drops where the operation touched it, so the
        GPUs at/below ``threshold`` are the tracked light set plus the
        touched ones; the pass re-checks each at its visit.
        """
        if threshold > OPTIMIZATION_GPC_THRESHOLD:  # not tracked
            keys: Iterable[int] = list(self._order) + list(self._tail)
        else:
            keys = self._light | self.index.touched
        return sorted((k for k in keys if k in self.index), reverse=True)

    def compact_order(self, heads: CompactionHeads) -> list[int]:
        """Keys that may move a compactable segment forward, last first:
        the stops of the compaction cursor's walk.

        A GPU's contents only change where the operation touched it, so
        those are the committed GPUs hosting a segment of a size with a
        hole in front of them, plus every touched key behind the lowest
        hole (every spare or fresh GPU that hosts anything was touched).
        Holes only shrink during the walk, which re-checks each stop.
        """
        keys: set[int] = set()
        for (name, size), hosting in self._hosting.items():
            head = heads.lowest(name, size)
            if head is not None:
                keys.update(k for k in hosting if k > head)
        floor = heads.floor()
        if floor is not None:
            keys.update(
                k for k in self.index.touched
                if k > floor and k in self.index
            )
        return sorted(keys, reverse=True)

    # ------------------------------------------------------------------ #
    # deltas
    # ------------------------------------------------------------------ #

    def key_of(self, gpu_id: int) -> int:
        """The order key of a GPU in the order (KeyError otherwise)."""
        return self._key_of[gpu_id]

    def remove_segments(self, gpu_id: int, service_id: str) -> None:
        """Drop ``service_id``'s segments from one GPU, keeping the rest
        in place (the state ``states_from_placement`` builds when it
        excludes the service)."""
        key = self._key_of[gpu_id]
        state = self.index.writable(key)
        kept: list[tuple[Segment, int]] = []
        for seg, start in state.placed:
            if seg.service_id == service_id:
                state.layout.remove(
                    state.geometry.place(seg.instance_size, start)
                )
            else:
                kept.append((seg, start))
        state.placed[:] = kept
        self.index.touch(key)

    def retire(self, gpu_id: int) -> None:
        """Take ``gpu_id`` out of the order (its id stays reserved on the
        retired ledger, not here)."""
        key = self._key_of.get(gpu_id)
        if key is not None:
            self._unregister(key)
            if key < _SPARE_KEYS:
                self._left.append(gpu_id)
                self._gone.append(key)

    def add_spare(self, gpu_id: int, geometry: str) -> None:
        """Register an empty known-good GPU in the spare section."""
        key = _SPARE_KEYS + gpu_id
        state = _GPUState(gpu_id=gpu_id, geometry=get_geometry(geometry))
        state.freeze()
        self._register(key, state)
        self._tail.add(key)

    def commit(self) -> Commit:
        """Close an operation: the GPUs it changed, left and drafted.

        Every state the operation touched that stays registered is
        frozen.  The live section keeps its order: the GPUs that left are
        deleted at their positions (``Commit.left_at``), the joining ones
        appended at its end.
        """
        index = self.index
        changed: list[int] = []
        drafted: list[int] = []
        left, self._left = self._left, []
        gone, self._gone = self._gone, []
        promote: list[int] = []
        for key in sorted(index.touched):
            state = index.state(key)
            if key >= _SPARE_KEYS:
                if not state.is_empty:
                    promote.append(key)
                elif key >= _FRESH_KEYS:
                    self._unregister(key)
                elif not state.frozen:  # a spare drafted, then drained
                    state.freeze()
                continue
            if state.is_empty:
                self._unregister(key)
                left.append(state.gpu_id)
                gone.append(key)
                continue
            if not state.frozen:
                state.freeze()
            changed.append(state.gpu_id)
            self._track(key, state)
        order = self._order
        left_at = sorted(
            (bisect_left(order, key) for key in gone), reverse=True
        )
        for i in left_at:
            del order[i]
        for old in promote:  # spares in id order, then fresh GPUs
            state = index.state(old)
            key = self._next_live
            self._next_live += 1
            index.discard(old)
            self._tail.discard(old)
            if not state.frozen:
                state.freeze()
            index.add(key, state)
            self._key_of[state.gpu_id] = key
            order.append(key)
            changed.append(state.gpu_id)
            if old < _FRESH_KEYS:
                drafted.append(state.gpu_id)
            self._track(key, state)
        index.touched.clear()
        visits, self.compact_visits = self.compact_visits, 0
        moves, self.compact_moves = self.compact_moves, 0
        return Commit(changed, left, drafted, left_at, visits, moves)

    def live_keys(self) -> list[int]:
        """Live-section keys in first-fit (= placement) order."""
        return self._order

    def position(self, gpu_id: int) -> int:
        """The index of a live GPU in the live section."""
        return bisect_left(self._order, self._key_of[gpu_id])

    def states_in_order(self) -> list[_GPUState]:
        """The committed state as ``build_states`` lays it out: live GPUs,
        then spares."""
        index = self.index
        return index.states(self._order) + index.states(sorted(self._tail))

    def _register(self, key: int, state: _GPUState) -> None:
        self.index.add(key, state)
        self._key_of[state.gpu_id] = key
        heapq.heappush(self._ids, -state.gpu_id)

    def _unregister(self, key: int) -> None:
        del self._key_of[self[key].gpu_id]
        self.index.discard(key)
        self._tail.discard(key)
        self._light.discard(key)
        for size in self._sizes.pop(key, ()):
            self._hosting[size].discard(key)

    def _track(self, key: int, state: _GPUState) -> None:
        """File a committed live GPU under the light set and under the
        compactable sizes it hosts."""
        if (
            not state.is_empty
            and state.used_gpcs <= OPTIMIZATION_GPC_THRESHOLD
        ):
            self._light.add(key)
        else:
            self._light.discard(key)
        name = state.geometry.name
        largest = state.geometry.compact_max_size
        sizes = frozenset(
            (name, seg.instance_size)
            for seg, _ in state.placed
            if seg.instance_size <= largest
        )
        before = self._sizes.get(key, frozenset())
        if sizes == before:
            return
        for size in before - sizes:
            self._hosting[size].discard(key)
        for size in sizes - before:
            self._hosting.setdefault(size, set()).add(key)
        self._sizes[key] = sizes


#: what the allocator's relocation and optimization passes operate on: a
#: :class:`LiveFleet` runs every first-fit through its slot index, a
#: plain list runs the naive linear scan
GPUOrder = Union[list[_GPUState], LiveFleet]


def _missing_services(
    gpus: GPUOrder, by_id: Mapping[str, Service]
) -> ValueError:
    """The error for a placement hosting services ``by_id`` lacks (a
    bare KeyError deep in Algorithm 2 otherwise), naming all of them."""
    missing = sorted({
        seg.service_id
        for state in gpus
        for seg, _ in state.placed
        if seg.service_id not in by_id
    })
    return ValueError(
        "placement hosts services missing from the `services` "
        f"argument: {', '.join(missing)}"
    )


class SegmentAllocator:
    """Runs Algorithm 2 over configured services.

    ``optimize=False`` yields the ParvaGPU-unoptimized ablation (Segment
    Relocation only, Fig. 7's comparison point).  ``geometry`` selects the
    partition geometry the segments target (MIG by default).

    Every pass runs on the allocator state it is handed: a
    :class:`LiveFleet` probes through its
    :class:`~repro.core.slotindex.SlotIndex`, a ``list[_GPUState]`` runs
    the linear GPU scan.  ``indexed`` (default) picks which one a full
    schedule starts from (:meth:`make_index`).  Placements are
    byte-identical either way — the index is keyed by first-fit order and
    probes slots in the same preference order — so ``indexed=False``
    exists only as the reference path for the identity property test and
    the perf harness's naive baseline.

    ``reserved`` holds GPU ids that no GPU in the order carries but that
    a fresh GPU must not take: the deployment manager's retired ledger
    (failed or preempted devices that may come back), passed by the
    incremental callers.  A fresh GPU takes one past the largest id in
    the order or in ``reserved``.
    """

    def __init__(
        self,
        optimize: bool = True,
        threshold: int = OPTIMIZATION_GPC_THRESHOLD,
        geometry: PartitionGeometry = MIG_GEOMETRY,
        indexed: bool = True,
        reserved: Collection[int] = (),
    ) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.optimize = optimize
        self.threshold = threshold
        self.geometry = geometry
        self.indexed = indexed
        #: the lowest id a fresh GPU may take whatever the order holds
        self._fresh_floor = max(reserved, default=-1) + 1

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def make_index(self) -> GPUOrder:
        """An empty allocator state: a :class:`LiveFleet` when indexed,
        a plain list (the naive scan) otherwise.

        The start of every full schedule; the incremental callers (SIII-F
        updates, failover) start from the deployment manager's live fleet
        or from its rebuilt list instead.
        """
        if self.indexed:
            return LiveFleet((), {}, ())
        return []

    def allocate(self, services: Sequence[Service]) -> Placement:
        """Full Algorithm 2: relocation, then optional optimization."""
        gpus = self.segment_relocation(services)
        if self.optimize:
            gpus = self.allocation_optimization(gpus, services)
        return self._to_placement(gpus)

    def segment_relocation(self, services: Sequence[Service]) -> GPUOrder:
        """``SEGMENTRELOCATION`` (Algorithm 2 lines 3-10)."""
        gpus = self.make_index()
        self.relocate(gpus, (seg for svc in services for seg in svc.segments()))
        return gpus

    def allocation_optimization(
        self, gpus: GPUOrder, services: Services
    ) -> GPUOrder:
        """``ALLOCATIONOPTIMIZATION`` (Algorithm 2 lines 13-30).

        Over a :class:`LiveFleet` the drain pass visits only the GPUs its
        light set and touched keys name — the only ones that can be
        at/below the threshold.  ``services`` is looked up by id (see
        :func:`~repro.core.service.service_index`); a drain candidate
        hosting a service it lacks raises a ValueError naming every
        hosted service it lacks.
        """
        by_id = service_index(services)
        freed_rate: dict[str, float] = {}
        order: Iterable[int] = (
            gpus.drain_order(self.threshold)
            if isinstance(gpus, LiveFleet)
            else range(len(gpus) - 1, -1, -1)
        )
        for pos in order:
            state = gpus[pos]
            if state.is_empty or state.used_gpcs > self.threshold:
                continue
            if state.geometry.name != self.geometry.name:
                # Mixed re-planning (SLO update / failover over a
                # heterogeneous placement): draining a foreign-geometry GPU
                # would re-cover its load with segments carrying the wrong
                # geometry's profiled throughput.  Leave it untouched.
                continue
            try:
                owners = [by_id[seg.service_id] for seg, _ in state.placed]
            except KeyError:
                raise _missing_services(gpus, by_id) from None
            if not all(
                self._small_triplets(svc, self.geometry.small_sizes)
                for svc in owners
            ):
                continue  # some service cannot be expressed as small segments
            if isinstance(gpus, LiveFleet):
                state = gpus.index.writable(pos)
                gpus.index.touch(pos)  # the drained GPU can host again
            smalls: list[Segment] = []
            for seg, svc in zip(state.free_all(), owners):
                freed_rate[svc.id] = freed_rate.get(svc.id, 0.0) + seg.throughput
                for small in self._small_segments(
                    svc, freed_rate[svc.id], self.geometry
                ):
                    freed_rate[svc.id] -= small.throughput
                    smalls.append(small)
            self.relocate(gpus, smalls)
        self._compact(gpus)
        return gpus

    def _compact(self, gpus: GPUOrder) -> None:
        """Pull small segments from the back into earlier GPUs' holes.

        The final step of "reallocating them to empty spaces, starting from
        the front GPUs": any segment no larger than the geometry's
        ``compact_max_size`` on a later GPU that fits a hole on an earlier
        GPU moves there, so free capacity concentrates at the allocation
        frontier instead of lingering as external fragmentation (and a
        fully-drained tail GPU is released).

        The list path is the reference: it visits every GPU from the back
        and probes every earlier one.  Over a :class:`LiveFleet` the walk
        makes the same moves in the same order but stops only where one
        can happen: it visits only GPUs that host a compactable segment
        (:meth:`LiveFleet.compact_order`), answers each probe from the
        cached lowest feasible GPU per slot key
        (:class:`~repro.core.slotindex.CompactionHeads`), and ends at the
        lowest of those heads — moves only fill holes in front of the
        cursor, so no GPU at or in front of it could move anything.
        """
        if isinstance(gpus, LiveFleet):
            self._compact_indexed(gpus)
            return
        for gi in range(len(gpus) - 1, 0, -1):
            state = gpus[gi]
            for seg, start in sorted(state.placed, key=lambda p: p[0].instance_size):
                if seg.instance_size > state.geometry.compact_max_size:
                    continue
                for earlier in gpus[:gi]:
                    if (
                        earlier.try_place(seg) is not None
                        or earlier.try_place(seg, fallback=True) is not None
                    ):
                        state.placed.remove((seg, start))
                        state.layout.remove(
                            state.geometry.place(seg.instance_size, start)
                        )
                        break

    @staticmethod
    def _compact_indexed(gpus: LiveFleet) -> None:
        """:meth:`_compact`'s walk over a :class:`LiveFleet`."""
        index = gpus.index
        heads = CompactionHeads(index)
        for gi in gpus.compact_order(heads):
            floor = heads.floor()
            if floor is None or gi <= floor:
                break
            gpus.compact_visits += 1
            state = gpus[gi]
            for seg, start in sorted(state.placed, key=lambda p: p[0].instance_size):
                if seg.instance_size > state.geometry.compact_max_size:
                    continue
                if heads.place(seg, limit=gi) is not None:
                    gpus.compact_moves += 1
                    state = index.writable(gi)
                    state.placed.remove((seg, start))
                    state.layout.remove(
                        state.geometry.place(seg.instance_size, start)
                    )
                    index.touch(gi)

    # ------------------------------------------------------------------ #
    # ALLOCATION (shared by both stages)
    # ------------------------------------------------------------------ #

    def relocate(self, gpus: GPUOrder, segments: Iterable[Segment]) -> None:
        """``ALLOCATION``: enqueue ``segments`` per size and drain the
        queues largest-size first onto the GPU order — the step every
        relocation shares (a full schedule's, the optimization pass's, an
        SIII-F update's and a failover's).

        Per segment: first-fit over every GPU's *preferred* slots, then over
        fallback slots, then a fresh GPU — so (on MIG) a size-2 only
        occupies the upper half (slots 4/5) once no lower-half position
        exists anywhere, and a size-3 never blocks slice 3 by sitting at
        slot 0.  On a :class:`LiveFleet` the probe is a slot-index lookup
        instead of a linear scan; the winning GPU and slot are identical.
        Fresh GPUs are numbered past every id in the order and every
        reserved one.
        """
        sizes = sorted(self.geometry.instance_sizes, reverse=True)
        queues: dict[int, list[Segment]] = {size: [] for size in sizes}
        for seg in segments:
            queues[seg.instance_size].append(seg)
        index: Optional[SlotIndex] = None
        if isinstance(gpus, LiveFleet):
            index = gpus.index
            next_gpu_id = gpus.next_gpu_id()
        else:
            next_gpu_id = max((g.gpu_id for g in gpus), default=-1) + 1
        next_gpu_id = max(next_gpu_id, self._fresh_floor)
        geometry = self.geometry
        for queue in queues.values():
            for seg in queue:
                if index is not None:
                    placed = index.place(seg) is not None
                else:
                    placed = any(
                        state.try_place(seg) is not None for state in gpus
                    ) or any(
                        state.try_place(seg, fallback=True) is not None
                        for state in gpus
                    )
                if not placed:
                    state = _GPUState(gpu_id=next_gpu_id, geometry=geometry)
                    next_gpu_id += 1
                    gpus.append(state)
                    if state.try_place(seg) is None:  # pragma: no cover
                        raise RuntimeError(
                            f"segment {seg.describe()} unplaceable on empty GPU"
                        )

    # ------------------------------------------------------------------ #
    # SMALLSEGMENTS
    # ------------------------------------------------------------------ #

    @staticmethod
    def _small_triplets(
        service: Service, small_sizes: tuple[int, ...] = MIG_GEOMETRY.small_sizes
    ) -> list[ProfileEntry]:
        """The service's small-size optimal triplets, best tp/slice first."""
        entries = [
            service.opt_tri_array[s]
            for s in small_sizes
            if s in service.opt_tri_array
        ]
        entries.sort(key=lambda e: e.throughput_per_gpc, reverse=True)
        return entries

    @classmethod
    def _small_segments(
        cls,
        service: Service,
        amount: float,
        geometry: PartitionGeometry = MIG_GEOMETRY,
    ) -> list[Segment]:
        """Cover ``amount`` requests/s with small segments (SIII-E2).

        Greedy on throughput-per-slice, but the final chunk drops to the
        smallest triplet that still covers the remainder so the split emits
        minimal capacity surplus.
        """
        if amount <= 0:
            return []
        entries = cls._small_triplets(service, geometry.small_sizes)
        if not entries:
            return []
        smallest_cover = sorted(entries, key=lambda e: e.throughput)
        out: list[Segment] = []
        remaining = amount
        while remaining > 0:
            final = next(
                (e for e in smallest_cover if e.throughput >= remaining), None
            )
            if final is not None:
                out.append(Segment.from_entry(service.id, final, geometry))
                break
            best = entries[0]
            out.append(Segment.from_entry(service.id, best, geometry))
            remaining -= best.throughput
        return out

    # ------------------------------------------------------------------ #
    # result assembly
    # ------------------------------------------------------------------ #

    @staticmethod
    def _to_placement(gpus: Iterable[_GPUState]) -> Placement:
        """Build the deployment map, *preserving* GPU ids.

        Ids are kept (not renumbered) so that incremental callers — the
        SIII-F SLO-update path and failover — produce maps whose unchanged
        segments still match the running cluster instance-for-instance.
        """
        placement = Placement(framework="parvagpu")
        for state in gpus:
            if not state.is_empty:
                placement.gpus.append(plan_from_state(state))
        return placement
