"""Per-size free-slot indexes — the Segment Allocator's fast path.

Algorithm 2's ``ALLOCATION`` is first-fit: every segment linearly probes
every GPU's preferred slots, then every GPU's fallback slots.  That scan
is O(GPUs x slots) per segment and quadratic over a whole schedule —
invisible at the paper's 8-64 GPU scale, a wall for fleet-scale runs.

:class:`SlotIndex` replaces the probe with a candidate lookup.  For every
``(geometry, instance size, preferred/fallback)`` key it keeps a min-heap
of GPU *order keys* that may still host such an instance.  First-fit
identity is the design constraint, not an accident:

- the heap minimum is exactly the first GPU the linear scan would reach,
  because candidates are keyed by *order key* — the GPU's position in
  the order the naive loop walks — not by GPU id;
- the slot chosen within the winning GPU is ``_GPUState.first_free_slot``,
  the same preference-ordered probe ``try_place`` runs;
- placing a segment only ever *shrinks* feasibility, so entries are never
  pushed after a placement — they go stale in place and are discarded
  lazily when a query finds them infeasible.  Capacity only *grows* on
  segment removal (``touch`` re-registers the GPU).

GPUs are registered under *order keys* chosen by the owner,
:class:`~repro.core.allocator.LiveFleet` — the allocator state of a full
schedule and of every incremental re-plan alike.  Keys survive GPUs
leaving the order (``add``/``discard``), which is what lets one index
live across many incremental re-plans.  Entries of a discarded key go
stale and are dropped lazily, exactly like infeasible ones.

Both of Algorithm 2's probe orders are supported: ``ALLOCATION`` exhausts
preferred slots across the whole fleet before trying any fallback slot
(:meth:`SlotIndex.place`), while the compaction pass tries
preferred-then-fallback per GPU, only on GPUs in front of the segment
being moved (:class:`CompactionHeads`).

Amortized cost: each GPU is pushed O(sizes) times per capacity-growing
event and popped at most once per push, so a schedule of S segments over
G GPUs runs in O((S + G) log G) heap work instead of O(S x G) probes.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Optional

from repro.gpu.geometry import get_geometry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.allocator import _GPUState
    from repro.core.segments import Segment
    from repro.gpu.geometry import PartitionGeometry

#: Heap key: (geometry registry name, instance size, is_fallback).
_Key = tuple[str, int, bool]


def _slot_keys(geometry: "PartitionGeometry") -> tuple[_Key, ...]:
    """The keys a GPU of ``geometry`` can host through: every (size,
    preferred/fallback) pair with a non-empty slot tuple."""
    return tuple(
        (geometry.name, size, fallback)
        for size in geometry.instance_sizes
        for fallback in (False, True)
        if (
            geometry.fallback_slots(size)
            if fallback
            else geometry.preferred_slots(size)
        )
    )


class SlotIndex:
    """Candidate-GPU index over order-keyed ``_GPUState`` objects.

    Starts empty and is maintained through ``add``/``discard``.  Every
    key that changed — a placement landed on it, its capacity grew, it
    was registered — is recorded in ``touched`` until the owner clears
    it.
    """

    def __init__(self) -> None:
        self._states: dict[int, "_GPUState"] = {}
        self._heaps: dict[_Key, list[int]] = {}
        self._members: dict[_Key, set[int]] = {}
        #: geometry name -> the keys ``touch`` registers a GPU under
        self._keys: dict[str, tuple[_Key, ...]] = {}
        #: keys whose state changed since the owner last cleared the set
        self.touched: set[int] = set()

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def add(self, key: int, state: "_GPUState") -> None:
        """Register ``state`` under order ``key``."""
        self._states[key] = state
        self.touch(key)

    def discard(self, key: int) -> None:
        """Forget ``key``; its heap entries go stale and drop lazily."""
        del self._states[key]
        self.touched.discard(key)

    def state(self, key: int) -> "_GPUState":
        return self._states[key]

    def states(self, keys: Iterable[int]) -> list["_GPUState"]:
        """The states under ``keys``, in order."""
        return list(map(self._states.__getitem__, keys))

    def writable(self, key: int) -> "_GPUState":
        """The state under ``key``, ready for a write: a frozen
        (committed) state is first replaced by its thawed copy."""
        state = self._states[key]
        if state.frozen:
            state = self._states[key] = state.thawed()
        return state

    def __contains__(self, key: int) -> bool:
        return key in self._states

    def touch(self, pos: int) -> None:
        """Re-register ``pos`` after its free capacity may have *grown*.

        Pushes the key into every key of the GPU's own geometry
        *without* probing feasibility: candidates are a superset, and
        ``first_candidate`` validates (and lazily discards) them at query
        time anyway.  Probing here would cost O(sizes x slots) per GPU on
        every index build — most of which pays for keys the allocation
        never queries (a failover replan only places the victim's sizes).
        Keys whose slot tuple is empty (on MIG the fallbacks of sizes 3,
        4 and 7, on MI300X every fallback) are skipped: no GPU ever
        hosts through them.  Idempotent; shrinking events need no call.
        """
        self.touched.add(pos)
        state = self._states[pos]
        keys = self._keys.get(state.geometry.name)
        if keys is None:
            keys = self._keys[state.geometry.name] = _slot_keys(state.geometry)
        for key in keys:
            self._push(key, pos)

    def _push(self, key: _Key, pos: int) -> None:
        members = self._members.setdefault(key, set())
        if pos not in members:
            members.add(pos)
            heapq.heappush(self._heaps.setdefault(key, []), pos)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def first_candidate(
        self, geometry_name: str, size: int, fallback: bool = False
    ) -> Optional[int]:
        """Lowest GPU key that can host ``size`` right now, or None.

        Infeasible (or discarded) heap heads are popped for good —
        feasibility only returns via ``touch``/``add``.
        """
        key = (geometry_name, size, fallback)
        heap = self._heaps.get(key)
        if not heap:
            return None
        members = self._members[key]
        states = self._states
        while heap:
            pos = heap[0]
            state = states.get(pos)
            if state is not None and state.has_free_slot(
                size, fallback=fallback
            ):
                return pos
            heapq.heappop(heap)
            members.discard(pos)
        return None

    def place(self, seg: "Segment") -> Optional[int]:
        """First-fit ``seg`` onto an existing GPU in ``ALLOCATION``'s
        order — any preferred slot anywhere beats every fallback slot;
        its key, or None."""
        name = seg.geometry.name
        size = seg.instance_size
        pos = self.first_candidate(name, size)
        fallback = pos is None
        if fallback:
            pos = self.first_candidate(name, size, True)
        if pos is None:
            return None
        self.put(pos, seg, fallback)
        return pos

    def put(self, pos: int, seg: "Segment", fallback: bool) -> None:
        """Place ``seg`` on the GPU under ``pos``, a candidate a query
        returned for its size and slot kind."""
        if self.writable(pos).try_place(seg, fallback=fallback) is None:
            raise RuntimeError(  # pragma: no cover - candidates are validated
                f"slot index returned infeasible GPU {pos} for "
                f"{seg.describe()}"
            )
        self.touched.add(pos)


class CompactionHeads:
    """The lowest feasible key of every compactable slot key, cached over
    one compaction walk.

    A compaction cursor walks the keys from the back and only pulls
    segments forward, so the holes in front of it only ever shrink: a
    key's lowest feasible GPU stays its lowest feasible GPU until a
    segment lands *on* it, when :meth:`place` re-resolves every key that
    GPU headed.  A GPU the cursor frees (``SlotIndex.touch``) sits at or
    behind every later cursor, so a head cached in front of it stays
    exact and one cached behind it answers "nothing in front" either way.
    Each query is then a dict lookup instead of a feasibility probe.
    """

    def __init__(self, index: SlotIndex) -> None:
        self.index = index
        #: slot key -> its lowest feasible GPU key (None: no GPU)
        self._heads: dict[_Key, Optional[int]] = {
            key: index.first_candidate(*key)
            for key in index._heaps
            if key[1] <= get_geometry(key[0]).compact_max_size
        }

    def floor(self) -> Optional[int]:
        """The lowest head: a cursor at or in front of it can move
        nothing (None: no GPU can take a compactable segment)."""
        return min(
            (h for h in self._heads.values() if h is not None), default=None
        )

    def lowest(self, name: str, size: int) -> Optional[int]:
        """The lowest GPU that can take a ``size`` segment of geometry
        ``name`` in either kind of slot (None: no GPU)."""
        heads = [
            h for h in (
                self._heads.get((name, size, False)),
                self._heads.get((name, size, True)),
            )
            if h is not None
        ]
        return min(heads, default=None)

    def place(self, seg: "Segment", limit: int) -> Optional[int]:
        """Place ``seg`` in compaction's probe order, answered from the
        cached heads: the first GPU keyed below ``limit`` with either
        kind of slot wins, its preferred slot on a tie; its key, or
        None."""
        name = seg.geometry.name
        size = seg.instance_size
        heads = self._heads
        preferred = heads.get((name, size, False))
        fb = heads.get((name, size, True))
        if preferred is not None and preferred >= limit:
            preferred = None
        if fb is not None and fb >= limit:
            fb = None
        if preferred is None or (fb is not None and fb < preferred):
            pos, use_fallback = fb, True
        else:
            pos, use_fallback = preferred, False
        if pos is None:
            return None
        index = self.index
        index.put(pos, seg, use_fallback)
        for key, head in heads.items():
            if head == pos:
                heads[key] = index.first_candidate(*key)
        return pos
