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
(``interleave=False``), while the compaction pass tries preferred-then-
fallback per GPU (``interleave=True``).  A ``limit`` bounds the search to
keys below a cutoff, which is how compaction only looks at GPUs in
front of the segment being moved.

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

#: Heap key: (geometry registry name, instance size, is_fallback).
_Key = tuple[str, int, bool]


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
        Idempotent; shrinking events need no call.
        """
        self.touched.add(pos)
        state = self._states[pos]
        if state.blocked:  # retired id sentinels never host anything
            return
        geometry = state.geometry
        for size in geometry.instance_sizes:
            for fallback in (False, True):
                self._push((geometry.name, size, fallback), pos)

    def _push(self, key: _Key, pos: int) -> None:
        members = self._members.setdefault(key, set())
        if pos not in members:
            members.add(pos)
            heapq.heappush(self._heaps.setdefault(key, []), pos)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def first_candidate(
        self,
        geometry_name: str,
        size: int,
        fallback: bool = False,
        limit: Optional[int] = None,
    ) -> Optional[int]:
        """Lowest GPU key that can host ``size`` right now, or None.

        ``limit`` restricts the answer to keys strictly below it.
        Infeasible (or discarded) heap heads are popped for good —
        feasibility only returns via ``touch``/``add``; a feasible head
        at/beyond ``limit`` stays.
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
                if limit is not None and pos >= limit:
                    return None
                return pos
            heapq.heappop(heap)
            members.discard(pos)
        return None

    def has_hole_below(self, limit: int) -> bool:
        """Can any GPU keyed below ``limit`` take a compactable segment?

        Compactable means no larger than its geometry's
        ``compact_max_size`` — the segments compaction moves.  Holes in
        front of a compaction cursor only ever shrink, so once this is
        False it stays False for every smaller ``limit``.
        """
        for name, size, fallback in self._heaps:
            if size > get_geometry(name).compact_max_size:
                continue
            if self.first_candidate(name, size, fallback, limit) is not None:
                return True
        return False

    def place(
        self,
        seg: "Segment",
        limit: Optional[int] = None,
        interleave: bool = False,
    ) -> Optional[int]:
        """First-fit ``seg`` onto an existing GPU; its key, or None.

        ``interleave=False`` replays ``ALLOCATION``'s order: any preferred
        slot anywhere beats every fallback slot.  ``interleave=True``
        replays the compaction order: the first GPU with *either* kind of
        slot wins, preferring its preferred slot on a tie.
        """
        name = seg.geometry.name
        size = seg.instance_size
        preferred = self.first_candidate(name, size, False, limit)
        if interleave:
            fb = self.first_candidate(name, size, True, limit)
            if preferred is None or (fb is not None and fb < preferred):
                pos, use_fallback = fb, True
            else:
                pos, use_fallback = preferred, False
        else:
            if preferred is not None:
                pos, use_fallback = preferred, False
            else:
                pos = self.first_candidate(name, size, True, limit)
                use_fallback = True
        if pos is None:
            return None
        start = self.writable(pos).try_place(seg, fallback=use_fallback)
        if start is None:  # pragma: no cover - candidates are validated
            raise RuntimeError(
                f"slot index returned infeasible GPU {pos} for "
                f"{seg.describe()}"
            )
        self.touched.add(pos)
        return pos
