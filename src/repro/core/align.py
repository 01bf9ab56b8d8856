"""Aligned identity scans: what changed between two snapshots of a list.

The per-interval consumers of a published map — the serving
measurement's plan layer and the state check — keep the lists they last
saw (plans, services, live states) and find what changed by object
identity.  Plans and committed allocator states are frozen, so an
unchanged object is an unchanged value; the scan itself is a C-level
``is not`` over the aligned positions.

The deployment manager edits its lists in three ways: in place (a
re-planned GPU keeps its position), by deleting positions (a GPU or a
service that left) and by appending (a drafted spare, a new GPU, an
arrival).  :func:`aligned` matches the two snapshots as runs of
identical objects in order, so each of those edits costs a scan plus
O(changed) Python, not a re-walk of the whole list.
"""

from __future__ import annotations

from itertools import compress, count
from operator import is_not
from typing import Sequence, TypeVar

T = TypeVar("T")

#: ``(new start, old start, length)``: ``new[a:a+k]`` holds the very
#: objects ``old[b:b+k]`` did
Run = tuple[int, int, int]


def changed_at(new: Sequence[object], old: Sequence[object]) -> list[int]:
    """Positions where two aligned lists hold different objects (a
    C-level identity scan over the shorter length)."""
    if not any(map(is_not, new, old)):  # the common case, and cheaper
        return []
    positions = range(min(len(new), len(old)))
    return list(compress(positions, map(is_not, new, old)))


def _run(new: Sequence[object], old: Sequence[object], i: int, j: int) -> int:
    """How many positions from ``new[i]`` and ``old[j]`` on hold the same
    objects."""
    longest = min(len(new) - i, len(old) - j)
    return next(
        compress(count(), map(is_not, new[i:] if i else new,
                              old[j:] if j else old)),
        longest,
    )


#: how far :func:`aligned` looks ahead for the next match before it
#: indexes ``old``
_LOOKAHEAD = 4


def aligned(
    new: Sequence[object], old: Sequence[object]
) -> tuple[list[Run], list[int], list[int]]:
    """Match ``new`` against ``old`` by object identity, in order.

    Returns ``(runs, added, dropped)``: the matched runs in ascending
    order, the positions of ``new`` no run covers and those of ``old``.
    Every matched pair is the same object and the pairs keep their
    relative order, so ``old`` with ``dropped`` deleted, the runs kept
    and ``added`` filled in is ``new``.  The greedy walk is exact for
    in-place replacements, deletions and appends; an object that moved
    is reported as dropped at its old position and added at its new one.
    """
    n, m = len(new), len(old)
    runs: list[Run] = []
    added: list[int] = []
    dropped: list[int] = []
    where: dict[int, int] = {}
    i = j = 0
    while i < n and j < m:
        k = _run(new, old, i, j)
        if k:
            runs.append((i, j, k))
            i += k
            j += k
            continue
        x = new[i]
        for d in range(1, _LOOKAHEAD):
            if j + d < m and old[j + d] is x:  # old[j:j+d] were deleted
                dropped.extend(range(j, j + d))
                j += d
                break
            if i + d < n and j + d < m and new[i + d] is old[j + d]:
                added.extend(range(i, i + d))  # replaced in place
                dropped.extend(range(j, j + d))
                i += d
                j += d
                break
        else:
            if not where:
                # ids are unique among the live objects ``old`` holds
                where = dict(zip(map(id, old), range(m)))
            q = where.get(id(x), -1)
            if q > j:  # old[j:q] left
                dropped.extend(range(j, q))
                j = q
            else:  # a new object, or one seen before (moved or repeated)
                added.append(i)
                i += 1
    added.extend(range(i, n))
    dropped.extend(range(j, m))
    return runs, added, dropped


def spliced(old: list[T], runs: list[Run], fill: list[T]) -> list[T]:
    """The list aligned with ``new`` whose matched runs hold ``old``'s
    items at the matched positions and whose added positions take
    ``fill``'s, in order (``runs`` from :func:`aligned`)."""
    out: list[T] = []
    i = f = 0
    for a, b, k in runs:
        out += fill[f:f + a - i]
        f += a - i
        out += old[b:b + k]
        i = a + k
    out += fill[f:]
    return out
