"""Property: aligned identity scans over generated edit scripts.

:func:`~repro.core.align.aligned` is what the serving measurement's
plan layer and the state check use to find what changed between two
snapshots of a list.  Each test starts from a list of distinct objects
and applies an edit script — in-place replacements, deletions and
appends (the edits the deployment manager makes), plus moves and
repeats — and checks:

- the runs pair the very same objects, in order, and with the added and
  dropped positions they cover both lists exactly once;
- :func:`~repro.core.align.spliced` of the old list, the runs and the
  added objects rebuilds the new list;
- without moves and repeats, the added and dropped positions are exactly
  the edited ones;
- :func:`~repro.core.align.changed_at` agrees with a plain loop.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.align import aligned, changed_at, spliced


class Item:
    """A value compared by identity only."""

    __slots__ = ("tag",)

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def __repr__(self) -> str:
        return self.tag


#: ``(kind, where, to, length)``: ``where`` and ``to`` are fractions of
#: the list's length at that step, ``length`` a run of positions
edits = st.tuples(
    st.sampled_from(["replace", "delete", "append", "move", "repeat"]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=8),
)


def _apply(old, script):
    """``old`` edited by ``script``, and whether any edit was a move or
    a repeat."""
    new = list(old)
    fresh = 0
    reordered = False
    for kind, where, to, length in script:
        if kind == "append" or not new:
            for _ in range(length):
                new.append(Item(f"n{fresh}"))
                fresh += 1
            continue
        p = int(where * len(new))
        q = int(to * len(new))
        if kind == "replace":
            for i in range(p, min(p + length, len(new))):
                new[i] = Item(f"n{fresh}")
                fresh += 1
        elif kind == "delete":
            del new[p:p + length]
        elif kind == "move":
            new.insert(q, new.pop(p))
            reordered = True
        else:  # repeat
            new.insert(q, new[p])
            reordered = True
    return new, reordered


def _same(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


@given(
    st.integers(min_value=0, max_value=40),
    st.lists(edits, max_size=8),
)
@example(30, [("delete", 0.1, 0.0, 8), ("replace", 0.5, 0.0, 6)])
@example(12, [("move", 0.0, 1.0, 1), ("append", 0.0, 0.0, 2)])
@example(12, [("repeat", 0.5, 0.0, 1), ("repeat", 0.5, 0.9, 1)])
@settings(max_examples=400, deadline=None, derandomize=True)
def test_aligned_matches_the_edit_script(size, script):
    old = [Item(f"o{j}") for j in range(size)]
    new, reordered = _apply(old, script)
    runs, added, dropped = aligned(new, old)

    # runs pair the very same objects, in order, without overlap
    end_new = end_old = 0
    for a, b, k in runs:
        assert k > 0 and a >= end_new and b >= end_old
        assert _same(new[a:a + k], old[b:b + k])
        end_new, end_old = a + k, b + k
    # with added and dropped, the runs cover each list exactly once
    covered_new = [i for a, _, k in runs for i in range(a, a + k)]
    covered_old = [j for _, b, k in runs for j in range(b, b + k)]
    assert sorted(covered_new + added) == list(range(len(new)))
    assert sorted(covered_old + dropped) == list(range(len(old)))
    assert added == sorted(added) and dropped == sorted(dropped)

    assert _same(spliced(old, runs, [new[i] for i in added]), new)

    if not reordered:
        kept = set(map(id, new)) & set(map(id, old))
        assert added == [i for i, x in enumerate(new) if id(x) not in kept]
        assert dropped == [j for j, x in enumerate(old) if id(x) not in kept]


@given(
    st.integers(min_value=0, max_value=30),
    st.lists(edits, max_size=6),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_changed_at_is_a_plain_identity_loop(size, script):
    old = [Item(f"o{j}") for j in range(size)]
    new, _ = _apply(old, script)
    for a, b in ((new, old), (old, new), (old, list(old))):
        want = [p for p in range(min(len(a), len(b))) if a[p] is not b[p]]
        assert changed_at(a, b) == want
