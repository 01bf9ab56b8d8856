"""Property: the batched numpy closed form equals the per-batch kernel.

:func:`~repro.sim.fastpath._closed_form` solves every segment of a call
in one numpy pass where its regime applies — batches dispatched at
their fill instants, up to ``num_processes`` of them in flight — and
returns None for the rest.  Over generated calls of one to twelve
segments (one to four MPS processes, varied batch, SLO and latency;
uniform, jittered, bursty and exactly-tied arrival arrays, many cut to
a few dozen batches), every row it returns must equal
:func:`~repro.sim.fastpath._simulate_segment`'s in every field the stats
fingerprint and compliance read, with the float sums within
:meth:`~repro.sim.metrics.SimulationReport.close_to`'s tolerance, and
every row of a call must equal that segment's singleton call exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.fastpath as fastpath
from repro.sim.arrivals import uniform_arrivals
from repro.sim.fastpath import (
    _arrival_counts,
    _closed_form,
    _SegmentKernel,
    _simulate_segment,
)

MODELS = ("resnet-50", "mobilenetv2", "densenet-121", "vgg-16")


def _close(a, b):
    """``SimulationReport.close_to``'s per-value test."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _before(t, gap):
    """A float ``x`` with ``x + gap == t`` exactly, if one of the floats
    next to ``t - gap`` has it (else None): a head whose flush deadline,
    or a fill whose completion, is exactly ``t``."""
    x = t - gap
    for _ in range(8):
        got = x + gap
        if got == t:
            return x
        x = float(np.nextafter(x, np.inf if got < t else -np.inf))
    return None


def _tied(kernel, duration_s, rng):
    """Arrivals where each fill lands exactly on the completion of one
    of the last ``num_processes`` batches (at some concurrency) or on its
    head's flush deadline, and the trailing batch's flush deadline lands
    exactly on a completion."""
    batch, procs = kernel.batch_size, kernel.num_processes
    flush_s = kernel.policy.flush_wait_ms / 1e3
    exec_s = [kernel.latency_ms(batch, c) / 1e3 for c in range(1, procs + 1)]
    times: list[float] = []
    fills: list[float] = []
    head = 0.01
    # half the arrays never fill at a flush deadline: such a fill is at
    # the edge of the flush budget, which the closed form declines
    completion_ties = 0.8 if rng.random() < 0.5 else 1.0
    while head < duration_s:
        if not fills:
            fill = head + float(rng.uniform(0.0, flush_s))
        elif rng.random() < completion_ties:
            # as an earlier batch completes, if it ran at concurrency c
            back = 1 if rng.random() < 0.7 else min(2, len(fills))
            fill = fills[-back] + exec_s[int(rng.integers(0, procs))]
        else:
            fill = kernel.policy.flush_deadline(head)
        fill = max(fill, head)
        if batch > 1:
            middle = np.sort(rng.uniform(head, fill, size=batch - 2))
            times += [head, *middle.tolist(), fill]
        else:
            times.append(fill)
        fills.append(fill)
        head = fill + float(rng.uniform(0.0, exec_s[0])) * (rng.random() < 0.8)
    rest = int(rng.integers(0, batch))
    tail = _before(fills[-1] + exec_s[0], flush_s) if rest else None
    if tail is not None and tail >= times[-1]:
        times += [tail] * rest
    return np.array(times, dtype=np.float64)


def _arrivals(kernel, pattern, load, duration_s, seed):
    """``pattern`` arrivals at ``load`` times the rate at which one
    process's concurrency-1 batches would just stop overlapping."""
    rng = np.random.default_rng(seed)
    batch = kernel.batch_size
    rate = load * batch * 1e3 / kernel.latency_ms(batch, 1)
    base = uniform_arrivals(rate, duration_s)
    if pattern == "uniform":
        return base
    if pattern == "jittered":
        gap = 1.0 / rate
        return np.sort(base + rng.uniform(-0.3 * gap, 0.3 * gap, len(base)))
    if pattern == "bursty":
        # clumps of same-instant arrivals separated by idle gaps; in half
        # the arrays each clump fills whole batches, which then dispatch
        # together at one instant
        sizes = rng.integers(1, 3 * batch, size=len(base) // batch + 1)
        if rng.random() < 0.5:
            sizes = batch * rng.integers(1, 3, size=len(sizes))
        gaps = rng.exponential(batch / rate, size=len(sizes))
        return np.repeat(np.cumsum(gaps), sizes)[: len(base)]
    return _tied(kernel, duration_s, rng)


kernels = st.tuples(
    st.sampled_from(MODELS),
    st.sampled_from([1.0, 2.0, 3.0]),  # GPCs
    st.sampled_from([1, 2, 4, 8, 16]),  # batch
    st.integers(min_value=1, max_value=4),  # MPS processes
    st.floats(min_value=5.0, max_value=80.0),  # planned latency (ms)
    st.floats(min_value=20.0, max_value=600.0),  # SLO (ms)
)

segments = st.tuples(
    kernels,
    st.sampled_from(["uniform", "jittered", "bursty", "tied"]),
    st.floats(min_value=0.2, max_value=3.0),  # load (>1: batches overlap)
    st.integers(min_value=0, max_value=2**16),  # rng seed
    # full batches the array is cut to (None: uncut), plus a tail
    st.one_of(st.none(), st.integers(min_value=2, max_value=31)),
)

windows = st.tuples(
    st.sampled_from([0.5, 1.0, 2.0]),  # duration
    st.floats(min_value=0.0, max_value=0.4),  # warmup
    st.booleans(),  # the run stops before the last arrival
)


def _segment(params, pattern, load, seed, cut, duration_s):
    model, gpcs, batch, procs, latency_ms, slo_ms = params
    kernel = _SegmentKernel(
        model, gpcs, batch, procs, latency_ms, slo_ms, sm_count=42
    )
    times = _arrivals(kernel, pattern, load, duration_s, seed)
    if cut is not None:
        times = times[: cut * batch + seed % batch]
    return kernel, times


def _solve(misses, duration_s, warmup_s, until):
    """One call of the closed form, as ``_resolve_rows`` makes it."""
    counts = _arrival_counts(misses, duration_s)
    return _closed_form(misses, counts, warmup_s, until)


def _singleton(kernel, times, warmup_s, until):
    return _solve([(kernel, 0.0, times)], 2.0, warmup_s, until)[0]


def _assert_same(got, want):
    """``got`` (a closed-form row) equals the per-batch kernel's row in
    every exact field, and its sums pass ``close_to``."""
    batches, violations, requests, lat_sum, lat_max, busy, steps = got
    assert (batches, violations, requests, steps) == (
        want[0], want[1], want[2], want[6]
    )
    assert lat_max == want[4]
    assert _close(lat_sum, want[3])
    assert _close(busy, want[5])


# one saturated segment (declined) between two the closed form solves,
# the last one pipelined over a dozen overlapping batches
_MIXED = [
    (("resnet-50", 2.0, 8, 1, 25.0, 300.0), "uniform", 0.5, 1, None),
    (("resnet-50", 2.0, 8, 1, 25.0, 300.0), "uniform", 3.0, 2, None),
    (("resnet-50", 2.0, 4, 3, 25.0, 300.0), "uniform", 1.5, 3, 12),
]


@given(st.lists(segments, min_size=1, max_size=12), windows)
@example(_MIXED, (1.0, 0.25, False))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_closed_form_matches_per_batch_kernel(call, window):
    duration_s, warmup_s, cut = window
    until = 0.7 * duration_s if cut else duration_s + 1.0
    runs = [_segment(*seg, duration_s) for seg in call]
    rows = _solve(
        [(kernel, 0.0, times) for kernel, times in runs],
        duration_s, warmup_s, until,
    )
    assert len(rows) == len(runs)
    for (kernel, times), got in zip(runs, rows):
        # a row depends on its segment alone, sums included
        assert got == _singleton(kernel, times, warmup_s, until)
        if got is None:
            continue  # outside the regime: the per-batch kernel runs
        want = _simulate_segment(kernel, times, warmup_s, until).row()
        _assert_same(got, want)


def test_mixed_example_accepts_and_declines():
    """The ``@example`` call above mixes both outcomes."""
    runs = [_segment(*seg, 1.0) for seg in _MIXED]
    rows = _solve(
        [(kernel, 0.0, times) for kernel, times in runs], 1.0, 0.25, 2.0
    )
    assert [row is None for row in rows] == [False, True, False]
    kernel, times = runs[2]
    fills = times[3 : len(times) // 4 * 4 : 4]
    assert (fills[:-1] + kernel.exec_s[0] >= fills[1:]).any()


def test_generated_arrays_reach_every_regime():
    """The generators are not vacuous: over the same draws as above,
    the closed form resolves pipelined segments (several processes,
    batches overlapping), short ones among them, and declines others."""
    resolved = declined = pipelined = short = 0
    rng = np.random.default_rng(7)
    runs = []
    for i in range(120):
        procs = 1 + i % 4
        kernel = _SegmentKernel(
            MODELS[i % len(MODELS)], 2.0, 8, procs, 25.0, 300.0, sm_count=42
        )
        load = float(rng.uniform(0.3, 3.0))
        pattern = ("uniform", "jittered", "bursty", "tied")[i % 4]
        times = _arrivals(kernel, pattern, load, 2.0, i)
        if i % 3 == 0:
            times = times[: 8 * (2 + i % 30)]
        runs.append((kernel, times))
    rows = _solve(
        [(kernel, 0.0, times) for kernel, times in runs], 2.0, 0.25, 3.0
    )
    for (kernel, times), got in zip(runs, rows):
        if got is None:
            declined += 1
            continue
        resolved += 1
        fills = times[7 : len(times) // 8 * 8 : 8]
        overlap = fills[:-1] + kernel.exec_s[0] >= fills[1:]
        if kernel.num_processes > 1 and overlap.any():
            pipelined += 1
            short += len(fills) < 32
    assert resolved and declined and pipelined and short


@pytest.mark.parametrize("rate", [40.0, 97.5, 410.0, 613.25])
def test_uniform_segments_need_no_array(rate):
    """A uniform segment's arrivals are derived from its rate: its row
    equals the row of the materialised array, bit for bit."""
    kernel = _SegmentKernel("resnet-50", 2.0, 8, 2, 25.0, 300.0, 42)
    times = uniform_arrivals(rate, 1.5)
    derived = _solve([(kernel, rate, None)], 1.5, 0.25, 2.5)
    given = _solve([(kernel, rate, times)], 1.5, 0.25, 2.5)
    assert derived == given
    assert derived[0] is not None


def test_a_call_split_into_passes_keeps_its_rows(monkeypatch):
    """Passes are bounded by a batch count; where a call is split does
    not change its rows."""
    rng = np.random.default_rng(3)
    misses = []
    for i in range(10):
        kernel = _SegmentKernel(
            MODELS[i % len(MODELS)], 2.0, 4, 1 + i % 3, 20.0, 250.0, 42
        )
        rate = float(rng.uniform(50.0, 600.0))
        misses.append((kernel, rate, None if i % 2 else
                       uniform_arrivals(rate, 1.0)))
    whole = _solve(misses, 1.0, 0.25, 2.0)
    monkeypatch.setattr(fastpath, "_CLOSED_FORM_CHUNK", 40)
    assert _solve(misses, 1.0, 0.25, 2.0) == whole
    assert any(row is not None for row in whole)


@pytest.mark.parametrize("case", ["batch-overdue", "tail-overdue", "tail-tie"])
def test_declines_a_completion_at_the_flush_budget_edge(case):
    """A completion can land where the per-batch kernel's float overdue
    test ``(now - head) * 1e3 >= flush_wait_ms`` disagrees with the
    flush deadline ``head + flush_wait_ms / 1e3``: an ulp before a fill
    at the deadline (the kernel flushes the waiting batch early), an
    ulp before the tail's deadline (it flushes the tail early), or on
    the tail's deadline itself with the test false (the tail never
    flushes).  The closed form must decline all three."""
    # one process whose batch runs longer than the 281 ms flush budget
    kernel = _SegmentKernel("resnet-50", 2.0, 2, 1, 300.0, 583.0, sm_count=42)
    flush_ms = kernel.policy.flush_wait_ms
    flush_s = flush_ms / 1e3
    exec_s = kernel.latency_ms(2, 1) / 1e3
    rng = np.random.default_rng(11)
    for head in rng.uniform(0.05, 1.0, size=20_000).tolist():
        deadline = kernel.policy.flush_deadline(head)
        if case == "tail-tie":
            done = deadline
            edge = (done - head) * 1e3 < flush_ms
        else:
            done = float(np.nextafter(deadline, -np.inf))
            edge = (done - head) * 1e3 >= flush_ms
        fill = _before(done, exec_s) if edge else None
        if fill is not None and fill <= head:
            break
    else:
        pytest.fail("no float edge found")
    times = [fill, fill, head]
    if case == "batch-overdue":
        times.append(head + flush_s)  # batch 1 fills at its deadline
    times = np.array(times)
    assert _singleton(kernel, times, 0.0, 3.0) is None


def _assert_matches(kernel, times):
    got = _singleton(kernel, times, 0.0, 3.0)
    assert got is not None  # the regime applies
    _assert_same(got, _simulate_segment(kernel, times, 0.0, 3.0).row())


@pytest.mark.parametrize("procs", [2, 3])
def test_a_completion_at_a_fill_is_still_running(procs):
    """Each fill lands exactly on the previous batch's concurrency-1
    completion.  Arrivals run before completions, so the fill finds that
    batch still running and dispatches at concurrency 2."""
    kernel = _SegmentKernel("resnet-50", 2.0, 2, procs, 25.0, 300.0, 42)
    exec_s = kernel.latency_ms(2, 1) / 1e3
    fills = [0.01]
    for _ in range(40):
        fills.append(fills[-1] + exec_s)
    times = np.array([t for fill in fills for t in (fill - 1e-4, fill)])
    _assert_matches(kernel, times)


def test_the_tail_counts_every_batch_running_at_its_deadline():
    """Three processes pipelining two batches at a time, and a tail whose
    short flush deadline falls while both are still running: the tail
    dispatches as the third concurrent batch."""
    kernel = _SegmentKernel("resnet-50", 2.0, 2, 3, 25.0, 30.0, 42)
    lat = [kernel.latency_ms(2, c) / 1e3 for c in (1, 2)]
    gap = (lat[1] / 2 + lat[0]) / 2  # overlaps at 1, never three at 2
    fills = [0.01 + k * gap for k in range(40)]
    head = fills[-1] + 5e-4
    deadline = kernel.policy.flush_deadline(head)
    assert fills[-2] + lat[1] > deadline  # both last batches still run
    times = np.array(
        [t for fill in fills for t in (fill - 1e-3, fill)] + [head]
    )
    _assert_matches(kernel, times)


@pytest.mark.parametrize("procs", [1, 2])
def test_declines_a_tail_that_finds_no_free_process(procs):
    """Full batches fill in clumps, each clump at one instant, and the
    tail's head arrives with the last clump; its 3 ms flush budget runs
    out while all ``procs`` batches of that clump still run, so the tail
    dispatches at a completion, not at its deadline."""
    kernel = _SegmentKernel("resnet-50", 2.0, 2, procs, 25.0, 30.0, 42)
    assert kernel.policy.flush_wait_ms == 3.0 < kernel.exec_s[0] * 1e3
    clumps = [0.01 + 0.1 * k for k in range(6)]
    times = np.array(
        [t for t in clumps for _ in range(2 * procs)] + [clumps[-1]]
    )
    assert _singleton(kernel, times, 0.0, 3.0) is None
    # without the tail, the same clumps are in the regime
    _assert_matches(kernel, times[:-1])


def test_a_batch_running_beyond_the_window_is_not_missed():
    """Latency that grows steeply with concurrency lets a batch run past
    later ones: batch 2 starts as the third concurrent batch (100 ms),
    and batches 3-5 each start and finish at concurrency 2 (12 ms) while
    it runs, so fill 6 finds batch 2 — four batches back, beyond the
    ``num_processes`` the count looks at — still running.  The closed
    form must not dispatch batch 6 at concurrency 1."""
    kernel = _SegmentKernel("resnet-50", 2.0, 1, 3, 5.0, 500.0, 42)
    for c, ms in enumerate((10.0, 12.0, 100.0), start=1):
        kernel._lat[(1, c)] = ms
    kernel.exec_s = tuple(kernel.latency_ms(1, c) / 1e3 for c in (1, 2, 3))
    times = 0.01 + np.array([0.0, 1.0, 2.0, 14.0, 27.0, 40.0, 53.0]) / 1e3
    want = _simulate_segment(kernel, times, 0.0, 3.0).row()
    got = _singleton(kernel, times, 0.0, 3.0)
    if got is not None:
        _assert_same(got, want)
    # batch 6 really runs at concurrency 2: at 1 the latency sum differs
    assert want[3] == pytest.approx(
        (10 + 12 + 100 + 12 + 12 + 12 + 12) * 1.0
    )
