"""Property: the numpy closed form equals the per-batch kernel.

:func:`~repro.sim.fastpath._simulate_segment_vectorized` solves a
segment without a Python loop where its regime applies — batches
dispatched at their fill instants, up to ``num_processes`` of them in
flight — and returns None elsewhere.  Over generated kernels (one to
four MPS processes, varied batch, SLO and latency) and arrival arrays
(uniform, jittered, bursty, and arrays built so fills, flush deadlines
and completions tie exactly), whenever it returns a result, every field
the stats fingerprint and compliance read must equal
:func:`~repro.sim.fastpath._simulate_segment`'s, and the float sums
must agree within :meth:`~repro.sim.metrics.SimulationReport.close_to`'s
tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.arrivals import uniform_arrivals
from repro.sim.fastpath import (
    _CLOSED_FORM_MIN_BATCHES,
    _SegmentKernel,
    _simulate_segment,
    _simulate_segment_vectorized,
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

runs = st.tuples(
    st.sampled_from(["uniform", "jittered", "bursty", "tied"]),
    st.floats(min_value=0.2, max_value=3.0),  # load (>1: batches overlap)
    st.sampled_from([0.5, 1.0, 2.0]),  # duration
    st.floats(min_value=0.0, max_value=0.4),  # warmup
    st.integers(min_value=0, max_value=2**16),  # rng seed
    st.booleans(),  # the run stops before the last arrival
)


@given(kernels, runs)
@settings(max_examples=600, deadline=None, derandomize=True)
def test_closed_form_matches_per_batch_kernel(params, run):
    model, gpcs, batch, procs, latency_ms, slo_ms = params
    pattern, load, duration_s, warmup_s, seed, cut = run
    kernel = _SegmentKernel(
        model, gpcs, batch, procs, latency_ms, slo_ms, sm_count=42
    )
    times = _arrivals(kernel, pattern, load, duration_s, seed)
    until = 0.7 * duration_s if cut else duration_s + 1.0
    got = _simulate_segment_vectorized(kernel, times, warmup_s, until)
    if got is None:
        return  # outside the regime: the per-batch kernel runs instead
    want = _simulate_segment(kernel, times, warmup_s, until)
    assert (got.batches, got.violations, got.requests, got.steps) == (
        want.batches, want.violations, want.requests, want.steps
    )
    assert got.latency_max_ms == want.latency_max_ms
    assert _close(got.latency_sum_ms, want.latency_sum_ms)
    assert _close(got.busy_sm_s, want.busy_sm_s)


def test_generated_arrays_reach_every_regime():
    """The generators are not vacuous: over the same draws as above,
    the closed form resolves pipelined segments (several processes,
    batches overlapping, at least the gate's batch count) and declines
    others."""
    resolved = declined = pipelined = 0
    rng = np.random.default_rng(7)
    for i in range(120):
        procs = 1 + i % 4
        kernel = _SegmentKernel(
            MODELS[i % len(MODELS)], 2.0, 8, procs, 25.0, 300.0, sm_count=42
        )
        load = float(rng.uniform(0.3, 3.0))
        pattern = ("uniform", "jittered", "bursty", "tied")[i % 4]
        times = _arrivals(kernel, pattern, load, 2.0, i)
        got = _simulate_segment_vectorized(kernel, times, 0.25, 3.0)
        if got is None:
            declined += 1
            continue
        resolved += 1
        fills = times[7 : len(times) // 8 * 8 : 8]
        overlap = fills[:-1] + kernel.latency_ms(8, 1) / 1e3 >= fills[1:]
        if procs > 1 and overlap.any():
            assert len(fills) >= _CLOSED_FORM_MIN_BATCHES
            pipelined += 1
    assert resolved and declined and pipelined


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
    assert _simulate_segment_vectorized(kernel, times, 0.0, 3.0) is None


def _assert_matches(kernel, times):
    got = _simulate_segment_vectorized(kernel, times, 0.0, 3.0)
    assert got is not None  # the regime applies
    want = _simulate_segment(kernel, times, 0.0, 3.0)
    assert (got.batches, got.violations, got.requests, got.steps) == (
        want.batches, want.violations, want.requests, want.steps
    )
    assert got.latency_max_ms == want.latency_max_ms
    assert _close(got.latency_sum_ms, want.latency_sum_ms)


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
