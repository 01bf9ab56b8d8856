"""Batch-granularity simulation fast path.

:func:`repro.sim.runner.simulate_placement` owes its cost to the
discrete-event engine: one heap event *per request* plus a Python
callback per arrival/flush/completion.  At fleet scale (S9/S11: a
thousand services, minutes of traffic) that is tens of millions of heap
operations — the wall between the scheduler, which PR 2 made fleet-fast,
and any serving-quality measurement at the same scale.

The fast path exploits a structural fact of
:func:`~repro.sim.runner.simulate_placement`: segments are independent.
Each :class:`~repro.sim.server.SegmentServer` owns its queue, executors
and perf model; segments share only the activity tracker and the report
aggregation, and both are additive.  So each segment can be simulated to
completion directly from its pre-generated arrival array with a tight
per-segment kernel:

- dispatch decisions are derived by *index arithmetic* over the sorted
  arrival array (the queue is always a contiguous window ``A[h:arr]``),
- the only remaining heap is a tiny (≤ ``num_processes``-entry) heap of
  in-flight batch completions,
- the loop iterates **per batch** (one dispatch + one completion step
  per batch, ~``batch_size``× fewer steps than per-request events), and
- statistics accumulate in place instead of materialising a
  :class:`~repro.sim.metrics.BatchRecord` callback per batch.

For arrival arrays where every full batch fills before its flush
deadline, every fill finds a free process and any trailing partial
batch flushes on time (the uniform-arrival unsaturated regime),
dispatch and completion times vectorise in numpy
(:func:`_closed_form`): dispatches sit at the fill instants, and when
batches overlap — MPS processes pipelining batches within one instance —
each batch's concurrency is the fixed point of a count over the
computed completions.  One closed-form pass solves every miss of a call
together, short segments included.  Saturated segments (a fill that
finds every process busy, as in most Poisson bursts) and flushes that
fire before a batch fills run on the per-batch kernel
(:func:`_simulate_segment`), which stays the reference.

The kernel replicates the event engine's semantics decision-for-decision
(same dispatch times, batch compositions, concurrencies, warmup gating
and ``until`` cutoff, computed with the same floating-point
expressions), so integer statistics — batches, violations, requests,
completions — and per-batch worst latencies are *bit-identical* to the
reference.  Order-sensitive float accumulations (per-service latency
sums; busy SM-time on the numpy path) can differ in the last ulps
because the engines sum in different orders; the identity check
therefore pairs :meth:`SimulationReport.fingerprint` (exact fields) with
:meth:`SimulationReport.close_to` (sums, at ``rtol=1e-9``).

:func:`simulate_placement_fast` is the one fast orchestration.  A
:class:`SegmentMemo` held across calls resolves unchanged segments from
cache and the misses run inline; one accumulation pass in placement
order builds the report.  :class:`PlanMemo` sits one level above the
segment memo: :func:`~repro.sim.runner.measure_interval` uses it to
serve whole unchanged GPU plans from their last measurement, through
the same lookup and miss path (:func:`_resolve_rows`) for the plans
that did change.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from heapq import heappush, heappop
# ``json.dumps`` of a string, without the encoder object around it
from json.encoder import encode_basestring_ascii as _json_str
from typing import (
    Callable, ClassVar, Iterable, Mapping, NamedTuple, Optional, cast,
)

import numpy as np

from repro.core.align import aligned, changed_at
from repro.core.placement import GPUPlan, PlacedSegment, Placement
from repro.core.service import Service
from repro.models.perf import PerfModel
from repro.models.zoo import get_model
from repro.sim.arrivals import (
    poisson_arrivals,
    uniform_arrivals,
    uniform_count,
)
from repro.sim.batching import BatchPolicy
from repro.sim.metrics import ServiceStats, SimulationReport, check_window

_INF = float("inf")


class _SegmentResult:
    """Accumulated serving statistics of one segment's run."""

    __slots__ = (
        "batches",
        "violations",
        "requests",
        "latency_sum_ms",
        "latency_max_ms",
        "busy_sm_s",
        "steps",
    )

    def __init__(self) -> None:
        self.batches = 0
        self.violations = 0
        self.requests = 0
        self.latency_sum_ms = 0.0
        self.latency_max_ms = 0.0
        self.busy_sm_s = 0.0
        self.steps = 0

    def row(self) -> tuple:
        """The result row :func:`_resolve_rows` returns."""
        return (
            self.batches, self.violations, self.requests,
            self.latency_sum_ms, self.latency_max_ms, self.busy_sm_s,
            self.steps,
        )


class _SegmentKernel:
    """Derived per-segment quantities, mirroring ``SegmentServer.__init__``.

    Built from seven scalar parameters (tests build kernels directly);
    :meth:`from_segment` derives them from a :class:`PlacedSegment`.  The
    latency/busy caches memoize the perf-model evaluations the event
    engine performs per dispatch; the model is pure, so cached values are
    bit-identical to fresh calls.
    """

    def __init__(
        self,
        model: str,
        gpcs: float,
        batch_size: int,
        num_processes: int,
        segment_latency_ms: float,
        slo_ms: float,
        sm_count: int,
    ) -> None:
        self.model = model
        self.gpcs = gpcs
        self.batch_size = batch_size
        self.num_processes = num_processes
        self.segment_latency_ms = segment_latency_ms
        self.slo_ms = slo_ms
        self.perf = PerfModel(get_model(model))
        clean = self.perf.latency_ms(gpcs, batch_size, num_processes)
        self.slowdown = max(1.0, segment_latency_ms / clean)
        self.policy = BatchPolicy(
            batch_size=batch_size,
            slo_ms=slo_ms,
            exec_estimate_ms=segment_latency_ms,
        )
        self.flush_wait_ms = self.policy.flush_wait_ms
        self.sm_count = sm_count
        self._lat: dict[tuple[int, int], float] = {}
        self._busy: dict[int, float] = {}
        #: a full batch's execution seconds at concurrency 1, 2, ...,
        #: ``num_processes``
        self.exec_s = tuple(
            self.latency_ms(batch_size, c) / 1e3
            for c in range(1, num_processes + 1)
        )

    def latency_ms(self, batch: int, concurrency: int) -> float:
        """Execution latency of one dispatch, incl. interference slowdown."""
        key = (batch, concurrency)
        out = self._lat.get(key)
        if out is None:
            out = (
                self.perf.latency_ms(self.gpcs, batch, concurrency)
                * self.slowdown
            )
            self._lat[key] = out
        return out

    def busy_sm_s(self, batch: int) -> float:
        """Busy SM-seconds one dispatch adds to the activity tracker.

        Matches ``tracker.record_busy(key, compute_ms/1e3)``:
        ``(compute_ms / 1e3) * 1.0 * sm_count``, evaluated left to right.
        """
        out = self._busy.get(batch)
        if out is None:
            out = self.perf.compute_ms(self.gpcs, batch) / 1e3 * 1.0
            out = out * self.sm_count
            self._busy[batch] = out
        return out


#: fixed-point rounds before the closed form leaves a segment to the
#: per-batch kernel
_CLOSED_FORM_ROUNDS = 8

#: full batches a call's misses need in total before they take the
#: closed-form pass: below it the per-batch kernel (~2-3 us a batch)
#: costs less than the pass's fixed cost (~170-290 us), measured in
#: docs/architecture.md
_PASS_MIN_BATCHES = 32

#: full batches one closed-form pass lays out at most: a call with more
#: is solved in several passes, which bounds the pass's memory (rows are
#: per segment, so where a call is split does not change them)
_CLOSED_FORM_CHUNK = 1 << 16

#: one segment for the closed form: its kernel, its offered rate and its
#: arrival times (None: uniform arrivals at that rate, never generated)
_Miss = tuple[_SegmentKernel, float, Optional[np.ndarray]]


def _arrival_counts(misses: list[_Miss], duration_s: float) -> list[int]:
    """Each miss's arrival count: its array's length, or what
    :func:`~repro.sim.arrivals.uniform_arrivals` generates."""
    return [
        len(times) if times is not None else uniform_count(rate, duration_s)
        for _kernel, rate, times in misses
    ]


def _closed_form(
    misses: list[_Miss],
    counts: list[int],
    warmup_s: float,
    until: float,
) -> list[Optional[tuple]]:
    """The closed form's row for each of ``misses`` (with ``counts``
    arrivals, from :func:`_arrival_counts`), in order, and None for each
    segment outside its regime (the per-batch kernel's).

    Every full batch ``k`` dispatches at its fill instant
    ``A[k*b + b-1]`` and completes at ``dispatch + latency(b, c_k)``,
    where ``c_k`` is 1 plus the number of earlier batches still running
    at the fill (a completion exactly at a fill is still running:
    arrivals run first).  A segment is in the regime when (checked on
    the actual floats) every full batch fills before its head's flush
    deadline, no completion finds a waiting head overdue, every fill
    finds a free process, the fixed point of ``c`` settles, and the
    trailing partial batch — if any — collects all its requests before
    its own flush deadline and finds a free process there.  The misses
    are solved together, in passes of at most
    :data:`_CLOSED_FORM_CHUNK` full batches; every check and reduction
    is per segment, so a row does not depend on which segments shared
    its pass.
    """
    rows: list[Optional[tuple]] = []
    lo = batches = 0
    for i, (kernel, _rate, _times) in enumerate(misses):
        full = counts[i] // kernel.batch_size
        if batches and batches + full > _CLOSED_FORM_CHUNK:
            rows += _closed_form_pass(
                misses[lo:i], counts[lo:i], warmup_s, until
            )
            lo = i
            batches = 0
        batches += full
    rows += _closed_form_pass(misses[lo:], counts[lo:], warmup_s, until)
    return rows


def _closed_form_pass(
    misses: list[_Miss],
    counts: list[int],
    warmup_s: float,
    until: float,
) -> list[Optional[tuple]]:
    """One pass of :func:`_closed_form`: the segments' full batches laid
    out end to end, each with its segment's index.  Arrival ``i`` of a
    uniform segment is ``(i + 0.5) / rate``, the expression
    :func:`~repro.sim.arrivals.uniform_arrivals` evaluates, so only the
    heads, fills and tail instants are computed, with the same bits."""
    S = len(misses)
    if not S:
        return []
    kernels = [kernel for kernel, _rate, _times in misses]
    n, size, procs = np.array(
        [(c, k.batch_size, k.num_processes) for k, c in zip(kernels, counts)],
        dtype=np.intp,
    ).T
    wait_ms, slo_ms, rates = np.array([
        (k.flush_wait_ms, k.slo_ms, 1.0 if times is not None else rate)
        for k, rate, times in misses
    ]).T
    wait_s = wait_ms / 1e3
    # execution seconds of a full batch at concurrency c + 1:
    # exec_s[exec_at[s] + c]
    exec_s = np.fromiter(
        (e for k in kernels for e in k.exec_s), dtype=np.float64
    )
    exec_at = np.cumsum(procs) - procs
    given = [times for _k, _rate, times in misses if times is not None]
    if given:
        flat = np.concatenate(given)
        explicit = np.array([times is not None for _k, _r, times in misses])
        given_n = np.where(explicit, n, 0)
        first = np.cumsum(given_n) - given_n

    def arrival(seg: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Arrival ``i`` of segment ``seg``, elementwise."""
        t = (i + 0.5) / rates[seg]
        if given:
            m = explicit[seg]
            t[m] = flat[first[seg[m]] + i[m]]
        return t

    live = np.flatnonzero(n)
    last = np.zeros(S)
    last[live] = arrival(live, n[live] - 1)
    ok = ~(last > until)  # the run stops before some batch fills

    full = n // size
    rest = n - full * size
    start = np.cumsum(full) - full
    seg = np.repeat(np.arange(S), full)
    k = np.arange(len(seg)) - start[seg]
    first_i = k * size[seg]
    heads = arrival(seg, first_i)
    fills = arrival(seg, first_i + (size[seg] - 1))

    # a flush would fire before a batch fills
    bad = ~(fills <= heads + wait_s[seg])
    # A completion before a fill could pass the per-batch kernel's float
    # overdue test and flush the batch early; only a fill within ulps of
    # its flush deadline leaves room for that.
    wait = wait_ms[seg]
    bad |= (wait > 0) & ~((fills - heads) * 1e3 < wait)
    ok &= np.bincount(seg[bad], minlength=S) == 0
    comp = fills + exec_s[exec_at[seg]]

    # Batches overlap (MPS pipelining): concurrency exceeds 1 somewhere,
    # and c is the fixed point of a count over the completions.  Its
    # first round finds every fill with no free process at concurrency
    # 1; latency grows with concurrency, so those segments are saturated.
    overlap = (k[1:] > 0) & ~(comp[:-1] < fills[1:])
    active = ok & (np.bincount(seg[1:][overlap], minlength=S) > 0)
    running = np.zeros(len(seg), dtype=np.intp)
    for _ in range(_CLOSED_FORM_ROUNDS):
        if not active.any():
            break
        sel = np.flatnonzero(active[seg])
        sg = seg[sel]
        back = k[sel]
        filled = fills[sel]
        cap = procs[sg]
        # earlier batches still running at the fill, among the procs
        # before it: a completion exactly at a fill is still running
        # (arrivals run first)
        found = np.zeros(len(sel), dtype=np.intp)
        for w in range(1, int(cap.max()) + 1):
            found += (back >= w) & (
                np.take(comp, sel - w, mode="wrap") >= filled
            )
        moved = np.bincount(sg[found != running[sel]], minlength=S) > 0
        saturated = np.bincount(sg[found >= cap], minlength=S) > 0
        ok &= ~(active & moved & saturated)  # a fill finds no process
        active &= moved & ~saturated
        again = active[sg]
        j = sel[again]
        running[j] = found[again]
        comp[j] = fills[j] + exec_s[exec_at[seg[j]] + running[j]]
    ok &= ~active  # the fixed point did not settle
    # The count looks back procs batches.  Fills are sorted, so it is
    # exact where batch k-procs-1 completes before fill k even at the
    # slowest concurrency its segment settled on; a segment with a fill
    # too close to the one procs+1 batches before it is left to the
    # per-batch kernel.
    batched = np.flatnonzero(full)
    slowest = exec_s[exec_at]
    if len(batched):
        slowest[batched] = exec_s[
            exec_at[batched] + np.maximum.reduceat(running, start[batched])
        ]
    behind = np.flatnonzero(k > procs[seg])
    crowded = (
        fills[behind - procs[seg[behind]] - 1] + slowest[seg[behind]]
        >= fills[behind]
    )
    ok &= np.bincount(seg[behind[crowded]], minlength=S) == 0

    # The trailing partial batch flushes at its deadline: every request
    # has arrived by then, and no completion dispatches it earlier.
    tail = np.flatnonzero(ok & (rest > 0))
    head = np.full(S, np.inf)
    deadline = np.full(S, np.inf)
    head[tail] = arrival(tail, full[tail] * size[tail])
    deadline[tail] = head[tail] + wait_s[tail]
    ok &= ~(last > deadline)  # the tail spans several flush windows
    # completions while the tail waits: batches still running at the
    # last fill, so at most `procs` of them
    waits = comp >= head[seg]
    tail_deadline = deadline[seg]
    dispatches_tail = waits & (
        (comp == tail_deadline)
        | ((comp < tail_deadline) & ((comp - head[seg]) * 1e3 >= wait))
    )
    ok &= np.bincount(seg[dispatches_tail], minlength=S) == 0
    tail_running = np.bincount(seg[waits & (comp > tail_deadline)],
                               minlength=S)
    ok &= tail_running < procs  # the tail dispatches at a completion

    measured = (fills >= warmup_s) & (comp <= until)
    worst = (comp - heads) * 1e3
    at = seg[measured]
    worst_measured = worst[measured]
    latency_max = np.zeros(S)
    if len(batched):
        # worst latencies are positive: an unmeasured batch's 0 is no max
        latency_max[batched] = np.maximum.reduceat(
            np.where(measured, worst, 0.0), start[batched]
        )
    columns = zip(
        ok.tolist(),
        full.tolist(),
        rest.tolist(),
        np.bincount(at, minlength=S).tolist(),
        np.bincount(at[worst_measured > slo_ms[at]], minlength=S).tolist(),
        # per segment in batch order: a row is its segment's alone
        np.bincount(at, weights=worst_measured, minlength=S).tolist(),
        latency_max.tolist(),
        np.bincount(seg[fills >= warmup_s], minlength=S).tolist(),
        np.bincount(seg[comp <= until], minlength=S).tolist(),
        tail_running.tolist(),
        head.tolist(),
        deadline.tolist(),
    )
    rows: list[Optional[tuple]] = []
    for kernel, (
        solved, n_full, n_rest, batches, violations, latency_sum,
        worst_ms, busy_dispatches, completed, t_running, t_head, t_disp,
    ) in zip(kernels, columns):
        if not solved:
            rows.append(None)
            continue
        batch = kernel.batch_size
        requests = batches * batch
        steps = n_full + completed
        if n_full:
            latency_sum *= batch
            busy_sm_s = kernel.busy_sm_s(batch) * busy_dispatches
        else:
            busy_sm_s = 0.0
        if n_rest and t_disp <= until:
            t_comp = t_disp + kernel.latency_ms(n_rest, t_running + 1) / 1e3
            steps += 1
            if t_disp >= warmup_s:
                busy_sm_s += kernel.busy_sm_s(n_rest)
            if t_comp <= until:
                steps += 1
                if t_disp >= warmup_s:
                    tail_ms = (t_comp - t_head) * 1e3
                    batches += 1
                    violations += int(tail_ms > kernel.slo_ms)
                    requests += n_rest
                    latency_sum += tail_ms * n_rest
                    if tail_ms > worst_ms:
                        worst_ms = tail_ms
        rows.append((
            batches, violations, requests, latency_sum, worst_ms,
            busy_sm_s, steps,
        ))
    return rows


def _simulate_segment(
    kernel: _SegmentKernel,
    arrivals: np.ndarray,
    warmup_s: float,
    until: float,
) -> _SegmentResult:
    """Per-batch scalar kernel: exact replica of one ``SegmentServer``.

    The queue is the window ``A[h:arr]`` of the sorted arrival array;
    the only heap holds the ≤ ``procs`` in-flight batch completions.
    Event-engine tie-breaking is preserved: at equal timestamps,
    arrivals run before completions (arrivals are scheduled first and
    carry lower sequence numbers), and pending completions run before
    the armed flush (the flush is always armed after the dispatches that
    scheduled those completions).
    """
    out = _SegmentResult()
    n = len(arrivals)
    if n == 0:
        return out
    A = arrivals.tolist()
    batch_size = kernel.batch_size
    procs = kernel.num_processes
    slo_ms = kernel.slo_ms
    flush_wait_ms = kernel.flush_wait_ms
    flush_wait_s = flush_wait_ms / 1e3
    latency_ms = kernel.latency_ms
    busy_sm_s = kernel.busy_sm_s

    heap: list[tuple[float, int, float, float, int]] = []
    seq = 0  # deterministic tie-break among equal completion times
    now = 0.0
    h = 0  # index of the oldest queued (undispatched) arrival
    arr = 0  # arrivals seen so far: the queue is A[h:arr]
    free = procs
    flush_forced = False  # the pending decision point is a flush event

    while True:
        # Exhaust every dispatch legal at `now` (the while-loop body of
        # SegmentServer._try_dispatch, with the queue as an index window).
        while free > 0 and h < arr:
            qlen = arr - h
            head = A[h]
            if not (
                flush_forced
                or qlen >= batch_size
                or (now - head) * 1e3 >= flush_wait_ms
            ):
                break
            flush_forced = False  # a forced flush only covers one batch
            b = qlen if qlen < batch_size else batch_size
            concurrency = procs - free + 1
            exec_ms = latency_ms(b, concurrency)
            if now >= warmup_s:
                out.busy_sm_s += busy_sm_s(b)
            free -= 1
            heappush(heap, (now + exec_ms / 1e3, seq, now, head, b))
            seq += 1
            h += b
            out.steps += 1
        flush_forced = False

        # Next decision point: a completion, the arrival that fills the
        # batch, the head's flush deadline, or — when the deadline is
        # already past but the float overdue-check disagreed — the next
        # arrival, which re-runs the check exactly like on_arrival does.
        t_comp = heap[0][0] if heap else _INF
        t_disp = _INF
        disp_is_flush = False
        if free > 0 and h < n:
            i_fill = h + batch_size - 1
            t_fill = A[i_fill] if i_fill < n else _INF
            t_flush = A[h] + flush_wait_s
            if t_flush <= now:
                t_arr = A[arr] if arr < n else _INF
                t_disp = t_fill if t_fill < t_arr else t_arr
            elif t_fill <= t_flush:
                t_disp = t_fill
            else:
                t_disp = t_flush
                disp_is_flush = True

        if t_comp < t_disp or (t_comp == t_disp and disp_is_flush):
            if t_comp > until:
                break
            now = t_comp
            seen = bisect_right(A, now, arr)
            if seen > arr:
                arr = seen  # same-time arrivals run first (lower seq)
                continue
            t_comp, _, dispatched, first, b = heappop(heap)
            free += 1
            out.steps += 1
            if dispatched >= warmup_s:
                # FIFO arrivals: the oldest request has the worst latency.
                worst_ms = (t_comp - first) * 1e3
                out.batches += 1
                out.violations += worst_ms > slo_ms
                out.requests += b
                out.latency_sum_ms += worst_ms * b
                if worst_ms > out.latency_max_ms:
                    out.latency_max_ms = worst_ms
        else:
            if t_disp > until:  # also covers both-infinite: drained
                break
            now = t_disp
            arr = bisect_right(A, now, arr)
            flush_forced = disp_is_flush
    return out


class SegmentMemo:
    """Cross-call segment memo: kernel signature -> result row.

    The key is a segment's full kernel signature (model, GPC share,
    batch, processes, latency, SLO, registered SM count, offered rate)
    plus the measurement window.  Every input the kernel reads is part
    of the key and the kernel is a pure function of it, so a hit is
    bit-identical to a fresh computation.  Only uniform arrivals are
    memoizable: Poisson arrivals depend on the shared rng stream, always
    re-simulate, and are not counted.

    The counters are deterministic work counts (kernels simulated vs
    memo hits, and the misses the numpy closed form resolved without
    the per-batch kernel); the fleet controller attaches them to its
    registry as the ``sim_memo_*`` families.
    """

    OBS_FIELDS: ClassVar[dict[str, str]] = {
        "hits_total": "counter",
        "misses_total": "counter",
        "closed_form_total": "counter",
    }

    def __init__(self) -> None:
        self.rows: dict[tuple, tuple] = {}
        #: segments resolved from the memo
        self.hits_total = 0
        #: segments whose kernel had to be simulated
        self.misses_total = 0
        #: misses the closed form resolved (the rest ran per batch)
        self.closed_form_total = 0


#: one segment to resolve: ``(segment, slo_ms, sm_count, times)``;
#: ``times`` is None for uniform arrivals (generated only where the
#: per-batch kernel runs)
_SegmentRun = tuple[PlacedSegment, float, int, Optional[np.ndarray]]


def _resolve_rows(
    segs: list[_SegmentRun],
    arrivals: str,
    duration_s: float,
    warmup_s: float,
    memo: Optional[SegmentMemo],
) -> list[tuple]:
    """Result rows of ``segs``, in order: the memo lookup and miss path.

    Each segment is looked up in ``memo`` (uniform arrivals only); the
    misses are solved together by the numpy closed form
    (:func:`_closed_form`), and each miss outside its regime by the
    per-batch kernel — as are all of them when they hold fewer than
    :data:`_PASS_MIN_BATCHES` full batches.  A row is batches, violations, requests,
    latency_sum_ms, latency_max_ms, busy_sm_s, steps.  Memo writes wait
    until every segment is looked up, so a signature repeated within one
    call counts one miss per occurrence.  Misses sharing a kernel
    signature share one kernel.
    """
    if arrivals != "uniform":
        memo = None
    until = duration_s + 1.0
    rows: list[Optional[tuple]] = []
    at: list[int] = []  # positions of the misses
    missed: list[tuple] = []  # their memo keys
    misses: list[_Miss] = []
    kernels: dict[tuple, _SegmentKernel] = {}
    for seg, slo_ms, sm_count, times in segs:
        mk = (
            seg.model,
            seg.effective_gpcs,
            seg.batch_size,
            seg.num_processes,
            seg.latency_ms,
            slo_ms,
            sm_count,
            seg.served_rate,
            duration_s,
            warmup_s,
        )
        if memo is not None:
            row = memo.rows.get(mk)
            if row is not None:
                rows.append(row)
                memo.hits_total += 1
                continue
            memo.misses_total += 1
        kernel = kernels.get(mk[:7])
        if kernel is None:
            kernel = kernels[mk[:7]] = _SegmentKernel(*mk[:7])
        at.append(len(rows))
        missed.append(mk)
        misses.append((kernel, seg.served_rate, times))
        rows.append(None)
    counts = _arrival_counts(misses, duration_s)
    batches = sum(
        n // kernel.batch_size for (kernel, _r, _t), n in zip(misses, counts)
    )
    solved = (
        _closed_form(misses, counts, warmup_s, until)
        if batches >= _PASS_MIN_BATCHES else [None] * len(misses)
    )
    for i, (kernel, rate, times), row in zip(at, misses, solved):
        if row is None:
            if times is None:
                times = uniform_arrivals(rate, duration_s)
            row = _simulate_segment(kernel, times, warmup_s, until).row()
        elif memo is not None:
            memo.closed_form_total += 1
        rows[i] = row
    if memo is not None:
        memo.rows.update(zip(missed, (rows[i] for i in at)))
    return cast(list[tuple], rows)  # every miss's None is filled


def _unknown_service(
    placement: Placement, known: Mapping[str, object]
) -> ValueError:
    """The error for the first segment, in placement order, whose
    service is not in ``known``."""
    first = next(
        seg.service_id
        for _gpu_id, seg in placement.iter_segments()
        if seg.service_id not in known
    )
    return ValueError(f"placement references unknown service {first!r}")


def simulate_placement_fast(
    placement: Placement,
    services: Iterable[Service],
    duration_s: float = 2.0,
    warmup_s: float = 0.5,
    seed: int = 0,
    arrivals: str = "uniform",
    memo: Optional[SegmentMemo] = None,
) -> SimulationReport:
    """Fast-path equivalent of :func:`repro.sim.runner.simulate_placement`.

    The one measurement engine.  It walks the placement once in
    placement order, drawing Poisson arrivals from the shared rng exactly
    as the event-driven runner does, and resolves each segment through
    ``memo`` (when given) and the miss path (:func:`_resolve_rows`).  A
    final pass accumulates every row in placement order, so the report
    is bit-identical however each row was obtained.
    ``report.events_processed`` counts kernel steps (dispatches +
    completions) rather than heap events.
    """
    from repro.sim.runner import segment_key

    check_window(duration_s, warmup_s)
    if arrivals not in ("uniform", "poisson"):
        raise ValueError(f"unknown arrival process {arrivals!r}")
    svc_by_id = {s.id: s for s in services}
    report = SimulationReport(duration_s=duration_s, warmup_s=warmup_s)
    for sid, svc in svc_by_id.items():
        report.services[sid] = ServiceStats(
            service_id=sid, slo_ms=svc.slo_latency_ms
        )
        report.completed[sid] = 0

    rng = np.random.default_rng(seed)
    uniform = arrivals == "uniform"
    #: (key, segment, slo_ms, times) in placement order; ``times`` is
    #: None for uniform arrivals, a pure function of (rate, duration)
    #: generated only for the segments actually simulated.
    runs: list[tuple[str, PlacedSegment, float, Optional[np.ndarray]]] = []
    sm_counts: dict[str, int] = {}
    for gpu_id, seg in placement.iter_segments():
        svc = svc_by_id.get(seg.service_id)
        if svc is None:
            raise _unknown_service(placement, svc_by_id)
        key = segment_key(gpu_id, seg.service_id, seg.start)
        times = (
            None if uniform
            else poisson_arrivals(seg.served_rate, duration_s, rng)
        )
        runs.append((key, seg, svc.slo_latency_ms, times))
        # Last register wins, as in SMActivityTracker.register.
        sm_counts[key] = max(1, round(seg.sm_count))

    rows = _resolve_rows(
        [
            (seg, slo_ms, sm_counts[key], times)
            for key, seg, slo_ms, times in runs
        ],
        arrivals, duration_s, warmup_s, memo,
    )

    busy = dict.fromkeys(sm_counts, 0.0)
    steps = 0
    for (key, seg, _slo, _times), row in zip(runs, rows):
        batches, violations, requests, lat_sum, lat_max, busy_sm, n_steps = row
        st = report.services[seg.service_id]
        st.batches += int(batches)
        st.violations += int(violations)
        st.requests += int(requests)
        st.latency_sum_ms += lat_sum
        if lat_max > st.latency_max_ms:
            st.latency_max_ms = lat_max
        report.completed[seg.service_id] += int(requests)
        busy[key] += busy_sm
        steps += int(n_steps)
    report.events_processed = steps

    window = duration_s - warmup_s
    for key, busy_sm in busy.items():
        ratio = busy_sm / (sm_counts[key] * window) if window > 0 else 0.0
        report.segment_activity[key] = min(1.0, ratio)
    return report


class _PlanEntry(NamedTuple):
    """What one GPU's last measured plan contributed."""

    plan: GPUPlan
    #: service id -> [batches, violations, requests, worst latency ms]
    #: summed (max for the latency) over the plan's segments
    contrib: dict[str, list]
    #: the plan's sorted, JSON-encoded segment keys, comma-joined
    keys: str


class _ServiceEntry:
    """One service's totals over the plans hosting it."""

    __slots__ = ("slo_ms", "hosts", "batches", "violations", "compliance",
                 "fragment", "seq")

    def __init__(self, slo_ms: float) -> None:
        #: the SLO the hosting plans were measured under
        self.slo_ms = slo_ms
        #: ids of the GPUs whose plans serve this service (insertion
        #: ordered; used as a set)
        self.hosts: dict[int, None] = {}
        self.batches = 0
        self.violations = 0
        self.compliance = 1.0
        #: this service's ``"sid": [...]`` entry of the fingerprint
        self.fragment = ""
        #: ascending in ``services`` order (not dense): breaks ties
        #: between equally compliant services as the reference's order
        self.seq = 0


class _Fragments:
    """One part of the stats fingerprint: fragments in sorted-key order,
    patched in place, and their join."""

    __slots__ = ("keys", "frags", "joined")

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.frags: list[str] = []
        #: the fragments, comma-joined; None when one changed since
        self.joined: Optional[str] = ""

    def patch(
        self,
        edits: dict[str, str],
        everything: Callable[[], Iterable[tuple[str, str]]],
    ) -> None:
        """Apply ``edits`` (key -> fragment; an empty fragment drops the
        key).  Past a few edits per hundred keys (the cold layer, a full
        re-plan), rebuild from ``everything`` with one sort instead."""
        if not edits:
            return
        self.joined = None
        if len(edits) > 16 + len(self.keys) // 8:
            pairs = sorted(kv for kv in everything() if kv[1])
            self.keys = [k for k, _ in pairs]
            self.frags = [f for _, f in pairs]
            return
        keys, frags = self.keys, self.frags
        for key, frag in edits.items():
            i = bisect_left(keys, key)
            if i < len(keys) and keys[i] == key:
                if frag:
                    frags[i] = frag
                else:
                    del keys[i], frags[i]
            elif frag:
                keys.insert(i, key)
                frags.insert(i, frag)

    def join(self) -> str:
        if self.joined is None:
            self.joined = ", ".join(self.frags)
        return self.joined


def _repeated_gpu(placement: Placement) -> ValueError:
    """The error for the first GPU id, in placement order, listed twice."""
    seen: set[int] = set()
    for plan in placement.gpus:
        if plan.gpu_id in seen:
            break
        seen.add(plan.gpu_id)
    return ValueError(f"GPU {plan.gpu_id} is listed twice")


class PlanMemo:
    """Per-plan layer over the :class:`SegmentMemo`: serving measurement
    in O(changed GPU plans and services).

    A published :class:`~repro.core.placement.GPUPlan` is frozen, so a
    GPU no delta touched keeps the *same plan object* from one interval
    to the next.  For each GPU id the layer keeps the last measured plan,
    its per-service integer contribution and its segment-key fragment of
    the fingerprint; for each service its totals, compliance and
    fingerprint fragment; the fleet's running batch, violation and
    segment totals; the per-service compliance map in ``services`` order
    and its least compliant service; and both fingerprint parts as
    fragment lists in sorted-key order.

    :meth:`measure` finds what changed with aligned scans
    (:func:`~repro.core.align.aligned`) of the plan list, the service ids
    and their SLOs against the lists it was last handed: C-level passes
    over the fleet, then Python work only where they differ.  Arrivals
    (appends), departures anywhere in the list and in-place SLO edits
    are patched in; an arrival anywhere but at the end rebuilds the
    per-service order.  A plan is re-resolved only when

    - it is not the object measured last for its GPU,
    - it hosts a service whose SLO changed (the SLO is in the kernel key
      but not in the plan), or
    - it hosts a service that has left (which raises the reference's
      ``ValueError``).

    Re-resolved plans go through the segment memo and miss path shared
    with :func:`simulate_placement_fast`; only the services they touch
    are re-aggregated.  Every segment on a reused plan counts as a memo
    hit, which is what its lookup would have been, so the memo counters
    equal a plain per-segment walk's.  A change of measurement window
    resets the layer.  :attr:`resolved` and :attr:`reaggregated` count
    the last measure's plans and services: both 0 on an interval
    nothing changed in.

    The layer owns the segment memo below it (:attr:`memo`).  Held open
    across a :class:`~repro.ops.controller.FleetController` run, both
    stay warm from one interval to the next.  The layer holds one entry
    per live GPU id (a GPU that leaves the placement is evicted) and one
    per live service, so unlike the segment memo it does not grow over a
    run.  Neither is recorded: a resumed run rewarms them.
    """

    def __init__(self) -> None:
        #: the segment memo below the layer; a window change keeps it
        self.memo = SegmentMemo()
        self._reset(None)

    def _reset(self, window: Optional[tuple[float, float]]) -> None:
        self.window = window
        #: the last measure's plans served whole from the layer, plans
        #: re-resolved and services re-aggregated
        self.reused = 0
        self.resolved = 0
        self.reaggregated = 0
        #: segments on the last measured placement
        self.segments = 0
        self.gpus: dict[int, _PlanEntry] = {}
        self.services: dict[str, _ServiceEntry] = {}
        self.batches = 0
        self.violations = 0
        #: what the last measure was handed: the plans, and the service
        #: ids (first occurrence of each) with their SLOs, in order
        self._plans: list[GPUPlan] = []
        self._ids: list[str] = []
        self._slos: list[float] = []
        #: service id -> compliance in ``_ids`` order, the least
        #: compliant service, and the next ``_ServiceEntry.seq``
        self._compliance: dict[str, float] = {}
        self._worst: Optional[str] = None
        self._seq = 0
        #: the fingerprint's segment part (keyed "{gpu id}/") and service
        #: part (keyed by service id), and the fingerprint they joined to
        self._segment_part = _Fragments()
        self._service_part = _Fragments()
        self._fingerprint: Optional[str] = None

    def measure(
        self,
        placement: Placement,
        services: Iterable[Service],
        duration_s: float,
        warmup_s: float,
    ) -> tuple[float, str, dict[str, float], Optional[str]]:
        """``(compliance, fingerprint, per-service compliance, worst
        service)`` of serving ``placement`` under uniform arrivals:
        bit-identical to the full report's ``overall_compliance``,
        ``fingerprint()`` and per-service ``compliance`` (in ``services``
        order; a fresh dict per call), and the least compliant service
        (the first in that order on a tie; None without services).
        Raises ``ValueError``, and forgets everything, for a placement
        that lists one GPU id twice (no valid placement does).
        """
        from repro.sim.runner import segment_key

        check_window(duration_s, warmup_s)
        if (duration_s, warmup_s) != self.window:
            self._reset((duration_s, warmup_s))
        work = services if isinstance(services, list) else list(services)
        ids = [s.id for s in work]
        slos = [s.slo_latency_ms for s in work]
        known = self.services
        gpus = self.gpus

        # 1. The services: who joined or left the list (``joined`` and
        # ``left``: arrivals, departures, and services that moved in it)
        # and whose SLO changed.  Nothing is written until step 4.
        retuned: dict[str, float] = {}
        joined: dict[str, float] = {}
        left: dict[str, None] = {}
        added: list[int] = []
        if ids != self._ids:
            runs, added, dropped = aligned(ids, self._ids)
            left = dict.fromkeys(self._ids[j] for j in dropped)
            joined = {ids[i]: slos[i] for i in added}
            # A repeated id is an added one (the last list had none).
            if len(joined) != len(added) or any(
                sid in known and sid not in left for sid in joined
            ):
                # the reference keys services by id: first place, last SLO
                view = dict(zip(ids, slos))
                ids, slos = list(view), list(view.values())
                runs, added, dropped = aligned(ids, self._ids)
                left = dict.fromkeys(self._ids[j] for j in dropped)
                joined = {ids[i]: slos[i] for i in added}
            for sid, slo in joined.items():
                if sid in left and known[sid].slo_ms != slo:
                    retuned[sid] = slo
        else:
            runs = [(0, 0, len(ids))]
        old_slos = self._slos
        for a, b, k in runs:
            if k == len(slos) == len(old_slos):
                now, then = slos, old_slos
            else:
                now, then = slos[a:a + k], old_slos[b:b + k]
            if now != then:
                for d in changed_at(now, then):
                    if now[d] != then[d]:
                        retuned[ids[a + d]] = now[d]
        departed = [sid for sid in left if sid not in joined]

        # GPUs whose plans must be re-resolved even if unchanged.
        stale: dict[int, None] = {}
        for sid in retuned:
            stale.update(known[sid].hosts)
        for sid in departed:
            stale.update(known[sid].hosts)

        # 2. The plans: new objects, GPUs that left, and what to resolve.
        plans = placement.gpus
        _, fresh_at, dropped_at = aligned(plans, self._plans)
        fresh = [plans[i] for i in fresh_at]
        freed = {self._plans[j].gpu_id: None for j in dropped_at}
        fresh_ids: dict[int, None] = {}
        for plan in fresh:
            gid = plan.gpu_id
            if gid in fresh_ids or (gid in gpus and gid not in freed):
                self._reset(None)
                raise _repeated_gpu(placement)
            fresh_ids[gid] = None
        evicted = [gid for gid in freed if gid not in fresh_ids]
        resolve: list[GPUPlan] = []
        for plan in fresh:
            entry = gpus.get(plan.gpu_id)
            if entry is None or entry.plan is not plan or plan.gpu_id in stale:
                resolve.append(plan)
        resolve += [
            gpus[gid].plan for gid in stale
            if gid not in fresh_ids and gid not in freed
        ]

        # 3. Every service a re-resolved plan serves must be present.
        gone = set(departed)
        for plan in resolve:
            for seg in plan.segments:
                sid = seg.service_id
                if sid in gone or (sid not in known and sid not in joined):
                    raise _unknown_service(placement, dict.fromkeys(ids))

        # 4. Commit: service entries first, so every host update finds one.
        for sid, slo in joined.items():
            if sid not in known:
                known[sid] = _ServiceEntry(slo)
        for sid, slo in retuned.items():
            known[sid].slo_ms = slo
        segs: list[_SegmentRun] = []
        plan_keys: list[list[str]] = []
        for plan in resolve:
            gid = plan.gpu_id
            keys = []
            sm_counts: dict[str, int] = {}
            for seg in plan.segments:
                key = segment_key(gid, seg.service_id, seg.start)
                keys.append(key)
                # Last register wins, as in SMActivityTracker.register.
                sm_counts[key] = max(1, round(seg.sm_count))
            segs.extend(
                (seg, known[seg.service_id].slo_ms, sm_counts[key], None)
                for seg, key in zip(plan.segments, keys)
            )
            plan_keys.append(keys)
        rows = _resolve_rows(
            segs, "uniform", duration_s, warmup_s, self.memo
        )

        changed: dict[str, None] = dict.fromkeys(
            sid for sid in joined if sid not in left
        )
        segment_edits: dict[str, str] = {}
        for gid in evicted:
            old = gpus.pop(gid)
            self.segments -= len(old.plan.segments)
            for sid in old.contrib:
                del known[sid].hosts[gid]
            changed.update(old.contrib)
            segment_edits[f"{gid}/"] = ""
        it = iter(rows)
        resolved_segments = 0
        for plan, keys in zip(resolve, plan_keys):
            gid = plan.gpu_id
            contrib: dict[str, list] = {}
            for seg in plan.segments:
                batches, violations, requests, _sum, lat_max = next(it)[:5]
                c = contrib.get(seg.service_id)
                if c is None:
                    c = contrib[seg.service_id] = [0, 0, 0, 0.0]
                c[0] += int(batches)
                c[1] += int(violations)
                c[2] += int(requests)
                if lat_max > c[3]:
                    c[3] = lat_max
            frag = ", ".join(map(_json_str, sorted(dict.fromkeys(keys))))
            old = gpus.get(gid)
            if old is not None:
                self.segments -= len(old.plan.segments)
                for sid in old.contrib:
                    del known[sid].hosts[gid]
                changed.update(old.contrib)
            if old is None or old.keys != frag:
                segment_edits[f"{gid}/"] = frag
            for sid in contrib:
                known[sid].hosts[gid] = None
            changed.update(contrib)
            gpus[gid] = _PlanEntry(plan, contrib, frag)
            self.segments += len(plan.segments)
            resolved_segments += len(plan.segments)
        self.memo.hits_total += self.segments - resolved_segments
        changed.update(dict.fromkeys(departed))
        self._plans = list(plans)
        self.resolved = len(resolve)
        self.reused = len(plans) - len(resolve)

        # 5. Re-aggregate the services the changed plans touch.  The
        # compliance map keeps ``services`` order: a departure deletes in
        # place and an arrival at the end appends; anything else
        # rebuilds it.
        per = self._compliance
        reorder = bool(added) and added[0] != len(ids) - len(added)
        worst = self._worst
        worst_before = None if worst is None else per.get(worst)
        for sid in left:
            del per[sid]
        for sid in joined:
            entry = known[sid]
            per[sid] = entry.compliance
            entry.seq = self._seq
            self._seq += 1
        service_edits: dict[str, str] = {}
        reaggregated = 0
        for sid in changed:
            entry = known[sid]
            if sid in gone:
                self.batches -= entry.batches
                self.violations -= entry.violations
                del known[sid]
                service_edits[sid] = ""
                continue
            reaggregated += 1
            batches = violations = requests = 0
            worst_ms = 0.0
            for gid in entry.hosts:
                c = gpus[gid].contrib[sid]
                batches += c[0]
                violations += c[1]
                requests += c[2]
                if c[3] > worst_ms:
                    worst_ms = c[3]
            self.batches += batches - entry.batches
            self.violations += violations - entry.violations
            entry.batches, entry.violations = batches, violations
            entry.compliance = per[sid] = (
                1.0 - violations / batches if batches else 1.0
            )
            frag = (
                f"{_json_str(sid)}: [{batches}, {violations}, {requests}, "
                f"{requests}, {_json_str(format(worst_ms, '.17g'))}]"
            )
            if frag != entry.fragment:
                entry.fragment = frag
                service_edits[sid] = frag
        self.reaggregated = reaggregated
        if reorder:
            per = {sid: known[sid].compliance for sid in ids}
            self._compliance = per
            for seq, sid in enumerate(ids):
                known[sid].seq = seq
            self._seq = len(ids)
        if (
            reorder or worst is None or worst_before is None
            or worst not in per or worst in left or per[worst] > worst_before
        ):
            worst = min(per, key=per.__getitem__) if per else None
        else:
            # Only a re-aggregated service can now be less compliant, or
            # as compliant and first.
            w, w_seq = per[worst], known[worst].seq
            for sid in changed:
                if sid in per:
                    c, seq = per[sid], known[sid].seq
                    if c < w or (c == w and seq < w_seq):
                        worst, w, w_seq = sid, c, seq
        self._worst = worst
        self._ids, self._slos = ids, slos

        # Segment keys "gpu{N}/..." sort in contiguous per-GPU blocks
        # ordered by "{N}/", so the per-GPU fragments join in that order.
        segment_part, service_part = self._segment_part, self._service_part
        segment_part.patch(
            segment_edits,
            lambda: ((f"{gid}/", e.keys) for gid, e in gpus.items()),
        )
        service_part.patch(
            service_edits,
            lambda: ((sid, e.fragment) for sid, e in known.items()),
        )
        if (
            self._fingerprint is None or segment_part.joined is None
            or service_part.joined is None
        ):
            self._fingerprint = (
                f'{{"duration_s": {json.dumps(duration_s)}, '
                f'"segments": [{segment_part.join()}], '
                f'"services": {{{service_part.join()}}}, '
                f'"warmup_s": {json.dumps(warmup_s)}}}'
            )
        compliance = (
            1.0 - self.violations / self.batches if self.batches else 1.0
        )
        return compliance, self._fingerprint, per.copy(), worst
