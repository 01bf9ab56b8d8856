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
deadline and every batch completes before the next one dispatches (the
uniform-arrival unsaturated regime), dispatch and completion times
vectorise in numpy outright — no Python loop at all.

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

:func:`simulate_placement_fast` is the one fast orchestration at every
worker count.  A :class:`SegmentMemo` held across calls resolves
unchanged segments from cache; the misses run inline here or, when the
caller's :class:`~repro.sim.shard.ShardContext` has a pool, in worker
processes.  Either way one accumulation pass in placement order builds
the report.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappush, heappop
from typing import TYPE_CHECKING, ClassVar, Iterable, Optional

import numpy as np

from repro.core.placement import PlacedSegment, Placement
from repro.core.service import Service
from repro.models.perf import PerfModel
from repro.models.zoo import get_model
from repro.sim.arrivals import poisson_arrivals, uniform_arrivals
from repro.sim.batching import BatchPolicy
from repro.sim.metrics import ServiceStats, SimulationReport

if TYPE_CHECKING:  # imported lazily at runtime to avoid a module cycle
    from repro.sim.shard import ShardContext

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


class _SegmentKernel:
    """Derived per-segment quantities, mirroring ``SegmentServer.__init__``.

    Built from seven scalar parameters rather than a
    :class:`PlacedSegment` so shard workers (:mod:`repro.sim.shard`) can
    rebuild bit-identical kernels from columnar numpy buffers without
    pickling placement objects; :meth:`from_segment` derives the
    parameters exactly as the serial path always did.  The latency/busy
    caches memoize the perf-model evaluations the event engine performs
    per dispatch; the model is pure, so cached values are bit-identical
    to fresh calls.
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
        self.sm_count = sm_count
        self._lat: dict[tuple[int, int], float] = {}
        self._busy: dict[int, float] = {}

    @classmethod
    def from_segment(
        cls,
        segment: PlacedSegment,
        slo_ms: float,
        sm_count: int | None = None,
    ) -> "_SegmentKernel":
        """Kernel parameters as the serial fast path derives them.

        ``sm_count`` overrides the segment's own compute-unit count with
        the activity tracker's registered value (last register wins when
        segment keys collide).
        """
        return cls(
            model=segment.model,
            gpcs=segment.effective_gpcs,
            batch_size=segment.batch_size,
            num_processes=segment.num_processes,
            segment_latency_ms=segment.latency_ms,
            slo_ms=slo_ms,
            sm_count=(
                max(1, round(segment.sm_count)) if sm_count is None else sm_count
            ),
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


def _simulate_segment_vectorized(
    kernel: _SegmentKernel,
    arrivals: np.ndarray,
    warmup_s: float,
    until: float,
) -> _SegmentResult | None:
    """Numpy closed form for the fill-dominated concurrency-1 regime.

    Valid when (checked on the actual float arrays): every full batch
    fills before its head's flush deadline, every batch completes
    strictly before the next one dispatches (so executor concurrency is
    pinned at 1 and a free process always exists), and the trailing
    partial batch — if any — collects all its requests before its own
    flush deadline.  Uniform arrivals in the unsaturated regime satisfy
    this by construction; the check admits any arrival array that does.
    Returns ``None`` when the regime does not apply.
    """
    batch = kernel.batch_size
    n = len(arrivals)
    if n == 0:
        return _SegmentResult()
    full = n // batch
    rest = n - full * batch
    flush_wait_s = kernel.policy.flush_wait_ms / 1e3

    heads = arrivals[: full * batch : batch]
    dispatches = arrivals[batch - 1 : full * batch : batch]
    if full and not np.all(dispatches <= heads + flush_wait_s):
        return None  # a flush would fire before some batch fills
    exec_s = kernel.latency_ms(batch, 1) / 1e3 if full else 0.0
    completions = dispatches + exec_s
    if full > 1 and not np.all(completions[:-1] < dispatches[1:]):
        return None  # batches overlap: concurrency exceeds 1

    tail = None  # (dispatch_time, completion_time, size, concurrency)
    if rest:
        head = float(arrivals[full * batch])
        deadline = kernel.policy.flush_deadline(head)
        if float(arrivals[-1]) > deadline:
            return None  # the tail spans several flush windows
        in_flight = bool(full) and float(completions[-1]) > deadline
        if in_flight and kernel.num_processes == 1:
            return None  # tail would dispatch at the completion instead
        concurrency = 2 if in_flight else 1
        if deadline <= until:
            tail = (
                deadline,
                deadline + kernel.latency_ms(rest, concurrency) / 1e3,
                rest,
                concurrency,
            )

    out = _SegmentResult()
    if full:
        measured = (dispatches >= warmup_s) & (completions <= until)
        worst = (completions - heads) * 1e3
        worst = worst[measured]
        out.batches = int(measured.sum())
        out.violations = int(np.count_nonzero(worst > kernel.slo_ms))
        out.requests = out.batches * batch
        out.latency_sum_ms = float(worst.sum()) * batch
        out.latency_max_ms = float(worst.max()) if len(worst) else 0.0
        busy_dispatches = int(np.count_nonzero(dispatches >= warmup_s))
        out.busy_sm_s = kernel.busy_sm_s(batch) * busy_dispatches
        out.steps = full + int(np.count_nonzero(completions <= until))
    if tail is not None:
        t_disp, t_comp, size, _ = tail
        out.steps += 1
        if t_disp >= warmup_s:
            out.busy_sm_s += kernel.busy_sm_s(size)
        if t_comp <= until:
            out.steps += 1
            if t_disp >= warmup_s:
                worst_ms = (t_comp - float(arrivals[full * batch])) * 1e3
                out.batches += 1
                out.violations += int(worst_ms > kernel.slo_ms)
                out.requests += size
                out.latency_sum_ms += worst_ms * size
                if worst_ms > out.latency_max_ms:
                    out.latency_max_ms = worst_ms
    return out


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
    flush_wait_ms = kernel.policy.flush_wait_ms
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


def _simulate_row(
    kernel: _SegmentKernel,
    arrivals: np.ndarray,
    warmup_s: float,
    until: float,
) -> tuple:
    """One segment's result row — batches, violations, requests,
    latency_sum_ms, latency_max_ms, busy_sm_s, steps — from the numpy
    closed form where the regime allows, the per-batch kernel otherwise."""
    res = _simulate_segment_vectorized(kernel, arrivals, warmup_s, until)
    if res is None:
        res = _simulate_segment(kernel, arrivals, warmup_s, until)
    return (
        res.batches,
        res.violations,
        res.requests,
        res.latency_sum_ms,
        res.latency_max_ms,
        res.busy_sm_s,
        res.steps,
    )


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
    memo hits), the same at every worker count; the fleet controller
    attaches them to its registry as the ``sim_memo_*`` families.
    """

    OBS_FIELDS: ClassVar[dict[str, str]] = {
        "hits_total": "counter",
        "misses_total": "counter",
    }

    def __init__(self) -> None:
        self.rows: dict[tuple, tuple] = {}
        #: segments resolved from the memo
        self.hits_total = 0
        #: segments whose kernel had to be simulated
        self.misses_total = 0


def simulate_placement_fast(
    placement: Placement,
    services: Iterable[Service],
    duration_s: float = 2.0,
    warmup_s: float = 0.5,
    seed: int = 0,
    arrivals: str = "uniform",
    context: Optional["ShardContext"] = None,
) -> SimulationReport:
    """Fast-path equivalent of :func:`repro.sim.runner.simulate_placement`.

    The one measurement engine, at every worker count.  It walks the
    placement once in placement order, drawing Poisson arrivals from the
    shared rng exactly as the event-driven runner does, and looks each
    segment up in ``context``'s memo (if it has one).  The misses are
    simulated inline, or shipped to the context's shard pool when it has
    one.  A final pass accumulates every row in placement order, so the
    report is bit-identical however each row was obtained.
    ``report.events_processed`` counts kernel steps (dispatches +
    completions) rather than heap events.
    """
    from repro.sim.runner import segment_key

    if duration_s <= warmup_s:
        raise ValueError("duration must exceed warmup")
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
            raise ValueError(
                f"placement references unknown service {seg.service_id!r}"
            )
        key = segment_key(gpu_id, seg.service_id, seg.start)
        times = (
            None if uniform
            else poisson_arrivals(seg.served_rate, duration_s, rng)
        )
        runs.append((key, seg, svc.slo_latency_ms, times))
        # Last register wins, as in SMActivityTracker.register.
        sm_counts[key] = max(1, round(seg.sm_count))

    memo = context.memo if context is not None and uniform else None
    rows: list[Optional[tuple]] = [None] * len(runs)
    misses: list[int] = []
    miss_keys: list[tuple] = []
    for i, (key, seg, slo_ms, _times) in enumerate(runs):
        if memo is not None:
            mk = (
                seg.model,
                seg.effective_gpcs,
                seg.batch_size,
                seg.num_processes,
                seg.latency_ms,
                slo_ms,
                sm_counts[key],
                seg.served_rate,
                duration_s,
                warmup_s,
            )
            row = memo.rows.get(mk)
            if row is not None:
                rows[i] = row
                memo.hits_total += 1
                continue
            memo.misses_total += 1
            miss_keys.append(mk)
        misses.append(i)

    until = duration_s + 1.0
    if misses and context is not None and context.pool is not None:
        shipped = context.run_shards(
            [
                (runs[i][1], runs[i][2], sm_counts[runs[i][0]], runs[i][3])
                for i in misses
            ],
            arrivals, duration_s, warmup_s, until,
            memo_hits=len(runs) - len(misses),
        )
        for i, row in zip(misses, shipped):
            rows[i] = row
    else:
        for i in misses:
            key, seg, slo_ms, times = runs[i]
            kernel = _SegmentKernel.from_segment(
                seg, slo_ms, sm_count=sm_counts[key]
            )
            if times is None:
                times = uniform_arrivals(seg.served_rate, duration_s)
            rows[i] = _simulate_row(kernel, times, warmup_s, until)
    if memo is not None:
        for i, mk in zip(misses, miss_keys):
            memo.rows[mk] = rows[i]

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
