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
(:func:`_simulate_segment_vectorized`): dispatches sit at the fill
instants, and when batches overlap — MPS processes pipelining batches
within one instance — each batch's concurrency is the fixed point of a
count over the computed completions.  Saturated segments (a fill that
finds every process busy, as in most Poisson bursts), flushes that fire
before a batch fills and overlapping segments too short to repay the
fixed-point iteration (:data:`_CLOSED_FORM_MIN_BATCHES`) run on the
per-batch kernel (:func:`_simulate_segment`), which stays the
reference.

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
from bisect import bisect_right
from heapq import heappush, heappop
from typing import ClassVar, Iterable, Mapping, NamedTuple, Optional

import numpy as np

from repro.core.placement import GPUPlan, PlacedSegment, Placement
from repro.core.service import Service
from repro.models.perf import PerfModel
from repro.models.zoo import get_model
from repro.sim.arrivals import poisson_arrivals, uniform_arrivals
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
        """Kernel parameters as the fast path derives them.

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


#: Full batches a segment needs before the closed form may solve
#: overlapping batches: below it the per-batch kernel is cheaper than the
#: fixed-point iteration (crossover table in docs/architecture.md).
_CLOSED_FORM_MIN_BATCHES = 32

#: fixed-point rounds before the closed form leaves a segment to the
#: per-batch kernel
_CLOSED_FORM_ROUNDS = 8


def _simulate_segment_vectorized(
    kernel: _SegmentKernel,
    arrivals: np.ndarray,
    warmup_s: float,
    until: float,
) -> _SegmentResult | None:
    """Numpy closed form for the fill-dominated regime.

    Every full batch ``k`` dispatches at its fill instant
    ``A[k*b + b-1]`` and completes at ``dispatch + latency(b, c_k)``,
    where ``c_k`` is 1 plus the number of earlier batches still running
    at the fill (a completion exactly at a fill is still running:
    arrivals run first).  Valid when (checked on the actual float
    arrays): every full batch fills before its head's flush deadline,
    no completion finds a waiting head overdue, every fill finds a free
    process, and the trailing partial batch — if any — collects all its
    requests before its own flush deadline and finds a free process
    there.  Overlapping batches (MPS pipelining) need a fixed-point
    solve of ``c`` and are tried only for segments of at least
    :data:`_CLOSED_FORM_MIN_BATCHES` full batches.  Returns ``None``
    when the regime does not apply.
    """
    batch = kernel.batch_size
    procs = kernel.num_processes
    n = len(arrivals)
    if n == 0:
        return _SegmentResult()
    if float(arrivals[-1]) > until:
        return None  # the run stops before some batch fills
    full = n // batch
    rest = n - full * batch
    flush_wait_ms = kernel.policy.flush_wait_ms
    flush_wait_s = flush_wait_ms / 1e3

    heads = arrivals[: full * batch : batch]
    dispatches = arrivals[batch - 1 : full * batch : batch]
    if full and not (dispatches <= heads + flush_wait_s).all():
        return None  # a flush would fire before some batch fills
    exec_s = kernel.latency_ms(batch, 1) / 1e3 if full else 0.0
    completions = dispatches + exec_s
    ordered = completions  # sorted: concurrency 1 keeps fill order
    if full > 1 and not (completions[:-1] < dispatches[1:]).all():
        # Batches overlap: concurrency exceeds 1 somewhere.
        if full < _CLOSED_FORM_MIN_BATCHES:
            return None
        # Latency grows with concurrency, so concurrency-1 completions
        # are lower bounds: when batch k-procs still runs at fill k, so
        # do the procs-1 batches dispatched after it.
        if (completions[:-procs] >= dispatches[procs:]).any():
            return None  # some fill finds no free process
        solved = _pipelined_completions(kernel, dispatches, completions)
        if solved is None:
            return None
        completions, ordered = solved
    if flush_wait_ms > 0 and not (
        (dispatches - heads) * 1e3 < flush_wait_ms
    ).all():
        # A completion before a fill could pass the per-batch kernel's
        # float overdue test and flush the batch early; only a fill
        # within ulps of its flush deadline leaves room for that.
        return None

    tail = None  # (dispatch_time, completion_time, size)
    if rest:
        head = float(arrivals[full * batch])
        deadline = kernel.policy.flush_deadline(head)
        if float(arrivals[-1]) > deadline:
            return None  # the tail spans several flush windows
        running = 0
        if full and float(ordered[-1]) >= head:
            # Completions while the tail waits: batches still running at
            # the last fill, so at most `procs` of them.
            for done in ordered[np.searchsorted(ordered, head):].tolist():
                if done == deadline or (
                    done < deadline and (done - head) * 1e3 >= flush_wait_ms
                ):
                    return None  # a completion would dispatch the tail
                running += done > deadline
        if running >= procs:
            return None  # tail would dispatch at a completion instead
        if deadline <= until:
            tail = (
                deadline,
                deadline + kernel.latency_ms(rest, running + 1) / 1e3,
                rest,
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
        t_disp, t_comp, size = tail
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


def _pipelined_completions(
    kernel: _SegmentKernel,
    dispatches: np.ndarray,
    completions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Completions of full batches dispatched at ``dispatches`` with up
    to ``num_processes`` in flight, solved from the concurrency-1
    ``completions``, and the same completions sorted; None when some
    fill finds no free process or the solve does not settle within
    :data:`_CLOSED_FORM_ROUNDS` rounds.

    The concurrencies are a fixed point: ``c_k - 1`` counts earlier
    completions at or after fill ``k``.  No later batch completes
    before fill ``k``, so that count is ``k`` minus the completions
    strictly before it.  ``c_k`` depends only on earlier batches, so the
    fixed point is unique and equals the per-batch kernel's sequence.
    """
    procs = kernel.num_processes
    exec_s = np.array([
        kernel.latency_ms(kernel.batch_size, c) / 1e3
        for c in range(1, procs + 1)
    ])
    earlier = np.arange(len(dispatches))
    running = np.zeros(len(dispatches), dtype=np.intp)
    ordered = completions  # concurrency-1 completions are in fill order
    for _ in range(_CLOSED_FORM_ROUNDS):
        found = earlier - np.searchsorted(ordered, dispatches)
        if (found == running).all():
            return completions, ordered
        if found.max() >= procs:
            return None  # some fill finds no free process
        running = found
        completions = dispatches + exec_s[running]
        ordered = np.sort(completions)
    return None


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
#: ``times`` is None for uniform arrivals (regenerated where simulated)
_SegmentRun = tuple[PlacedSegment, float, int, Optional[np.ndarray]]


def _resolve_rows(
    segs: list[_SegmentRun],
    arrivals: str,
    duration_s: float,
    warmup_s: float,
    memo: Optional[SegmentMemo],
) -> list[tuple]:
    """Result rows of ``segs``, in order: the memo lookup and miss path.

    Each segment is looked up in ``memo`` (uniform arrivals only); a
    miss is simulated by the numpy closed form where its regime applies,
    by the per-batch kernel otherwise.  A row is batches, violations,
    requests, latency_sum_ms, latency_max_ms, busy_sm_s, steps.  Memo
    writes wait until every segment is looked up, so a signature repeated
    within one call counts one miss per occurrence.
    """
    if arrivals != "uniform":
        memo = None
    until = duration_s + 1.0
    rows: list[tuple] = []
    computed: list[tuple[tuple, tuple]] = []
    for seg, slo_ms, sm_count, times in segs:
        if memo is not None:
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
            row = memo.rows.get(mk)
            if row is not None:
                rows.append(row)
                memo.hits_total += 1
                continue
            memo.misses_total += 1
        kernel = _SegmentKernel.from_segment(seg, slo_ms, sm_count=sm_count)
        if times is None:
            times = uniform_arrivals(seg.served_rate, duration_s)
        res = _simulate_segment_vectorized(kernel, times, warmup_s, until)
        if res is None:
            res = _simulate_segment(kernel, times, warmup_s, until)
        elif memo is not None:
            memo.closed_form_total += 1
        row = (
            res.batches,
            res.violations,
            res.requests,
            res.latency_sum_ms,
            res.latency_max_ms,
            res.busy_sm_s,
            res.steps,
        )
        if memo is not None:
            computed.append((mk, row))
        rows.append(row)
    if memo is not None:
        memo.rows.update(computed)
    return rows


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
                 "fragment")

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


class PlanMemo:
    """Per-plan layer over the :class:`SegmentMemo`: serving measurement
    in O(changed GPU plans).

    A published :class:`~repro.core.placement.GPUPlan` is frozen, so a
    GPU no delta touched keeps the *same plan object* from one interval
    to the next.  For each GPU id the layer keeps the last measured plan,
    its per-service integer contribution and its segment-key fragment of
    the fingerprint; for each service its totals, compliance and
    fingerprint fragment; and the fleet's running batch and violation
    totals.  :meth:`measure` re-resolves a plan only when

    - it is not the same object as last time,
    - it hosts a service whose SLO changed (the SLO is in the kernel key
      but not in the plan), or
    - it hosts a service that has left (which raises the reference's
      ``ValueError``).

    Re-resolved plans go through the segment memo and miss path shared
    with :func:`simulate_placement_fast`; only the services they touch
    are re-aggregated.  Every segment on a reused plan counts as a memo
    hit, which is what its lookup would have been, so the memo counters
    equal a plain per-segment walk's.  A change of measurement window
    resets the layer.

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
        #: plans resolved whole from the layer by the last measure
        self.reused = 0
        self.gpus: dict[int, _PlanEntry] = {}
        self.services: dict[str, _ServiceEntry] = {}
        self.batches = 0
        self.violations = 0
        #: the fingerprint's joined segment and service parts; None when
        #: a fragment or the key set changed since they were joined
        self._segments: Optional[str] = None
        self._services: Optional[str] = None

    def measure(
        self,
        placement: Placement,
        services: Iterable[Service],
        duration_s: float,
        warmup_s: float,
    ) -> tuple[float, str, dict[str, float]]:
        """``(compliance, fingerprint, per-service compliance)`` of
        serving ``placement`` under uniform arrivals: bit-identical to
        the full report's ``overall_compliance``, ``fingerprint()`` and
        per-service ``compliance`` (in ``services`` order).  Raises
        ``ValueError``, and forgets everything, for a placement that
        lists one GPU id twice (no valid placement does).
        """
        from repro.sim.runner import segment_key

        check_window(duration_s, warmup_s)
        if (duration_s, warmup_s) != self.window:
            self._reset((duration_s, warmup_s))
        svc_by_id = {s.id: s for s in services}
        known = self.services
        gpus = self.gpus

        # Services to re-aggregate, and GPUs whose plans must be
        # re-resolved even if unchanged.
        changed: dict[str, None] = {}
        stale: dict[int, None] = {}
        arrived: list[str] = []
        retuned: list[tuple[_ServiceEntry, float]] = []
        for sid, svc in svc_by_id.items():
            entry = known.get(sid)
            if entry is None:
                arrived.append(sid)
            elif entry.slo_ms != svc.slo_latency_ms:
                retuned.append((entry, svc.slo_latency_ms))
                stale.update(entry.hosts)
        departed: list[str] = []
        if len(svc_by_id) - len(arrived) != len(known):
            departed = [sid for sid in known if sid not in svc_by_id]
            for sid in departed:
                stale.update(known[sid].hosts)

        present: dict[int, None] = {}
        resolve: list[GPUPlan] = []
        reused_segments = 0
        for plan in placement.gpus:
            gid = plan.gpu_id
            if gid in present:
                self._reset(None)
                raise ValueError(f"GPU {gid} is listed twice")
            present[gid] = None
            entry = gpus.get(gid)
            if entry is not None and entry.plan is plan and gid not in stale:
                reused_segments += len(plan.segments)
            else:
                resolve.append(plan)
        gone = [gid for gid in gpus if gid not in present]

        segs: list[_SegmentRun] = []
        plan_keys: list[list[str]] = []
        for plan in resolve:
            gid = plan.gpu_id
            keys = []
            sm_counts: dict[str, int] = {}
            for seg in plan.segments:
                if seg.service_id not in svc_by_id:
                    raise _unknown_service(placement, svc_by_id)
                key = segment_key(gid, seg.service_id, seg.start)
                keys.append(key)
                # Last register wins, as in SMActivityTracker.register.
                sm_counts[key] = max(1, round(seg.sm_count))
            segs.extend(
                (seg, svc_by_id[seg.service_id].slo_latency_ms,
                 sm_counts[key], None)
                for seg, key in zip(plan.segments, keys)
            )
            plan_keys.append(keys)

        self.memo.hits_total += reused_segments
        rows = _resolve_rows(
            segs, "uniform", duration_s, warmup_s, self.memo
        )
        self.reused = len(placement.gpus) - len(resolve)

        # Commit: service entries first, so every host update finds one.
        for sid in arrived:
            known[sid] = _ServiceEntry(svc_by_id[sid].slo_latency_ms)
            changed[sid] = None
        for entry, slo_ms in retuned:
            entry.slo_ms = slo_ms
        if arrived or departed:
            self._services = None
        for gid in gone:
            old = gpus.pop(gid)
            for sid in old.contrib:
                del known[sid].hosts[gid]
            changed.update(old.contrib)
            if old.keys:
                self._segments = None
        it = iter(rows)
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
            frag = ", ".join(map(json.dumps, sorted(dict.fromkeys(keys))))
            old = gpus.get(gid)
            if old is None:
                self._segments = None
            else:
                for sid in old.contrib:
                    del known[sid].hosts[gid]
                changed.update(old.contrib)
                if old.keys != frag:
                    self._segments = None
            for sid in contrib:
                known[sid].hosts[gid] = None
            changed.update(contrib)
            gpus[gid] = _PlanEntry(plan, contrib, frag)
        for sid in departed:
            changed[sid] = None

        for sid in changed:
            entry = known[sid]
            if sid not in svc_by_id:
                self.batches -= entry.batches
                self.violations -= entry.violations
                del known[sid]
                continue
            batches = violations = requests = 0
            worst = 0.0
            for gid in entry.hosts:
                c = gpus[gid].contrib[sid]
                batches += c[0]
                violations += c[1]
                requests += c[2]
                if c[3] > worst:
                    worst = c[3]
            self.batches += batches - entry.batches
            self.violations += violations - entry.violations
            entry.batches, entry.violations = batches, violations
            entry.compliance = (
                1.0 - violations / batches if batches else 1.0
            )
            frag = (
                f"{json.dumps(sid)}: [{batches}, {violations}, {requests}, "
                f"{requests}, {json.dumps(format(worst, '.17g'))}]"
            )
            if frag != entry.fragment:
                entry.fragment = frag
                self._services = None

        # Segment keys "gpu{N}/..." sort in contiguous per-GPU blocks
        # ordered by "{N}/", so the per-GPU fragments join in that order.
        if self._segments is None:
            self._segments = ", ".join(
                gpus[gid].keys
                for gid in sorted(gpus, key="{}/".format)
                if gpus[gid].keys
            )
        if self._services is None:
            self._services = ", ".join(
                known[sid].fragment for sid in sorted(known)
            )
        fingerprint = (
            f'{{"duration_s": {json.dumps(duration_s)}, '
            f'"segments": [{self._segments}], '
            f'"services": {{{self._services}}}, '
            f'"warmup_s": {json.dumps(warmup_s)}}}'
        )
        compliance = (
            1.0 - self.violations / self.batches if self.batches else 1.0
        )
        per_service = {sid: known[sid].compliance for sid in svc_by_id}
        return compliance, fingerprint, per_service
