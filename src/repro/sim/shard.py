"""Process fan-out for the simulation fast path's memo misses.

:func:`~repro.sim.fastpath.simulate_placement_fast` is the one
measurement engine: it resolves each segment from the run's
:class:`~repro.sim.fastpath.SegmentMemo` and computes the misses.  A
:class:`ShardContext` holds that memo beside an optional
:class:`~repro.parallel.ShardPool`; ``workers`` sets only the process
fan-out of the misses.  At ``workers=0`` they run inline in the calling
process; at ``workers >= 1`` they fan out across the pool's workers
(``workers=1`` runs the single shard inline through the pool's
machinery).  The report is bit-identical either way, for three
structural reasons:

- **Segments are independent.**  Each per-segment kernel is a pure
  function of seven scalar parameters plus its arrival array; segments
  share only additive state (ServiceStats, busy SM-time, the activity
  tracker), so any partition of the segment list computes the same
  per-segment results.
- **The merge is position-based.**  Shards are contiguous index blocks
  (:func:`~repro.parallel.partition`) and results scatter back into
  their input slots before the engine's single accumulation pass in
  placement order, so even order-sensitive float accumulations match
  bit-for-bit no matter which worker finishes first.
- **Shard payloads are columnar.**  A :class:`ShardJob` carries the
  kernel parameters as flat numpy arrays plus either per-segment rates
  (uniform arrivals regenerate in the worker —
  :func:`~repro.sim.arrivals.uniform_arrivals` is a pure function of
  ``(rate, duration)``) or one concatenated arrival buffer with offsets
  (Poisson arrivals consume the shared parent rng in segment order and
  are therefore pre-generated before sharding).  Nothing heavier than
  strings and float64 buffers crosses the process boundary.

A context held open across a :class:`~repro.ops.controller.FleetController`
run keeps its memo warm from one interval to the next.  An event
touches a handful of services, so most segments resolve from cache at
any worker count, and only the changed ones are simulated or shipped.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.obs import ObsHub
from repro.parallel import FaultInjector, ShardPool, partition
from repro.sim.arrivals import uniform_arrivals
from repro.sim.fastpath import (
    PlanMemo,
    SegmentMemo,
    _SegmentKernel,
    _SegmentRun,
    _simulate_row,
)

#: Per-segment result row: batches, violations, requests, latency_sum_ms,
#: latency_max_ms, busy_sm_s, steps.  Counts are exact in float64 far
#: beyond any simulated fleet (2**53 requests).
_ROW_WIDTH = 7


class ShardJob(NamedTuple):
    """One shard's columnar payload (picklable, numpy-backed)."""

    models: tuple[str, ...]
    gpcs: np.ndarray
    batch: np.ndarray
    procs: np.ndarray
    latency_ms: np.ndarray
    slo_ms: np.ndarray
    sm_count: np.ndarray
    #: uniform arrivals: per-segment offered rates (regenerated in-worker)
    rates: Optional[np.ndarray]
    #: pre-generated arrivals: one concatenated buffer + segment offsets
    arrival_buf: Optional[np.ndarray]
    offsets: Optional[np.ndarray]
    duration_s: float
    warmup_s: float
    until: float


def _run_shard(job: ShardJob) -> np.ndarray:
    """Worker: simulate one shard's segments, results in shard order."""
    n = len(job.models)
    out = np.empty((n, _ROW_WIDTH), dtype=np.float64)
    for i in range(n):
        kernel = _SegmentKernel(
            model=job.models[i],
            gpcs=float(job.gpcs[i]),
            batch_size=int(job.batch[i]),
            num_processes=int(job.procs[i]),
            segment_latency_ms=float(job.latency_ms[i]),
            slo_ms=float(job.slo_ms[i]),
            sm_count=int(job.sm_count[i]),
        )
        if job.rates is not None:
            arr = uniform_arrivals(float(job.rates[i]), job.duration_s)
        else:
            arr = job.arrival_buf[job.offsets[i] : job.offsets[i + 1]]
        out[i] = _simulate_row(kernel, arr, job.warmup_s, job.until)
    return out


class ShardContext:
    """A fast measurement run's engine state: the segment memo and the
    per-plan layer over it, beside an optional shard pool, held open
    across a controller run.

    ``workers`` sets process fan-out only: ``0`` leaves memo misses to
    the engine's inline loop (no pool); ``N >= 1`` ships them to an
    ``N``-worker :class:`~repro.parallel.ShardPool`.
    """

    def __init__(
        self,
        workers: int,
        fault_injector: Optional["FaultInjector"] = None,
        obs: Optional[ObsHub] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.obs = obs if obs is not None else ObsHub(enabled=False)
        self.memo = SegmentMemo()
        #: :func:`~repro.sim.runner.measure_interval`'s per-plan layer
        self.plans = PlanMemo()
        self.pool: Optional[ShardPool] = (
            ShardPool(workers, fault_injector=fault_injector, obs=self.obs)
            if workers >= 1
            else None
        )

    @property
    def memo_hits(self) -> int:
        return self.memo.hits_total

    @property
    def memo_misses(self) -> int:
        return self.memo.misses_total

    def run_shards(
        self,
        misses: list[_SegmentRun],
        arrivals: str,
        duration_s: float,
        warmup_s: float,
        until: float,
        memo_hits: int,
    ) -> list[tuple]:
        """Simulate ``misses`` on the pool; result rows in input order."""
        assert self.pool is not None, "run_shards needs a pool (workers >= 1)"
        jobs = [
            _pack_job(misses[start:stop], arrivals, duration_s, warmup_s, until)
            for start, stop in partition(len(misses), self.workers)
        ]
        with self.obs.span(
            "scatter", cat="shard",
            shards=len(jobs), segments=len(misses), memo_hits=memo_hits,
        ):
            rows_per_shard = self.pool.run(_run_shard, jobs)
        with self.obs.span("gather", cat="shard", shards=len(jobs)):
            # Plain floats: float64 round-trips exactly, and report
            # fields must not silently become numpy scalars.
            return [
                tuple(float(x) for x in row)
                for rows in rows_per_shard
                for row in rows
            ]

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "ShardContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _pack_job(
    segs: list[_SegmentRun],
    arrivals: str,
    duration_s: float,
    warmup_s: float,
    until: float,
) -> ShardJob:
    """Columnar payload for one shard's ``(segment, slo, sm, times)`` rows."""
    models = tuple(seg.model for seg, _, _, _ in segs)
    gpcs = np.array([seg.effective_gpcs for seg, _, _, _ in segs])
    batch = np.array([seg.batch_size for seg, _, _, _ in segs], dtype=np.int64)
    procs = np.array(
        [seg.num_processes for seg, _, _, _ in segs], dtype=np.int64
    )
    latency = np.array([seg.latency_ms for seg, _, _, _ in segs])
    slo = np.array([slo_ms for _, slo_ms, _, _ in segs])
    sm = np.array([sm_count for _, _, sm_count, _ in segs], dtype=np.int64)
    rates = arrival_buf = offsets = None
    if arrivals == "uniform":
        rates = np.array([seg.served_rate for seg, _, _, _ in segs])
    else:
        chunks = [times for _, _, _, times in segs]
        counts = np.array([len(c) for c in chunks], dtype=np.int64)
        offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        arrival_buf = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)
        )
    return ShardJob(
        models=models,
        gpcs=gpcs,
        batch=batch,
        procs=procs,
        latency_ms=latency,
        slo_ms=slo,
        sm_count=sm,
        rates=rates,
        arrival_buf=arrival_buf,
        offsets=offsets,
        duration_s=duration_s,
        warmup_s=warmup_s,
        until=until,
    )
