"""Deterministic process fan-out for the sharded control plane.

Fleet-scale per-interval serving measurement is embarrassingly
parallel: the unit tasks are pure functions of picklable inputs, and
every consumer merges results by *input position*, never by completion
order.  This module holds the fan-out plumbing (the controller's
``workers`` sets the measurement fan-out and nothing else):

- :func:`partition` — contiguous, near-even index blocks.  Contiguity is
  what keeps sharded merges trivially order-independent: block ``k``
  owns input slots ``[start, stop)`` and its results scatter back into
  exactly those slots regardless of which worker finished first.
- :class:`ShardPool` — a lazily-created ``ProcessPoolExecutor`` wrapper
  whose :meth:`ShardPool.run` returns results **in job order**.  With
  ``workers == 1`` jobs run inline in the calling process through the
  identical pack/execute/unpack code path, so single-shard runs exercise
  the sharded machinery without any subprocess (and tests can cover the
  shard/merge logic cheaply).

Determinism contract: workers never share state, never consume random
draws, and never influence result order — a sharded run is bit-identical
to the serial reference for any worker count (guarded by
``tests/property/test_property_parallel.py`` and the perf harness's
parallel-vs-serial fingerprint identity check).

Crash resilience: :meth:`ShardPool.run` survives worker death.  A
``BrokenProcessPool`` (a worker segfaulted, was OOM-killed, or hit a
spot preemption) or a per-job timeout (a hung worker) disposes the
executor and retries the whole batch on a fresh pool after a bounded
exponential backoff; repeated failures *degrade* the pool — halving the
worker count down to serial-inline execution, which cannot break.
Every degraded path is bit-identical to the healthy one: jobs are pure
functions and merges are positional, so re-running a batch (or running
it inline) reproduces the exact same results.  What the pool survived
is counted in :class:`ShardHealth`, surfaced through the serve
gateway's ``/health`` document.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
)
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ClassVar,
    Optional,
    Protocol,
    Sequence,
)

from repro.obs import ObsHub


class FaultInjector(Protocol):
    """Pre-job hook for infrastructure fault injection (tests/benchmarks).

    Implementations must be picklable — the hook rides into worker
    processes with each job.  ``batch`` is the pool's monotonically
    increasing dispatch counter, ``attempt`` the recovery retry number
    for this batch (0 = first try), ``index`` the job's position, and
    ``in_worker`` whether the call runs in a subprocess (process-kill
    faults must not fire inline in the parent).
    """

    def before(
        self, batch: int, attempt: int, index: int, in_worker: bool
    ) -> None: ...


@dataclass
class ShardHealth:
    """What the pool has survived — the gateway's ``/health`` counters."""

    #: batches dispatched (inline or pooled)
    batches: int = 0
    #: ``BrokenProcessPool`` detections (a worker process died)
    worker_crashes: int = 0
    #: per-job deadline expiries (a worker hung)
    timeouts: int = 0
    #: executors disposed and rebuilt after a failure
    pool_rebuilds: int = 0
    #: whole-batch retries (each after a backoff sleep)
    retries: int = 0
    #: times the worker count was halved after repeated failures
    degradations: int = 0
    #: batches that ran serial-inline (the recovery floor)
    inline_batches: int = 0
    #: sibling futures cancelled after a job raised
    cancelled_siblings: int = 0
    #: current (possibly degraded) worker count
    active_workers: int = 0

    #: the one spec driving both the ``/health`` document and the
    #: ``shard_*`` metric families (see repro.obs.registry.attach)
    OBS_FIELDS: ClassVar[dict[str, str]] = {
        "batches": "counter",
        "worker_crashes": "counter",
        "timeouts": "counter",
        "pool_rebuilds": "counter",
        "retries": "counter",
        "degradations": "counter",
        "inline_batches": "counter",
        "cancelled_siblings": "counter",
        "active_workers": "gauge",
    }

    def to_doc(self) -> dict[str, int]:
        return {name: int(getattr(self, name)) for name in self.OBS_FIELDS}


class _PoolFailure(Exception):
    """Internal: the *pool* failed (worker death / hang), not the job."""


def _call_with_fault(
    injector: FaultInjector,
    batch: int,
    attempt: int,
    index: int,
    fn: Callable[[Any], Any],
    job: Any,
) -> Any:
    """Worker-side wrapper: give the injector its shot, then run the job."""
    injector.before(batch, attempt, index, in_worker=True)
    return fn(job)


def partition(n: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``shards`` contiguous blocks.

    Blocks are near-even (sizes differ by at most one, larger blocks
    first) and non-empty; fewer than ``shards`` blocks are returned when
    ``n < shards``.  The split depends only on ``(n, shards)``, so two
    processes partition identically.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    blocks: list[tuple[int, int]] = []
    k = min(shards, n)
    base, extra = divmod(n, k) if k else (0, 0)
    start = 0
    for i in range(k):
        stop = start + base + (1 if i < extra else 0)
        blocks.append((start, stop))
        start = stop
    return blocks


class ShardPool:
    """Order-preserving, crash-resilient process pool with an inline mode.

    The underlying ``ProcessPoolExecutor`` is created on first use (a
    controller configured with workers but never asked to measure pays
    nothing) and must be released with :meth:`close` — or use the pool
    as a context manager.

    Recovery ladder (each rung bit-identical to the last): a dead or
    hung worker disposes the executor and the batch retries on a fresh
    pool after ``backoff_s * 2**attempt`` seconds; ``max_attempts``
    consecutive failures at one width halve the worker count; width 1
    runs the batch serial-inline in the calling process — the floor
    that cannot break.  ``job_timeout_s`` bounds each job's wait (hung
    workers are terminated, not awaited).  ``fault_injector`` is the
    test/benchmark hook that makes all of this exercisable on purpose.
    """

    def __init__(
        self,
        workers: int,
        *,
        max_attempts: int = 3,
        backoff_s: float = 0.05,
        job_timeout_s: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        obs: Optional[ObsHub] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive")
        self.workers = workers
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.job_timeout_s = job_timeout_s
        self.fault_injector = fault_injector
        #: the obs facade (a disabled hub when the pool runs standalone)
        self.obs = obs if obs is not None else ObsHub(enabled=False)
        self._m_batch_wall = self.obs.histogram(
            "shard_batch_wall_seconds",
            "wall-clock sidecar per dispatched shard batch",
        )
        self._m_shard_wall = self.obs.histogram(
            "shard_job_wall_seconds",
            "wall-clock sidecar per shard: completion offset from batch "
            "start (pooled) or job duration (inline)",
            ("shard",),
        )
        self.health = ShardHealth(active_workers=workers)
        #: current (possibly degraded) width; never recovers upward —
        #: a host that killed workers twice will likely do it again
        self._active = workers
        self._batches = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._active)
        return self._executor

    def run(
        self, fn: Callable[[Any], Any], jobs: Sequence[Any]
    ) -> list[Any]:
        """Apply ``fn`` to every job, returning results in job order.

        Completion order never leaks: results are gathered positionally,
        so a slow first shard cannot reorder the merge.  Pool failures
        (worker death, hung workers) are recovered internally — see the
        class docstring; a job's *own* exception cancels the outstanding
        sibling futures and re-raises the first positional error.
        """
        if not jobs:
            return []
        batch = self._batches
        self._batches += 1
        self.health.batches += 1
        t0 = self.obs.wall()
        attempt = 0
        while True:
            width = self._active
            self.health.active_workers = width
            try:
                if width == 1:
                    out = self._run_inline(fn, jobs, batch, attempt)
                else:
                    out = self._run_pooled(fn, jobs, batch, attempt, t0)
            except _PoolFailure:
                attempt += 1
                self.health.retries += 1
                if attempt >= self.max_attempts:
                    # This width keeps dying: degrade and start over.
                    self._active = max(1, width // 2)
                    self.health.degradations += 1
                    self.obs.note(
                        "shard-degradation",
                        batch=batch,
                        width=width,
                        new_width=self._active,
                    )
                    self.obs.dump_flight("shard-degradation")
                    attempt = 0
                time.sleep(self.backoff_s * (2 ** min(attempt, 6)))
            else:
                self._m_batch_wall.observe(self.obs.wall() - t0)
                return out

    def _run_inline(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        batch: int,
        attempt: int,
    ) -> list[Any]:
        """The recovery floor: same pack/execute/unpack path, no processes."""
        self.health.inline_batches += 1
        injector = self.fault_injector
        out: list[Any] = []
        for index, job in enumerate(jobs):
            if injector is not None:
                # in_worker=False: process-kill faults must not fire in
                # the parent; delay faults still apply.
                injector.before(batch, attempt, index, in_worker=False)
            t0 = self.obs.wall()
            out.append(fn(job))
            self._m_shard_wall.observe(
                self.obs.wall() - t0, shard=index
            )
        return out

    def _run_pooled(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        batch: int,
        attempt: int,
        t0: float,
    ) -> list[Any]:
        executor = self._ensure_executor()
        injector = self.fault_injector
        try:
            if injector is None:
                futures = [executor.submit(fn, job) for job in jobs]
            else:
                futures = [
                    executor.submit(
                        _call_with_fault, injector, batch, attempt, i, fn, job
                    )
                    for i, job in enumerate(jobs)
                ]
        except BrokenExecutor as exc:
            # A worker death from a *previous* batch can surface here:
            # the pool noticed the broken pipe only after those results
            # were already gathered, and submit() is the first call to
            # see the wreckage.
            self.health.worker_crashes += 1
            self.obs.note("worker-crash", batch=batch, attempt=attempt)
            self._dispose()
            raise _PoolFailure("pool broken at submit") from exc
        out: list[Any] = []
        for index, f in enumerate(futures):
            try:
                out.append(f.result(timeout=self.job_timeout_s))
            except BrokenExecutor as exc:
                self.health.worker_crashes += 1
                self.obs.note(
                    "worker-crash", batch=batch, attempt=attempt, shard=index
                )
                self._dispose()
                raise _PoolFailure("worker died") from exc
            except (TimeoutError, _FuturesTimeout) as exc:
                self.health.timeouts += 1
                self.obs.note(
                    "shard-timeout", batch=batch, attempt=attempt, shard=index
                )
                self._dispose(kill=True)
                raise _PoolFailure("job timed out") from exc
            except BaseException:
                # The job itself raised: cancel the outstanding siblings
                # so no orphan keeps computing, then surface the first
                # positional error.
                self.health.cancelled_siblings += _cancel_all(futures)
                raise
            else:
                # Completion offset from batch start: results gather
                # positionally, so shard k's offset includes any wait
                # for shards 0..k-1 — a scatter/straggler profile, not
                # a per-job duration.
                self._m_shard_wall.observe(
                    self.obs.wall() - t0, shard=index
                )
        return out

    def _dispose(self, *, kill: bool = False) -> None:
        """Drop the executor after a failure; ``kill`` terminates workers.

        ``kill=True`` is the hung-worker path — waiting for the worker
        would wait forever, so its process is terminated outright.
        """
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        self.health.pool_rebuilds += 1
        if kill:
            for proc in list(getattr(executor, "_processes", {}).values()):
                proc.terminate()
        executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _cancel_all(futures: Sequence[Future[Any]]) -> int:
    """Cancel every not-yet-running future; returns how many were stopped."""
    return sum(1 for f in futures if f.cancel())
