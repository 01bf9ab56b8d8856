"""Analytic performance model: ``(model, instance, batch, procs) -> perf``.

The model is a roofline with compute/overhead overlap, built from the
workload-characteristic observations of the paper's SIII-B (Figures 3/4):

* Per-batch **SM compute time** on a size-``g`` instance::

      C = t_inf * (b + b_half) / g**eta          [ms]

  Linear in batch with a small intercept (large batches amortize fixed
  kernel work), divided by an ``eta``-damped instance size (big instances
  are slightly less efficient per GPC).

* Per-batch **overlappable overhead** (host-device copies, CPU work,
  launch gaps) that does not occupy SMs::

      O = o0 + o1 * b**o_exp                     [ms]

* With ``p`` MPS processes of the *same* workload sharing the instance, the
  SMs serve the processes' compute phases back-to-back while overheads hide
  behind other processes' compute.  Until the SMs saturate
  (``p*C < C + O``), per-process latency stays near ``C + O`` and
  throughput scales with ``p``; past saturation the SM pipe is the
  bottleneck::

      L(p) = max(p*C, C + O) * (1 + kappa*(p-1))  [ms]
      T(p) = 1000 * p * b / L(p)                  [requests/s]

  ``kappa`` is a small MPS scheduling-contention tax.

This reproduces the paper's quoted InceptionV3 anchors: on a size-1
instance at batch 4, throughput 354/444/446 and latency 11/18/27 ms for
1/2/3 processes (slight gain, 1.6x/2.45x latency); on size 4 at batch 8,
throughput 786/1695/1810 with latency ~10/9/13 ms (big gain, flat latency).

The same equations serve the MPS-percentage baselines (gpulet, iGniter) by
treating a fraction ``f`` of a whole GPU as an effective instance size
``g = 7*f`` (continuous, since MPS quotas are not slice-quantized).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.geometry import PartitionGeometry
from repro.gpu.mig import MIG_GEOMETRY
from repro.models.zoo import ModelSpec

#: Batch sizes the profiler sweeps (SIII-C: eight common sizes, 1..128).
PROFILE_BATCH_SIZES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

#: Process counts the profiler sweeps (SIII-C caps at three).
PROFILE_PROCESS_COUNTS: tuple[int, ...] = (1, 2, 3)

#: Largest batch considered anywhere.
MAX_BATCH = 128

#: MPS scheduling-contention tax per extra process.
MPS_CONTENTION = 0.02


@dataclass(frozen=True)
class OperatingPoint:
    """Performance of one (instance, batch, procs) operating point."""

    model: str
    instance_size: float  #: GPCs (float to admit MPS fractions of a GPU)
    batch_size: int
    num_processes: int
    latency_ms: float  #: per-batch completion latency seen by a request
    throughput: float  #: aggregate requests/s of the whole segment
    memory_gb: float  #: framebuffer footprint
    sm_activity: float  #: fraction of allocated SM-time busy at this point

    @property
    def throughput_per_gpc(self) -> float:
        """The Demand-Matching objective (Eq. 2 of the paper)."""
        return self.throughput / self.instance_size


class PerfModel:
    """Evaluate the analytic model for one workload.

    ``geometry`` is the :class:`~repro.gpu.geometry.PartitionGeometry` the
    model runs on (default: the A100-80GB :data:`MIG_GEOMETRY`): instance
    sizes are its slice counts, memory capacities come from its memory
    map, and compute scales through its ``gpc_equiv_per_slice`` (an XCD
    is worth ~1.4 A100 GPCs here), so one analytic surface serves every
    backend.  Another NVIDIA generation is
    ``geometry_for_generation(name)``: compute is generation-invariant
    within the NVIDIA line (the paper's Discussion: identical MIG
    configurations across Ampere/Hopper/Blackwell), only OOM boundaries
    move.
    """

    def __init__(
        self,
        spec: ModelSpec,
        contention: float = MPS_CONTENTION,
        geometry: PartitionGeometry = MIG_GEOMETRY,
    ):
        self.spec = spec
        self.contention = contention
        self.geometry = geometry

    # ------------------------------------------------------------------ #
    # primitive quantities
    # ------------------------------------------------------------------ #

    def compute_ms(self, gpcs: float, batch: int) -> float:
        """SM compute time of one batch on ``gpcs`` worth of instance."""
        if gpcs <= 0:
            raise ValueError("instance size must be positive")
        if batch < 1:
            raise ValueError("batch size must be >= 1")
        s = self.spec
        return s.t_inf * (batch + s.b_half) / gpcs**s.eta

    def overhead_ms(self, batch: int) -> float:
        """Overlappable non-SM overhead of one batch."""
        s = self.spec
        return s.o0 + s.o1 * batch**s.o_exp

    def memory_gb(self, batch: int, procs: int) -> float:
        """Framebuffer footprint of ``procs`` processes at ``batch``."""
        s = self.spec
        per_proc = s.weights_gb + s.ctx_gb + s.act_gb_per_req * batch
        return per_proc * procs

    def fits(self, size: int, batch: int, procs: int) -> bool:
        """Whether the operating point avoids OOM on a size-``size`` instance."""
        capacity = self.geometry.instance_memory_gb(size)
        return self.memory_gb(batch, procs) <= capacity

    def effective_gpcs(self, size: float) -> float:
        """``size`` slices of the active geometry in A100-GPC equivalents."""
        return self.geometry.gpc_equivalent(size)

    # ------------------------------------------------------------------ #
    # the model
    # ------------------------------------------------------------------ #

    def _compute_and_latency(
        self, gpcs: float, batch: int, procs: int
    ) -> tuple[float, float]:
        """``(C, L)``: one batch's SM compute time and its latency."""
        if procs < 1:
            raise ValueError("process count must be >= 1")
        c = self.compute_ms(gpcs, batch)
        o = self.overhead_ms(batch)
        base = max(procs * c, c + o)
        return c, base * (1.0 + self.contention * (procs - 1))

    def latency_ms(self, gpcs: float, batch: int, procs: int) -> float:
        """Per-batch latency with ``procs`` homogeneous MPS processes."""
        return self._compute_and_latency(gpcs, batch, procs)[1]

    def throughput(self, gpcs: float, batch: int, procs: int) -> float:
        """Aggregate requests/s of the segment."""
        return 1000.0 * procs * batch / self.latency_ms(gpcs, batch, procs)

    def sm_activity(self, gpcs: float, batch: int, procs: int) -> float:
        """Fraction of the segment's SM-time that is busy.

        The SMs are busy for ``procs * C`` out of every ``L`` milliseconds
        (each process contributes one compute phase per batch period).
        """
        c, lat = self._compute_and_latency(gpcs, batch, procs)
        return min(1.0, procs * c / lat)

    def evaluate(self, size: float, batch: int, procs: int) -> OperatingPoint:
        """Full :class:`OperatingPoint` for an instance size (or fraction).

        ``instance_size`` is recorded in the active geometry's own slices;
        latency/throughput are computed on the GPC-equivalent compute, in
        one pass with :meth:`throughput` and :meth:`sm_activity`'s
        expressions.
        """
        c, lat = self._compute_and_latency(self.effective_gpcs(size), batch,
                                           procs)
        return OperatingPoint(
            model=self.spec.name,
            instance_size=size,
            batch_size=batch,
            num_processes=procs,
            latency_ms=lat,
            throughput=1000.0 * procs * batch / lat,
            memory_gb=self.memory_gb(batch, procs),
            sm_activity=min(1.0, procs * c / lat),
        )

    # ------------------------------------------------------------------ #
    # convenience sweeps
    # ------------------------------------------------------------------ #

    def sweep(
        self,
        sizes: tuple[int, ...] | None = None,
        batches: tuple[int, ...] = PROFILE_BATCH_SIZES,
        procs: tuple[int, ...] = PROFILE_PROCESS_COUNTS,
        skip_oom: bool = True,
    ) -> list[OperatingPoint]:
        """Evaluate the full profiling grid, dropping OOM points by default."""
        if sizes is None:
            sizes = self.geometry.instance_sizes
        points: list[OperatingPoint] = []
        for g in sizes:
            for b in batches:
                for p in procs:
                    if skip_oom and not self.fits(g, b, p):
                        continue
                    points.append(self.evaluate(g, b, p))
        return points

    def max_single_gpu_throughput(self, slo_ms: float) -> float:
        """Best single-process whole-GPU throughput under a latency bound.

        Used by the iGniter baseline's feasibility gate: a service whose
        request rate exceeds this cannot be served by one GPU partition.
        """
        best = 0.0
        for b in PROFILE_BATCH_SIZES:
            if not self.fits(7, b, 1):
                continue
            if self.latency_ms(7.0, b, 1) <= slo_ms:
                best = max(best, self.throughput(7.0, b, 1))
        return best
