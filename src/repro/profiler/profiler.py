"""The Profiler of SIII-C.

Sweeps each workload over the active geometry's instance sizes x eight
batch sizes (1..128, powers of two) x process counts {1,2,3}, recording
throughput and latency and *omitting* operating points that would exhaust
the instance's framebuffer — exactly the grid (and the OOM gaps) visible
in Figures 3/4.  The default geometry is A100-class MIG (sizes
{1,2,3,4,7}); pass ``geometry=get_geometry("mi300x")`` to sweep the AMD
XCD sizes {1,2,4,8} against the MI300X memory maps instead.

On real hardware this step launches inference servers on reconfigured
instances; here each measurement is an
:class:`~repro.models.perf.PerfModel` evaluation, optionally perturbed by
a small deterministic measurement noise so that downstream algorithms
cannot overfit to an exact analytic surface.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.gpu.geometry import PartitionGeometry
from repro.gpu.mig import MIG_GEOMETRY
from repro.models.perf import (
    PROFILE_BATCH_SIZES,
    PROFILE_PROCESS_COUNTS,
    PerfModel,
)
from repro.models.zoo import ModelSpec, WORKLOADS, get_model
from repro.profiler.table import ProfileEntry, ProfileTable


def _noise_factor(key: str, amplitude: float) -> float:
    """Deterministic multiplicative noise in [1-amplitude, 1+amplitude]."""
    digest = hashlib.sha256(key.encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2**64
    return 1.0 + amplitude * (2.0 * unit - 1.0)


@dataclass
class Profiler:
    """Produces :class:`ProfileTable` objects for registered services.

    ``noise`` is the relative amplitude of simulated measurement jitter
    (default 1%).  Zero gives the exact analytic surface, which the
    calibration tests use.  ``geometry`` defaults to the A100 MIG grid.
    """

    instance_sizes: Optional[tuple[int, ...]] = None
    batch_sizes: tuple[int, ...] = PROFILE_BATCH_SIZES
    process_counts: tuple[int, ...] = PROFILE_PROCESS_COUNTS
    noise: float = 0.01
    geometry: PartitionGeometry = MIG_GEOMETRY
    _cache: dict[str, ProfileTable] = field(default_factory=dict)

    def _sizes(self) -> tuple[int, ...]:
        if self.instance_sizes is not None:
            return self.instance_sizes
        return self.geometry.instance_sizes

    def _perf(self, spec: ModelSpec) -> PerfModel:
        return PerfModel(spec, geometry=self.geometry)

    def _cache_key(self, spec: ModelSpec) -> str:
        return f"{self.geometry.name}/{spec.name}"

    def profile(self, spec: ModelSpec) -> ProfileTable:
        """Measure the full grid for one workload (cached)."""
        key = self._cache_key(spec)
        if key in self._cache:
            return self._cache[key]
        perf = self._perf(spec)
        table = ProfileTable(spec.name)
        for g in self._sizes():
            for b in self.batch_sizes:
                for p in self.process_counts:
                    if not perf.fits(g, b, p):
                        continue  # OOM: point absent, as in Fig. 3/4
                    point = perf.evaluate(g, b, p)
                    lat = point.latency_ms * _noise_factor(
                        f"{spec.name}/{g}/{b}/{p}/lat", self.noise
                    )
                    tp = point.throughput * _noise_factor(
                        f"{spec.name}/{g}/{b}/{p}/tp", self.noise
                    )
                    table.add(
                        ProfileEntry(
                            model=spec.name,
                            instance_size=g,
                            batch_size=b,
                            num_processes=p,
                            latency_ms=lat,
                            throughput=tp,
                            memory_gb=point.memory_gb,
                            sm_activity=point.sm_activity,
                        )
                    )
        if not len(table):
            raise RuntimeError(
                f"{spec.name}: no feasible operating point fits any instance"
            )
        self._cache[key] = table
        return table

    def profile_by_name(self, name: str) -> ProfileTable:
        return self.profile(get_model(name))

    def estimated_profiling_cost_s(self, spec: ModelSpec, per_point_s: float = 10.0) -> float:
        """Rough wall-clock a real profiling run would take (for reports)."""
        perf = self._perf(spec)
        n = sum(
            1
            for g in self._sizes()
            for b in self.batch_sizes
            for p in self.process_counts
            if perf.fits(g, b, p)
        )
        return n * per_point_s


def profile_workloads(
    names: Iterable[str] | None = None,
    noise: float = 0.01,
    geometry: PartitionGeometry = MIG_GEOMETRY,
) -> Mapping[str, ProfileTable]:
    """Profile a set of workloads (default: the full Table-IV zoo).

    ``geometry`` retargets the sweep (sizes + memory maps + compute scale)
    at another partition geometry; the default is the paper's A100 MIG
    grid.
    """
    profiler = Profiler(noise=noise, geometry=geometry)
    selected = list(names) if names is not None else sorted(WORKLOADS)
    return {name: profiler.profile_by_name(name) for name in selected}
