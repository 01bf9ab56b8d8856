"""Scheduling over heterogeneous clusters mixing partition geometries.

The paper's pipeline assumes a fleet of identical MIG-capable GPUs.  A
real cloud pool mixes accelerators — A100s next to MI300Xs — and the
segment formulation extends naturally: each geometry gets its own profile
tables (operating points are hardware-specific), and the scheduler's only
new decision is *which geometry serves which service*.

:class:`HeterogeneousParvaGPU` makes that decision greedily with the same
objective Demand Matching already optimizes (Eq. 2): a service goes to the
pool whose optimal triplet yields the highest throughput per A100-GPC
*equivalent* — the cross-vendor compute unit defined by each geometry's
``gpc_equiv_per_slice`` — so "cheaper" compute wins ties, not bigger
devices.  Each pool then runs the unmodified Algorithm-1/2 pipeline over
its assigned services and the per-pool placements are merged into one
:class:`~repro.core.placement.Placement` whose GPU plans carry their
geometry name.

Pools may be capacity-bounded (``max_gpus``); overfull pools spill their
least-advantaged services to the next-best pool until every pool fits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from repro.core.allocator import SegmentAllocator
from repro.core.configurator import SegmentConfigurator
from repro.core.placement import Placement
from repro.core.service import InfeasibleServiceError, Service
from repro.gpu.geometry import PartitionGeometry
from repro.profiler.table import ProfileTable


@lru_cache(maxsize=None)
def _profiles_for(geometry_name: str) -> Mapping[str, ProfileTable]:
    """Table-IV profiles for one geometry, cached per process."""
    from repro.gpu.geometry import get_geometry
    from repro.profiler import profile_workloads

    return profile_workloads(geometry=get_geometry(geometry_name))


def make_mixed_scheduler(
    geometry_names: Sequence[str] = ("mig", "mi300x"),
    use_mps: bool = True,
    optimize: bool = True,
    fast_path: bool = True,
) -> "HeterogeneousParvaGPU":
    """The standard mixed-fleet scheduler over Table-IV profiles.

    Shared by the CLI's ``--geometry mixed`` path and the ``geo``
    experiment so the fleet wiring lives in one place; profiles are
    cached per process.
    """
    from repro.gpu.geometry import get_geometry

    return HeterogeneousParvaGPU(
        [
            GeometryPool(get_geometry(name), _profiles_for(name))
            for name in geometry_names
        ],
        use_mps=use_mps,
        optimize=optimize,
        fast_path=fast_path,
    )


@dataclass
class GeometryPool:
    """One homogeneous sub-fleet: a geometry, its profiles, an optional cap."""

    geometry: PartitionGeometry
    profiles: Mapping[str, ProfileTable]
    max_gpus: Optional[int] = None

    @property
    def name(self) -> str:
        return self.geometry.name


class HeterogeneousParvaGPU:
    """ParvaGPU across a cluster mixing partition geometries.

    ``pools`` is ordered: earlier pools win efficiency ties, so put the
    incumbent fleet first for placement stability.
    """

    def __init__(
        self,
        pools: Sequence[GeometryPool],
        use_mps: bool = True,
        optimize: bool = True,
        fast_path: bool = True,
    ) -> None:
        if not pools:
            raise ValueError("need at least one geometry pool")
        names = [p.name for p in pools]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate geometry pools: {names}")
        self.pools = list(pools)
        self.use_mps = use_mps
        self.optimize = optimize
        self.fast_path = fast_path
        self._configurators = {
            p.name: SegmentConfigurator(
                p.profiles,
                max_processes=3 if use_mps else 1,
                geometry=p.geometry,
                memoize=fast_path,
            )
            for p in self.pools
        }

    @property
    def name(self) -> str:
        return "parvagpu-hetero[" + "+".join(p.name for p in self.pools) + "]"

    # ------------------------------------------------------------------ #
    # service -> pool assignment
    # ------------------------------------------------------------------ #

    def efficiency(self, service: Service, pool: GeometryPool) -> Optional[float]:
        """Best throughput per GPC-equivalent on ``pool``, None if infeasible."""
        configurator = self._configurators[pool.name]
        # triplet_decision writes service.opt_tri_array as a side effect;
        # restore it so scoring a pool never leaves another geometry's
        # triplets on the service (demand_matching reuses a non-empty
        # opt_tri_array verbatim).
        saved = service.opt_tri_array
        try:
            tri = configurator.triplet_decision(service)
        except InfeasibleServiceError:
            return None
        finally:
            service.opt_tri_array = saved
        return max(
            e.throughput / pool.geometry.gpc_equivalent(e.instance_size)
            for e in tri.values()
        )

    def assign(self, services: Sequence[Service]) -> dict[str, list[Service]]:
        """Greedy Eq.-2 assignment of every service to one pool."""
        assignment: dict[str, list[Service]] = {p.name: [] for p in self.pools}
        self._scores: dict[str, dict[str, float]] = {}
        for svc in services:
            scores = {
                p.name: eff
                for p in self.pools
                if (eff := self.efficiency(svc, p)) is not None
            }
            if not scores:
                raise InfeasibleServiceError(
                    f"{svc.id}: no geometry pool has an operating point "
                    f"meeting {svc.effective_slo_ms:.1f} ms"
                )
            self._scores[svc.id] = scores
            best = max(scores, key=lambda name: scores[name])
            assignment[best].append(svc)
        return assignment

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def schedule(self, services: Sequence[Service]) -> Placement:
        """Assign, schedule per pool, spill over caps, merge placements."""
        t0 = time.perf_counter()  # repro-lint: disable=D002 (scheduling delay is fig9's measured quantity, not simulated state)
        assignment = self.assign(services)
        placements = self._schedule_pools(assignment)

        # Spill services out of capacity-capped pools, least regret first.
        for _ in range(len(services)):
            over = next(
                (
                    p
                    for p in self.pools
                    if p.max_gpus is not None
                    and placements[p.name] is not None
                    and placements[p.name].num_gpus > p.max_gpus
                ),
                None,
            )
            if over is None:
                break
            moved = self._spill_one(assignment, over)
            if not moved:
                raise InfeasibleServiceError(
                    f"pool {over.name}: exceeds {over.max_gpus} GPUs and no "
                    f"service can move to another pool"
                )
            placements = self._schedule_pools(assignment)

        # The spill loop is bounded; if it exhausted without converging
        # (e.g. two over-tight caps ping-ponging services), fail loudly
        # rather than returning a placement that violates a cap.
        for pool in self.pools:
            placement = placements[pool.name]
            if (
                pool.max_gpus is not None
                and placement is not None
                and placement.num_gpus > pool.max_gpus
            ):
                raise InfeasibleServiceError(
                    f"pool {pool.name}: needs {placement.num_gpus} GPUs but "
                    f"is capped at {pool.max_gpus}"
                )

        merged = self._merge(placements)
        merged.scheduling_delay_ms = (time.perf_counter() - t0) * 1e3  # repro-lint: disable=D002 (stopwatch stop for the fig9 delay measurement)
        merged.assign_rates({s.id: s.request_rate for s in services})
        merged.validate()
        return merged

    def _schedule_pools(
        self, assignment: Mapping[str, list[Service]]
    ) -> dict[str, Optional[Placement]]:
        out: dict[str, Optional[Placement]] = {}
        for pool in self.pools:
            svcs = assignment[pool.name]
            if not svcs:
                out[pool.name] = None
                continue
            self._configurators[pool.name].configure(svcs)
            allocator = SegmentAllocator(
                optimize=self.optimize, geometry=pool.geometry,
                indexed=self.fast_path,
            )
            out[pool.name] = allocator.allocate(svcs)
        return out

    def _spill_one(
        self, assignment: dict[str, list[Service]], over: GeometryPool
    ) -> bool:
        """Move the least-advantaged service out of ``over``; True on success."""
        best: Optional[tuple[float, Service, str]] = None
        for svc in assignment[over.name]:
            scores = self._scores[svc.id]
            others = {n: s for n, s in scores.items() if n != over.name}
            if not others:
                continue
            target = max(others, key=lambda name: others[name])
            regret = scores[over.name] - others[target]
            if best is None or regret < best[0]:
                best = (regret, svc, target)
        if best is None:
            return False
        _, svc, target = best
        assignment[over.name].remove(svc)
        assignment[target].append(svc)
        return True

    def _merge(
        self, placements: Mapping[str, Optional[Placement]]
    ) -> Placement:
        merged = Placement(framework=self.name)
        offset = 0
        for pool in self.pools:
            placement = placements[pool.name]
            if placement is None:
                continue
            for plan in placement.gpus:
                if plan.is_empty:
                    continue
                merged.gpus.append(plan.renumbered(plan.gpu_id + offset))
            if merged.gpus:
                offset = max(p.gpu_id for p in merged.gpus) + 1
        return merged
