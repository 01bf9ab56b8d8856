"""The measurement engine's run-scoped state.

:func:`~repro.sim.fastpath.simulate_placement_fast` is the one
measurement engine: it resolves each segment from a
:class:`~repro.sim.fastpath.SegmentMemo` and simulates the misses
inline, by the numpy closed form where its regime applies and by the
per-batch kernel otherwise.  A :class:`ShardContext` holds that memo
beside the per-plan layer over it
(:class:`~repro.sim.fastpath.PlanMemo`).

A context held open across a :class:`~repro.ops.controller.FleetController`
run keeps both warm from one interval to the next.  An event touches a
handful of services, so most plans and segments resolve from cache and
only the changed ones are simulated.
"""

from __future__ import annotations

from repro.sim.fastpath import PlanMemo, SegmentMemo


class ShardContext:
    """A fast measurement run's engine state: the segment memo and the
    per-plan layer over it, held open across a controller run."""

    def __init__(self) -> None:
        self.memo = SegmentMemo()
        #: :func:`~repro.sim.runner.measure_interval`'s per-plan layer
        self.plans = PlanMemo()
