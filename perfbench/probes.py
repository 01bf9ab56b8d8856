"""Timing probes for the traced run, installed from outside the program.

:class:`Probes` wraps the public entry points of each layer — ``ops``
(``FleetController.step``), ``core`` (scheduling, deployment, failover,
allocator, fingerprinting) and ``sim`` (``simulate_placement``) — with
wall-clock counters, and reads the controller's own
``apply``/``check``/``fingerprint``/``measure`` spans, which carry walls
when the controller runs with ``ObsHub.live()``.  Nothing under ``src/``
changes: the wrappers are installed on the classes for the duration of
one ``with Probes():`` block and removed on exit.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import repro.sim.runner as sim_runner
from repro.core.allocator import SegmentAllocator
from repro.core.deployment import DeploymentManager
from repro.core.failover import FailoverController
from repro.core.parvagpu import ParvaGPU
from repro.core.placement import Placement
from repro.ops.controller import FleetController

#: event class name -> the short kind the per-kind metrics use
KINDS = {
    "GpuFailure": "failure",
    "SpotPreemptionWave": "preemption",
    "GpuRecovery": "recovery",
    "RateEpoch": "rate",
    "SloChange": "slo",
    "ServiceArrival": "arrival",
    "ServiceDeparture": "departure",
}
STAGES = ("apply", "check", "fingerprint", "measure")

#: (owner, attribute, metric prefix) of every timed core/sim entry point
_TIMED: tuple[tuple[Any, str, str], ...] = (
    (ParvaGPU, "schedule", "core.schedule"),
    (DeploymentManager, "deploy", "core.deploy"),
    (DeploymentManager, "build_states", "core.build_states"),
    (DeploymentManager, "update_slo", "core.update_slo"),
    (DeploymentManager, "remove_service", "core.remove_service"),
    (FailoverController, "fail_gpu", "core.fail_gpu"),
    (FailoverController, "restore_gpu", "core.restore_gpu"),
    (SegmentAllocator, "make_index", "core.make_index"),
    (SegmentAllocator, "allocation_optimization",
     "core.allocation_optimization"),
    (Placement, "fingerprint", "core.fingerprint"),
    (sim_runner, "simulate_placement", "sim.simulate_placement"),
)


@dataclass
class StepTrace:
    """One ``FleetController.step`` call as seen from outside."""

    t: float
    kinds: Counter
    #: ``time.monotonic()`` at entry and exit (comparable with the serve
    #: gateway's work stopwatch)
    start: float
    end: float
    stages: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


class Probes:
    """Counters and walls per layer entry point, plus per-step stages."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.steps: list[StepTrace] = []
        self.build_state_gpus = 0
        self.segments = 0
        self.requests = 0
        self.reused = 0
        #: segments served by every simulate call after the first
        self.comparable = 0
        self._last_sigs: Counter | None = None
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Probes":
        for owner, attr, key in _TIMED:
            self._wrap(owner, attr, key)
        self._wrap_step()
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, owner: Any, attr: str, key: str) -> None:
        orig = getattr(owner, attr)
        after: Callable[[Any, tuple], None] | None = {
            "core.build_states": self._after_build_states,
            "sim.simulate_placement": self._after_simulate,
        }.get(key)
        calls, seconds = self.calls, self.seconds

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                calls[key] += 1
                seconds[key] += time.perf_counter() - t0
            if after is not None:
                after(out, args)
            return out

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, orig))

    def _after_build_states(self, states: list, args: tuple) -> None:
        self.build_state_gpus += len(states)

    def _after_simulate(self, report: Any, args: tuple) -> None:
        placement = args[0]
        sigs: Counter = Counter(
            (gpu_id, seg.start, seg.gpcs, seg.service_id, seg.served_rate)
            for gpu_id, seg in placement.iter_segments()
        )
        n = sum(sigs.values())
        self.segments += n
        self.requests += sum(st.requests for st in report.services.values())
        if self._last_sigs is not None:
            self.comparable += n
            self.reused += sum((sigs & self._last_sigs).values())
        self._last_sigs = sigs

    def _wrap_step(self) -> None:
        orig = FleetController.step
        steps = self.steps

        def step(ctl: FleetController, t: float, events: Any = ()) -> Any:
            spans = ctl.obs.tracer.spans
            first = len(spans)
            kinds = Counter(KINDS[type(e).__name__] for e in events)
            start = time.monotonic()
            try:
                return orig(ctl, t, events)
            finally:
                trace = StepTrace(t, kinds, start, time.monotonic())
                for sp in spans[first:]:
                    if sp.name in STAGES:
                        trace.stages[sp.name] = (
                            trace.stages.get(sp.name, 0.0) + sp.wall_s
                        )
                steps.append(trace)

        FleetController.step = step  # type: ignore[method-assign]
        self._undo.append((FleetController, "step", orig))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The ``ops``/``core``/``sim`` per-layer metrics, name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        ms = 1e3
        out["ops.step_ms"] = (sum(s.wall for s in self.steps) * ms, "ms")
        for stage in STAGES:
            out[f"ops.{stage}_ms"] = (
                sum(s.stages.get(stage, 0.0) for s in self.steps) * ms, "ms"
            )
        # A batch's apply wall is shared among its event kinds by count.
        per_kind = dict.fromkeys(KINDS.values(), 0.0)
        for s in self.steps:
            total = sum(s.kinds.values())
            for kind, n in s.kinds.items():
                per_kind[kind] += s.stages.get("apply", 0.0) * n / total
        for kind, sec in per_kind.items():
            out[f"ops.apply_ms.{kind}"] = (sec * ms, "ms")
        for _owner, _attr, key in _TIMED:
            out[f"{key}.calls"] = (float(self.calls[key]), "count")
            out[f"{key}.ms"] = (self.seconds[key] * ms, "ms")
        out["core.build_states.gpus"] = (float(self.build_state_gpus), "count")
        out["sim.segments"] = (float(self.segments), "count")
        out["sim.requests"] = (float(self.requests), "count")
        out["sim.segments_reused_frac"] = (
            self.reused / self.comparable if self.comparable else 0.0, "frac"
        )
        return out
