"""Fleet-ops benchmark: the ParvaGPU control plane under fleet churn.

Usage (from the repository root)::

    python3 perfbench/run.py --workload failover-storm --seed 3 \
        --seconds 33 --trace 0

Workloads (see ``workloads.py`` for why each exists):

- ``failover-storm``: closed loop, ~1000 services, a simulated day of
  single-GPU failures with repair, 1% preemption waves with restore,
  light churn and SLO renegotiations; serving measurement off.
- ``steady-serve``: closed loop, ~500 services, a day of sparse
  single-tenant deltas; every interval is served.
- ``live-diurnal``: open loop; a ``ServeGateway`` on a ``MonotonicClock``
  fed by a same-process ``ScriptedDriver``; ~200 services with staggered
  rate epochs, flash crowds, GPU failures and one preemption wave.

Every run drives the public control-plane API with the defaults a user
gets (``FleetController()``: fast path, ``workers=0``, per-interval state
check on, obs walls pinned to 0) and checks every replay's interval
fingerprints against the reference digest recorded for that workload
and seed (``references.json``, written by ``record.py``).

End-to-end timings are reported at the box's reference speed: a fixed
calibration kernel runs after every timed step and around every one-off
timing, and each wall is scaled by the kernel's reference wall
(``CAL_REF_S``) over its wall measured next to it.  On a shared box the
CPU runs up to ~1.9x slower for stretches from under a second to minutes;
the scaling takes that out of the comparison between two commits, and
the notes print the wall-clock reaction percentiles beside it.

``--seconds`` is the live session's length; a closed loop replays its
timeline ``REPLAYS`` times.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced replay and
prints the per-layer metrics (raw walls).  The last line of
standard output is one JSON object; a failed output check prints it
with ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the serve gateway's deadline budget: the ``repro serve --deadline``
#: default in ``repro/cli.py``
DEADLINE_S = 0.25
#: set-ups (each followed by a cold bootstrap) per run: at least this
#: many, and at least ``SAMPLE_S`` seconds of them, half before and half
#: after the timed replays.  The median set-up and the median bootstrap,
#: both at the reference speed (``CAL_REF_S``), are reported.
SAMPLES = 8
SAMPLE_S = 1.5
#: imports of the program per run: this process's own, and the rest each
#: in a fresh interpreter; ``setup_s`` counts their median
IMPORTS = 5
#: closed loops replay their timeline this often (at full scale, ~10 s a
#: replay at the reference speed, up to ~18 s of wall time on a slow
#: box); each instant reports its best reaction over the replays.  The
#: count is fixed, not set by how many replays fit in ``--seconds``: the
#: best of three reads lower than the best of two, so a count that
#: followed the box's speed would move the percentiles.  Three replays
#: made a closed-loop run take up to 56 s on a slow box, too long for
#: the benchmark's whole set of runs to fit its time limit.
REPLAYS = 2
#: end-to-end metrics that do not apply to a workload.  The result line
#: needs a number for every metric, so these report the constant 1.0 and
#: are printed as n/a: serving is not measured in failover-storm, the
#: deadline belongs to the live gateway, and an open loop's event rate is
#: set by its driver, not by the control plane.
NOT_APPLICABLE = {
    "failover-storm": {"slo_compliance_min", "deadline_met_frac"},
    "steady-serve": {"deadline_met_frac"},
    "live-diurnal": {"events_per_s"},
}


class Result:
    """What one run offers, fails and measures."""

    def __init__(self) -> None:
        self.attempted = 0
        self._failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}

    @property
    def failed(self) -> int:
        """Events skipped or dropped; every event of a run whose output
        check failed."""
        return self._failed if self.correct else self.attempted

    def offer(self, events: int, failed: int) -> None:
        self.attempted += events
        self._failed += failed

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def report_digest(report: Any) -> str:
    """One digest over every interval's placement and serving fingerprint."""
    h = hashlib.sha256()
    for rec in report.intervals:
        h.update(
            f"{rec.time_s!r} {rec.fingerprint} {rec.sim_fingerprint}\n".encode()
        )
    return h.hexdigest()


def reference_key(workload: Any, scale: float) -> str:
    return f"{workload.name}/{workload.variant}/x{scale:g}"


# ---------------------------------------------------------------------- #
# the box's speed
# ---------------------------------------------------------------------- #


#: the calibration kernel's wall when the box runs at its fast speed.
#: Every timing is reported at this speed: on a shared box the CPU runs
#: up to ~1.9x slower for stretches from under a second to minutes, so a
#: raw wall says as much about the box's state as about the program.
#: Each timed wall is scaled by ``CAL_REF_S`` over the kernel's wall
#: measured right next to it: the box's speed can change several times
#: a second, so a kernel run even half a second away tracks it worse.
CAL_REF_S = 1.3e-3
#: kernel runs before and after a one-off timing (set-up, bootstrap)
CAL_AROUND = 3


def calibrate() -> float:
    """Wall of a fixed pure-Python kernel: dict updates, a sort and a
    sha256, the mix the control plane's own steps are made of.  The
    program under test never runs it, so no change to the program moves
    it; only the box's speed does."""
    t0 = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    items = []
    for i in range(4000):
        key = (i % 61, i & 7)
        table[key] = table.get(key, 0) + i
        items.append((i * 7919) % 1009)
    items.sort()
    hashlib.sha256(repr(table).encode()).hexdigest()
    return time.perf_counter() - t0


def at_reference(wall: float, kernels: list[float]) -> float:
    """``wall`` at the reference speed, given kernel walls measured
    around it."""
    return wall * CAL_REF_S / statistics.median(kernels)


def timed_at_reference(fn: Any) -> tuple[Any, float]:
    """Call ``fn()``; return its result and its wall at the reference
    speed, from ``CAL_AROUND`` kernel runs on each side."""
    kernels = [calibrate() for _ in range(CAL_AROUND)]
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    kernels += [calibrate() for _ in range(CAL_AROUND)]
    return out, at_reference(wall, kernels)


class Replay:
    """The outcome of one pass over a workload's timeline."""

    def __init__(self) -> None:
        self.report: Any = None
        #: (due, step entry, step exit) per timed instant, in
        #: ``time.monotonic()`` seconds
        self.instants: list[tuple[float, float, float]] = []
        #: the calibration kernel's wall right after each instant's step
        self.kernels: list[float] = []
        self.events = 0
        self.failed = 0
        self.raised: Optional[str] = None
        self.wall = 0.0

    @property
    def wall_reactions(self) -> list[float]:
        """Reaction per instant as the wall clock read it."""
        return [done - due for due, _start, done in self.instants]

    @property
    def reactions(self) -> list[float]:
        """Reaction per instant at the reference speed, scaled by the
        kernel run right after its step."""
        return [at_reference(r, [k])
                for r, k in zip(self.wall_reactions, self.kernels)]

    @property
    def waits(self) -> list[float]:
        """Queue wait per instant: due to the entry of the step applying it."""
        return [start - due for due, start, _done in self.instants]


def time_steps(ctl: Any) -> list[tuple[float, float, float, int, float]]:
    """Wrap ``ctl.step`` on the instance, so the controller's own driver
    (``FleetController.run`` or the serve gateway) calls the wrapper.

    Returns the list it fills with ``(t, entry, exit, events, kernel)``
    per completed step, ``kernel`` being the calibration kernel's wall
    right after the step returned; a step that raises leaves no entry.
    """
    step = ctl.step
    calls: list[tuple[float, float, float, int, float]] = []

    def timed(t: float, events: Any = ()) -> Any:
        start = time.monotonic()
        rec = step(t, events)
        done = time.monotonic()
        calls.append((t, start, done, len(events), calibrate()))
        return rec

    ctl.step = timed
    return calls


# ---------------------------------------------------------------------- #
# set-up, bootstrap and the two loops
# ---------------------------------------------------------------------- #


def setup(name: str, seed: int, scale: float) -> tuple[Any, Any]:
    """Profiles plus the workload: what every run builds before step 0."""
    from repro.profiler import profile_workloads
    from workloads import build

    return profile_workloads(), build(name, seed, scale)


def bootstrap(profiles: Any, w: Any) -> float:
    """Wall of the first step at the reference speed: full schedule +
    deploy (+ first measure)."""
    from repro.ops.controller import FleetController

    ctl = FleetController(profiles=profiles)
    ctl.begin(w.services, w.horizon_s, measure_s=w.measure_s,
              warmup_s=w.warmup_s)
    gc.collect()  # every sample starts from the same heap
    try:
        return timed_at_reference(lambda: ctl.step(0.0, []))[1]
    finally:
        ctl.finish()


def sample_setups(
    name: str, seed: int, scale: float, count: int, budget_s: float,
    setups: list[float], boots: list[float],
) -> Any:
    """Time ``count`` or more set-ups and bootstraps at the reference
    speed, filling ``budget_s`` (at most 40 of each); returns the
    workload."""
    start = time.perf_counter()
    for k in range(40):
        if k >= count and time.perf_counter() - start >= budget_s:
            break
        (profiles, w), setup_s = timed_at_reference(
            lambda: setup(name, seed, scale)
        )
        setups.append(setup_s)
        boots.append(bootstrap(profiles, w))
    return w


def closed_loop(profiles: Any, w: Any, obs: Any = None) -> Replay:
    """Replay the timeline through ``FleetController.run``, which steps
    it back to back: each instant is due when the previous step returns,
    so its reaction is the step's wall."""
    from repro.ops.controller import FleetController

    ctl = FleetController(profiles=profiles, obs=obs)
    calls = time_steps(ctl)
    out = Replay()
    gc.collect()
    start = time.perf_counter()
    try:
        out.report = ctl.run(w.services, w.timeline, w.horizon_s,
                             measure_s=w.measure_s, warmup_s=w.warmup_s)
    except Exception as exc:  # a step that raised fails its run
        last = calls[-1][0] if calls else -math.inf
        out.raised = f"replay raised {type(exc).__name__}: {exc}"
        out.events += sum(e.time_s > last for e in w.timeline)
    out.wall = time.perf_counter() - start
    for _t, entry, done, events, kernel in calls[1:]:  # [0]: the bootstrap
        out.instants.append((entry, entry, done))
        out.kernels.append(kernel)
        out.events += events
    if out.report is not None:
        out.failed = sum(rec.skipped for rec in out.report.intervals[1:])
    return out


def open_loop(
    profiles: Any, w: Any, seconds: float, obs: Any = None,
) -> tuple[Replay, Any, Any]:
    """One live gateway session lasting ``seconds`` of wall time.

    Instant ``t`` is due at ``origin + t / time_scale`` on the monotonic
    clock; its reaction runs from then until the step that applied it
    returned, so queueing behind a slow step counts.
    """
    from repro.ops.controller import FleetController
    from repro.serve.driver import ScriptedDriver
    from repro.serve.gateway import ServeGateway
    from repro.serve.realclock import MonotonicClock

    time_scale = w.horizon_s / seconds
    ctl = FleetController(profiles=profiles, obs=obs)
    calls = time_steps(ctl)
    clock = MonotonicClock(time_scale=time_scale)
    origin = time.monotonic() - clock.now() / time_scale
    gateway = ServeGateway(
        ctl, w.services, w.horizon_s, clock,
        measure_s=w.measure_s, warmup_s=w.warmup_s,
        deadline_budget_s=DEADLINE_S,
    )
    driver = ScriptedDriver(w.timeline)
    out = Replay()
    gc.collect()
    start = time.perf_counter()
    try:
        out.report = asyncio.run(gateway.run(driver.source(clock)))
    except Exception as exc:  # a step that raised fails its run
        out.raised = f"session raised {type(exc).__name__}: {exc}"
        out.events = len(w.timeline)
        out.wall = time.perf_counter() - start
        return out, gateway, driver
    out.wall = time.perf_counter() - start
    for t, entry, done, events, kernel in calls[1:]:  # [0]: the bootstrap
        out.instants.append((origin + t / time_scale, entry, done))
        out.kernels.append(kernel)
        out.events += events
    out.failed = sum(rec.skipped for rec in out.report.intervals[1:])
    out.events += gateway.health.dropped_beyond_horizon
    out.failed += gateway.health.dropped_beyond_horizon
    return out, gateway, driver


def check_replay(
    replay: Replay, w: Any, expected: Optional[str], result: Result,
) -> None:
    """Count a replay's events and fail it unless its digest matches."""
    result.offer(replay.events, replay.failed)
    if replay.raised is not None:
        result.fail(replay.raised)
        return
    digest = report_digest(replay.report)
    if expected is None:
        result.fail(f"no reference digest for {w.name} variant {w.variant}")
    elif digest != expected:
        result.fail(
            f"{w.name} variant {w.variant}: digest {digest[:16]} != "
            f"reference {expected[:16]}"
        )


def check_recorded_session(
    driver: Any, w: Any, live: Replay, result: Result,
) -> None:
    """Replay the first quarter of the recorded live session on the
    virtual-clock gateway and offline; both must match the live session.

    A quarter keeps the run's check to a few seconds; the live report
    itself was already checked against the full reference digest.
    """
    from repro.ops.controller import OpsIdentityError
    from repro.serve.gateway import replay_identity_checked

    times = sorted({e.time_s for e in driver.sent})
    cut = times[len(times) // 4]
    try:
        _, offline = replay_identity_checked(
            w.services, [e for e in driver.sent if e.time_s < cut], cut,
            measure_s=w.measure_s, warmup_s=w.warmup_s,
        )
    except OpsIdentityError as exc:  # fails the run: every event counts
        result.fail(f"recorded session does not replay identically: {exc}")
        return
    head = live.report.intervals[: len(offline.intervals)]
    if [(r.fingerprint, r.sim_fingerprint) for r in head] != [
        (r.fingerprint, r.sim_fingerprint) for r in offline.intervals
    ]:
        result.fail("recorded session's replay differs from the live session")


def run_passes(
    w: Any, seconds: float, obs: Any = None, repeat: bool = True,
) -> tuple[list[Replay], Any, Any]:
    """The open loop's session of exactly ``seconds``; a closed loop's
    ``REPLAYS`` replays (one unless ``repeat``), about 20 s at the
    reference speed at full scale.
    Each replay gets freshly built profiles, so no replay inherits warm
    caches.
    Returns the replays plus, for the open loop, its gateway and driver.
    """
    from repro.profiler import profile_workloads

    if w.open_loop:
        replay, gateway, driver = open_loop(
            profile_workloads(), w, seconds, obs
        )
        return [replay], gateway, driver
    count = REPLAYS if repeat else 1
    return [closed_loop(profile_workloads(), w, obs)
            for _ in range(count)], None, None


def best_reactions(replays: list[Replay], wall: bool = False) -> list[float]:
    """Per-instant reaction at the reference speed (as the wall clock
    read it, if ``wall``), best over the completed replays.

    Replays of one workload step the same instants in the same order, so
    instant ``i`` of each is the same work; its best filters what the
    speed scaling misses (a pause, a stretch the kernel did not see).
    """
    per = [rep.wall_reactions if wall else rep.reactions
           for rep in replays if rep.raised is None]
    if not per:
        return []
    return [min(r[i] for r in per) for i in range(min(map(len, per)))]


def check_backlog(replay: Replay, result: Result) -> None:
    """An open loop whose queue wait climbs through the session is
    falling behind its schedule: the backlog grows, and the run is
    invalid.

    The last quarter's median wait may exceed the first quarter's by the
    first quarter's spread (its p90 wait less its median), or by its
    median step wall if that is larger: an instant falling due while a
    step is in flight waits up to one step without any backlog, while a
    loop that falls behind adds to every wait, instant after instant.
    """
    from repro.serve.gateway import reaction_percentile

    waits = replay.waits
    quarter = len(waits) // 4
    if quarter < 2:
        return
    head, tail = waits[:quarter], waits[-quarter:]
    first = statistics.median(head)
    step = statistics.median(done - start
                             for _due, start, done in replay.instants[:quarter])
    limit = first + max(reaction_percentile(head, 0.9) - first, step)
    last = statistics.median(tail)
    result.notes.append(
        f"queue wait median: {first * 1e3:.1f} ms in the first quarter, "
        f"{last * 1e3:.1f} ms in the last (limit {limit * 1e3:.1f} ms)"
    )
    if last > limit:
        result.fail(
            f"backlog grows: median queue wait {first * 1e3:.1f} ms in the "
            f"first quarter vs {last * 1e3:.1f} ms in the last, above "
            f"{limit * 1e3:.1f} ms"
        )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# the two kinds of run
# ---------------------------------------------------------------------- #


def end_to_end(
    name: str, seed: int, seconds: float, scale: float,
    references: dict, import_s: float,
) -> Result:
    from repro.serve.gateway import reaction_percentile

    result = Result()
    setups: list[float] = []
    boots: list[float] = []
    half = (SAMPLES // 2, SAMPLE_S / 2, setups, boots)
    w = sample_setups(name, seed, scale, *half)
    replays, _gateway, driver = run_passes(w, seconds)
    rss = peak_rss_mb()
    sample_setups(name, seed, scale, *half)
    expected = references.get(reference_key(w, scale))
    for replay in replays:
        check_replay(replay, w, expected, result)
    if driver is not None:
        check_backlog(replays[0], result)
        if result.correct:
            check_recorded_session(driver, w, replays[0], result)

    # A run whose every replay raised still prints each metric (as 0).
    reactions = best_reactions(replays) or [0.0]
    walls = best_reactions(replays, wall=True) or [0.0]
    events = replays[0].events
    reports = [rep.report for rep in replays if rep.report is not None]
    records = reports[0].intervals[1:] if reports else []
    met = sum(
        reaction <= DEADLINE_S and rec.skipped == 0
        for reaction, rec in zip(reactions, records)
    )
    compliance = [
        rep.min_compliance for rep in reports
        if rep.min_compliance is not None
    ]
    result.put("setup_s", import_s + statistics.median(setups), "s")
    result.put("bootstrap_s", statistics.median(boots), "s")
    result.put("reaction_p50_ms", statistics.median(reactions) * 1e3, "ms")
    result.put("reaction_p90_ms",
               reaction_percentile(reactions, 0.90) * 1e3, "ms")
    result.put("deadline_met_frac", met / len(reactions), "frac")
    busy = sum(reactions)
    result.put("events_per_s", events / busy if busy else 0.0, "1/s")
    result.put(
        "ops_ok_frac",
        1.0 - result.failed / result.attempted if result.attempted else 0.0,
        "frac",
    )
    result.put("gpu_hours",
               statistics.median([r.gpu_hours for r in reports] or [0.0]),
               "GPU-h")
    result.put("reconfig_ops",
               statistics.median([r.total_reconfig_ops for r in reports] or [0]),
               "count")
    result.put("slo_compliance_min", min(compliance, default=1.0), "frac")
    result.put("peak_rss_mb", rss, "MB")
    for metric in NOT_APPLICABLE[name]:
        result.put(metric, 1.0, result.metrics[metric][1])
    kernels = [k for rep in replays for k in rep.kernels] or [CAL_REF_S]
    result.notes.append(
        f"as the wall clock read them: reaction p50 "
        f"{statistics.median(walls) * 1e3:.2f} ms, p90 "
        f"{reaction_percentile(walls, 0.90) * 1e3:.2f} ms; calibration "
        f"kernel median {statistics.median(kernels) * 1e3:.3f} ms "
        f"(reference {CAL_REF_S * 1e3:.3f} ms)"
    )
    lengths = ", ".join(
        f"{at_reference(rep.wall, rep.kernels or [CAL_REF_S]):.1f}"
        for rep in replays
    )
    result.notes.append(
        f"{len(replays)} replay(s) ({lengths} s at the reference speed), "
        f"{len(reactions)} timed instants and {events} events per replay"
    )
    return result


def per_layer(
    name: str, seed: int, seconds: float, scale: float, references: dict,
) -> Result:
    from probes import Probes
    from repro.obs import ObsHub
    from repro.serve.gateway import reaction_percentile

    result = Result()
    profiles, w = setup(name, seed, scale)
    bootstrap(profiles, w)  # warm module-level caches before either pass
    expected = references.get(reference_key(w, scale))
    plain, _gateway, _driver = run_passes(w, seconds, repeat=False)
    with Probes() as probes:
        traced, gateway, driver = run_passes(
            w, seconds, obs=ObsHub.live(), repeat=False
        )
    for replay in plain + traced:
        check_replay(replay, w, expected, result)
    if driver is not None:
        check_backlog(traced[0], result)
        if result.correct:
            check_recorded_session(driver, w, traced[0], result)

    for metric, (value, unit) in probes.metrics().items():
        result.put(metric, value, unit)
    replay = traced[0]
    busy = sum(s.wall for s in probes.steps)
    late = []
    if w.open_loop and replay.report is not None:
        # The gateway stamps when the driver delivered each instant.
        for (due, _start, _done), rec in zip(
            replay.instants, replay.report.intervals[1:]
        ):
            if "wall_arrival_s" in rec.obs_sidecar:
                late.append(rec.obs_sidecar["wall_arrival_s"] - due)
    result.put("serve.queue_wait_p90_ms",
               reaction_percentile(replay.waits, 0.9) * 1e3, "ms")
    result.put("serve.busy_frac",
               busy / replay.wall if replay.wall else 0.0, "frac")
    result.put("serve.driver_late_p90_ms",
               reaction_percentile(late, 0.9) * 1e3, "ms")
    health = gateway.health if gateway is not None else None
    result.put("serve.deferrals", getattr(health, "deferrals", 0), "count")
    result.put("serve.late_steps", getattr(health, "late_steps", 0), "count")
    untraced = statistics.median(plain[0].reactions)
    traced_p50 = statistics.median(replay.reactions)
    result.put("obs.trace_overhead_pct",
               (traced_p50 / untraced - 1.0) * 100.0, "%")
    return result


# ---------------------------------------------------------------------- #
# command line
# ---------------------------------------------------------------------- #


def parse(argv: Optional[list[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("failover-storm", "steady-serve", "live-diurnal"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="fleet and timeline size factor (self-check only)")
    p.add_argument("--references", type=Path,
                   default=HERE / "references.json")
    return p.parse_args(argv)


def import_program() -> None:
    import numpy  # noqa: F401
    import repro.ops.controller  # noqa: F401
    import repro.profiler  # noqa: F401
    import repro.serve.gateway  # noqa: F401
    import repro.sim.runner  # noqa: F401
    import workloads  # noqa: F401


def import_in_child() -> float:
    """The program's import wall at the reference speed, measured in a
    fresh interpreter (which this waits for)."""
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
        "import run; print(run.timed_at_reference(run.import_program)[1])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        _, import_s = timed_at_reference(import_program)
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    import_s = statistics.median(
        [import_s] + [import_in_child() for _ in range(IMPORTS - 1)]
    )
    try:
        references = json.loads(args.references.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read reference digests: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        result = per_layer(args.workload, args.seed, args.seconds, args.scale,
                           references)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds,
                            args.scale, references, import_s)
    na = NOT_APPLICABLE[args.workload] if not args.trace else set()
    for metric, (value, unit) in result.metrics.items():
        note = "  (n/a: constant)" if metric in na else ""
        print(f"{metric:34s} {value:14.6f} {unit}{note}")
    for note in result.notes:
        print(note)
    for problem in result.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
