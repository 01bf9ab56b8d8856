#!/usr/bin/env python
"""Fleet-scale perf harness (opt-in — not part of tier-1).

Every suite is a list of *cases*.  A case is a timed run plus the
reference it must equal.  :func:`run_case` times both sides in
alternating order (best of the suite's repeats), compares them with
:func:`compare`, which exits ``FATAL`` on any divergence, and emits one
row of the one schema (:data:`ROW_KEYS`)::

    {suite, case, tier, geometry, wall_s, reference_wall_s,
     identical, digest, counts}

``digest`` is the sha256 of the run's fingerprints and ``counts`` are
the controller registry's deterministic work counts (the ``alloc_*``,
``check_*`` and ``sim_memo_*`` families; empty for runs without a
controller).  A case without a reference (S11, the 10k ops tier) has
``reference_wall_s`` and ``identical`` null.

The suites, selected with ``--suite``:

- ``schedule``: S9 fleets of 100/1000/5000 services on the MIG, MI300X
  and mixed geometries, indexed vs naive scheduler (up to
  :data:`NAIVE_CAP` services); S10, a diurnal fleet's rate epochs
  through the FleetController, fast vs ``fast_path=False``.
- ``simulate``: high-rate fleets served by the batch-granularity fast
  path vs the event engine; S10 with every epoch served; S11, the
  million-request replay (fast path only).
- ``ops``: a simulated day of failures, preemptions and churn per fleet
  size, fast vs ``fast_path=False``; the 10k tier replays the S15 chaos
  week (fast path only).
- ``serve``: the virtual-clock gateway vs the offline controller on an
  S12 slice and the S16 session; a live S16 session on a scaled
  monotonic clock, whose recording must replay identically offline.
- ``resilience``: a run writing its run record (flushed every
  :data:`CKPT_EVERY` intervals) and a run killed mid-way and resumed by
  replaying its record, each vs the uninterrupted run (one set of
  timed uninterrupted runs per tier serves both rows); the S13 week
  killed and resumed twice (chained).
- ``obs``: the observability plane on vs off.

S10 runs at the smallest selected tier.  Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/harness.py --suite ops
    PYTHONPATH=src python benchmarks/perf/harness.py --suite schedule \\
        --tiers 100 --baseline benchmarks/perf/baseline.json

With ``--baseline`` every row matched by ``(suite, case, tier,
geometry)`` must stay within :data:`MAX_REGRESS` x the baseline wall and
have exactly the baseline's counts; ``--obs-budget`` fails the obs suite
past that overhead percentage.  File names avoid the ``test_`` prefix so
pytest never collects the harness.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.hetero import make_mixed_scheduler  # noqa: E402
from repro.core.parvagpu import ParvaGPU  # noqa: E402
from repro.gpu.geometry import get_geometry  # noqa: E402
from repro.obs import ObsHub  # noqa: E402
from repro.ops import FleetController, OpsIdentityError  # noqa: E402
from repro.ops.checkpoint import report_to_doc  # noqa: E402
from repro.ops.controller import assert_reports_identical  # noqa: E402
from repro.ops.report import OpsReport  # noqa: E402
from repro.profiler import profile_workloads  # noqa: E402
from repro.scenarios.fleet import (  # noqa: E402
    FLEET_TIERS,
    S10_EPOCHS,
    S11_DURATION_S,
    S11_FLEET_SIZE,
    S11_RATE_SCALE,
    fleet_services,
    fleet_traces,
)
from repro.scenarios.ops import (  # noqa: E402
    OPS_SEED,
    OpsRun,
    bench_ops_run,
    ops_run,
)
from repro.sim import simulate_placement  # noqa: E402
from repro.sim.metrics import SimulationReport  # noqa: E402

HERE = pathlib.Path(__file__).parent
#: the one row schema every suite emits
ROW_KEYS = (
    "suite", "case", "tier", "geometry", "wall_s", "reference_wall_s",
    "identical", "digest", "counts",
)
#: the registry families a row's ``counts`` carries
COUNT_FAMILIES = ("alloc_", "check_", "sim_memo_")
#: the wall gate: a matched row fails past this factor of its baseline
MAX_REGRESS = 2.0
#: largest tier also run on the naive / event-engine reference
NAIVE_CAP = 1000
GEOMETRIES = ("mig", "mi300x", "mixed")
DEFAULT_TIERS = {
    "schedule": FLEET_TIERS,
    "simulate": (100, 1000),
    "ops": (100, 1000, 10_000),
    "serve": (),
    "resilience": (100, 1000),
    "obs": (100, 1000),
}
#: best-of-N for the resilience and obs suites: replays are
#: deterministic, so wall spread between repeats is scheduler noise,
#: which dwarfs the overheads those suites measure
REPEATS = 3

#: simulate suite: rate scale and served window of the SIM fleets
SIM_RATE_SCALE = S11_RATE_SCALE
SIM_DURATION_S = 1.0
SIM_WARMUP_S = 0.25
#: S10: one day (the period of the fleet's diurnal curves); seconds
#: served per epoch in the simulate suite
S10_HORIZON_S = 86_400.0
S10_MEASURE_S = 0.5
#: controller runs: seconds served per interval (the 10k tier serves
#: long enough that measurement dominates, as at that fleet size)
OPS_MEASURE_S = 0.25
OPS_MEASURE_10K = 6.0
OPS_WARMUP_S = 0.1
#: serve suite: identity slices (scenario, horizon cap), the live
#: session's clock compression and the gateway's deadline budget
SERVE_SLICES = (("S12", 3 * 3600.0), ("S16", None))
SERVE_TIME_SCALE = 600.0
SERVE_DEADLINE_S = 0.25
#: resilience suite: run-record flush cadence of the overhead case
CKPT_EVERY = 5

#: a prepared run: returns ``(result, counts)`` when called (timed)
Prepared = Callable[[], tuple[object, dict[str, int]]]
#: builds a fresh run, untimed: controllers, schedulers, temp dirs
Thunk = Callable[[], Prepared]


@dataclass(frozen=True)
class Case:
    """A timed run and the reference it must equal (None: unchecked).

    Each thunk sets a run up and returns it prepared; only calling the
    prepared run is timed.  It returns ``(result, counts)`` and the row
    keeps the run's counts.  Results are placements, simulation reports
    or ops reports.
    """

    suite: str
    case: str
    tier: int
    geometry: str
    run: Thunk
    reference: Optional[Thunk] = None
    repeats: int = 1


def fingerprints(result: object) -> list[str]:
    """What identity means for a result: one line per ops interval
    (instant, placement and simulation fingerprints), else the
    placement's or simulation report's fingerprint."""
    if isinstance(result, OpsReport):
        return [
            f"{r.time_s!r} {r.fingerprint} {r.sim_fingerprint}"
            for r in result.intervals
        ]
    return [result.fingerprint()]  # type: ignore[attr-defined]


def digest(result: object) -> str:
    h = hashlib.sha256()
    for line in fingerprints(result):
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def _full_doc(report: OpsReport) -> dict:
    """The full-fidelity report, less the path flag the sides differ by."""
    doc = report_to_doc(report)
    del doc["fast_path"]
    return doc


def compare(label: str, got: object, want: object) -> None:
    """Exit ``FATAL`` unless ``got`` equals its reference ``want``.

    Ops reports must agree interval for interval
    (:func:`assert_reports_identical`) and in every recorded field
    (:func:`report_to_doc`); placements and simulation reports on their
    fingerprint, simulation float sums within 1e-9.
    """
    try:
        if isinstance(got, OpsReport):
            assert isinstance(want, OpsReport)
            assert_reports_identical(got, want)
            if _full_doc(got) != _full_doc(want):
                raise OpsIdentityError("full report documents differ")
        elif fingerprints(got) != fingerprints(want):
            raise OpsIdentityError("fingerprints differ")
        elif isinstance(got, SimulationReport):
            assert isinstance(want, SimulationReport)
            if not got.close_to(want):
                raise OpsIdentityError("float sums differ beyond 1e-9")
    except OpsIdentityError as exc:
        raise SystemExit(f"FATAL: {label} diverges from its reference: {exc}")


class ReferenceRuns:
    """The timed runs of the last reference thunk: its walls, one per
    repeat, and its latest result.  Consecutive cases that share one
    thunk (a resilience tier's rows) and one ``ReferenceRuns`` read the
    thunk's runs from here, so each repeat times the reference once
    however many rows compare with it, and those rows report the same
    reference wall."""

    def __init__(self) -> None:
        self.thunk: Optional[Thunk] = None
        self.walls: list[float] = []
        self.result: object = None

    def ensure(self, thunk: Thunk, repeat: int) -> None:
        """Make sure ``thunk`` has been timed ``repeat + 1`` times."""
        if thunk is not self.thunk:
            self.thunk, self.walls, self.result = thunk, [], None
        if repeat < len(self.walls):
            return
        go = thunk()
        t0 = time.perf_counter()
        self.result, _ = go()
        self.walls.append(time.perf_counter() - t0)


def run_case(case: Case, refs: Optional[ReferenceRuns] = None) -> dict:
    """Time ``case`` and its reference alternately, best of
    ``case.repeats`` each; compare the two; return the row.  A reference
    thunk that ``refs`` already timed for the previous case is not timed
    again (see :class:`ReferenceRuns`)."""
    wall = math.inf
    refs = refs if refs is not None else ReferenceRuns()
    for i in range(case.repeats):
        go = case.run()
        t0 = time.perf_counter()
        got, counts = go()
        wall = min(wall, time.perf_counter() - t0)
        if case.reference is not None:
            refs.ensure(case.reference, i)
    label = f"{case.suite}/{case.case} n={case.tier} {case.geometry}"
    ref_wall = None
    if case.reference is not None:
        compare(label, got, refs.result)
        ref_wall = min(refs.walls[:case.repeats])
    row = {
        "suite": case.suite,
        "case": case.case,
        "tier": case.tier,
        "geometry": case.geometry,
        "wall_s": round(wall, 6),
        "reference_wall_s": None if ref_wall is None else round(ref_wall, 6),
        "identical": None if case.reference is None else True,
        "digest": digest(got),
        "counts": dict(sorted(counts.items())),
    }
    # the speedup from the unrounded walls; none beside a wall shown as 0
    speedup = (
        f"{ref_wall / wall:.2f}x" if ref_wall is not None and row["wall_s"]
        else "n/a"
    )
    print(_describe(row, speedup))
    return row


def _describe(row: dict, speedup: str) -> str:
    """The row as one line; ``speedup`` is the reference wall over the
    row's, printed beside the reference wall."""
    line = (
        f"  {row['case']:<13} n={row['tier']:<6} {row['geometry']:<6} "
        f"{row['wall_s'] * 1e3:10.1f} ms"
    )
    if row["reference_wall_s"] is not None:
        line += (
            f"  ref {row['reference_wall_s'] * 1e3:10.1f} ms "
            f"({speedup})  identical"
        )
    return line + f"  {row['digest'][:12]}"


# --------------------------------------------------------------------- #
# run thunks
# --------------------------------------------------------------------- #


def _counts(ctrl: FleetController) -> dict[str, int]:
    """The controller registry's deterministic work-count families."""
    return {
        m.name: int(m.value())  # type: ignore[attr-defined]
        for m in ctrl.obs.registry.collect()
        if m.name.startswith(COUNT_FAMILIES)
    }


def _ops(
    run: OpsRun,
    measure_s: float,
    *,
    fast_path: bool = True,
    obs: Optional[ObsHub] = None,
    horizon_s: Optional[float] = None,
    **run_kwargs: object,
) -> Prepared:
    """One FleetController replay of ``run``, prepared: it returns the
    report and the controller's counts."""
    ctrl = FleetController(fast_path=fast_path, seed=OPS_SEED, obs=obs)

    def go() -> tuple[OpsReport, dict[str, int]]:
        report = ctrl.run(
            run.services,
            run.timeline,
            run.horizon_s if horizon_s is None else horizon_s,
            measure_s=measure_s,
            warmup_s=OPS_WARMUP_S,
            sim_seed=OPS_SEED,
            **run_kwargs,  # type: ignore[arg-type]
        )
        return report, _counts(ctrl)

    return go


def _controller_case(
    suite: str, case: str, run: OpsRun, measure_s: float, tier: int
) -> Case:
    """Fast controller vs the ``fast_path=False`` reference (up to
    :data:`NAIVE_CAP` services)."""
    return Case(
        suite, case, tier, "mig",
        run=lambda: _ops(run, measure_s),
        reference=(
            (lambda: _ops(run, measure_s, fast_path=False))
            if tier <= NAIVE_CAP
            else None
        ),
    )


def _s10_case(suite: str, tier: int, measure_s: float) -> Case:
    """S10: a diurnal fleet's rate epochs through the controller."""
    from repro.ops.chaos import rate_epochs

    services = tuple(fleet_services(tier))
    run = OpsRun(
        name="S10",
        description="diurnal rate epochs",
        services=services,
        timeline=tuple(rate_epochs(
            fleet_traces(list(services), epochs=S10_EPOCHS), S10_HORIZON_S
        )),
        horizon_s=S10_HORIZON_S,
    )
    return _controller_case(suite, "S10", run, measure_s, tier)


def _make_scheduler(geometry: str, fast_path: bool):
    if geometry == "mixed":
        return make_mixed_scheduler(fast_path=fast_path)
    geo = get_geometry(geometry)
    return ParvaGPU(
        profile_workloads(geometry=geo), geometry=geo, fast_path=fast_path
    )


def _simulate(placement, services, duration_s, fast_path) -> Prepared:
    return lambda: (simulate_placement(
        placement, services, duration_s=duration_s, warmup_s=SIM_WARMUP_S,
        fast_path=fast_path,
    ), {})


def _in_tempdir(legs: list[Prepared], ck_dir: str) -> Prepared:
    """Run ``legs`` in order, then remove ``ck_dir``; the last leg's
    result is the run's."""

    def go() -> tuple[object, dict[str, int]]:
        try:
            for leg in legs:
                result = leg()
            return result
        finally:
            shutil.rmtree(ck_dir)

    return go


def _killed(run: OpsRun, kills: tuple[int, ...]) -> Prepared:
    """``run`` killed after each step count in ``kills`` (its run record
    flushed every interval), every restart resumed from the record and
    appending to it, and the last one run to the end."""
    td = tempfile.mkdtemp()
    ck = os.path.join(td, "run.jsonl")
    legs = [
        _ops(
            run, OPS_MEASURE_S, checkpoint_every=1, checkpoint_path=ck,
            resume=ck if i else None, max_steps=at,
        )
        for i, at in enumerate(kills)
    ]
    return _in_tempdir(legs + [_ops(run, OPS_MEASURE_S, resume=ck)], td)


def _checkpointed(run: OpsRun) -> Prepared:
    td = tempfile.mkdtemp()
    return _in_tempdir([_ops(
        run, OPS_MEASURE_S, checkpoint_every=CKPT_EVERY,
        checkpoint_path=os.path.join(td, "run.jsonl"),
    )], td)


def _steps(run: OpsRun) -> int:
    """The run's timeline instants: a lower bound on its intervals."""
    return len({e.time_s for e in run.timeline if e.time_s < run.horizon_s})


def _gateway(run: OpsRun, horizon_s: Optional[float] = None) -> Prepared:
    """The virtual-clock gateway over ``run``, prepared: it returns the
    report and the controller's counts."""
    from repro.serve import replay_gateway

    ctrl = FleetController(seed=OPS_SEED)

    def go() -> tuple[OpsReport, dict[str, int]]:
        report = replay_gateway(
            run.services,
            run.timeline,
            run.horizon_s if horizon_s is None else horizon_s,
            measure_s=OPS_MEASURE_S,
            warmup_s=OPS_WARMUP_S,
            sim_seed=OPS_SEED,
            deadline_budget_s=SERVE_DEADLINE_S,
            controller=ctrl,
        )
        return report, _counts(ctrl)

    return go


def _live(run: OpsRun) -> Prepared:
    """``run`` streamed live through a real-clock gateway by the
    scripted driver, then its recording replayed on the virtual clock:
    the replay is the result, so the recording must reproduce the
    offline run."""
    import asyncio

    from repro.serve import MonotonicClock, ScriptedDriver, ServeGateway

    ctrl = FleetController(seed=OPS_SEED)
    driver = ScriptedDriver(run.timeline)

    def go() -> tuple[object, dict[str, int]]:
        clock = MonotonicClock(time_scale=SERVE_TIME_SCALE)
        gateway = ServeGateway(
            ctrl, run.services, run.horizon_s, clock,
            measure_s=OPS_MEASURE_S, warmup_s=OPS_WARMUP_S,
            sim_seed=OPS_SEED, deadline_budget_s=SERVE_DEADLINE_S,
        )
        asyncio.run(gateway.run(driver.source(clock)))
        replay = _gateway(replace(run, timeline=tuple(driver.sent)))
        return replay()[0], _counts(ctrl)

    return go


# --------------------------------------------------------------------- #
# suites
# --------------------------------------------------------------------- #


def schedule_cases(tiers: list[int]) -> list[Case]:
    cases = []
    for tier in tiers:
        services = fleet_services(tier)
        for geometry in GEOMETRIES:
            def side(fast_path, geometry=geometry, services=services):
                def prepare() -> Prepared:
                    scheduler = _make_scheduler(geometry, fast_path)
                    return lambda: (scheduler.schedule(services), {})

                return prepare

            cases.append(Case(
                "schedule", "S9", tier, geometry, run=side(True),
                reference=side(False) if tier <= NAIVE_CAP else None,
            ))
    cases.append(_s10_case("schedule", min(tiers), 0.0))
    return cases


def simulate_cases(tiers: list[int]) -> list[Case]:
    cases = []
    for tier in tiers:
        services = fleet_services(tier, rate_scale=SIM_RATE_SCALE)
        for geometry in GEOMETRIES:
            placement = _make_scheduler(geometry, True).schedule(services)

            def side(fast_path, placement=placement, services=services):
                return lambda: _simulate(
                    placement, services, SIM_DURATION_S, fast_path
                )

            cases.append(Case(
                "simulate", "SIM", tier, geometry, run=side(True),
                reference=side(False) if tier <= NAIVE_CAP else None,
            ))
    cases.append(_s10_case("simulate", min(tiers), S10_MEASURE_S))
    services = fleet_services(S11_FLEET_SIZE, rate_scale=S11_RATE_SCALE)
    placement = ParvaGPU(profile_workloads()).schedule(services)
    cases.append(Case(
        "simulate", "S11", S11_FLEET_SIZE, "mig",
        run=lambda: _simulate(placement, services, S11_DURATION_S, True),
    ))
    return cases


def ops_cases(tiers: list[int]) -> list[Case]:
    cases = []
    for tier in tiers:
        if tier >= 10_000:
            run, measure = ops_run("S15"), OPS_MEASURE_10K
        else:
            run, measure = bench_ops_run(tier), OPS_MEASURE_S
        cases.append(_controller_case("ops", run.name, run, measure, tier))
    return cases


def serve_cases(tiers: list[int]) -> list[Case]:
    cases = []
    for scenario, cap in SERVE_SLICES:
        run = ops_run(scenario)
        horizon = run.horizon_s if cap is None else min(cap, run.horizon_s)
        cases.append(Case(
            "serve", scenario, len(run.services), "mig",
            run=lambda run=run, h=horizon: _gateway(run, h),
            reference=lambda run=run, h=horizon: _ops(
                run, OPS_MEASURE_S, horizon_s=h
            ),
        ))
    live = ops_run("S16")
    cases.append(Case(
        "serve", "S16-live", len(live.services), "mig",
        run=lambda: _live(live),
        reference=lambda: _ops(live, OPS_MEASURE_S),
    ))
    return cases


def resilience_cases(tiers: list[int]) -> list[Case]:
    cases = []

    def uninterrupted(run):
        return lambda: _ops(run, OPS_MEASURE_S)

    for tier in tiers:
        run = bench_ops_run(tier)
        kill_at = max(1, _steps(run) // 2)
        # one reference per tier: both rows' ratios read the same
        # uninterrupted runs
        reference = uninterrupted(run)
        cases += [
            Case("resilience", "checkpoint", tier, "mig",
                 run=lambda run=run: _checkpointed(run),
                 reference=reference, repeats=REPEATS),
            Case("resilience", "kill-resume", tier, "mig",
                 run=lambda run=run, k=kill_at: _killed(run, (k,)),
                 reference=reference, repeats=REPEATS),
        ]
    s13 = ops_run("S13")
    n = _steps(s13)
    kills = (max(1, n // 3), max(2, 2 * n // 3))
    cases.append(Case(
        "resilience", "S13-chained", len(s13.services), "mig",
        run=lambda: _killed(s13, kills), reference=uninterrupted(s13),
    ))
    return cases


def obs_cases(tiers: list[int]) -> list[Case]:
    cases = []
    for tier in tiers:
        run = bench_ops_run(tier)
        cases.append(Case(
            "obs", "obs-on", tier, "mig",
            run=lambda run=run: _ops(run, OPS_MEASURE_S),
            reference=lambda run=run: _ops(
                run, OPS_MEASURE_S, obs=ObsHub(enabled=False)
            ),
            repeats=REPEATS,
        ))
    return cases


SUITE_CASES = {
    "schedule": schedule_cases,
    "simulate": simulate_cases,
    "ops": ops_cases,
    "serve": serve_cases,
    "resilience": resilience_cases,
    "obs": obs_cases,
}


# --------------------------------------------------------------------- #
# gates
# --------------------------------------------------------------------- #


def _key(row: dict) -> tuple:
    return row["suite"], row["case"], row["tier"], row["geometry"]


def check_baseline(rows: list[dict], baseline: dict) -> list[str]:
    """Failures of ``rows`` against the ``baseline`` document's rows,
    matched by ``(suite, case, tier, geometry)``: a wall past
    :data:`MAX_REGRESS` x the baseline's, or any count family that
    differs from the baseline's (named)."""
    reference = {_key(r): r for r in baseline["rows"]}
    failures = []
    for row in rows:
        ref = reference.get(_key(row))
        if ref is None:
            continue
        label = "{}/{} n={} {}".format(*_key(row))
        ratio = row["wall_s"] / ref["wall_s"]
        print(f"  baseline {label}: {ratio:5.2f}x of the reference wall")
        if ratio > MAX_REGRESS:
            failures.append(
                f"{label}: wall {ratio:.2f}x of baseline (> {MAX_REGRESS}x)"
            )
        got, want = row["counts"], ref["counts"]
        for family in sorted(set(got) | set(want)):
            if got.get(family) != want.get(family):
                failures.append(
                    f"{label}: count {family} is {got.get(family)}, "
                    f"baseline {want.get(family)}"
                )
    return failures


def obs_overruns(rows: list[dict], budget_pct: float) -> list[str]:
    """Obs rows whose on-vs-off overhead exceeds ``budget_pct``."""
    failures = []
    for row in rows:
        if row["suite"] != "obs":
            continue
        pct = 100 * (row["wall_s"] / row["reference_wall_s"] - 1)
        if pct > budget_pct:
            failures.append(
                f"n={row['tier']} observability overhead {pct:+.2f}% "
                f"exceeds the {budget_pct}% budget"
            )
    return failures


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=SUITE_CASES, default="schedule")
    parser.add_argument(
        "--tiers", default=None,
        help="comma-separated fleet sizes (default: per suite, "
        + "; ".join(
            f"{s} {','.join(map(str, t))}" for s, t in DEFAULT_TIERS.items()
            if s != "serve"
        )
        + "; serve runs fixed scenarios)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="result JSON (default: a gitignored BENCH_<suite>.local.json "
        "sidecar, so casual runs never clobber the committed evidence)",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="baseline JSON: gate walls at 2x and counts exactly",
    )
    parser.add_argument(
        "--obs-budget", type=float, default=None,
        help="obs suite: fail past this overhead percentage",
    )
    args = parser.parse_args(argv)
    tiers = (
        [int(t) for t in args.tiers.split(",") if t]
        if args.tiers
        else list(DEFAULT_TIERS[args.suite])
    )
    out = args.out or HERE / f"BENCH_{args.suite}.local.json"

    print(f"{args.suite}: tiers={tiers}")
    refs = ReferenceRuns()
    rows = [run_case(case, refs) for case in SUITE_CASES[args.suite](tiers)]
    doc = {
        "version": 3,
        "suite": args.suite,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "rows": rows,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")

    failures = []
    if args.obs_budget is not None:
        failures += obs_overruns(rows, args.obs_budget)
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
        failures += check_baseline(rows, baseline)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
