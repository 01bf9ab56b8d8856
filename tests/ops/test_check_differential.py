"""Differential verdict: the incremental state check vs the full reference.

A fast-path :class:`~repro.ops.verify.StateVerifier` re-verifies only the
GPUs and services that changed since the last verified interval (all of
them from an empty memo); one built with ``fast_path=False`` rebuilds the
whole fleet every interval.
The controller runs with its own check off, and after every step both
verifiers check its deployment, on the same state.  Over generated
timelines (the live-state property suite's generators) one corruption is
injected right before a drawn interval's check: the two must both pass,
or both raise the same exception class.  Covered too: the first check
after ``restore()`` (empty memo), the first after a full re-plan (warm
memo, replaced map) and reordered GPUs (a warm memo retried from an empty
one).  Published segments are immutable, so the in-place
kinds assert that the write raises, and ``replace-plan`` swaps an
untouched GPU's plan for one with an altered segment instead.  Committed
live allocator states are frozen too: ``flip-geometry`` and
``drop-placed`` assert that the write to one raises, then make it
through ``SlotIndex.writable`` — a copy-on-write that no commit
published.  ``retire-listed`` retires a GPU the map still lists, with
the manager's live state kept or dropped (as a delta that raises drops
it).
"""

from __future__ import annotations

import importlib.util
import math
import tempfile
from pathlib import Path
from typing import Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import GPUPlan
from repro.core.service import Service
from repro.gpu.geometry import get_geometry
from repro.ops import FleetController
from repro.ops.events import GpuFailure, ServiceArrival
from repro.ops.verify import StateVerifier


def _live_state_suite():
    path = (
        Path(__file__).resolve().parents[1]
        / "property"
        / "test_property_live_state.py"
    )
    spec = importlib.util.spec_from_file_location("_live_state_suite", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_suite = _live_state_suite()
PROFILES, HORIZON_S = _suite.PROFILES, _suite.HORIZON_S
fleets, raw_events, timeline_of = _suite.fleets, _suite.raw_events, _suite._timeline

CORRUPTIONS = (
    "capacity", "start", "served_rate", "replace-plan", "stale-rate",
    "swap-gpus", "flip-geometry", "drop-placed", "destroy-instance",
    "add-instance", "drop-service", "retire-listed",
)
SEGMENT_FIELDS = ("capacity", "start", "served_rate")


def _segment(ctrl, pick):
    segs = [s for g in ctrl.manager.current.gpus for s in g.segments]
    return segs[pick % len(segs)]


def _altered(seg, field: str, pick: int):
    value = {
        "capacity": seg.capacity * 1.5,
        "start": (seg.start + 1 + pick % 3) % 8,
        "served_rate": seg.served_rate + 1.0,
    }[field]
    return field, value


def corrupt(ctrl: FleetController, memo, kind: str, pick: int) -> None:
    """Corrupt the controller's state behind its back (one way); ``memo``
    is the verifier's last verified interval."""
    placement = ctrl.manager.current
    run = ctrl._run
    if kind in SEGMENT_FIELDS:
        # in place, on a published segment: immutable by type
        seg = _segment(ctrl, pick)
        with pytest.raises(AttributeError):
            object.__setattr__(seg, *_altered(seg, kind, pick))
    elif kind == "replace-plan":
        # a plan with one altered segment, at the same position, on a GPU
        # whose line the last verified interval already holds
        gpus = placement.gpus
        untouched = [
            i for i, g in enumerate(gpus)
            if memo is not None and memo.plans.get(g.gpu_id) is g
        ] or list(range(len(gpus)))
        i = untouched[pick % len(untouched)]
        plan = gpus[i]
        segs = list(plan.segments)
        j = pick % len(segs)
        field, value = _altered(segs[j], SEGMENT_FIELDS[pick % 3], pick)
        segs[j] = segs[j]._replace(**{field: value})
        gpus[i] = GPUPlan(plan.gpu_id, tuple(segs), plan.geometry)
    elif kind == "stale-rate":  # a rate changed without re-rating
        svc = run.work[pick % len(run.work)]
        svc.request_rate = svc.request_rate * 2.0 + 1.0
    elif kind == "swap-gpus":
        gpus = placement.gpus
        if len(gpus) > 1:
            i = pick % len(gpus)
            j = (i + 1 + pick // len(gpus) % (len(gpus) - 1)) % len(gpus)
            gpus[i], gpus[j] = gpus[j], gpus[i]
    elif kind in ("flip-geometry", "drop-placed"):
        fleet = ctrl.manager.live_state().fleet
        keys = fleet.live_keys()
        key = keys[pick % len(keys)]

        def write(state) -> None:
            if kind == "flip-geometry":
                other = "mi300x" if state.geometry.name == "mig" else "mig"
                state.geometry = get_geometry(other)
            else:
                state.placed.pop(pick % len(state.placed))

        with pytest.raises(AttributeError):  # committed states are frozen
            write(fleet[key])
        write(fleet.index.writable(key))  # its thawed copy takes the write
    elif kind == "destroy-instance":
        found = list(ctrl.manager.cluster.instances())
        gpu, inst = found[pick % len(found)]
        gpu.destroy_instance(inst)
    elif kind == "add-instance":
        cluster = ctrl.manager.cluster
        size = cluster.default_geometry.instance_sizes[0]
        free = [g for g in cluster.gpus if g.feasible_starts(size)]
        gpu = free[pick % len(free)] if free else cluster.add_gpu()
        gpu.create_instance(size, gpu.feasible_starts(size)[0], owner="rogue")
    elif kind == "drop-service":
        svc = run.work.pop(pick % len(run.work))
        del run.by_id[svc.id]
    elif kind == "retire-listed":
        manager = ctrl.manager
        plan = placement.gpus[pick % len(placement.gpus)]
        if pick % 2:
            manager.live_state()  # kept: the live fleet retires it too
        manager.retire_gpu(plan.gpu_id, plan.geometry)
        if not pick % 2:

            def failed(order) -> None:
                raise RuntimeError("relocation failed")

            with pytest.raises(RuntimeError):
                manager.apply(run.work, failed)
            assert manager.live_states() is None
    else:  # pragma: no cover
        raise AssertionError(kind)


def _outcome(fn: Callable[[], object]) -> Optional[BaseException]:
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the verdict is the class
        return exc
    return None


Verdict = tuple[int, bool, bool, Optional[type], Optional[type]]


def dual_checked(
    ctrl: FleetController, corrupt_at: int, kind: str, pick: int
) -> list[Verdict]:
    """Check every step of ``ctrl``'s next run (after the controller's own
    check) with the full reference, then the fast-path verifier under
    test, on the same state; the state is corrupted right before
    the check of step ``corrupt_at``, and the first check that raises ends
    the run.  Returns the verdict log: ``(step, memo cold?, fast verifier
    ran the full reference?, reference exception class, fast verifier
    exception class)``."""
    verdicts: list[Verdict] = []
    verifiers: list[StateVerifier] = []
    step = ctrl.step

    def checked_step(t, events=()):
        record = step(t, events)
        if not verifiers or verifiers[0].manager is not ctrl.manager:
            # a run (begin or restore) starts on a fresh manager
            verifiers[:] = [
                StateVerifier(ctrl.manager, fast_path=False),
                StateVerifier(ctrl.manager),
            ]
        reference, fast = verifiers
        n = ctrl._run.steps - 1
        work = ctrl._run.work
        cold = fast.memo is None
        fallbacks = fast.stats.full_fallbacks
        if n == corrupt_at:
            corrupt(ctrl, fast.memo, kind, pick)
        ref = _outcome(lambda: reference.verify(work))
        mine = _outcome(lambda: fast.verify(work))
        verdicts.append((n, cold, fast.stats.full_fallbacks > fallbacks,
                         type(ref) if ref else None,
                         type(mine) if mine else None))
        if mine is not None:
            ctrl.raised_by_check = mine
            raise mine
        return record

    ctrl.step = checked_step
    return verdicts


def _assert_same_verdicts(verdicts, corrupt_at):
    assert verdicts, "no interval was checked"
    for step, _, _, ref, mine in verdicts:
        assert ref is mine, (
            f"step {step} (corrupted at {corrupt_at}): reference "
            f"{ref and ref.__name__} vs incremental {mine and mine.__name__}"
        )


def _ran_incremental(verdicts, corrupt_at) -> bool:
    """Whether the corrupted interval's check ran the incremental path."""
    return any(v[0] == corrupt_at and not v[2] for v in verdicts)


def _steps_at_least(timeline) -> int:
    """A lower bound on a run's steps: bootstrap + one per instant."""
    return 1 + len({e.time_s for e in timeline if e.time_s < HORIZON_S})


def _replay(ctrl, services, timeline, **kw):
    try:
        ctrl.run(services, timeline, HORIZON_S, **kw)
    except Exception as exc:  # noqa: BLE001 - a raised check ends the run
        if exc is not getattr(ctrl, "raised_by_check", None):
            raise


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_incremental_check_matches_reference(kind):
    """Corrupted after the bootstrap, so the memo is warm and the
    corrupted interval runs the incremental path (a GPU swap retries
    it from an empty memo)."""
    incremental: list[bool] = []

    @given(
        fleets,
        raw_events,
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.2, 1.0]),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def example(services, raw, at, pick, replan_fraction):
        timeline = timeline_of(raw)
        corrupt_at = 1 + at % (_steps_at_least(timeline) - 1)
        ctrl = FleetController(PROFILES, full_replan_fraction=replan_fraction)
        verdicts = dual_checked(ctrl, corrupt_at, kind, pick)
        _replay(ctrl, services, timeline)
        _assert_same_verdicts(verdicts, corrupt_at)
        incremental.append(_ran_incremental(verdicts, corrupt_at))

    example()
    # The verdicts are only worth comparing where the incremental path ran:
    # no corruption leaves a map that an empty memo cannot follow.
    assert all(incremental), (
        f"{incremental.count(False)} of {len(incremental)} corrupted "
        "intervals fell back to the reference"
    )


@pytest.mark.parametrize("kind", CORRUPTIONS)
@given(
    fleets,
    raw_events,
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=8, deadline=None, derandomize=True)
def test_first_check_after_restore_matches_reference(
    kind, services, raw, at, pick
):
    """The first check of a restored run starts from an empty memo."""
    timeline = timeline_of(raw)
    kill_at = 1 + at % (_steps_at_least(timeline) - 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        FleetController(PROFILES).run(
            services, timeline, HORIZON_S,
            checkpoint_path=path, max_steps=kill_at,
        )
        ctrl = FleetController(PROFILES)
        verdicts = dual_checked(ctrl, kill_at, kind, pick)
        _replay(ctrl, services, timeline, resume=path)
    _assert_same_verdicts(verdicts, kill_at)
    assert verdicts[0][:3] == (kill_at, True, False)


def _churn_burst():
    """Three services, a failover at t=1, then a churn burst at t=2 that
    exceeds the default re-plan fraction."""
    services = [
        Service(f"s{i}", model, slo_latency_ms=250.0, request_rate=900.0)
        for i, model in enumerate(("resnet-50", "mobilenetv2", "vgg-16"))
    ]
    timeline = [GpuFailure(time_s=1.0, event_id="f0", draw=0.4)] + [
        ServiceArrival(
            time_s=2.0, service_id=f"n{k}", model="densenet-121",
            request_rate=500.0 + 100.0 * k, slo_latency_ms=300.0,
        )
        for k in range(3)
    ]
    return services, timeline


def test_churn_burst_is_a_full_replan():
    services, timeline = _churn_burst()
    report = FleetController(PROFILES).run(services, timeline, HORIZON_S)
    assert [r.path for r in report.intervals] == [
        "full", "incremental", "full",
    ]


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_first_check_after_full_replan_matches_reference(kind):
    """The memo is warm from step 1; step 2 replaces the map and its
    state is corrupted right before the check."""
    services, timeline = _churn_burst()
    ctrl = FleetController(PROFILES)
    verdicts = dual_checked(ctrl, 2, kind, pick=5)
    _replay(ctrl, services, timeline)
    _assert_same_verdicts(verdicts, 2)
    assert [v[:3] for v in verdicts][:3] == [
        (0, True, False), (1, False, False), (2, False, False),
    ]


def _warm(services):
    """A controller one failover past bootstrap, its memo warm."""
    ctrl = FleetController(PROFILES)
    ctrl.begin(services, horizon_s=HORIZON_S)
    ctrl.step(0.0)
    ctrl.step(1.0, [GpuFailure(time_s=1.0, event_id="f0", draw=0.4)])
    return ctrl


def test_memo_never_aliases_the_live_fleet():
    services, _ = _churn_burst()
    ctrl = _warm(services)
    memo = ctrl.verifier.memo
    assert memo is not None and ctrl.verifier.stats.full_fallbacks == 0
    live = ctrl.manager.live_states()
    assert live is not None
    live_ids = {id(s) for s in live} | {id(s.placed) for s in live}
    mine = list(memo.states.values())
    assert not live_ids & ({id(s) for s in mine} | {id(s.placed) for s in mine})


def test_reordered_gpus_retry_from_an_empty_memo():
    """Surviving GPUs that changed relative order re-sum every share in a
    new order: the warm memo cannot follow them, so the check starts over
    from an empty memo and rebuilds every GPU, without the reference."""
    services = [
        Service(f"s{i}", model, slo_latency_ms=250.0, request_rate=3000.0)
        for i, model in enumerate(("resnet-50", "mobilenetv2", "vgg-16"))
    ]
    ctrl = _warm(services)
    placement = ctrl.manager.current
    gpus = placement.gpus
    assert len(gpus) > 1
    gpus[0], gpus[-1] = gpus[-1], gpus[0]
    ctrl.manager.deploy(placement)  # drops the live state's order
    stats = ctrl.verifier.stats
    rebuilt = stats.gpus_rebuilt
    ctrl.step(2.0)
    assert stats.full_fallbacks == 0
    assert stats.gpus_rebuilt - rebuilt == len(gpus)
    rebuilt = stats.gpus_rebuilt
    ctrl.step(3.0)  # the retry left a warm memo
    assert stats.full_fallbacks == 0
    assert stats.gpus_rebuilt == rebuilt
    ctrl.finish()


#: the maps no memo can follow, so the fast path hands them to the
#: reference
REFERENCE_ONLY = ("empty-plan", "repeated-gpu", "repeated-service")


@pytest.mark.parametrize("shape", REFERENCE_ONLY)
def test_what_no_memo_follows_takes_the_reference(shape):
    services, _ = _churn_burst()
    ctrl = _warm(services)
    verifier = ctrl.verifier
    gpus = ctrl.manager.current.gpus
    work = list(ctrl._run.work)
    if shape == "empty-plan":
        last = gpus[-1]
        gpus.append(GPUPlan(last.gpu_id + 1, (), last.geometry))
    elif shape == "repeated-gpu":
        gpus.append(gpus[0])
    else:
        work.append(work[0])
    calls = []
    check_state = verifier._check_state

    def spied(work):
        calls.append(work)
        return check_state(work)

    verifier._check_state = spied
    reference = StateVerifier(ctrl.manager, fast_path=False)
    ref = _outcome(lambda: reference.verify(work))
    mine = _outcome(lambda: verifier.verify(work))
    assert type(ref) is type(mine), (ref, mine)
    assert calls == [work]
    assert verifier.stats.full_fallbacks == 1
    assert verifier.memo is None


def test_reference_controller_runs_the_full_check_every_interval():
    services, timeline = _churn_burst()
    ctrl = FleetController(PROFILES, fast_path=False)
    report = ctrl.run(services, timeline, HORIZON_S)
    assert ctrl.verifier.memo is None
    assert ctrl.verifier.stats.full_fallbacks == len(report.intervals)
    assert ctrl.manager.stats.states_rebuilt >= len(report.intervals)


def _co_hosted(rate_b: float):
    """A deployment where B shares GPU 0 with A and GPU 1 with C.  A
    departs, so GPU 0 gets a new plan; B stays put, so publication leaves
    its shares alone and GPU 1 keeps its plan object.  The check still
    re-rates B (it is on a changed GPU): GPU 1 is a re-routed plan that
    did not change.  Returns the manager, a warm fast verifier and the
    remaining services."""
    from repro.core.deployment import DeploymentManager
    from repro.core.placement import PlacedSegment, Placement

    def seg(sid, size, start, capacity):
        return PlacedSegment(
            service_id=sid, model="resnet-50", kind="mig", gpcs=float(size),
            batch_size=4, num_processes=1, capacity=capacity,
            latency_ms=10.0, sm_activity=0.5, start=start,
        )

    services = {
        sid: Service(sid, "resnet-50", slo_latency_ms=250.0, request_rate=1.0)
        for sid in "ABC"
    }
    for sid, rate in (("A", 50.0), ("B", rate_b), ("C", 25.0)):
        services[sid].request_rate = rate
    placement = Placement(framework="parvagpu", gpus=[
        GPUPlan(0, (seg("A", 3, 4, 100.0), seg("B", 2, 0, 100.0))),
        GPUPlan(1, (seg("B", 2, 0, 100.0), seg("C", 3, 4, 50.0))),
    ])
    placement.assign_rates({s.id: s.request_rate for s in services.values()})
    manager = DeploymentManager(PROFILES)
    manager.deploy(placement)
    fast = StateVerifier(manager)
    work = [services["B"], services["C"]]
    fast.verify(list(services.values()))  # fills an empty memo
    kept = manager.current.gpus[1]
    manager.remove_service(work, "A")
    assert manager.current.gpus[1] is kept  # B did not move
    return manager, fast, work


#: a co-hosted service's served rate on a re-routed plan that did not
#: change: (B's request rate, the published served rate replaced by)
SERVED_RATE_CORRUPTIONS = {
    "signed-zero": (0.0, lambda x: -0.0),
    "zero-for-signed": (0.0, lambda x: 0.0),  # the same bits: no change
    "equal-int": (100.0, lambda x: int(x)),
    "one-ulp": (100.0, lambda x: math.nextafter(x, math.inf)),
    "nan": (100.0, lambda x: math.nan),
    "nan-for-nan": (math.nan, lambda x: float("nan")),
}


@pytest.mark.parametrize("kind", sorted(SERVED_RATE_CORRUPTIONS))
def test_served_rate_on_unchanged_rerouted_plan(kind):
    """The incremental check compares a re-rated segment's served rate on
    a plan it verified before by ``repr``, as the reference compares the
    rendered line: -0.0 is not 0.0, an int is not its float, one ulp
    counts and a nan matches a nan.  The corrupted plan stands in for the
    verified one in the memo too, so only that compare can see it."""
    rate_b, corrupted = SERVED_RATE_CORRUPTIONS[kind]
    manager, fast, work = _co_hosted(rate_b)
    gpus = manager.current.gpus
    plan = gpus[1]
    segs = list(plan.segments)
    b = segs[0]
    assert b.service_id == "B"
    segs[0] = b.with_served_rate(corrupted(b.served_rate))
    memo = fast.memo
    assert memo.gpus[1] is plan  # the memo's plans align with the map's
    gpus[1] = memo.gpus[1] = memo.plans[1] = GPUPlan(
        1, tuple(segs), plan.geometry
    )
    compared = fast.stats.rates_compared
    reference = StateVerifier(manager, fast_path=False)
    ref = _outcome(lambda: reference.verify(work))
    mine = _outcome(lambda: fast.verify(work))
    assert fast.stats.full_fallbacks == 0  # the incremental path ran
    assert type(ref) is type(mine), (ref, mine)
    same = repr(segs[0].served_rate) == repr(b.served_rate)
    assert (ref is None) is same
    if mine is None:
        assert fast.stats.rates_compared > compared


def test_shares_sum_in_placement_order_after_a_replacement():
    """B is on GPUs 0, 1 and 2, in that order.  C leaves GPU 1, whose
    plan is replaced in place; B's shares do not move, so GPUs 0 and 2
    keep their plans.  The check re-rates B over all three, in placement
    order: its capacities sum to a different last bit in another order
    (0.1 + 0.2 + 2.3 against 0.1 + 2.3 + 0.2, left to right), and the
    served rates it compares on the kept plans must match that sum."""
    from repro.core.deployment import DeploymentManager
    from repro.core.placement import PlacedSegment, Placement

    def seg(sid, size, start, capacity):
        return PlacedSegment(
            service_id=sid, model="resnet-50", kind="mig", gpcs=float(size),
            batch_size=4, num_processes=1, capacity=capacity,
            latency_ms=10.0, sm_activity=0.5, start=start,
        )

    services = {
        sid: Service(sid, "resnet-50", slo_latency_ms=250.0, request_rate=r)
        for sid, r in (("A", 50.0), ("B", 30.0), ("C", 25.0), ("D", 40.0))
    }
    placement = Placement(framework="parvagpu", gpus=[
        GPUPlan(0, (seg("B", 3, 4, 0.1), seg("A", 4, 0, 100.0))),
        GPUPlan(1, (seg("B", 3, 4, 0.2), seg("C", 4, 0, 50.0))),
        GPUPlan(2, (seg("B", 3, 4, 2.3), seg("D", 4, 0, 60.0))),
    ])
    placement.assign_rates({s.id: s.request_rate for s in services.values()})
    manager = DeploymentManager(PROFILES)
    manager.deploy(placement)
    fast = StateVerifier(manager)
    fast.verify(list(services.values()))  # fills an empty memo
    before = list(manager.current.gpus)
    work = [services[sid] for sid in "ABD"]
    manager.remove_service(work, "C")
    after = manager.current.gpus
    assert [a is b for a, b in zip(before, after)] == [True, False, True]
    reference = StateVerifier(manager, fast_path=False)
    assert _outcome(lambda: reference.verify(work)) is None
    assert _outcome(lambda: fast.verify(work)) is None
    assert fast.stats.full_fallbacks == 0  # the incremental path ran
    assert fast.stats.rates_compared == 2  # B on GPUs 0 and 2
