"""Property: the per-plan measurement layer equals memo-free measurement.

``measure_interval`` on a :class:`~repro.sim.fastpath.PlanMemo` serves
every GPU plan it measured before, unchanged, from the layer, and
re-resolves only the changed ones.  Over generated sequences of
placements, driven through one layer, every interval must equal the
memo-free reference (the event-driven engine) in compliance, stats
fingerprint, the per-service compliance items *and their order*, and the
worst service; and the layer's memo counters must equal a plain
per-segment memo walk's.

The sequences cover the layer's invalidation rules: the same
``Placement`` object re-measured after only a service's SLO changed
(the same ``services`` list, one ``Service`` mutated in place), arrivals
appended and departures from anywhere in the list, rate changes, a GPU
failure renumbered away by ``drop_empty_gpus``, a plan moved to an
unused GPU id in a list of the same length, ``services`` passed as a
generator, a change of measurement window on the same layer, and a
departed service still placed (both must raise the same
``ValueError``).  A replaced plan that repeats a GPU id raises the
layer's ``ValueError`` and resets it.  A segment memo reused across
plain placement walks is bit-identical too, float sums included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parvagpu import ParvaGPU
from repro.core.placement import GPUPlan, Placement
from repro.core.service import Service
from repro.profiler import profile_workloads
from repro.sim import measure_interval, simulate_placement_fast
from repro.sim.fastpath import PlanMemo

PROFILES = profile_workloads()
SCHEDULER = ParvaGPU(PROFILES)
MODELS = ("resnet-50", "mobilenetv2", "densenet-121", "inceptionv3")
SLOS = (150.0, 250.0, 400.0, 800.0)
RATES = (300.0, 1500.0, 4000.0)
#: (measure_s, warmup_s) windows a sequence switches between
WINDOWS = ((0.1, 0.05), (0.15, 0.05))

fleets = st.lists(
    st.tuples(
        st.sampled_from(MODELS), st.sampled_from(SLOS), st.sampled_from(RATES)
    ),
    min_size=2,
    max_size=6,
)
ops = st.lists(
    st.tuples(
        st.sampled_from([
            "slo", "rate", "arrive", "depart", "fail", "window", "ghost",
            "reorder", "renumber", "repeat", "generator",
        ]),
        st.integers(min_value=0, max_value=11),
        st.sampled_from([0.5, 1.0, 1.7]),
    ),
    min_size=1,
    max_size=8,
)


def _republish(placement, gpus):
    """A new published placement over ``gpus`` (plans are shared)."""
    return Placement(
        framework=placement.framework, gpus=list(gpus),
        rates_assigned=placement.rates_assigned,
    )


def _without(plan, sid):
    return GPUPlan(
        plan.gpu_id,
        tuple(s for s in plan.segments if s.service_id != sid),
        plan.geometry,
    )


def _rescaled(plan, factor):
    return GPUPlan(
        plan.gpu_id,
        tuple(s.with_served_rate(s.served_rate * factor)
              for s in plan.segments),
        plan.geometry,
    )


def _repeat(placement, i, j):
    """``placement`` with its plan ``i`` replaced by one that repeats
    plan ``j``'s GPU id, and the error the layer must raise for it."""
    gpus = placement.gpus
    gid = gpus[j].gpu_id
    twice = _republish(
        placement, gpus[:i] + [gpus[i].renumbered(gid)] + gpus[i + 1:]
    )
    return twice, repr(ValueError(f"GPU {gid} is listed twice"))


def _renumbered(placement, i):
    """``placement`` with plan ``i`` moved to an unused GPU id: a list
    of the same length whose ids no longer match position for position."""
    gpus = placement.gpus
    unused = max(g.gpu_id for g in gpus) + 1
    return _republish(
        placement, gpus[:i] + [gpus[i].renumbered(unused)] + gpus[i + 1:]
    )


def _measure(placement, services, window, ctx):
    """The layer's measurement, or the error it raised."""
    measure_s, warmup_s = window
    try:
        return measure_interval(
            placement, services, measure_s=measure_s, warmup_s=warmup_s,
            plans=ctx,
        )
    except ValueError as exc:
        return repr(exc)


def _reference(placement, services, window):
    measure_s, warmup_s = window
    try:
        return measure_interval(
            placement, services, measure_s=measure_s, warmup_s=warmup_s,
        )
    except ValueError as exc:
        return repr(exc)


def _walk(placement, services, window, ctx):
    """A plain per-segment memo walk, for the counters only."""
    measure_s, warmup_s = window
    try:
        simulate_placement_fast(
            placement, services, duration_s=measure_s + warmup_s,
            warmup_s=warmup_s, memo=ctx.memo,
        )
    except ValueError:
        pass


def counts(ctx):
    memo = ctx.memo
    return memo.hits_total, memo.misses_total, memo.closed_form_total


def _same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert got.compliance == want.compliance
    assert got.fingerprint == want.fingerprint
    assert list(got.per_service.items()) == list(want.per_service.items())
    assert got.worst_service == want.worst_service
    assert got.worst_compliance == want.worst_compliance


@given(cells=fleets, steps=ops)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_plan_layer_matches_memo_free_reference(cells, steps):
    services = [
        Service(f"s{i}", model, slo_latency_ms=slo, request_rate=rate)
        for i, (model, slo, rate) in enumerate(cells)
    ]
    placement = SCHEDULER.schedule(services)
    window = WINDOWS[0]
    arrivals = 0
    ctx, walk = PlanMemo(), PlanMemo()

    def check():
        _same(
            _measure(placement, services, window, ctx),
            _reference(placement, services, window),
        )
        _walk(placement, services, window, walk)
        assert counts(ctx) == counts(walk)

    check()
    for kind, a, factor in steps:
        gpus = placement.gpus
        if kind == "generator":  # the layer takes any iterable
            _same(
                _measure(placement, (s for s in services), window, ctx),
                _reference(placement, services, window),
            )
            _walk(placement, services, window, walk)
            assert counts(ctx) == counts(walk)
            continue
        if kind == "slo":  # the same Placement object is re-measured
            svc = services[a % len(services)]
            svc.slo_latency_ms = SLOS[(SLOS.index(svc.slo_latency_ms) + 1)
                                      % len(SLOS)]
        elif kind == "rate" and gpus:
            i = a % len(gpus)
            placement = _republish(
                placement,
                gpus[:i] + [_rescaled(gpus[i], factor)] + gpus[i + 1:],
            )
        elif kind == "arrive":
            arrivals += 1
            svc = Service(
                f"n{arrivals}", MODELS[a % len(MODELS)],
                slo_latency_ms=SLOS[a % len(SLOS)],
                request_rate=RATES[a % len(RATES)],
            )
            services.append(svc)
            own = SCHEDULER.schedule([svc]).gpus
            base = max((g.gpu_id for g in gpus), default=-1) + 1
            placement = _republish(placement, gpus + [
                plan.renumbered(base + k) for k, plan in enumerate(own)
            ])
        elif kind == "depart" and len(services) > 1:
            sid = services.pop(a % len(services)).id
            placement = _republish(placement, [
                _without(plan, sid)
                if any(s.service_id == sid for s in plan.segments)
                else plan
                for plan in gpus
            ])
        elif kind == "fail" and gpus:
            i = a % len(gpus)
            placement = _republish(
                placement,
                gpus[:i] + [GPUPlan(i, (), gpus[i].geometry)]
                + gpus[i + 1:],
            )
            placement.drop_empty_gpus()
        elif kind == "window":
            window = WINDOWS[(WINDOWS.index(window) + 1) % len(WINDOWS)]
        elif kind == "ghost":  # departed, but still placed
            placed = [s for s in services
                      if any(seg.service_id == s.id
                             for _, seg in placement.iter_segments())]
            if placed:
                ghost = placed[a % len(placed)]
                services.remove(ghost)
                check()  # both raise the same ValueError
                services.append(ghost)
        elif kind == "reorder":
            k = a % len(services)
            services[:] = services[k:] + services[:k]
        elif kind == "renumber" and gpus:
            placement = _renumbered(placement, a % len(gpus))
        elif kind == "repeat" and len(gpus) > 1:
            i = a % len(gpus)
            twice, error = _repeat(placement, i, (i + 1) % len(gpus))
            assert _measure(twice, services, window, ctx) == error
            assert ctx.window is None and not ctx.gpus  # forgot everything
        check()


def test_unchanged_plans_are_reused_whole():
    """The layer really serves unchanged plans from cache: all of them
    on a re-measure, all but the SLO-changed service's hosts after an
    SLO change, and none after a window change."""
    services = [
        Service(f"s{i}", model, slo_latency_ms=250.0, request_rate=4000.0)
        for i, model in enumerate(MODELS)
    ]
    placement = SCHEDULER.schedule(services)
    hosts = {
        gpu_id for gpu_id, seg in placement.iter_segments()
        if seg.service_id == "s0"
    }
    assert 0 < len(hosts) < len(placement.gpus)
    ctx = PlanMemo()

    def reused(window=WINDOWS[0]):
        got = _measure(placement, services, window, ctx)
        _same(got, _reference(placement, services, window))
        return ctx.reused

    assert reused() == 0
    assert reused() == len(placement.gpus)
    services[0].slo_latency_ms = 400.0
    assert reused() == len(placement.gpus) - len(hosts)
    assert reused(WINDOWS[1]) == 0
    assert reused(WINDOWS[1]) == len(placement.gpus)


def test_context_reuse_keeps_identity():
    """A reused segment memo (the controller's usage: a cross-call memo)
    returns reports bit-identical to the reference on repeated calls —
    memo hits included, float sums exactly."""
    services = [
        Service(f"s{i}", model, slo_latency_ms=slo, request_rate=rate)
        for i, (model, slo, rate) in enumerate(
            zip(MODELS, SLOS, RATES + (2500.0,))
        )
    ]
    placement = SCHEDULER.schedule(services)
    kwargs = dict(duration_s=1.0, warmup_s=0.2, seed=3)
    serial = simulate_placement_fast(placement, services, **kwargs)
    ctx = PlanMemo()
    first = simulate_placement_fast(
        placement, services, memo=ctx.memo, **kwargs
    )
    assert ctx.memo.misses_total > 0
    again = simulate_placement_fast(
        placement, services, memo=ctx.memo, **kwargs
    )
    assert ctx.memo.hits_total == ctx.memo.misses_total
    for got in (first, again):
        assert got.fingerprint() == serial.fingerprint()
        assert got.services == serial.services  # every float exactly
        assert got.completed == serial.completed
        assert got.segment_activity == serial.segment_activity
        assert got.events_processed == serial.events_processed


def _edit_fleet():
    """Eight services on a few GPUs, and their placement."""
    services = [
        Service(f"s{i}", MODELS[i % 4], slo_latency_ms=SLOS[i % 4],
                request_rate=RATES[i % 3])
        for i in range(8)
    ]
    return services, SCHEDULER.schedule(services)


def _hosts(placement, sid):
    return {gid for gid, seg in placement.iter_segments()
            if seg.service_id == sid}


def _tenants(placement, gids):
    return {seg.service_id for gid, seg in placement.iter_segments()
            if gid in gids}


@pytest.mark.parametrize("edit", [
    "mutate", "arrive", "depart", "renumber", "repeat", "generator",
])
def test_list_edits_match_the_reference(edit):
    """Each edit a live fleet makes between two intervals, on a warm
    layer: the result equals the memo-free reference, and the layer
    re-resolves only the plans the edit touched."""
    services, placement = _edit_fleet()
    window = WINDOWS[0]
    ctx = PlanMemo()
    _same(_measure(placement, services, window, ctx),
          _reference(placement, services, window))
    gpus = placement.gpus
    given_services = services
    if edit == "mutate":  # the same list, one Service edited in place
        svc = services[3]
        svc.slo_latency_ms = 800.0 if svc.slo_latency_ms != 800.0 else 150.0
        resolved = len(_hosts(placement, svc.id))
    elif edit == "arrive":
        svc = Service("n1", "resnet-50", slo_latency_ms=400.0,
                      request_rate=1500.0)
        services.append(svc)
        own = [plan.renumbered(len(gpus) + k)
               for k, plan in enumerate(SCHEDULER.schedule([svc]).gpus)]
        placement = _republish(placement, gpus + own)
        resolved = len(own)
    elif edit == "depart":  # from the middle of the list
        sid = services.pop(4).id
        resolved = len(_hosts(placement, sid))
        placement = _republish(placement, [
            _without(plan, sid) if any(s.service_id == sid
                                       for s in plan.segments) else plan
            for plan in gpus
        ])
    elif edit == "renumber":
        placement = _renumbered(placement, 0)
        resolved = 1
    elif edit == "repeat":
        twice, error = _repeat(placement, 0, len(gpus) - 1)
        assert _measure(twice, services, window, ctx) == error
        assert ctx.window is None and not ctx.gpus and not ctx.services
        resolved = len(gpus)  # the layer starts cold
    else:  # "generator"
        given_services = (s for s in services)
        resolved = 0
    _same(_measure(placement, given_services, window, ctx),
          _reference(placement, services, window))
    assert ctx.resolved == resolved
    assert ctx.reused == len(placement.gpus) - resolved


def test_counts_follow_what_changed():
    """An unchanged interval resolves no plan and re-aggregates no
    service; one SLO change re-aggregates exactly that service and the
    other tenants of the GPUs hosting it."""
    services, placement = _edit_fleet()
    ctx = PlanMemo()
    _measure(placement, services, WINDOWS[0], ctx)
    assert (ctx.resolved, ctx.reaggregated) == (len(placement.gpus), 8)
    _measure(placement, services, WINDOWS[0], ctx)
    assert (ctx.resolved, ctx.reaggregated) == (0, 0)
    hosts = _hosts(placement, "s2")
    tenants = _tenants(placement, hosts)
    assert len(tenants) < len(services)
    services[2].slo_latency_ms = 800.0
    _same(_measure(placement, services, WINDOWS[0], ctx),
          _reference(placement, services, WINDOWS[0]))
    assert ctx.resolved == len(hosts)
    assert ctx.reaggregated == len(tenants)

