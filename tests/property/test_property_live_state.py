"""Property: the live allocator state replays the rebuild reference.

On the fast path every incremental delta (failover, SLO/rate updates,
arrivals, departures, restores) updates the deployment manager's
persistent allocator state in place; ``fast_path=False`` rebuilds that
state from the placement on every delta.  Over generated timelines —
every event type, several events per instant, failing spares, waves,
recoveries of GPUs that never failed, departures of unknown ids, and a
checkpoint restore in the middle of the run — both must publish
fingerprint-identical placements, with identically priced
reconfigurations, at every interval.  The fast replays
run with the per-interval check on, which also compares the live state
with its rebuild GPU for GPU.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployment import DeploymentManager
from repro.core.hetero import make_mixed_scheduler
from repro.core.service import Service
from repro.gpu.gpu import GPUError
from repro.ops import FleetController, assert_reports_identical
from repro.ops.chaos import rate_epochs
from repro.ops.events import (
    GpuFailure,
    GpuRecovery,
    RateEpoch,
    ServiceArrival,
    ServiceDeparture,
    SloChange,
    SpotPreemptionWave,
)
from repro.profiler import profile_workloads
from repro.sim.traces import diurnal_trace, surge_trace

PROFILES = profile_workloads()
MODELS = (
    "resnet-50", "mobilenetv2", "densenet-121", "inceptionv3", "vgg-16",
    "bert-large",
)
HORIZON_S = 12.0
#: few instants, so several events routinely share one
INSTANTS = st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def _service(sid, model, slo, rate):
    return Service(sid, model, slo_latency_ms=slo, request_rate=rate)


def _fleet(cells):
    return [_service(f"s{i}", *cell) for i, cell in enumerate(cells)]


fleets = st.lists(
    st.tuples(
        st.sampled_from(MODELS),
        st.sampled_from([150.0, 250.0, 400.0, 800.0]),
        st.sampled_from([100.0, 500.0, 1500.0, 3000.0]),
    ),
    min_size=3,
    max_size=7,
).map(_fleet)

# (kind, instant, a, b): the meaning of a/b depends on the kind; ids
# reach past the fleet so unknown services are named too.
raw_events = st.lists(
    st.tuples(
        st.sampled_from([
            "fail-draw", "fail-id", "recover-ref", "recover-id", "wave",
            "rate", "slo", "arrive", "depart",
        ]),
        INSTANTS,
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=0.0, max_value=0.999),
    ),
    min_size=1,
    max_size=12,
)


def _timeline(raw):
    events = []
    for k, (kind, t, a, b) in enumerate(raw):
        if kind == "fail-draw":
            events.append(GpuFailure(time_s=t, event_id=f"f{k}", draw=b))
        elif kind == "fail-id":  # may hit a spare, or nothing at all
            events.append(GpuFailure(time_s=t, event_id=f"f{k}", gpu_id=a))
        elif kind == "recover-ref":
            events.append(GpuRecovery(time_s=t, ref=f"f{a}"))
        elif kind == "recover-id":  # may name a GPU that never failed
            events.append(GpuRecovery(time_s=t, gpu_id=a))
        elif kind == "wave":
            events.append(SpotPreemptionWave(
                time_s=t, event_id=f"w{k}", fraction=(0.3, 0.6, 1.0)[a % 3],
                draw=b, restore_delay_s=(None, 2.0, 4.0)[a % 3],
            ))
        elif kind == "rate":
            events.append(RateEpoch(
                time_s=t, service_id=f"s{a}",
                rate=(50.0, 800.0, 2500.0, 6000.0)[a % 4],
            ))
        elif kind == "slo":
            events.append(SloChange(
                time_s=t, service_id=f"s{a}",
                slo_latency_ms=(150.0, 300.0, 1000.0)[a % 3],
            ))
        elif kind == "arrive":
            events.append(ServiceArrival(
                time_s=t, service_id=f"n{k}", model=MODELS[a % len(MODELS)],
                request_rate=(100.0, 900.0, 2000.0)[a % 3],
                slo_latency_ms=(250.0, 500.0)[a % 2],
            ))
        else:
            sid = f"s{a}" if b < 0.7 else "ghost"
            events.append(ServiceDeparture(time_s=t, service_id=sid))
    return events


def _naive(services, timeline):
    return FleetController(PROFILES, fast_path=False).run(
        services, timeline, HORIZON_S
    )


@given(fleets, raw_events, st.sampled_from([0.5, 1.0]))
@settings(max_examples=25, deadline=None)
def test_live_state_matches_rebuild(services, raw, replan_fraction):
    timeline = _timeline(raw)
    fast = FleetController(
        PROFILES, full_replan_fraction=replan_fraction
    ).run(services, timeline, HORIZON_S)
    naive = FleetController(
        PROFILES, fast_path=False, full_replan_fraction=replan_fraction
    ).run(services, timeline, HORIZON_S)
    assert_reports_identical(fast, naive)

    def pricing(report):
        return [
            (r.reconfig_ops, r.reconfig_work_s, r.max_downtime_s,
             r.downtime_total_s, r.zero_downtime)
            for r in report.intervals
        ]

    assert pricing(fast) == pricing(naive)


@given(fleets, raw_events, st.integers(min_value=1, max_value=6))
@settings(max_examples=10, deadline=None)
def test_restore_mid_run_matches_rebuild(services, raw, kill_at):
    """A run restored from a checkpoint rebuilds its live state lazily
    and continues exactly like the uninterrupted naive replay."""
    timeline = _timeline(raw)
    naive = _naive(services, timeline)
    kill_at = min(kill_at, len(naive.intervals) - 1)
    if kill_at < 1:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        FleetController(PROFILES).run(
            services, timeline, HORIZON_S,
            checkpoint_path=path, max_steps=kill_at,
        )
        resumed = FleetController(PROFILES).run(
            services, timeline, HORIZON_S, resume=path
        )
    assert_reports_identical(resumed, naive)


def _mixed_deployment(params, fast_path):
    services = [
        _service(f"m{i}", model, slo, rate)
        for i, (model, slo, rate) in enumerate(params)
    ]
    placement = make_mixed_scheduler().schedule(services)
    manager = DeploymentManager(PROFILES, fast_path=fast_path)
    manager.deploy(placement)
    return services, manager


@given(
    st.lists(
        st.tuples(
            st.sampled_from(MODELS),
            st.sampled_from([250.0, 400.0, 800.0]),
            st.sampled_from([300.0, 1500.0, 4000.0]),
        ),
        min_size=2,
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.sampled_from([200.0, 500.0, 1000.0]),
            st.sampled_from([100.0, 2000.0, 5000.0]),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=15, deadline=None)
def test_update_slo_on_mixed_placement(params, updates):
    """SIII-F updates over a MIG+MI300X map: the live state follows each
    plan's own geometry exactly like the rebuild."""
    fast_services, fast = _mixed_deployment(params, fast_path=True)
    naive_services, naive = _mixed_deployment(params, fast_path=False)
    for idx, slo, rate in updates:
        idx %= len(params)
        outcomes = []
        for manager, services in ((fast, fast_services), (naive, naive_services)):
            try:
                placement, plan = manager.update_slo(
                    services, services[idx], new_slo_ms=slo, new_rate=rate
                )
            except GPUError as exc:
                # Both paths share a cluster limitation: a fresh GPU may
                # take the id of an emptied device of the other geometry.
                outcomes.append(repr(exc))
            else:
                outcomes.append(
                    (placement.fingerprint(), plan.destroy, plan.create)
                )
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], str):
            return
        live = fast.live_states()
        rebuilt = fast.build_states()
        assert [(s.gpu_id, s.geometry.name, s.blocked, s.placed)
                for s in live] == [
            (s.gpu_id, s.geometry.name, s.blocked, s.placed) for s in rebuilt
        ]


def test_rate_epoch_run_matches_rebuild():
    """Trace-driven autoscaling — ``rate_epochs`` through the controller
    — re-plans and prices every interval identically on the live state
    and on the rebuild reference."""
    services = [
        _service("a", "resnet-50", 250.0, 2000.0),
        _service("b", "mobilenetv2", 150.0, 4000.0),
        _service("c", "densenet-121", 200.0, 1500.0),
    ]
    traces = [
        surge_trace("a", base_rate=2000, surge_factor=3.0,
                    surge_start_s=60.0, surge_end_s=120.0),
        diurnal_trace("b", base_rate=4000, amplitude=0.5, epochs=6),
        diurnal_trace("c", base_rate=1500, amplitude=0.4, epochs=4,
                      phase=1.0),
    ]
    horizon_s = 86_400.0
    fast, naive = (
        FleetController(PROFILES, fast_path=fast_path).run(
            services, rate_epochs(traces, horizon_s), horizon_s
        )
        for fast_path in (True, False)
    )
    assert_reports_identical(fast, naive)
    fast_steps, naive_steps = ([
        (r.num_gpus, r.reconfig_ops, r.reconfig_work_s, r.max_downtime_s,
         r.downtime_total_s)
        for r in report.intervals
    ] for report in (fast, naive))
    assert fast_steps == naive_steps
    assert any(step[1] for step in fast_steps[1:])
