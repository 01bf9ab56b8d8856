"""Property: the sharded parallel simulation is bit-identical to serial.

The shard executor (:mod:`repro.sim.shard`) exists purely to spread the
per-interval serving measurement across worker processes — merge order
is fixed to placement order regardless of worker completion order, so
*every* statistic (not just the exact-integer fingerprint fields: the
order-sensitive float sums too) must come out bit-identical to the
serial fast path for any shard count, on any geometry, saturated or not.
The placement itself must come back untouched byte-for-byte.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hetero import make_mixed_scheduler
from repro.core.parvagpu import ParvaGPU
from repro.core.placement import PlacedSegment, Placement
from repro.core.service import Service
from repro.gpu.geometry import get_geometry
from repro.profiler import profile_workloads
from repro.scenarios.fleet import fleet_services
from repro.sim import simulate_placement, simulate_placement_fast
from repro.sim.shard import ShardContext

SHARD_COUNTS = sorted({1, 2, 7, os.cpu_count() or 1})

segment_params = st.tuples(
    st.floats(min_value=30.0, max_value=1200.0),  # capacity
    st.floats(min_value=0.0, max_value=2.2),  # load factor (>1: saturated)
    st.sampled_from([1, 2, 4, 8, 16, 32]),  # batch
    st.sampled_from([1, 2, 3]),  # procs
    st.floats(min_value=15.0, max_value=60.0),  # planned latency
    st.sampled_from(["mig", "mi300x"]),  # geometry
)

run_params = st.tuples(
    st.sampled_from(["uniform", "poisson"]),
    st.integers(min_value=0, max_value=7),  # seed
    st.floats(min_value=0.0, max_value=0.6),  # warmup
    st.floats(min_value=25.0, max_value=500.0),  # slo
)


def build(segments):
    placement = Placement(framework="prop")
    services = {}
    for i, (cap, load, batch, procs, lat, geometry) in enumerate(segments):
        sid = f"svc{i % 2}"  # two services sharing segments
        placement.add(
            i,
            PlacedSegment(
                service_id=sid,
                model="resnet-50",
                kind="mig" if geometry == "mig" else "xcd",
                gpcs=2.0,
                batch_size=batch,
                num_processes=procs,
                capacity=cap,
                latency_ms=lat,
                sm_activity=0.9,
                start=0,
                served_rate=cap * load,
                geometry=geometry,
            ),
        )
        services.setdefault(sid, 0.0)
        services[sid] += cap * load
    return placement, [
        Service(sid, "resnet-50", slo_latency_ms=400.0,
                request_rate=max(rate, 1.0))
        for sid, rate in services.items()
    ]


def assert_bit_identical(sharded, serial):
    """Stronger than the fingerprint contract: every float matches too."""
    assert sharded.fingerprint() == serial.fingerprint()
    assert sharded.close_to(serial)
    assert set(sharded.services) == set(serial.services)
    for sid, a in sharded.services.items():
        b = serial.services[sid]
        assert (a.batches, a.violations, a.requests) == (
            b.batches, b.violations, b.requests
        )
        assert a.latency_sum_ms == b.latency_sum_ms  # exact, not rtol
        assert a.latency_max_ms == b.latency_max_ms
    assert sharded.completed == serial.completed
    assert sharded.segment_activity == serial.segment_activity
    assert sharded.events_processed == serial.events_processed


@given(st.lists(segment_params, min_size=1, max_size=4), run_params)
@settings(max_examples=40, deadline=None)
def test_sharded_matches_serial_fast_path(segments, run):
    arrivals, seed, warmup, slo = run
    placement, services = build(segments)
    services = [
        Service(s.id, s.model, slo_latency_ms=slo, request_rate=s.request_rate)
        for s in services
    ]
    kwargs = dict(duration_s=1.0, warmup_s=warmup, seed=seed,
                  arrivals=arrivals)
    before = placement.fingerprint()
    serial = simulate_placement(placement, services, **kwargs)
    for workers in (1, 2):
        sharded = simulate_placement(
            placement, services, workers=workers, **kwargs
        )
        assert_bit_identical(sharded, serial)
    assert placement.fingerprint() == before  # simulation never mutates


def _scheduled_fleet(geometry, rate_scale):
    services = fleet_services(24, rate_scale=rate_scale)
    if geometry == "mixed":
        scheduler = make_mixed_scheduler(fast_path=True)
    else:
        geo = get_geometry(geometry)
        profiles = (
            profile_workloads()
            if geometry == "mig"
            else profile_workloads(geometry=geo)
        )
        scheduler = ParvaGPU(profiles, geometry=geo, fast_path=True)
    return services, scheduler.schedule(services)


@pytest.mark.parametrize("geometry", ["mig", "mi300x", "mixed"])
@pytest.mark.parametrize("rate_scale", [1.0, 3.0])  # planned vs saturated
def test_every_shard_count_on_scheduled_fleets(geometry, rate_scale):
    """Real scheduled placements, every shard count incl. cpu_count."""
    services, placement = _scheduled_fleet(geometry, rate_scale)
    before = placement.fingerprint()
    serial = simulate_placement(
        placement, services, duration_s=1.0, warmup_s=0.2, seed=3
    )
    for workers in SHARD_COUNTS:
        sharded = simulate_placement(
            placement, services, duration_s=1.0, warmup_s=0.2, seed=3,
            workers=workers,
        )
        assert_bit_identical(sharded, serial)
    assert placement.fingerprint() == before


def test_context_reuse_keeps_identity():
    """A reused ShardContext (the controller's usage: pool + cross-call
    memo) must return bit-identical reports on repeated and on changed
    calls — memo hits included."""
    services, placement = _scheduled_fleet("mig", 1.0)
    serial = simulate_placement(
        placement, services, duration_s=1.0, warmup_s=0.2, seed=3
    )
    with ShardContext(workers=2) as ctx:
        first = simulate_placement_fast(
            placement, services, duration_s=1.0, warmup_s=0.2, seed=3,
            context=ctx,
        )
        assert ctx.memo_misses > 0
        again = simulate_placement_fast(
            placement, services, duration_s=1.0, warmup_s=0.2, seed=3,
            context=ctx,
        )
        assert ctx.memo_hits > 0
    assert_bit_identical(first, serial)
    assert_bit_identical(again, serial)


def test_workers_require_fast_path():
    services, placement = _scheduled_fleet("mig", 1.0)
    with pytest.raises(ValueError, match="fast path"):
        simulate_placement(placement, services, fast_path=False, workers=2)
    with pytest.raises(ValueError, match=">= 0"):
        simulate_placement(placement, services, workers=-1)
