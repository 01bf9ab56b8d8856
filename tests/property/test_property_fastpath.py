"""Property: the indexed fast path is byte-identical to the naive scan.

The slot index and the triplet-decision memoization exist purely to cut
asymptotic cost — Algorithm 1/2 semantics must not move by a byte.  For
randomized service mixes on every registered geometry (and the mixed
heterogeneous scheduler), with allocation optimization on and off, the
fast-path placement must fingerprint identically to the naive reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import SegmentAllocator
from repro.core.configurator import SegmentConfigurator
from repro.core.hetero import make_mixed_scheduler
from repro.core.parvagpu import ParvaGPU
from repro.core.service import InfeasibleServiceError, Service
from repro.gpu.geometry import get_geometry
from repro.models.zoo import TABLE_IV_ORDER
from repro.profiler import profile_workloads

MIG = get_geometry("mig")
MI300X = get_geometry("mi300x")
PROFILES = {
    "mig": profile_workloads(),
    "mi300x": profile_workloads(geometry=MI300X),
}
GEOMETRIES = {"mig": MIG, "mi300x": MI300X}

service_lists = st.lists(
    st.tuples(
        st.sampled_from(TABLE_IV_ORDER),
        st.floats(min_value=60.0, max_value=2000.0),
        st.floats(min_value=50.0, max_value=8000.0),
    ),
    min_size=1,
    max_size=8,
)


def _configure(params, geometry_name):
    geometry = GEOMETRIES[geometry_name]
    configurator = SegmentConfigurator(
        PROFILES[geometry_name], geometry=geometry
    )
    services = []
    for i, (model, slo, rate) in enumerate(params):
        svc = Service(
            id=f"svc{i}", model=model, slo_latency_ms=slo, request_rate=rate
        )
        try:
            configurator.configure([svc])
        except InfeasibleServiceError:
            continue
        services.append(svc)
    return services


@given(service_lists, st.sampled_from(["mig", "mi300x"]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_indexed_allocation_is_byte_identical(params, geometry_name, optimize):
    services = _configure(params, geometry_name)
    if not services:
        return
    geometry = GEOMETRIES[geometry_name]
    naive = SegmentAllocator(
        optimize=optimize, geometry=geometry, indexed=False
    ).allocate(services)
    fast = SegmentAllocator(
        optimize=optimize, geometry=geometry, indexed=True
    ).allocate(services)
    assert naive.fingerprint() == fast.fingerprint()


@given(service_lists, st.booleans())
@settings(max_examples=20, deadline=None)
def test_full_pipeline_fast_path_identity(params, optimize):
    """ParvaGPU end-to-end: memoized configurator + indexed allocator."""
    fresh = lambda: [  # noqa: E731 - each run needs unconfigured services
        Service(id=f"svc{i}", model=m, slo_latency_ms=slo, request_rate=rate)
        for i, (m, slo, rate) in enumerate(params)
    ]
    try:
        naive = ParvaGPU(
            PROFILES["mig"], optimize=optimize, fast_path=False
        ).schedule(fresh())
        fast = ParvaGPU(
            PROFILES["mig"], optimize=optimize, fast_path=True
        ).schedule(fresh())
    except InfeasibleServiceError:
        return
    assert naive.fingerprint() == fast.fingerprint()


def test_incremental_paths_fast_path_identity():
    """SIII-F SLO updates and failover: indexed vs naive, byte-identical."""
    from repro.core.deployment import DeploymentManager
    from repro.core.failover import FailoverController
    from repro.scenarios import scenario_services

    def run(fast_path):
        services = scenario_services("S2")
        manager = DeploymentManager(PROFILES["mig"], fast_path=fast_path)
        manager.deploy(
            ParvaGPU(PROFILES["mig"], fast_path=fast_path).schedule(services)
        )
        updated, _ = manager.update_slo(
            services, services[0], new_rate=services[0].request_rate * 2.5
        )
        recovered = FailoverController(manager).fail_gpu(
            manager.current.gpus[0].gpu_id, services
        )
        return updated.fingerprint(), recovered.placement.fingerprint()

    assert run(True) == run(False)


@given(service_lists)
@settings(max_examples=15, deadline=None)
def test_mixed_scheduler_fast_path_identity(params):
    """The heterogeneous (mig + mi300x) scheduler, fast vs naive."""
    fresh = lambda: [  # noqa: E731
        Service(id=f"svc{i}", model=m, slo_latency_ms=slo, request_rate=rate)
        for i, (m, slo, rate) in enumerate(params)
    ]
    try:
        naive = make_mixed_scheduler(fast_path=False).schedule(fresh())
        fast = make_mixed_scheduler(fast_path=True).schedule(fresh())
    except InfeasibleServiceError:
        return
    assert naive.fingerprint() == fast.fingerprint()
