"""Property: a narrowed publication equals the whole-fleet one.

``DeploymentManager._publish`` re-routes only the services whose rate or
(gpu, start, capacity) sequence a delta changed, and every other service
keeps its shares.  On every event of a generated rate-epoch timeline the
published placement must equal, byte for byte, ``_to_placement`` +
``assign_rates`` over the manager's whole live fleet, and its cluster
must hold exactly what deploying that placement creates.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import SegmentAllocator
from repro.core.deployment import DeploymentManager
from repro.core.parvagpu import ParvaGPU
from repro.core.service import Service
from repro.gpu.cluster import Cluster
from repro.profiler import profile_workloads

PROFILES = profile_workloads()
MODELS = (
    "resnet-50", "mobilenetv2", "densenet-121", "inceptionv3", "vgg-16",
    "bert-large",
)

fleets = st.lists(
    st.tuples(
        st.sampled_from(MODELS),
        st.sampled_from([150.0, 250.0, 400.0, 800.0]),
        st.sampled_from([100.0, 500.0, 1500.0, 3000.0]),
    ),
    min_size=3,
    max_size=8,
)

#: (service pick, rate factor) per epoch
epochs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.sampled_from([0.3, 0.7, 0.95, 1.05, 1.6, 2.5]),
    ),
    min_size=1,
    max_size=12,
)


def _instances(cluster: Cluster) -> dict:
    return {g.gpu_id: g.instance_keys for g in cluster.gpus if g.instance_keys}


@given(fleets, epochs)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_publish_equals_whole_fleet_publication(cells, timeline):
    services = [
        Service(f"s{i}", model, slo_latency_ms=slo, request_rate=rate)
        for i, (model, slo, rate) in enumerate(cells)
    ]
    manager = DeploymentManager(PROFILES)
    manager.deploy(ParvaGPU(PROFILES).schedule(services))
    for pick, factor in timeline:
        svc = services[pick % len(services)]
        manager.update_slo(
            services, svc, new_rate=round(svc.request_rate * factor, 1)
        )
        live = manager.live_states()
        assert live is not None
        whole = SegmentAllocator._to_placement(live)
        whole.assign_rates({s.id: s.request_rate for s in services})
        assert manager.current.fingerprint() == whole.fingerprint()
        deployed = Cluster()
        deployed.execute(deployed.plan_reconfiguration(whole.to_instance_specs()))
        assert _instances(manager.cluster) == _instances(deployed)
