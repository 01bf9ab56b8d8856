"""Unit tests for the MIG-serving (fast algorithm) baseline."""

import statistics

import pytest

from repro.baselines.base import InfeasibleScheduleError
from repro.baselines.mig_serving import MigServing
from repro.core.parvagpu import ParvaGPU
from repro.core.service import Service
from repro.scenarios import scenario_services


@pytest.fixture(scope="module")
def migserving(profiles):
    return MigServing(profiles)


class TestStructure:
    def test_placements_are_legal_mig(self, migserving):
        placement = migserving.schedule(scenario_services("S2"))
        placement.validate()

    def test_no_mps(self, migserving, make_service):
        placement = migserving.schedule([make_service(rate=2000.0)])
        assert all(
            s.num_processes == 1 for _, s in placement.iter_segments()
        )

    def test_capacity_covers_demand(self, migserving, make_service):
        svc = make_service(rate=3000.0)
        placement = migserving.schedule([svc])
        # DERATE means provisioned capacity exceeds demand comfortably.
        assert placement.total_capacity(svc.id) >= 3000.0

    def test_infeasible_service_raises(self, migserving):
        svc = Service("t", "bert-large", slo_latency_ms=3.0, request_rate=10)
        with pytest.raises(InfeasibleScheduleError):
            migserving.schedule([svc])


class TestPaperBehaviours:
    def test_overallocates_at_low_rates(self, migserving, profiles):
        """S1/S2: MIG-serving uses at least as many GPUs as ParvaGPU and
        provisions far more capacity than demanded."""
        services = scenario_services("S1")
        placement = migserving.schedule(services)
        parva = ParvaGPU(profiles).schedule(scenario_services("S1"))
        assert placement.num_gpus >= parva.num_gpus
        demand = sum(s.request_rate for s in services)
        capacity = sum(seg.capacity for _, seg in placement.iter_segments())
        assert capacity > 1.5 * demand  # heuristic over-allocation

    def test_low_external_fragmentation(self, migserving):
        """The BETA scoring keeps chosen configurations filled."""
        from repro.metrics import external_fragmentation

        placement = migserving.schedule(scenario_services("S2"))
        assert external_fragmentation(placement) < 0.05

    def test_slower_than_parvagpu(self, migserving, profiles):
        """MIG-serving takes more than 3x ParvaGPU's scheduling delay on
        S3.  The delays are wall clock, so each side is the median of
        five calls, taken in alternation: one call slowed by a loaded
        box cannot decide the comparison."""
        parvagpu = ParvaGPU(profiles)
        delays: dict = {migserving: [], parvagpu: []}
        for _ in range(5):
            for scheduler, got in delays.items():
                placement = scheduler.schedule(scenario_services("S3"))
                got.append(placement.scheduling_delay_ms)
        assert statistics.median(delays[migserving]) > 3 * statistics.median(
            delays[parvagpu]
        )

    def test_handles_high_rates(self, migserving):
        placement = migserving.schedule(scenario_services("S6"))
        assert placement.num_gpus > 5
