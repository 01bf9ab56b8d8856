"""The controller's one measurement engine: an inline segment memo.

The contract under test: a fast-path controller keeps one segment memo
per run, the memo's work counters (hits, misses, and the misses the
closed form resolved) are exact and identical with observability on or
off, the default controller hits the memo, and every report stays
bit-identical to the memo-free reference replay.
"""

import pytest

from repro.core.service import Service
from repro.obs import ObsHub
from repro.ops import FleetController
from repro.ops.controller import assert_reports_identical
from repro.ops.events import GpuFailure, GpuRecovery, RateEpoch
from repro.scenarios.ops import bench_ops_run

HORIZON_S = 60.0
MEASURE_S = 0.2
SIM_SEED = 3

TIMELINE = (
    RateEpoch(time_s=10.0, service_id="a", rate=3000.0),
    GpuFailure(time_s=20.0, event_id="f0", draw=0.3),
    GpuRecovery(time_s=30.0, ref="f0"),
)


@pytest.fixture
def services():
    return [
        Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
        Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
        Service("c", "densenet-121", slo_latency_ms=200, request_rate=1500),
    ]


def measured_run(ctrl, services):
    return ctrl.run(
        services, TIMELINE, HORIZON_S, measure_s=MEASURE_S,
        sim_seed=SIM_SEED,
    )


def measure_spans(ctrl):
    return [sp for sp in ctrl.obs.tracer.spans if sp.name == "measure"]


def scraped(ctrl):
    """The ``sim_memo_*`` families of the controller's registry."""
    return {
        m.name: m.samples()
        for m in ctrl.obs.registry.collect()
        if m.name.startswith("sim_memo_")
    }


class TestWorkCounters:
    def test_counts_are_exact_and_worker_invariant(self, profiles, services):
        counts = set()
        for obs in (ObsHub(), ObsHub(enabled=False)):
            ctrl = FleetController(profiles, obs=obs)
            measured_run(ctrl, services)
            memo = ctrl.segment_memo
            counts.add(
                (memo.hits_total, memo.misses_total, memo.closed_form_total)
            )
            if obs.enabled:
                spans = measure_spans(ctrl)
                served = sum(sp.args["segments"] for sp in spans)
                assert memo.hits_total == sum(
                    sp.args["memo_hits"] for sp in spans
                )
                assert memo.closed_form_total == sum(
                    sp.args["closed_form"] for sp in spans
                )
                assert memo.hits_total + memo.misses_total == served
                # the bootstrap interval starts from an empty memo
                assert spans[0].args["memo_hits"] == 0
                assert memo.misses_total >= spans[0].args["segments"]
                assert scraped(ctrl) == {
                    "sim_memo_closed_form_total": [
                        ((), memo.closed_form_total)
                    ],
                    "sim_memo_hits_total": [((), memo.hits_total)],
                    "sim_memo_misses_total": [((), memo.misses_total)],
                }
            else:
                assert scraped(ctrl) == {}
        assert len(counts) == 1
        (hits, misses, closed), = counts
        assert hits > 0 and misses > 0
        assert 0 < closed <= misses


class TestDefaultController:
    def test_default_hits_memo_without_a_pool(self, services):
        ctrl = FleetController()
        report = measured_run(ctrl, services)
        assert len(report.intervals) >= 3
        hits = [sp.args["memo_hits"] for sp in measure_spans(ctrl)]
        assert len(hits) == len(report.intervals)
        assert hits[0] == 0
        assert all(h > 0 for h in hits[1:])

        profiles = ctrl.profiles
        reference = FleetController(profiles, fast_path=False)
        naive = measured_run(reference, services)
        assert_reports_identical(report, naive)
        assert reference.segment_memo is None
        assert scraped(reference) == {}
        assert all(sp.args["memo_hits"] == 0 for sp in measure_spans(reference))


class TestResumeRewarmsMemo:
    def test_kill_and_resume_at_workers_0(self, tmp_path):
        """The memo is not checkpointed: a resumed run starts cold,
        rewarms, and still equals the uninterrupted run."""
        run = bench_ops_run(60)

        def full_run(ctrl, **kwargs):
            return ctrl.run(
                run.services, run.timeline, run.horizon_s,
                measure_s=MEASURE_S, sim_seed=SIM_SEED, **kwargs,
            )

        reference = full_run(FleetController(seed=7))
        path = tmp_path / "ck.json"
        full_run(
            FleetController(seed=7), checkpoint_every=1,
            checkpoint_path=path, max_steps=3,
        )
        ctrl = FleetController(seed=7)
        resumed = full_run(ctrl, resume=path)
        assert_reports_identical(resumed, reference)
        assert resumed.to_doc() == reference.to_doc()
        hits = [sp.args["memo_hits"] for sp in measure_spans(ctrl)]
        assert hits[0] == 0  # the first resumed interval starts cold
        assert sum(hits[1:]) > 0
