"""The gateway's degradation ladder under injected transport faults.

Rung by rung: a malformed line is skipped and counted; a transient
source stall is retried with the already-delivered prefix deduplicated;
an exhausted retry budget ends the session in *safe mode* — counted,
stamped with the terminal error, journal closed over the received
prefix — and in every recovered case the session's report is
bit-identical to a clean run over the same events, because resilience
that changes results is just corruption with better manners.
"""

import asyncio

import pytest

from repro.core.service import Service
from repro.ops import FleetController
from repro.ops.controller import assert_reports_identical
from repro.ops.events import RateEpoch, merge_timeline
from resilience.faults import stalling_source_factory, truncate_journal
from repro.serve import (
    Journal,
    ServeGateway,
    VirtualClock,
    encode_event,
    jsonl_source,
    read_journal,
    replay_journal,
    resilient_source,
    timeline_source,
)

HORIZON_S = 100.0
MEASURE_S = 0.1


@pytest.fixture
def services():
    return [
        Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
        Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
    ]


def timeline():
    return merge_timeline(
        [
            RateEpoch(time_s=10.0 * k, service_id="a", rate=2000.0 + 500 * k)
            for k in range(1, 5)
        ],
        [
            RateEpoch(time_s=10.0 * k + 5, service_id="b", rate=4000.0 - 300 * k)
            for k in range(1, 5)
        ],
    )


def make_gateway(profiles, services, **kwargs):
    return ServeGateway(
        FleetController(profiles), services, HORIZON_S, VirtualClock(),
        measure_s=MEASURE_S, **kwargs,
    )


def run_session(gateway, source):
    asyncio.run(gateway.run(source))
    return gateway.report


@pytest.fixture
def reference(profiles, services):
    return run_session(
        make_gateway(profiles, services), timeline_source(timeline())
    )


class TestMalformedLines:
    def test_skipped_counted_and_identical(
        self, profiles, services, reference
    ):
        lines = [encode_event(e) for e in timeline()]
        lines.insert(2, "}{ definitely not an event")
        lines.append('{"kind": "Nope", "time_s": 1.0}')
        gateway = make_gateway(profiles, services)
        report = run_session(
            gateway,
            jsonl_source(lines, on_malformed=gateway.count_malformed),
        )
        assert gateway.health.malformed_lines == 2
        assert not gateway.health.safe_mode
        assert_reports_identical(report, reference)

    def test_without_handler_the_line_is_fatal(self):
        async def drain():
            return [e async for e in jsonl_source(["not json"])]

        with pytest.raises(ValueError):
            asyncio.run(drain())


class TestSourceStalls:
    def test_transient_stalls_recovered_identically(
        self, profiles, services, reference
    ):
        gateway = make_gateway(profiles, services)
        source = resilient_source(
            stalling_source_factory(timeline(), fail_after=3, failures=2),
            backoff_s=0.0,
            on_retry=gateway.count_retry,
        )
        report = run_session(gateway, source)
        assert gateway.health.source_retries == 2
        assert gateway.health.source_failures == 0
        assert not gateway.health.safe_mode
        assert_reports_identical(report, reference)

    def test_exhausted_budget_enters_safe_mode(
        self, profiles, services, tmp_path
    ):
        gateway = make_gateway(profiles, services, journal=Journal(tmp_path))
        source = resilient_source(
            stalling_source_factory(timeline(), fail_after=3, failures=99),
            max_retries=2,
            backoff_s=0.0,
            on_retry=gateway.count_retry,
        )
        report = run_session(gateway, source)  # degrades, does not raise
        assert gateway.health.safe_mode
        assert gateway.health.source_failures == 1
        assert gateway.health.source_retries == 2
        doc = gateway.health_doc()
        assert "ConnectionError" in doc["source_error"]
        # the session still closed cleanly over what it did receive...
        assert report.intervals
        # ...and its journal is closed over exactly the received prefix
        assert gateway.journal.closed
        assert read_journal(tmp_path).events == list(timeline())[:3]


class TestJournalReplay:
    def test_journaled_session_replays_identically(
        self, profiles, services, reference, tmp_path
    ):
        gateway = make_gateway(
            profiles, services, journal=Journal(tmp_path)
        )
        live = run_session(gateway, timeline_source(timeline()))
        assert_reports_identical(live, reference)
        assert read_journal(tmp_path).events == list(timeline())
        replayed, recovery = replay_journal(
            tmp_path, services, HORIZON_S,
            measure_s=MEASURE_S, profiles=profiles,
        )
        assert recovery.events == list(timeline())
        assert not recovery.truncated_tail
        assert_reports_identical(replayed, reference)

    def test_torn_journal_replays_the_surviving_prefix(
        self, profiles, services, tmp_path
    ):
        gateway = make_gateway(
            profiles, services, journal=Journal(tmp_path)
        )
        run_session(gateway, timeline_source(timeline()))
        truncate_journal(tmp_path, 7)  # tear the final append

        replayed, recovery = replay_journal(
            tmp_path, services, HORIZON_S,
            measure_s=MEASURE_S, profiles=profiles,
        )
        assert recovery.truncated_tail
        assert recovery.events == list(timeline())[:-1]
        prefix_reference = run_session(
            make_gateway(profiles, services),
            timeline_source(timeline()[:-1]),
        )
        assert_reports_identical(replayed, prefix_reference)
