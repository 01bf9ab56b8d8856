"""Scripted drivers (journaled + replayed) and the HTTP status surface."""

import asyncio
import json

import pytest

from repro.core.service import Service
from repro.ops import FleetController
from repro.ops.events import RateEpoch, ServiceArrival, merge_timeline
from repro.serve import (
    Journal,
    ScriptedDriver,
    ServeGateway,
    StatusServer,
    VirtualClock,
    encode_event,
    read_journal,
    replay_identity_checked,
    timeline_source,
)


@pytest.fixture
def services():
    return [
        Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
        Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
    ]


def timeline():
    return merge_timeline(
        [RateEpoch(time_s=30.0, service_id="a", rate=6000.0)],
        [ServiceArrival(time_s=50.0, service_id="n", model="vgg-16",
                        request_rate=400.0, slo_latency_ms=350.0)],
        [RateEpoch(time_s=10.0, service_id="b", rate=1000.0)],
    )


def drain(source):
    async def go():
        return [e async for e in source]

    return asyncio.run(go())


class TestScriptedDriver:
    def test_events_sorted_on_construction(self):
        driver = ScriptedDriver(reversed(timeline()))
        assert [e.time_s for e in driver.events] == [10.0, 30.0, 50.0]

    def test_scripted_source_paces_by_clock(self):
        clock = VirtualClock()
        emitted = drain(ScriptedDriver(timeline()).source(clock))
        assert [e.time_s for e in emitted] == [10.0, 30.0, 50.0]
        assert clock.now() == 50.0  # slept up to the last stamp

    def test_driver_records_what_it_sent(self):
        driver = ScriptedDriver(timeline())
        clock = VirtualClock()
        emitted = drain(driver.source(clock))
        assert driver.sent == emitted == list(driver.events)

    def test_recorded_jsonl_round_trips(self, profiles, services, tmp_path):
        """The session's journal is its wire-format recording: it
        decodes back to exactly what the driver sent."""
        driver = ScriptedDriver(timeline())
        gateway = ServeGateway(
            FleetController(profiles), services, 100.0, VirtualClock(),
            journal=Journal(tmp_path),
        )
        asyncio.run(gateway.run(driver.source(gateway.clock)))
        assert read_journal(tmp_path).events == driver.sent

    def test_recorded_session_replays_identically(
        self, profiles, services, tmp_path
    ):
        """The full loop: drive a journaled session, and verify the
        journal against the offline controller."""
        driver = ScriptedDriver(timeline())
        gateway = ServeGateway(
            FleetController(profiles), services, 100.0, VirtualClock(),
            measure_s=0.1, journal=Journal(tmp_path),
        )
        asyncio.run(gateway.run(driver.source(gateway.clock)))
        replay_identity_checked(
            services, read_journal(tmp_path).events, 100.0,
            measure_s=0.1, profiles=profiles,
        )


async def fetch(port, path, method="GET"):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, body


class TestStatusServer:
    def run_gateway(self, profiles, services):
        gateway = ServeGateway(
            FleetController(profiles), services, 100.0, VirtualClock(),
            measure_s=0.1,
        )
        asyncio.run(gateway.run(timeline_source(timeline())))
        return gateway

    def test_report_and_health_endpoints(self, profiles, services):
        gateway = self.run_gateway(profiles, services)

        async def scenario():
            server = StatusServer(gateway)
            await server.start()
            try:
                root = await fetch(server.port, "/")
                report = await fetch(server.port, "/report")
                health = await fetch(server.port, "/health")
                missing = await fetch(server.port, "/nope")
                bad_method = await fetch(server.port, "/report", "POST")
            finally:
                await server.stop()
            return root, report, health, missing, bad_method

        root, report, health, missing, bad_method = asyncio.run(scenario())
        assert root[0] == report[0] == health[0] == 200
        snap = json.loads(report[1])
        assert snap == gateway.snapshot()
        assert snap["report"]["intervals"]
        doc = json.loads(health[1])
        assert doc["steps"] == gateway.health.steps
        assert missing[0] == 404
        assert bad_method[0] == 405

    def test_port_allocated_and_double_start_rejected(
        self, profiles, services
    ):
        gateway = self.run_gateway(profiles, services)

        async def scenario():
            server = StatusServer(gateway)
            await server.start()
            try:
                assert server.port > 0
                with pytest.raises(RuntimeError):
                    await server.start()
            finally:
                await server.stop()

        asyncio.run(scenario())


async def post(port, path, body, content_length=None):
    payload = body.encode()
    length = len(payload) if content_length is None else content_length
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {length}\r\n\r\n".encode()
    )
    writer.write(payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestPostEvents:
    """``POST /events``: live event submission over the status port."""

    def live_session(self, profiles, services, **gateway_kwargs):
        """A gateway mid-run: the source holds the intake open until
        released, so requests hit a *live* control loop."""
        gateway = ServeGateway(
            FleetController(profiles), services, 100.0, VirtualClock(),
            measure_s=0.1, **gateway_kwargs,
        )
        gate = asyncio.Event()

        async def source():
            for event in timeline():
                yield event
            await gate.wait()

        return gateway, source, gate

    def test_posted_events_enter_the_session(self, profiles, services):
        async def scenario():
            gateway, source, gate = self.live_session(profiles, services)
            server = StatusServer(gateway)
            await server.start()
            run = asyncio.create_task(gateway.run(source()))
            try:
                lines = "\n".join([
                    encode_event(
                        RateEpoch(time_s=60.0, service_id="a", rate=3000.0)
                    ),
                    encode_event(  # beyond the 100 s horizon: dropped
                        RateEpoch(time_s=500.0, service_id="a", rate=1.0)
                    ),
                ])
                status, doc = await post(server.port, "/events", lines)
            finally:
                gate.set()
                await run
                await server.stop()
            return status, doc, gateway

        status, doc, gateway = asyncio.run(scenario())
        assert status == 202
        assert doc == {"accepted": 1, "dropped": 1}
        assert gateway.health.injected_events == 1
        assert gateway.health.dropped_beyond_horizon == 1
        applied = {
            kind
            for r in gateway.report.intervals
            for kind in r.events
        }
        assert "RateEpoch" in applied

    def test_malformed_line_rejects_whole_batch(self, profiles, services):
        async def scenario():
            gateway, source, gate = self.live_session(profiles, services)
            server = StatusServer(gateway)
            await server.start()
            run = asyncio.create_task(gateway.run(source()))
            try:
                good = encode_event(
                    RateEpoch(time_s=60.0, service_id="a", rate=3000.0)
                )
                status, doc = await post(
                    server.port, "/events", good + "\nnot json\n"
                )
            finally:
                gate.set()
                await run
                await server.stop()
            return status, doc, gateway

        status, doc, gateway = asyncio.run(scenario())
        assert status == 400
        assert "line 1" in doc["error"]
        assert gateway.health.injected_events == 0  # all-or-nothing
        assert gateway.health.rejected_events == 1

    @pytest.mark.parametrize("bad", [
        '{"kind":"RateEpoch","time_s":61,"service_id":"a","rate":"5"}',
        '{"kind":"GpuRecovery","time_s":NaN,"gpu_id":1}',
    ], ids=["wrong-type", "nan-time"])
    def test_wrong_typed_or_nan_line_rejects_whole_batch(
        self, profiles, services, bad
    ):
        async def scenario():
            gateway, source, gate = self.live_session(profiles, services)
            server = StatusServer(gateway)
            await server.start()
            run = asyncio.create_task(gateway.run(source()))
            try:
                good = encode_event(
                    RateEpoch(time_s=60.0, service_id="a", rate=3000.0)
                )
                status, doc = await post(
                    server.port, "/events", good + "\n" + bad + "\n"
                )
            finally:
                gate.set()
                # bounded: an admitted NaN time used to wedge the session
                await asyncio.wait_for(run, timeout=30.0)
                await server.stop()
            return status, doc, gateway

        status, doc, gateway = asyncio.run(scenario())
        assert status == 400
        assert "line 1" in doc["error"]
        assert gateway.health.injected_events == 0  # all-or-nothing
        assert gateway.health.rejected_events == 1

    def test_empty_body_rejected(self, profiles, services):
        async def scenario():
            gateway, source, gate = self.live_session(profiles, services)
            server = StatusServer(gateway)
            await server.start()
            run = asyncio.create_task(gateway.run(source()))
            try:
                return await post(server.port, "/events", "")
            finally:
                gate.set()
                await run
                await server.stop()

        status, doc = asyncio.run(scenario())
        assert status == 400
        assert "empty" in doc["error"]

    def test_closed_intake_conflicts(self, profiles, services, tmp_path):
        gateway = ServeGateway(
            FleetController(profiles), services, 100.0, VirtualClock(),
            measure_s=0.1, journal=Journal(tmp_path),
        )
        asyncio.run(gateway.run(timeline_source(timeline())))

        async def scenario():
            server = StatusServer(gateway)
            await server.start()
            try:
                line = encode_event(
                    RateEpoch(time_s=60.0, service_id="a", rate=1.0)
                )
                return await post(server.port, "/events", line)
            finally:
                await server.stop()

        status, doc = asyncio.run(scenario())
        assert status == 409
        assert gateway.health.rejected_events == 1
        # a refused event is never journaled: the journal stays the
        # record of what the session acted on
        assert gateway.journal.stats.appends == len(timeline())
        assert read_journal(tmp_path).events == list(timeline())

    def test_get_on_events_is_405(self, profiles, services):
        gateway = ServeGateway(
            FleetController(profiles), services, 100.0, VirtualClock(),
            measure_s=0.1,
        )
        asyncio.run(gateway.run(timeline_source(timeline())))

        async def scenario():
            server = StatusServer(gateway)
            await server.start()
            try:
                return await fetch(server.port, "/events")
            finally:
                await server.stop()

        status, _ = asyncio.run(scenario())
        assert status == 405

    def test_posted_events_are_journaled(
        self, profiles, services, tmp_path
    ):
        from repro.serve import Journal, read_journal

        async def scenario():
            gateway, source, gate = self.live_session(
                profiles, services, journal=Journal(tmp_path)
            )
            server = StatusServer(gateway)
            await server.start()
            run = asyncio.create_task(gateway.run(source()))
            try:
                event = RateEpoch(time_s=60.0, service_id="a", rate=3000.0)
                await post(server.port, "/events", encode_event(event))
            finally:
                gate.set()
                await run
                await server.stop()
            return event

        event = asyncio.run(scenario())
        assert event in read_journal(tmp_path).events
