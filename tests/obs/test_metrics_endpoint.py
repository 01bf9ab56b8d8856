"""``GET /metrics``: Prometheus exposition over the status port."""

import asyncio

import pytest

from repro.core.service import Service
from repro.obs import PROMETHEUS_CONTENT_TYPE
from repro.ops import FleetController
from repro.ops.events import RateEpoch
from repro.serve import ServeGateway, StatusServer, VirtualClock, timeline_source


@pytest.fixture
def services():
    return [
        Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
        Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
    ]


async def fetch(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    headers = {}
    for line in head.decode().split("\r\n")[1:]:
        key, _, value = line.partition(": ")
        headers[key.lower()] = value
    return status, headers, body


def run_gateway(profiles, services):
    gateway = ServeGateway(
        FleetController(profiles), services, 100.0,
        VirtualClock(), measure_s=0.1,
    )
    events = [RateEpoch(time_s=30.0, service_id="a", rate=6000.0)]
    asyncio.run(gateway.run(timeline_source(events)))
    return gateway


class TestMetricsEndpoint:
    def test_scrape_is_prometheus_text(self, profiles, services):
        gateway = run_gateway(profiles, services)

        async def scenario():
            server = StatusServer(gateway)
            await server.start()
            try:
                return await fetch(server.port, "/metrics")
            finally:
                await server.stop()

        status, headers, body = asyncio.run(scenario())
        assert status == 200
        assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        # controller counters, attached gateway health and memo counts,
        # and the intake histogram must all be on the one scrape surface
        assert "# TYPE ops_intervals_total counter\n" in text
        assert "# TYPE gateway_steps counter\n" in text
        assert "# TYPE sim_memo_closed_form_total counter\n" in text
        assert "shard_" not in text
        assert 'ops_events_applied_total{kind="RateEpoch"} 1\n' in text

    def test_scrape_matches_health_doc(self, profiles, services):
        gateway = run_gateway(profiles, services)

        async def scenario():
            server = StatusServer(gateway)
            await server.start()
            try:
                return await fetch(server.port, "/metrics")
            finally:
                await server.stop()

        _, _, body = asyncio.run(scenario())
        lines = body.decode("utf-8").splitlines()
        steps = next(
            line for line in lines if line.startswith("gateway_steps ")
        )
        assert steps == f"gateway_steps {gateway.health.steps}"

    def test_post_to_metrics_is_405(self, profiles, services):
        gateway = run_gateway(profiles, services)

        async def scenario():
            server = StatusServer(gateway)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"POST /metrics HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 0\r\n\r\n"
                )
                await writer.drain()
                data = await reader.read()
                writer.close()
                return int(data.split()[1])
            finally:
                await server.stop()

        assert asyncio.run(scenario()) == 405
