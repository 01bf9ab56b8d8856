"""The flight recorder: ring bound, dump triggers.

Dumps must fire automatically on the two degradation signals the
control plane defines — a run-record failure and gateway safe-mode
entry — and the recorder itself must never turn a degradation into a
crash.
"""

import asyncio
import json

import pytest

from repro.core.service import Service
from repro.obs import FlightRecorder, ObsHub, Span
from repro.ops import CheckpointError, FleetController, RateEpoch
from repro.ops.checkpoint import seal, unseal
from repro.serve import ServeGateway, VirtualClock


class TestRing:
    def test_ring_is_bounded(self):
        fl = FlightRecorder(capacity=3)
        for i in range(10):
            fl.note("decision", step=i)
        assert len(fl) == 3
        assert [e["step"] for e in fl.entries()] == [7, 8, 9]

    def test_spans_enter_via_sink(self):
        fl = FlightRecorder()
        fl.add_span(Span(0, "interval", "interval", 1.0, 1.0, -1))
        (entry,) = fl.entries()
        assert entry["kind"] == "span"
        assert entry["name"] == "interval"

    def test_dumped_span_entry_is_rendered_span(self):
        fl = FlightRecorder()
        span = Span(3, "apply", "ops", 2.0, 2.5, 0, wall_s=0.0125,
                    args={"events": 2})
        fl.note("decision", t_s=2.0)
        fl.add_span(span)
        doc = fl.dump("safe-mode")
        assert doc["entries"][1] == {"kind": "span", **span.to_doc()}
        assert fl.entries() == doc["entries"]

    def test_dump_document_shape(self, tmp_path):
        fl = FlightRecorder()
        fl.note("decision", t_s=4.0, path="full")
        out = tmp_path / "flight.json"
        doc = fl.dump("safe-mode", out)
        assert doc["format"] == "parvagpu-flight"
        assert doc["reason"] == "safe-mode"
        assert doc["entries"] == [
            {"kind": "decision", "t_s": 4.0, "path": "full"}
        ]
        assert fl.last_dump_path == str(out)
        assert json.loads(out.read_text()) == doc

    def test_dump_write_failure_is_swallowed(self, tmp_path):
        fl = FlightRecorder()
        fl.note("decision")
        doc = fl.dump("x", tmp_path / "missing" / "flight.json")
        assert doc is not None  # the in-memory dump still happened
        assert fl.last_dump_path is None

    def test_disabled_recorder_is_inert(self):
        fl = FlightRecorder(enabled=False)
        fl.note("decision")
        assert len(fl) == 0
        assert fl.dump("x") is None

    def test_hub_dump_counts_by_reason(self):
        hub = ObsHub()
        hub.note("decision")
        hub.dump_flight("safe-mode")
        hub.dump_flight("safe-mode")
        c = hub.counter(
            "obs_flight_dumps_total", labelnames=("reason",)
        )
        assert c.value(reason="safe-mode") == 2.0


@pytest.fixture
def services():
    return [
        Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
        Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
    ]


async def _dying_source():
    raise ConnectionError("stream gone")
    yield  # pragma: no cover — makes this an async generator


class TestSafeModeDump:
    def test_gateway_safe_mode_dumps_flight(self, services):
        gateway = ServeGateway(
            FleetController(), services, 100.0, VirtualClock()
        )
        asyncio.run(gateway.run(_dying_source()))
        assert gateway.health.safe_mode
        assert gateway.obs.flight.dumps == 1
        dump = gateway.obs.flight.last_dump
        assert dump["reason"] == "safe-mode"
        kinds = {e["kind"] for e in dump["entries"]}
        assert "safe-mode" in kinds


class TestCheckpointErrorDump:
    def test_unwritable_checkpoint_dumps_flight(self, services, tmp_path):
        ctrl = FleetController()
        bad = tmp_path / "no-such-dir" / "ops.ckpt"
        with pytest.raises((CheckpointError, OSError)):
            ctrl.run(
                services, [], 50.0,
                checkpoint_path=bad, checkpoint_every=1,
            )
        assert ctrl.obs.flight.dumps >= 1
        assert ctrl.obs.flight.last_dump["reason"] == "checkpoint-error"

    def test_replay_divergence_dumps_flight(self, services, tmp_path):
        """A recorded fingerprint the replay does not reach is refused,
        naming the instant, with the flight recorder dumped first."""
        timeline = [RateEpoch(time_s=10.0, service_id="a", rate=3000.0)]
        path = tmp_path / "run.jsonl"
        FleetController().run(services, timeline, 50.0, checkpoint_path=path)
        lines = path.read_text().splitlines()
        doc = unseal(lines[2])
        doc["fingerprint"] = "0" * 64
        lines[2] = seal(doc)
        path.write_text("\n".join(lines) + "\n")
        ctrl = FleetController()
        with pytest.raises(CheckpointError, match=r"t=10\.0"):
            ctrl.run(services, timeline, 50.0, resume=path)
        assert ctrl.obs.flight.last_dump["reason"] == "checkpoint-error"
