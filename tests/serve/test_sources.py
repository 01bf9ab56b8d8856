"""The wire codec and event sources: exact round-trips, stable lines."""

import asyncio
import json

import pytest

from repro.ops.events import (
    GpuFailure,
    GpuRecovery,
    RateEpoch,
    ServiceArrival,
    ServiceDeparture,
    SloChange,
    SpotPreemptionWave,
)
from repro.serve import (
    EVENT_TYPES,
    decode_event,
    encode_event,
    event_from_doc,
    event_to_doc,
    jsonl_source,
    stream_source,
    timeline_source,
)

#: one representative of every wire-format event type
SAMPLES = [
    ServiceDeparture(time_s=10.0, service_id="svc1"),
    ServiceArrival(time_s=20.0, service_id="svc2", model="resnet-50",
                   request_rate=1200.0, slo_latency_ms=250.0),
    SloChange(time_s=30.0, service_id="svc1", slo_latency_ms=180.0),
    RateEpoch(time_s=40.0, service_id="svc2", rate=4500.0),
    GpuRecovery(time_s=50.0, ref="f0"),
    GpuRecovery(time_s=51.0, gpu_id=3),
    GpuFailure(time_s=60.0, event_id="f1", draw=0.25),
    SpotPreemptionWave(time_s=70.0, event_id="w0", fraction=0.1,
                       draw=0.5, restore_delay_s=600.0),
]


#: lines the decoder must refuse: wrong-typed fields (a bool is not a
#: number), a missing time, and NaN values, which Python's json accepts
BAD = {
    "str-rate": '{"kind":"RateEpoch","time_s":1,"service_id":"a","rate":"5"}',
    "str-time": '{"kind":"RateEpoch","time_s":"1","service_id":"a","rate":5}',
    "no-time": '{"kind":"RateEpoch","service_id":"a","rate":5}',
    "bool-gpu": '{"kind":"GpuRecovery","time_s":1,"gpu_id":true}',
    "float-gpu": '{"kind":"GpuRecovery","time_s":1,"gpu_id":1.5}',
    "int-service": '{"kind":"ServiceDeparture","time_s":1,"service_id":7}',
    "nan-time": '{"kind":"GpuRecovery","time_s":NaN,"gpu_id":1}',
    "nan-rate": '{"kind":"RateEpoch","time_s":1,"service_id":"a","rate":NaN}',
    "nan-slo": '{"kind":"SloChange","time_s":1,"service_id":"a",'
               '"slo_latency_ms":NaN}',
    "nan-arrival": '{"kind":"ServiceArrival","time_s":1,"service_id":"n",'
                   '"model":"m","request_rate":NaN,"slo_latency_ms":100}',
    "nan-delay": '{"kind":"SpotPreemptionWave","time_s":1,"event_id":"w",'
                 '"fraction":0.5,"restore_delay_s":NaN}',
}
BAD_LINES = list(BAD.values())


def collect(source):
    async def drain():
        return [e async for e in source]

    return asyncio.run(drain())


class TestCodec:
    def test_vocabulary_is_complete(self):
        assert set(EVENT_TYPES) == {
            "ServiceDeparture", "ServiceArrival", "SloChange", "RateEpoch",
            "GpuRecovery", "GpuFailure", "SpotPreemptionWave",
        }

    @pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
    def test_doc_round_trip(self, event):
        assert event_from_doc(event_to_doc(event)) == event

    @pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
    def test_line_round_trip(self, event):
        assert decode_event(encode_event(event)) == event

    def test_lines_are_canonical(self):
        """Sorted keys: a recorded session is diffable and byte-stable."""
        line = encode_event(SAMPLES[0])
        keys = list(json.loads(line))
        assert keys == sorted(keys)
        assert encode_event(SAMPLES[0]) == line  # deterministic

    def test_kind_discriminator_matches_class_name(self):
        doc = event_to_doc(RateEpoch(time_s=1.0, service_id="a", rate=2.0))
        assert doc["kind"] == "RateEpoch"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_doc({"kind": "Nope", "time_s": 1.0})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_doc({"time_s": 1.0})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            event_from_doc(
                {"kind": "RateEpoch", "time_s": 1.0, "service_id": "a",
                 "rate": 2.0, "bogus": True}
            )

    def test_non_object_line_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            decode_event("[1, 2, 3]")

    def test_invalid_field_values_still_validate(self):
        """The dataclass __post_init__ contracts hold on decode too."""
        with pytest.raises(ValueError):
            decode_event(json.dumps(
                {"kind": "GpuFailure", "time_s": 1.0, "event_id": "f",
                 "draw": 2.0}  # draw must be in [0, 1)
            ))


    @pytest.mark.parametrize("line", BAD_LINES, ids=list(BAD))
    def test_wrong_typed_and_nan_fields_rejected(self, line):
        with pytest.raises(ValueError):
            decode_event(line)

    def test_integral_numbers_still_decode(self):
        """An int is a valid float field: ``time_s: 1`` stays accepted."""
        event = decode_event(
            '{"kind":"RateEpoch","time_s":1,"service_id":"a","rate":5}'
        )
        assert event == RateEpoch(time_s=1, service_id="a", rate=5)


class TestSources:
    def test_timeline_source_preserves_order(self):
        assert collect(timeline_source(SAMPLES)) == SAMPLES

    def test_jsonl_source_decodes_and_skips_blanks(self):
        lines = [encode_event(e) for e in SAMPLES]
        lines.insert(2, "")
        lines.insert(5, "   ")
        assert collect(jsonl_source(lines)) == SAMPLES

    def test_degraded_intake_counts_bad_lines(self):
        """With ``on_malformed`` set, every wrong-typed or NaN line is
        counted and skipped, and the next good line still arrives."""
        lines = []
        for e, bad in zip(SAMPLES, BAD_LINES):
            lines += [bad, encode_event(e)]
        skipped = []
        assert collect(
            jsonl_source(lines, on_malformed=skipped.append)
        ) == SAMPLES[:len(BAD_LINES)]
        assert skipped == BAD_LINES[:len(SAMPLES)]

        async def scenario():
            reader = asyncio.StreamReader()
            for line in lines:
                reader.feed_data((line + "\n").encode())
            reader.feed_eof()
            return [
                e async for e in stream_source(
                    reader, on_malformed=skipped.append
                )
            ]

        skipped.clear()
        assert asyncio.run(scenario()) == SAMPLES[:len(BAD_LINES)]
        assert skipped == BAD_LINES[:len(SAMPLES)]

    def test_stream_source_reads_until_eof(self):
        async def scenario():
            reader = asyncio.StreamReader()
            for e in SAMPLES:
                reader.feed_data((encode_event(e) + "\n").encode())
            reader.feed_data(b"\n")  # blank line is skipped
            reader.feed_eof()
            return [e async for e in stream_source(reader)]

        assert asyncio.run(scenario()) == SAMPLES
