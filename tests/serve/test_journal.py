"""The gateway write-ahead journal: durability without identity drift.

Every admitted event is journaled *before* it is pushed to intake, so
whatever survives a crash is a strict prefix of what the gateway acted
on — and replaying that prefix through the offline control plane is
bit-identical to the interrupted live session over the same events.
These tests pin the segment format, rotation and fsync accounting, and
the two corruption modes recovery distinguishes: a torn final line
(normal crash artifact, silently dropped) versus interior damage
(counted in ``skipped_lines``, never fatal).
"""

from repro.ops.events import RateEpoch, ServiceDeparture, SloChange
from resilience.faults import corrupt_journal, truncate_journal
from repro.serve import (
    Journal,
    decode_event,
    encode_event,
    journal_segments,
    read_journal,
)
from repro.serve import journal as journal_mod
from repro.serve.journal import segment_name


def make_events(n):
    return [
        RateEpoch(time_s=float(i), service_id=f"svc{i % 7}", rate=100.0 + i)
        for i in range(n)
    ]


def write_all(dir_path, events):
    with Journal(dir_path) as journal:
        for event in events:
            journal.append(event)
        return journal.stats


class TestAppend:
    def test_round_trip(self, tmp_path):
        events = make_events(25)
        stats = write_all(tmp_path, events)
        assert stats.appends == 25
        recovery = read_journal(tmp_path)
        assert recovery.events == events
        assert recovery.lines == 25
        assert recovery.segments == 1
        assert recovery.skipped_lines == 0
        assert not recovery.truncated_tail

    def test_mixed_event_types_round_trip(self, tmp_path):
        events = [
            ServiceDeparture(time_s=1.0, service_id="a"),
            SloChange(time_s=2.0, service_id="b", slo_latency_ms=99.0),
            RateEpoch(time_s=3.0, service_id="a", rate=42.0),
        ]
        write_all(tmp_path, events)
        assert read_journal(tmp_path).events == events

    def test_lines_are_the_wire_format(self, tmp_path):
        """One encode_event() line per append — greppable, diffable."""
        events = make_events(3)
        write_all(tmp_path, events)
        (segment,) = journal_segments(tmp_path)
        lines = segment.read_text().splitlines()
        assert lines == [encode_event(e) for e in events]
        assert [decode_event(line) for line in lines] == events

    def test_empty_journal_recovers_empty(self, tmp_path):
        write_all(tmp_path, [])
        assert read_journal(tmp_path).events == []


class TestRotation:
    def test_rotation_splits_segments(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_mod, "ROTATE_EVERY", 10)
        stats = write_all(tmp_path, make_events(25))
        assert stats.rotations == 2
        assert stats.segments == 3
        names = [p.name for p in journal_segments(tmp_path)]
        assert names == [segment_name(0), segment_name(1), segment_name(2)]
        recovery = read_journal(tmp_path)
        assert recovery.events == make_events(25)
        assert recovery.segments == 3

    def test_reopen_continues_numbering(self, tmp_path, monkeypatch):
        """A restarted gateway must never overwrite a prior segment."""
        monkeypatch.setattr(journal_mod, "ROTATE_EVERY", 3)
        write_all(tmp_path, make_events(5))
        write_all(tmp_path, make_events(5))
        names = [p.name for p in journal_segments(tmp_path)]
        assert names[0] == segment_name(0)
        assert names == sorted(set(names))  # no collisions
        assert read_journal(tmp_path).events == make_events(5) + make_events(5)


class TestFsync:
    def test_interval_syncs_batched(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_mod, "FSYNC_EVERY", 4)
        stats = write_all(tmp_path, make_events(10))
        # syncs at appends 4 and 8, plus the close() flush
        assert stats.fsyncs == 3

    def test_rotation_and_close_sync(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_mod, "ROTATE_EVERY", 3)
        stats = write_all(tmp_path, make_events(7))
        # two rotations (after appends 3 and 6) plus the close() flush
        assert stats.rotations == 2
        assert stats.fsyncs == 3


class TestRecovery:
    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        events = make_events(8)
        write_all(tmp_path, events)
        truncate_journal(tmp_path, 7)
        recovery = read_journal(tmp_path)
        assert recovery.truncated_tail
        assert recovery.events == events[:-1]
        assert recovery.skipped_lines == 0

    def test_interior_corruption_is_counted(self, tmp_path):
        events = make_events(8)
        write_all(tmp_path, events)
        corrupt_journal(tmp_path, seed=1)
        recovery = read_journal(tmp_path)
        assert recovery.skipped_lines + int(recovery.truncated_tail) >= 1
        assert len(recovery.events) < len(events)
        # every event that did survive is one that was written
        assert all(e in events for e in recovery.events)

    def test_missing_directory_recovers_empty(self, tmp_path):
        """No journal yet (first boot) is not an error — just nothing."""
        recovery = read_journal(tmp_path / "never-created")
        assert recovery.events == []
        assert recovery.segments == 0
        assert not recovery.truncated_tail
