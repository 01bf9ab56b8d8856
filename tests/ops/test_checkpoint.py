"""The run record: bit-identical resume by replay, hostile files.

The contract under test: a run killed at *any* interval boundary and
resumed from its run record produces the same per-interval fingerprints
and the same final ``OpsReport.to_doc()`` as the run that was never
interrupted — and a damaged or mismatched record is refused loudly
(:class:`~repro.ops.checkpoint.CheckpointError`), never half-replayed.
"""

import hashlib
import json

import pytest

from repro.ops import CheckpointError, FleetController, read_record
from repro.ops.checkpoint import interval_doc, seal, unseal
from repro.ops.controller import assert_reports_identical
from repro.scenarios.ops import bench_ops_run
from resilience.faults import truncate_tail

SEED = 7
SIM_SEED = 3
MEASURE_S = 0.2


@pytest.fixture(scope="module")
def workload():
    return bench_ops_run(60)


def controller():
    return FleetController(seed=SEED)


def full_run(run, **kwargs):
    return controller().run(
        run.services, run.timeline, run.horizon_s,
        measure_s=MEASURE_S, sim_seed=SIM_SEED, **kwargs,
    )


@pytest.fixture(scope="module")
def reference(workload):
    return full_run(workload)


def recorded(path, workload, steps):
    full_run(
        workload, checkpoint_every=1, checkpoint_path=path, max_steps=steps,
    )
    return path


class TestFileFormat:
    def test_write_read_round_trip(self, tmp_path, workload, reference):
        record = read_record(recorded(tmp_path / "run.jsonl", workload, 4))
        assert not record.torn
        assert record.header["format"] == "parvagpu-run-record"
        assert record.intervals == [
            interval_doc(r) for r in reference.intervals[:4]
        ]

    def test_bit_flip_is_caught(self, tmp_path, workload):
        """A single-bit flip anywhere in any line is refused, whichever
        line it hits: the last one keeps its newline, so it is not torn."""
        path = recorded(tmp_path / "run.jsonl", workload, 3)
        pristine = path.read_bytes()
        start = 0
        for line in pristine.splitlines(keepends=True):
            content = len(line) - 1  # the newline is not the line's
            for k in range(8):
                data = bytearray(pristine)
                data[start + k * content // 8] ^= 1 << k
                path.write_bytes(bytes(data))
                with pytest.raises(CheckpointError, match="checksum"):
                    read_record(path)
            start += len(line)

    def test_truncation_is_caught(self, tmp_path, workload):
        """A torn final line is dropped, and so is a whole one that lost
        only its newline: appending continues after the last newline."""
        path = recorded(tmp_path / "run.jsonl", workload, 3)
        pristine = path.read_bytes()
        kept = pristine[:-1].rfind(b"\n") + 1
        for nbytes in (16, 1):
            path.write_bytes(pristine)
            truncate_tail(path, nbytes)
            record = read_record(path)
            assert record.torn
            assert len(record.intervals) == 2
            assert record.size == kept

    def test_unknown_version_is_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(seal({
            "format": "parvagpu-run-record", "version": 999,
        }) + "\n")
        with pytest.raises(CheckpointError, match="version"):
            read_record(path)

    def test_foreign_file_is_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"hello": "world"}) + "\n")
        with pytest.raises(CheckpointError):
            read_record(path)

    def test_snapshot_checkpoint_is_refused(self, tmp_path, workload):
        """A whole-state snapshot of the older checkpoint format (one
        checksummed JSON document) is not a run record."""
        state = {"kind": "fleet-controller", "cursor": 0, "run": {}}
        payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "format": "parvagpu-checkpoint", "version": 1,
            "sha256": hashlib.sha256(payload.encode()).hexdigest(),
            "state": state,
        }) + "\n")
        with pytest.raises(CheckpointError):
            controller().run(
                workload.services, workload.timeline, workload.horizon_s,
                measure_s=MEASURE_S, sim_seed=SIM_SEED, resume=path,
            )


class TestKillResume:
    @pytest.mark.parametrize("kill_at", [1, 2, 17])
    def test_resume_is_bit_identical(
        self, tmp_path, workload, reference, kill_at
    ):
        path = tmp_path / "ck.json"
        full_run(
            workload, checkpoint_every=1, checkpoint_path=path,
            max_steps=kill_at,
        )
        resumed = full_run(workload, resume=path)
        assert_reports_identical(resumed, reference)
        assert resumed.to_doc() == reference.to_doc()

    def test_torn_tail_resumes_and_appends(
        self, tmp_path, workload, reference
    ):
        """A crash mid-write tears the final line: resume drops it,
        replays the whole intervals before it and appends after them."""
        path = tmp_path / "run.jsonl"
        full_run(
            workload, checkpoint_every=1, checkpoint_path=path, max_steps=5,
        )
        truncate_tail(path, 16)
        resumed = full_run(
            workload, checkpoint_every=1, checkpoint_path=path, resume=path,
        )
        assert_reports_identical(resumed, reference)
        assert resumed.to_doc() == reference.to_doc()
        record = read_record(path)
        assert not record.torn
        assert record.intervals == [
            interval_doc(r) for r in reference.intervals
        ]

    def test_resume_into_another_record(self, tmp_path, workload, reference):
        """Resuming with a different record path writes the whole record
        there, replayed lines included, and leaves the old one alone."""
        old = recorded(tmp_path / "old.jsonl", workload, 4)
        before = old.read_bytes()
        new = tmp_path / "new.jsonl"
        full_run(workload, checkpoint_path=new, resume=old)
        assert old.read_bytes() == before
        assert read_record(new).intervals == [
            interval_doc(r) for r in reference.intervals
        ]


class TestResumeValidation:
    @pytest.fixture()
    def checkpoint_path(self, tmp_path, workload):
        path = tmp_path / "ck.json"
        full_run(
            workload, checkpoint_every=1, checkpoint_path=path, max_steps=2,
        )
        return path

    def test_config_mismatch_is_refused(self, checkpoint_path, workload):
        other = FleetController(seed=SEED + 1)
        with pytest.raises(CheckpointError, match="seed"):
            other.run(
                workload.services, workload.timeline, workload.horizon_s,
                measure_s=MEASURE_S, sim_seed=SIM_SEED,
                resume=checkpoint_path,
            )

    def test_run_args_mismatch_is_refused(self, checkpoint_path, workload):
        with pytest.raises(CheckpointError, match="measure_s"):
            controller().run(
                workload.services, workload.timeline, workload.horizon_s,
                measure_s=MEASURE_S + 0.05, sim_seed=SIM_SEED,
                resume=checkpoint_path,
            )

    def test_digestless_checkpoint_is_refused(self, checkpoint_path, workload):
        """A header without a timeline digest cannot be checked against
        the resume timeline, so resume refuses it instead of trusting it."""
        lines = checkpoint_path.read_text().splitlines(keepends=True)
        header = unseal(lines[0].rstrip("\n"))
        del header["timeline_sha"]
        checkpoint_path.write_text(seal(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(CheckpointError, match="timeline_sha"):
            controller().run(
                workload.services, workload.timeline, workload.horizon_s,
                measure_s=MEASURE_S, sim_seed=SIM_SEED,
                resume=checkpoint_path,
            )

    def test_unexpected_header_field_is_ignored(
        self, checkpoint_path, workload, reference
    ):
        """Only the fields this run expects are compared: a record whose
        header still carries the retired ``check`` parameter resumes."""
        lines = checkpoint_path.read_text().splitlines(keepends=True)
        header = unseal(lines[0].rstrip("\n"))
        assert "check" not in header
        header["check"] = True
        checkpoint_path.write_text(seal(header) + "\n" + "".join(lines[1:]))
        resumed = full_run(workload, resume=checkpoint_path)
        assert_reports_identical(resumed, reference)

    def test_services_mismatch_is_refused(self, checkpoint_path, workload):
        with pytest.raises(CheckpointError, match="services_sha"):
            controller().run(
                workload.services[:-1], workload.timeline,
                workload.horizon_s, measure_s=MEASURE_S, sim_seed=SIM_SEED,
                resume=checkpoint_path,
            )

    def test_timeline_mismatch_is_refused(self, checkpoint_path, workload):
        shorter = [e for e in workload.timeline][:-2]
        with pytest.raises(CheckpointError, match="timeline"):
            controller().run(
                workload.services, shorter, workload.horizon_s,
                measure_s=MEASURE_S, sim_seed=SIM_SEED,
                resume=checkpoint_path,
            )
