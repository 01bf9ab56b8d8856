"""Controller checkpoint/restore: bit-identical resume, hostile files.

The contract under test: a run killed at *any* interval boundary and
resumed from its checkpoint produces the same per-interval fingerprints
and the same final ``OpsReport.to_doc()`` as the run that was never
interrupted — and a damaged or mismatched checkpoint is refused loudly
(:class:`~repro.ops.checkpoint.CheckpointError`), never half-restored.
"""

import json

import pytest

from repro.ops import (
    CheckpointError,
    FleetController,
    read_checkpoint,
    write_checkpoint,
)
from repro.ops.checkpoint import timeline_digest
from repro.ops.controller import assert_reports_identical
from repro.resilience import flip_bit, truncate_tail
from repro.scenarios.ops import bench_ops_run

SEED = 7
SIM_SEED = 3
MEASURE_S = 0.2


@pytest.fixture(scope="module")
def workload():
    return bench_ops_run(60)


def controller():
    return FleetController(seed=SEED)


def bootstrap_checkpoint(ctrl):
    """The state document after the bootstrap step of an empty timeline."""
    return ctrl.checkpoint(cursor=0, timeline_sha=timeline_digest([]))


def full_run(run, **kwargs):
    return controller().run(
        run.services, run.timeline, run.horizon_s,
        measure_s=MEASURE_S, sim_seed=SIM_SEED, **kwargs,
    )


@pytest.fixture(scope="module")
def reference(workload):
    return full_run(workload)


class TestFileFormat:
    def test_write_read_round_trip(self, tmp_path, workload):
        ctrl = controller()
        full_run(workload)  # warm nothing; just build a state to save
        ctrl.begin(workload.services, workload.horizon_s,
                   measure_s=MEASURE_S, sim_seed=SIM_SEED)
        ctrl.step(0.0, [])
        state = bootstrap_checkpoint(ctrl)
        path = tmp_path / "ck.json"
        write_checkpoint(path, state)
        assert read_checkpoint(path) == state
        ctrl.finish()

    def test_bit_flip_is_caught(self, tmp_path, workload):
        ctrl = controller()
        ctrl.begin(workload.services, workload.horizon_s,
                   measure_s=MEASURE_S, sim_seed=SIM_SEED)
        ctrl.step(0.0, [])
        path = tmp_path / "ck.json"
        write_checkpoint(path, bootstrap_checkpoint(ctrl))
        ctrl.finish()
        # any single-bit flip must be caught by the checksum (or fail
        # JSON parsing outright) — try several seeded offsets
        pristine = path.read_bytes()
        for seed in range(8):
            path.write_bytes(pristine)
            flip_bit(path, seed=seed)
            with pytest.raises(CheckpointError):
                read_checkpoint(path)

    def test_truncation_is_caught(self, tmp_path, workload):
        ctrl = controller()
        ctrl.begin(workload.services, workload.horizon_s,
                   measure_s=MEASURE_S, sim_seed=SIM_SEED)
        ctrl.step(0.0, [])
        path = tmp_path / "ck.json"
        write_checkpoint(path, bootstrap_checkpoint(ctrl))
        ctrl.finish()
        truncate_tail(path, 16)
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_unknown_version_is_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "format": "parvagpu-checkpoint", "version": 999,
            "sha256": "0" * 64, "state": {},
        }))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_foreign_file_is_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)


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

    def test_resume_across_worker_counts(self, tmp_path, workload, reference):
        # Older checkpoints record the run's process fan-out as the
        # report's "workers".  No result depended on it: a checkpoint
        # written by a 2-worker run resumes bit-identically.
        path = tmp_path / "ck.json"
        full_run(
            workload, checkpoint_every=1, checkpoint_path=path, max_steps=3,
        )
        state = read_checkpoint(path)
        assert "workers" not in state["report"]
        state["report"]["workers"] = 2
        write_checkpoint(path, state)
        resumed = full_run(workload, resume=path)
        assert_reports_identical(resumed, reference)
        assert resumed.to_doc() == reference.to_doc()


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

    def test_string_start_is_refused(self, checkpoint_path, workload):
        """A ``"4"`` start renders the same fingerprint line as ``4``:
        the restore refuses it and deploys nothing."""
        state = read_checkpoint(checkpoint_path)
        seg = next(
            s for g in state["manager"]["placement"]["gpus"]
            for s in g["segments"] if s["start"] == 4
        )
        seg["start"] = "4"
        ctrl = controller()
        with pytest.raises(CheckpointError, match="start"):
            ctrl.run(
                workload.services, workload.timeline, workload.horizon_s,
                measure_s=MEASURE_S, sim_seed=SIM_SEED, resume=state,
            )
        assert ctrl.manager.current is None
        with pytest.raises(RuntimeError, match="no active run"):
            ctrl.step(workload.horizon_s / 2)

    def test_unknown_run_field_is_refused(self, checkpoint_path):
        """Older builds could sample serving measurement (``measure_every``
        N > 1): this build does not read the knob, so it refuses it."""
        state = read_checkpoint(checkpoint_path)
        controller().restore(dict(state))
        for value in (3, 1):
            state["run"]["measure_every"] = value
            with pytest.raises(CheckpointError, match="measure_every"):
                controller().restore(state)

    def test_legacy_sim_fast_matching_fast_path_resumes(
        self, checkpoint_path, workload, reference
    ):
        """Older builds stored the serving engine as ``sim_fast``; one
        equal to the controller's ``fast_path`` resumes bit-identically."""
        state = read_checkpoint(checkpoint_path)
        state["run"]["sim_fast"] = True
        resumed = controller().run(
            workload.services, workload.timeline, workload.horizon_s,
            measure_s=MEASURE_S, sim_seed=SIM_SEED, resume=state,
        )
        assert_reports_identical(resumed, reference)
        assert resumed.to_doc() == reference.to_doc()

    def test_legacy_sim_fast_mismatch_is_refused(self, checkpoint_path):
        state = read_checkpoint(checkpoint_path)
        state["run"]["sim_fast"] = False
        with pytest.raises(CheckpointError, match="sim_fast"):
            controller().restore(state)
        naive = read_checkpoint(checkpoint_path)
        naive["config"]["fast_path"] = False
        naive["run"]["sim_fast"] = True
        with pytest.raises(CheckpointError, match="sim_fast"):
            FleetController(seed=SEED, fast_path=False).restore(naive)

    def test_digestless_checkpoint_is_refused(self, checkpoint_path, workload):
        """A document without a timeline digest cannot be checked against
        the resume timeline, so resume refuses it instead of trusting it."""
        state = read_checkpoint(checkpoint_path)
        state["timeline_sha"] = None
        unset = {k: v for k, v in state.items() if k != "timeline_sha"}
        for doc in (state, unset):
            with pytest.raises(CheckpointError, match="no timeline digest"):
                controller().run(
                    workload.services, workload.timeline, workload.horizon_s,
                    measure_s=MEASURE_S, sim_seed=SIM_SEED, resume=doc,
                )

    def test_timeline_mismatch_is_refused(self, checkpoint_path, workload):
        shorter = [e for e in workload.timeline][:-2]
        with pytest.raises(CheckpointError, match="timeline"):
            controller().run(
                workload.services, shorter, workload.horizon_s,
                measure_s=MEASURE_S, sim_seed=SIM_SEED,
                resume=checkpoint_path,
            )
