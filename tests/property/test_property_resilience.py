"""Property: crash anywhere, resume anywhere — always bit-identical.

Hypothesis drives the crash geometry: the kill step and the checkpoint
cadence.  Whatever combination it draws, the recovered run's full
``OpsReport.to_doc()`` must equal the uninterrupted reference's.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops import FleetController
from repro.ops.controller import assert_reports_identical
from repro.scenarios.ops import bench_ops_run

SEED = 13
SIM_SEED = 2
MEASURE_S = 0.2

#: one small fleet, scheduled once — each hypothesis example replays it
RUN = bench_ops_run(30)


def replay(**kwargs):
    ctrl = FleetController(fast_path=True, seed=SEED)
    return ctrl, ctrl.run(
        RUN.services, RUN.timeline, RUN.horizon_s,
        measure_s=MEASURE_S, sim_seed=SIM_SEED, **kwargs,
    )


_, REFERENCE = replay()
N_STEPS = len(REFERENCE.intervals)


@given(
    kill_at=st.integers(min_value=1, max_value=N_STEPS - 1),
    cadence=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=12, deadline=None)
def test_kill_anywhere_resume_on_any_topology(kill_at, cadence):
    with tempfile.TemporaryDirectory() as td:
        ck = os.path.join(td, "ck.json")
        replay(checkpoint_every=cadence, checkpoint_path=ck,
               max_steps=kill_at)
        _, resumed = replay(resume=ck)
    assert_reports_identical(resumed, REFERENCE)
    assert resumed.to_doc() == REFERENCE.to_doc()


def test_chained_resume_matches_single_resume():
    """Checkpoint → kill → resume → kill again → resume: the chain of
    two partial runs ends exactly where one uninterrupted resume does."""
    third = max(1, N_STEPS // 3)
    with tempfile.TemporaryDirectory() as td:
        ck = os.path.join(td, "ck.json")
        replay(checkpoint_every=1, checkpoint_path=ck, max_steps=third)
        replay(checkpoint_every=1, checkpoint_path=ck, resume=ck,
               max_steps=2 * third)
        _, resumed = replay(resume=ck)
    assert_reports_identical(resumed, REFERENCE)
    assert resumed.to_doc() == REFERENCE.to_doc()
