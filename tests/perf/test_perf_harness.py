"""The perf harness's case runner, row schema and baseline gate.

Hand-made results only: no fleet is scheduled, served or replayed.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.ops.report import IntervalRecord, OpsReport

HARNESS_PATH = Path(__file__).resolve().parents[2] / "benchmarks/perf/harness.py"


def _load_harness():
    spec = importlib.util.spec_from_file_location("perf_harness", HARNESS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


harness = _load_harness()


def _report(fingerprints=("fp-a", "fp-b"), reconfig_ops=3):
    return OpsReport(
        horizon_s=10.0,
        intervals=[
            IntervalRecord(
                time_s=float(i), duration_s=1.0, path="incremental",
                events={"rate": 1}, skipped=0, services=2, num_gpus=1,
                spare_gpus=0, reconfig_ops=reconfig_ops,
                reconfig_work_s=0.5, max_downtime_s=0.0,
                downtime_total_s=0.0, zero_downtime=True, compliance=1.0,
                fingerprint=fp, sim_fingerprint=f"sim-{fp}",
                per_service_compliance={"s0": 1.0},
            )
            for i, fp in enumerate(fingerprints)
        ],
    )


class _Fingerprinted:
    """Stands in for a placement: identity is its fingerprint."""

    def __init__(self, fp):
        self.fp = fp

    def fingerprint(self):
        return self.fp


def _case(got, want=None, counts=None, suite="ops"):
    def prepared(result, counts):
        return lambda: lambda: (result, counts)

    return harness.Case(
        suite, "toy", 2, "mig",
        run=prepared(got, counts or {}),
        reference=None if want is None else prepared(want, {}),
    )


class TestCompare:
    def test_identical_reports_pass(self):
        row = harness.run_case(_case(_report(), _report()))
        assert row["identical"] is True

    def test_diverged_fingerprint_is_fatal(self):
        with pytest.raises(SystemExit, match="FATAL.*placement fingerprints"):
            harness.run_case(_case(_report(("fp-a", "fp-x")), _report()))

    def test_diverged_sim_fingerprint_is_fatal(self):
        got = _report()
        got.intervals[1].sim_fingerprint = "sim-other"
        with pytest.raises(SystemExit, match="FATAL.*simulation"):
            harness.run_case(_case(got, _report()))

    def test_diverged_field_outside_fingerprints_is_fatal(self):
        """The full report is compared, not just its fingerprints."""
        with pytest.raises(SystemExit, match="FATAL.*full report"):
            harness.run_case(_case(_report(reconfig_ops=4), _report()))

    def test_path_flag_alone_is_not_a_divergence(self):
        naive = dataclasses.replace(_report(), fast_path=False)
        harness.run_case(_case(_report(), naive))

    def test_diverged_placement_is_fatal(self):
        with pytest.raises(SystemExit, match="FATAL.*fingerprints differ"):
            harness.run_case(
                _case(_Fingerprinted("a"), _Fingerprinted("b"), suite="schedule")
            )


class TestRowSchema:
    @pytest.mark.parametrize(
        "case",
        [
            _case(_report(), _report(), counts={"alloc_gpus_touched": 3}),
            _case(_report()),
            _case(_Fingerprinted("a"), _Fingerprinted("a"), suite="schedule"),
            _case(_Fingerprinted("a"), suite="simulate"),
        ],
        ids=["checked-report", "unchecked-report", "checked", "unchecked"],
    )
    def test_every_row_has_the_one_schema(self, case):
        row = harness.run_case(case)
        assert tuple(row) == harness.ROW_KEYS
        assert len(row["digest"]) == 64
        assert (row["identical"] is None) == (case.reference is None)
        assert (row["reference_wall_s"] is None) == (case.reference is None)

    def test_shared_reference_is_timed_once_per_repeat(self):
        """Consecutive cases sharing one reference thunk (a resilience
        tier's two rows) time it once per repeat and report one wall."""
        calls = []

        def run():
            return _report(), {}

        def reference():
            calls.append(1)
            return lambda: (_report(), {})

        refs = harness.ReferenceRuns()
        rows = [
            harness.run_case(harness.Case(
                "resilience", name, 2, "mig", run=lambda: run,
                reference=reference, repeats=3,
            ), refs)
            for name in ("checkpoint", "kill-resume")
        ]
        assert len(calls) == 3
        assert rows[0]["reference_wall_s"] == rows[1]["reference_wall_s"]
        assert all(row["identical"] for row in rows)

    def test_wall_that_rounds_to_zero_prints_no_speedup(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(harness.time, "perf_counter", lambda: 1.0)
        row = harness.run_case(_case(_report(), _report()))
        assert row["wall_s"] == row["reference_wall_s"] == 0.0
        assert "ref        0.0 ms (n/a)  identical" in capsys.readouterr().out

    def test_digest_tracks_fingerprints(self):
        a = harness.run_case(_case(_report()))
        b = harness.run_case(_case(_report(("fp-a", "fp-x"))))
        assert a["digest"] != b["digest"]


class TestBaselineGate:
    COUNTS = {"alloc_gpus_touched": 63, "check_lines_rendered": 271}

    def _rows(self, wall_s=1.0, counts=COUNTS):
        row = harness.run_case(_case(_report(), counts=dict(counts)))
        return [dict(row, wall_s=wall_s)]

    def test_same_counts_pass(self):
        baseline = {"rows": self._rows()}
        assert harness.check_baseline(self._rows(), baseline) == []

    def test_changed_count_fails_naming_the_family(self):
        baseline = {"rows": self._rows()}
        changed = dict(self.COUNTS, alloc_gpus_touched=64)
        failures = harness.check_baseline(self._rows(counts=changed), baseline)
        assert len(failures) == 1
        assert "alloc_gpus_touched is 64, baseline 63" in failures[0]

    def test_missing_family_fails(self):
        baseline = {"rows": self._rows()}
        failures = harness.check_baseline(
            self._rows(counts={"alloc_gpus_touched": 63}), baseline
        )
        assert ["check_lines_rendered" in f for f in failures] == [True]

    def test_wall_past_the_factor_fails(self):
        baseline = {"rows": self._rows(wall_s=1.0)}
        assert harness.check_baseline(self._rows(wall_s=1.9), baseline) == []
        failures = harness.check_baseline(self._rows(wall_s=2.1), baseline)
        assert len(failures) == 1 and "wall" in failures[0]

    def test_unmatched_rows_are_skipped(self):
        other = [dict(self._rows()[0], tier=7)]
        assert harness.check_baseline(self._rows(), {"rows": other}) == []
