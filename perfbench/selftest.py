"""Self-check of the fleet-ops benchmark at a tiny size.

Runs every workload at ``--scale 0.05`` for a couple of seconds, both
untraced and traced, against reference digests recorded on the spot,
and checks that:

- each run exits 0, reports ``"correct": true`` and prints exactly the
  metrics ``BENCHMARK.json`` names, each with its unit;
- a corrupted reference digest fails the run (exit 1, ``"correct":
  false``, every event counted as failed);
- a live session whose recorded replay differs fails the run, every
  event counted as failed;
- without the program's sources next to it, the benchmark exits non-zero
  and prints no result.

Usage (from the repository root; about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import record  # noqa: E402
import run as bench  # noqa: E402
from probes import STAGES as bench_stages  # noqa: E402
from repro.profiler import profile_workloads  # noqa: E402
from workloads import BUILDERS  # noqa: E402

SCALE = 0.05
SECONDS = 2


def invoke(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(doc: dict, spec: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    have = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert have == want, f"{label}: metrics {sorted(have)} != {sorted(want)}"
    for name, m in doc["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name}"


def check_recorded_session_failure(refs: dict) -> None:
    """A live session that passes its digest check but whose recorded
    session replays differently fails the run, every event counted."""
    w = BUILDERS["live-diurnal"](0, SCALE)
    live, _gateway, driver = bench.open_loop(profile_workloads(), w, SECONDS)
    result = bench.Result()
    bench.check_replay(live, w, refs[bench.reference_key(w, SCALE)], result)
    assert result.correct and result.failed == 0, result.problems
    live.report.intervals[1].fingerprint = "0" * 64
    bench.check_recorded_session(driver, w, live, result)
    assert not result.correct, "altered live session passed"
    assert result.failed == result.attempted >= 1, (
        f"{result.failed} of {result.attempted} events failed"
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        refs_path = Path(tmp) / "refs.json"
        refs = {}
        for name, builder in sorted(BUILDERS.items()):
            w = builder(0, SCALE)
            refs[bench.reference_key(w, SCALE)], _ = record.record_one(
                w, prefix_instants=2
            )
        refs_path.write_text(json.dumps(refs))
        common = ["--seed", "0", "--seconds", str(SECONDS),
                  "--scale", str(SCALE), "--references", str(refs_path)]
        for name in sorted(BUILDERS):
            for trace, metrics in (("0", "end_to_end"), ("1", "per_layer")):
                code, out = invoke(["--workload", name, "--trace", trace,
                                    *common])
                doc = result_of(out)
                label = f"{name} --trace {trace}"
                assert code == 0 and doc["correct"], f"{label}: {out}"
                assert doc["attempted"] >= 1 and doc["failed"] == 0, label
                check_metrics(doc, spec[metrics], label)
                if trace == "1":
                    m = {k: v["value"] for k, v in doc["metrics"].items()}
                    stages = sum(m[f"ops.{s}_ms"] for s in bench_stages)
                    assert stages >= 0.95 * m["ops.step_ms"], (
                        f"{label}: stages cover {stages / m['ops.step_ms']:.1%}"
                        " of step walls"
                    )
                print(f"ok  {label}: {len(doc['metrics'])} metrics")

        corrupt = {k: "0" * 64 for k in refs}
        refs_path.write_text(json.dumps(corrupt))
        for name in sorted(BUILDERS):
            code, out = invoke(["--workload", name, "--trace", "0", *common])
            doc = result_of(out)
            assert code == 1 and not doc["correct"], f"{name}: {out}"
            assert doc["failed"] == doc["attempted"], f"{name}: {out}"
            print(f"ok  {name}: corrupted reference fails the run")
        check_recorded_session_failure(refs)
        print("ok  live-diurnal: a recorded session that replays "
              "differently fails the run")

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, out = invoke(["--workload", "steady-serve", "--seed", "0",
                            "--seconds", "1", "--trace", "0"], cwd=bare)
        assert code != 0 and not out.strip(), f"bare checkout: {code} {out}"
        print("ok  without the program's sources: exit "
              f"{code}, no result printed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
