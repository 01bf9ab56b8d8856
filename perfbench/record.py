"""Record the reference digests the benchmark checks every run against.

For each workload and variant, the timeline is replayed offline through
``FleetController.run`` (the fast path a user gets) and the digest of
its interval placement and serving fingerprints is stored.  The full
naive replay (``fast_path=False``: unindexed allocator, unmemoized
configurator, event-driven simulator) is too slow at benchmark size, so
each recording is cross-checked with ``run_identity_checked`` on a
prefix of the timeline; the prefix's fast fingerprints must also equal
the first intervals of the recorded replay.

Usage (from the repository root; about 25 minutes for all 48)::

    python3 perfbench/record.py
    python3 perfbench/record.py --workload live-diurnal
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.ops.controller import (  # noqa: E402
    FleetController,
    OpsIdentityError,
    run_identity_checked,
)

import run as bench  # noqa: E402
from workloads import BUILDERS, VARIANTS  # noqa: E402


def record_one(w, prefix_instants: int) -> tuple[str, object]:
    """The workload's reference digest, plus the report it came from."""
    report = FleetController().run(
        w.services, w.timeline, w.horizon_s,
        measure_s=w.measure_s, warmup_s=w.warmup_s,
    )
    skipped = sum(rec.skipped for rec in report.intervals)
    if skipped:
        raise SystemExit(f"{w.name}/{w.variant}: {skipped} events skipped")
    times = sorted({e.time_s for e in w.timeline})
    cut = times[min(prefix_instants, len(times) - 1)]
    fast, _naive = run_identity_checked(
        w.services, [e for e in w.timeline if e.time_s < cut], cut,
        measure_s=w.measure_s, warmup_s=w.warmup_s,
    )
    head = report.intervals[: len(fast.intervals)]
    if [(r.fingerprint, r.sim_fingerprint) for r in head] != [
        (r.fingerprint, r.sim_fingerprint) for r in fast.intervals
    ]:
        raise OpsIdentityError(f"{w.name}/{w.variant}: prefix replay differs")
    return bench.report_digest(report), report


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(BUILDERS), action="append",
                   help="record only this workload (repeatable)")
    args = p.parse_args()
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in args.workload or sorted(BUILDERS):
        for variant in range(VARIANTS):
            w = BUILDERS[name](variant)
            t0 = time.perf_counter()
            digest, report = record_one(w, prefix_instants=3)
            refs[bench.reference_key(w, 1.0)] = digest
            print(f"{name}/{variant}: {time.perf_counter() - t0:.1f} s, "
                  f"{report.gpu_hours:.1f} GPU-h, "
                  f"{report.total_reconfig_ops} reconfig ops, "
                  f"min compliance {report.min_compliance}, "
                  f"{len(report.intervals)} intervals", flush=True)
            REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                  + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
