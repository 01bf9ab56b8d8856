#!/usr/bin/env python
"""SLO update without disturbing co-tenants (SIII-F).

A tenant tightens its SLO mid-day.  ParvaGPU re-runs the Segment
Configurator for that one service, relocates only its segments, and
re-optimizes — the reconfiguration plan shows how many instances stayed
live versus how many MIG operations were needed.

Run:  python examples/slo_reconfiguration.py
"""

from repro import DeploymentManager, ParvaGPU, Service, profile_workloads


def main() -> None:
    profiles = profile_workloads(["resnet-50", "inceptionv3", "vgg-16"])
    services = [
        Service("search-ranker", "resnet-50", slo_latency_ms=220, request_rate=900),
        Service("photo-tagger", "inceptionv3", slo_latency_ms=400, request_rate=600),
        Service("ad-scorer", "vgg-16", slo_latency_ms=500, request_rate=400),
    ]

    scheduler = ParvaGPU(profiles)
    placement = scheduler.schedule(services)
    manager = DeploymentManager(profiles)
    plan = manager.deploy(placement)
    print(
        f"initial deployment: {placement.num_gpus} GPUs, "
        f"{len(plan.create)} instances created"
    )
    for p in placement.gpus:
        print(
            f"  GPU {p.gpu_id}: "
            + ", ".join(f"{s.service_id}@{s.start}({s.gpcs:g}g)" for s in p.segments)
        )

    # The ranker's product team tightens its latency target by 2x and
    # traffic grows 30% — no re-profiling needed (SIII-F).
    changed = services[0]
    new_placement, reconfig = manager.update_slo(
        services, changed, new_slo_ms=110.0, new_rate=2700.0
    )
    print(
        f"\nafter SLO update ({changed.id}: 220 ms -> 110 ms, 900 -> 2700 req/s):"
    )
    print(f"  GPUs: {new_placement.num_gpus}")
    kept = len(plan.create) - len(reconfig.destroy)
    print(f"  instances untouched (kept serving): {kept}")
    print(f"  MIG operations: {len(reconfig.destroy)} destroy + {len(reconfig.create)} create")
    for p in new_placement.gpus:
        print(
            f"  GPU {p.gpu_id}: "
            + ", ".join(f"{s.service_id}@{s.start}({s.gpcs:g}g)" for s in p.segments)
        )
    untouched = {s.id for s in services} - {changed.id}
    print(f"\nservices that kept serving throughout: {sorted(untouched)}")


if __name__ == "__main__":
    main()
