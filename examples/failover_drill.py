#!/usr/bin/env python
"""Failover drill: lose a GPU mid-day, keep serving.

Deploys Scenario 2, kills the busiest GPU, and walks through the recovery
the SIII-F machinery enables: lost segments are relocated into surviving
holes (or a fresh GPU), untouched services never stop, and the
reconfiguration cost model prices the blast radius.

Run:  python examples/failover_drill.py
"""

from repro import DeploymentManager, ParvaGPU, profile_workloads, scenario_services
from repro.core.failover import FailoverController
from repro.metrics import external_fragmentation


def main() -> None:
    profiles = profile_workloads()
    services = scenario_services("S2")
    placement = ParvaGPU(profiles).schedule(services)
    manager = DeploymentManager(profiles)
    manager.deploy(placement)
    print(f"deployed S2 on {placement.num_gpus} GPUs")

    victim = max(placement.gpus, key=lambda g: g.used_gpcs)
    print(
        f"\n*** GPU {victim.gpu_id} fails "
        f"({len(victim.segments)} segments, {victim.used_gpcs:g} GPCs) ***"
    )

    ctrl = FailoverController(manager)
    result = ctrl.fail_gpu(victim.gpu_id, services)

    print(f"affected services : {', '.join(result.affected_services)}")
    print("lost capacity     : " + ", ".join(
        f"{sid} -{rate:.0f} req/s" for sid, rate in result.lost_capacity.items()
    ))
    print(f"fleet             : {placement.num_gpus} -> "
          f"{result.placement.num_gpus} GPUs")
    print(f"recovery MIG work : {result.cost.total_work_s:.1f} s serial")
    print(f"worst downtime    : {result.cost.max_downtime_s:.1f} s "
          f"({len(result.cost.disrupted_services)} services disrupted, "
          f"0 s with {result.cost.shadow_gpus} shadow GPU(s))")
    untouched = sorted(
        s.id for s in services if s.id not in result.cost.downtime_s
    )
    print(f"kept serving      : {', '.join(untouched)}")
    print(
        f"fragmentation     : "
        f"{100 * external_fragmentation(result.placement):.1f}% after recovery"
    )
    for svc in services:
        assert result.placement.total_capacity(svc.id) >= svc.request_rate
    print("\nall services back at full planned capacity.")


if __name__ == "__main__":
    main()
