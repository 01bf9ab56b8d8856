#!/usr/bin/env python
"""Trace-driven autoscaling over a simulated day.

Three services ride a diurnal load curve (one with an afternoon flash
surge).  Every trace epoch becomes a rate event on the fleet controller's
timeline: the bootstrap schedules the fleet once, each later instant
re-plans only the services whose rate moved (unchanged services stay
live), and every transition is priced with the SIII-F shadow-process cost
model.

Run:  python examples/diurnal_autoscaling.py
"""

from repro import Service, profile_workloads
from repro.ops import FleetController
from repro.ops.chaos import rate_epochs
from repro.sim.traces import diurnal_trace, surge_trace

DAY_S = 86_400.0


def main() -> None:
    profiles = profile_workloads(["resnet-50", "inceptionv3", "mobilenetv2"])
    services = [
        Service("feed-ranker", "resnet-50", slo_latency_ms=220, request_rate=3200),
        Service("photo-tags", "inceptionv3", slo_latency_ms=400, request_rate=2600),
        Service("thumbnails", "mobilenetv2", slo_latency_ms=120, request_rate=5500),
    ]
    traces = [
        diurnal_trace("feed-ranker", base_rate=3200, amplitude=0.6, epochs=12),
        diurnal_trace("photo-tags", base_rate=2600, amplitude=0.4, epochs=12,
                      phase=0.8),
        surge_trace("thumbnails", base_rate=5500, surge_factor=2.5,
                    surge_start_s=43_200, surge_end_s=57_600),
    ]

    controller = FleetController(profiles, spare_shadow_gpus=2)
    report = controller.run(services, rate_epochs(traces, DAY_S), DAY_S)

    print(f"{'hour':>5} {'GPUs':>5} {'reconfig ops':>13} "
          f"{'downtime':>9} {'shadowed':>9}")
    for interval in report.intervals:
        print(
            f"{interval.time_s / 3600:>5.1f} {interval.num_gpus:>5} "
            f"{interval.reconfig_ops:>13} "
            f"{interval.max_downtime_s:>8.1f}s "
            f"{'yes' if interval.zero_downtime else 'NO':>9}"
        )
    mean_gpus = report.gpu_hours * 3600 / DAY_S
    print(
        f"\npeak fleet {report.peak_gpus} GPUs, mean {mean_gpus:.1f}, "
        f"{report.total_reconfig_ops} MIG operations across the day, "
        f"shadow-GPU peak {controller.shadows.peak_used}"
    )
    print(
        "Provisioning for the peak alone would rent "
        f"{report.peak_gpus} GPUs all day; trace-driven rescheduling "
        f"averages {mean_gpus:.1f}."
    )


if __name__ == "__main__":
    main()
