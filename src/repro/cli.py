"""``parvagpu`` command-line interface.

Subcommands:

- ``parvagpu schedule --scenario S2 [--framework parvagpu]
  [--geometry mig|mi300x|mixed]`` — schedule a scenario and print the
  deployment map + headline metrics.
- ``parvagpu experiment fig5 [fig6 ...]`` — regenerate paper tables/figures.
- ``parvagpu profile resnet-50 [--geometry mi300x]`` — print a workload's
  profile table.
- ``parvagpu simulate --scenario S2 --framework gpulet
  [--geometry mig|mi300x|mixed]`` — run the discrete-event simulator and
  report SLO compliance.
- ``parvagpu scenarios`` — list every registered scenario (S1-S14) with
  service counts, models, total load, and supported geometries.
- ``parvagpu ops --scenario s13 [--verify]`` — drive a
  fleet-operations scenario (failures, preemption waves, churn, SLO
  renegotiation) through the closed-loop FleetController and report what
  tenants experienced; ``--verify`` additionally replays the identical
  timeline on the naive reference machinery and asserts fingerprint
  identity.
- ``parvagpu serve --scenario S16 [--clock real|virtual]
  [--time-scale X] [--deadline B]`` — the live-serving gateway: stream
  the scenario's timeline through the async control loop, publish
  status over local HTTP, optionally journal the session
  (``--journal DIR``) and verify the journal's virtual replay against
  the offline controller (``--check-offline``).

``--geometry`` selects the partition geometry of the fleet: ``mig`` (the
paper's A100 fleet, default), any other registered geometry name (e.g.
``mi300x``), or ``mixed`` for a heterogeneous A100+MI300X cluster.
Non-MIG geometries are ParvaGPU-only — the baselines are tied to
NVIDIA-specific mechanisms (MPS percentages, MIG configurations).

Each subcommand imports what it runs inside its handler, so ``--help``,
``ops`` and ``serve`` never load the experiments, the baselines or the
evaluation metrics.
"""

from __future__ import annotations

import argparse
import sys

from repro.gpu.geometry import available_geometries, get_geometry

#: Geometry names whose fleets mix MIG A100s and MI300Xs.
MIXED_GEOMETRY = "mixed"

_PARVAGPU_FAMILY = ("parvagpu", "parvagpu-single", "parvagpu-unoptimized")


def _make_scheduler(framework: str, geometry: str):
    """Build a scheduler for a framework + geometry choice."""
    from repro.core.parvagpu import ParvaGPU
    from repro.gpu.mig import MIG_GEOMETRY
    from repro.profiler import profile_workloads

    key = framework.strip().lower()
    if geometry == MIXED_GEOMETRY:
        if key != "parvagpu":
            raise ValueError(
                "mixed-geometry clusters are scheduled by the heterogeneous "
                "ParvaGPU pipeline; use --framework parvagpu"
            )
        from repro.core.hetero import make_mixed_scheduler

        return make_mixed_scheduler()
    geo = get_geometry(geometry)
    if key not in _PARVAGPU_FAMILY and geo is not MIG_GEOMETRY:
        raise ValueError(
            f"framework {framework!r} only supports the MIG geometry; "
            f"on {geo.name} use one of {', '.join(_PARVAGPU_FAMILY)}"
        )
    profiles = profile_workloads(geometry=geo)
    if key not in _PARVAGPU_FAMILY:
        from repro.baselines import make_framework

        return make_framework(framework, profiles)
    return ParvaGPU(
        profiles,
        use_mps=key != "parvagpu-single",
        optimize=key != "parvagpu-unoptimized",
        geometry=geo,
    )


def _unquote(exc: BaseException) -> str:
    """KeyError str()s to its repr'd message; unwrap for clean CLI output."""
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def _schedule(args: argparse.Namespace):
    """Shared schedule step; returns (services, placement) or exits."""
    from repro.scenarios import scenario_services

    services = scenario_services(args.scenario)
    fw = _make_scheduler(args.framework, args.geometry)
    placement = fw.schedule(services)
    return services, placement


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.baselines import InfeasibleScheduleError
    from repro.core.service import InfeasibleServiceError
    from repro.metrics import external_fragmentation, internal_slack

    try:
        _, placement = _schedule(args)
    except (InfeasibleScheduleError, InfeasibleServiceError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        print(f"error: {_unquote(exc)}", file=sys.stderr)
        return 2
    fleet = "+".join(placement.geometries())
    fleet_note = f" [{fleet}]" if fleet != "mig" else ""
    print(
        f"{placement.framework} on {args.scenario}: "
        f"{placement.num_gpus} GPUs{fleet_note}, "
        f"delay {placement.scheduling_delay_ms:.2f} ms, "
        f"internal slack {100 * internal_slack(placement):.1f}%, "
        f"external fragmentation {100 * external_fragmentation(placement):.1f}%"
    )
    for plan in placement.gpus:
        tag = f" ({plan.geometry})" if plan.geometry != "mig" else ""
        parts = ", ".join(
            f"{s.service_id}"
            f"[{s.gpcs:g}g{'@' + str(s.start) if s.start is not None else ''}"
            f" b{s.batch_size} p{s.num_processes}]"
            for s in plan.segments
        )
        print(f"  GPU {plan.gpu_id}{tag}: {parts}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, run_experiment
    from repro.experiments.charts import render_bar_chart, render_series

    for experiment_id in args.ids or EXPERIMENTS:
        result = run_experiment(experiment_id)
        if args.chart:
            render = (
                render_series
                if experiment_id in ("fig10", "fig11")
                else render_bar_chart
            )
            print(render(result))
        else:
            print(result.render())
        print()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiler import profile_workloads

    try:
        if args.geometry == MIXED_GEOMETRY:
            raise ValueError(
                "profiles are measured per geometry; pick one "
                f"({', '.join(available_geometries())})"
            )
        geometry = get_geometry(args.geometry)
        table = profile_workloads([args.model], geometry=geometry)[args.model]
    except (KeyError, ValueError) as exc:
        print(f"error: {_unquote(exc)}", file=sys.stderr)
        return 2
    print(f"{args.model}: {len(table)} operating points")
    print(f"{'size':>4} {'batch':>5} {'procs':>5} {'lat ms':>8} {'req/s':>8} {'mem GB':>7}")
    for e in table:
        print(
            f"{e.instance_size:>4} {e.batch_size:>5} {e.num_processes:>5} "
            f"{e.latency_ms:>8.1f} {e.throughput:>8.0f} {e.memory_gb:>7.1f}"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.baselines import InfeasibleScheduleError
    from repro.core.service import InfeasibleServiceError
    from repro.sim import simulate_placement

    try:
        services, placement = _schedule(args)
        report = simulate_placement(
            placement,
            services,
            duration_s=args.duration,
            seed=args.seed,
            arrivals=args.arrivals,
            fast_path=args.engine == "fast",
        )
    except (InfeasibleScheduleError, InfeasibleServiceError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        print(f"error: {_unquote(exc)}", file=sys.stderr)
        return 2
    unit = "steps" if args.engine == "fast" else "events"
    print(
        f"{placement.framework} on {args.scenario}: "
        f"SLO compliance {100 * report.overall_compliance:.2f}% "
        f"({report.events_processed} {unit})"
    )
    for sid, compliance, mean_lat, rate in report.summary_rows():
        print(f"  {sid:<16} {compliance:6.2f}%  {mean_lat:8.1f} ms  {rate:8.0f} req/s")
    return 0


def _geometry_support(scenario, profiles) -> str:
    """Which geometries can serve every load of a scenario.

    A load is feasible on a geometry when its profile table has an
    operating point within the *effective* SLO (the placement algorithms
    only see ``slo_factor`` of the client latency); ``mixed`` requires
    every load to be feasible on at least one pool.  ``profiles`` maps
    geometry name -> model profile tables (built once by the caller).
    """
    from repro.core.service import DEFAULT_SLO_FACTOR

    def feasible(load, name: str) -> bool:
        table = profiles[name].get(load.model)
        if table is None:
            return False
        # Strictly below the bound, matching the scheduler's own
        # operating-point filters (ProfileTable.best_triplets /
        # under_latency) so this listing never advertises a geometry
        # that `schedule` would reject at the boundary.
        bound = load.slo_latency_ms * DEFAULT_SLO_FACTOR
        return any(e.latency_ms < bound for e in table)

    supported = [
        name
        for name in profiles
        if all(feasible(load, name) for load in scenario.loads)
    ]
    if all(
        any(feasible(load, name) for name in profiles)
        for load in scenario.loads
    ):
        supported.append(MIXED_GEOMETRY)
    return ",".join(supported) if supported else "-"


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.profiler import profile_workloads
    from repro.scenarios import SCENARIOS

    # Only the two in-tree backends are listed — the registry may hold
    # ad-hoc variants (generation presets, test geometries) that have no
    # Table-IV profiles of their own.
    profiles = {
        "mig": profile_workloads(),
        "mi300x": profile_workloads(geometry=get_geometry("mi300x")),
    }
    print(
        f"{'name':<5} {'services':>8} {'models':>6} {'req/s':>8} "
        f"{'geometries':<18} description"
    )
    for name, sc in SCENARIOS.items():
        print(
            f"{name:<5} {len(sc.loads):>8} {len(set(sc.models)):>6} "
            f"{sc.total_rate:>8.0f} {_geometry_support(sc, profiles):<18} "
            f"{sc.description}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """One serve-gateway session: live on the monotonic clock, or a
    deterministic virtual-clock replay."""
    import asyncio

    from repro.ops import FleetController, OpsIdentityError
    from repro.scenarios.ops import OPS_SEED, ops_run
    from repro.serve import (
        Journal,
        MonotonicClock,
        ScriptedDriver,
        ServeGateway,
        VirtualClock,
        journal_segments,
        read_journal,
        replay_identity_checked,
        stream_source,
    )

    if args.check_offline and args.journal is None:
        print("error: --check-offline replays the session's journal; "
              "it requires --journal DIR", file=sys.stderr)
        return 2
    if args.check_offline and journal_segments(args.journal):
        print(f"error: --check-offline replays the whole journal, but "
              f"{args.journal} already holds segments from an earlier "
              f"session; use an empty directory", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else OPS_SEED
    virtual = args.clock == "virtual"
    try:
        run = ops_run(args.scenario, seed=seed)
        clock = (
            VirtualClock()
            if virtual
            else MonotonicClock(time_scale=args.time_scale)
        )
        horizon = args.horizon if args.horizon is not None else run.horizon_s
        controller = FleetController(seed=seed)
        gateway = ServeGateway(
            controller,
            run.services,
            horizon,
            clock,
            measure_s=args.measure,
            warmup_s=args.warmup,
            sim_seed=seed,
            deadline_budget_s=args.deadline,
            snapshot_every=0 if virtual else 1,
            journal=None if args.journal is None else Journal(args.journal),
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {_unquote(exc)}", file=sys.stderr)
        return 2
    driver = ScriptedDriver(e for e in run.timeline if e.time_s < horizon)
    mode = "virtual replay" if virtual else f"live x{args.time_scale:g}"
    source_name = (
        "events from stdin" if args.stdin
        else f"{len(driver.events)} scripted events"
    )
    print(
        f"{run.name}: {len(run.services)} services, {source_name} "
        f"over {horizon:g} s ({mode})"
    )

    async def session():
        server = None
        if not args.no_status and not virtual:
            from repro.serve.status import StatusServer

            server = StatusServer(gateway, port=args.port)
            await server.start()
            print(
                f"status: http://127.0.0.1:{server.port}/report "
                f"(and /health)"
            )
        try:
            if args.stdin:
                loop = asyncio.get_running_loop()
                reader = asyncio.StreamReader()
                protocol = asyncio.StreamReaderProtocol(reader)
                await loop.connect_read_pipe(lambda: protocol, sys.stdin)
                source = stream_source(reader)
            else:
                source = driver.source(clock)
            return await gateway.run(source)
        finally:
            if server is not None:
                await server.stop()

    try:
        report = asyncio.run(session())
    except OpsIdentityError as exc:
        print(f"IDENTITY CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {_unquote(exc)}", file=sys.stderr)
        return 2

    health = gateway.health
    degraded = (
        f", {health.deferrals} deferrals "
        f"(max depth {health.max_deferred_depth}, "
        f"{health.forced_flushes} forced flushes)"
        if health.deferrals
        else ""
    )
    print(
        f"session: {health.steps} steps, {health.events_applied} events "
        f"applied{degraded}"
    )
    if gateway.journal is not None:
        js = gateway.journal.stats
        print(
            f"journal: {js.appends} events in {js.segments} segment(s), "
            f"{js.fsyncs} fsyncs ({args.journal})"
        )
    if health.safe_mode:
        print(
            "SAFE MODE: the intake source failed for good "
            f"({gateway.health_doc().get('source_error')}); the session "
            "drained admitted events"
            + (" and closed the journal" if gateway.journal else ""),
            file=sys.stderr,
        )
    if health.reactions_s:
        pct = health.reaction_percentiles()
        print(
            f"reaction latency: p50 {pct['p50_ms']:.1f} ms, "
            f"p95 {pct['p95_ms']:.1f} ms, p99 {pct['p99_ms']:.1f} ms"
        )
    if report.mean_compliance is not None:
        print(
            f"compliance: mean {100 * report.mean_compliance:.2f}%, "
            f"min {100 * report.min_compliance:.2f}%"
        )
    if args.check_offline:
        journaled = read_journal(args.journal).events
        try:
            replay_identity_checked(
                run.services, journaled, horizon,
                measure_s=args.measure, warmup_s=args.warmup, sim_seed=seed,
                seed=seed,
            )
        except OpsIdentityError as exc:
            print(f"IDENTITY CHECK FAILED: {exc}", file=sys.stderr)
            return 1
        print(
            f"identity: virtual-clock replay of the {len(journaled)} "
            "journaled events matches the offline FleetController on "
            "every interval"
        )
    return 0



def _cmd_ops(args: argparse.Namespace) -> int:
    from repro.ops import (
        CheckpointError,
        FleetController,
        OpsIdentityError,
        run_identity_checked,
    )
    from repro.scenarios.ops import OPS_SEED, ops_run

    if (args.trace or args.trace_jsonl) and args.verify:
        print("error: --trace/--trace-jsonl export the offline replay's "
              "span tree; they cannot be combined with --verify",
              file=sys.stderr)
        return 2
    if (args.resume or args.checkpoint or args.checkpoint_every) and args.verify:
        print("error: --verify replays the full timeline on the naive "
              "reference; it cannot be combined with checkpoint/resume",
              file=sys.stderr)
        return 2
    if args.verify and args.engine != "fast":
        # --verify runs *both* engines and compares them; a user-chosen
        # engine would be silently meaningless there.
        print("error: --engine cannot be combined with --verify "
              "(the verification replay runs both engines)", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else OPS_SEED
    try:
        run = ops_run(args.scenario, seed=seed)
    except (KeyError, ValueError) as exc:
        print(f"error: {_unquote(exc)}", file=sys.stderr)
        return 2
    horizon = args.horizon if args.horizon is not None else run.horizon_s
    kwargs = dict(
        measure_s=args.measure, warmup_s=args.warmup, sim_seed=seed
    )
    try:
        if args.verify:
            report, _ = run_identity_checked(
                run.services, run.timeline, horizon,
                seed=seed, **kwargs,
            )
        else:
            ctrl = FleetController(fast_path=args.engine == "fast", seed=seed)
            # a bare --checkpoint means "flush every interval"
            ckpt_every = args.checkpoint_every or (1 if args.checkpoint else 0)
            report = ctrl.run(
                run.services, run.timeline, horizon,
                checkpoint_every=ckpt_every,
                checkpoint_path=args.checkpoint,
                resume=args.resume,
                **kwargs,
            )
    except OpsIdentityError as exc:
        print(f"IDENTITY CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    except CheckpointError as exc:
        print(f"CHECKPOINT ERROR: {_unquote(exc)}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # invalid numeric arguments (e.g. --horizon 0) surface as the
        # CLI's clean error convention, not a traceback
        print(f"error: {_unquote(exc)}", file=sys.stderr)
        return 2

    timeline_events = sum(1 for e in run.timeline if e.time_s < horizon)
    print(
        f"{run.name}: {len(run.services)} services, "
        f"{timeline_events} timeline events over {horizon:g} s"
    )
    for r in report.intervals:
        events = " ".join(f"{k}x{v}" for k, v in sorted(r.events.items()))
        comp = "" if r.compliance is None else f"  comp {100 * r.compliance:6.2f}%"
        skip = f"  skipped {r.skipped}" if r.skipped else ""
        print(
            f"  t={r.time_s:>9.0f}s {r.path:<11} svcs={r.services:<5} "
            f"gpus={r.num_gpus:<4} spares={r.spare_gpus:<3}"
            f"{comp}{skip}  {events}"
        )
    print(
        f"fleet: peak {report.peak_gpus} GPUs, "
        f"{report.gpu_hours:.1f} GPU-hours; "
        f"{report.total_reconfig_ops} reconfig ops "
        f"({report.total_reconfig_work_s:.1f} s work, "
        f"{report.total_downtime_s:.1f} s unshadowed downtime)"
    )
    restore = (
        f", mean time-to-restore {report.mean_time_to_restore_s:.0f} s"
        if report.mean_time_to_restore_s is not None
        else ""
    )
    print(
        f"failures: {len(report.failures)} "
        f"({report.restored_count} restored{restore})"
    )
    if report.mean_compliance is not None:
        attainment = report.slo_attainment(target=0.99)
        attained = sum(1 for v in attainment.values() if v >= 1.0 - 1e-12)
        worst_sid = min(attainment, key=lambda sid: attainment[sid])
        print(
            f"compliance: mean {100 * report.mean_compliance:.2f}%, "
            f"min {100 * report.min_compliance:.2f}%; "
            f"tenants fully >=99%-compliant: {attained}/{len(attainment)} "
            f"(worst: {worst_sid} in "
            f"{100 * attainment[worst_sid]:.0f}% of its intervals)"
        )
    if args.trace:
        ctrl.obs.tracer.write_chrome(args.trace)
        print(f"trace: {args.trace} ({len(ctrl.obs.tracer.spans)} spans, "
              "Chrome trace_event JSON)")
    if args.trace_jsonl:
        ctrl.obs.tracer.write_jsonl(args.trace_jsonl)
        print(f"trace: {args.trace_jsonl} "
              f"({len(ctrl.obs.tracer.spans)} spans, JSONL)")
    if args.resume:
        print(f"resumed: {args.resume} (recorded intervals replayed and "
              "verified against their fingerprints)")
    if args.checkpoint:
        print(f"run record: {args.checkpoint} "
              f"(flushed every {args.checkpoint_every or 1} interval(s))")
    checks = "state round-trip + cluster mirror"
    if args.verify:
        checks += " + fast-vs-naive replay"
    print(f"identity: {checks} OK on every interval")
    return 0


def _add_geometry_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--geometry",
        default="mig",
        help=(
            "partition geometry of the fleet: "
            f"{', '.join(available_geometries())}, or '{MIXED_GEOMETRY}' "
            "for a heterogeneous A100+MI300X cluster (default: mig)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parvagpu", description="ParvaGPU reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="schedule an evaluation scenario")
    p.add_argument("--scenario", default="S2")
    p.add_argument("--framework", default="parvagpu")
    _add_geometry_flag(p)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("experiment", help="regenerate paper tables/figures")
    p.add_argument("ids", nargs="*",
                   help="experiment ids (default: every experiment)")
    p.add_argument("--chart", action="store_true",
                   help="render as terminal bars/series instead of a table")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("profile", help="print a workload's profile table")
    p.add_argument("model")
    _add_geometry_flag(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "scenarios",
        help="list every registered scenario with loads and geometries",
    )
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser(
        "ops", help="drive a fleet-operations scenario (S12-S16)"
    )
    p.add_argument("--scenario", default="S13")
    p.add_argument(
        "--measure", type=float, default=0.25,
        help="seconds of serving simulated per interval (0 disables; "
        "default: %(default)s)",
    )
    p.add_argument("--warmup", type=float, default=0.1)
    p.add_argument(
        "--seed", type=int, default=None,
        help="timeline + controller + simulation seed (default: the "
        "scenario's committed seed)",
    )
    p.add_argument(
        "--horizon", type=float, default=None,
        help="truncate the run at this simulated time (default: the "
        "scenario's full horizon)",
    )
    p.add_argument(
        "--engine", choices=("fast", "naive"), default="fast",
        help="fast: indexed allocator + memoized configurator + "
        "batch-granularity simulator (default); naive: the reference "
        "machinery (identical results, reference baseline)",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="replay the identical timeline on the naive reference and "
        "assert per-interval fingerprint identity",
    )
    p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="export the run's decision-path span tree as Chrome "
        "trace_event JSON (loadable in Perfetto / chrome://tracing); "
        "byte-identical across replays of the same scenario",
    )
    p.add_argument(
        "--trace-jsonl", default=None, dest="trace_jsonl", metavar="FILE",
        help="export the span tree as JSON Lines, one span per line "
        "(same determinism contract as --trace)",
    )
    p.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="append the run's record to FILE: a header, then one "
        "checksummed line per interval (fingerprint and measurement), "
        "flushed every --checkpoint-every intervals",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=0, dest="checkpoint_every",
        metavar="N",
        help="run-record flush cadence in intervals (0 = every interval; "
        "requires --checkpoint)",
    )
    p.add_argument(
        "--resume", default=None, metavar="FILE",
        help="resume an interrupted run from its --checkpoint record: the "
        "recorded intervals are replayed and checked against their "
        "fingerprints, then the run continues (appending to FILE when "
        "--checkpoint names it); the report is bit-identical to an "
        "uninterrupted run",
    )
    p.set_defaults(func=_cmd_ops)

    p = sub.add_parser(
        "serve",
        help="run the live-serving gateway (async control loop + status "
        "endpoint) over an ops scenario",
    )
    p.add_argument("--scenario", default="S16")
    p.add_argument(
        "--clock", choices=("real", "virtual"), default="real",
        help="real: live session on the monotonic clock (default); "
        "virtual: deterministic replay, bit-identical to the offline "
        "FleetController",
    )
    p.add_argument(
        "--time-scale", type=float, default=60.0, dest="time_scale",
        help="scenario seconds per real second under the real clock "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--deadline", type=float, default=0.25,
        help="per-step deadline budget in real seconds: full re-plans "
        "lagging further than this are deferred and coalesced "
        "(default: %(default)s)",
    )
    p.add_argument("--measure", type=float, default=0.25,
                   help="seconds of serving simulated per interval "
                   "(0 disables; default: %(default)s)")
    p.add_argument("--warmup", type=float, default=0.1)
    p.add_argument(
        "--seed", type=int, default=None,
        help="timeline + controller + simulation seed (default: the "
        "scenario's committed seed)",
    )
    p.add_argument(
        "--horizon", type=float, default=None,
        help="truncate the session at this scenario time (default: the "
        "scenario's full horizon)",
    )
    p.add_argument(
        "--port", type=int, default=0,
        help="status endpoint port (default: 0 = ephemeral)",
    )
    p.add_argument(
        "--no-status", action="store_true", dest="no_status",
        help="disable the local HTTP status endpoint",
    )
    p.add_argument(
        "--stdin", action="store_true",
        help="consume line-delimited JSON events from stdin instead of "
        "the scenario's scripted driver (the scenario still provides "
        "the base fleet and horizon)",
    )
    p.add_argument(
        "--journal", default=None, metavar="DIR",
        help="write-ahead journal directory: every admitted intake "
        "event is persisted in wire format before use — the session's "
        "one record, replayable bit-identically",
    )
    p.add_argument(
        "--check-offline", action="store_true", dest="check_offline",
        help="after the session, replay its journal through the "
        "virtual-clock gateway and assert per-interval fingerprint "
        "identity against the offline FleetController (requires "
        "--journal DIR, an empty directory)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("simulate", help="simulate serving a scenario")
    p.add_argument("--scenario", default="S2")
    p.add_argument("--framework", default="parvagpu")
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arrivals", choices=("uniform", "poisson"), default="uniform")
    p.add_argument(
        "--engine",
        choices=("fast", "event"),
        default="fast",
        help="simulation engine: the batch-granularity fast path (default) "
        "or the per-request discrete-event reference",
    )
    _add_geometry_flag(p)
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
