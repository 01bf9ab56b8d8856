"""Tests for the ``parvagpu`` CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule"])
        assert args.scenario == "S2"
        assert args.framework == "parvagpu"

    def test_simulate_arrival_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--arrivals", "bursty"])


class TestCommands:
    def test_schedule_prints_map(self, capsys):
        assert main(["schedule", "--scenario", "S1"]) == 0
        out = capsys.readouterr().out
        assert "GPUs" in out and "GPU 0:" in out

    def test_schedule_infeasible_returns_error(self, capsys):
        assert main(["schedule", "--scenario", "S5", "--framework", "igniter"]) == 1
        assert "infeasible" in capsys.readouterr().err

    def test_profile_lists_points(self, capsys):
        assert main(["profile", "mobilenetv2"]) == 0
        out = capsys.readouterr().out
        assert "operating points" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "ParvaGPU" in capsys.readouterr().out

    def test_simulate_s1(self, capsys):
        assert (
            main(["simulate", "--scenario", "S1", "--duration", "1.0"]) == 0
        )
        out = capsys.readouterr().out
        assert "SLO compliance" in out

    def test_scenarios_lists_registry(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("S1", "S6", "S9", "S12", "S13", "S14", "S15"):
            assert f"\n{name} " in out or out.startswith(f"{name} ")
        assert "mig,mi300x,mixed" in out

    def test_scenarios_describes_ops_fleets(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "Tenant-churn fleet: 100 base services" in out
        assert "10k-service chaos week: 10000 services" in out

    def test_ops_runs_truncated_s12(self, capsys):
        assert (
            main(["ops", "--scenario", "s12", "--horizon", "3000",
                  "--measure", "0.1"]) == 0
        )
        out = capsys.readouterr().out
        assert "S12: 100 services" in out
        assert "identity: state round-trip" in out
        assert "compliance: mean" in out

    def test_ops_unknown_scenario(self, capsys):
        assert main(["ops", "--scenario", "s99"]) == 2
        assert "unknown ops scenario" in capsys.readouterr().err

    def test_ops_bad_horizon_is_clean_error(self, capsys):
        for horizon in ("0", "nan", "inf"):
            assert main(["ops", "--scenario", "s12", "--horizon", horizon,
                         "--measure", "0"]) == 2
            assert "horizon must be positive and finite" in (
                capsys.readouterr().err
            )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--duration", "0.1"], "exceed warmup"),
            (["--duration", "inf"], "exceed warmup"),
            (["--duration", "nan"], "exceed warmup"),
            (["--engine", "event", "--duration", "nan"], "exceed warmup"),
        ],
        ids=["duration-within-warmup", "duration-inf", "duration-nan",
             "event-duration-nan"],
    )
    def test_simulate_bad_window_is_clean_error(self, capsys, argv, message):
        assert main(["simulate", "--scenario", "S1", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_ops_engine_conflicts_with_verify(self, capsys):
        assert (
            main(["ops", "--scenario", "s12", "--engine", "naive",
                  "--verify"]) == 2
        )
        assert "--engine cannot be combined" in capsys.readouterr().err

    def test_ops_verify_replays_naive(self, capsys):
        assert (
            main(["ops", "--scenario", "s14", "--horizon", "7500",
                  "--measure", "0.1", "--verify"]) == 0
        )
        out = capsys.readouterr().out
        assert "fast-vs-naive replay" in out

    def test_ops_verify_s12_reports_fields(self, capsys):
        assert (
            main(["ops", "--scenario", "s12", "--horizon", "3000",
                  "--measure", "0.1", "--verify"]) == 0
        )
        out = capsys.readouterr().out
        assert "S12: 100 services" in out
        assert "fast-vs-naive replay" in out
        assert "compliance: mean" in out
        assert "fleet: peak" in out

    def test_experiment_module_main(self, capsys):
        from repro.experiments.__main__ import main as exp_main

        assert exp_main(["fig1"]) == 0
        assert "19 configurations" in capsys.readouterr().out
        assert exp_main(["nope"]) == 2


class TestServeGateway:
    def test_serve_virtual_replay_with_identity_check(self, capsys, tmp_path):
        assert (
            main(["serve", "--scenario", "s12", "--clock", "virtual",
                  "--horizon", "3000", "--measure", "0.1",
                  "--journal", str(tmp_path / "journal"),
                  "--check-offline"]) == 0
        )
        out = capsys.readouterr().out
        assert "virtual replay" in out
        assert "session:" in out
        assert "matches the offline FleetController" in out

    def test_serve_live_session_records_and_verifies(self, capsys, tmp_path):
        journal = tmp_path / "journal"
        assert (
            main(["serve", "--scenario", "s12", "--horizon", "600",
                  "--time-scale", "3000", "--measure", "0.05",
                  "--no-status", "--journal", str(journal),
                  "--check-offline"]) == 0
        )
        out = capsys.readouterr().out
        assert "live x3000" in out
        from repro.scenarios.ops import ops_run
        from repro.serve import read_journal

        events = read_journal(journal).events
        scripted = [e for e in ops_run("s12").timeline if e.time_s < 600.0]
        assert events == scripted
        assert f"journal: {len(events)} events" in out
        assert (
            f"replay of the {len(events)} journaled events matches the "
            "offline FleetController" in out
        )

    def test_serve_stdin_check_offline_replays_the_journal(
        self, capsys, monkeypatch, tmp_path
    ):
        """``--check-offline`` verifies the events a stdin session
        consumed — its journal — not the scenario's scripted timeline."""
        import repro.serve
        from repro.serve import decode_event, read_journal

        lines = [
            '{"kind": "RateEpoch", "time_s": 1.0, "service_id": '
            '"bert-large", "rate": 120.0}',
            '{"kind": "SloChange", "time_s": 5.0, "service_id": '
            '"bert-large", "slo_latency_ms": 0.5}',
        ]
        read_fd, write_fd = os.pipe()
        os.write(write_fd, ("\n".join(lines) + "\n").encode())
        os.close(write_fd)
        stdin = os.fdopen(read_fd)
        monkeypatch.setattr(sys, "stdin", stdin)
        checked = []
        real_check = repro.serve.replay_identity_checked

        def spy(services, timeline, *args, **kwargs):
            checked.append(list(timeline))
            return real_check(services, checked[-1], *args, **kwargs)

        monkeypatch.setattr(repro.serve, "replay_identity_checked", spy)
        journal = tmp_path / "journal"
        try:
            assert main(["serve", "--scenario", "S16", "--stdin",
                         "--clock", "virtual", "--no-status",
                         "--measure", "0", "--journal", str(journal),
                         "--check-offline"]) == 0
        finally:
            stdin.close()
        sent = [decode_event(line) for line in lines]
        assert read_journal(journal).events == sent
        assert checked == [sent]
        out = capsys.readouterr().out
        assert "S16: 100 services, events from stdin" in out
        assert "replay of the 2 journaled events matches" in out

    def test_serve_check_offline_requires_a_fresh_journal(
        self, capsys, tmp_path
    ):
        assert main(["serve", "--scenario", "s12", "--clock", "virtual",
                     "--check-offline"]) == 2
        assert "requires --journal DIR" in capsys.readouterr().err
        journal = tmp_path / "journal"
        args = ["serve", "--scenario", "s12", "--clock", "virtual",
                "--horizon", "300", "--measure", "0",
                "--journal", str(journal)]
        assert main(args) == 0
        capsys.readouterr()
        assert main([*args, "--check-offline"]) == 2
        assert "already holds segments" in capsys.readouterr().err

    def test_serve_has_no_checkpoint_or_record_flags(self):
        """The journal is a session's one record."""
        for flags in (["--checkpoint", "ck.json"], ["--checkpoint-every", "1"],
                      ["--record", "session.jsonl"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", *flags])

    def test_serve_live_serves_status_endpoint(self, capsys):
        assert (
            main(["serve", "--scenario", "s12", "--horizon", "300",
                  "--time-scale", "3000", "--measure", "0.05"]) == 0
        )
        out = capsys.readouterr().out
        assert "status: http://127.0.0.1:" in out

    def test_serve_unknown_scenario(self, capsys):
        assert main(["serve", "--scenario", "s99"]) == 2
        assert "unknown ops scenario" in capsys.readouterr().err

    def test_serve_bad_time_scale(self, capsys):
        for scale in ("0", "nan"):
            assert (
                main(["serve", "--scenario", "s12", "--time-scale", scale])
                == 2
            )
            assert "time scale must be positive and finite" in (
                capsys.readouterr().err
            )

    def test_serve_stdin_session_survives_refused_events(self):
        """Wire lines the decoder accepts but the fleet cannot honour (an
        SLO no operating point meets, a model nobody profiled) are
        skipped events, not a dead session; a malformed line ends the
        intake cleanly."""
        lines = [
            '{"kind": "RateEpoch", "time_s": 1.0, "service_id": '
            '"bert-large", "rate": 120.0}',
            '{"kind": "SloChange", "time_s": 5.0, "service_id": '
            '"bert-large", "slo_latency_ms": 0.5}',
            '{"kind": "ServiceArrival", "time_s": 6.0, "service_id": "x1", '
            '"model": "nope", "slo_latency_ms": 100.0, "request_rate": 10.0}',
            "not json",
        ]
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--scenario", "S16",
             "--stdin", "--clock", "virtual", "--no-status", "--measure", "0"],
            input="\n".join(lines) + "\n", capture_output=True, text=True,
            timeout=600, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "3 events applied" in proc.stdout

    def test_serve_default_scenario_is_s16(self):
        parser = build_parser()
        args = parser.parse_args(["serve"])
        assert args.scenario == "S16"
        assert args.clock == "real"
        assert args.deadline == 0.25

    def test_ops_has_no_gateway_session_flags(self, capsys):
        """Live sessions are ``serve --clock real``; ``ops`` rejects the
        gateway flags through argparse."""
        for flags in (["--live"], ["--time-scale", "3000"],
                      ["--journal", "j"]):
            with pytest.raises(SystemExit) as exc:
                main(["ops", "--scenario", "s12", *flags])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
