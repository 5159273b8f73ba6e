"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.manager.scenario import Scenario


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.command == "plan"
        assert args.cardinality == 2000

    def test_separate_pairs_parsing(self):
        args = build_parser().parse_args(["plan", "--separate", "age,bmi;age,zipcode"])
        assert args.separate == (("age", "bmi"), ("age", "zipcode"))

    def test_separate_pairs_malformed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--separate", "age"])

    def test_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--strategy", "quorum"])

    @pytest.mark.parametrize(
        "command", ["plan", "run", "explain", "workload", "continuous", "chaos"]
    )
    def test_engine_flag_is_gone(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--engine", "row"])


class TestCommands:
    def test_resiliency_table(self, capsys):
        assert main(["resiliency", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "fault rate" in out
        assert "P(success)" in out
        assert out.count("\n") >= 8

    def test_plan_command(self, capsys):
        code = main([
            "plan", "--cardinality", "500", "--max-raw", "100",
            "--fault-rate", "0.2", "--contributors", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "QEP cli-plan" in out
        assert "Snapshot Builders" in out

    def test_plan_with_separation(self, capsys):
        code = main([
            "plan", "--separate", "age,bmi", "--contributors", "5",
        ])
        assert code == 0
        assert "vertical groups" in capsys.readouterr().out

    def test_run_command(self, capsys):
        code = main([
            "run", "--contributors", "30", "--processors", "15",
            "--rows", "60", "--cardinality", "50", "--max-raw", "20",
            "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SUCCESS" in out
        assert "verification" in out

    def test_run_with_reliability(self, capsys):
        code = main([
            "run", "--contributors", "30", "--processors", "15",
            "--rows", "60", "--cardinality", "50", "--max-raw", "20",
            "--seed", "3", "--message-loss", "0.2", "--reliability",
            "--phase-deadline", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SUCCESS" in out
        assert "reliability:" in out

    def test_run_with_plan_display(self, capsys):
        code = main([
            "run", "--contributors", "20", "--processors", "12",
            "--rows", "40", "--cardinality", "30", "--max-raw", "15",
            "--show-plan", "--seed", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "QEP cli-run" in out

    def test_run_backup_strategy(self, capsys):
        code = main([
            "run", "--contributors", "20", "--processors", "20",
            "--rows", "40", "--cardinality", "80", "--max-raw", "50",
            "--strategy", "backup", "--seed", "5",
        ])
        assert code == 0
        assert "SUCCESS" in capsys.readouterr().out

    def test_kmeans_command(self, capsys):
        code = main([
            "kmeans", "--contributors", "40", "--processors", "15",
            "--rows", "80", "--cardinality", "60", "--k", "2",
            "--heartbeats", "3", "--max-raw", "30", "--seed", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "centroid (" in out

    def test_advise_command(self, capsys):
        code = main(["advise", "--distributive", "--iterative",
                     "--n", "8", "--fault-rate", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy: overcollection" in out
        assert "heartbeat execution: True" in out

    def test_advise_backup(self, capsys):
        code = main(["advise", "--n", "4"])
        assert code == 0
        assert "strategy: backup" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--fault-rate", "1.2"],
            ["plan", "--separate", "region,age"],
            ["resiliency", "--target-success", "1.5"],
            ["resiliency", "--n", "0"],
            ["explain", "--max-raw", "0"],
            ["advise", "--distributive", "--fault-rate", "1.5"],
            ["plan", "--sql", "SELEC count(*) FROM health"],
            ["workload", "--deadline", "3"],
            ["workload", "--queries", "0"],
            ["workload", "--cardinality", "0"],
            ["workload", "--reliability", "--standbys", "-1", "--queries", "2"],
            ["continuous", "--cadence", "1"],
            ["continuous", "--churn", "2"],
            ["continuous", "--arrival-rate", "-1"],
            ["run", "--contributors", "0"],
            ["run", "--message-loss", "1.5"],
            ["run", "--max-raw", "0"],
            ["run", "--fault-rate", "1.5"],
            ["run", "--rows", "-1"],
            ["kmeans", "--k", "0"],
            ["kmeans", "--heartbeats", "0"],
            ["chaos", "--workload", "0"],
            ["chaos", "--runs", "0"],
            ["chaos", "--runs", "-5"],
            ["chaos", "--runs", "1", "--shrink-budget", "-1"],
            ["chaos", "--runs", "1", "--failure-probability", "0,1.5"],
        ],
        ids=" ".join,
    )
    def test_rejected_planning_parameter_exits_2(self, capsys, argv):
        """Every command: a value the library rejects (a SpecError or a
        PlanningError) is one ``{command}: why`` line and exit 2, with
        nothing on stdout and no traceback."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{argv[0]}: ")
        assert captured.err.count("\n") == 1

    def test_a_bug_mid_run_still_propagates(self, monkeypatch):
        # exit 2 is for rejected values only: a plain ValueError from
        # inside a run is a bug and keeps its traceback
        def broken(self, compiled, **kwargs):
            raise ValueError("not a spec error")

        monkeypatch.setattr(Scenario, "run_compiled", broken)
        with pytest.raises(ValueError, match="not a spec error"):
            main(["run", "--contributors", "20", "--processors", "10"])

    @pytest.mark.parametrize("strategy", ["backup", "both"])
    def test_zero_replica_backup_exits_2(self, capsys, strategy):
        """A Backup plan without a replica has no resiliency at all."""
        argv = [
            "chaos", "--runs", "1", "--strategy", strategy,
            "--backup-replicas", "0",
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("--backup-replicas: ")
        assert captured.err.count("\n") == 1

    def test_run_with_order_and_limit(self, capsys):
        code = main([
            "run", "--contributors", "30", "--processors", "15",
            "--rows", "60", "--cardinality", "120", "--max-raw", "70",
            "--seed", "3",
            "--sql",
            "SELECT count(*) AS n FROM health GROUP BY region "
            "ORDER BY n DESC LIMIT 2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "presented (ORDER BY / LIMIT applied):" in out

    def test_run_metrics_out_writes_jsonl(self, capsys, tmp_path):
        from repro.telemetry import read_jsonl

        path = tmp_path / "metrics.jsonl"
        code = main([
            "run", "--contributors", "30", "--processors", "15",
            "--rows", "60", "--cardinality", "50", "--max-raw", "20",
            "--seed", "3", "--metrics-out", str(path),
        ])
        assert code == 0
        assert f"records written to {path}" in capsys.readouterr().out
        records = read_jsonl(path)
        assert records[0]["type"] == "header"
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert "phase:collection" in span_names

    def test_run_telemetry_summary_printed(self, capsys):
        code = main([
            "run", "--contributors", "30", "--processors", "15",
            "--rows", "60", "--cardinality", "50", "--max-raw", "20",
            "--seed", "3", "--telemetry",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "net.messages_delivered" in out

    def test_kmeans_metrics_out(self, tmp_path):
        from repro.telemetry import read_jsonl

        path = tmp_path / "kmeans.jsonl"
        code = main([
            "kmeans", "--contributors", "40", "--processors", "15",
            "--rows", "80", "--cardinality", "60", "--k", "2",
            "--heartbeats", "3", "--max-raw", "30", "--seed", "6",
            "--metrics-out", str(path),
        ])
        assert code == 0
        records = read_jsonl(path)
        heartbeats = [
            r for r in records
            if r["type"] == "event" and r["name"] == "heartbeat"
        ]
        assert heartbeats

    def test_run_with_hist_aggregate(self, capsys):
        code = main([
            "run", "--contributors", "30", "--processors", "15",
            "--rows", "60", "--cardinality", "120", "--max-raw", "70",
            "--seed", "3",
            "--sql", "SELECT hist(age, 0, 110, 11) AS ages FROM health",
        ])
        assert code == 0
        assert "ages" in capsys.readouterr().out


class TestWorkloadCommand:
    def test_workload_defaults_parse(self):
        args = build_parser().parse_args(["workload"])
        assert args.command == "workload"
        assert args.queries == 10
        assert args.arrival == "poisson"

    def test_workload_rejects_unknown_arrival(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "--arrival", "bursty"])

    def test_workload_command_runs(self, capsys):
        code = main([
            "workload", "--queries", "5", "--arrival", "poisson",
            "--rate", "2", "--max-concurrent", "3", "--contributors", "24",
            "--processors", "40", "--seed", "7", "--per-query",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "arrivals" in out
        assert "completed" in out
        assert "wl7-q000" in out
        assert "throughput=" in out
        assert "crowd liability: " in out

    def test_workload_serial_check(self, capsys):
        code = main([
            "workload", "--queries", "4", "--arrival", "uniform",
            "--rate", "3", "--max-concurrent", "3", "--contributors", "24",
            "--processors", "40", "--seed", "5", "--serial-check",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serial equivalence: " in out
        assert "byte-identical" in out

    def test_workload_closed_loop(self, capsys):
        code = main([
            "workload", "--queries", "4", "--arrival", "closed",
            "--in-flight", "2", "--max-concurrent", "3",
            "--contributors", "24", "--processors", "40", "--seed", "2",
        ])
        assert code == 0
        assert "arrival=closed" in capsys.readouterr().out

    def test_chaos_workload_mode(self, capsys):
        code = main([
            "chaos", "--workload", "3", "--seed", "1",
            "--failure-probability", "0.0", "--processors", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos workload:" in out
        assert "wl1-q000" in out
        assert "all invariants held for every query" in out

    @pytest.mark.parametrize(
        "command",
        [
            ["chaos", "--workload", "3", "--processors", "40"],
            ["continuous", "--windows", "3"],
            ["continuous", "--windows", "3", "--check-invariants"],
        ],
    )
    def test_outage_knobs_resolve_over_the_processor_pool(
        self, capsys, monkeypatch, command
    ):
        scenarios = []
        install = Scenario.install_chaos

        def spying_install(self, until):
            scenarios.append(self)
            return install(self, until)

        monkeypatch.setattr(Scenario, "install_chaos", spying_install)
        code = main([*command, "--fault-mix", "drop=0.1;partition=0.5,gray=0.3"])
        assert code == 0
        kinds = {e.kind for s in scenarios for e in s.failure_events()}
        assert {"partition_start", "gray_start"} <= kinds
        capsys.readouterr()

        assert main([*command, "--fault-mix", "warp=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("--fault-mix: ")
        assert captured.err.count("\n") == 1

    def test_chaos_workload_forwards_the_recovery_flags(self, monkeypatch):
        import repro.chaos.workload as chaos_workload

        engines = []

        class SpyEngine(chaos_workload.WorkloadEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(chaos_workload, "WorkloadEngine", SpyEngine)
        code = main([
            "chaos", "--workload", "3", "--seed", "1", "--processors", "40",
            "--failure-probability", "0.0", "--reliability", "--detector",
            "--phase-deadline", "9",
        ])
        assert code == 0
        config = engines[0].scenario_config
        assert config.reliability
        assert config.detector
        assert config.phase_deadline == 9.0

    @pytest.mark.parametrize(
        "command, flags, option",
        [
            (["run"], ["--detector"], "detector"),
            (["run"], ["--phase-deadline", "30"], "phase_deadline"),
            (["chaos", "--runs", "1"], ["--detector"], "detector"),
            (["chaos", "--workload", "2"], ["--phase-deadline", "30"],
             "phase_deadline"),
        ],
    )
    def test_recovery_option_without_reliability_exits_2(
        self, capsys, command, flags, option
    ):
        assert main([*command, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{option} requires reliability\n"

    @pytest.mark.parametrize(
        "command, value",
        [
            (["run"], "-5"),
            (["chaos", "--runs", "1"], "0"),
            (["chaos", "--workload", "2"], "-5"),
        ],
    )
    def test_non_positive_phase_deadline_exits_2(self, capsys, command, value):
        # rejected with the other recovery flags, before any scenario
        # is built — not by a traceback midway through the run
        code = main([*command, "--reliability", "--phase-deadline", value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "phase_deadline must be positive\n"

    @pytest.mark.parametrize(
        "command", [["chaos", "--runs", "1"], ["chaos", "--workload", "4"]]
    )
    def test_negative_validity_tolerance_exits_2(self, capsys, command):
        # no relative error passes a negative bound: refused before any
        # run, not reported as a violation of every run
        assert main([*command, "--validity-tolerance", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "chaos: validity_tolerance must be finite and non-negative, got -1.0\n"
        )

    @pytest.mark.parametrize(
        "command",
        [["workload", "--queries", "2"], ["continuous", "--windows", "2"]],
    )
    def test_standbys_without_reliability_exits_2(self, capsys, command):
        # the engines lease no spares for an unreliable run, so the flag
        # would be silently inert
        assert main([*command, "--standbys", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--standbys requires --reliability\n"

    def test_unknown_fault_knob_exits_2(self, capsys):
        code = main(["run", "--fault-mix", "warp=0.5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("--fault-mix: ")

    def test_chaos_workload_with_faults(self, capsys):
        code = main([
            "chaos", "--workload", "3", "--seed", "7",
            "--failure-probability", "0.004", "--processors", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "clean=False" in out
