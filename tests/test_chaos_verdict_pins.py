"""Per-unit chaos verdicts of the CI chaos shapes, pinned.

Each multi-query chaos command below is driven through the CLI, and the
outcome its judge produced is captured: per unit the id, the outcome,
success, degraded and the invariants that fired, plus the run's clean
verdict.  The pins were taken when the judge still read each unit's
live executor after the run; a concluded unit now keeps only its
report, plan and :class:`~repro.core.runtime.ExecutionEvidence`, so
equal tables show that judging from the concluded evidence judges
exactly as judging from the live execution did.
"""

from __future__ import annotations

import repro.chaos
from repro.cli import main


def _verdicts(monkeypatch, capsys, runner: str, argv: list[str]):
    """Run ``argv`` through the CLI; returns (exit code, clean, table)."""
    captured = []
    run = getattr(repro.chaos, runner)

    def capture(*args, **kwargs):
        captured.append(run(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(repro.chaos, runner, capture)
    code = main(argv)
    capsys.readouterr()
    (outcome,) = captured
    table = [
        (
            unit.unit_id,
            unit.outcome,
            unit.success,
            unit.degraded,
            tuple(violation.invariant for violation in unit.violations),
        )
        for unit in outcome.units
    ]
    return code, outcome.clean, table


def _all_held(ids: list[str]) -> list[tuple]:
    return [(unit_id, "completed", True, False, ()) for unit_id in ids]


class TestChaosVerdictPins:
    def test_workload_under_failure_slider_crashes(self, monkeypatch, capsys):
        assert _verdicts(
            monkeypatch, capsys, "run_workload",
            ["chaos", "--workload", "10", "--seed", "7",
             "--failure-probability", "0.002", "--processors", "120"],
        ) == (0, False, _all_held([f"wl7-q{i:03d}" for i in range(10)]))

    def test_reliable_workload_under_message_and_outage_faults(
        self, monkeypatch, capsys
    ):
        assert _verdicts(
            monkeypatch, capsys, "run_workload",
            ["chaos", "--workload", "6", "--processors", "60",
             "--reliability", "--detector",
             "--fault-mix", "drop=0.05;partition=0.3,gray=0.2"],
        ) == (
            0,
            False,
            [
                ("wl0-q000", "completed", False, False, ()),
                ("wl0-q001", "completed", True, False, ()),
                ("wl0-q002", "completed", False, False, ()),
                ("wl0-q003", "completed", True, False, ()),
                ("wl0-q004", "completed", True, False, ()),
                ("wl0-q005", "completed", True, False, ()),
            ],
        )

    def test_standing_soak_with_invariant_checks(self, monkeypatch, capsys):
        assert _verdicts(
            monkeypatch, capsys, "run_soak",
            ["continuous", "--windows", "15", "--churn", "0.10",
             "--data-change", "0.20", "--cardinality", "192",
             "--fault-mix", "drop=0.05", "--reliability", "--standbys", "2",
             "--check-invariants", "--seed", "7"],
        ) == (0, False, _all_held([f"cont7-w{i:03d}" for i in range(15)]))
