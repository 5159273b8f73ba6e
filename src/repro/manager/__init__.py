"""The Edgelet manager: scenario orchestration and verification.

The demonstration's software component (2) — "an Edgelet manager that
orchestrates executions and communications between simulated and real
edgelets".  Here everything is simulated; the manager

* builds a heterogeneous device swarm and deals the synthetic data out
  to the owners (:class:`~repro.manager.scenario.ScenarioConfig` /
  :class:`~repro.manager.scenario.Scenario`);
* plans, assigns, and executes queries end-to-end;
* renders step-by-step traces (:mod:`repro.manager.trace`);
* runs the centralized verification of the demo's Part 2
  (:mod:`repro.manager.verification`).
"""

from repro.manager.dashboard import render_plan, render_report, render_telemetry
from repro.manager.scenario import Scenario, ScenarioConfig, ScenarioResult
from repro.manager.trace import format_trace, phase_timeline
from repro.manager.verification import verify_against_centralized, VerificationOutcome

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
    "VerificationOutcome",
    "format_trace",
    "phase_timeline",
    "render_plan",
    "render_report",
    "render_telemetry",
    "verify_against_centralized",
]
