"""Rewording a trace line moves no fingerprint.

Report and window fingerprints hash each execution step as its typed
record (time, kind, operator, fields), not as the prose line the step
renders to.  Each test runs the same seeded execution twice, once with
one template reworded, and compares what the two runs pin.
"""

from __future__ import annotations

from repro.chaos.campaign import RunSpec, run_single
from repro.continuous import ContinuousEngine, StandingQuerySpec
from repro.core.runtime.events import Event, EventKind
from repro.telemetry import Telemetry
from repro.workload.fingerprint import report_fingerprint

_render = Event.render


def _reworded(event: Event) -> str | None:
    if event.kind is EventKind.SNAPSHOT_FROZEN:
        return f"{event.op} froze {event.fields['rows']} rows"
    return _render(event)


def _report():
    result = run_single(RunSpec(seed=2, tag="wording")).result
    return result.report, result.evidence.start_time


def _windows():
    engine = ContinuousEngine(
        StandingQuerySpec(max_windows=3, seed=2),
        n_contributors=20, n_processors=40, telemetry=Telemetry(),
    )
    return engine.run().fingerprints()


def test_report_fingerprint_ignores_wording(monkeypatch):
    report, start = _report()
    pinned = report_fingerprint(report, base_time=start)
    trace = report.trace
    monkeypatch.setattr(Event, "render", _reworded)
    assert report.trace != trace
    assert report_fingerprint(report, base_time=start) == pinned
    reworded, start = _report()
    assert reworded.trace == report.trace
    assert report_fingerprint(reworded, base_time=start) == pinned


def test_window_fingerprints_ignore_wording(monkeypatch):
    pinned = _windows()
    monkeypatch.setattr(Event, "render", _reworded)
    assert pinned
    assert _windows() == pinned
