"""The typed execution event record and its renderings.

Four trace lines are reached by no seeded run of the golden suite
(``tests/test_event_golden.py``); each is rendered here directly and
compared with the line the step prints.
"""

from __future__ import annotations

import pytest

from repro.core.runtime import ExecutionReport
from repro.core.runtime.events import Event, EventKind, of_kind
from repro.manager.trace import phase_timeline

RARE_LINES = [
    (
        Event(41.0, EventKind.PARTIAL_LOST, "computer[3,g1]", {}),
        "computer[3,g1] offline, partial lost",
    ),
    (
        Event(30.2, EventKind.NO_FEATURE_ROWS, "computer[2,g0]", {}),
        "computer[2,g0] received no usable feature rows",
    ),
    (
        Event(70.0, EventKind.DEGRADED, "combiner-backup", {"covered": 1, "total": 2}),
        "combiner-backup: quorum unreachable, emitting degraded partial result "
        "(1/2 groups covered)",
    ),
    (
        Event(100.0, EventKind.NO_KNOWLEDGES, "combiner", {}),
        "combiner: no knowledges received, cannot finalize",
    ),
]


@pytest.mark.parametrize(
    "event,line", RARE_LINES, ids=[event.kind.name for event, _ in RARE_LINES]
)
def test_a_step_no_seeded_run_reaches_renders_its_line(event, line):
    assert event.render() == line


def _report(*events: Event) -> ExecutionReport:
    report = ExecutionReport(query_id="events-q")
    report.events.extend(events)
    return report


FROZEN = Event(20.0, EventKind.SNAPSHOT_FROZEN, "builder[0]", {"rows": 3})
ARRIVED = Event(
    20.5, EventKind.PARTIAL_ARRIVED, "combiner",
    {"cell": (0, 0), "sender": "p-1", "generation": 0, "disposition": "accepted"},
)
REPROVISIONED = Event(
    31.0, EventKind.REPROVISIONED, "computer[1,g0]",
    {"old": None, "new": "p-2", "generation": 2},
)


class TestRenderings:
    def test_trace_renders_every_kind_with_a_template_in_order(self):
        report = _report(FROZEN, ARRIVED, REPROVISIONED)
        assert ARRIVED.render() is None
        assert report.trace == [
            (20.0, "builder[0] snapshot frozen: 3 rows"),
            (
                31.0,
                "watchdog: reprovisioned computer[1,g0] from None to standby p-2 "
                "at generation 2",
            ),
        ]

    def test_reprovisions_render_the_reprovisioned_events(self):
        report = _report(FROZEN, REPROVISIONED)
        assert report.reprovisions == [(31.0, "computer[1,g0]", "?", "p-2")]

    def test_of_kind_keeps_the_order_of_events(self):
        events = [FROZEN, ARRIVED, REPROVISIONED]
        assert of_kind(events, EventKind.REPROVISIONED, EventKind.SNAPSHOT_FROZEN) == [
            FROZEN, REPROVISIONED,
        ]


class TestPhaseTimeline:
    def test_first_freeze_and_first_partial_or_kmeans_init(self):
        lost = Event(20.4, EventKind.PARTIAL_LOST, "computer[0,g0]", {})
        init = Event(20.6, EventKind.KMEANS_INIT, "computer[1,g0]", {"points": 4})
        report = _report(ARRIVED, FROZEN, lost, init, FROZEN)
        report.completion_time = 70.0
        assert phase_timeline(report) == {
            "collection_end": 20.0,
            "computation_start": 20.4,
            "completion": 70.0,
        }

    def test_a_phase_that_never_happened_is_none(self):
        degraded = Event(70.0, EventKind.DEGRADED, "combiner", {"covered": 0, "total": 1})
        assert phase_timeline(_report(degraded)) == {
            "collection_end": None,
            "computation_start": None,
            "completion": None,
        }
