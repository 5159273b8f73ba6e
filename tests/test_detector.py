"""Unit tests for the φ-accrual failure detector.

The detector is pure bookkeeping over (virtual-time, outcome) evidence:
no RNG, no timers, no imports from the transport feeding it.  These
tests pin the accrual behaviour — warm-up, suspicion growth under
silence, adaptation to slow-but-regular peers, the negative-evidence
boost, and history lifecycle.
"""

from __future__ import annotations

import pytest

from repro.core.runtime import detector as phi
from repro.core.runtime.detector import PhiAccrualDetector


def _fed(detector: PhiAccrualDetector, device: str, times) -> float:
    """Feed a regular ack train; returns the last arrival time."""
    last = 0.0
    for last in times:
        detector.observe_ack(device, last)
    return last


class TestConstants:
    def test_constants_equal_the_defaults_they_replaced(self):
        assert (
            phi.PHI_THRESHOLD,
            phi.HISTORY_WINDOW,
            phi.MIN_STD,
            phi.ACCEPTABLE_PAUSE,
            phi.FAILURE_BOOST,
            phi.MIN_SAMPLES,
        ) == (8.0, 32, 0.5, 2.0, 3.0, 2)


class TestPhi:
    def test_unknown_device_has_zero_phi(self):
        detector = PhiAccrualDetector()
        assert detector.phi("ghost", now=100.0) == 0.0
        assert not detector.suspect("ghost", now=100.0)

    def test_warm_up_needs_min_samples_intervals(self):
        detector = PhiAccrualDetector()  # MIN_SAMPLES == 2
        detector.observe_ack("d", 1.0)
        detector.observe_ack("d", 2.0)  # one interval so far
        assert detector.phi("d", now=500.0) == 0.0
        detector.observe_ack("d", 3.0)  # second interval: armed
        assert detector.phi("d", now=500.0) > 0.0

    def test_phi_grows_monotonically_with_silence(self):
        detector = PhiAccrualDetector()
        last = _fed(detector, "d", [i * 2.0 for i in range(10)])
        values = [detector.phi("d", last + gap) for gap in (1.0, 10.0, 30.0, 60.0)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_fresh_ack_resets_suspicion(self):
        detector = PhiAccrualDetector()
        last = _fed(detector, "d", [i * 2.0 for i in range(10)])
        assert detector.suspect("d", last + 60.0)
        detector.observe_ack("d", last + 60.0)
        assert not detector.suspect("d", last + 60.5)

    def test_slow_but_regular_peer_is_not_suspected(self):
        # the adaptivity claim: a device acking every 10s stretches its
        # own distribution, so the silence that damns a 1s-cadence peer
        # leaves the slow one under threshold
        fast = PhiAccrualDetector()
        slow = PhiAccrualDetector()
        fast_last = _fed(fast, "d", [i * 1.0 for i in range(20)])
        slow_last = _fed(slow, "d", [i * 10.0 for i in range(20)])
        gap = 16.0
        assert fast.suspect("d", fast_last + gap)
        assert not slow.suspect("d", slow_last + gap)

    def test_min_std_floors_identical_intervals(self):
        # a perfectly periodic train must not become hair-triggered: the
        # std floor keeps φ finite just past the expected arrival
        detector = PhiAccrualDetector()  # MIN_STD == 0.5
        last = _fed(detector, "d", [i * 2.0 for i in range(20)])
        level = detector.phi("d", last + 2.1)
        assert 0.0 < level < phi.PHI_THRESHOLD

    def test_acceptable_pause_shifts_the_expectation(self, tune_detector):
        detector = PhiAccrualDetector()
        last = _fed(detector, "d", [i * 2.0 for i in range(10)])
        tune_detector(ACCEPTABLE_PAUSE=0.0)
        strict = detector.phi("d", last + 8.0)
        tune_detector(ACCEPTABLE_PAUSE=5.0)
        lenient = detector.phi("d", last + 8.0)
        assert lenient < strict


class TestNegativeEvidence:
    def test_failure_streak_boosts_suspicion(self):
        detector = PhiAccrualDetector()  # FAILURE_BOOST == 3.0
        last = _fed(detector, "d", [i * 2.0 for i in range(10)])
        base = detector.suspicion("d", last + 1.0)
        detector.observe_failure("d")
        detector.observe_failure("d")
        assert detector.suspicion("d", last + 1.0) == pytest.approx(base + 6.0)

    def test_streak_alone_can_cross_the_threshold(self):
        # a device with no arrival history yet is still suspectable
        # through conclusive negative evidence (failed probes)
        detector = PhiAccrualDetector()
        for _ in range(3):
            detector.observe_failure("d")
        assert detector.suspect("d", now=10.0)

    def test_ack_clears_the_streak(self):
        detector = PhiAccrualDetector()
        for _ in range(5):
            detector.observe_failure("d")
        detector.observe_ack("d", 10.0)
        assert detector.suspicion("d", 10.0) == 0.0

    def test_on_link_event_routing(self):
        detector = PhiAccrualDetector()
        detector.on_link_event("a", "b", "acked", 0.2, now=1.0)
        detector.on_link_event("a", "b", "gave_up", None, now=2.0)
        detector.on_link_event("a", "b", "peer_dead", None, now=3.0)
        assert detector.suspicion("b", 3.0) == pytest.approx(
            2 * phi.FAILURE_BOOST
        )
        # budget exhaustion is the sender's problem, not peer evidence
        detector.on_link_event("a", "b", "budget_exhausted", None, now=4.0)
        assert detector.suspicion("b", 4.0) == pytest.approx(
            2 * phi.FAILURE_BOOST
        )


class TestLifecycle:
    def test_forget_drops_history(self):
        detector = PhiAccrualDetector()
        for _ in range(5):
            detector.observe_failure("d")
        assert detector.suspect("d", 1.0)
        detector.forget("d")
        assert detector.suspicion("d", 1.0) == 0.0

    def test_window_keeps_only_recent_intervals(self, tune_detector):
        tune_detector(HISTORY_WINDOW=4)
        detector = PhiAccrualDetector()
        # a long slow prefix then a fast regime: only the fast intervals
        # remain in the window, so silence is judged by the new cadence
        times = [i * 20.0 for i in range(10)]
        fast_start = times[-1]
        times += [fast_start + i * 1.0 for i in range(1, 7)]
        last = _fed(detector, "d", times)
        assert detector.suspect("d", last + 15.0)

    def test_snapshot_reports_every_monitored_device(self):
        detector = PhiAccrualDetector()
        _fed(detector, "a", [0.0, 1.0, 2.0])
        detector.observe_failure("b")
        snap = detector.snapshot(now=3.0)
        assert sorted(snap) == ["a", "b"]
        assert snap["b"] == pytest.approx(phi.FAILURE_BOOST)
