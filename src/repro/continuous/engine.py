"""The standing-query engine: windowed re-execution under churn.

One :class:`ContinuousEngine` owns one query and one churning swarm.  A
standing query is a workload whose arrivals are windows at fixed times:
the engine is a :class:`~repro.workload.engine.MultiQueryEngine` that
schedules one arrival per ``spec.fire_times()`` entry.  Before each
window the seeded churn model (:mod:`repro.devices.churn`) applies
departures, arrivals, and data refreshes; then the window goes through
the one multi-query lifecycle — compile, plan, lease, assign, execute
through a query-scoped mux endpoint, conclude — exactly like one
workload query, and its
:class:`~repro.core.runtime.report.ExecutionReport` is wrapped into a
:class:`WindowRecord` carrying the window's *lineage*: index, population
snapshot hash, overlap with the previous window's population, churn
events, and incremental-maintenance savings.  A window that would exceed
the admission cap is skipped, never queued.

Incremental partition maintenance: when ``spec.incremental`` is on, one
:class:`~repro.core.runtime.incremental.ContributionCache` is threaded
through every window's coordinator, so contributors whose rows did not
change since the last window (and whose partition kept its builder
device) ship ~40-byte delta stamps instead of full payloads.  Churn
invalidates the affected cache edges, forcing full recollection exactly
where the population moved.

Determinism: window fire times, window seeds, churn draws, spawn
identities, and lease orders are all pure functions of the spec, the
churn spec, and the swarm sizing — two runs replay to byte-identical
per-window lineage fingerprints
(:func:`repro.workload.fingerprint.window_fingerprint`).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any

from repro.continuous.spec import StandingQuerySpec
from repro.core.liability import LiabilityReport, measure_liability
from repro.core.runtime import ContributionCache
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.devices.churn import ChurnModel, ChurnSpec, WindowChurn
from repro.errors import SpecError
from repro.manager.admission import ADMITTED
from repro.workload.engine import COMPLETED, MultiQueryEngine, UnitRecord
from repro.workload.fingerprint import window_fingerprint

__all__ = [
    "ContinuousEngine",
    "ContinuousResult",
    "WindowRecord",
]

SKIPPED = "skipped"  # admission cap reached, or the swarm was leased out
EMPTY = "empty"  # no eligible contributors (sliding window went stale)


def population_hash(device_ids: list[str]) -> str:
    """Order-insensitive digest of a population snapshot."""
    document = "\n".join(sorted(device_ids))
    return hashlib.sha256(document.encode()).hexdigest()[:16]


@dataclass
class WindowRecord(UnitRecord):
    """Lifecycle + lineage record of one standing-query window."""

    index: int
    window_id: str
    # lineage
    population: list[str] = field(default_factory=list)
    population_hash: str = ""
    overlap_with_previous: float = 1.0
    churn: WindowChurn | None = None
    eligible: list[str] = field(default_factory=list)
    rows: list[dict[str, Any]] = field(default_factory=list)
    lease_flags: list[str] = field(default_factory=list)
    # per-window accounting (filled at the next window boundary)
    coverage: float | None = None
    incremental: dict[str, int] = field(default_factory=dict)
    window_bytes: int = 0
    window_messages: int = 0

    @property
    def unit_id(self) -> str:
        return self.window_id


@dataclass
class ContinuousResult:
    """Outcome of one standing-query run.

    ``liability`` is the cumulative Crowd Liability over every completed
    window's operator assignment.
    """

    spec: StandingQuerySpec
    windows: list[WindowRecord]
    elapsed: float
    completed: int
    skipped: int
    empty: int
    succeeded: int
    degraded: int
    flagged: int
    final_population: int
    incremental_totals: dict[str, int]
    liability: LiabilityReport = field(default_factory=measure_liability)

    def fingerprints(self) -> dict[str, str]:
        """window_id -> lineage fingerprint, completed windows only."""
        return {
            w.window_id: w.fingerprint
            for w in self.windows
            if w.fingerprint is not None
        }

    def summary(self) -> dict[str, Any]:
        completed = [w for w in self.windows if w.outcome == COMPLETED]
        coverages = [w.coverage for w in completed if w.coverage is not None]
        overlaps = [w.overlap_with_previous for w in completed]
        return {
            "windows": len(self.windows),
            "completed": self.completed,
            "skipped": self.skipped,
            "empty": self.empty,
            "succeeded": self.succeeded,
            "degraded": self.degraded,
            "flagged": self.flagged,
            "elapsed": self.elapsed,
            "final_population": self.final_population,
            "mean_coverage": (
                sum(coverages) / len(coverages) if coverages else 0.0
            ),
            "mean_overlap": sum(overlaps) / len(overlaps) if overlaps else 0.0,
            "bytes_per_window": (
                sum(w.window_bytes for w in completed) / len(completed)
                if completed
                else 0.0
            ),
            "messages_per_window": (
                sum(w.window_messages for w in completed) / len(completed)
                if completed
                else 0.0
            ),
            **{
                f"incremental_{k}": v
                for k, v in self.incremental_totals.items()
            },
            **{f"liability_{k}": v for k, v in self.liability.summary().items()},
        }


class ContinuousEngine(MultiQueryEngine):
    """Drives one standing query over one churning swarm.

    Args:
        spec: the standing-query description.
        churn: population churn model spec; ``None`` freezes the swarm.
        n_contributors / n_processors: initial swarm sizing.
        rows_per_contributor: synthetic health rows dealt to each
            contributor (initial and newly-arrived alike).
        telemetry: recording target; defaults to the process instance.
        standby_count: extra devices leased per reliable window as the
            recovery watchdog's re-recruitment pool.
        **scenario: any other :class:`~repro.manager.scenario.
            ScenarioConfig` field, forwarded verbatim (the
            :class:`~repro.manager.scenario.RunOptions`); a field derived
            from ``spec`` (``reliability``, ``collection_window``,
            ``deadline``, ``seed``, ``scenario_tag``) raises
            ``TypeError`` if passed again.
    """

    def __init__(
        self,
        spec: StandingQuerySpec,
        churn: ChurnSpec | None = None,
        n_contributors: int = 24,
        n_processors: int = 48,
        rows_per_contributor: int = 2,
        telemetry: Any = None,
        standby_count: int = 0,
        **scenario: Any,
    ):
        if rows_per_contributor <= 0:
            raise SpecError("rows_per_contributor must be positive")
        rows = generate_health_rows(
            rows_per_contributor * n_contributors, seed=spec.seed
        )
        super().__init__(
            spec,
            self.configure(
                spec,
                n_contributors=n_contributors,
                n_processors=n_processors,
                rows=rows,
                schema=HEALTH_SCHEMA,
                rows_per_device=(rows_per_contributor, rows_per_contributor),
                scenario_tag=f"{spec.name}{spec.seed}",
                **scenario,
            ),
            telemetry,
            standby_count,
            spec.max_concurrent_windows,
        )
        self.rows_per_contributor = rows_per_contributor
        self.churn_model = ChurnModel(churn) if churn is not None else None
        self.cache = ContributionCache() if spec.incremental else None

        # live pools (the scenario's lists mirror these; the engine owns
        # membership so lineage and lease conservation stay auditable)
        self.contributor_ids = [
            d.device_id for d in self.scenario.contributors
        ]
        for device_id in self.processor_pool:
            self.registry.register_device(device_id)
        self._next_contributor_index = n_contributors
        self._next_processor_index = n_processors

        # virtual time each contributor's data last changed (arrival or
        # refresh); drives sliding-window eligibility and the oracle
        self._data_changed_at: dict[str, float] = {
            device_id: 0.0 for device_id in self.contributor_ids
        }
        self._windows: list[WindowRecord] = []
        self._last_executed: WindowRecord | None = None
        self._bytes_mark = 0
        self._messages_mark = 0
        metrics = self.telemetry.metrics
        self._g_population = metrics.gauge("population.online")
        self._h_coverage = metrics.histogram("window.coverage")
        self._m_bytes_saved = metrics.counter("window.incremental_bytes_saved")
        self._h_overlap = metrics.histogram("window.population_overlap")

    # -- the run --------------------------------------------------------------

    def run(self) -> ContinuousResult:
        """Fire every window in the horizon; returns once the swarm is
        idle after the last window's execution drained."""
        start = self.scenario.simulator.now
        self._windows = [
            WindowRecord(index=i, window_id=self.spec.window_id(i))
            for i in range(self.spec.max_windows)
        ]
        self._g_population.set(
            len(self.contributor_ids) + len(self.processor_pool)
        )
        self._drive(
            start
            + (self.spec.max_windows - 1) * self.spec.cadence
            + 3 * self.spec.deadline,
            zip(self.spec.fire_times(start), self._windows),
        )
        return self._finalize(start)

    # -- churn application ----------------------------------------------------

    def _spawn_rows_seed(self, kind: str, index: int) -> int:
        return random.Random(
            f"{self.spec.seed}:{kind}-rows:{index}"
        ).randrange(2**31)

    def _apply_churn(self, record: WindowRecord) -> None:
        """Apply this window's departures/arrivals/refreshes (window 0
        runs over the seed population unchanged)."""
        if self.churn_model is None or record.index == 0:
            return
        now = self.scenario.simulator.now
        churn = self.churn_model.step(
            record.index, self.contributor_ids, self.processor_pool
        )
        # a zero-event step is indistinguishable from having no churn
        # model at all — keep the lineage byte-identical in that case
        record.churn = churn if churn.any_events else None
        for device_id in churn.contributor_departures:
            self.scenario.network.leave(device_id)
            self.scenario.retire_device(device_id)
            self.contributor_ids.remove(device_id)
            self._data_changed_at.pop(device_id, None)
            if self.cache is not None:
                self.cache.invalidate_device(device_id)
        for device_id in churn.processor_departures:
            flagged = self.registry.retire_device(device_id)
            if flagged is not None:
                for window in self._windows:
                    if window.window_id == flagged:
                        window.lease_flags.append(device_id)
            self.scenario.network.leave(device_id)
            self.scenario.retire_device(device_id)
            self.processor_pool.remove(device_id)
            if self.cache is not None:
                self.cache.invalidate_device(device_id)
        for _ in range(churn.contributor_arrivals):
            index = self._next_contributor_index
            self._next_contributor_index += 1
            device = self.scenario.spawn_contributor(index)
            rows = generate_health_rows(
                self.rows_per_contributor,
                seed=self._spawn_rows_seed("contrib", index),
            )
            self.scenario.stock(device, rows)
            self.contributor_ids.append(device.device_id)
            self._data_changed_at[device.device_id] = now
        for _ in range(churn.processor_arrivals):
            index = self._next_processor_index
            self._next_processor_index += 1
            device = self.scenario.spawn_processor(index)
            self.registry.register_device(device.device_id)
            self.processor_pool.append(device.device_id)
        for device_id in churn.data_changes:
            device = self.scenario.devices[device_id]
            fresh = generate_health_rows(
                1,
                seed=random.Random(
                    f"{self.spec.seed}:refresh:w{record.index}:{device_id}"
                ).randrange(2**31),
            )
            self.scenario.stock(device, fresh)
            self._data_changed_at[device_id] = now
        if self.churn_model.spec.mobility_mean_intercontact is not None:
            schedule = self.churn_model.contact_schedule(
                record.index,
                self.contributor_ids,
                now,
                now + self.spec.deadline,
            )
            if schedule is not None:
                schedule.install(self.scenario.simulator, self.scenario.network)

    # -- window lifecycle -----------------------------------------------------

    def _eligible_contributors(self, now: float) -> list[str]:
        if self.spec.window == "tumbling":
            return list(self.contributor_ids)
        cutoff = now - self.spec.freshness_horizon
        return [
            device_id
            for device_id in self.contributor_ids
            if self._data_changed_at.get(device_id, -1.0) >= cutoff
        ]

    def _roll_accounting(self, record: WindowRecord | None) -> None:
        """Attribute traffic/cache deltas since the last boundary to the
        most recently executed window, then re-mark."""
        stats = self.scenario.network.stats
        target = self._last_executed
        if target is not None:
            target.window_bytes = stats.bytes_sent - self._bytes_mark
            target.window_messages = stats.sent - self._messages_mark
            if self.cache is not None:
                target.incremental = self.cache.take_window_stats()
                self._m_bytes_saved.inc(target.incremental["bytes_saved"])
        elif self.cache is not None:
            self.cache.take_window_stats()  # discard pre-first-window noise
        self._bytes_mark = stats.bytes_sent
        self._messages_mark = stats.sent
        self._last_executed = record

    def _end_unlaunched(self, record: WindowRecord, outcome: str) -> None:
        record.outcome = outcome
        record.finished_at = self.scenario.simulator.now
        self._roll_accounting(None)

    def _on_arrival(self, record: WindowRecord) -> None:
        sim = self.scenario.simulator
        record.started_at = sim.now
        self._apply_churn(record)
        self._g_population.set(
            len(self.contributor_ids) + len(self.processor_pool)
        )

        # lineage: population snapshot + coverage vs the previous window
        record.population = sorted(
            [*self.contributor_ids, *self.processor_pool]
        )
        record.population_hash = population_hash(record.population)
        previous = next(
            (w for w in reversed(self._windows[: record.index]) if w.population),
            None,
        )
        if previous is not None:
            overlap = len(
                set(previous.population) & set(record.population)
            ) / len(previous.population)
            record.overlap_with_previous = overlap
        self._h_overlap.observe(record.overlap_with_previous)

        record.eligible = self._eligible_contributors(sim.now)
        if not record.eligible:
            self._end_unlaunched(record, EMPTY)
            return
        if self.admission.offer(record.window_id) != ADMITTED:
            # cap reached — a standing query skips, it never queues
            self._end_unlaunched(record, SKIPPED)
            return
        self._launch(record)

    def _launch(self, record: WindowRecord) -> None:
        launched = self.launch(
            record,
            self.spec.replicas,
            record.eligible,
            self.spec.window_seed(record.index),
            # one placement key for the whole standing query: with an
            # unchanged pool, every window re-derives the same builder
            # per contributor — the substrate of incremental maintenance
            placement_key=f"{self.spec.name}{self.spec.seed}",
            contribution_cache=self.cache,
        )
        if not launched:
            self.admission.abort(record.window_id)
            self._end_unlaunched(record, SKIPPED)
            return

        # snapshot the oracle rows *after* assignment: this is the data
        # the window's contributors will actually read at fire time —
        # under the same predicate, so coverage counts collectable rows
        where = self.group_by.where
        predicate = where.evaluator if where is not None else None
        record.rows = [
            dict(row)
            for device_id in record.eligible
            for row in self.scenario.devices[device_id].contribute(predicate)
        ]
        self._roll_accounting(record)
        self.start(record)

    def _on_complete(self, record: WindowRecord) -> None:
        # the builders' rows are the execution's: read before it goes
        collected = sum(
            len(rows) for rows in record.result.executor.builder_rows.values()
        )
        self.conclude(record)
        expected = len(record.rows)
        record.coverage = (
            min(1.0, collected / expected) if expected else 0.0
        )
        self._h_coverage.observe(record.coverage)
        self.admission.complete(record.window_id)

    # -- wrap-up --------------------------------------------------------------

    def _finalize(self, start: float) -> ContinuousResult:
        self._roll_accounting(None)  # close the last executed window
        tally = self._tally(
            self._windows, start, (COMPLETED, SKIPPED, EMPTY),
            "standing query ended with non-terminal windows",
        )
        offered = self.admission.arrivals
        if self.admission.completed + self.admission.shed != offered:
            raise RuntimeError(
                "window admission conservation violated: "
                f"{self.admission.completed} completed + "
                f"{self.admission.shed} shed != {offered} offered"
            )
        leaked = [
            device_id
            for device_id in self.registry.retired
            if self.registry.holder(device_id) is not None
        ]
        if leaked:
            raise RuntimeError(f"retired devices still hold leases: {leaked}")
        totals: dict[str, int] = {}
        for record in self._windows:
            if record.outcome != COMPLETED:
                continue
            record.fingerprint = window_fingerprint(
                record, base_time=record.started_at or 0.0
            )
            for key, value in record.incremental.items():
                totals[key] = totals.get(key, 0) + value
        return ContinuousResult(
            spec=self.spec,
            windows=list(self._windows),
            skipped=sum(1 for w in self._windows if w.outcome == SKIPPED),
            empty=sum(1 for w in self._windows if w.outcome == EMPTY),
            flagged=sum(len(w.lease_flags) for w in self._windows),
            final_population=(
                len(self.contributor_ids) + len(self.processor_pool)
            ),
            incremental_totals=totals,
            **tally,
        )
