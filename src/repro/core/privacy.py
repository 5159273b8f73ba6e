"""Privacy exposure metrics under the sealed-glass threat model.

Side-channel attacks can degrade a TEE to "sealed glass": integrity
survives but everything processed in cleartext becomes visible.  The
paper's counter-measures are the two partitionings:

* **horizontal** — each Data Processor sees only ``C / n`` of the
  snapshot, bounding how many individuals one compromised TEE exposes;
* **vertical** — separated attribute pairs (quasi-identifier
  combinations) never co-reside in one TEE, so no single compromise
  yields a linkable record.

:func:`measure_exposure` computes both bounds for a plan, and
:func:`observed_exposure` cross-checks them against what a
:class:`~repro.devices.tee.SealedGlassObserver` actually recorded during
an execution — the plan-level bound must dominate the observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Any

from repro.core.qep import OperatorRole, QueryExecutionPlan
from repro.devices.tee import SealedGlassObserver

__all__ = [
    "ExposureFacts", "ExposureReport", "measure_exposure", "observed_exposure",
]


@dataclass(frozen=True)
class ExposureReport:
    """Plan-level privacy exposure bounds.

    Attributes:
        max_raw_tuples_per_edgelet: worst-case number of raw tuples a
            single compromised Data Processor TEE can expose.
        exposure_fraction: that worst case as a fraction of the snapshot
            cardinality ``C``.
        column_groups: the vertical column groups of the plan.
        co_exposed_pairs: unordered column pairs that co-reside in at
            least one TEE.
        separated_pairs: the pairs the scenario asked to separate.
        separation_respected: whether no separated pair is co-exposed.
    """

    max_raw_tuples_per_edgelet: int
    exposure_fraction: float
    column_groups: tuple[tuple[str, ...], ...]
    co_exposed_pairs: frozenset[tuple[str, str]]
    separated_pairs: frozenset[tuple[str, str]]
    separation_respected: bool

    def summary(self) -> dict[str, Any]:
        """Stats line for experiment tables."""
        return {
            "max_raw_tuples_per_edgelet": self.max_raw_tuples_per_edgelet,
            "exposure_fraction": self.exposure_fraction,
            "n_column_groups": len(self.column_groups),
            "n_co_exposed_pairs": len(self.co_exposed_pairs),
            "separation_respected": self.separation_respected,
        }


def _normalize_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ExposureFacts:
    """What :func:`measure_exposure` reads of a plan, taken from it once.

    A concluded execution's evidence keeps these facts instead of its
    plan, so its exposure is measured after the plan is gone.

    Attributes:
        n: the overcollection's partition count.
        snapshot_cardinality: the snapshot cardinality ``C``.
        has_builders: whether the plan has Snapshot Builders.
        column_groups: the Computers' distinct column groups, in plan
            order.
        collected_columns: the columns the builders collect.
    """

    n: int
    snapshot_cardinality: int
    has_builders: bool
    column_groups: tuple[tuple[str, ...], ...]
    collected_columns: tuple[str, ...]

    @classmethod
    def of(cls, plan: QueryExecutionPlan) -> "ExposureFacts":
        """Read the plan metadata written by the planner: the
        overcollection config (for per-partition cardinality) and each
        Computer's ``column_group`` parameter (for co-residence)."""
        overcollection = plan.metadata.get("overcollection")
        if overcollection is None:
            raise ValueError("plan metadata lacks 'overcollection'")
        column_groups: dict[tuple[str, ...], None] = {}
        for computer in plan.operators(OperatorRole.COMPUTER):
            group = tuple(computer.params.get("column_group", ()))
            if group:
                column_groups[group] = None
        return cls(
            n=overcollection["n"],
            snapshot_cardinality=overcollection["snapshot_cardinality"],
            has_builders=bool(plan.operators(OperatorRole.SNAPSHOT_BUILDER)),
            column_groups=tuple(column_groups),
            collected_columns=tuple(
                plan.metadata.get("collected_columns", ())
            ),
        )

    def measure(
        self, separated_pairs: list[tuple[str, str]] | None = None
    ) -> ExposureReport:
        """The exposure bounds these facts imply (see
        :func:`measure_exposure`)."""
        cardinality = self.snapshot_cardinality
        per_partition = -(-cardinality // self.n)  # ceil division
        # Snapshot builders see a whole partition across all columns;
        # with vertical partitioning, computers see one column group of
        # it.  The worst single-TEE raw exposure is therefore the
        # builder's.
        max_tuples = per_partition if self.has_builders else cardinality

        co_exposed: set[tuple[str, str]] = set()
        for group in self.column_groups:
            for a, b in combinations(sorted(set(group)), 2):
                co_exposed.add(_normalize_pair(a, b))
        # The snapshot builder itself co-exposes whatever columns it
        # collects.
        for a, b in combinations(sorted(set(self.collected_columns)), 2):
            co_exposed.add(_normalize_pair(a, b))

        separated = frozenset(
            _normalize_pair(a, b) for a, b in (separated_pairs or [])
        )
        return ExposureReport(
            max_raw_tuples_per_edgelet=max_tuples,
            exposure_fraction=max_tuples / cardinality if cardinality else 0.0,
            column_groups=self.column_groups,
            co_exposed_pairs=frozenset(co_exposed),
            separated_pairs=separated,
            separation_respected=not (separated & co_exposed),
        )


def measure_exposure(
    plan: QueryExecutionPlan,
    separated_pairs: list[tuple[str, str]] | None = None,
) -> ExposureReport:
    """Compute the exposure bounds of a plan.

    Reads the plan metadata written by the planner
    (:meth:`ExposureFacts.of`).
    """
    return ExposureFacts.of(plan).measure(separated_pairs)


@dataclass(frozen=True)
class ObservedExposure:
    """What a sealed-glass adversary actually saw during an execution."""

    tuples_per_tee: dict[str, int]
    columns_per_tee: dict[str, frozenset[str]]

    @property
    def max_tuples(self) -> int:
        """Largest per-TEE raw tuple exposure observed."""
        return max(self.tuples_per_tee.values(), default=0)

    def co_exposed_pairs(self) -> frozenset[tuple[str, str]]:
        """Column pairs observed together inside at least one TEE."""
        pairs: set[tuple[str, str]] = set()
        for columns in self.columns_per_tee.values():
            for a, b in combinations(sorted(columns), 2):
                pairs.add(_normalize_pair(a, b))
        return frozenset(pairs)


def observed_exposure(observer: SealedGlassObserver) -> ObservedExposure:
    """Summarize a sealed-glass observer's record.

    Only dict-shaped items (rows) count as raw-tuple exposure; the
    aggregated payloads exchanged between operators are dicts of states,
    which we classify by the marker key ``"__aggregate__"`` that the
    executor stamps on non-raw payloads.
    """
    tuples_per_tee: dict[str, int] = {}
    columns_per_tee: dict[str, set[str]] = {}
    for tee_id in observer.exposed_tees():
        count = 0
        columns: set[str] = set()
        for item in observer.exposed_items(tee_id):
            if isinstance(item, dict) and "__aggregate__" not in item:
                count += 1
                columns.update(k for k, v in item.items() if v is not None)
        tuples_per_tee[tee_id] = count
        columns_per_tee[tee_id] = columns
    return ObservedExposure(
        tuples_per_tee=tuples_per_tee,
        columns_per_tee={k: frozenset(v) for k, v in columns_per_tee.items()},
    )
