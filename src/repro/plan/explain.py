"""Explainable optimization: every candidate, its cost, why it lost.

The :class:`ExplainReport` is the optimizer's audit trail — the
compile pipeline attaches one to every :class:`~repro.plan.compile.
CompiledQuery`, and the ``explain`` CLI subcommand renders it as a
table.  Nothing in it is re-derived after the fact: the optimizer
records each candidate verdict at decision time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.resiliency import strategy_name
from repro.plan.cost import CandidateCost
from repro.plan.rules import RuleTrace

if TYPE_CHECKING:
    from repro.plan.optimizer import PhysicalCandidate

__all__ = ["CandidateReport", "ExplainReport"]


@dataclass(frozen=True)
class CandidateReport:
    """One enumerated physical candidate and its verdict.

    Attributes:
        candidate: the :class:`~repro.plan.optimizer.PhysicalCandidate`
            judged.
        feasible: whether a valid plan could be built.
        reason: why it won, lost, or was infeasible.
        chosen: whether the optimizer picked this candidate.
        cost: the scored cost, ``None`` when infeasible or unscored.
        advisor_reasons: the strategy advisor's clauses for this
            candidate's strategy.
    """

    candidate: PhysicalCandidate
    feasible: bool
    reason: str
    chosen: bool = False
    cost: CandidateCost | None = None
    advisor_reasons: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        """The candidate's key, e.g. ``overcollection/raw12/r0/packed``."""
        return self.candidate.key

    def to_dict(self) -> dict[str, Any]:
        candidate = self.candidate
        return {
            "key": self.key,
            "strategy": strategy_name(candidate.replicas),
            "max_raw": candidate.max_raw,
            "backup_replicas": candidate.replicas,
            "vertical": candidate.vertical,
            "feasible": self.feasible,
            "chosen": self.chosen,
            "reason": self.reason,
            "cost": self.cost.breakdown() if self.cost is not None else None,
            "advisor_reasons": list(self.advisor_reasons),
        }


@dataclass(frozen=True)
class ExplainReport:
    """The full compile-time audit trail of one query.

    Attributes:
        query_id: the compiled query's id.
        mode: ``"pinned"`` (legacy defaults) or ``"cost"``.
        logical: the rewritten logical plan, rendered as a tree.
        rules: traces of every rewrite rule that fired.
        candidates: every enumerated candidate, in enumeration-key
            order.
        chosen_key: key of the winning candidate.
        substrate: the substrate summary line, when cost-based.
    """

    query_id: str
    mode: str
    logical: str
    rules: tuple[RuleTrace, ...] = ()
    candidates: tuple[CandidateReport, ...] = ()
    chosen_key: str = ""
    substrate: str | None = None

    @property
    def chosen(self) -> CandidateReport | None:
        for candidate in self.candidates:
            if candidate.chosen:
                return candidate
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "query_id": self.query_id,
            "mode": self.mode,
            "logical": self.logical,
            "rules": [
                {"rule": t.rule, "detail": t.detail} for t in self.rules
            ],
            "candidates": [c.to_dict() for c in self.candidates],
            "chosen_key": self.chosen_key,
            "substrate": self.substrate,
        }

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Human-readable report: logical tree, fired rules, candidate
        table, and the winner's justification."""
        lines = [f"query {self.query_id} — optimizer={self.mode}"]
        if self.substrate:
            lines.append(f"substrate: {self.substrate}")
        lines.append("")
        lines.append("logical plan:")
        lines.extend(f"  {line}" for line in self.logical.splitlines())
        if self.rules:
            lines.append("rules fired:")
            for trace in self.rules:
                lines.append(f"  {trace.rule}: {trace.detail}")
        lines.append("")
        lines.extend(self._candidate_table())
        chosen = self.chosen
        if chosen is not None:
            lines.append("")
            lines.append(f"chosen: {chosen.key} — {chosen.reason}")
            for clause in chosen.advisor_reasons:
                lines.append(f"  advisor: {clause}")
        return "\n".join(lines)

    def _candidate_table(self) -> list[str]:
        headers = (
            "candidate", "total", "bytes", "msgs", "P(ok)",
            "devices", "verdict",
        )
        rows = [headers]
        for candidate in self.candidates:
            cost = candidate.cost
            rows.append((
                candidate.key,
                f"{cost.total:,.0f}" if cost else "-",
                f"{cost.expected_bytes:,.0f}" if cost else "-",
                str(cost.messages) if cost else "-",
                f"{cost.success_probability:.4f}" if cost else "-",
                str(cost.devices) if cost else "-",
                ("* " if candidate.chosen else "")
                + (candidate.reason if not candidate.chosen else "chosen"),
            ))
        widths = [
            max(len(row[i]) for row in rows) for i in range(len(headers))
        ]
        lines = []
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            )
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        return lines
