"""JSON repro artifacts for invariant violations.

An artifact freezes everything needed to reproduce one violation in a
fresh process: the full :class:`~repro.chaos.campaign.RunSpec`
(topology, seeds, scenario tag and the shrunk
:class:`~repro.network.failures.FailurePlan` as its only fault source),
plus what was violated.  The dataset is not embedded: it regenerates
deterministically from ``(topology.n_rows, seed)``.

Workflow::

    # a campaign found and shrank a violation
    artifact.save("repro-validity.json")

    # later, anywhere
    python -m repro.cli chaos --replay repro-validity.json

``replay()`` re-executes the run and reports whether the recorded
invariant fired again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

from repro.chaos.invariants import Violation
from repro.errors import SpecError
from repro.network.failures import read_field

__all__ = ["ReproArtifact", "ARTIFACT_VERSION"]

ARTIFACT_VERSION = 1


@dataclass
class ReproArtifact:
    """A self-contained, replayable violation record.

    Attributes:
        invariant: the violated invariant's name.
        detail: human-readable description captured at violation time.
        spec: the run to execute.
        data: structured context from the original violation.
    """

    invariant: str
    detail: str
    spec: Any  # RunSpec (import cycle: campaign imports shrink/faults)
    data: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_violation(cls, violation: Violation, spec: Any) -> "ReproArtifact":
        return cls(
            invariant=violation.invariant,
            detail=violation.detail,
            spec=spec,
            data=violation.data,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": ARTIFACT_VERSION,
            "invariant": self.invariant,
            "detail": self.detail,
            "run": self.spec.to_dict(),
            "data": self.data,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str | Path) -> Path:
        """Write the artifact; returns the resolved path."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ReproArtifact":
        """Load an artifact; a missing or ill-typed field raises
        :class:`~repro.errors.SpecError` naming it.  The ``mode`` key of
        artifacts written when runs could also replay their seeded
        sources verbatim is ignored: ``run`` says what executes."""
        from repro.chaos.campaign import RunSpec

        read = partial(read_field, data, owner="artifact")
        version = read("version", lambda v: v, None)
        if version != ARTIFACT_VERSION:
            raise SpecError(
                f"unsupported artifact version {version!r} "
                f"(this build reads version {ARTIFACT_VERSION})"
            )
        return cls(
            invariant=read("invariant", str),
            detail=read("detail", str, ""),
            spec=read("run", RunSpec.from_dict),
            data=read("data", dict, {}),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ReproArtifact":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def replay(self, telemetry: Any = None) -> Any:
        """Re-execute the recorded run; returns the RunOutcome.

        The outcome's violations show whether the recorded invariant
        fired again (`reproduced` below checks exactly that).
        """
        from repro.chaos.campaign import run_single

        return run_single(self.spec, telemetry=telemetry)

    def reproduced(self, outcome: Any) -> bool:
        """Whether a replay outcome re-triggers the recorded invariant."""
        return any(v.invariant == self.invariant for v in outcome.violations)
