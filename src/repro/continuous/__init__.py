"""Standing queries over churning device populations.

The workload layer (PR 5) runs many *one-shot* queries against a frozen
swarm.  This layer runs **one query many times**: a
:class:`~repro.continuous.spec.StandingQuerySpec` describes a cadence,
a window mode (tumbling or sliding), and a horizon, and the
:class:`~repro.continuous.engine.ContinuousEngine` compiles each window
into the existing QEP path while a seeded churn model
(:mod:`repro.devices.churn`) grows and shrinks the live population
underneath — the PrivAgE shape of periodic privacy-preserving
aggregation over an edge population that joins and leaves between
rounds.

Layering: ``repro.continuous`` may import ``repro.workload`` (its engine
is a :class:`~repro.workload.engine.MultiQueryEngine`, and it reuses the
spec's shared fields and the fingerprints) and everything below it,
but never ``repro.chaos`` — chaos probes the continuous engine from
above (:mod:`repro.chaos.continuous`), exactly as it probes the
workload engine.
"""

from repro.continuous.spec import StandingQuerySpec
from repro.continuous.engine import (
    ContinuousEngine,
    ContinuousResult,
    WindowRecord,
)

__all__ = [
    "ContinuousEngine",
    "ContinuousResult",
    "StandingQuerySpec",
    "WindowRecord",
]
