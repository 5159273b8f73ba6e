"""What a multi-query run keeps of each unit it has concluded.

A closed-loop workload keeps four queries in flight whatever its length,
so the heap two runs of different lengths leave behind differs only by
what each concluded query keeps: its record, report and evidence.  The
plan is not among them (``TestConcludedUnits`` asserts that with weak
references), and neither are the combiners' partial states
(``tests/test_concluded_dedup.py`` walks the references); this test
bounds the bytes that do stay.

Measured with ``tracemalloc`` on Python 3.11 (seed 13, 30 contributors,
60 processors): ≈15.4 KB per concluded query, against ≈30.8 KB while
every concluded query kept its combiners' partial states and ≈65.9 KB
while it kept its whole plan.  The bound sits between the first two
with room on both sides.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.telemetry import null_telemetry
from repro.workload import WorkloadEngine, WorkloadSpec

#: bytes one concluded query may keep (see the module docstring)
KEPT_PER_UNIT_BOUND = 22_000


def _kept_after(n_queries: int) -> int:
    """Bytes still allocated, after a full collection, once a closed-loop
    run of ``n_queries`` has returned and while its result is held."""
    spec = WorkloadSpec(
        n_queries=n_queries, arrival_process="closed", target_in_flight=4,
        max_concurrent=4, queue_capacity=0, seed=13,
    )
    gc.collect()
    tracemalloc.start()
    try:
        engine = WorkloadEngine(
            spec, n_contributors=30, n_processors=60,
            telemetry=null_telemetry(),
        )
        result = engine.run()
        gc.collect()
        kept, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.completed == n_queries
    return kept


def test_bytes_kept_per_concluded_query_are_bounded():
    _kept_after(4)  # warm every lazy import and module-level cache
    short, long = 8, 24
    per_unit = (_kept_after(long) - _kept_after(short)) / (long - short)
    assert 0 < per_unit < KEPT_PER_UNIT_BOUND, per_unit
