"""Q-VEC — the two fold kernels, and where they cross.

``repro.query.fold.fold_partition`` folds a partition with the row walk
below ``VECTOR_FOLD_MIN_ROWS`` rows and with the vectorized column-block
kernel at or above it.  Both produce the same bytes (the differential
harness in ``tests/differential/`` proves it end to end), so the choice
is purely a cost question — and this bench is where the constant comes
from.

It times both kernels directly over 4 … 4,096 rows for the two query
shapes the repo's benchmark runs (the 3-aggregate demo query and the
8-aggregate heavy query, each over three grouping sets, folded without
a WHERE clause exactly as a Computer folds them — the filter ran at the
contributor), prints the cost ratio per size and the interpolated
crossover, and **fails if the committed constant is more than a factor
of two away from the measured crossover of either shape**.

The merge table records what the row ``merge_partials`` costs at the
partial counts the system produces (2 and 40), the baseline a
size-selected vectorized merge would have to beat (DESIGN.md,
"Vectorized execution", keeps the one measurement in its favour).
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _tables import print_table

from repro.data.health import generate_health_rows
from repro.query.columnar import evaluate_group_by_columnar
from repro.query.fold import VECTOR_FOLD_MIN_ROWS
from repro.query.groupby import GroupByQuery, evaluate_group_by, merge_partials
from repro.query.sql import parse_query

SIZES = [2**k for k in range(2, 13)]  # 4 … 4,096

#: The two query shapes of ``benchmarks/perf/workloads.py``.
SQL = {
    "demo (3 aggregates)": (
        "SELECT count(*), avg(age), avg(bmi) FROM health WHERE age > 65 "
        "GROUP BY GROUPING SETS ((region), (sex), ())"
    ),
    "heavy (8 aggregates)": (
        "SELECT count(*), sum(bmi), avg(bmi), min(age), max(age), "
        "var(bmi), std(bmi), hist(age, 0, 110, 11) FROM health "
        "WHERE age > 40 AND bmi < 35 "
        "GROUP BY GROUPING SETS ((region), (sex), ())"
    ),
}


def _computer_query(sql: str) -> GroupByQuery:
    """What a Computer folds: grouping sets + aggregates, no filter."""
    query = parse_query(sql).query
    return GroupByQuery(query.grouping_sets, query.aggregates)


SHAPES = {label: _computer_query(sql) for label, sql in SQL.items()}
ROWS = generate_health_rows(SIZES[-1], seed=7)


def _dumps(partial) -> str:
    return json.dumps(partial.to_dict(), sort_keys=True, separators=(",", ":"))


def _best_seconds(call, samples: int = 7, sample_seconds: float = 0.004) -> float:
    """Best-of-``samples`` seconds per call, each sample long enough
    (≥ ``sample_seconds``) for the clock to resolve a µs-scale call."""
    call()  # warm code paths and caches
    started = time.perf_counter()
    call()
    once = max(time.perf_counter() - started, 1e-7)
    loops = max(1, int(sample_seconds / once))
    best = math.inf
    for _ in range(samples):
        started = time.perf_counter()
        for _ in range(loops):
            call()
        best = min(best, (time.perf_counter() - started) / loops)
    return best


def _crossover(sizes: list[int], ratios: list[float]) -> float:
    """Partition size where row/vector cost crosses 1, interpolated in
    log-log space between the two bracketing sizes."""
    for (lo, r_lo), (hi, r_hi) in zip(
        zip(sizes, ratios), zip(sizes[1:], ratios[1:])
    ):
        if r_lo < 1.0 <= r_hi:
            t = -math.log(r_lo) / (math.log(r_hi) - math.log(r_lo))
            return math.exp(math.log(lo) + t * (math.log(hi) - math.log(lo)))
    raise AssertionError(f"no crossover within {sizes[0]}…{sizes[-1]} rows")


def test_qvec_kernel_crossover(benchmark):
    """The committed threshold sits within 2x of the measured crossover."""
    crossovers = {}
    for label, query in SHAPES.items():
        table, ratios = [], []
        for size in SIZES:
            rows = ROWS[:size]
            assert _dumps(evaluate_group_by_columnar(query, rows)) == _dumps(
                evaluate_group_by(query, rows)
            ), f"kernels diverge on {label!r} at {size} rows"
            row_s = _best_seconds(lambda: evaluate_group_by(query, rows))
            vec_s = _best_seconds(lambda: evaluate_group_by_columnar(query, rows))
            ratios.append(row_s / vec_s)
            table.append(
                [
                    size,
                    f"{row_s * 1e6:.0f}",
                    f"{vec_s * 1e6:.0f}",
                    f"{row_s / vec_s:.2f}",
                    "vector" if size >= VECTOR_FOLD_MIN_ROWS else "row",
                ]
            )
        crossovers[label] = _crossover(SIZES, ratios)
        print_table(
            f"Q-VEC: fold cost per call, {label} x 3 grouping sets",
            ["rows", "row µs", "vector µs", "row/vector", "fold_partition runs"],
            table,
        )
    print_table(
        "Q-VEC: kernel crossover vs the committed threshold",
        ["query shape", "crossover (rows)", "VECTOR_FOLD_MIN_ROWS", "within 2x"],
        [
            [
                label,
                f"{crossover:.0f}",
                VECTOR_FOLD_MIN_ROWS,
                "yes"
                if crossover / 2 <= VECTOR_FOLD_MIN_ROWS <= crossover * 2
                else "NO",
            ]
            for label, crossover in crossovers.items()
        ],
    )
    for label, crossover in crossovers.items():
        assert crossover / 2 <= VECTOR_FOLD_MIN_ROWS <= crossover * 2, (
            f"VECTOR_FOLD_MIN_ROWS={VECTOR_FOLD_MIN_ROWS} is more than 2x "
            f"from the measured crossover ({crossover:.0f} rows) of {label}"
        )

    heavy = SHAPES["heavy (8 aggregates)"]
    benchmark.pedantic(
        lambda: evaluate_group_by_columnar(heavy, ROWS), rounds=3, iterations=1
    )


def test_qvec_row_merge_baseline(benchmark):
    """Row ``merge_partials`` at the partial counts the system produces."""
    table = []
    for label, query in SHAPES.items():
        for n_partials in (2, 40):
            share = len(ROWS) // n_partials
            partials = [
                evaluate_group_by(query, ROWS[i * share:(i + 1) * share])
                for i in range(n_partials)
            ]
            merged = merge_partials(query, partials)
            seconds = _best_seconds(lambda: merge_partials(query, partials))
            table.append(
                [
                    label,
                    n_partials,
                    sum(len(per_set) for per_set in merged.groups),
                    f"{seconds * 1e6:.0f}",
                ]
            )
    print_table(
        "Q-VEC: row merge_partials cost per merge",
        ["query shape", "partials", "merged groups", "merge µs"],
        table,
    )

    demo = SHAPES["demo (3 aggregates)"]
    two = [evaluate_group_by(demo, ROWS[:64]), evaluate_group_by(demo, ROWS[64:128])]
    benchmark.pedantic(lambda: merge_partials(demo, two), rounds=3, iterations=10)
