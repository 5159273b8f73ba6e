"""The end-to-end metric catalogue and the statistics shared by the
runner and ``compare.py``.

Two kinds of number, kept apart (the hardware-simulation sheet of the
``choosing-metrics`` guide):

* **host** — seconds and megabytes of the machine running the
  simulator: noisy, reported as median + quartiles over repeats;
* **modelled** — statistics on the virtual clock: seeded, so they must
  repeat exactly for one (commit, seed).

``bound`` is the share of the baseline's median a metric may worsen by
before it counts as a regression; ``floor`` is the absolute change
below which a difference is ignored whatever its ratio.

The bounds are wider than a quiet machine would need.  The driver runs
every workload on ten different seeds and demands that each metric's
interquartile spread stay inside its bound, so a bound has to cover
both this sandbox's host noise (identical work varies ~10% in wall
time) and the seed-to-seed variation of the modelled numbers (a latency
tail or a churning population is not the same on two seeds).  Exact
behaviour drift is caught separately: same seed, same
``behaviour_fingerprint`` (see ``compare.py``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

__all__ = ["END_TO_END", "Metric", "quartiles", "with_complements"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float
    kind: str  # "host" | "modelled"
    floor: float = 0.0
    #: listed in BENCHMARK.json (the driver needs metrics that are never
    #: zero, so the two that are zero on a healthy run go in as their
    #: complements)
    in_contract: bool = True


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, "host", floor=0.05),
    Metric("exec_s", "s", "lower", 0.25, "host", floor=0.05),
    Metric("wall_s", "s", "lower", 0.25, "host", floor=0.05),
    Metric("peak_rss_mb", "MB", "lower", 0.10, "host", floor=5.0),
    Metric("virt_latency_p50_s", "s", "lower", 0.05, "modelled"),
    Metric("virt_latency_hi_s", "s", "lower", 0.25, "modelled"),
    Metric("msgs_per_op", "count", "lower", 0.20, "modelled"),
    Metric("bytes_per_op", "B", "lower", 0.20, "modelled"),
    Metric("result_rel_error", "share", "lower", 0.02, "modelled",
           floor=1e-9, in_contract=False),
    Metric("failed_share", "share", "lower", 0.02, "modelled",
           floor=0.005, in_contract=False),
    # complements of the two above, for the driver contract
    Metric("result_accuracy", "share", "higher", 0.25, "modelled"),
    Metric("ok_share", "share", "higher", 0.05, "modelled"),
)


def with_complements(metrics: dict[str, float]) -> dict[str, float]:
    """Add ``result_accuracy`` / ``ok_share`` to one repeat's metrics."""
    return {
        **metrics,
        "result_accuracy": 1.0 - metrics["result_rel_error"],
        "ok_share": 1.0 - metrics["failed_share"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3
