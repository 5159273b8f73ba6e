"""Compare two result files of ``run.py``: baseline A, candidate B.

    python3 benchmarks/perf/compare.py A/result.json B/result.json

For every (workload, end-to-end metric) prints both medians with their
quartiles, the change relative to A (its base printed beside it), the
metric's bound, and a verdict:

* ``worse`` / ``better`` — the medians differ by more than the bound
  (and more than the metric's absolute floor) *and* by more than the
  run-to-run spread, taken as the wider of the two interquartile ranges;
* ``unresolved`` — the spread is wider than the bound, so a change of
  the size the bound guards against could hide in the noise;
* ``same`` — otherwise.

Exits non-zero on any ``worse`` or on a ``behaviour_fingerprint``
mismatch (a fingerprint can only be compared when both files ran the
workload on the same seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any

_REPO = Path(__file__).resolve().parents[2]
if str(_REPO) not in sys.path:
    sys.path.insert(0, str(_REPO))

from benchmarks.perf import metrics as catalogue  # noqa: E402

__all__ = ["compare", "verdict"]


def verdict(metric: catalogue.Metric, a: dict[str, float], b: dict[str, float]) -> tuple[str, float]:
    """Verdict and signed worsening (share of A's median; > 0 is worse)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"])
    base = abs(a["median"])
    threshold = max(metric.bound * base, metric.floor)
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    if base:
        share = worsening / base
    else:
        share = math.copysign(math.inf, worsening) if worsening else 0.0
    if abs(worsening) > threshold and abs(worsening) > spread:
        return ("worse" if worsening > 0 else "better"), share
    if spread > threshold:
        return "unresolved", share
    return "same", share


def compare(a_doc: dict[str, Any], b_doc: dict[str, Any]) -> tuple[list[dict[str, Any]], list[str]]:
    """Rows (one per workload x metric) and fingerprint mismatches."""
    rows: list[dict[str, Any]] = []
    mismatches: list[str] = []
    for name, a_workload in a_doc["workloads"].items():
        b_workload = b_doc["workloads"].get(name)
        if b_workload is None:
            continue
        same_seed = a_workload["seed"] == b_workload["seed"]
        if same_seed and (
            a_workload["behaviour_fingerprint"] != b_workload["behaviour_fingerprint"]
        ):
            mismatches.append(name)
        for metric in catalogue.END_TO_END:
            a = a_workload["end_to_end"][metric.name]
            b = b_workload["end_to_end"][metric.name]
            outcome, share = verdict(metric, a, b)
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "kind": metric.kind, "a": a, "b": b, "change": share,
                "bound": metric.bound, "verdict": outcome,
            })
    return rows, mismatches


def _cell(entry: dict[str, float]) -> str:
    return f"{entry['median']:.5g} [{entry['q1']:.5g}..{entry['q3']:.5g}] n={entry['n']}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", help="result.json of the baseline (A)")
    parser.add_argument("candidate", help="result.json of the candidate (B)")
    args = parser.parse_args(argv)
    a_doc = json.loads(Path(args.baseline).read_text())
    b_doc = json.loads(Path(args.candidate).read_text())
    rows, mismatches = compare(a_doc, b_doc)
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            print(f"\n== {workload}")
            print(f"   {'metric':<20}{'unit':<7}{'A: median [q1..q3] n':<40}"
                  f"{'B: median [q1..q3] n':<40}{'worsening (of A)':<22}{'bound':<8}verdict")
        change = f"{row['change']:+.2%} of {row['a']['median']:.5g}"
        print(f"   {row['metric']:<20}{row['unit']:<7}{_cell(row['a']):<40}"
              f"{_cell(row['b']):<40}{change:<22}{row['bound']:<8.0%}{row['verdict']}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"\n{len(rows)} comparisons: {len(worse)} worse, {len(unresolved)} unresolved, "
          f"{sum(1 for row in rows if row['verdict'] == 'better')} better")
    for name in mismatches:
        print(f"behaviour_fingerprint MISMATCH on {name} (same seed, different behaviour)")
    return 1 if worse or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
