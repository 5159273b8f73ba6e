"""Run the benchmark.

Report mode — every workload, every metric, one result file::

    python3 benchmarks/perf/run.py [--smoke] [--repeats N] [--out DIR]

prints all end-to-end metrics (median, quartiles, n) and the per-layer
metrics of one traced repeat for each workload, writes
``DIR/result.json`` plus ``DIR/trace_<workload>.json``, and exits
non-zero if any output check fails.

Driver mode — the ``BENCHMARK.json`` contract, one workload per call::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

prints one JSON object as the last line of stdout: the end-to-end
metrics (``--trace 0``: timed repeats until ``S`` seconds are measured)
or the per-layer metrics (``--trace 1``: one untraced + one traced
repeat).

Run shape: the parent imports the library and runs a ten-device warm-up
once, then forks one fresh child per repeat, sequentially.  Every child
therefore starts from the same warmed-up heap, is measured alone, and
reports its own peak RSS.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

_REPO = Path(__file__).resolve().parents[2]
for _path in (str(_REPO / "src"), str(_REPO)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.perf import metrics as catalogue  # noqa: E402
from benchmarks.perf.layers import PER_LAYER_UNITS, layer_metrics  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS, Workload, by_name  # noqa: E402

#: a median needs at least this many timed repeats; never more than MAX
MIN_REPEATS = 2
MAX_REPEATS = 9
#: a repeat takes ~5 s; one that is still silent after this long is hung
CHILD_TIMEOUT_S = 150.0
DEFAULT_OUT = Path(__file__).resolve().parent / "out"


class HarnessError(RuntimeError):
    """Nothing could be measured: the program under test is missing, or
    a child crashed."""


class Harness:
    """Imports and warms the program once; forks a child per repeat."""

    def __init__(self) -> None:
        started = perf_counter()
        try:
            from benchmarks.perf import adapter
        except ModuleNotFoundError as error:
            raise HarnessError(f"cannot import the program under test: {error}") from error
        self.adapter = adapter
        self.import_s = perf_counter() - started
        started = perf_counter()
        adapter.warm_up()
        self.warmup_s = perf_counter() - started
        # children share the parent's heap copy-on-write; freezing keeps
        # the collector from touching (and so copying) those pages
        gc.collect()
        gc.freeze()
        self._fork = multiprocessing.get_context("fork")

    def repeat(self, workload: Workload, seed: int, smoke: bool, traced: bool, run_id: str) -> dict[str, Any]:
        """Measure one repeat in a fresh forked child."""
        receiver, sender = self._fork.Pipe(duplex=False)
        child = self._fork.Process(
            target=self._child,
            args=(sender, workload, seed, smoke, traced, run_id),
        )
        child.start()
        sender.close()
        try:
            if receiver.poll(CHILD_TIMEOUT_S):
                status, payload = receiver.recv()
            else:
                child.kill()
                status, payload = "error", f"no result after {CHILD_TIMEOUT_S:.0f} s"
        except EOFError:
            status, payload = "error", "child exited without a result"
        finally:
            receiver.close()
            child.join()
        if status != "ok":
            raise HarnessError(f"{run_id}: {payload}")
        return payload

    def _child(self, sender: Any, workload: Workload, seed: int, smoke: bool, traced: bool, run_id: str) -> None:
        try:
            result = self.adapter.run_repeat(workload, seed, smoke, traced, run_id)
            sender.send(("ok", result))
        except BaseException:  # report, then let the child end
            sender.send(("error", traceback.format_exc()))
        finally:
            sender.close()


# -- folding repeats into one workload result --------------------------------------


def fold_workload(
    workload: Workload,
    seed: int,
    timed: list[dict[str, Any]],
    traced: dict[str, Any] | None,
    per_layer: dict[str, float] | None,
) -> dict[str, Any]:
    """Medians + quartiles per end-to-end metric, cross-repeat checks."""
    repeats = timed + ([traced] if traced is not None else [])
    checks = [check for repeat in repeats for check in repeat["checks"]]
    if len({repeat["behaviour_fingerprint"] for repeat in repeats}) != 1:
        checks.append("behaviour_fingerprint differs across repeats")
    samples = [catalogue.with_complements(repeat["metrics"]) for repeat in timed]
    end_to_end = {}
    for metric in catalogue.END_TO_END:
        values = [sample[metric.name] for sample in samples]
        if metric.kind == "modelled" and len(set(values)) != 1:
            checks.append(f"modelled metric {metric.name} differs across repeats: {values}")
        q1, median, q3 = catalogue.quartiles(values)
        end_to_end[metric.name] = {
            "unit": metric.unit, "kind": metric.kind,
            "median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values,
        }
    first = timed[0]
    return {
        "seed": seed,
        "why": workload.why,
        "behaviour_fingerprint": first["behaviour_fingerprint"],
        "ops_attempted": first["ops_attempted"],
        "ops_failed": first["ops_failed"],
        "ops_failed_checks": sum(repeat["ops_failed_checks"] for repeat in repeats),
        "latency_samples": first["latency_samples"],
        "latency_hi_percentile": first["latency_hi_percentile"],
        "checks": checks,
        "end_to_end": end_to_end,
        "per_layer": (
            {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
             for name, value in per_layer.items()}
            if per_layer is not None else {}
        ),
    }


def measure(
    harness: Harness,
    workload: Workload,
    seed: int,
    smoke: bool,
    repeats: int | None = None,
    seconds: float | None = None,
    trace: bool = True,
) -> tuple[dict[str, Any], dict[str, Any] | None]:
    """Run one workload: timed repeats, then (optionally) a traced one.

    Give ``repeats`` for a fixed count, or ``seconds`` to repeat until
    that much wall time has been measured (at least ``MIN_REPEATS``).
    Returns the folded result and the traced repeat's raw trace.
    """
    timed: list[dict[str, Any]] = []
    measured_s = 0.0
    while True:
        result = harness.repeat(workload, seed, smoke, False, f"{workload.name}#{len(timed)}")
        timed.append(result)
        measured_s += result["metrics"]["wall_s"]
        if repeats is not None:
            done = len(timed) >= repeats
        else:
            done = len(timed) >= MAX_REPEATS or (
                len(timed) >= MIN_REPEATS and measured_s >= (seconds or 0.0)
            )
        if done:
            break
    traced = per_layer = None
    if trace:
        traced = harness.repeat(workload, seed, smoke, True, f"{workload.name}#traced")
        _, untraced_wall_s, _ = catalogue.quartiles(
            [repeat["metrics"]["wall_s"] for repeat in timed]
        )
        per_layer = layer_metrics(traced, untraced_wall_s, harness.import_s, harness.warmup_s)
    folded = fold_workload(workload, seed, timed, traced, per_layer)
    return folded, (traced["trace"] if traced is not None else None)


# -- the two front ends ----------------------------------------------------------------


def driver_main(args: argparse.Namespace) -> int:
    """One workload, one JSON line (the BENCHMARK.json contract)."""
    workload = by_name(args.workload)
    seed = workload.seed if args.seed is None else args.seed
    harness = Harness()
    if args.trace:
        folded, _ = measure(harness, workload, seed, args.smoke, repeats=1, trace=True)
        reported = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in folded["per_layer"].items()
        }
    else:
        folded, _ = measure(
            harness, workload, seed, args.smoke,
            repeats=args.repeats, seconds=args.seconds, trace=False,
        )
        reported = {
            metric.name: {
                "value": folded["end_to_end"][metric.name]["median"],
                "unit": metric.unit,
            }
            for metric in catalogue.END_TO_END if metric.in_contract
        }
    for check in folded["checks"]:
        print(f"CHECK FAILED [{workload.name}]: {check}", file=sys.stderr)
    n_repeats = folded["end_to_end"]["wall_s"]["n"] + (1 if args.trace else 0)
    correct = not folded["checks"]
    print(json.dumps({
        "correct": correct,
        "attempted": folded["ops_attempted"] * n_repeats,
        "failed": folded["ops_failed_checks"],
        "metrics": reported,
    }))
    return 0 if correct else 1


def _print_workload(name: str, folded: dict[str, Any]) -> None:
    print(f"\n== {name}  (seed {folded['seed']}, "
          f"{folded['ops_attempted']} ops attempted, {folded['ops_failed']} failed, "
          f"latency n={folded['latency_samples']} hi={folded['latency_hi_percentile']})")
    print(f"   behaviour_fingerprint {folded['behaviour_fingerprint'][:16]}")
    print(f"   {'metric':<22}{'unit':<7}{'kind':<10}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for metric_name, entry in folded["end_to_end"].items():
        print(f"   {metric_name:<22}{entry['unit']:<7}{entry['kind']:<10}"
              f"{entry['median']:>14.6g}{entry['q1']:>14.6g}{entry['q3']:>14.6g}{entry['n']:>4}")
    if folded["per_layer"]:
        print("   per-layer (one traced repeat):")
        for metric_name, entry in folded["per_layer"].items():
            print(f"     {metric_name:<32}{entry['value']:>16.6g} {entry['unit']}")
    for check in folded["checks"]:
        print(f"   CHECK FAILED: {check}")


def report_main(args: argparse.Namespace) -> int:
    """Every selected workload, all metrics, one result file."""
    selected = [by_name(args.workload)] if args.workload else list(WORKLOADS)
    repeats = args.repeats or (2 if args.smoke else 5)
    out_dir = Path(args.out) if args.out else DEFAULT_OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    harness = Harness()
    document: dict[str, Any] = {
        "schema": 1,
        "smoke": args.smoke,
        "repeats": repeats,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "import_s": harness.import_s,
            "warmup_s": harness.warmup_s,
        },
        "workloads": {},
    }
    for workload in selected:
        seed = workload.seed if args.seed is None else args.seed
        folded, trace = measure(harness, workload, seed, args.smoke, repeats=repeats)
        document["workloads"][workload.name] = folded
        _print_workload(workload.name, folded)
        (out_dir / f"trace_{workload.name}.json").write_text(json.dumps(trace))
    result_path = out_dir / "result.json"
    result_path.write_text(json.dumps(document, indent=1))
    failed = [name for name, folded in document["workloads"].items() if folded["checks"]]
    print(f"\nwrote {result_path}")
    if failed:
        print(f"OUTPUT CHECKS FAILED on: {', '.join(failed)}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, help="driver mode: wall seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="every workload ~10x smaller")
    parser.add_argument("--repeats", type=int, help="fixed number of timed repeats")
    parser.add_argument("--out", help=f"report mode: output directory (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    if args.trace is None:
        return report_main(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return driver_main(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        sys.exit(2)
