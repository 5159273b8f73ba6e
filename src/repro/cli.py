"""Command-line interface to the Edgelet reproduction.

A text substitute for the demonstration GUI.  Subcommands:

* ``plan`` — build and display a QEP for the given knobs (demo Part 1);
* ``run`` — execute an aggregate SQL query on a synthetic swarm and
  display the result, tally, and centralized verification (demo Part 2);
* ``kmeans`` — execute the distributed K-Means query;
* ``explain`` — compile a query with the cost-based optimizer over a
  named substrate profile and print the candidate table (every
  enumerated physical plan, its cost, and why it lost);
* ``resiliency`` — print the overcollection table for a fault-rate
  sweep (the failure slider);
* ``chaos`` — run a seeded chaos campaign (strategy x failure
  probability x fault mix), check the paper's property invariants
  after every run, and write shrunk JSON repro artifacts for any
  violation; ``--replay PATH`` re-executes one artifact;
  ``--workload N`` chaoses a concurrent N-query workload instead and
  checks every invariant per query;
* ``workload`` — run a deterministic multi-query workload (open- or
  closed-loop arrivals, admission control, exclusive device leases)
  over one shared swarm; ``--serial-check`` verifies every query's
  report is byte-identical to a solo replay;
* ``continuous`` — run a standing query on a cadence over a churning
  device population (seeded arrivals/departures/data refreshes,
  incremental delta-stamp recollection); ``--check-invariants`` runs
  the long-soak invariant suite on every window.

``run``, ``kmeans``, ``chaos``, ``workload`` and ``continuous`` accept
``--metrics-out PATH`` to write the telemetry JSONL export and
``--telemetry`` to print the summary table (counters, phase spans,
wall-clock vs simulated time).  ``run`` and ``chaos`` (campaign and
``--workload`` alike) accept ``--reliability`` / ``--detector`` /
``--phase-deadline``; ``run``, ``chaos`` and
``continuous`` accept message and outage knobs in one ``--fault-mix``.

Examples::

    python -m repro.cli plan --cardinality 2000 --max-raw 200 \
        --fault-rate 0.2 --separate age,bmi
    python -m repro.cli run --contributors 200 --rows 400 \
        --sql "SELECT count(*), avg(age) FROM health GROUP BY region"
    python -m repro.cli kmeans --contributors 150 --heartbeats 6
    python -m repro.cli explain --profile lossy-mobile --cardinality 600
    python -m repro.cli resiliency --n 10
    python -m repro.cli chaos --seed 7 --runs 25 --strategy both \
        --fault-mix "drop=0.05;partition:duplicate=0.2" --repro-out repro/
    python -m repro.cli chaos --seed 7 --runs 10 --reliability \
        --detector --fault-mix "partition=0.25,gray=0.2,region_crash=0.1"
    python -m repro.cli chaos --replay repro/repro-validity-000.json
    python -m repro.cli chaos --workload 8 --failure-probability 0.004
    python -m repro.cli chaos --workload 6 --reliability --detector \
        --fault-mix "drop=0.05;partition=0.3,gray=0.2"
    python -m repro.cli workload --queries 10 --arrival poisson --rate 2 \
        --max-concurrent 4 --serial-check --per-query
    python -m repro.cli continuous --windows 15 --churn 0.10 \
        --reliability --check-invariants --per-window --seed 7
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.planner import PlanningError, PrivacyParameters, ResiliencyParameters
from repro.core.resiliency import (
    STRATEGIES,
    minimum_overcollection,
    query_success_probability,
    replicas_for,
    strategy_name,
)
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.manager.dashboard import render_plan, render_report
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.manager.verification import verify_against_centralized
from repro.plan.builder import scan
from repro.plan.compile import (
    OPTIMIZER_COST,
    OPTIMIZER_PINNED,
    CompiledQuery,
    compile_query,
)
from repro.plan.substrate import SUBSTRATE_PROFILES, SubstrateProfile
from repro.query.relation import Relation
from repro.telemetry import Telemetry, render_summary, write_jsonl

__all__ = ["main", "build_parser"]

DEFAULT_SQL = (
    "SELECT count(*), avg(age), avg(bmi) FROM health WHERE age > 65 "
    "GROUP BY GROUPING SETS ((region), ())"
)


def _parse_pairs(raw: str | None) -> tuple[tuple[str, str], ...]:
    """Parse ``a,b;c,d`` into separation pairs."""
    if not raw:
        return ()
    pairs = []
    for chunk in raw.split(";"):
        parts = [part.strip() for part in chunk.split(",")]
        if len(parts) != 2 or not all(parts):
            raise argparse.ArgumentTypeError(
                f"separation pairs look like 'a,b;c,d', got {raw!r}"
            )
        pairs.append((parts[0], parts[1]))
    return tuple(pairs)


def _parse_probabilities(raw: str) -> tuple[float, ...]:
    """Parse ``0.0,0.002`` into a tuple of probabilities."""
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"probabilities look like '0.0,0.002', got {raw!r}"
        ) from None
    if not values or any(not 0.0 <= value <= 1.0 for value in values):
        raise argparse.ArgumentTypeError(
            f"probabilities must be in [0, 1], got {raw!r}"
        )
    return values


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the telemetry JSONL export to PATH")
    parser.add_argument("--telemetry", action="store_true",
                        help="print the telemetry summary table")


def _add_recovery_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--reliability", action="store_true",
                        help="enable ACK/retransmission transport and "
                             "query-level recovery (watchdogs, reprovisioning, "
                             "graceful degradation)")
    parser.add_argument("--detector", action="store_true",
                        help="adaptive φ-accrual failure detection: suspect "
                             "partitioned/gray devices from per-link delivery "
                             "history instead of waiting out the fixed "
                             "watchdog (requires --reliability)")
    parser.add_argument("--phase-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="computation-phase deadline for the recovery "
                             "watchdog (defaults to 85%% of the query "
                             "deadline; requires --reliability)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    # importing outages registers the topology-outage knobs, so the
    # generated --fault-mix help always lists every known fault kind
    import repro.network.outages  # noqa: F401
    from repro.network.faults import fault_mix_help

    mix_help = (
        "chaos mix, e.g. 'drop=0.05;partition=0.3,gray=0.2'; "
        "';'-chunks are routed by knob scope — " + fault_mix_help()
    )
    parser = argparse.ArgumentParser(
        prog="repro", description="Edgelet computing reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="build and display a QEP (demo Part 1)")
    plan.add_argument("--sql", default=DEFAULT_SQL, help="aggregate SQL query")
    plan.add_argument("--cardinality", type=int, default=2000,
                      help="target snapshot cardinality C")
    plan.add_argument("--max-raw", type=int, default=500,
                      help="max raw tuples per edgelet (horizontal knob)")
    plan.add_argument("--separate", type=_parse_pairs, default=(),
                      help="attribute pairs to separate, e.g. 'age,bmi;age,zipcode'")
    plan.add_argument("--fault-rate", type=float, default=0.1,
                      help="presumed partition fault rate")
    plan.add_argument("--target-success", type=float, default=0.99)
    plan.add_argument("--strategy", choices=STRATEGIES,
                      default="overcollection")
    plan.add_argument("--contributors", type=int, default=20)

    run = sub.add_parser("run", help="execute a query on a synthetic swarm")
    run.add_argument("--sql", default=DEFAULT_SQL)
    run.add_argument("--contributors", type=int, default=200)
    run.add_argument("--processors", type=int, default=40)
    run.add_argument("--rows", type=int, default=400, help="synthetic dataset size")
    run.add_argument("--cardinality", type=int, default=300)
    run.add_argument("--max-raw", type=int, default=100)
    run.add_argument("--fault-rate", type=float, default=0.1)
    run.add_argument("--message-loss", type=float, default=0.0)
    run.add_argument("--crash-probability", type=float, default=0.0)
    run.add_argument("--secure-channels", action="store_true")
    _add_recovery_flags(run)
    run.add_argument("--fault-mix", default=None, metavar="MIX", help=mix_help)
    run.add_argument("--strategy", choices=STRATEGIES,
                     default="overcollection")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--show-plan", action="store_true")
    _add_telemetry_flags(run)

    kmeans = sub.add_parser("kmeans", help="execute the distributed K-Means query")
    kmeans.add_argument("--contributors", type=int, default=150)
    kmeans.add_argument("--processors", type=int, default=40)
    kmeans.add_argument("--rows", type=int, default=300)
    kmeans.add_argument("--cardinality", type=int, default=250)
    kmeans.add_argument("--k", type=int, default=3)
    kmeans.add_argument("--heartbeats", type=int, default=5)
    kmeans.add_argument("--max-raw", type=int, default=80)
    kmeans.add_argument("--fault-rate", type=float, default=0.15)
    kmeans.add_argument("--seed", type=int, default=0)
    _add_telemetry_flags(kmeans)

    explain = sub.add_parser(
        "explain",
        help="show the optimizer's candidate table for a query",
    )
    explain.add_argument("--sql", default=DEFAULT_SQL, help="aggregate SQL query")
    explain.add_argument("--cardinality", type=int, default=300,
                         help="target snapshot cardinality C")
    explain.add_argument("--max-raw", type=int, default=100,
                         help="max raw tuples per edgelet (enumeration cap)")
    explain.add_argument("--separate", type=_parse_pairs, default=(),
                         help="attribute pairs to separate")
    explain.add_argument("--fault-rate", type=float, default=0.1,
                         help="presumed fault rate (pinned mode only; cost "
                              "mode derives it from the substrate profile)")
    explain.add_argument("--target-success", type=float, default=0.99)
    explain.add_argument("--strategy", choices=STRATEGIES,
                         default="overcollection",
                         help="baseline strategy (pinned mode honours it; "
                              "cost mode treats it as one candidate)")
    explain.add_argument("--profile", choices=tuple(sorted(SUBSTRATE_PROFILES)),
                         default="residential",
                         help="substrate profile to optimize over")
    explain.add_argument("--contributors", type=int, default=None,
                         help="override the profile's contributor count")
    explain.add_argument("--processors", type=int, default=None,
                         help="override the profile's processor count")
    explain.add_argument("--pinned", action="store_true",
                         help="score the caller-pinned plan instead of "
                              "running the cost-based optimizer")

    resiliency = sub.add_parser(
        "resiliency", help="overcollection table for a fault-rate sweep"
    )
    resiliency.add_argument("--n", type=int, default=10,
                            help="horizontal partitioning degree")
    resiliency.add_argument("--target-success", type=float, default=0.99)

    chaos = sub.add_parser(
        "chaos", help="seeded chaos campaign with invariant checking"
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="campaign seed; run i uses seed + i*100003")
    chaos.add_argument("--runs", type=int, default=25)
    chaos.add_argument("--strategy",
                       choices=(*STRATEGIES, "both"),
                       default="both")
    chaos.add_argument("--fault-mix", default=None, metavar="MIX", help=mix_help)
    chaos.add_argument("--failure-probability", type=_parse_probabilities,
                       default=(0.0, 0.002), metavar="P[,P...]",
                       help="per-device per-tick crash probabilities to sweep")
    chaos.add_argument("--disconnect-probability", type=float, default=0.0)
    chaos.add_argument("--message-loss", type=float, default=0.0,
                       help="per-message network loss probability")
    _add_recovery_flags(chaos)
    chaos.add_argument("--contributors", type=int, default=24)
    chaos.add_argument("--processors", type=int, default=20)
    chaos.add_argument("--rows", type=int, default=48)
    chaos.add_argument("--backup-replicas", type=int, default=1)
    chaos.add_argument("--optimizer", choices=("pinned", "cost"),
                       default="pinned",
                       help="'pinned' replays the legacy hand-assembled "
                            "physical parameters; 'cost' lets the "
                            "cost-based optimizer choose per run")
    chaos.add_argument("--validity-tolerance", type=float, default=0.75,
                       help="max relative error tolerated on shared cells "
                            "for runs that experienced faults (calibrate to "
                            "the plan's m/n extrapolation bound)")
    chaos.add_argument("--repro-out", metavar="DIR", default=None,
                       help="write one JSON repro artifact per violation")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="skip failure-schedule shrinking on violation")
    chaos.add_argument("--shrink-budget", type=int, default=24,
                       help="max scenario re-executions per shrink")
    chaos.add_argument("--workload", type=int, default=None, metavar="N",
                       help="chaos a concurrent N-query workload instead of "
                            "sweeping single-query runs: faults hit the "
                            "shared swarm while N queries are in flight, "
                            "and every invariant is checked per query")
    chaos.add_argument("--workload-max-concurrent", type=int, default=8,
                       metavar="K",
                       help="admission cap of the chaos workload")
    chaos.add_argument("--replay", metavar="PATH", default=None,
                       help="replay one repro artifact instead of sweeping")
    _add_telemetry_flags(chaos)

    workload = sub.add_parser(
        "workload",
        help="run a deterministic multi-query workload over one shared swarm",
    )
    workload.add_argument("--queries", type=int, default=10,
                          help="number of query arrivals")
    workload.add_argument("--arrival", choices=("poisson", "uniform", "closed"),
                          default="poisson", help="arrival process")
    workload.add_argument("--rate", type=float, default=2.0,
                          help="open-loop arrival rate (queries per second)")
    workload.add_argument("--in-flight", type=int, default=4,
                          help="closed-loop target concurrency")
    workload.add_argument("--max-concurrent", type=int, default=8,
                          help="admission cap on concurrent executions")
    workload.add_argument("--queue", type=int, default=16,
                          help="admission queue capacity (0 = shed at cap)")
    workload.add_argument("--backup-fraction", type=float, default=0.0,
                          help="fraction of queries using the backup strategy")
    workload.add_argument("--contributors", type=int, default=30)
    workload.add_argument("--processors", type=int, default=60)
    workload.add_argument("--cardinality", type=int, default=48)
    workload.add_argument("--max-raw", type=int, default=24)
    workload.add_argument("--sql", default=DEFAULT_SQL)
    workload.add_argument("--collection-window", type=float, default=5.0)
    workload.add_argument("--deadline", type=float, default=12.0)
    workload.add_argument("--reliability", action="store_true",
                          help="per-query reliable transport and recovery")
    workload.add_argument("--standbys", type=int, default=0,
                          help="extra devices leased per reliable query "
                               "(requires --reliability)")
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--per-query", action="store_true",
                          help="print the per-query lifecycle table")
    workload.add_argument("--serial-check", action="store_true",
                          help="replay every completed query alone and "
                               "verify byte-identical report fingerprints")
    _add_telemetry_flags(workload)

    continuous = sub.add_parser(
        "continuous",
        help="run a standing query over a churning device population",
    )
    continuous.add_argument("--windows", type=int, default=10,
                            help="window horizon (fires this many windows)")
    continuous.add_argument("--cadence", type=float, default=20.0,
                            help="virtual seconds between window fires")
    continuous.add_argument("--window", choices=("tumbling", "sliding"),
                            default="tumbling", help="window mode")
    continuous.add_argument("--window-length", type=float, default=None,
                            help="sliding-window freshness horizon "
                                 "(defaults to the cadence)")
    continuous.add_argument("--churn", type=float, default=0.0,
                            metavar="P",
                            help="per-window departure probability per device")
    continuous.add_argument("--arrival-rate", type=float, default=None,
                            help="contributor arrivals per window "
                                 "(default: stationary — matches departures)")
    continuous.add_argument("--data-change", type=float, default=0.0,
                            metavar="P",
                            help="per-window data-refresh probability "
                                 "per contributor")
    continuous.add_argument("--full-recollection", action="store_true",
                            help="disable incremental delta stamps; re-ship "
                                 "every contribution every window")
    continuous.add_argument("--contributors", type=int, default=24)
    continuous.add_argument("--processors", type=int, default=48)
    continuous.add_argument("--cardinality", type=int, default=96)
    continuous.add_argument("--max-raw", type=int, default=24)
    continuous.add_argument("--strategy",
                            choices=STRATEGIES,
                            default="overcollection")
    continuous.add_argument("--sql", default=DEFAULT_SQL)
    continuous.add_argument("--collection-window", type=float, default=5.0)
    continuous.add_argument("--deadline", type=float, default=12.0)
    continuous.add_argument("--reliability", action="store_true",
                            help="per-window reliable transport and recovery")
    continuous.add_argument("--standbys", type=int, default=0,
                            help="extra devices leased per reliable window "
                                 "(requires --reliability)")
    continuous.add_argument("--fault-mix", default=None, metavar="MIX",
                            help=mix_help)
    continuous.add_argument("--check-invariants", action="store_true",
                            help="run the full invariant suite on every "
                                 "window (soak mode)")
    continuous.add_argument("--seed", type=int, default=0)
    continuous.add_argument("--per-window", action="store_true",
                            help="print the per-window lineage table")
    _add_telemetry_flags(continuous)

    advise = sub.add_parser(
        "advise", help="recommend a resiliency strategy for a query"
    )
    advise.add_argument("--distributive", action="store_true",
                        help="the processing merges from partial states")
    advise.add_argument("--iterative", action="store_true",
                        help="the algorithm iterates (K-Means style)")
    advise.add_argument("--exact", action="store_true",
                        help="an exact result is required")
    advise.add_argument("--n", type=int, default=10)
    advise.add_argument("--fault-rate", type=float, default=0.1)

    return parser


def _compile_from_args(
    args: argparse.Namespace,
    query_id: str,
    *,
    kind: str = "aggregate",
    optimizer: str = OPTIMIZER_PINNED,
    substrate: SubstrateProfile | None = None,
) -> CompiledQuery:
    """The CLI's single compile path (plan/run/kmeans/explain).

    Every subcommand's knobs map onto the same ``compile_query`` call;
    knobs a subcommand does not expose fall back to the library
    defaults.
    """
    privacy = PrivacyParameters(
        max_raw_per_edgelet=args.max_raw,
        separated_pairs=getattr(args, "separate", ()),
    )
    resiliency = ResiliencyParameters(
        fault_rate=args.fault_rate,
        target_success=getattr(args, "target_success", 0.99),
        replicas=replicas_for(getattr(args, "strategy", "overcollection")),
    )
    if kind == "kmeans":
        source = scan("health").cluster(
            k=args.k,
            features=("bmi", "systolic_bp", "glucose"),
            heartbeats=args.heartbeats,
        )
    else:
        source = args.sql
    return compile_query(
        source,
        query_id=query_id,
        snapshot_cardinality=args.cardinality,
        privacy=privacy,
        resiliency=resiliency,
        optimizer=optimizer,
        substrate=substrate,
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    compiled = _compile_from_args(args, "cli-plan")
    plan = compiled.build_qep(n_contributors=args.contributors)
    print(render_plan(plan))
    return 0


def _emit_telemetry(args: argparse.Namespace, telemetry: Telemetry) -> None:
    """Write the JSONL export and/or print the summary, as requested."""
    if args.metrics_out:
        try:
            lines = write_jsonl(telemetry, args.metrics_out)
        except OSError as exc:
            print(
                f"telemetry: cannot write {args.metrics_out}: {exc}",
                file=sys.stderr,
            )
        else:
            print(f"telemetry: {lines} records written to {args.metrics_out}")
    if args.telemetry:
        print(render_summary(telemetry))


def _split_mix(raw: str | None):
    """Split a combined ``--fault-mix`` into (fault_specs, outage_spec).

    The outage part is resolved over the processor pool by
    ``Scenario.install_chaos``, the same for every command.
    """
    if not raw:
        return None, None
    from repro.network.faults import parse_fault_mix
    from repro.network.outages import parse_outage_mix, split_chaos_mix

    try:
        message_part, outage_part = split_chaos_mix(raw)
        fault_specs = parse_fault_mix(message_part) if message_part else None
        outage_spec = parse_outage_mix(outage_part) if outage_part else None
    except ValueError as exc:
        raise SystemExit(f"--fault-mix: {exc}") from None
    return fault_specs, outage_spec


def _recovery_options(args: argparse.Namespace) -> dict:
    """The ``_add_recovery_flags`` values as ScenarioConfig keywords,
    rejected up front (a usage error) when they would be inert."""
    from repro.manager.scenario import check_recovery_options

    options = dict(
        reliability=args.reliability,
        detector=args.detector,
        phase_deadline=args.phase_deadline,
    )
    try:
        check_recovery_options(options)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return options


def _standby_count(args: argparse.Namespace) -> int:
    """``--standbys``, rejected up front without ``--reliability``: the
    spares serve the recovery watchdog reliability wires, and the
    engines lease none for an unreliable run."""
    if args.standbys and not args.reliability:
        raise SystemExit("--standbys requires --reliability")
    return args.standbys


def _cmd_run(args: argparse.Namespace) -> int:
    rows = generate_health_rows(args.rows, seed=args.seed)
    fault_specs, outage_spec = _split_mix(args.fault_mix)
    config = ScenarioConfig(
        n_contributors=args.contributors,
        n_processors=args.processors,
        rows=rows,
        schema=HEALTH_SCHEMA,
        device_mix=(1.0, 0.0, 0.0),
        message_loss=args.message_loss,
        crash_probability=args.crash_probability,
        secure_channels=args.secure_channels,
        fault_specs=fault_specs,
        outage_spec=outage_spec,
        seed=args.seed,
        **_recovery_options(args),
    )
    telemetry = Telemetry()
    scenario = Scenario(config, telemetry=telemetry)
    compiled = _compile_from_args(args, "cli-run")
    result = scenario.run_compiled(compiled)
    if args.show_plan:
        print(render_plan(result.plan))
        print()
    print(render_report(result.report))
    _emit_telemetry(args, telemetry)
    if result.report.success and (compiled.order_by or compiled.limit is not None):
        print("  presented (ORDER BY / LIMIT applied):")
        for row in compiled.present(result.report.result.all_rows()):
            print(f"    {row}")
    if result.report.success:
        outcome = verify_against_centralized(
            result.report, compiled.spec.group_by, Relation(HEALTH_SCHEMA, rows)
        )
        print(
            f"  verification: exact={outcome.exact}, "
            f"mean rel. error={outcome.validity.mean_relative_error:.4f}"
        )
        print(f"  exposure: {result.exposure.summary()}")
        print(f"  liability: {result.liability.summary()}")
        return 0
    return 1


def _cmd_kmeans(args: argparse.Namespace) -> int:
    rows = generate_health_rows(args.rows, seed=args.seed)
    config = ScenarioConfig(
        n_contributors=args.contributors,
        n_processors=args.processors,
        rows=rows,
        schema=HEALTH_SCHEMA,
        device_mix=(1.0, 0.0, 0.0),
        seed=args.seed,
    )
    telemetry = Telemetry()
    scenario = Scenario(config, telemetry=telemetry)
    compiled = _compile_from_args(args, "cli-kmeans", kind="kmeans")
    result = scenario.run_compiled(compiled)
    print(render_report(result.report))
    _emit_telemetry(args, telemetry)
    if result.report.success and result.report.kmeans is not None:
        for centroid, weight in zip(
            result.report.kmeans.centroids, result.report.kmeans.weights
        ):
            values = ", ".join(f"{value:.2f}" for value in centroid)
            print(f"  centroid ({values})  weight {weight:.0f}")
        return 0
    return 1


def _cmd_explain(args: argparse.Namespace) -> int:
    import dataclasses

    substrate = SUBSTRATE_PROFILES[args.profile]
    overrides = {}
    if args.contributors is not None:
        overrides["n_contributors"] = args.contributors
    if args.processors is not None:
        overrides["n_processors"] = args.processors
    if overrides:
        substrate = dataclasses.replace(substrate, **overrides)
    compiled = _compile_from_args(
        args,
        "cli-explain",
        optimizer=OPTIMIZER_PINNED if args.pinned else OPTIMIZER_COST,
        substrate=substrate,
    )
    print(compiled.explain.render())
    return 0


def _cmd_resiliency(args: argparse.Namespace) -> int:
    lines = [f"{'fault rate':>12} {'m':>5} {'n+m':>5} {'P(success)':>12}"]
    for fault_rate in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        m = minimum_overcollection(args.n, fault_rate, args.target_success)
        probability = query_success_probability(args.n, m, fault_rate)
        lines.append(
            f"{fault_rate:>12.2f} {m:>5d} {args.n + m:>5d} {probability:>12.4f}"
        )
    print("\n".join(lines))
    return 0


def _render_rows(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Minimal fixed-width table (the GUI substitute's summary view)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(header.rjust(widths[i]) for i, header in enumerate(headers))
    ]
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    from repro.chaos import ReproArtifact

    try:
        artifact = ReproArtifact.load(args.replay)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--replay: {exc}") from None
    print(f"replaying {args.replay}")
    print(f"  invariant: {artifact.invariant}")
    print(f"  mode:      {artifact.mode}")
    print(f"  detail:    {artifact.detail}")
    telemetry = Telemetry()
    outcome = artifact.replay(telemetry=telemetry)
    _emit_telemetry(args, telemetry)
    for violation in outcome.violations:
        print(f"  violated:  {violation.invariant} — {violation.detail}")
    if artifact.reproduced(outcome):
        print("  reproduced: yes (recorded invariant fired again)")
        return 1
    print("  reproduced: NO — the recorded invariant did not fire")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.chaos import (
        CampaignConfig,
        RunSpec,
        TopologySpec,
        run_campaign,
    )

    if args.replay:
        return _cmd_chaos_replay(args)
    if args.workload is not None:
        return _cmd_chaos_workload(args)

    strategies = STRATEGIES if args.strategy == "both" else (args.strategy,)
    try:
        replicas = tuple(
            replicas_for(name, args.backup_replicas) for name in strategies
        )
    except ValueError as exc:
        raise SystemExit(f"--backup-replicas: {exc}") from None
    fault_mix, outage_spec = _split_mix(args.fault_mix)
    config = CampaignConfig(
        base=RunSpec(
            seed=args.seed,
            tag="chaos",
            disconnect_probability=args.disconnect_probability,
            message_loss=args.message_loss,
            outage_spec=outage_spec,
            validity_tolerance=args.validity_tolerance,
            optimizer=args.optimizer,
            **_recovery_options(args),
        ),
        runs=args.runs,
        replicas=replicas,
        crash_probabilities=args.failure_probability,
        fault_mixes=(fault_mix or (),),
        topologies=(
            TopologySpec(
                n_contributors=args.contributors,
                n_processors=args.processors,
                n_rows=args.rows,
            ),
        ),
        shrink=not args.no_shrink,
        shrink_budget=args.shrink_budget,
    )
    telemetry = Telemetry()
    result = run_campaign(config, telemetry=telemetry)
    print(
        f"chaos campaign: seed={args.seed} runs={config.runs} "
        f"strategies={','.join(strategies)}"
    )
    print(
        _render_rows(
            ["strategy", "crash p", "mix", "runs", "ok", "faults", "violations"],
            result.summary_rows(),
        )
    )
    for index, violation in result.violations:
        print(f"  run {index}: {violation.invariant} — {violation.detail}")
    if args.repro_out and result.artifacts:
        out_dir = Path(args.repro_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for index, artifact in enumerate(result.artifacts):
            path = out_dir / f"repro-{artifact.invariant}-{index:03d}.json"
            artifact.save(path)
            print(f"  artifact: {path} ({artifact.mode})")
    _emit_telemetry(args, telemetry)
    if result.ok:
        print("all invariants held")
        return 0
    print(f"{len(result.violations)} invariant violation(s)")
    return 1


def _cmd_chaos_workload(args: argparse.Namespace) -> int:
    from repro.chaos import run_workload, shrink_workload_plan
    from repro.workload import WorkloadSpec

    fault_specs, outage_spec = _split_mix(args.fault_mix)
    options = _recovery_options(args)
    # the spec owns reliability: the engine refuses it as a keyword
    spec = WorkloadSpec(
        n_queries=args.workload,
        max_concurrent=args.workload_max_concurrent,
        queue_capacity=2 * args.workload_max_concurrent,
        seed=args.seed,
        reliability=options.pop("reliability"),
    )
    telemetry = Telemetry()
    outcome = run_workload(
        spec,
        telemetry=telemetry,
        validity_tolerance=args.validity_tolerance,
        n_contributors=args.contributors,
        n_processors=args.processors,
        crash_probability=max(args.failure_probability),
        disconnect_probability=args.disconnect_probability,
        message_loss=args.message_loss,
        fault_specs=fault_specs,
        outage_spec=outage_spec,
        **options,
    )
    print(
        f"chaos workload: seed={spec.seed} queries={spec.n_queries} "
        f"max_concurrent={spec.max_concurrent} clean={outcome.clean}"
    )
    print(
        _render_rows(
            ["query", "outcome", "success", "degraded", "violations"],
            outcome.summary_rows(),
        )
    )
    summary = outcome.result.summary()
    print(
        f"  completed={summary['completed']} shed={summary['shed']} "
        f"throughput={summary['throughput']:.3f}/s "
        f"utilization={summary['utilization']:.2%}"
    )
    for query_id, violation in outcome.violations:
        print(f"  {query_id}: {violation.invariant} — {violation.detail}")
    if outcome.violations and not args.no_shrink:
        shrunk = shrink_workload_plan(outcome, max_attempts=args.shrink_budget)
        if shrunk is None:
            print("  shrink: schedule does not reproduce as a scripted plan")
        else:
            print(f"  shrink: minimal failing plan {shrunk.to_dict()}")
    _emit_telemetry(args, telemetry)
    if outcome.ok:
        print("all invariants held for every query")
        return 0
    print(f"{len(outcome.violations)} invariant violation(s)")
    return 1


def _print_liability(liability) -> None:
    """The run's cumulative Crowd Liability, over every completed plan."""
    print(
        f"  crowd liability: {len(liability.operators_per_device)} processors, "
        f"gini={liability.gini_operators:.3f}, "
        f"max share={liability.max_share:.2%}"
    )


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workload import WorkloadEngine, WorkloadSpec, serial_fingerprints

    standby_count = _standby_count(args)
    spec = WorkloadSpec(
        n_queries=args.queries,
        arrival_process=args.arrival,
        arrival_rate=args.rate,
        target_in_flight=args.in_flight,
        max_concurrent=args.max_concurrent,
        queue_capacity=args.queue,
        backup_fraction=args.backup_fraction,
        seed=args.seed,
        snapshot_cardinality=args.cardinality,
        max_raw_per_edgelet=args.max_raw,
        collection_window=args.collection_window,
        deadline=args.deadline,
        reliability=args.reliability,
        sql=args.sql,
    )
    telemetry = Telemetry()
    engine = WorkloadEngine(
        spec,
        n_contributors=args.contributors,
        n_processors=args.processors,
        telemetry=telemetry,
        standby_count=standby_count,
    )
    result = engine.run()
    summary = result.summary()
    print(
        f"workload: seed={spec.seed} queries={spec.n_queries} "
        f"arrival={spec.arrival_process} max_concurrent={spec.max_concurrent}"
    )
    print(
        _render_rows(
            ["arrivals", "admitted", "queued", "shed", "completed",
             "succeeded", "degraded"],
            [[summary["arrivals"], summary["admitted"], summary["queued"],
              summary["shed"], summary["completed"], summary["succeeded"],
              summary["degraded"]]],
        )
    )
    if result.latency_percentiles:
        print(
            f"  latency p50={result.latency_percentiles['p50']:.2f}s "
            f"p95={result.latency_percentiles['p95']:.2f}s "
            f"p99={result.latency_percentiles['p99']:.2f}s"
        )
    print(
        f"  elapsed={result.elapsed:.2f}s virtual, "
        f"throughput={result.throughput:.3f} queries/s, "
        f"device utilization={result.utilization:.2%}"
    )
    _print_liability(result.liability)
    if args.per_query:
        rows = []
        for record in result.records:
            rows.append([
                record.arrival.query_id,
                strategy_name(record.arrival.replicas),
                record.outcome,
                "-" if record.arrived_at is None else f"{record.arrived_at:.2f}",
                "-" if record.latency is None else f"{record.latency:.2f}",
                len(record.leased),
            ])
        print(_render_rows(
            ["query", "strategy", "outcome", "arrived", "latency", "leased"],
            rows,
        ))
    exit_code = 0
    if args.serial_check:
        workload_prints = result.fingerprints()
        solo_prints = serial_fingerprints(engine, result)
        matches = sum(
            1 for qid, fp in workload_prints.items()
            if solo_prints.get(qid) == fp
        )
        print(
            f"  serial equivalence: {matches}/{len(workload_prints)} queries "
            f"byte-identical to their solo replays"
        )
        if matches != len(workload_prints):
            exit_code = 1
    _emit_telemetry(args, telemetry)
    if result.completed + result.shed != result.arrivals:
        exit_code = 1
    return exit_code


def _cmd_continuous(args: argparse.Namespace) -> int:
    from repro.continuous import StandingQuerySpec
    from repro.devices.churn import ChurnSpec

    standby_count = _standby_count(args)
    spec = StandingQuerySpec(
        cadence=args.cadence,
        max_windows=args.windows,
        window=args.window,
        window_length=args.window_length,
        snapshot_cardinality=args.cardinality,
        max_raw_per_edgelet=args.max_raw,
        replicas=replicas_for(args.strategy),
        collection_window=args.collection_window,
        deadline=args.deadline,
        reliability=args.reliability,
        incremental=not args.full_recollection,
        seed=args.seed,
        sql=args.sql,
    )
    churn = None
    if args.churn > 0 or args.data_change > 0 or args.arrival_rate:
        churn = ChurnSpec(
            departure_probability=args.churn,
            contributor_arrival_rate=args.arrival_rate,
            data_change_probability=args.data_change,
            seed=args.seed,
        )
    fault_specs, outage_spec = _split_mix(args.fault_mix)
    telemetry = Telemetry()
    engine_options = dict(
        churn=churn,
        n_contributors=args.contributors,
        n_processors=args.processors,
        telemetry=telemetry,
        standby_count=standby_count,
        fault_specs=fault_specs,
        outage_spec=outage_spec,
    )
    exit_code = 0
    if args.check_invariants:
        from repro.chaos import run_soak

        outcome = run_soak(spec, **engine_options)
        result = outcome.result
        print(
            f"continuous soak: seed={spec.seed} windows={spec.max_windows} "
            f"cadence={spec.cadence} churn={args.churn} clean={outcome.clean}"
        )
        if args.per_window:
            print(
                _render_rows(
                    ["window", "outcome", "success", "degraded", "coverage",
                     "violations"],
                    outcome.summary_rows(),
                )
            )
        for window_id, violation in outcome.violations:
            print(f"  {window_id}: {violation.invariant} — {violation.detail}")
        if outcome.ok:
            print("all invariants held for every window")
        else:
            print(f"{len(outcome.violations)} invariant violation(s)")
            exit_code = 1
    else:
        from repro.continuous import ContinuousEngine

        result = ContinuousEngine(spec, **engine_options).run()
        print(
            f"continuous: seed={spec.seed} windows={spec.max_windows} "
            f"cadence={spec.cadence} window={spec.window} "
            f"incremental={spec.incremental}"
        )
        if args.per_window:
            rows = []
            for record in result.windows:
                stats = record.incremental
                rows.append([
                    record.window_id,
                    record.outcome,
                    len(record.population),
                    len(record.eligible),
                    f"{record.overlap_with_previous:.2f}",
                    "-" if record.coverage is None else f"{record.coverage:.2f}",
                    stats.get("stamped", 0),
                    stats.get("full", 0),
                    record.window_bytes,
                ])
            print(_render_rows(
                ["window", "outcome", "pop", "eligible", "overlap",
                 "coverage", "stamped", "full", "bytes"],
                rows,
            ))
    summary = result.summary()
    print(
        f"  completed={summary['completed']} skipped={summary['skipped']} "
        f"empty={summary['empty']} succeeded={summary['succeeded']} "
        f"degraded={summary['degraded']}"
    )
    print(
        f"  population={summary['final_population']} "
        f"mean_overlap={summary['mean_overlap']:.2%} "
        f"mean_coverage={summary['mean_coverage']:.2%}"
    )
    print(
        f"  bytes/window={summary['bytes_per_window']:.0f} "
        f"messages/window={summary['messages_per_window']:.1f} "
        f"stamps={summary.get('incremental_stamped', 0)} "
        f"bytes_saved={summary.get('incremental_bytes_saved', 0)}"
    )
    _print_liability(result.liability)
    _emit_telemetry(args, telemetry)
    if summary["completed"] + summary["skipped"] + summary["empty"] != spec.max_windows:
        exit_code = 1
    return exit_code


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import QueryProperties, recommend_strategy

    properties = QueryProperties(
        distributive=args.distributive,
        iterative=args.iterative,
        exact_result_required=args.exact,
    )
    recommendation = recommend_strategy(
        properties, n=args.n, fault_rate=args.fault_rate
    )
    print(f"strategy: {recommendation.strategy}")
    print(f"heartbeat execution: {recommendation.heartbeat_execution}")
    print(f"extra devices: {recommendation.extra_devices}")
    print(f"worst extra latency: {recommendation.worst_extra_latency:.0f}s")
    for reason in recommendation.reasons:
        print(f"  - {reason}")
    return 0


_COMMANDS = {
    "plan": _cmd_plan,
    "run": _cmd_run,
    "kmeans": _cmd_kmeans,
    "explain": _cmd_explain,
    "resiliency": _cmd_resiliency,
    "chaos": _cmd_chaos,
    "workload": _cmd_workload,
    "continuous": _cmd_continuous,
    "advise": _cmd_advise,
}

#: Commands whose only inputs are planning parameters: a rejected one is
#: a usage error, not a crash.
_PLANNING_COMMANDS = frozenset({"plan", "explain", "resiliency", "advise"})


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        # a command's usage error ("--flag: why"): one line on stderr
        # and argparse's usage exit status, never a traceback
        if not isinstance(exc.code, str):
            raise
        print(exc.code, file=sys.stderr)
        return 2
    except (ValueError, PlanningError) as exc:
        if args.command not in _PLANNING_COMMANDS:
            raise
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
