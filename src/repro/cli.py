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
import dataclasses
import sys
from typing import Any, Callable, NamedTuple, Sequence

from repro.chaos.campaign import CampaignConfig, RunSpec, TopologySpec
from repro.continuous.spec import WINDOW_MODES, StandingQuerySpec
from repro.core.planner import PlanningError, PrivacyParameters, ResiliencyParameters
from repro.core.resiliency import (
    STRATEGIES,
    minimum_overcollection,
    query_success_probability,
    replicas_for,
    strategy_name,
)
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.devices.churn import ChurnSpec
from repro.manager.dashboard import render_plan, render_report
from repro.errors import SpecError
from repro.manager.scenario import RunOptions, Scenario, ScenarioConfig
from repro.manager.verification import verify_against_centralized
from repro.network.outages import fault_mix_help
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
from repro.workload.spec import ARRIVAL_PROCESSES, WorkloadSpec

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
    """Parse ``0.0,0.002`` into a tuple of probabilities (the run
    options check their range)."""
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(
            f"probabilities look like '0.0,0.002', got {raw!r}"
        )
    return values


#: spec field annotation -> the argparse ``type`` of a flag that sets it
#: (a ``str`` field keeps the string as parsed, a ``bool`` one is a switch)
_TYPES: dict[str, Any] = {"int": int, "float": float, "float | None": float}

#: spec field -> the spec module's constant naming its legal values
_CHOICES: dict[str, tuple[str, ...]] = {
    "arrival_process": ARRIVAL_PROCESSES,
    "window": WINDOW_MODES,
    "optimizer": (OPTIMIZER_PINNED, OPTIMIZER_COST),
}


class _Flag:
    """One row of a command's flag table.

    A row with ``specs`` sets ``field`` (by default the flag's dest) of
    each of them or of a subclass: the first one's field annotation,
    default and choice set give the flag's type, default and choices.
    ``options`` are argparse keywords laid over those: help text, a
    display metavar, a parser function, or a default that differs from
    the spec's on purpose.  A ``convert`` row parses a value of its own
    (its ``options`` say which) and maps it onto the field when a spec
    is built.  A row without ``specs`` is a flag the command reads itself.
    """

    def __init__(
        self,
        spelling: str,
        specs: type | tuple[type, ...] = (),
        field: str | None = None,
        *,
        convert: Callable[[Any], Any] | None = None,
        **options: Any,
    ) -> None:
        self.spelling, self.convert, self.options = spelling, convert, options
        self.specs = specs if isinstance(specs, tuple) else (specs,)
        self.dest = options.get("dest", spelling[2:].replace("-", "_"))
        self.field = field or (self.dest if self.specs else None)

    def declare(self, parser: argparse.ArgumentParser) -> None:
        derived: dict[str, Any] = {}
        if self.specs and self.convert is None:
            fields = {f.name: f for f in dataclasses.fields(self.specs[0])}
            spec_field = fields[self.field]
            if spec_field.default is not dataclasses.MISSING:
                derived["default"] = spec_field.default
            if spec_field.type == "bool":
                derived["action"] = "store_true"
            elif spec_field.type in _TYPES:
                derived["type"] = _TYPES[spec_field.type]
            if self.field in _CHOICES:
                derived["choices"] = _CHOICES[self.field]
        parser.add_argument(self.spelling, **(derived | self.options))

    def value(self, args: argparse.Namespace) -> Any:
        value = getattr(args, self.dest)
        return value if self.convert is None else self.convert(value)


class _Command(NamedTuple):
    help: str
    flags: tuple[_Flag, ...]


_MIX = _Flag(
    "--fault-mix", default=None, metavar="MIX",
    help="chaos mix, e.g. 'drop=0.05;partition=0.3,gray=0.2'; "
         "';'-chunks are routed by knob scope — " + fault_mix_help(),
)
#: ``--strategy`` spells a plan's replica count
_STRATEGY: dict[str, Any] = dict(
    convert=replicas_for, choices=STRATEGIES, default="overcollection"
)
_RECOVERY = (
    _Flag("--reliability", RunOptions,
          help="enable ACK/retransmission transport and query-level recovery "
               "(watchdogs, reprovisioning, graceful degradation)"),
    _Flag("--detector", RunOptions,
          help="adaptive φ-accrual failure detection: suspect partitioned/gray "
               "devices from per-link delivery history instead of waiting out "
               "the fixed watchdog (requires --reliability)"),
    _Flag("--phase-deadline", RunOptions, metavar="SECONDS",
          help="computation-phase deadline for the recovery watchdog (defaults "
               "to 85%% of the query deadline; requires --reliability)"),
)
_TELEMETRY = (
    _Flag("--metrics-out", metavar="PATH", default=None,
          help="write the telemetry JSONL export to PATH"),
    _Flag("--telemetry", action="store_true", help="print the telemetry summary table"),
)

#: Every command's flags in ``--help`` order.  The swarm sizes differ
#: on purpose: each command is sized to what it runs.
_FLAGS: dict[str, _Command] = {
    "plan": _Command("build and display a QEP (demo Part 1)", (
        _Flag("--sql", default=DEFAULT_SQL, help="aggregate SQL query"),
        _Flag("--cardinality", type=int, default=2000,
              help="target snapshot cardinality C"),
        _Flag("--max-raw", PrivacyParameters, "max_raw_per_edgelet", default=500,
              help="max raw tuples per edgelet (horizontal knob)"),
        _Flag("--separate", PrivacyParameters, "separated_pairs", type=_parse_pairs,
              help="attribute pairs to separate, e.g. 'age,bmi;age,zipcode'"),
        _Flag("--fault-rate", ResiliencyParameters, default=0.1,
              help="presumed partition fault rate"),
        _Flag("--target-success", ResiliencyParameters),
        _Flag("--strategy", ResiliencyParameters, "replicas", **_STRATEGY),
        _Flag("--contributors", type=int, default=20),
    )),
    "run": _Command("execute a query on a synthetic swarm", (
        _Flag("--sql", default=DEFAULT_SQL),
        _Flag("--contributors", ScenarioConfig, "n_contributors", default=200),
        _Flag("--processors", ScenarioConfig, "n_processors", default=40),
        _Flag("--rows", type=int, default=400, help="synthetic dataset size"),
        _Flag("--cardinality", type=int, default=300),
        _Flag("--max-raw", PrivacyParameters, "max_raw_per_edgelet", default=100),
        _Flag("--fault-rate", ResiliencyParameters, default=0.1),
        _Flag("--message-loss", RunOptions),
        _Flag("--crash-probability", RunOptions),
        _Flag("--secure-channels", RunOptions),
        *_RECOVERY,
        _MIX,
        _Flag("--strategy", ResiliencyParameters, "replicas", **_STRATEGY),
        _Flag("--seed", ScenarioConfig),
        _Flag("--show-plan", action="store_true"),
        *_TELEMETRY,
    )),
    "kmeans": _Command("execute the distributed K-Means query", (
        _Flag("--contributors", ScenarioConfig, "n_contributors", default=150),
        _Flag("--processors", ScenarioConfig, "n_processors", default=40),
        _Flag("--rows", type=int, default=300),
        _Flag("--cardinality", type=int, default=250),
        _Flag("--k", type=int, default=3),
        _Flag("--heartbeats", type=int, default=5),
        _Flag("--max-raw", PrivacyParameters, "max_raw_per_edgelet", default=80),
        _Flag("--fault-rate", ResiliencyParameters, default=0.15),
        _Flag("--seed", ScenarioConfig),
        *_TELEMETRY,
    )),
    "explain": _Command("show the optimizer's candidate table for a query", (
        _Flag("--sql", default=DEFAULT_SQL, help="aggregate SQL query"),
        _Flag("--cardinality", type=int, default=300,
              help="target snapshot cardinality C"),
        _Flag("--max-raw", PrivacyParameters, "max_raw_per_edgelet", default=100,
              help="max raw tuples per edgelet (enumeration cap)"),
        _Flag("--separate", PrivacyParameters, "separated_pairs", type=_parse_pairs,
              help="attribute pairs to separate"),
        _Flag("--fault-rate", ResiliencyParameters, default=0.1,
              help="presumed fault rate (pinned mode only; cost mode derives it "
                   "from the substrate profile)"),
        _Flag("--target-success", ResiliencyParameters),
        _Flag("--strategy", ResiliencyParameters, "replicas", **_STRATEGY,
              help="baseline strategy (pinned mode honours it; cost mode treats "
                   "it as one candidate)"),
        _Flag("--profile", choices=tuple(sorted(SUBSTRATE_PROFILES)),
              default="residential", help="substrate profile to optimize over"),
        _Flag("--contributors", SubstrateProfile, "n_contributors", default=None,
              help="override the profile's contributor count"),
        _Flag("--processors", SubstrateProfile, "n_processors", default=None,
              help="override the profile's processor count"),
        _Flag("--pinned", action="store_true",
              help="score the caller-pinned plan instead of running the "
                   "cost-based optimizer"),
    )),
    "resiliency": _Command("overcollection table for a fault-rate sweep", (
        _Flag("--n", type=int, default=10, help="horizontal partitioning degree"),
        _Flag("--target-success", ResiliencyParameters),
    )),
    "chaos": _Command("seeded chaos campaign with invariant checking", (
        _Flag("--seed", (WorkloadSpec, RunSpec),
              help="campaign seed; run i uses seed + i*100003"),
        _Flag("--runs", CampaignConfig),
        _Flag("--strategy", choices=(*STRATEGIES, "both"), default="both"),
        _MIX,
        _Flag("--failure-probability", CampaignConfig, "crash_probabilities",
              type=_parse_probabilities, metavar="P[,P...]",
              help="per-device per-tick crash probabilities to sweep"),
        _Flag("--disconnect-probability", RunOptions),
        _Flag("--message-loss", RunOptions,
              help="per-message network loss probability"),
        *_RECOVERY,
        _Flag("--contributors", TopologySpec, "n_contributors"),
        _Flag("--processors", TopologySpec, "n_processors"),
        _Flag("--rows", TopologySpec, "n_rows"),
        _Flag("--backup-replicas", type=int, default=1),
        _Flag("--optimizer", RunSpec,
              help="'pinned' replays the legacy hand-assembled physical "
                   "parameters; 'cost' lets the cost-based optimizer choose per run"),
        _Flag("--validity-tolerance", RunSpec,
              help="max relative error tolerated on shared cells for runs that "
                   "experienced faults (calibrate to the plan's m/n "
                   "extrapolation bound)"),
        _Flag("--repro-out", metavar="DIR", default=None,
              help="write one JSON repro artifact per violation"),
        _Flag("--no-shrink", action="store_true",
              help="skip failure-schedule shrinking on violation"),
        _Flag("--shrink-budget", CampaignConfig,
              help="max scenario re-executions per shrink"),
        _Flag("--workload", WorkloadSpec, "n_queries", default=None, metavar="N",
              help="chaos a concurrent N-query workload instead of sweeping "
                   "single-query runs: faults hit the shared swarm while N "
                   "queries are in flight, and every invariant is checked per query"),
        _Flag("--workload-max-concurrent", WorkloadSpec, "max_concurrent",
              metavar="K", help="admission cap of the chaos workload"),
        _Flag("--replay", metavar="PATH", default=None,
              help="replay one repro artifact instead of sweeping"),
        *_TELEMETRY,
    )),
    "workload": _Command(
        "run a deterministic multi-query workload over one shared swarm", (
        _Flag("--queries", WorkloadSpec, "n_queries", default=10,
              help="number of query arrivals"),
        _Flag("--arrival", WorkloadSpec, "arrival_process", help="arrival process"),
        _Flag("--rate", WorkloadSpec, "arrival_rate",
              help="open-loop arrival rate (queries per second)"),
        _Flag("--in-flight", WorkloadSpec, "target_in_flight",
              help="closed-loop target concurrency"),
        _Flag("--max-concurrent", WorkloadSpec,
              help="admission cap on concurrent executions"),
        _Flag("--queue", WorkloadSpec, "queue_capacity",
              help="admission queue capacity (0 = shed at cap)"),
        _Flag("--backup-fraction", WorkloadSpec,
              help="fraction of queries using the backup strategy"),
        _Flag("--contributors", type=int, default=30),
        _Flag("--processors", type=int, default=60),
        _Flag("--cardinality", WorkloadSpec, dest="snapshot_cardinality",
              metavar="CARDINALITY"),
        _Flag("--max-raw", WorkloadSpec, dest="max_raw_per_edgelet", metavar="MAX_RAW"),
        _Flag("--sql", WorkloadSpec, default=DEFAULT_SQL),
        _Flag("--collection-window", WorkloadSpec),
        _Flag("--deadline", WorkloadSpec),
        _Flag("--reliability", WorkloadSpec,
              help="per-query reliable transport and recovery"),
        _Flag("--standbys", type=int, default=0,
              help="extra devices leased per reliable query (requires --reliability)"),
        _Flag("--seed", WorkloadSpec),
        _Flag("--per-query", action="store_true",
              help="print the per-query lifecycle table"),
        _Flag("--serial-check", action="store_true",
              help="replay every completed query alone and verify byte-identical "
                   "report fingerprints"),
        *_TELEMETRY,
    )),
    "continuous": _Command("run a standing query over a churning device population", (
        _Flag("--windows", StandingQuerySpec, "max_windows",
              help="window horizon (fires this many windows)"),
        _Flag("--cadence", StandingQuerySpec,
              help="virtual seconds between window fires"),
        _Flag("--window", StandingQuerySpec, help="window mode"),
        _Flag("--window-length", StandingQuerySpec,
              help="sliding-window freshness horizon (defaults to the cadence)"),
        _Flag("--churn", ChurnSpec, "departure_probability", metavar="P",
              help="per-window departure probability per device"),
        _Flag("--arrival-rate", ChurnSpec, "contributor_arrival_rate",
              help="contributor arrivals per window "
                   "(default: stationary — matches departures)"),
        _Flag("--data-change", ChurnSpec, "data_change_probability", metavar="P",
              help="per-window data-refresh probability per contributor"),
        _Flag("--full-recollection", action="store_true",
              help="disable incremental delta stamps; re-ship every "
                   "contribution every window"),
        _Flag("--contributors", type=int, default=24),
        _Flag("--processors", type=int, default=48),
        _Flag("--cardinality", StandingQuerySpec, dest="snapshot_cardinality",
              metavar="CARDINALITY"),
        _Flag("--max-raw", StandingQuerySpec, dest="max_raw_per_edgelet",
              metavar="MAX_RAW"),
        _Flag("--strategy", StandingQuerySpec, "replicas", **_STRATEGY),
        _Flag("--sql", StandingQuerySpec, default=DEFAULT_SQL),
        _Flag("--collection-window", StandingQuerySpec),
        _Flag("--deadline", StandingQuerySpec),
        _Flag("--reliability", StandingQuerySpec,
              help="per-window reliable transport and recovery"),
        _Flag("--standbys", type=int, default=0,
              help="extra devices leased per reliable window (requires --reliability)"),
        _MIX,
        _Flag("--check-invariants", action="store_true",
              help="run the full invariant suite on every window (soak mode)"),
        _Flag("--seed", (StandingQuerySpec, ChurnSpec)),
        _Flag("--per-window", action="store_true",
              help="print the per-window lineage table"),
        *_TELEMETRY,
    )),
    "advise": _Command("recommend a resiliency strategy for a query", (
        _Flag("--distributive", action="store_true",
              help="the processing merges from partial states"),
        _Flag("--iterative", action="store_true",
              help="the algorithm iterates (K-Means style)"),
        _Flag("--exact", action="store_true", help="an exact result is required"),
        _Flag("--n", type=int, default=10),
        _Flag("--fault-rate", type=float, default=0.1),
    )),
}


def _fields(args: argparse.Namespace, spec: type) -> dict[str, Any]:
    """The value of every flag of ``args.command`` that sets a field of
    ``spec`` (or of one of its bases)."""
    return {
        flag.field: flag.value(args)
        for flag in _FLAGS[args.command].flags
        if any(target in spec.__mro__ for target in flag.specs)
    }


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Edgelet computing reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _FLAGS.items():
        declared = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            flag.declare(declared)
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
    privacy = PrivacyParameters(**_fields(args, PrivacyParameters))
    resiliency = ResiliencyParameters(**_fields(args, ResiliencyParameters))
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
        return (), None
    from repro.network.faults import parse_fault_mix
    from repro.network.outages import parse_outage_mix, split_chaos_mix

    try:
        message_part, outage_part = split_chaos_mix(raw)
        fault_specs = parse_fault_mix(message_part) if message_part else ()
        outage_spec = parse_outage_mix(outage_part) if outage_part else None
    except ValueError as exc:
        raise SystemExit(f"--fault-mix: {exc}") from None
    return fault_specs, outage_spec


def _check_recovery(args: argparse.Namespace) -> None:
    """Check the recovery flags before any other :class:`RunOptions`
    field: an inert or non-positive one prints the option block's message
    as the usage line (their wording predates the ``{command}: ``
    prefix)."""
    recovery = ("reliability", "detector", "phase_deadline")
    try:
        RunOptions(**{name: getattr(args, name) for name in recovery})
    except SpecError as exc:
        raise SystemExit(str(exc)) from None


def _standby_count(args: argparse.Namespace) -> int:
    """``--standbys``, rejected up front without ``--reliability``: the
    spares serve the recovery watchdog reliability wires, and the
    engines lease none for an unreliable run."""
    if args.standbys and not args.reliability:
        raise SystemExit("--standbys requires --reliability")
    return args.standbys


def _run_one_shot(
    args: argparse.Namespace, query_id: str, kind: str = "aggregate", **options: Any
) -> tuple[Scenario, CompiledQuery, Any]:
    """Run one compiled query on the command's PC-only swarm over
    ``--rows`` synthetic health rows; ``options`` are further
    :class:`ScenarioConfig` fields."""
    scenario = Scenario(
        ScenarioConfig(
            **_fields(args, ScenarioConfig),
            rows=generate_health_rows(args.rows, seed=args.seed),
            schema=HEALTH_SCHEMA,
            device_mix=(1.0, 0.0, 0.0),
            **options,
        ),
        telemetry=Telemetry(),
    )
    compiled = _compile_from_args(args, query_id, kind=kind)
    return scenario, compiled, scenario.run_compiled(compiled)


def _cmd_run(args: argparse.Namespace) -> int:
    fault_specs, outage_spec = _split_mix(args.fault_mix)
    _check_recovery(args)
    scenario, compiled, result = _run_one_shot(
        args, "cli-run", fault_specs=fault_specs, outage_spec=outage_spec
    )
    if args.show_plan:
        print(render_plan(result.plan))
        print()
    print(render_report(result.report))
    _emit_telemetry(args, scenario.telemetry)
    if result.report.success and (compiled.order_by or compiled.limit is not None):
        print("  presented (ORDER BY / LIMIT applied):")
        for row in compiled.present(result.report.result.all_rows()):
            print(f"    {row}")
    if result.report.success:
        outcome = verify_against_centralized(
            result.report,
            compiled.spec.group_by,
            Relation(HEALTH_SCHEMA, scenario.config.rows),
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
    scenario, _, result = _run_one_shot(args, "cli-kmeans", kind="kmeans")
    print(render_report(result.report))
    _emit_telemetry(args, scenario.telemetry)
    if result.report.success and result.report.kmeans is not None:
        for centroid, weight in zip(
            result.report.kmeans.centroids, result.report.kmeans.weights
        ):
            values = ", ".join(f"{value:.2f}" for value in centroid)
            print(f"  centroid ({values})  weight {weight:.0f}")
        return 0
    return 1


def _cmd_explain(args: argparse.Namespace) -> int:
    sizes = _fields(args, SubstrateProfile).items()
    overrides = {name: value for name, value in sizes if value is not None}
    compiled = _compile_from_args(
        args,
        "cli-explain",
        optimizer=OPTIMIZER_PINNED if args.pinned else OPTIMIZER_COST,
        substrate=dataclasses.replace(SUBSTRATE_PROFILES[args.profile], **overrides),
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

    from repro.chaos import run_campaign

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
    _check_recovery(args)
    config = CampaignConfig(
        base=RunSpec(**_fields(args, RunSpec), tag="chaos", outage_spec=outage_spec),
        replicas=replicas,
        fault_mixes=(fault_mix or (),),
        topologies=(TopologySpec(**_fields(args, TopologySpec)),),
        shrink=not args.no_shrink,
        **_fields(args, CampaignConfig),
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
            print(f"  artifact: {path}")
    _emit_telemetry(args, telemetry)
    if result.ok:
        print("all invariants held")
        return 0
    print(f"{len(result.violations)} invariant violation(s)")
    return 1


def _cmd_chaos_workload(args: argparse.Namespace) -> int:
    from repro.chaos import run_workload, shrink_workload_plan

    fault_specs, outage_spec = _split_mix(args.fault_mix)
    _check_recovery(args)
    options = _fields(args, RunOptions)
    # the spec owns reliability: the engine refuses it as a keyword
    spec = WorkloadSpec(
        **_fields(args, WorkloadSpec),
        queue_capacity=2 * args.workload_max_concurrent,
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
    from repro.workload import WorkloadEngine, serial_fingerprints

    standby_count = _standby_count(args)
    spec = WorkloadSpec(**_fields(args, WorkloadSpec))
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
    standby_count = _standby_count(args)
    spec = StandingQuerySpec(
        **_fields(args, StandingQuerySpec), incremental=not args.full_recollection
    )
    churn = ChurnSpec(**_fields(args, ChurnSpec))
    fault_specs, outage_spec = _split_mix(args.fault_mix)
    telemetry = Telemetry()
    engine_options = dict(
        churn=churn if churn.any_churn else None,
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


_HANDLERS = {
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


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code: 0 success, 1 a
    failed query, invariant or replay check, 2 a usage error (a malformed
    flag, a :class:`~repro.errors.SpecError` or a
    :class:`~repro.core.planner.PlanningError`).  Any other exception is
    a bug and propagates."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except SystemExit as exc:
        # a usage error the CLI words itself ("--flag: why"): one line
        # on stderr and argparse's usage exit status, never a traceback
        if not isinstance(exc.code, str):
            raise
        print(exc.code, file=sys.stderr)
        return 2
    except (SpecError, PlanningError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
