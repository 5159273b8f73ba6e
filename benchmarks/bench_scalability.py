"""Q-SCALE — §3.3: scalability with the number of simulated edgelets.

The demo attests scalability by attaching "a configurable number of
simulated edgelets" (thousands of Data Contributors).  This bench sweeps
the swarm size and reports wall-clock, virtual completion time, and
message counts; the expected shape is linear growth in messages and
per-contributor work, with a constant-size combination phase.  The sweep
ends at 8,000 contributors, the DomYcile population the paper cites, and
also holds the simulator itself to linear host time: bringing a swarm up
(keys, contact graph, plan) must not cost more per device as it grows.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _scenarios import aggregate_spec, fast_scenario_config, run_once
from _tables import print_table

from repro.crypto import primitives
from repro.data.health import HEALTH_MIXTURE, HEALTH_SCHEMA, generate_health_rows
from repro.query.schema import Schema, SchemaError


def _execute(n_contributors: int, seed: int = 33):
    config = fast_scenario_config(
        n_contributors=n_contributors,
        n_rows=n_contributors * 2,
        seed=seed,
        deadline=80.0,
    )
    spec = aggregate_spec(f"qscale-{n_contributors}", cardinality=n_contributors)
    started = time.perf_counter()
    result = run_once(config, spec, max_raw=max(50, n_contributors // 8))
    elapsed = time.perf_counter() - started
    return result, elapsed


def test_qscale_contributor_sweep(benchmark):
    """Messages and host time scale linearly; combination is flat."""
    rows = []
    per_contributor = []
    wall_clock = []
    for n in (100, 400, 1600, 8000):
        result, elapsed = _execute(n)
        wall_clock.append((n, elapsed))
        report = result.report
        sent = report.network_stats["sent"]
        final_size = len(report.result.all_rows()) if report.result else 0
        per_contributor.append(sent / n)
        rows.append(
            [
                n,
                report.success,
                f"{elapsed:.2f}",
                sent,
                f"{sent / n:.2f}",
                report.completion_time,
                final_size,
            ]
        )
    print_table(
        "Q-SCALE: execution vs number of simulated contributors",
        ["contributors", "success", "wall clock (s)", "messages sent",
         "messages/contributor", "virtual completion", "result rows"],
        rows,
    )
    slope = statistics.linear_regression(
        [math.log(n) for n, _ in wall_clock],
        [math.log(elapsed) for _, elapsed in wall_clock],
    ).slope
    print(f"host wall-clock log-log slope over the sweep: {slope:.2f}")
    assert all(row[1] for row in rows)
    # near-linear: per-contributor message cost stays within 3x across
    # an 80x swarm-size range
    assert max(per_contributor) / min(per_contributor) < 3.0
    # linear bring-up: one stored link per device pair, or a whole-plan
    # acyclicity check per dataflow edge, bends the curve towards 2 well
    # before the 8,000 step (32 million links there)
    assert slope <= 1.15
    # combination output is aggregate-sized, not data-sized
    assert all(row[6] < 30 for row in rows)

    benchmark.pedantic(lambda: _execute(100), rounds=3, iterations=1)


def test_qscale_crypto_overhead(benchmark):
    """Sealed envelopes cost wall-clock but not protocol behaviour."""
    rows_spec = 40
    results = {}
    for secure in (False, True):
        config = fast_scenario_config(
            n_contributors=rows_spec, n_rows=rows_spec * 2, seed=35,
            secure_channels=secure,
        )
        spec = aggregate_spec(f"qscale-crypto-{secure}", cardinality=rows_spec)
        started = time.perf_counter()
        result = run_once(config, spec, max_raw=20)
        elapsed = time.perf_counter() - started
        results[secure] = (result, elapsed)
    print_table(
        "Q-SCALE: secure-channel overhead [40 contributors]",
        ["channels", "success", "wall clock (s)", "bytes sent"],
        [
            ["plain", results[False][0].report.success,
             f"{results[False][1]:.2f}",
             results[False][0].report.network_stats["bytes_sent"]],
            ["sealed+signed", results[True][0].report.success,
             f"{results[True][1]:.2f}",
             results[True][0].report.network_stats["bytes_sent"]],
        ],
    )
    assert results[True][0].report.success

    benchmark.pedantic(
        lambda: _execute(50), rounds=3, iterations=1
    )


def test_qscale_fixed_base_exponentiation(benchmark):
    """One key pair per device: ``g^x`` by table lookup vs builtin ``pow``."""
    rng = random.Random(1)
    rows = []
    speedups = []
    # private keys and signing nonces (keygen, sign, verify), DH's
    # known-log products, whole group
    for bits in (384, 768, primitives.GROUP_ORDER.bit_length()):
        exponents = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(60)]
        started = time.perf_counter()
        expected = [
            pow(primitives.GROUP_GENERATOR, e, primitives.GROUP_PRIME)
            for e in exponents
        ]
        builtin = (time.perf_counter() - started) / len(exponents)
        primitives._generator_power(exponents[0])  # rows built outside the clock
        table = math.inf
        for _ in range(3):
            started = time.perf_counter()
            got = [primitives._generator_power(e) for e in exponents]
            table = min(table, (time.perf_counter() - started) / len(exponents))
        assert got == expected
        entries = -(-bits // primitives._WINDOW_BITS) << primitives._WINDOW_BITS
        speedups.append(builtin / table)
        rows.append([
            bits, f"{builtin * 1e6:.0f}", f"{table * 1e6:.0f}",
            f"{builtin / table:.1f}x", entries,
            f"{entries * sys.getsizeof(primitives.GROUP_PRIME) / 1e6:.1f}",
        ])
    print_table(
        f"Q-SCALE: g^x mod p, fixed-base table (w = {primitives._WINDOW_BITS}) "
        "vs builtin pow",
        ["exponent bits", "pow (us)", "table (us)", "speed-up",
         "table entries", "~MB"],
        rows,
    )
    # the window width's provenance (DESIGN.md, "Crypto substrate"): a
    # drift below 3x means the constant needs re-measuring here
    assert min(speedups) >= 3.0

    # a generated pair computes g^x when its public key is first read,
    # so each round reads the key of a pair nothing has read yet
    seeds = itertools.count()
    benchmark.pedantic(
        lambda: primitives.generate_keypair(b"qscale-%d" % next(seeds)).public,
        rounds=20, iterations=1,
    )


def _per_call(fn, args: list[tuple], reset=None) -> tuple[float, list]:
    """Best-of-3 seconds per call of ``fn`` over ``args``, and its results.

    ``reset`` runs before each round, outside the clock.
    """
    fn(*args[0])  # table rows built outside the clock
    best = math.inf
    for _ in range(3):
        if reset is not None:
            reset()
        started = time.perf_counter()
        results = [fn(*a) for a in args]
        best = min(best, (time.perf_counter() - started) / len(args))
    return best, results


def test_qscale_known_log_route(benchmark, monkeypatch):
    """Sealed channels: ``y^e`` for a minted ``y`` as ``g^(x*e)`` vs ``pow``,
    and the powers a minted pair does not compute twice."""
    pairs = [primitives.generate_keypair(b"qscale-dh-%d" % i) for i in range(40)]
    message = b"sealed-envelope-bytes" * 16
    signed = [(kp.public, message, primitives.sign(kp, message)) for kp in pairs]
    forged = [(public, message + b"!", sig) for public, _, sig in signed[:10]]
    ring = list(zip(pairs, pairs[1:] + pairs[:1]))
    dh_args = [(own, peer.public) for own, peer in ring]
    second_sides = [(peer, own.public) for own, peer in ring]

    def forget(name):
        for kp in pairs:
            kp.__dict__.pop(name, None)

    def first_sides_agreed():
        forget("_agreed")
        for args in dh_args:
            primitives.diffie_hellman_shared(*args)

    def commitments_recorded():
        for kp in pairs:
            primitives.sign(kp, message)

    calls = [
        ("peer^x (DH power)", 384, primitives._power,
         [(peer, own.private) for own, peer in dh_args], None),
        ("diffie_hellman_shared", 384, primitives.diffie_hellman_shared,
         dh_args, lambda: forget("_agreed")),
        # the peer's side of each agreement above: no power
        ("second side of an agreement", 384, primitives.diffie_hellman_shared,
         second_sides, first_sides_agreed),
        # a minted key: one power, g^((s - x*c) mod q); an unminted one:
        # g^s by table and y^c by builtin pow
        ("verify (g^(s - x*c))", 384, primitives.verify, signed + forged,
         lambda: forget("_nonces")),
        # the signer's own commitments, still recorded: no power; the
        # forged ones first, as a failed check keeps the entry
        ("verify, minted commitment", 384, primitives.verify, forged + signed,
         commitments_recorded),
    ]
    rows = []
    speedups = {}
    results = {}
    for name, bits, fn, args, reset in calls:
        route, results[name] = _per_call(fn, args, reset)
        # an empty registry sends every base to builtin ``pow``, and
        # with the maps forgotten nothing is looked up: the computation
        # before the route existed
        forget("_agreed")
        forget("_nonces")
        with monkeypatch.context() as patch:
            patch.setattr(primitives, "_MINTED", {})
            builtin, expected = _per_call(fn, args, reset)
        assert results[name] == expected
        speedups[name] = builtin / route
        rows.append([
            name, bits, f"{builtin * 1e6:.0f}", f"{route * 1e6:.1f}",
            f"{builtin / route:.1f}x",
        ])
    print_table(
        "Q-SCALE: sealed-channel powers for a minted key y = g^x, known-log "
        "route (one fixed-base power, or none) vs builtin pow",
        ["call", "exponent bits", "pow (us)", "route (us)", "speed-up"],
        rows,
    )
    assert results["verify (g^(s - x*c))"] == (
        [True] * len(signed) + [False] * len(forged)
    )
    assert results["verify, minted commitment"] == (
        [False] * len(forged) + [True] * len(signed)
    )
    assert results["second side of an agreement"] == results["diffie_hellman_shared"]
    # the two powers sealed channels pay for: a drift below 2x means the
    # route no longer earns its place
    assert speedups["peer^x (DH power)"] >= 2.0
    assert speedups["verify (g^(s - x*c))"] >= 2.0
    # a map lookup against a power
    assert speedups["second side of an agreement"] >= 10.0
    assert speedups["verify, minted commitment"] >= 10.0

    benchmark.pedantic(
        lambda: primitives.diffie_hellman_shared(*dh_args[0]),
        setup=lambda: forget("_agreed"), rounds=20, iterations=1,
    )


# -- the per-row data path: reference routes ----------------------------------
#
# Each computes what the library computed before its per-row path was
# made to do its work once: the same outputs, the slower way.


def _reference_health_rows(count: int, seed: int) -> list[dict]:
    """``generate_health_rows`` with one ``np.clip`` per scalar draw."""
    rng = np.random.default_rng(seed)
    points, components = HEALTH_MIXTURE.sample(count, rng)
    rows = []
    for i in range(count):
        component = int(components[i])
        age = int(np.clip(rng.normal(74, 12), 18, 103))
        dependency = int(
            np.clip(component + rng.integers(0, 2) + (1 if age > 85 else 0), 0, 5)
        )
        rows.append({
            "patient_id": i + 1,
            "age": age,
            "sex": ("F", "M")[int(rng.integers(2))],
            "zipcode": f"78{int(rng.integers(0, 1000)):03d}",
            "region": ("idf", "paca", "bretagne", "occitanie",
                       "hauts-de-france")[int(rng.integers(5))],
            "bmi": round(float(points[i, 0]), 2),
            "systolic_bp": round(float(points[i, 1]), 1),
            "glucose": round(float(points[i, 2]), 3),
            "dependency_level": dependency,
        })
    return rows


def _reference_validate(schema: Schema, row: dict) -> None:
    """``Schema.validate_row`` scanning the column tuple for every key."""
    for key in row:
        if not any(column.name == key for column in schema.columns):
            raise SchemaError(f"row has unknown column {key!r}")
    for column in schema.columns:
        value = row.get(column.name)
        if not column.ctype.validates(value):
            raise SchemaError(
                f"column {column.name!r} expects {column.ctype.value}, "
                f"got {type(value).__name__}"
            )


def _best_of_3(fn):
    best, result = math.inf, None
    for _ in range(3):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _refusals(validate, schema: Schema, bad_rows: list[dict]) -> list[str]:
    messages = []
    for row in bad_rows:
        with pytest.raises(SchemaError) as refused:
            validate(schema, row)
        messages.append(str(refused.value))
    return messages


def test_qscale_per_row_data_path():
    """40,000 rows (the ``data_heavy`` dataset) generated and validated:
    reference route vs the library, same outputs."""
    count, seed = 40_000, 5
    reference_s, expected = _best_of_3(lambda: _reference_health_rows(count, seed))
    library_s, rows = _best_of_3(lambda: generate_health_rows(count, seed))
    assert rows == expected
    table = [["generate_health_rows", reference_s, library_s]]

    # set-up used to validate every row twice: at the deal and again in
    # the oracle's Relation; the deal is now the only validation
    reference_s, _ = _best_of_3(
        lambda: [_reference_validate(HEALTH_SCHEMA, row) for row in rows * 2]
    )
    library_s, _ = _best_of_3(
        lambda: [HEALTH_SCHEMA.validate_row(row) for row in rows]
    )
    bad_rows = [{"height": 180}, {"age": "old"}, {"age": True}, {"bmi": "x"}]
    assert _refusals(Schema.validate_row, HEALTH_SCHEMA, bad_rows) == _refusals(
        _reference_validate, HEALTH_SCHEMA, bad_rows
    )
    table.append(["validate (deal + oracle -> deal)", reference_s, library_s])

    print_table(
        "Q-SCALE: per-row data path over 40,000 rows (data_heavy dataset, "
        "seed 5), reference route vs library, best of 3, same outputs",
        ["step", "reference (ms)", "library (ms)", "speed-up"],
        [
            [step, f"{ref * 1e3:.0f}", f"{lib * 1e3:.0f}", f"{ref / lib:.1f}x"]
            for step, ref, lib in table
        ],
    )
