"""The per-row data path keeps its outputs: rows and oracle answers.

Generating the dataset, dealing it out (validated once, at the deal)
and building the centralized oracle each do their work once per row.
The literals below were computed with the previous implementation of
each step (``np.clip`` draws, a validation at the deal *and* in the
oracle's ``Relation``), so a change that alters any generated row or
oracle answer fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.planner import QuerySpec
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.devices.datastore import DatastoreFullError
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.query.schema import Schema, SchemaError
from repro.query.sql import parse_query

#: ``sha256(repr(generate_health_rows(count, seed)))``; (40000, 5) is the
#: ``data_heavy`` benchmark dataset.
ROW_DIGESTS = {
    (0, 0): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (1, 3): "081ac6af9b50d951f9cc688813f23ff54e2cd39f090b860c7d72a1aa3de565ae",
    (4000, 7): "08532df4570ebfe116f6496473629536be6bfa6577a31dfa6156f9f6504f44e9",
    (40000, 5): "867a419ffaca8ec57b12a132eb4066f4b8af1d52f9bd4d285b02c5217bb2bb86",
}

HEAVY_SQL = (
    "SELECT count(*), sum(bmi), avg(bmi), min(age), max(age), "
    "var(bmi), std(bmi), hist(age, 0, 110, 11) FROM health "
    "WHERE age > 40 AND bmi < 35 "
    "GROUP BY GROUPING SETS ((region), (sex), ())"
)
DEFAULT_SQL = (
    "SELECT count(*), avg(age) FROM health "
    "GROUP BY GROUPING SETS ((region), ())"
)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _spec(sql: str, cardinality: int) -> QuerySpec:
    return QuerySpec(
        query_id="scenario-q", kind="aggregate",
        snapshot_cardinality=cardinality, group_by=parse_query(sql).query,
    )


class TestGeneratedRows:
    @pytest.mark.parametrize("count, seed", sorted(ROW_DIGESTS))
    def test_rows_are_pinned(self, count, seed):
        assert _digest(generate_health_rows(count, seed)) == ROW_DIGESTS[count, seed]

    def test_value_types_are_python_scalars(self):
        for row in generate_health_rows(50, seed=3):
            assert type(row["age"]) is int
            assert type(row["dependency_level"]) is int
            assert type(row["bmi"]) is float
            assert 18 <= row["age"] <= 103
            assert 0 <= row["dependency_level"] <= 5


# -- the deal and the oracle -------------------------------------------------


def _config(**kwargs) -> ScenarioConfig:
    """The construction of ``tests/test_scenario.py``."""
    defaults = dict(
        n_contributors=50,
        n_processors=25,
        rows=generate_health_rows(120, seed=5),
        schema=HEALTH_SCHEMA,
        device_mix=(1.0, 0.0, 0.0),
        collection_window=20.0,
        deadline=70.0,
        seed=5,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def _count_calls(monkeypatch, name: str) -> list[int]:
    calls = [0]
    original = getattr(Schema, name)

    def counted(self, row):
        calls[0] += 1
        return original(self, row)

    monkeypatch.setattr(Schema, name, counted)
    return calls


class TestValidatedOnce:
    def test_construction_validates_each_row_once(self, monkeypatch):
        validated = _count_calls(monkeypatch, "validate_row")
        conformed = _count_calls(monkeypatch, "conform")
        config = _config()
        Scenario(config)
        assert validated[0] == len(config.rows)
        assert conformed[0] == 0

    def test_oracle_validates_nothing(self, monkeypatch):
        scenario = Scenario(_config())
        validated = _count_calls(monkeypatch, "validate_row")
        conformed = _count_calls(monkeypatch, "conform")
        scenario.centralized_result(_spec(DEFAULT_SQL, 120))
        assert validated[0] == conformed[0] == 0

    def test_oracle_is_built_on_first_use(self):
        scenario = Scenario(_config())
        assert "engine" not in vars(scenario)
        assert scenario.engine is scenario.engine
        assert len(scenario.engine.table("data")) == 120

    def test_invalid_row_still_refused_at_construction(self):
        rows = generate_health_rows(10, seed=1)
        rows[7] = dict(rows[7], age="old")
        with pytest.raises(SchemaError, match="column 'age' expects int, got str"):
            Scenario(_config(rows=rows))

    @pytest.mark.parametrize("seed, sql, holes, digest", [
        (5, DEFAULT_SQL, False,
         "bd2cdfcf553c6b7a3841ad81d088aaeb45034b6219144d22e2f0500cbaecd2a0"),
        (9, HEAVY_SQL, False,
         "ef35967950c2edeee511a985899b332487249b759d8b655b5d89e8ddddf1efdb"),
        # every 7th row lacks ``bmi``: the oracle still reads it as NULL
        (5, HEAVY_SQL, True,
         "1f0553aaee52c19ef747fa5f083972059d81b70d1e6561c1bd2a8ed80490b913"),
    ])
    def test_centralized_result_is_pinned(self, seed, sql, holes, digest):
        rows = generate_health_rows(120, seed=5)
        if holes:
            rows = [
                {k: v for k, v in row.items() if k != "bmi"} if i % 7 == 0 else row
                for i, row in enumerate(rows)
            ]
        scenario = Scenario(_config(rows=rows, seed=seed))
        central = scenario.centralized_result(_spec(sql, len(rows)))
        assert _digest(central.all_rows()) == digest


class TestDatastoreCapacity:
    def test_overfull_deal_is_refused(self):
        # one HOME_BOX contributor holds 20,000 rows; the oracle would
        # have answered over all 25,000
        rows = [{"patient_id": i} for i in range(25_000)]
        config = _config(
            n_contributors=1, n_processors=12, rows=rows,
            device_mix=(0.0, 0.0, 1.0), seed=1,
        )
        with pytest.raises(DatastoreFullError) as raised:
            Scenario(config)
        message = str(raised.value)
        assert "contrib-00000" in message
        assert "20000" in message
        assert "25000" in message

    def test_stock_refuses_what_a_device_cannot_hold(self):
        scenario = Scenario(_config(n_contributors=2, device_mix=(0.0, 0.0, 1.0)))
        device = scenario.contributors[0]
        room = device.datastore.capacity - len(device.datastore)
        scenario.stock(device, [{"patient_id": i} for i in range(room)])
        with pytest.raises(DatastoreFullError, match=device.device_id):
            scenario.stock(device, [{"patient_id": -1}])
