"""Synthetic health-survey data (the Santé Publique France scenario).

Rows follow the shape of the DomYcile medical records the paper
describes: demographics (quasi-identifiers), clinical measurements, and
a dependency level — with genuine cluster structure in the numeric
features so the K-Means demonstration query has something to find.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.data.generators import SeededMixture
from repro.query.schema import Column, ColumnType, Schema

__all__ = ["HEALTH_SCHEMA", "generate_health_rows", "health_feature_matrix", "HEALTH_MIXTURE"]

#: Common schema of the health scenario.  ``age``/``zipcode``/``sex``
#: are quasi-identifiers; clinical columns are sensitive.
HEALTH_SCHEMA = Schema.of(
    Column("patient_id", ColumnType.INT),
    Column("age", ColumnType.INT, quasi_identifier=True),
    Column("sex", ColumnType.TEXT, quasi_identifier=True),
    Column("zipcode", ColumnType.TEXT, quasi_identifier=True),
    Column("region", ColumnType.TEXT),
    Column("bmi", ColumnType.FLOAT, sensitive=True),
    Column("systolic_bp", ColumnType.FLOAT, sensitive=True),
    Column("glucose", ColumnType.FLOAT, sensitive=True),
    Column("dependency_level", ColumnType.INT, sensitive=True),
)

_REGIONS = ("idf", "paca", "bretagne", "occitanie", "hauts-de-france")
_SEXES = ("F", "M")

#: Three latent health profiles (robust / fragile / dependent) over
#: (bmi, systolic_bp, glucose).  K-Means over these features should
#: recover ~3 clusters.
HEALTH_MIXTURE = SeededMixture(
    means=((23.0, 120.0, 0.95), (28.5, 145.0, 1.25), (21.0, 160.0, 1.60)),
    stds=((2.0, 8.0, 0.10), (2.5, 10.0, 0.15), (2.0, 12.0, 0.20)),
    mix=(0.5, 0.3, 0.2),
)

_FEATURE_COLUMNS = ("bmi", "systolic_bp", "glucose")


def generate_health_rows(count: int, seed: int = 0) -> list[dict[str, Any]]:
    """Generate ``count`` synthetic patient rows.

    Ages skew elderly (the DomYcile population receives home care);
    dependency level correlates with the latent health profile, so the
    demo's "which characteristics influence the dependency level"
    K-Means + Group-By query has a real answer.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = np.random.default_rng(seed)
    points, components = HEALTH_MIXTURE.sample(count, rng)
    # One scalar draw at a time, in this order: a vectorised draw
    # consumes the bit stream differently and would change every row.
    normal, integers = rng.normal, rng.integers
    rows: list[dict[str, Any]] = []
    for i, (component, (bmi, systolic_bp, glucose)) in enumerate(
        zip(components.tolist(), points.tolist())
    ):
        age = int(min(max(normal(74, 12), 18), 103))
        dependency = min(
            max(component + int(integers(0, 2)) + (1 if age > 85 else 0), 0), 5
        )
        rows.append(
            {
                "patient_id": i + 1,
                "age": age,
                "sex": _SEXES[int(integers(len(_SEXES)))],
                "zipcode": f"78{int(integers(0, 1000)):03d}",
                "region": _REGIONS[int(integers(len(_REGIONS)))],
                "bmi": round(bmi, 2),
                "systolic_bp": round(systolic_bp, 1),
                "glucose": round(glucose, 3),
                "dependency_level": dependency,
            }
        )
    return rows


def health_feature_matrix(rows: list[dict[str, Any]]) -> np.ndarray:
    """Extract the ``(n, 3)`` clinical feature matrix used by K-Means.

    Rows missing any feature are skipped (NULL-tolerant, as the real
    snapshot may be heterogeneous).
    """
    features = [
        [row[column] for column in _FEATURE_COLUMNS]
        for row in rows
        if all(row.get(column) is not None for column in _FEATURE_COLUMNS)
    ]
    if not features:
        return np.empty((0, len(_FEATURE_COLUMNS)))
    return np.asarray(features, dtype=float)
