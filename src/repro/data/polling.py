"""Synthetic audience data for the opportunistic-polling use case.

Models the paper's first motivating example: attendees of a large event
(conference, museum, concert, match) contributing their centers of
interest, nationality, and age from TrustZone smartphones so services
can adapt to the audience in real time.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.data.generators import integer_draws
from repro.errors import SpecError
from repro.query.schema import Column, ColumnType, Schema

__all__ = ["POLLING_SCHEMA", "generate_polling_rows"]

POLLING_SCHEMA = Schema.of(
    Column("attendee_id", ColumnType.INT),
    Column("age", ColumnType.INT, quasi_identifier=True),
    Column("nationality", ColumnType.TEXT, quasi_identifier=True),
    Column("interest", ColumnType.TEXT),
    Column("satisfaction", ColumnType.FLOAT, sensitive=True),
    Column("spending", ColumnType.FLOAT, sensitive=True),
)

_NATIONALITIES = ("fr", "de", "it", "es", "uk", "us", "jp", "br")
_INTERESTS = ("databases", "security", "ml", "systems", "theory", "hci")

# Interests skew by a latent "community": systems-folk spend differently
# from theory-folk, so aggregates per interest are informative.
_INTEREST_SPENDING_MEAN = {
    "databases": 45.0,
    "security": 52.0,
    "ml": 61.0,
    "systems": 48.0,
    "theory": 30.0,
    "hci": 41.0,
}


def generate_polling_rows(count: int, seed: int = 0) -> list[dict[str, Any]]:
    """Generate ``count`` synthetic attendee rows."""
    if count < 0:
        raise SpecError("count must be non-negative")
    rng = np.random.default_rng(seed)
    rows: list[dict[str, Any]] = []
    with integer_draws(rng) as draw:
        for i in range(count):
            interest = _INTERESTS[draw(len(_INTERESTS))]
            spending_mean = _INTEREST_SPENDING_MEAN[interest]
            rows.append(
                {
                    "attendee_id": i + 1,
                    "age": int(np.clip(rng.normal(36, 11), 18, 90)),
                    "nationality": _NATIONALITIES[draw(len(_NATIONALITIES))],
                    "interest": interest,
                    "satisfaction": round(
                        float(np.clip(rng.normal(3.8, 0.8), 1.0, 5.0)), 2
                    ),
                    "spending": round(
                        float(max(rng.normal(spending_mean, 12.0), 0.0)), 2
                    ),
                }
            )
    return rows
