"""``integer_draws`` against numpy's scalar ``rng.integers`` on a twin.

Every case runs the helper on one generator and the numpy call it
replaces on a twin seeded alike; the draws, and the bit generator's
state after the block (its buffered 32-bit half included), must match.
The health rows are pinned by digest in ``test_data_path.py``; the
polling rows, which no digest pins, are redrawn here with ``rng.integers``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import polling
from repro.data.generators import integer_draws


def _twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def test_bound_one_draws_nothing():
    rng, twin = _twins(3)
    with integer_draws(rng) as draw:
        assert [draw(1) for _ in range(5)] == [int(twin.integers(1))] * 5 == [0] * 5
        # nothing consumed: an odd number of 32-bit draws follows in step
        assert [draw(7) for _ in range(3)] == [int(twin.integers(7)) for _ in range(3)]
    assert rng.bit_generator.state == twin.bit_generator.state


def test_a_rejecting_bound_matches_numpy():
    # 2**32 % (3 * 2**30) == 2**30: a quarter of the 32-bit draws are
    # rejected, so the loop runs many times in 2,000 draws
    bound = 3 * 2**30
    rng, twin = _twins(11)
    with integer_draws(rng) as draw:
        drawn = [draw(bound) for _ in range(2_000)]
    assert drawn == [int(twin.integers(bound)) for _ in range(2_000)]
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("seed", [0, 5, 42])
def test_normal_interleaves_between_draws(seed):
    bounds = (2, 5, 1000, 3 * 2**30, 2**31 + 12345, 7, 2**32)
    rng, twin = _twins(seed)
    with integer_draws(rng) as draw:
        for round_ in range(300):
            for bound in bounds[round_ % 3:]:
                assert draw(bound) == int(twin.integers(bound))
                if bound % 2:
                    assert rng.normal(74, 12) == twin.normal(74, 12)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_the_buffered_half_is_read_on_entry_and_written_back_on_exit():
    rng, twin = _twins(8)
    # one 32-bit draw leaves the high half buffered on both
    assert int(rng.integers(5)) == int(twin.integers(5))
    with integer_draws(rng) as draw:
        assert draw(5) == int(twin.integers(5))  # the buffered half
        assert draw(5) == int(twin.integers(5))  # low half of a new word
    # the new word's high half is still buffered: numpy continues from it
    assert [int(rng.integers(9)) for _ in range(4)] == [
        int(twin.integers(9)) for _ in range(4)
    ]
    assert rng.bit_generator.state == twin.bit_generator.state


def test_the_buffer_is_written_back_when_the_block_raises():
    rng, twin = _twins(2)
    with pytest.raises(RuntimeError):
        with integer_draws(rng) as draw:
            assert draw(5) == int(twin.integers(5))
            raise RuntimeError
    assert int(rng.integers(5)) == int(twin.integers(5))


@pytest.mark.parametrize("bound", [0, -3, 2**32 + 1])
def test_a_bound_outside_the_32_bit_range_is_refused(bound):
    rng, twin = _twins(1)
    with integer_draws(rng) as draw:
        with pytest.raises(ValueError, match="bound must be in"):
            draw(bound)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_another_bit_generator_is_refused():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(ValueError, match="needs PCG64"):
        with integer_draws(rng):
            pass


@pytest.mark.parametrize("seed", [0, 9])
def test_polling_rows_equal_the_scalar_numpy_route(seed):
    # generate_polling_rows' draws, in its order, with rng.integers
    rng = np.random.default_rng(seed)
    for row in polling.generate_polling_rows(2_000, seed):
        interest = polling._INTERESTS[int(rng.integers(len(polling._INTERESTS)))]
        age = int(np.clip(rng.normal(36, 11), 18, 90))
        nationality = polling._NATIONALITIES[
            int(rng.integers(len(polling._NATIONALITIES)))
        ]
        satisfaction = round(float(np.clip(rng.normal(3.8, 0.8), 1.0, 5.0)), 2)
        spending_mean = polling._INTEREST_SPENDING_MEAN[interest]
        spending = round(float(max(rng.normal(spending_mean, 12.0), 0.0)), 2)
        assert (
            row["interest"], row["age"], row["nationality"],
            row["satisfaction"], row["spending"],
        ) == (interest, age, nationality, satisfaction, spending)
