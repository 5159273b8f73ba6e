"""Keys on first use: a generated pair computes ``g^x`` when read.

``generate_keypair`` draws only the private exponent; the public key is
derived, and the pair recorded in the known-log registry, the first
time something reads it.  A plain run reads no key, so it computes no
group power; a sealed run reads every key it seals, signs or agrees
with, and keeps rejecting tampered envelopes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import PrivacyParameters, QuerySpec
from repro.crypto import primitives
from repro.crypto.primitives import (
    GROUP_GENERATOR,
    GROUP_ORDER,
    GROUP_PRIME,
    AuthenticationError,
    KeyPair,
    generate_keypair,
)
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.devices.tee import TEEKind, TrustedExecutionEnvironment
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.network.faults import FaultSpec
from repro.query.sql import parse_query
from repro.telemetry import Telemetry


@pytest.fixture
def powers(monkeypatch) -> list[int]:
    """Every exponent ``_generator_power`` is called with, in order."""
    calls: list[int] = []
    real = primitives._generator_power

    def spy(exponent: int) -> int:
        calls.append(exponent)
        return real(exponent)

    monkeypatch.setattr(primitives, "_generator_power", spy)
    return calls


class TestMintedPairs:
    # seeded, as every device's key is (an unseeded key is a whole-group
    # exponent and would grow the shared table to full width)
    @given(seed=st.binary(max_size=24))
    @settings(max_examples=12, deadline=None)
    def test_public_is_the_power_and_is_recorded_when_read(self, seed):
        pair = generate_keypair(seed)
        expected = pow(GROUP_GENERATOR, pair.private, GROUP_PRIME)
        # not recorded before its first read
        assert primitives._MINTED.get(expected) is not pair
        assert "not derived" in repr(pair)
        assert pair.public == expected
        assert primitives._MINTED.get(expected) is pair
        assert pair.public == expected  # cached: same value on every read

    def test_generation_computes_no_power(self, powers):
        pair = generate_keypair(b"lazy-no-power")
        assert powers == []
        pair.public
        pair.fingerprint()
        assert powers == [pair.private]

    @given(private=st.integers(min_value=1, max_value=GROUP_ORDER - 1))
    @settings(max_examples=8, deadline=None)
    def test_hand_built_pair_is_never_recorded(self, private):
        public = pow(GROUP_GENERATOR, private, GROUP_PRIME)
        pair = KeyPair(private, public)
        assert pair.public == public
        assert primitives._MINTED.get(public) is not pair


class TestReprKeepsTheSecret:
    def test_no_repr_shows_the_private_exponent(self, powers):
        pair = generate_keypair(b"lazy-repr")
        tee = TrustedExecutionEnvironment.create(TEEKind.SGX, seed=b"lazy-repr-tee")
        hand_built = KeyPair(1234567890123, pow(GROUP_GENERATOR, 1234567890123, GROUP_PRIME))
        secrets = [str(k.private) for k in (pair, tee.keypair, hand_built)]
        texts = [repr(pair), repr(tee), str(pair), str(tee)]
        assert powers == []  # printing derives no key
        pair.public
        tee.keypair.public
        texts += [repr(pair), repr(tee), repr(hand_built)]
        assert pair.fingerprint() in repr(pair)
        assert hand_built.fingerprint() in repr(hand_built)
        for text in texts:
            assert not any(secret in text for secret in secrets), text


_SQL = "SELECT count(*), avg(age) FROM health GROUP BY GROUPING SETS ((region), ())"


def _smoke_run(**overrides):
    rows = generate_health_rows(24, seed=4)
    config = dict(
        n_contributors=12, n_processors=14, rows=rows, schema=HEALTH_SCHEMA,
        device_mix=(1.0, 0.0, 0.0), collection_window=5.0, deadline=20.0,
        seed=4, scenario_tag="lazy-keys",
    )
    config.update(overrides)
    scenario = Scenario(ScenarioConfig(**config), telemetry=Telemetry())
    spec = QuerySpec(
        query_id="lazy-keys-q", kind="aggregate", snapshot_cardinality=len(rows),
        group_by=parse_query(_SQL).query,
    )
    result = scenario.run_query(spec, privacy=PrivacyParameters(max_raw_per_edgelet=8))
    return scenario, result


class TestRuns:
    def test_plain_run_computes_no_group_power(self, powers):
        _, result = _smoke_run()
        assert result.report.success
        assert powers == []

    def test_sealed_run_completes_and_rejects_tampered_envelopes(self, powers):
        # some contribution envelopes are tampered with in flight
        scenario, result = _smoke_run(
            secure_channels=True,
            fault_specs=(FaultSpec(kinds=("contribution",), corrupt_probability=0.3),),
        )
        report = result.report
        assert report.completion_time is not None
        assert powers, "a sealed run derives the keys it uses"
        dropped = scenario.telemetry.metrics.value(
            "executor.payloads_dropped",
            query="lazy-keys-q", reason="unauthenticated",
        )
        assert dropped > 0
        assert any("dropped unauthenticated" in line for _, line in report.trace)
        # and a tampered envelope between two of the run's devices fails
        sender, recipient = scenario.contributors[0], scenario.processors[0]
        sender.keyring.learn_public(recipient.fingerprint, recipient.keyring.keypair.public)
        recipient.keyring.learn_public(sender.fingerprint, sender.keyring.keypair.public)
        envelope = sender.seal_for(recipient.fingerprint, "lazy-keys-q", "contribution", [1])
        assert recipient.open_from(envelope) == [1]
        tampered = bytearray(envelope.ciphertext)
        tampered[-1] ^= 1
        with pytest.raises(AuthenticationError):
            recipient.open_from(replace(envelope, ciphertext=bytes(tampered)))
