"""Tests for device profiles, attestation, datastore, and edgelets."""

from __future__ import annotations

import pytest

from repro.crypto.primitives import AuthenticationError
from repro.devices.attestation import AttestationAuthority, AttestationError
from repro.devices.datastore import DatastoreFullError, LocalDatastore
from repro.devices.edgelet import Edgelet
from repro.devices.profiles import (
    HOME_BOX,
    PC_SGX,
    SMARTPHONE,
    DeviceProfile,
    profile_by_name,
)
from repro.devices.tee import TEEKind, TrustedExecutionEnvironment


class TestProfiles:
    def test_builtin_profiles_ordered_by_speed(self):
        assert PC_SGX.compute_rate > SMARTPHONE.compute_rate > HOME_BOX.compute_rate

    def test_profile_lookup(self):
        assert profile_by_name("pc-sgx") is PC_SGX
        assert profile_by_name("home-box-tpm") is HOME_BOX
        with pytest.raises(KeyError):
            profile_by_name("mainframe")

    def test_compute_latency(self):
        assert PC_SGX.compute_latency(10_000.0) == pytest.approx(1.0)
        assert HOME_BOX.compute_latency(150.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            PC_SGX.compute_latency(-1.0)

    def test_tee_kinds(self):
        assert PC_SGX.tee_kind == TEEKind.SGX
        assert SMARTPHONE.tee_kind == TEEKind.TRUSTZONE
        assert HOME_BOX.tee_kind == TEEKind.TPM

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile("bad", TEEKind.SGX, 0.0, PC_SGX.link, 0.5, 100)
        with pytest.raises(ValueError):
            DeviceProfile("bad", TEEKind.SGX, 1.0, PC_SGX.link, 0.0, 100)
        with pytest.raises(ValueError):
            DeviceProfile("bad", TEEKind.SGX, 1.0, PC_SGX.link, 0.5, 0)


class TestAttestation:
    def _tee(self, seed=b"t"):
        return TrustedExecutionEnvironment.create(TEEKind.SGX, seed=seed)

    def test_happy_path(self):
        tee = self._tee()
        authority = AttestationAuthority()
        authority.trust_measurement(tee.measurement)
        authority.register_device(tee)
        assert authority.attest(tee)

    def test_untrusted_measurement_rejected(self):
        tee = TrustedExecutionEnvironment.create(
            TEEKind.SGX, code_identity="malware", seed=b"m"
        )
        authority = AttestationAuthority()
        authority.register_device(tee)
        with pytest.raises(AttestationError):
            authority.attest(tee)

    def test_unregistered_hardware_rejected(self):
        tee = self._tee()
        authority = AttestationAuthority()
        authority.trust_measurement(tee.measurement)
        with pytest.raises(AttestationError):
            authority.attest(tee)

    def test_unregistered_key_refused_around_lazy_registration(self):
        registered = self._tee(seed=b"registered")
        stranger = self._tee(seed=b"stranger")  # genuine runtime, never registered
        authority = AttestationAuthority()
        authority.trust_measurement(registered.measurement)
        authority.register_device(registered)
        # the stranger's quote is the first checked: the recorded keys
        # are resolved then, and its key is not among them
        with pytest.raises(AttestationError, match="not genuine hardware"):
            authority.attest(stranger)
        assert authority.attest(registered)
        with pytest.raises(AttestationError, match="not genuine hardware"):
            authority.attest(stranger)

    def test_registration_records_the_key_without_computing_it(self, monkeypatch):
        from repro.crypto import primitives

        calls = []
        real = primitives._generator_power
        monkeypatch.setattr(
            primitives, "_generator_power", lambda e: calls.append(e) or real(e)
        )
        tee = self._tee(seed=b"swapped")
        authority = AttestationAuthority()
        authority.trust_measurement(tee.measurement)
        authority.register_device(tee)
        assert calls == []
        # the key registered is the one the TEE held at registration
        tee.keypair = primitives.generate_keypair(b"swapped-later")
        with pytest.raises(AttestationError, match="not genuine hardware"):
            authority.attest(tee)

    def test_require_attestation_refuses_rogue_processors(self):
        from repro.data.health import HEALTH_SCHEMA, generate_health_rows
        from repro.manager.scenario import Scenario, ScenarioConfig

        scenario = Scenario(
            ScenarioConfig(
                n_contributors=6, n_processors=9, rows=generate_health_rows(12, seed=2),
                schema=HEALTH_SCHEMA, device_mix=(1.0, 0.0, 0.0), seed=2,
                rogue_processors=3, require_attestation=True,
            )
        )
        rogues = scenario.processors[:3]
        eligible = scenario.eligible_processor_ids()
        assert eligible == [d.device_id for d in scenario.processors[3:]]
        for rogue in rogues:
            with pytest.raises(AttestationError, match="untrusted measurement"):
                scenario.authority.attest(rogue.tee)

    def test_stale_challenge_rejected(self):
        tee = self._tee()
        authority = AttestationAuthority()
        authority.trust_measurement(tee.measurement)
        authority.register_device(tee)
        quote = authority.produce_quote(tee, "old-challenge")
        with pytest.raises(AttestationError):
            authority.verify_quote(quote, "fresh-challenge")

    def test_forged_signature_rejected(self):
        import dataclasses

        tee = self._tee()
        other = self._tee(seed=b"other")
        authority = AttestationAuthority()
        authority.trust_measurement(tee.measurement)
        authority.register_device(tee)
        challenge = authority.fresh_challenge()
        quote = authority.produce_quote(other, challenge)
        forged = dataclasses.replace(quote, public_key=tee.keypair.public)
        with pytest.raises(AttestationError):
            authority.verify_quote(forged, challenge)

    def test_challenges_are_fresh(self):
        authority = AttestationAuthority()
        assert authority.fresh_challenge() != authority.fresh_challenge()


class TestDatastore:
    def test_insert_and_len(self):
        store = LocalDatastore(capacity=3)
        store.insert({"age": 70})
        assert len(store) == 1

    def test_capacity_enforced(self):
        store = LocalDatastore(capacity=1)
        store.insert({"a": 1})
        with pytest.raises(DatastoreFullError):
            store.insert({"a": 2})

    def test_insert_many_partial(self):
        store = LocalDatastore(capacity=2)
        inserted = store.insert_many([{"i": i} for i in range(5)])
        assert inserted == 2
        assert len(store) == 2

    def test_select_predicate(self):
        store = LocalDatastore(capacity=10)
        store.insert_many([{"age": 60}, {"age": 70}, {"age": 80}])
        old = store.select(lambda row: row["age"] > 65)
        assert [row["age"] for row in old] == [70, 80]

    def test_select_projection_fills_missing(self):
        store = LocalDatastore(capacity=10)
        store.insert({"age": 70})
        rows = store.select(columns=["age", "bmi"])
        assert rows == [{"age": 70, "bmi": None}]

    def test_rows_are_copies(self):
        store = LocalDatastore(capacity=10)
        original = {"age": 70}
        store.insert(original)
        fetched = store.select()[0]
        fetched["age"] = 0
        assert store.select()[0]["age"] == 70

    def test_clear(self):
        store = LocalDatastore(capacity=10)
        store.insert({"a": 1})
        store.clear()
        assert len(store) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LocalDatastore(capacity=0)


class TestEdgelet:
    def test_profile_wiring(self):
        device = Edgelet(HOME_BOX, seed=b"box1")
        assert device.tee.kind == TEEKind.TPM
        assert device.datastore.capacity == HOME_BOX.storage_tuples

    def test_fingerprint_matches_tee_key(self):
        device = Edgelet(PC_SGX, seed=b"pc1")
        assert device.fingerprint == device.tee.keypair.fingerprint()

    def test_sealed_exchange_between_edgelets(self):
        a = Edgelet(PC_SGX, seed=b"a")
        b = Edgelet(SMARTPHONE, seed=b"b")
        a.introduce(b)
        envelope = a.seal_for(b.fingerprint, "q1", "test", {"v": 7})
        assert b.open_from(envelope) == {"v": 7}

    def test_misaddressed_envelope_rejected(self):
        a = Edgelet(PC_SGX, seed=b"a2")
        b = Edgelet(PC_SGX, seed=b"b2")
        c = Edgelet(PC_SGX, seed=b"c2")
        a.introduce(b)
        a.introduce(c)
        b.introduce(c)
        envelope = a.seal_for(b.fingerprint, "q1", "test", 1)
        with pytest.raises(AuthenticationError):
            c.open_from(envelope)

    def test_contribute_filters_and_projects(self):
        device = Edgelet(PC_SGX, seed=b"d")
        device.datastore.insert_many(
            [{"age": 60, "bmi": 22.0}, {"age": 80, "bmi": 27.0}]
        )
        rows = device.contribute(lambda row: row["age"] > 65, ["age"])
        assert rows == [{"age": 80}]

    def test_opening_reports_cleartext_to_compromised_tee(self):
        from repro.devices.tee import SealedGlassObserver

        a = Edgelet(PC_SGX, seed=b"a3")
        b = Edgelet(PC_SGX, seed=b"b3")
        a.introduce(b)
        observer = SealedGlassObserver()
        b.compromise(observer)
        envelope = a.seal_for(b.fingerprint, "q1", "rows", [{"age": 70}])
        b.open_from(envelope)
        assert observer.exposed_items(b.tee.identity) == [{"age": 70}]

    def test_device_ids_unique(self):
        a = Edgelet(PC_SGX)
        b = Edgelet(PC_SGX)
        assert a.device_id != b.device_id
