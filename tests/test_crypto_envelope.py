"""Tests for sealed message envelopes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.envelope import open_envelope, seal_envelope
from repro.crypto.keys import KeyRing
from repro.crypto.primitives import (
    GROUP_PRIME,
    AuthenticationError,
    generate_keypair,
    sign,
    verify,
)


def _pair():
    alice = KeyRing(seed=b"alice")
    bob = KeyRing(seed=b"bob")
    alice.learn_public(bob.fingerprint, bob.keypair.public)
    bob.learn_public(alice.fingerprint, alice.keypair.public)
    return alice, bob


class TestEnvelopeRoundTrip:
    def setup_method(self):
        self.alice, self.bob = _pair()

    def test_round_trip(self):
        session = self.alice.session_key(self.bob.fingerprint)
        envelope = seal_envelope(
            self.alice.keypair, self.bob.fingerprint, session, "q1", "test", {"x": 1}
        )
        assert open_envelope(envelope, self.bob.session_key(self.alice.fingerprint)) == {
            "x": 1
        }

    def test_header_fields(self):
        session = self.alice.session_key(self.bob.fingerprint)
        envelope = seal_envelope(
            self.alice.keypair, self.bob.fingerprint, session, "q1", "contribution", [1, 2]
        )
        assert envelope.sender == self.alice.fingerprint
        assert envelope.recipient == self.bob.fingerprint
        assert envelope.query_id == "q1"
        assert envelope.kind == "contribution"

    def test_list_payload(self):
        session = self.alice.session_key(self.bob.fingerprint)
        payload = [{"age": 70}, {"age": 81}]
        envelope = seal_envelope(
            self.alice.keypair, self.bob.fingerprint, session, "q1", "rows", payload
        )
        assert open_envelope(envelope, session) == payload

    def test_wrong_session_key_fails(self):
        session = self.alice.session_key(self.bob.fingerprint)
        mallory = KeyRing(seed=b"mallory")
        mallory.learn_public(self.alice.fingerprint, self.alice.keypair.public)
        envelope = seal_envelope(
            self.alice.keypair, self.bob.fingerprint, session, "q1", "test", 42
        )
        with pytest.raises(AuthenticationError):
            open_envelope(envelope, mallory.session_key(self.alice.fingerprint))

    def test_signature_tamper_detected(self):
        import dataclasses

        session = self.alice.session_key(self.bob.fingerprint)
        envelope = seal_envelope(
            self.alice.keypair, self.bob.fingerprint, session, "q1", "test", 42
        )
        forged = dataclasses.replace(envelope, kind="forged")
        with pytest.raises(AuthenticationError):
            open_envelope(forged, session)

    def test_substituted_sender_key_detected(self):
        import dataclasses

        session = self.alice.session_key(self.bob.fingerprint)
        envelope = seal_envelope(
            self.alice.keypair, self.bob.fingerprint, session, "q1", "test", 42
        )
        mallory = generate_keypair(b"mallory")
        forged = dataclasses.replace(envelope, sender_public=mallory.public)
        with pytest.raises(AuthenticationError):
            open_envelope(forged, session)

    def test_resigned_envelope_does_not_pass_as_the_sender(self):
        import dataclasses

        session = self.alice.session_key(self.bob.fingerprint)
        envelope = seal_envelope(
            self.alice.keypair, self.bob.fingerprint, session, "q1", "test", {"x": 1}
        )
        # Mallory re-signs the same bytes with her own key and swaps in
        # her public key, leaving the envelope attributed to Alice
        mallory = generate_keypair(b"mallory")
        resigned = dataclasses.replace(
            envelope,
            signature=sign(mallory, envelope.associated_data() + envelope.ciphertext),
            sender_public=mallory.public,
        )
        assert resigned.sender == self.alice.fingerprint
        assert verify(
            mallory.public,
            resigned.associated_data() + resigned.ciphertext,
            resigned.signature,
        )
        with pytest.raises(AuthenticationError, match="sender key"):
            open_envelope(resigned, self.bob.session_key(self.alice.fingerprint))

    @pytest.mark.parametrize("bogus", [0, -5, GROUP_PRIME, 1 << 1536])
    def test_out_of_range_sender_key_rejected(self, bogus):
        import dataclasses

        session = self.alice.session_key(self.bob.fingerprint)
        envelope = seal_envelope(
            self.alice.keypair, self.bob.fingerprint, session, "q1", "test", 42
        )
        with pytest.raises(AuthenticationError):
            open_envelope(dataclasses.replace(envelope, sender_public=bogus), session)

    def test_size_estimate_positive(self):
        session = self.alice.session_key(self.bob.fingerprint)
        envelope = seal_envelope(
            self.alice.keypair, self.bob.fingerprint, session, "q1", "test", {"k": "v"}
        )
        assert envelope.size_bytes() > len(envelope.ciphertext)

    @given(
        payload=st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=20),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=8), children, max_size=4),
            max_leaves=10,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_json_payload_round_trip(self, payload):
        alice, bob = _pair()
        session = alice.session_key(bob.fingerprint)
        envelope = seal_envelope(
            alice.keypair, bob.fingerprint, session, "q", "prop", payload
        )
        assert open_envelope(envelope, session) == payload
