"""Protocol-binding tests: envelopes are bound to query and role.

A sealed contribution for query A must not be replayable into query B,
and a ``knowledge`` envelope must not masquerade as a ``contribution``
— the header is authenticated by both the AEAD tag and the signature.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos.campaign import RunSpec, run_single
from repro.core.runtime.events import EventKind, of_kind
from repro.crypto.envelope import open_envelope, seal_envelope
from repro.crypto.keys import KeyRing
from repro.crypto.primitives import AuthenticationError
from repro.network.messages import Message, MessageKind


def _pair():
    alice = KeyRing(seed=b"bind-a")
    bob = KeyRing(seed=b"bind-b")
    alice.learn_public(bob.fingerprint, bob.keypair.public)
    bob.learn_public(alice.fingerprint, alice.keypair.public)
    return alice, bob


class TestHeaderBindings:
    def test_query_id_rebinding_rejected(self):
        alice, bob = _pair()
        session = alice.session_key(bob.fingerprint)
        envelope = seal_envelope(
            alice.keypair, bob.fingerprint, session, "query-A", "contribution",
            [{"age": 70}],
        )
        replayed = dataclasses.replace(envelope, query_id="query-B")
        with pytest.raises(AuthenticationError):
            open_envelope(replayed, session)

    def test_kind_rebinding_rejected(self):
        alice, bob = _pair()
        session = alice.session_key(bob.fingerprint)
        envelope = seal_envelope(
            alice.keypair, bob.fingerprint, session, "q", "knowledge", {"x": 1}
        )
        disguised = dataclasses.replace(envelope, kind="contribution")
        with pytest.raises(AuthenticationError):
            open_envelope(disguised, session)

    def test_recipient_rebinding_rejected(self):
        alice, bob = _pair()
        mallory = KeyRing(seed=b"bind-m")
        alice.learn_public(mallory.fingerprint, mallory.keypair.public)
        mallory.learn_public(alice.fingerprint, alice.keypair.public)
        session_bob = alice.session_key(bob.fingerprint)
        envelope = seal_envelope(
            alice.keypair, bob.fingerprint, session_bob, "q", "test", 42
        )
        redirected = dataclasses.replace(envelope, recipient=mallory.fingerprint)
        # even with mallory's own session key, the redirected envelope
        # fails (tag bound to the original header and key)
        with pytest.raises(AuthenticationError):
            open_envelope(redirected, mallory.session_key(alice.fingerprint))

    def test_ciphertext_splice_rejected(self):
        alice, bob = _pair()
        session = alice.session_key(bob.fingerprint)
        first = seal_envelope(
            alice.keypair, bob.fingerprint, session, "q", "test", "payload-1"
        )
        second = seal_envelope(
            alice.keypair, bob.fingerprint, session, "q", "test", "payload-2"
        )
        spliced = dataclasses.replace(first, ciphertext=second.ciphertext)
        with pytest.raises(AuthenticationError):
            open_envelope(spliced, session)

    def test_honest_round_trip_still_fine(self):
        alice, bob = _pair()
        session = alice.session_key(bob.fingerprint)
        envelope = seal_envelope(
            alice.keypair, bob.fingerprint, session, "q", "contribution",
            [{"age": 70}],
        )
        assert open_envelope(envelope, session) == [{"age": 70}]


class TestUnknownSender:
    def test_sender_the_ring_never_learned_is_an_unauthenticated_drop(self):
        # a sealed run's context and two of its devices
        ctx = run_single(
            RunSpec(seed=17, tag="unknown-sender", secure_channels=True)
        ).result.executor.ctx
        sender, recipient = list(ctx.devices.values())[:2]
        sender.introduce(recipient)
        envelope = sender.seal_for(recipient.fingerprint, "q", "contribution", [1])
        forged = dataclasses.replace(envelope, sender="0123456789abcdef")
        assert not recipient.keyring.knows(forged.sender)
        with pytest.raises(AuthenticationError, match="unknown sender"):
            recipient.open_from(forged)

        def dropped() -> int:
            # the drops the executor.payloads_dropped{unauthenticated}
            # counter publishes when an execution concludes
            return len(of_kind(ctx.report.events, EventKind.PAYLOAD_REJECTED))

        before = dropped()
        message = Message(
            sender=sender.device_id, recipient=recipient.device_id,
            kind=MessageKind.CONTRIBUTION, payload=forged,
        )
        assert ctx.unwrap(recipient, message) is None
        assert dropped() == before + 1
        # the honest envelope still opens
        assert ctx.unwrap(recipient, dataclasses.replace(message, payload=envelope)) == [1]
