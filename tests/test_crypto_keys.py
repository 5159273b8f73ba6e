"""Tests for the pairwise-session KeyRing."""

from __future__ import annotations

import pytest

from repro.crypto.keys import KeyRing
from repro.crypto.primitives import generate_keypair


def _introduced_pair():
    a = KeyRing(seed=b"ring-a")
    b = KeyRing(seed=b"ring-b")
    a.learn_public(b.fingerprint, b.keypair.public)
    b.learn_public(a.fingerprint, a.keypair.public)
    return a, b


class TestKeyRing:
    def test_seeded_identity_deterministic(self):
        assert KeyRing(seed=b"x").fingerprint == KeyRing(seed=b"x").fingerprint

    def test_explicit_keypair(self):
        keypair = generate_keypair(b"kp")
        ring = KeyRing(keypair=keypair)
        assert ring.fingerprint == keypair.fingerprint()

    def test_keypair_and_seed_mutually_exclusive(self):
        with pytest.raises(ValueError):
            KeyRing(keypair=generate_keypair(b"kp"), seed=b"s")

    def test_both_sides_derive_same_session_key(self):
        a, b = _introduced_pair()
        assert (
            a.session_key(b.fingerprint).material
            == b.session_key(a.fingerprint).material
        )

    def test_session_key_cached(self):
        a, b = _introduced_pair()
        assert a.session_key(b.fingerprint) is a.session_key(b.fingerprint)

    def test_different_peers_different_keys(self):
        a = KeyRing(seed=b"a")
        b = KeyRing(seed=b"b")
        c = KeyRing(seed=b"c")
        a.learn_public(b.fingerprint, b.keypair.public)
        a.learn_public(c.fingerprint, c.keypair.public)
        assert (
            a.session_key(b.fingerprint).material
            != a.session_key(c.fingerprint).material
        )

    def test_unknown_peer_raises(self):
        ring = KeyRing(seed=b"lonely")
        with pytest.raises(KeyError):
            ring.session_key("deadbeefdeadbeef")

    def test_conflicting_public_key_rejected(self):
        a, b = _introduced_pair()
        impostor = generate_keypair(b"impostor")
        with pytest.raises(ValueError):
            a.learn_public(b.fingerprint, impostor.public)

    def test_relearning_same_key_idempotent(self):
        a, b = _introduced_pair()
        a.learn_public(b.fingerprint, b.keypair.public)
        assert a.knows(b.fingerprint)

    def test_public_of_round_trip(self):
        a, b = _introduced_pair()
        assert a.public_of(b.fingerprint) == b.keypair.public
