"""Pairwise session-key management for a swarm of edgelets.

A :class:`KeyRing` holds one long-term key pair (sealed by the device's
TEE in the real system) and lazily derives pairwise symmetric session
keys via Diffie-Hellman + HKDF.  Both endpoints derive the same key for
the same (unordered) pair, which the tests assert as an invariant.
"""

from __future__ import annotations

from functools import cached_property

from repro.crypto.primitives import (
    KeyPair,
    SymmetricKey,
    derive_key,
    diffie_hellman_shared,
    generate_keypair,
)

__all__ = ["KeyRing"]


class KeyRing:
    """Long-term identity plus a cache of pairwise session keys."""

    def __init__(self, keypair: KeyPair | None = None, seed: bytes | None = None):
        if keypair is not None and seed is not None:
            raise ValueError("pass either an explicit keypair or a seed, not both")
        self._keypair = keypair if keypair is not None else generate_keypair(seed)
        self._sessions: dict[str, SymmetricKey] = {}
        self._known_publics: dict[str, int] = {}

    @property
    def keypair(self) -> KeyPair:
        """The long-term key pair (private part never leaves the ring)."""
        return self._keypair

    @cached_property
    def fingerprint(self) -> str:
        """Identity fingerprint of this edgelet (the key pair is fixed,
        so it is hashed once)."""
        return self._keypair.fingerprint()

    def learn_public(self, fingerprint: str, public: int) -> None:
        """Record a peer public key (learned during attestation)."""
        existing = self._known_publics.get(fingerprint)
        if existing is not None and existing != public:
            raise ValueError(f"conflicting public key for {fingerprint}")
        self._known_publics[fingerprint] = public

    def knows(self, fingerprint: str) -> bool:
        """Whether a peer's public key has been learned."""
        return fingerprint in self._known_publics

    def public_of(self, fingerprint: str) -> int:
        """The recorded public key of a peer."""
        try:
            return self._known_publics[fingerprint]
        except KeyError:
            raise KeyError(f"no public key recorded for peer {fingerprint}") from None

    def session_key(self, peer_fingerprint: str) -> SymmetricKey:
        """Derive (and cache) the pairwise session key with a peer.

        The derivation context sorts the two fingerprints so both sides
        compute the identical key.
        """
        cached = self._sessions.get(peer_fingerprint)
        if cached is not None:
            return cached
        peer_public = self.public_of(peer_fingerprint)
        shared = diffie_hellman_shared(self._keypair, peer_public)
        pair = "|".join(sorted((self.fingerprint, peer_fingerprint)))
        key = derive_key(shared, f"edgelet-session:{pair}")
        self._sessions[peer_fingerprint] = key
        return key
