"""The edgelet: one TEE-enabled personal device in the swarm.

An :class:`Edgelet` ties together a device profile, a TEE, a key ring,
and the owner's local datastore, and knows how to exchange sealed
envelopes with peers over the opportunistic network.  Operator logic
(Snapshot Builder, Computer, ...) is *assigned onto* edgelets by the
planner; the device itself is role-agnostic.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.crypto.envelope import Envelope, open_envelope, seal_envelope
from repro.crypto.keys import KeyRing
from repro.crypto.primitives import AuthenticationError
from repro.devices.datastore import LocalDatastore
from repro.devices.profiles import DeviceProfile
from repro.devices.tee import SealedGlassObserver, TrustedExecutionEnvironment

__all__ = ["Edgelet"]

_device_counter = itertools.count(1)


class Edgelet:
    """One personal device participating in Edgelet computations.

    Attributes:
        device_id: unique, human-readable device identifier.
        profile: the device class (PC, smartphone, home box).
        tee: the simulated trusted execution environment.
        keyring: long-term identity + pairwise session keys (the key
            pair is the TEE's attestation pair, as in the real system
            where keys never leave the enclave).
        datastore: the owner's local rows.
    """

    def __init__(
        self,
        profile: DeviceProfile,
        device_id: str | None = None,
        seed: bytes | None = None,
        code_identity: str = "edgelet-runtime-v1",
    ):
        number = next(_device_counter)
        self.device_id = device_id or f"{profile.name}-{number:05d}"
        self.profile = profile
        self.tee = TrustedExecutionEnvironment.create(
            profile.tee_kind, code_identity=code_identity, seed=seed
        )
        self.keyring = KeyRing(keypair=self.tee.keypair)
        self.datastore = LocalDatastore(profile.storage_tuples)
        self._inbox_handlers: dict[str, Callable[[str, Any], None]] = {}

    # -- identity ---------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Public-key fingerprint, the name sealed envelopes address.

        Reading it derives the public key.  Assignment hashes
        :attr:`device_id` instead.
        """
        return self.keyring.fingerprint

    def __repr__(self) -> str:
        return f"Edgelet({self.device_id}, {self.profile.name})"

    # -- key establishment --------------------------------------------------

    def introduce(self, peer: "Edgelet") -> None:
        """Mutually learn public keys (post-attestation key exchange)."""
        self.keyring.learn_public(peer.fingerprint, peer.keyring.keypair.public)
        peer.keyring.learn_public(self.fingerprint, self.keyring.keypair.public)

    # -- sealed messaging ---------------------------------------------------

    def seal_for(
        self, peer_fingerprint: str, query_id: str, kind: str, payload: Any
    ) -> Envelope:
        """Seal a payload for a peer edgelet."""
        session = self.keyring.session_key(peer_fingerprint)
        return seal_envelope(
            self.keyring.keypair, peer_fingerprint, session, query_id, kind, payload
        )

    def open_from(self, envelope: Envelope) -> Any:
        """Open an envelope addressed to this edgelet.

        Raises :class:`AuthenticationError` on tampering, misaddressing
        or a sender this edgelet never learned the key of; the executor
        counts those as lost messages.
        """
        if envelope.recipient != self.fingerprint:
            raise AuthenticationError(
                f"envelope for {envelope.recipient}, we are {self.fingerprint}"
            )
        if not self.keyring.knows(envelope.sender):
            raise AuthenticationError(f"envelope from unknown sender {envelope.sender}")
        session = self.keyring.session_key(envelope.sender)
        payload = open_envelope(envelope, session)
        # data decrypted inside the TEE becomes cleartext *inside* it —
        # exactly what a sealed-glass adversary observes.
        self.tee.process_cleartext(
            payload if isinstance(payload, list) else [payload]
        )
        return payload

    # -- local processing -----------------------------------------------------

    def compute_latency(self, work_units: float) -> float:
        """Virtual time needed for ``work_units`` on this hardware."""
        return self.profile.compute_latency(work_units)

    def contribute(
        self,
        predicate: Callable[[dict[str, Any]], bool] | None = None,
        columns: list[str] | None = None,
    ) -> list[dict[str, Any]]:
        """Select the rows this owner contributes to a query."""
        return self.datastore.select(predicate, columns)

    def compromise(self, observer: SealedGlassObserver) -> None:
        """Subject this device's TEE to a side-channel attack."""
        self.tee.compromise(observer)
