"""Authenticated message envelopes exchanged between edgelets.

Every piece of personal data that leaves a TEE travels inside a sealed
envelope: the payload is encrypted under a pairwise session key, bound to
sender/recipient identities and to the query it belongs to, and signed by
the sender's attestation key.  Only the aggregated results reach the
successor operator in the clear *inside* its TEE — on the wire everything
is opaque, which is exactly the property the demonstration visualizes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.primitives import (
    GROUP_PRIME,
    AuthenticationError,
    KeyPair,
    SymmetricKey,
    decrypt,
    encrypt,
    secure_hash,
    sign,
    verify,
)

__all__ = ["Envelope", "seal_envelope", "open_envelope"]


@dataclass(frozen=True)
class Envelope:
    """A sealed message between two edgelets.

    Attributes:
        sender: fingerprint of the sender's public key.
        recipient: fingerprint of the recipient's public key.
        query_id: identifier of the query execution this belongs to.
        kind: application-level message kind (e.g. ``"contribution"``).
        ciphertext: the encrypted, authenticated payload.
        signature: Schnorr signature by the sender over the ciphertext.
        sender_public: sender public key (group element) for verification.
    """

    sender: str
    recipient: str
    query_id: str
    kind: str
    ciphertext: bytes
    signature: tuple[int, int]
    sender_public: int

    def associated_data(self) -> bytes:
        """The header bytes bound into the AEAD tag and the signature."""
        header = {
            "sender": self.sender,
            "recipient": self.recipient,
            "query_id": self.query_id,
            "kind": self.kind,
        }
        return json.dumps(header, sort_keys=True).encode("utf-8")

    def size_bytes(self) -> int:
        """Approximate wire size, used by the network cost model."""
        return len(self.ciphertext) + len(self.associated_data()) + 2 * 192


def _encode_payload(payload: Any) -> bytes:
    """Serialize a JSON-compatible payload to canonical bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _decode_payload(raw: bytes) -> Any:
    return json.loads(raw.decode("utf-8"))


def seal_envelope(
    sender_keys: KeyPair,
    recipient_fingerprint: str,
    session_key: SymmetricKey,
    query_id: str,
    kind: str,
    payload: Any,
) -> Envelope:
    """Encrypt-and-sign ``payload`` for transport to a peer edgelet.

    The payload must be JSON-serializable; operator states in this
    reproduction always are.
    """
    header = {
        "sender": sender_keys.fingerprint(),
        "recipient": recipient_fingerprint,
        "query_id": query_id,
        "kind": kind,
    }
    associated = json.dumps(header, sort_keys=True).encode("utf-8")
    ciphertext = encrypt(session_key, _encode_payload(payload), associated)
    signature = sign(sender_keys, associated + ciphertext)
    return Envelope(
        sender=header["sender"],
        recipient=recipient_fingerprint,
        query_id=query_id,
        kind=kind,
        ciphertext=ciphertext,
        signature=signature,
        sender_public=sender_keys.public,
    )


def _is_key_of(public: int, fingerprint: str) -> bool:
    """Whether ``fingerprint`` is :meth:`KeyPair.fingerprint` of ``public``."""
    if not 0 < public < GROUP_PRIME:
        return False
    return secure_hash(public.to_bytes(192, "big"))[:16] == fingerprint


def open_envelope(envelope: Envelope, session_key: SymmetricKey) -> Any:
    """Verify the sender binding, signature and tag; return the payload.

    Raises :class:`AuthenticationError` on any verification failure; the
    executor treats such envelopes as lost messages (uncertain network).
    """
    # the signature only proves whoever holds ``sender_public`` signed;
    # that key must also be the one the ``sender`` fingerprint names
    if not _is_key_of(envelope.sender_public, envelope.sender):
        raise AuthenticationError("envelope sender key does not match its sender")
    associated = envelope.associated_data()
    if not verify(envelope.sender_public, associated + envelope.ciphertext, envelope.signature):
        raise AuthenticationError("envelope signature invalid")
    plaintext = decrypt(session_key, envelope.ciphertext, associated)
    return _decode_payload(plaintext)
