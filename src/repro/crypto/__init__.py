"""Simulation-grade cryptographic substrate for Edgelet computing.

The Edgelet demonstration runs real cryptography inside TEEs (SGX
enclaves, TPM-sealed keys).  This package provides deterministic,
pure-Python equivalents built on :mod:`hashlib` and :mod:`hmac` so that
every code path of the protocol — authenticated message envelopes,
attestation quotes — is exercised without external dependencies.

.. warning::
   These primitives are for **simulation and testing only**.  The stream
   cipher, the Schnorr-style signatures over a small published group, and
   the key-exchange implementation are not hardened against real
   adversaries and must never be used to protect actual data.
"""

from repro.crypto.primitives import (
    AuthenticationError,
    KeyPair,
    SymmetricKey,
    decrypt,
    derive_key,
    diffie_hellman_shared,
    encrypt,
    generate_keypair,
    hkdf,
    hmac_digest,
    secure_hash,
    sign,
    verify,
)
from repro.crypto.envelope import Envelope, open_envelope, seal_envelope
from repro.crypto.keys import KeyRing

__all__ = [
    "AuthenticationError",
    "Envelope",
    "KeyPair",
    "KeyRing",
    "SymmetricKey",
    "decrypt",
    "derive_key",
    "diffie_hellman_shared",
    "encrypt",
    "generate_keypair",
    "hkdf",
    "hmac_digest",
    "open_envelope",
    "seal_envelope",
    "secure_hash",
    "sign",
    "verify",
]
