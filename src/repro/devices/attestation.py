"""Remote attestation protocol between edgelets.

Before an edgelet is trusted with a Data Processor role, peers verify a
*quote*: a signature by the TEE's attestation key over its measurement
and a fresh challenge.  The :class:`AttestationAuthority` plays the role
of the manufacturer verification service (Intel IAS / TPM CA): it knows
which measurements correspond to the genuine Edgelet runtime and which
attestation keys belong to genuine hardware.

Integrity holds even for sealed-glass-compromised TEEs, so attestation
deliberately does **not** detect side-channel compromise — that is why
the partitioning counter-measures of the paper are needed at all.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.crypto.primitives import KeyPair, sign, verify
from repro.devices.tee import TrustedExecutionEnvironment
from repro.errors import ReproError

__all__ = ["Quote", "AttestationAuthority", "AttestationError"]


class AttestationError(ReproError):
    """Raised when a quote fails verification."""


@dataclass(frozen=True)
class Quote:
    """An attestation quote.

    Attributes:
        measurement: claimed code measurement (hex digest).
        challenge: the verifier's nonce echoed back (hex).
        public_key: attestation public key of the quoting TEE.
        signature: Schnorr signature over ``measurement || challenge``.
    """

    measurement: str
    challenge: str
    public_key: int
    signature: tuple[int, int]

    def signed_payload(self) -> bytes:
        """The bytes the signature covers."""
        return f"{self.measurement}|{self.challenge}".encode("utf-8")


class AttestationAuthority:
    """Registry of trusted measurements and genuine attestation keys."""

    def __init__(self) -> None:
        self._trusted_measurements: set[str] = set()
        self._genuine_keys: set[int] = set()
        # registered pairs whose public keys are not in _genuine_keys yet
        self._unresolved: list[KeyPair] = []

    def trust_measurement(self, measurement: str) -> None:
        """Whitelist a code measurement (the genuine Edgelet runtime)."""
        self._trusted_measurements.add(measurement)

    def register_device(self, tee: TrustedExecutionEnvironment) -> None:
        """Record a TEE's attestation key as genuine hardware.

        The key pair is recorded as it is now; its public key is read
        only when a quote is first checked (:meth:`_is_genuine`), so a
        run that never attests computes no key for it.
        """
        self._unresolved.append(tee.keypair)

    def _is_genuine(self, public_key: int) -> bool:
        """Whether ``public_key`` belongs to a registered TEE."""
        if self._unresolved:
            self._genuine_keys.update(pair.public for pair in self._unresolved)
            self._unresolved.clear()
        return public_key in self._genuine_keys

    def fresh_challenge(self) -> str:
        """Generate a verifier nonce."""
        return secrets.token_hex(16)

    @staticmethod
    def produce_quote(tee: TrustedExecutionEnvironment, challenge: str) -> Quote:
        """Have a TEE answer a challenge with a quote."""
        payload = f"{tee.measurement}|{challenge}".encode("utf-8")
        signature = sign(tee.keypair, payload)
        return Quote(
            measurement=tee.measurement,
            challenge=challenge,
            public_key=tee.keypair.public,
            signature=signature,
        )

    def verify_quote(self, quote: Quote, expected_challenge: str) -> None:
        """Verify a quote; raises :class:`AttestationError` on failure.

        Checks, in order: challenge freshness, hardware genuineness,
        measurement trust, and the signature itself.
        """
        if quote.challenge != expected_challenge:
            raise AttestationError("stale or mismatched challenge")
        if not self._is_genuine(quote.public_key):
            raise AttestationError("attestation key is not genuine hardware")
        if quote.measurement not in self._trusted_measurements:
            raise AttestationError(
                f"untrusted measurement {quote.measurement[:16]}…"
            )
        if not verify(quote.public_key, quote.signed_payload(), quote.signature):
            raise AttestationError("quote signature invalid")

    def attest(self, tee: TrustedExecutionEnvironment) -> bool:
        """Full challenge-response round against one TEE.

        Returns ``True`` on success; raises on any verification failure
        so that callers cannot silently skip the check.
        """
        challenge = self.fresh_challenge()
        quote = self.produce_quote(tee, challenge)
        self.verify_quote(quote, challenge)
        return True
