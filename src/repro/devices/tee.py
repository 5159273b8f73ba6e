"""Trusted Execution Environment abstraction.

A TEE, whatever its hardware realization (SGX enclave, TrustZone secure
world, TPM-backed secure boot), gives the Edgelet protocol three things:

1. **Integrity** — the code running inside is exactly the measured code;
2. **Attestability** — it can produce a quote binding its measurement to
   a challenge, verifiable by peers;
3. **Confidentiality** — data decrypted inside is invisible outside,
   *unless* a side-channel attack degrades the TEE to "sealed glass"
   mode [Tramer et al.], where integrity survives but the adversary can
   read everything the enclave manipulates.

The sealed-glass mode is first-class here because the paper's privacy
argument (horizontal/vertical partitioning bounds what a compromised TEE
exposes) is evaluated under exactly that threat model: a
:class:`SealedGlassObserver` records every cleartext item a compromised
TEE touches, and the privacy metrics read that record.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.primitives import KeyPair, SymmetricKey, generate_keypair, hkdf
from repro.errors import ReproError

__all__ = ["TEEKind", "TrustedExecutionEnvironment", "SealedGlassObserver", "TEEError"]


class TEEError(ReproError):
    """Raised on TEE misuse (e.g. unsealing with a foreign blob)."""


class TEEKind(enum.Enum):
    """Hardware families of the demonstration platform."""

    SGX = "sgx"              # Intel SGX enclave (PC)
    TRUSTZONE = "trustzone"  # ARM TrustZone secure world (smartphone)
    TPM = "tpm"              # TPM-backed secure boot (home box)


class SealedGlassObserver:
    """Records the cleartext data visible through a compromised TEE.

    One observer is shared by all compromised TEEs of a scenario; the
    privacy experiments interrogate it to measure actual exposure.
    """

    def __init__(self) -> None:
        self._observations: dict[str, list[Any]] = {}

    def observe(self, tee_id: str, item: Any) -> None:
        """Record that ``item`` was visible in cleartext inside ``tee_id``."""
        self._observations.setdefault(tee_id, []).append(item)

    def exposed_items(self, tee_id: str) -> list[Any]:
        """Everything observed inside one TEE."""
        return list(self._observations.get(tee_id, []))

    def exposed_tees(self) -> list[str]:
        """Identifiers of TEEs where anything was observed (sorted)."""
        return sorted(self._observations)

    def total_exposed(self) -> int:
        """Total count of observed cleartext items across all TEEs."""
        return sum(len(items) for items in self._observations.values())

    def clear(self) -> None:
        """Reset all observations."""
        self._observations.clear()


@dataclass
class TrustedExecutionEnvironment:
    """A simulated TEE instance living on one edgelet.

    Attributes:
        kind: hardware family.
        measurement: hex digest of the (simulated) enclave code; all
            honest edgelets in a scenario run the same measurement.
        keypair: the attestation/identity key pair, generated inside the
            TEE and never exported.
        compromised: when ``True`` the TEE operates in sealed-glass mode
            and leaks every cleartext item to ``observer``.
        observer: the shared sealed-glass observer (may be ``None`` when
            no compromise is simulated).
    """

    kind: TEEKind
    measurement: str
    keypair: KeyPair = field(default_factory=generate_keypair)
    compromised: bool = False
    observer: SealedGlassObserver | None = None
    _sealing_key: SymmetricKey = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Sealing key is bound to the identity and measurement, like
        # SGX's MRENCLAVE-derived sealing keys.
        seed = self.keypair.private.to_bytes(192, "big") + self.measurement.encode()
        self._sealing_key = SymmetricKey(hkdf(seed, b"tee-sealing", 32))

    @classmethod
    def create(
        cls,
        kind: TEEKind,
        code_identity: str = "edgelet-runtime-v1",
        seed: bytes | None = None,
        compromised: bool = False,
        observer: SealedGlassObserver | None = None,
    ) -> "TrustedExecutionEnvironment":
        """Boot a TEE running the given code identity."""
        measurement = hashlib.sha256(code_identity.encode("utf-8")).hexdigest()
        return cls(
            kind=kind,
            measurement=measurement,
            keypair=generate_keypair(seed),
            compromised=compromised,
            observer=observer,
        )

    @property
    def identity(self) -> str:
        """Attestation key fingerprint, the TEE's public identity."""
        return self.keypair.fingerprint()

    # -- sealed storage -----------------------------------------------------

    def seal(self, data: Any) -> bytes:
        """Seal JSON-compatible state to this TEE (survives reboots)."""
        from repro.crypto.primitives import encrypt

        blob = json.dumps(data, sort_keys=True).encode("utf-8")
        return encrypt(self._sealing_key, blob, b"sealed-state")

    def unseal(self, blob: bytes) -> Any:
        """Unseal state previously sealed by *this* TEE."""
        from repro.crypto.primitives import AuthenticationError, decrypt

        try:
            raw = decrypt(self._sealing_key, blob, b"sealed-state")
        except AuthenticationError as exc:
            raise TEEError("blob was not sealed by this TEE") from exc
        return json.loads(raw.decode("utf-8"))

    # -- confidential processing -------------------------------------------

    def process_cleartext(self, items: list[Any]) -> list[Any]:
        """Declare that ``items`` are being manipulated in cleartext
        inside the TEE.  Honest TEEs leak nothing; a compromised
        (sealed-glass) TEE reports every item to the observer.

        Returns the items unchanged so call sites can write
        ``data = tee.process_cleartext(data)`` at each decryption point.
        """
        if self.compromised and self.observer is not None:
            for item in items:
                self.observer.observe(self.identity, item)
        return items

    def compromise(self, observer: SealedGlassObserver) -> None:
        """Degrade this TEE to sealed-glass mode (side-channel attack).

        Integrity and attestation keep working — that is the point of
        the sealed-glass model — but confidentiality is gone.
        """
        self.compromised = True
        self.observer = observer
