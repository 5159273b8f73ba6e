"""Tamper-evident audit ledger for crowd liability.

Edgelet computing's Crowd Liability property shifts GDPR responsibility
from one data controller to the crowd of participants.  For that shift
to be *demonstrable*, each processing step must be attributable: which
TEE held how many raw tuples, who combined what, who delivered the
result.  This module provides a hash-chained, signature-per-record
ledger the executor can write as it runs:

* each :class:`AuditRecord` is signed by the acting device's TEE key
  and chained to the previous record's digest (tampering with any
  record breaks every subsequent link);
* :meth:`AuditLedger.verify` re-checks the whole chain;
* :meth:`AuditLedger.liability_by_device` derives the per-participant
  processing tally directly from the verified ledger — the evidence
  backing :func:`repro.core.liability.measure_liability`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.crypto.primitives import KeyPair, secure_hash, sign, verify
from repro.errors import ReproError


def _fingerprint_of_public(public_key: int) -> str:
    """Fingerprint of a bare public key (matches KeyPair.fingerprint)."""
    return secure_hash(public_key.to_bytes(192, "big"))[:16]

__all__ = ["AuditRecord", "AuditLedger", "LedgerError"]

GENESIS_DIGEST = "0" * 64


class LedgerError(ReproError):
    """Raised when appending to or verifying a ledger fails."""


@dataclass(frozen=True)
class AuditRecord:
    """One signed, chained processing attestation.

    Attributes:
        sequence: position in the ledger (0-based).
        query_id: the query execution this belongs to.
        op_id: the plan operator performing the action.
        device: fingerprint of the acting device's TEE key.
        action: what happened (``snapshot``, ``partial``, ``combine``,
            ``deliver``).
        tuple_count: raw tuples handled by this action (0 for
            aggregate-only actions).
        time: virtual time of the action.
        prev_digest: hex digest of the previous record (or the genesis
            digest for the first).
        public_key: the signer's public key.
        signature: Schnorr signature over the record body.
    """

    sequence: int
    query_id: str
    op_id: str
    device: str
    action: str
    tuple_count: int
    time: float
    prev_digest: str
    public_key: int
    signature: tuple[int, int]

    def body(self) -> bytes:
        """The canonical signed bytes (everything except the signature)."""
        payload = {
            "sequence": self.sequence,
            "query_id": self.query_id,
            "op_id": self.op_id,
            "device": self.device,
            "action": self.action,
            "tuple_count": self.tuple_count,
            "time": self.time,
            "prev_digest": self.prev_digest,
            "public_key": self.public_key,
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    def digest(self) -> str:
        """Chain digest of this record (covers the signature too)."""
        signature_bytes = json.dumps(list(self.signature)).encode("utf-8")
        return hashlib.sha256(self.body() + signature_bytes).hexdigest()


class AuditLedger:
    """An append-only hash chain of signed audit records."""

    def __init__(self) -> None:
        self._records: list[AuditRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[AuditRecord]:
        """A copy of the chain."""
        return list(self._records)

    def head_digest(self) -> str:
        """Digest of the latest record (genesis digest when empty)."""
        if not self._records:
            return GENESIS_DIGEST
        return self._records[-1].digest()

    def append(
        self,
        signer: KeyPair,
        query_id: str,
        op_id: str,
        action: str,
        tuple_count: int,
        time: float,
    ) -> AuditRecord:
        """Sign and append one record for the acting device."""
        if tuple_count < 0:
            raise LedgerError("tuple_count must be non-negative")
        unsigned = AuditRecord(
            sequence=len(self._records),
            query_id=query_id,
            op_id=op_id,
            device=signer.fingerprint(),
            action=action,
            tuple_count=tuple_count,
            time=time,
            prev_digest=self.head_digest(),
            public_key=signer.public,
            signature=(0, 0),
        )
        signature = sign(signer, unsigned.body())
        record = AuditRecord(
            **{**unsigned.__dict__, "signature": signature}
        )
        self._records.append(record)
        return record

    def verify(self) -> None:
        """Re-check every signature and chain link; raises on failure."""
        previous = GENESIS_DIGEST
        for index, record in enumerate(self._records):
            if record.sequence != index:
                raise LedgerError(f"record {index} has sequence {record.sequence}")
            if record.prev_digest != previous:
                raise LedgerError(f"record {index} breaks the hash chain")
            if record.device != _fingerprint_of_public(record.public_key):
                raise LedgerError(
                    f"record {index} device fingerprint does not match its key"
                )
            if not verify(record.public_key, record.body(), record.signature):
                raise LedgerError(f"record {index} signature invalid")
            previous = record.digest()

    def liability_by_device(self, verify_first: bool = True) -> dict[str, dict[str, int]]:
        """Per-device tallies derived from the (verified) ledger.

        Returns ``device -> {"actions": n, "tuples": n}``.
        """
        if verify_first:
            self.verify()
        tallies: dict[str, dict[str, int]] = {}
        for record in self._records:
            entry = tallies.setdefault(record.device, {"actions": 0, "tuples": 0})
            entry["actions"] += 1
            entry["tuples"] += record.tuple_count
        return tallies

    def for_query(self, query_id: str) -> list[AuditRecord]:
        """Records of one query execution."""
        return [r for r in self._records if r.query_id == query_id]
