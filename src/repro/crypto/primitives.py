"""Core cryptographic primitives (simulation grade).

Everything here is deterministic given its inputs, which makes protocol
traces reproducible in the discrete-event simulator.  The primitives
mirror the shapes of their real-world counterparts:

* :func:`secure_hash` / :func:`hmac_digest` — SHA-256 based digests.
* :func:`encrypt` / :func:`decrypt` — authenticated encryption with a
  SHA-256 counter-mode keystream and an HMAC tag (encrypt-then-MAC).
* :func:`generate_keypair`, :func:`sign`, :func:`verify` — Schnorr-style
  signatures over a published safe-prime group.
* :func:`diffie_hellman_shared` — classic DH key agreement in the same
  group, used to derive pairwise edgelet session keys.
* :func:`hkdf` — extract-and-expand key derivation.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import secrets
import weakref
from dataclasses import dataclass
from functools import cached_property

from repro.errors import ReproError

__all__ = [
    "AuthenticationError",
    "KeyPair",
    "SymmetricKey",
    "decrypt",
    "derive_key",
    "diffie_hellman_shared",
    "encrypt",
    "generate_keypair",
    "hkdf",
    "hmac_digest",
    "secure_hash",
    "sign",
    "verify",
]

# A 1536-bit MODP safe prime (RFC 3526 group 5) with generator 2.  Small
# enough to keep simulated handshakes fast, large enough that the group
# arithmetic code path matches a realistic implementation.
GROUP_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)
GROUP_GENERATOR = 2
GROUP_ORDER = (GROUP_PRIME - 1) // 2
_ORDER_BITS = GROUP_ORDER.bit_length()

# Window width of the fixed-base table behind :func:`_generator_power`.
# Provenance: a sweep of w = 6 / 7 / 8 on a shared 2-core sandbox (table
# in DESIGN.md, "Crypto substrate"): per g^x with a 384-bit exponent
# 810 / 666 / 581 us against 3,700 us for builtin ``pow``, i.e. 64 / 55
# / 48 table multiplications; sealed_survey exec_s 2.27 / 1.97 / 1.82 s.
# Each extra bit doubles the table: at w = 8 it holds 2.9 MB for 384-bit
# exponents, 5.7 MB for the 768-bit DH products of a sealed run and
# 11.4 MB at full width, which only unseeded keys and forged signatures
# reach.
_WINDOW_BITS = 8
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
# Row i holds g^(d * 2^(_WINDOW_BITS * i)) mod p for every digit value d.
# The rows every seeded private key and signing nonce needs are built
# when the module is imported (below :func:`_grow_rows`); longer rows are
# appended the first time an exponent long enough to need them is seen.
_GENERATOR_ROWS: list[list[int]] = []
# Seeded private keys and signing nonces are this many hkdf bytes.
_SEEDED_EXPONENT_BYTES = 48
# Every key pair :func:`generate_keypair` minted whose public key has
# been read and which something still holds, by public key.  Only those
# pairs write here, when they derive ``public`` from ``private``
# themselves, so each entry's private key is the discrete log of its
# public key: ``public^e == g^(private * e)``.
_MINTED: weakref.WeakValueDictionary[int, "_MintedKeyPair"] = weakref.WeakValueDictionary()

TAG_SIZE = 32
KEY_SIZE = 32
NONCE_SIZE = 16
_BLOCK = hashlib.sha256().digest_size


class AuthenticationError(ReproError):
    """Raised when a ciphertext, tag, or signature fails verification."""


@dataclass(frozen=True)
class SymmetricKey:
    """A 256-bit symmetric key with separate encryption/MAC subkeys."""

    material: bytes

    def __post_init__(self) -> None:
        if len(self.material) != KEY_SIZE:
            raise ValueError(
                f"symmetric keys must be {KEY_SIZE} bytes, got {len(self.material)}"
            )

    # derived once per key; cached_property stores into the instance
    # __dict__ directly, which a frozen dataclass permits
    @cached_property
    def enc_key(self) -> bytes:
        """Subkey used for the keystream (domain-separated)."""
        return hkdf(self.material, b"edgelet-enc", KEY_SIZE)

    @cached_property
    def mac_key(self) -> bytes:
        """Subkey used for the authentication tag (domain-separated)."""
        return hkdf(self.material, b"edgelet-mac", KEY_SIZE)

    @classmethod
    def random(cls) -> "SymmetricKey":
        """Generate a fresh random key."""
        return cls(secrets.token_bytes(KEY_SIZE))

    @classmethod
    def from_passphrase(cls, passphrase: str) -> "SymmetricKey":
        """Derive a key deterministically from a passphrase (tests/demos)."""
        return cls(hkdf(passphrase.encode("utf-8"), b"edgelet-passphrase", KEY_SIZE))

    def fingerprint(self) -> str:
        """Short hex identifier safe to log (does not reveal the key)."""
        return secure_hash(b"fp" + self.material)[:16]


@dataclass(frozen=True, repr=False)
class KeyPair:
    """A Schnorr-style key pair over the published group.

    ``private`` is an exponent in ``[1, GROUP_ORDER)``; ``public`` is
    ``g^private mod p``.  The public part is the key's identity on the
    wire: envelopes, signatures and attestation quotes name it.  A pair
    built by hand holds both parts as given; :func:`generate_keypair`'s
    pairs derive ``public`` on first read.
    """

    private: int
    public: int

    def public_bytes(self) -> bytes:
        """Serialize the public key for hashing and wire transfer."""
        return self.public.to_bytes((GROUP_PRIME.bit_length() + 7) // 8, "big")

    def fingerprint(self) -> str:
        """Short hex identifier of the public key."""
        return secure_hash(self.public_bytes())[:16]

    def __repr__(self) -> str:
        # never the private exponent, and never a power just to print
        if "public" not in self.__dict__:
            return "KeyPair(public key not derived yet)"
        return f"KeyPair(fingerprint={self.fingerprint()!r})"


class _MintedKeyPair(KeyPair):
    """A pair :func:`generate_keypair` minted: ``public`` is derived, and
    the pair recorded in ``_MINTED``, the first time ``public`` is read.

    A run that never seals, signs, agrees a key or attests computes no
    group power for it.  The two maps below are created on first use,
    so such a run creates neither.
    """

    def __init__(self, private: int) -> None:
        object.__setattr__(self, "private", private)

    # the dataclass field has no class attribute to shadow; the cached
    # value lands in the instance ``__dict__``, which a frozen dataclass
    # permits, and is read from there afterwards
    @cached_property
    def public(self) -> int:  # type: ignore[override]
        public = _generator_power(self.private)
        _MINTED[public] = self
        return public

    @cached_property
    def _agreed(self) -> dict[int, int]:
        """Peer public key -> the DH shared integer with that peer."""
        return {}

    @cached_property
    def _nonces(self) -> dict[int, int]:
        """Commitment ``g^k`` of a signature not yet verified -> ``k``."""
        return {}


def secure_hash(data: bytes) -> str:
    """Return the SHA-256 hex digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def hmac_digest(key: bytes, data: bytes) -> bytes:
    """Return the HMAC-SHA256 of ``data`` under ``key``."""
    return _hmac.new(key, data, hashlib.sha256).digest()


def hkdf(ikm: bytes, info: bytes, length: int) -> bytes:
    """HKDF-SHA256 (RFC 5869) with an all-zero salt.

    ``ikm`` is the input keying material, ``info`` the context string,
    and ``length`` the number of output bytes (at most ``255 * 32``).
    """
    if not 0 < length <= 255 * _BLOCK:
        raise ValueError("requested HKDF output length out of range")
    prk = _hmac.new(b"\x00" * _BLOCK, ikm, hashlib.sha256).digest()
    blocks = []
    previous = b""
    counter = 1
    while sum(len(b) for b in blocks) < length:
        previous = _hmac.new(prk, previous + info + bytes([counter]), hashlib.sha256).digest()
        blocks.append(previous)
        counter += 1
    return b"".join(blocks)[:length]


def derive_key(shared_secret: bytes, context: str) -> SymmetricKey:
    """Derive a :class:`SymmetricKey` from a shared secret and context."""
    return SymmetricKey(hkdf(shared_secret, context.encode("utf-8"), KEY_SIZE))


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """SHA-256 counter-mode keystream of ``length`` bytes."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hashlib.sha256(key + nonce + counter.to_bytes(8, "big")).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:length])


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR ``stream`` (same length), as one big-integer XOR."""
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


def encrypt(key: SymmetricKey, plaintext: bytes, associated_data: bytes = b"") -> bytes:
    """Authenticated encryption (encrypt-then-MAC).

    Layout of the returned blob: ``nonce || ciphertext || tag`` where the
    tag authenticates ``nonce || associated_data || ciphertext``.
    """
    nonce = secrets.token_bytes(NONCE_SIZE)
    stream = _keystream(key.enc_key, nonce, len(plaintext))
    ciphertext = _xor(plaintext, stream)
    tag = hmac_digest(key.mac_key, nonce + associated_data + ciphertext)
    return nonce + ciphertext + tag


def decrypt(key: SymmetricKey, blob: bytes, associated_data: bytes = b"") -> bytes:
    """Verify and decrypt a blob produced by :func:`encrypt`.

    Raises :class:`AuthenticationError` if the tag does not verify —
    callers must treat that as a hard protocol failure, never as data.
    """
    if len(blob) < NONCE_SIZE + TAG_SIZE:
        raise AuthenticationError("ciphertext too short")
    nonce = blob[:NONCE_SIZE]
    ciphertext = blob[NONCE_SIZE:-TAG_SIZE]
    tag = blob[-TAG_SIZE:]
    expected = hmac_digest(key.mac_key, nonce + associated_data + ciphertext)
    if not _hmac.compare_digest(tag, expected):
        raise AuthenticationError("authentication tag mismatch")
    stream = _keystream(key.enc_key, nonce, len(ciphertext))
    return _xor(ciphertext, stream)


def _grow_rows(bits: int) -> list[list[int]]:
    """``_GENERATOR_ROWS``, with enough rows for a ``bits``-bit exponent."""
    rows = _GENERATOR_ROWS
    while len(rows) * _WINDOW_BITS < bits:
        # next row's base g^(2^(w*(i+1))) is the last row's top entry,
        # g^((2^w - 1) * 2^(w*i)), times that row's base g^(2^(w*i))
        base = rows[-1][-1] * rows[-1][1] % GROUP_PRIME if rows else GROUP_GENERATOR
        row = [1, base]
        for _ in range(_WINDOW_MASK - 1):
            row.append(row[-1] * base % GROUP_PRIME)
        rows.append(row)
    return rows


# Built once per process, at import: a process that forks workers builds
# them before the fork, and the first seal or signature of a run does
# not pay for them.
_grow_rows(8 * _SEEDED_EXPONENT_BYTES)


def _generator_power(exponent: int) -> int:
    """``g^exponent mod p`` for the fixed generator, by table lookup.

    Fixed-base windowing: the exponent is cut into ``_WINDOW_BITS``-bit
    digits and the result is the product of one precomputed table entry
    per non-zero digit — no squarings.  The value is the integer builtin
    ``pow`` returns; only the route differs.  A negative exponent raises
    :class:`ValueError`.  Simulation grade: lookups are indexed by
    secret digits and are not constant-time.
    """
    if exponent < 0:
        raise ValueError("negative exponent")
    rows = _grow_rows(exponent.bit_length())
    result = 1
    index = 0
    while exponent:
        digit = exponent & _WINDOW_MASK
        if digit:
            result = result * rows[index][digit] % GROUP_PRIME
        exponent >>= _WINDOW_BITS
        index += 1
    return result


def generate_keypair(seed: bytes | None = None) -> KeyPair:
    """Generate a key pair; a ``seed`` makes it deterministic (tests).

    Only the private exponent is drawn here.  The public key
    ``g^private`` is computed the first time it is read.
    """
    if seed is None:
        private = secrets.randbelow(GROUP_ORDER - 1) + 1
    else:
        digest = hkdf(seed, b"edgelet-keygen", _SEEDED_EXPONENT_BYTES)
        private = int.from_bytes(digest, "big") % (GROUP_ORDER - 1) + 1
    return _MintedKeyPair(private)


def _power(base: int, exponent: int) -> int:
    """``base^exponent mod p`` — the integer builtin ``pow`` returns.

    When ``base`` is a public key :func:`generate_keypair` minted (read
    at least once, and its pair still alive) its discrete log ``x`` is
    known, so ``base^e == g^(x*e)`` goes through the fixed-base table.  The
    generator has order ``GROUP_ORDER``, so the product may be reduced
    modulo it; that is done only when the product is longer than the
    order, which keeps the table at its full-width ceiling without
    widening shorter products to full width.  Any other base takes
    builtin ``pow``.  The route depends on the base alone, never on
    the caller.  A negative exponent raises :class:`ValueError` on
    either route.  Host time only: a real verifier cannot know ``x``.
    """
    if exponent < 0:
        raise ValueError("negative exponent")
    minted = _MINTED.get(base)
    if minted is None:
        return pow(base, exponent, GROUP_PRIME)
    product = minted.private * exponent
    if product.bit_length() > _ORDER_BITS:
        product %= GROUP_ORDER
    return _generator_power(product)


def diffie_hellman_shared(own: KeyPair, peer_public: int) -> bytes:
    """Compute the DH shared secret between ``own`` and a peer public key.

    A pair :func:`generate_keypair` minted computes each agreement once.
    It keeps the shared integer by peer key, and hands it to the peer's
    minted pair under its own public key when that key is already
    derived: ``peer^x == g^(x*y) == (g^x)^y``, so the peer's side of the
    same agreement needs no power either.  Any other ``own`` computes
    as before.  Host time only, like the known-log route of
    :func:`_power`.
    """
    if not 1 < peer_public < GROUP_PRIME - 1:
        raise ValueError("peer public key outside the group")
    if not isinstance(own, _MintedKeyPair):
        shared = _power(peer_public, own.private)
    else:
        shared = own._agreed.get(peer_public)
        if shared is None:
            shared = _power(peer_public, own.private)
            own._agreed[peer_public] = shared
            if "public" in own.__dict__:
                peer = _MINTED.get(peer_public)
                if peer is not None:
                    peer._agreed[own.public] = shared
    return shared.to_bytes((GROUP_PRIME.bit_length() + 7) // 8, "big")


def _schnorr_challenge(public: int, commitment: int, message: bytes) -> int:
    payload = (
        public.to_bytes(192, "big") + commitment.to_bytes(192, "big") + message
    )
    return int.from_bytes(hashlib.sha256(payload).digest(), "big") % GROUP_ORDER


def sign(keypair: KeyPair, message: bytes) -> tuple[int, int]:
    """Produce a Schnorr signature ``(commitment, response)``.

    The nonce is derived deterministically from the private key and the
    message (RFC 6979 style) so signing is reproducible and never leaks
    through nonce reuse.
    """
    nonce_seed = keypair.private.to_bytes(192, "big") + message
    nonce = hkdf(nonce_seed, b"edgelet-sign-nonce", _SEEDED_EXPONENT_BYTES)
    k = int.from_bytes(nonce, "big") % (GROUP_ORDER - 1) + 1
    commitment = _generator_power(k)
    challenge = _schnorr_challenge(keypair.public, commitment, message)
    response = (k + challenge * keypair.private) % GROUP_ORDER
    if isinstance(keypair, _MintedKeyPair):
        keypair._nonces[commitment] = k
    return commitment, response


def verify(public: int, message: bytes, signature: tuple[int, int]) -> bool:
    """Check a Schnorr signature against ``public`` and ``message``.

    The check is ``g^s == R * y^c mod p``.  For a ``y`` that
    :func:`generate_keypair` minted, its discrete log ``x`` is known and
    the check is computed as ``R == g^((s - x*c) mod q)`` — one
    fixed-base power instead of two.  The two agree on every input:
    ``g`` has order ``q`` and multiplying by ``g^(x*c)`` is a bijection
    mod ``p``.  For an honest signature ``s - x*c`` is the signer's
    nonce; a forged one is reduced mod ``q``, so the exponent is never
    negative.  When the minted pair itself signed with commitment
    ``R = g^k`` and that signature is not verified yet, ``k`` is known
    too, and the check is ``k == (s - x*c) mod q`` with no power: both
    sides lie in ``[0, q)``, where ``g^a == g^b`` only if ``a == b``.
    The first such check that succeeds forgets ``k``.  Host time only,
    like the known-log route of DH.
    """
    commitment, response = signature
    if not (1 < public < GROUP_PRIME - 1 and 0 < commitment < GROUP_PRIME and 0 <= response < GROUP_ORDER):
        return False
    challenge = _schnorr_challenge(public, commitment, message)
    minted = _MINTED.get(public)
    if minted is None:
        rhs = commitment * pow(public, challenge, GROUP_PRIME) % GROUP_PRIME
        return _generator_power(response) == rhs
    exponent = (response - minted.private * challenge) % GROUP_ORDER
    nonces = minted.__dict__.get("_nonces", {})
    nonce = nonces.get(commitment)
    if nonce is None:
        return commitment == _generator_power(exponent)
    if nonce != exponent:
        return False
    del nonces[commitment]
    return True
