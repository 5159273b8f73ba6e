"""Unit and property-based tests for the crypto primitives."""

from __future__ import annotations

import builtins
import collections
import gc
import hashlib
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.primitives import (
    GROUP_GENERATOR,
    GROUP_ORDER,
    GROUP_PRIME,
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
from repro.chaos.campaign import RunSpec, run_single
from repro.crypto import envelope, primitives
from repro.crypto.primitives import _WINDOW_BITS, _generator_power, _power
from repro.devices import attestation
from repro.workload.fingerprint import report_fingerprint

# (seed, public key, message, signature commitment, signature response),
# computed with builtin ``pow`` at the commit before the fixed-base table.
PINNED_VECTORS = [
    (
        b"edgelet-pin-1",
        int(
            "7d7a28c65a208c86d54ee44fe64ca7fdb5f291980ad3eba72dcd6e00094ae030"
            "0aead2c61f77d1a7d0ebd6980f7050ec212f09184e87ac3745a2f44316cc480f"
            "a7ae32f72b7ed15acd66582fce75c88c83a8cbbe4b0c3114b9a936316e870a3b"
            "3b462e2e69955676eb35ad80c581dc86f665eafc77e1c5a90c4e0db5cf06182c"
            "73d411a95e1050fbf6ac5a1dd0720699f97b0172bf8edb9ea89e06b79c1d3a00"
            "41c25b0f146975c33a77c7ccc7c0e121884eda6a0b74e73913351ecf14f506c5",
            16,
        ),
        b"pinned message edgelet-pin-1",
        int(
            "474aa1307cc947630f7d6c045e881bdb33f43c96740d3f781c6df1d3dcadbe6e"
            "c63b1192e797ba09b443cb4f385b68dffc46dafb60dbcc92ea82740131f58029"
            "c20a2688215497733d7f5e1e62d4973b180a99c36905d0cc116120d9bc5c6aa6"
            "47c1cd24919f7a4d2045a3a51b290b1c0503d7e775827074262bb6c381aca91e"
            "935d76d14672768b15cf1d2cac0a9cac5675cd3f54fc153f352f22b0bee77ecd"
            "9b4249372d1ebb27b2da54bd44db30b431b3d0259cdf9e058b21dd3c2d9b20e1",
            16,
        ),
        int(
            "d1668a9c220f7512dd1a30fa1bea3b43bcffb7fea94b3172861da427195da027"
            "61f60bab541d0185bae16e7f9e14ac2235fef43609e3b1257e90ed1b1ea1ac5d"
            "1128bb9cc07b5a437b91a937126fbd8",
            16,
        ),
    ),
    (
        b"edgelet-pin-2",
        int(
            "6b8dbd7db6721aa9bc2ebaf8e5319e15dfa7bc24ff9f237891d9d5b810957028"
            "e28dbe4a2ae1889619a10106b0d7567b642323797de737a649b68de593d32f5f"
            "b7f851ac22c4b3e42bade03c9f418840692aaabbfb7b560834ec93d267026103"
            "0232d3feb1299a535000e28a59961bcb97800a0073f146d982850b5d5c27ffcb"
            "545824164afcaa91f010d44e2bf8ea654fca3f8ad903b447ef5a5095a8343c81"
            "bce828875cea6437aa57c61fefd062fe9d0e0a11503b0b313ebf12b131176719",
            16,
        ),
        b"pinned message edgelet-pin-2",
        int(
            "e13442a765fae56893cd1359d0f94d20456229f665aca54785c5f515692b04b6"
            "26f6c42f1634c516871e72661259bb07fef1ac5fd5845ca229cef264ca374c4f"
            "23ec97fcd538f6d99fc6df63bf88400701ebd1baeb432787f16ce645593fbcdb"
            "69090dee314b676b7fd2169b66a410d42b9ae401ea4edefae4a8e734612db9ef"
            "fd437e8d3ae302d1e8d2f953c99ea02932880fc0f31af6327baf831a9ce63638"
            "5ff34adfbbbf0bf759feb75099baa5b5fb9d7ab2da376e4789355d0ae07c3be2",
            16,
        ),
        int(
            "1e274dc0b0ae03f5e6edeb7cac28392c3934a1f2192ec639b632e425167d1e40"
            "197d7721da4276203ff9d7185e687365321da843ab7aa3267e6c766bebcd0161"
            "145c32dfd126c8738bd5fe1d4a1a4b2e",
            16,
        ),
    ),
]


class TestHashing:
    def test_secure_hash_is_hex_sha256(self):
        digest = secure_hash(b"edgelet")
        assert len(digest) == 64
        assert digest == secure_hash(b"edgelet")

    def test_secure_hash_differs_on_input(self):
        assert secure_hash(b"a") != secure_hash(b"b")

    def test_hmac_is_keyed(self):
        assert hmac_digest(b"k1", b"data") != hmac_digest(b"k2", b"data")

    def test_hmac_is_32_bytes(self):
        assert len(hmac_digest(b"key", b"payload")) == 32


class TestHKDF:
    def test_deterministic(self):
        assert hkdf(b"ikm", b"ctx", 32) == hkdf(b"ikm", b"ctx", 32)

    def test_context_separation(self):
        assert hkdf(b"ikm", b"ctx-a", 32) != hkdf(b"ikm", b"ctx-b", 32)

    def test_requested_length_honoured(self):
        for length in (1, 16, 32, 33, 64, 100):
            assert len(hkdf(b"ikm", b"ctx", length)) == length

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            hkdf(b"ikm", b"ctx", 0)

    def test_oversized_length_rejected(self):
        with pytest.raises(ValueError):
            hkdf(b"ikm", b"ctx", 255 * 32 + 1)

    def test_long_output_prefix_consistent(self):
        short = hkdf(b"ikm", b"ctx", 32)
        long = hkdf(b"ikm", b"ctx", 64)
        assert long[:32] == short


class TestSymmetricKey:
    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            SymmetricKey(b"short")

    def test_subkeys_are_domain_separated(self):
        key = SymmetricKey.from_passphrase("pw")
        assert key.enc_key != key.mac_key

    def test_passphrase_derivation_deterministic(self):
        assert (
            SymmetricKey.from_passphrase("pw").material
            == SymmetricKey.from_passphrase("pw").material
        )

    def test_random_keys_differ(self):
        assert SymmetricKey.random().material != SymmetricKey.random().material

    def test_fingerprint_short_and_stable(self):
        key = SymmetricKey.from_passphrase("pw")
        assert key.fingerprint() == key.fingerprint()
        assert len(key.fingerprint()) == 16

    def test_subkeys_are_the_hkdf_outputs_derived_once(self):
        key = SymmetricKey.from_passphrase("pw")
        assert key.enc_key == hkdf(key.material, b"edgelet-enc", 32)
        assert key.mac_key == hkdf(key.material, b"edgelet-mac", 32)
        assert key.enc_key is key.enc_key
        # the cached subkeys are not fields: equality and hashing ignore them
        assert key == SymmetricKey.from_passphrase("pw")
        assert hash(key) == hash(SymmetricKey.from_passphrase("pw"))


class TestAEAD:
    def setup_method(self):
        self.key = SymmetricKey.from_passphrase("test")

    # blobs computed with the byte-by-byte XOR and per-access subkeys
    # the AEAD had before, nonce pinned to bytes 0..15
    PINNED_SHORT = (
        "000102030405060708090a0b0c0d0e0f847a069177591c96d66641d15cba50ff"
        "8232c973a0846f2c794a248d72fd14e8846345c9072eb8c099f687a30548f6dc"
        "401d5435034460a6387eec250cbd28c773725822614ac76c21d98ae74c7403da"
        "3eaeb1d27c6661c6b2491922ff2ff9d14141027fa47786fc984533ac8d"
    )
    PINNED_EMPTY = (
        "000102030405060708090a0b0c0d0e0f85b6309b6f8567ed5e4bda50ebda31f0"
        "02347897cb89f2d3286ce1f1c3129dbb"
    )
    PINNED_1K_SHA256 = (
        "9a9b14e88f798edccb7d0de7c4960778c9b1e4bd1d865539c8865dc93be7bae4"
    )

    def test_ciphertext_is_pinned_for_a_fixed_nonce(self, monkeypatch):
        monkeypatch.setattr(
            primitives.secrets, "token_bytes", lambda n: bytes(range(n))
        )
        key = SymmetricKey.from_passphrase("aead-pin")
        short = encrypt(key, bytes(range(77)), b"hdr")
        assert short.hex() == self.PINNED_SHORT
        assert encrypt(key, b"", b"").hex() == self.PINNED_EMPTY
        kilobyte = bytes((i * 7 + 3) % 256 for i in range(1024))
        blob = encrypt(key, kilobyte, b"header-1k")
        assert hashlib.sha256(blob).hexdigest() == self.PINNED_1K_SHA256
        assert decrypt(key, blob, b"header-1k") == kilobyte
        assert decrypt(key, short, b"hdr") == bytes(range(77))

    def test_leading_zero_bytes_survive(self):
        for plaintext in (b"\x00", b"\x00" * 40, b"\x00\x00\x01"):
            assert decrypt(self.key, encrypt(self.key, plaintext)) == plaintext

    def test_round_trip(self):
        blob = encrypt(self.key, b"hello edgelets")
        assert decrypt(self.key, blob) == b"hello edgelets"

    def test_round_trip_with_associated_data(self):
        blob = encrypt(self.key, b"payload", b"header")
        assert decrypt(self.key, blob, b"header") == b"payload"

    def test_wrong_associated_data_fails(self):
        blob = encrypt(self.key, b"payload", b"header")
        with pytest.raises(AuthenticationError):
            decrypt(self.key, blob, b"other")

    def test_wrong_key_fails(self):
        blob = encrypt(self.key, b"payload")
        with pytest.raises(AuthenticationError):
            decrypt(SymmetricKey.from_passphrase("other"), blob)

    def test_tamper_detection(self):
        blob = bytearray(encrypt(self.key, b"payload"))
        blob[20] ^= 0xFF
        with pytest.raises(AuthenticationError):
            decrypt(self.key, bytes(blob))

    def test_truncated_blob_rejected(self):
        with pytest.raises(AuthenticationError):
            decrypt(self.key, b"tiny")

    def test_nonce_randomization(self):
        assert encrypt(self.key, b"x") != encrypt(self.key, b"x")

    def test_empty_plaintext(self):
        blob = encrypt(self.key, b"")
        assert decrypt(self.key, blob) == b""

    @given(payload=st.binary(max_size=512), associated=st.binary(max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, payload, associated):
        key = SymmetricKey.from_passphrase("prop")
        assert decrypt(key, encrypt(key, payload, associated), associated) == payload


class TestKeyPairs:
    def test_deterministic_from_seed(self):
        assert generate_keypair(b"seed").public == generate_keypair(b"seed").public

    def test_different_seeds_differ(self):
        assert generate_keypair(b"a").public != generate_keypair(b"b").public

    def test_private_in_group(self):
        keypair = generate_keypair(b"seed")
        assert 1 <= keypair.private < GROUP_ORDER

    def test_public_in_group(self):
        keypair = generate_keypair(b"seed")
        assert 1 < keypair.public < GROUP_PRIME

    def test_fingerprint_is_short_hex(self):
        fingerprint = generate_keypair(b"seed").fingerprint()
        assert len(fingerprint) == 16
        int(fingerprint, 16)


class TestFixedBaseTable:
    """``g^x`` by table lookup is the integer builtin ``pow`` returns."""

    @staticmethod
    def _reference(exponent: int) -> int:
        return pow(GROUP_GENERATOR, exponent, GROUP_PRIME)

    def test_window_boundaries(self):
        top = (1 << _WINDOW_BITS) - 1
        exponents = {0, 1, GROUP_ORDER - 1, GROUP_ORDER, GROUP_PRIME - 2}
        # every digit value in each of the first rows, alone and with
        # the neighbouring windows saturated or empty
        for row in range(4):
            shift = _WINDOW_BITS * row
            for digit in range(top + 1):
                exponents.add(digit << shift)
                exponents.add((digit << shift) | ((1 << shift) - 1))
                exponents.add((digit << shift) | (1 << (shift + _WINDOW_BITS)))
        # either side of window boundaries up to full width (every
        # eighth: the reference costs milliseconds per exponent)
        for boundary in range(
            _WINDOW_BITS, GROUP_PRIME.bit_length(), 8 * _WINDOW_BITS
        ):
            exponents.update(
                {(1 << boundary) - 1, 1 << boundary, (1 << boundary) + 1}
            )
        for exponent in sorted(exponents):
            assert _generator_power(exponent) == self._reference(exponent)

    @given(st.integers(min_value=0, max_value=GROUP_PRIME))
    @settings(max_examples=60, deadline=None)
    def test_full_width_exponents(self, exponent):
        assert _generator_power(exponent) == self._reference(exponent)

    @given(st.integers(min_value=0, max_value=(1 << 384) - 1))
    @settings(max_examples=60, deadline=None)
    def test_key_sized_exponents(self, exponent):
        assert _generator_power(exponent) == self._reference(exponent)

    @given(st.binary(min_size=1, max_size=32))
    @settings(max_examples=20, deadline=None)
    def test_public_key_is_generator_to_the_private(self, seed):
        keypair = generate_keypair(seed)
        assert keypair.public == self._reference(keypair.private)

    def test_unseeded_keypair_is_consistent(self):
        keypair = generate_keypair()
        assert keypair.public == self._reference(keypair.private)

    @pytest.mark.parametrize(
        "seed, public, message, commitment, response", PINNED_VECTORS
    )
    def test_pinned_vectors(self, seed, public, message, commitment, response):
        keypair = generate_keypair(seed)
        assert keypair.public == public
        assert sign(keypair, message) == (commitment, response)
        assert verify(public, message, (commitment, response))
        assert not verify(public, message + b"!", (commitment, response))


# Minted bases for the route tests, held here so the weak registry keeps
# them; two unseeded privates give a product past the group order.
_ROUTE_PAIRS = [generate_keypair(b"route-%d" % i) for i in range(3)] + [
    generate_keypair()
]
_UNSEEDED = (generate_keypair().private, generate_keypair().private)
_EXPONENTS = st.one_of(
    st.sampled_from(
        [0, 1, GROUP_ORDER - 1, GROUP_ORDER, _UNSEEDED[0] * _UNSEEDED[1]]
    ),
    *(
        st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
        for bits in (384, 640, 1535)
    ),
    st.builds(
        lambda a, b: a * b,
        st.integers(min_value=1, max_value=GROUP_ORDER - 1),
        st.integers(min_value=1, max_value=GROUP_ORDER - 1),
    ),
)


def _pow_spy(monkeypatch) -> list[tuple[int, int, bool]]:
    """Record every builtin ``pow`` call made inside ``primitives`` as
    ``(base, exponent, base was minted at call time)``."""
    calls = []

    def spy(base, exponent, modulus):
        assert modulus == GROUP_PRIME
        calls.append((base, exponent, base in primitives._MINTED))
        return builtins.pow(base, exponent, modulus)

    # a module global named ``pow`` shadows the builtin for that module
    monkeypatch.setattr(primitives, "pow", spy, raising=False)
    return calls


class TestKnownLogRoute:
    """``y^e`` as ``g^(x*e)`` for a minted ``y`` is the integer ``pow`` returns."""

    def test_generator_has_the_group_order(self):
        assert pow(GROUP_GENERATOR, GROUP_ORDER, GROUP_PRIME) == 1

    @given(st.sampled_from(_ROUTE_PAIRS), _EXPONENTS)
    @settings(max_examples=60, deadline=None)
    def test_minted_bases(self, keypair, exponent):
        assert primitives._MINTED.get(keypair.public) is keypair
        assert _power(keypair.public, exponent) == pow(
            keypair.public, exponent, GROUP_PRIME
        )

    @given(
        st.one_of(st.just(4), st.integers(min_value=2, max_value=GROUP_PRIME - 2)),
        _EXPONENTS,
    )
    @settings(max_examples=40, deadline=None)
    def test_unminted_bases(self, base, exponent):
        assert base not in primitives._MINTED
        assert _power(base, exponent) == pow(base, exponent, GROUP_PRIME)

    def test_minted_base_skips_builtin_pow(self, monkeypatch):
        calls = _pow_spy(monkeypatch)
        keypair = _ROUTE_PAIRS[0]
        _power(keypair.public, GROUP_ORDER - 1)
        assert calls == []

    def test_collected_pair_falls_back_to_pow(self, monkeypatch):
        keypair = generate_keypair(b"route-ephemeral")
        public = keypair.public
        assert public in primitives._MINTED
        del keypair
        gc.collect()
        assert public not in primitives._MINTED
        calls = _pow_spy(monkeypatch)
        assert _power(public, 12345) == builtins.pow(public, 12345, GROUP_PRIME)
        assert calls == [(public, 12345, False)]

    @pytest.mark.parametrize("exponent", [-1, -(1 << 384)])
    def test_negative_exponent_is_a_value_error(self, exponent):
        with pytest.raises(ValueError):
            _generator_power(exponent)
        with pytest.raises(ValueError):
            _power(_ROUTE_PAIRS[0].public, exponent)  # minted base
        assert 4 not in primitives._MINTED
        with pytest.raises(ValueError):
            _power(4, exponent)  # builtin ``pow`` would invert instead

    def test_impostor_pair_gets_neither_the_secret_nor_the_signature(self):
        alice = generate_keypair(b"route-alice")
        bob = generate_keypair(b"route-bob")
        impostor = KeyPair(private=alice.private + 1, public=alice.public)
        stolen = diffie_hellman_shared(impostor, bob.public)
        assert stolen == pow(bob.public, impostor.private, GROUP_PRIME).to_bytes(
            192, "big"
        )
        assert stolen != diffie_hellman_shared(alice, bob.public)
        assert not verify(alice.public, b"m", sign(impostor, b"m"))
        # a hand-built pair is never recorded
        assert primitives._MINTED[alice.public] is alice

    def test_table_never_exceeds_its_ceiling(self):
        public = _ROUTE_PAIRS[0].public
        for exponent in (
            GROUP_ORDER - 1,
            GROUP_PRIME - 2,
            (GROUP_ORDER - 1) ** 2,
            _UNSEEDED[0] * _UNSEEDED[1],
            1 << 3000,
        ):
            _power(public, exponent)
        ceiling = -(-GROUP_PRIME.bit_length() // _WINDOW_BITS)
        assert len(primitives._GENERATOR_ROWS) <= ceiling


def _run_devices(outcome) -> list:
    """The key pairs of every device a ``run_single`` outcome ran on."""
    return [d.keyring.keypair for d in outcome.result.executor.ctx.devices.values()]


class TestSealedRunTakesTheRoute:
    # report fingerprint of this run, computed when DH and ``verify``
    # still used builtin ``pow``
    PINNED_FINGERPRINT = (
        "6a7bdb64123d3d931e9972db1be6b86e3b8c2a4a377c27ee0d167515bc0a7838"
    )

    @pytest.fixture(scope="class")
    def sealed(self):
        """One sealed run with every power, registry lookup and
        signature check recorded."""
        spied = {"routed": [], "looked_up": [], "powers": [], "verdicts": []}
        real_power = primitives._power
        real_generator_power = primitives._generator_power

        def power_spy(base, exponent):
            spied["routed"].append((base, exponent, base in primitives._MINTED))
            return real_power(base, exponent)

        def generator_power_spy(exponent):
            spied["powers"].append(exponent)
            return real_generator_power(exponent)

        class LookupSpy(weakref.WeakValueDictionary):
            """The registry, recording whether each lookup found a pair."""

            def get(self, key, default=None):
                found = super().get(key, default)
                spied["looked_up"].append(found is not None)
                return found

        with pytest.MonkeyPatch.context() as patch:
            spied["pow"] = _pow_spy(patch)

            def verify_spy(public, message, signature):
                before = len(spied["powers"]) + len(spied["pow"])
                verdict = primitives.verify(public, message, signature)
                spent = len(spied["powers"]) + len(spied["pow"]) - before
                spied["verdicts"].append((verdict, spent))
                return verdict

            patch.setattr(primitives, "_power", power_spy)
            patch.setattr(primitives, "_generator_power", generator_power_spy)
            patch.setattr(primitives, "_MINTED", LookupSpy(primitives._MINTED))
            for module in (envelope, attestation):
                patch.setattr(module, "verify", verify_spy)
            spied["outcome"] = run_single(
                RunSpec(seed=17, tag="pin-sealed", secure_channels=True)
            )
        return spied

    def test_no_builtin_pow_on_a_minted_base(self, sealed):
        outcome = sealed["outcome"]
        result = outcome.result
        assert outcome.ok
        assert report_fingerprint(
            result.report, base_time=result.executor.start_time
        ) == self.PINNED_FINGERPRINT
        routed = [minted for _, _, minted in sealed["routed"]]
        looked_up = sealed["looked_up"]
        # every DH and verify in the run had a minted base: one lookup
        # per DH power (inside ``_power``) and one per verify ...
        assert all(routed) and all(looked_up)
        assert len(looked_up) > 100 and len(looked_up) > len(routed) > 0
        # ... so builtin pow was never called with one
        assert [call for call in sealed["pow"] if call[2]] == []

    def test_each_device_pair_agrees_once(self, sealed):
        public_of = {pair.private: pair.public for pair in _run_devices(sealed["outcome"])}
        agreements = collections.Counter(
            frozenset((base, public_of[exponent]))
            for base, exponent, _ in sealed["routed"]
        )
        assert len(agreements) > 20
        assert set(agreements.values()) == {1}

    def test_no_honest_verification_computes_a_power(self, sealed):
        verdicts = sealed["verdicts"]
        assert len(verdicts) > 40
        assert verdicts == [(True, 0)] * len(verdicts)

    def test_a_plain_run_creates_no_map(self, sealed):
        plain = run_single(RunSpec(seed=17, tag="pin-sealed"))
        assert plain.ok
        pairs = _run_devices(plain)
        assert pairs and all(
            not {"_agreed", "_nonces"} & vars(pair).keys() for pair in pairs
        )
        # the sealed run's pairs made theirs
        assert any("_agreed" in vars(pair) for pair in _run_devices(sealed["outcome"]))


class TestDiffieHellman:
    def test_shared_secret_agreement(self):
        alice = generate_keypair(b"alice")
        bob = generate_keypair(b"bob")
        assert diffie_hellman_shared(alice, bob.public) == diffie_hellman_shared(
            bob, alice.public
        )

    def test_rejects_degenerate_peer(self):
        alice = generate_keypair(b"alice")
        for bad in (0, 1, GROUP_PRIME - 1, GROUP_PRIME):
            with pytest.raises(ValueError):
                diffie_hellman_shared(alice, bad)

    def test_derive_key_contexts_differ(self):
        alice = generate_keypair(b"alice")
        bob = generate_keypair(b"bob")
        shared = diffie_hellman_shared(alice, bob.public)
        assert derive_key(shared, "ctx-a").material != derive_key(shared, "ctx-b").material


# Keys for the verify property: minted (seeded and unseeded) and one
# hand-built pair, which is never recorded, so its key is unminted while
# it can still sign.
_UNMINTED_PRIVATE = 0xED9E1E7 << 300 | 0x5EA1ED
_UNMINTED_PAIR = KeyPair(
    _UNMINTED_PRIVATE, pow(GROUP_GENERATOR, _UNMINTED_PRIVATE, GROUP_PRIME)
)
_VERIFY_PAIRS = _ROUTE_PAIRS + [_UNMINTED_PAIR]


def _reference_verify(public: int, message: bytes, signature) -> bool:
    """``verify`` as the two-power check with builtin ``pow``."""
    commitment, response = signature
    if not (
        1 < public < GROUP_PRIME - 1
        and 0 < commitment < GROUP_PRIME
        and 0 <= response < GROUP_ORDER
    ):
        return False
    challenge = primitives._schnorr_challenge(public, commitment, message)
    return pow(GROUP_GENERATOR, response, GROUP_PRIME) == (
        commitment * pow(public, challenge, GROUP_PRIME) % GROUP_PRIME
    )


class TestSignatures:
    @given(
        signer=st.sampled_from(range(len(_VERIFY_PAIRS))),
        message=st.binary(max_size=64),
        forgery=st.one_of(
            st.sampled_from(["honest", "tampered message", "other signer"]),
            # random (R, s) in range; a 640-bit s is often below a
            # seeded key's x*c, and every s is below an unseeded one's
            st.tuples(
                st.one_of(
                    st.sampled_from([1, GROUP_PRIME - 1]),
                    st.integers(min_value=1, max_value=GROUP_PRIME - 1),
                ),
                st.one_of(
                    st.sampled_from([0, GROUP_ORDER - 1]),
                    st.integers(min_value=0, max_value=1 << 640),
                    st.integers(min_value=0, max_value=GROUP_ORDER - 1),
                ),
            ),
        ),
    )
    @example(signer=0, message=b"m", forgery=(1, 0))
    @example(signer=0, message=b"m", forgery=(GROUP_PRIME - 1, GROUP_ORDER - 1))
    @example(signer=3, message=b"m", forgery=(GROUP_PRIME - 1, 0))
    @example(signer=4, message=b"m", forgery=(1, GROUP_ORDER - 1))
    @settings(max_examples=60, deadline=None)
    def test_verify_matches_the_two_power_reference(self, signer, message, forgery):
        keypair = _VERIFY_PAIRS[signer]
        assert (primitives._MINTED.get(keypair.public) is keypair) == (
            keypair is not _UNMINTED_PAIR
        )
        if isinstance(forgery, tuple):
            signature = forgery
        elif forgery == "other signer":
            signature = sign(_VERIFY_PAIRS[signer - 1], message)
        else:
            signature = sign(keypair, message)
            if forgery == "tampered message":
                message += b"!"
        expected = _reference_verify(keypair.public, message, signature)
        assert verify(keypair.public, message, signature) == expected
        if forgery == "honest":
            assert expected
        elif not isinstance(forgery, tuple):
            assert not expected

    def test_sign_verify_round_trip(self):
        keypair = generate_keypair(b"signer")
        signature = sign(keypair, b"message")
        assert verify(keypair.public, b"message", signature)

    def test_signature_deterministic(self):
        keypair = generate_keypair(b"signer")
        assert sign(keypair, b"m") == sign(keypair, b"m")

    def test_wrong_message_rejected(self):
        keypair = generate_keypair(b"signer")
        signature = sign(keypair, b"message")
        assert not verify(keypair.public, b"other", signature)

    def test_wrong_key_rejected(self):
        keypair = generate_keypair(b"signer")
        other = generate_keypair(b"other")
        signature = sign(keypair, b"message")
        assert not verify(other.public, b"message", signature)

    def test_tampered_signature_rejected(self):
        keypair = generate_keypair(b"signer")
        commitment, response = sign(keypair, b"message")
        assert not verify(keypair.public, b"message", (commitment, (response + 1) % GROUP_ORDER))

    def test_degenerate_values_rejected(self):
        keypair = generate_keypair(b"signer")
        assert not verify(1, b"m", sign(keypair, b"m"))
        assert not verify(keypair.public, b"m", (0, 0))

    @given(st.binary(max_size=128))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, message):
        keypair = generate_keypair(b"prop-signer")
        assert verify(keypair.public, message, sign(keypair, message))


# -- each group power once: agreements and minted commitments -----------------

# builtin-``pow`` references, cached: the parties below are rebuilt from
# the same seeds for every example, so their powers repeat
_REFERENCE_POWERS: dict[tuple[int, int], int] = {}
_REFERENCE_VERDICTS: dict[tuple, bool] = {}


def _reference_power(base: int, exponent: int) -> int:
    key = (base, exponent)
    if key not in _REFERENCE_POWERS:
        _REFERENCE_POWERS[key] = pow(base, exponent, GROUP_PRIME)
    return _REFERENCE_POWERS[key]


def _cached_reference_verify(public: int, message: bytes, signature) -> bool:
    key = (public, message, signature)
    if key not in _REFERENCE_VERDICTS:
        _REFERENCE_VERDICTS[key] = _reference_verify(public, message, signature)
    return _REFERENCE_VERDICTS[key]


def _fresh_parties() -> dict[str, KeyPair]:
    """New pair objects (no map yet) over the same keys every time.

    ``a`` and ``b`` are minted and read; ``unread`` is minted but its
    public key is never read here; ``hand`` is hand-built and unminted;
    ``impostor`` claims ``a``'s public key with another private key.
    """
    a = generate_keypair(b"once-a")
    b = generate_keypair(b"once-b")
    a.public, b.public  # derived, so recorded in the registry
    return {
        "a": a,
        "b": b,
        "unread": generate_keypair(b"once-unread"),
        "hand": _UNMINTED_PAIR,
        "impostor": KeyPair(a.private + 1, a.public),
    }


def _assert_maps_hold_true_values(parties: dict[str, KeyPair]) -> None:
    """Every map entry is the value it stands for, and only minted pairs
    hold maps."""
    for name, pair in parties.items():
        if name in ("hand", "impostor"):
            assert set(vars(pair)) == {"private", "public"}
            continue
        for peer_public, shared in vars(pair).get("_agreed", {}).items():
            assert shared == _reference_power(peer_public, pair.private)
        for commitment, nonce in vars(pair).get("_nonces", {}).items():
            assert commitment == _generator_power(nonce)
    assert "public" not in vars(parties["unread"])


def _count_powers(patch) -> list[str]:
    """Record every group power ``primitives`` computes, by route."""
    spent: list[str] = []
    real = primitives._generator_power

    def table(exponent):
        spent.append("table")
        return real(exponent)

    def builtin(base, exponent, modulus):
        spent.append("pow")
        return builtins.pow(base, exponent, modulus)

    patch.setattr(primitives, "_generator_power", table)
    patch.setattr(primitives, "pow", builtin, raising=False)
    return spent


class TestEachAgreementOnce:
    """A minted pair computes each DH agreement once, for both sides."""

    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "unread", "hand", "impostor"]),
                st.sampled_from(["a", "b", "hand"]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @example(calls=[("a", "b"), ("b", "a"), ("b", "b"), ("a", "b")])
    @example(calls=[("impostor", "b"), ("b", "a"), ("hand", "a"), ("a", "hand")])
    @settings(max_examples=40, deadline=None)
    def test_every_secret_is_the_builtin_power(self, calls):
        parties = _fresh_parties()
        for own, peer in calls:
            peer_public = parties[peer].public
            expected = _reference_power(peer_public, parties[own].private)
            assert diffie_hellman_shared(parties[own], peer_public) == (
                expected.to_bytes(192, "big")
            )
            _assert_maps_hold_true_values(parties)

    def test_a_pair_computes_its_power_once(self):
        parties = _fresh_parties()
        a, b = parties["a"], parties["b"]
        with pytest.MonkeyPatch.context() as patch:
            spent = _count_powers(patch)
            agreed = [
                diffie_hellman_shared(own, peer.public)
                for own, peer in [(a, b), (b, a), (a, b), (b, a)]
            ]
        assert spent == ["table"]
        assert len(set(agreed)) == 1

    def test_an_unread_key_is_not_derived_for_the_peer(self):
        parties = _fresh_parties()
        unread, b = parties["unread"], parties["b"]
        with pytest.MonkeyPatch.context() as patch:
            spent = _count_powers(patch)
            first = diffie_hellman_shared(unread, b.public)
            assert spent == ["table"]  # the agreement, and no g^x
            assert "public" not in vars(unread)
            assert diffie_hellman_shared(unread, b.public) == first
            assert spent == ["table"]
            # b could not be told: it computes its side itself
            assert diffie_hellman_shared(b, unread.public) == first
        assert spent == ["table", "table", "table"]  # g^x, then b's side

    def test_a_hand_built_own_computes_every_time(self):
        parties = _fresh_parties()
        with pytest.MonkeyPatch.context() as patch:
            spent = _count_powers(patch)
            for own in ("hand", "impostor", "hand", "impostor"):
                diffie_hellman_shared(parties[own], parties["b"].public)
        assert spent == ["table"] * 4  # b is minted: known-log route
        assert "_agreed" not in vars(parties["b"])
        _assert_maps_hold_true_values(parties)

    def test_the_range_check_comes_before_the_map(self):
        a = _fresh_parties()["a"]
        for bad in (0, 1, GROUP_PRIME - 1, GROUP_PRIME):
            a._agreed[bad] = 4
            with pytest.raises(ValueError):
                diffie_hellman_shared(a, bad)


_SIGN_OPS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "hand"]),
        st.sampled_from([b"m0", b"m1"]),
        st.one_of(
            st.sampled_from(
                ["sign", "verify", "tampered", "forged s", "s + q", "other signer"]
            ),
            st.tuples(
                st.integers(min_value=1, max_value=GROUP_PRIME - 1),
                st.integers(min_value=0, max_value=GROUP_ORDER - 1),
            ),
        ),
    ),
    min_size=1,
    max_size=6,
)


class TestKnownCommitments:
    """``verify`` reads a minted commitment's log instead of a power."""

    @given(ops=_SIGN_OPS)
    @example(ops=[("a", b"m0", "verify"), ("a", b"m0", "verify")])
    @example(ops=[("a", b"m0", "tampered"), ("a", b"m0", "forged s"),
                  ("a", b"m0", "s + q"), ("a", b"m0", "verify")])
    @example(ops=[("b", b"m1", "sign"), ("a", b"m1", "other signer"),
                  ("hand", b"m1", "verify")])
    @settings(max_examples=30, deadline=None)
    def test_every_verdict_is_the_two_power_check(self, ops):
        parties = _fresh_parties()
        signatures: dict[tuple[str, bytes], tuple[int, int]] = {}
        for signer, message, op in ops:
            pair = parties[signer]
            if op == "sign" or (signer, message) not in signatures:
                signatures[signer, message] = sign(pair, message)
            commitment, response = signatures[signer, message]
            if op in ("sign", "verify"):
                checked = (message, (commitment, response))
            elif op == "tampered":
                checked = (message + b"!", (commitment, response))
            elif op == "forged s":
                checked = (message, (commitment, (response + 1) % GROUP_ORDER))
            elif op == "s + q":
                checked = (message, (commitment, response + GROUP_ORDER))
            elif op == "other signer":
                other = parties["b" if signer == "a" else "a"]
                checked = (message, sign(other, message))
            else:
                checked = (message, op)
            recorded = checked[1][0] in vars(pair).get("_nonces", {})
            with pytest.MonkeyPatch.context() as patch:
                spent = _count_powers(patch)
                verdict = verify(pair.public, *checked)
            assert verdict == _cached_reference_verify(pair.public, *checked)
            if op in ("sign", "verify"):
                assert verdict
            elif op in ("tampered", "forged s", "s + q", "other signer"):
                assert not verdict
            if recorded:
                assert spent == []
            _assert_maps_hold_true_values(parties)

    def test_honest_verify_consumes_the_entry(self):
        a = _fresh_parties()["a"]
        signature = sign(a, b"m")
        with pytest.MonkeyPatch.context() as patch:
            spent = _count_powers(patch)
            assert verify(a.public, b"m", signature)
            assert spent == []
            assert signature[0] not in a._nonces
            # verified again after its entry was consumed: one power
            assert verify(a.public, b"m", signature)
        assert spent == ["table"]

    def test_a_failed_verify_keeps_the_entry(self):
        a = _fresh_parties()["a"]
        commitment, response = sign(a, b"m")
        with pytest.MonkeyPatch.context() as patch:
            spent = _count_powers(patch)
            assert not verify(a.public, b"m!", (commitment, response))
            assert not verify(a.public, b"m", (commitment, (response + 1) % GROUP_ORDER))
            assert not verify(a.public, b"m", (commitment, response + GROUP_ORDER))
            assert a._nonces == {commitment: a._nonces[commitment]}
            assert verify(a.public, b"m", (commitment, response))
        assert spent == []

    def test_hand_built_signers_record_nothing(self):
        parties = _fresh_parties()
        a = parties["a"]
        sign(a, b"mine")
        recorded = dict(a._nonces)
        for name in ("hand", "impostor"):
            signature = sign(parties[name], b"m")
            with pytest.MonkeyPatch.context() as patch:
                spent = _count_powers(patch)
                assert verify(parties[name].public, b"m", signature) == (name == "hand")
            assert spent  # computed, not looked up
        assert a._nonces == recorded
        _assert_maps_hold_true_values(parties)
