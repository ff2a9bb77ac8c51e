"""Probabilistic, authenticated encryption simulation."""

import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InputError, StoreIntegrityError
from repro.memory.encryption import (
    NONCE_BYTES,
    TAG_BYTES,
    IntCodec,
    ProbabilisticEncryptor,
)


def test_roundtrip():
    enc = ProbabilisticEncryptor(key=b"k" * 32)
    ct = enc.encrypt(b"hello world")
    assert enc.decrypt(ct) == b"hello world"


def test_fresh_nonce_per_encryption():
    enc = ProbabilisticEncryptor(key=b"k" * 32)
    c1 = enc.encrypt(b"same")
    c2 = enc.encrypt(b"same")
    assert c1.nonce != c2.nonce
    assert c1.payload != c2.payload
    assert c1.tag != c2.tag
    assert len(c1.nonce) == NONCE_BYTES and len(c1.tag) == TAG_BYTES


def test_decryption_needs_matching_key():
    a = ProbabilisticEncryptor(key=b"a" * 32)
    b = ProbabilisticEncryptor(key=b"b" * 32)
    ct = a.encrypt(b"secret!")
    # A wrong key is a typed error, never silently different bytes.
    with pytest.raises(StoreIntegrityError):
        b.decrypt(ct)


def test_empty_key_rejected():
    with pytest.raises(InputError):
        ProbabilisticEncryptor(key=b"")


def test_deterministic_nonce_source_supported():
    enc = ProbabilisticEncryptor(key=b"k", nonce_source=lambda: b"\x00" * 16)
    c1 = enc.encrypt(b"x")
    c2 = enc.encrypt(b"x")
    assert c1 == c2  # determinism is the injected source's choice


def test_injected_nonces_give_byte_deterministic_ciphertexts():
    def counting():
        counter = itertools.count()
        return lambda: next(counter).to_bytes(NONCE_BYTES, "little")

    first = ProbabilisticEncryptor(key=b"k" * 32, nonce_source=counting())
    second = ProbabilisticEncryptor(key=b"k" * 32, nonce_source=counting())
    blocks = [b"", b"x", bytes(range(256)) * 16]
    assert [first.encrypt(b, aad=b"a") for b in blocks] == [
        second.encrypt(b, aad=b"a") for b in blocks
    ]


@pytest.mark.parametrize("length", [0, 1, 9, 31, 32, 33, 4095, 4096, 4097])
def test_roundtrip_at_boundary_lengths(length):
    # A fixed nonce: under this key the keystream's first byte is 0x47, so
    # every non-empty ciphertext differs from its plaintext for certain.
    enc = ProbabilisticEncryptor(key=b"k" * 32, nonce_source=lambda: bytes(16))
    plaintext = bytes(i % 251 for i in range(length))
    ct = enc.encrypt(plaintext, aad=b"slot")
    assert len(ct) == length
    assert enc.decrypt(ct, aad=b"slot") == plaintext
    if length:
        assert ct.payload != plaintext


def test_ciphertext_bytes_are_pinned_under_a_fixed_nonce():
    """The mask is shake_256(key || nonce) XORed bytewise: these bytes are the
    big-int XOR's, so a change to how the XOR runs cannot change a slot."""
    enc = ProbabilisticEncryptor(key=b"k" * 32, nonce_source=lambda: bytes(16))
    digest = hashlib.sha256()
    for n in (0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 4096, 4097):
        plaintext = bytes((i * 37 + n) % 256 for i in range(n))
        ct = enc.encrypt(plaintext, aad=b"a")
        digest.update(ct.payload + ct.tag)
        assert enc.decrypt(ct, aad=b"a") == plaintext
    assert digest.hexdigest() == (
        "d815a12ad938215dde0c6589cff0c86997f1afea585d7c8cf33427009d181ecf"
    )
    assert enc.encrypt(b"\x00").payload == b"\x47"


def test_decrypt_with_different_aad_raises():
    enc = ProbabilisticEncryptor(key=b"k" * 32)
    ct = enc.encrypt(b"cell", aad=b"column/0")
    assert enc.decrypt(ct, aad=b"column/0") == b"cell"
    for aad in (b"column/1", b"", b"column/0\x00"):
        with pytest.raises(StoreIntegrityError):
            enc.decrypt(ct, aad=aad)
    # The aad / nonce boundary is authenticated: the same byte string split
    # one byte earlier is a different message.
    shifted = dataclasses.replace(
        ct, nonce=b"0" + ct.nonce[:-1], payload=ct.nonce[-1:] + ct.payload
    )
    with pytest.raises(StoreIntegrityError):
        enc.decrypt(shifted, aad=b"column/")


@pytest.mark.parametrize("field", ["nonce", "payload", "tag"])
def test_any_flipped_bit_is_rejected(field):
    enc = ProbabilisticEncryptor(key=b"k" * 32)
    ct = enc.encrypt(b"sixteen byte msg")
    for bit in range(8 * len(getattr(ct, field))):
        raw = bytearray(getattr(ct, field))
        raw[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(StoreIntegrityError):
            enc.decrypt(dataclasses.replace(ct, **{field: bytes(raw)}))


@given(st.binary(max_size=200))
def test_roundtrip_arbitrary_payloads(payload):
    enc = ProbabilisticEncryptor(key=b"prop" * 8)
    assert enc.decrypt(enc.encrypt(payload)) == payload


@given(st.binary(min_size=1, max_size=80), st.binary(max_size=600), st.binary(max_size=40))
def test_roundtrip_arbitrary_keys_payloads_and_aad(key, payload, aad):
    enc = ProbabilisticEncryptor(key=key)
    assert enc.decrypt(enc.encrypt(payload, aad), aad) == payload


def test_ciphertext_length_matches_plaintext():
    enc = ProbabilisticEncryptor(key=b"k")
    assert len(enc.encrypt(b"12345")) == 5


@given(st.one_of(st.none(), st.integers(min_value=-(2**63), max_value=2**63 - 1)))
def test_int_codec_roundtrip(value):
    codec = IntCodec()
    assert codec.decode(codec.encode(value)) == value


def test_int_codec_fixed_width():
    codec = IntCodec()
    assert len(codec.encode(0)) == len(codec.encode(2**62)) == IntCodec.WIDTH
