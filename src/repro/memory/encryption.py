"""Probabilistic, authenticated encryption of public-memory cells.

§3.1 of the paper assumes the adversary "cannot infer anything about the
individual contents of individual cells of public memory, as well as whether
the contents of a cell match a previous value", achieved with a probabilistic
encryption scheme.  This module simulates such a scheme so the repository can
*demonstrate* the assumption rather than merely state it: every write
produces a fresh ciphertext (fresh nonce), so identical plaintexts written
twice are indistinguishable at rest, and every ciphertext carries a tag over
``associated data || nonce || payload``, so a cell that was altered, moved
to another address or written under another key raises
:class:`~repro.errors.StoreIntegrityError` instead of decrypting to garbage.

Encrypt-then-MAC from the standard library and numpy: the keystream is one
``shake_256(key || nonce)`` squeeze XORed bytewise in numpy, the tag is
keyed BLAKE2b-128.  Deliberately free of crypto libraries — the point is
behavioural fidelity (fresh randomisation per write, round-trip, tamper
evidence) at memory speed, not cryptographic review.  Replay of an older ciphertext
under the same associated data is *not* detected (``docs/leakage.md``).
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass

import numpy as np

from ..errors import InputError, StoreIntegrityError

NONCE_BYTES = 16
TAG_BYTES = 16


@dataclass(frozen=True)
class Ciphertext:
    """An encrypted cell value: public nonce, tag, and masked payload."""

    nonce: bytes
    tag: bytes
    payload: bytes

    def __len__(self) -> int:
        return len(self.payload)


class ProbabilisticEncryptor:
    """Encrypts and authenticates byte strings with a fresh nonce per call.

    Parameters
    ----------
    key:
        Secret key; generated randomly when omitted.
    nonce_source:
        Callable returning 16 fresh bytes; defaults to ``os.urandom``.
        Tests may inject a deterministic source.
    """

    def __init__(self, key: bytes | None = None, nonce_source=None) -> None:
        self.key = key if key is not None else os.urandom(32)
        if not self.key:
            raise InputError("encryption key must be non-empty")
        self._nonce_source = nonce_source or (lambda: os.urandom(NONCE_BYTES))
        # A MAC key separated from the keystream key, hashed to BLAKE2b's
        # 64-byte limit; each tag starts from a copy of this keyed state.
        self._mac = hashlib.blake2b(
            key=hashlib.blake2b(self.key, person=b"repro-tag").digest(),
            digest_size=TAG_BYTES,
        )

    def _mask(self, nonce: bytes, data: bytes) -> bytes:
        stream = hashlib.shake_256(self.key + nonce).digest(len(data))
        return (np.frombuffer(data, np.uint8) ^ np.frombuffer(stream, np.uint8)).tobytes()

    def _tag(self, aad: bytes, nonce: bytes, payload: bytes) -> bytes:
        mac = self._mac.copy()
        # The length prefix keeps (aad, nonce || payload) unambiguous.
        mac.update(len(aad).to_bytes(4, "little") + aad + nonce + payload)
        return mac.digest()

    def encrypt(self, plaintext: bytes, aad: bytes = b"") -> Ciphertext:
        """Mask ``plaintext`` under a fresh nonce and bind it to ``aad``."""
        nonce = self._nonce_source()
        payload = self._mask(nonce, plaintext)
        return Ciphertext(nonce, self._tag(aad, nonce, payload), payload)

    def decrypt(self, ciphertext: Ciphertext, aad: bytes = b"") -> bytes:
        """Verify the tag under ``aad``, then unmask; raises on mismatch."""
        expected = self._tag(aad, ciphertext.nonce, ciphertext.payload)
        if not hmac.compare_digest(expected, ciphertext.tag):
            raise StoreIntegrityError(
                "ciphertext failed authentication: altered, moved to "
                "another address, or written under a different key"
            )
        return self._mask(ciphertext.nonce, ciphertext.payload)


class Codec:
    """Object <-> bytes codec used by encrypted :class:`PublicArray` cells."""

    def encode(self, value) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes):
        raise NotImplementedError


class IntCodec(Codec):
    """Fixed-width signed 64-bit integer codec (``None`` encodes separately)."""

    WIDTH = 9

    def encode(self, value) -> bytes:
        if value is None:
            return b"\x00" + b"\x00" * 8
        return b"\x01" + int(value).to_bytes(8, "little", signed=True)

    def decode(self, data: bytes):
        if data[0] == 0:
            return None
        return int.from_bytes(data[1:9], "little", signed=True)
