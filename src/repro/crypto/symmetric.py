"""Semantically secure symmetric encryption (the paper's ``E``).

The basic scheme (Section III-C) encrypts each relevance score with a
semantically secure cipher ``E : {0,1}^l x {0,1}^r -> {0,1}^r``, and
both schemes encrypt the outsourced files themselves.  This module
provides an authenticated, randomized cipher built entirely from
standard-library primitives (HMAC-SHA256), so the core package needs no
third-party dependency:

* sub-keys: ``enc``, ``mac`` and ``siv`` keys are ``HMAC(key, label)``
  for distinct labels (domain separation);
* keystream: ``HMAC(enc_key, nonce || counter)`` blocks (CTR mode over
  a PRF — IND$-CPA under the PRF assumption), XORed into the plaintext
  as one big integer;
* integrity: encrypt-then-MAC, ``HMAC(mac_key, nonce || body)``
  truncated to 16 bytes;
* a fresh random nonce per encryption makes the scheme randomized, so
  equal plaintexts yield unlinkable ciphertexts (the property whose
  *absence* in OPSE motivates the paper's one-to-many mapping).

Each sub-key is keyed once, at construction, as a
:class:`~repro.crypto.prekeyed.PrekeyedHmac`; a keystream block, MAC or
SIV nonce then costs two SHA-256 state copies and finishes instead of a
fresh HMAC keying.

Fixed-width integer helpers are provided for score encryption, since
posting-list entries must be equal-sized for the padding in Fig. 3 to
hide which entries are real.
"""

from __future__ import annotations

import hmac
import os
from functools import cached_property

from repro.crypto.prekeyed import PrekeyedHmac
from repro.errors import CryptoError, IntegrityError, ParameterError

_BLOCK_BYTES = 32
_NONCE_BYTES = 16
_TAG_BYTES = 16


def _keystream(mac: PrekeyedHmac, nonce: bytes, length: int) -> bytes:
    digest = mac.digest
    blocks = [
        digest(nonce + counter.to_bytes(8, "big"))
        for counter in range(-(-length // _BLOCK_BYTES))
    ]
    return b"".join(blocks)[:length]


def xor_bytes(data: bytes, mask: bytes) -> bytes:
    """``data XOR mask`` over their first ``min(len(data), len(mask))`` bytes.

    One big-integer XOR instead of a per-byte loop; the truncation to
    the shorter operand is the same as ``zip``'s.
    """
    length = min(len(data), len(mask))
    mixed = int.from_bytes(data[:length], "big") ^ int.from_bytes(
        mask[:length], "big"
    )
    return mixed.to_bytes(length, "big")


class SymmetricCipher:
    """Randomized authenticated encryption keyed by a single master key.

    Ciphertext layout: ``nonce (16) || body (len(plaintext)) || tag (16)``.
    Overhead is a constant :data:`overhead_bytes` bytes, so plaintexts
    of equal length produce ciphertexts of equal length — required for
    the index padding argument.

    Parameters
    ----------
    key:
        Master key (the paper's ``z`` for score encryption, or a
        per-purpose derived key).  Encryption and MAC sub-keys are
        derived from it with domain separation.
    """

    #: Constant ciphertext expansion in bytes.
    overhead_bytes = _NONCE_BYTES + _TAG_BYTES

    def __init__(self, key: bytes):
        if not key:
            raise ParameterError("cipher key must be non-empty")
        self._master = PrekeyedHmac(key)
        self._enc = PrekeyedHmac(self._master.digest(b"cipher|enc"))
        self._mac = PrekeyedHmac(self._master.digest(b"cipher|mac"))

    @cached_property
    def _siv(self) -> PrekeyedHmac:
        # Keyed on first use: decrypt-only ciphers (one per posting list
        # a search decrypts) never pay for it.
        return PrekeyedHmac(self._master.digest(b"cipher|siv"))

    def encrypt(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        """Encrypt and authenticate ``plaintext``.

        A random nonce is drawn unless one is supplied (supplying nonces
        is for deterministic tests only; reusing a nonce forfeits
        semantic security, exactly like any stream cipher).
        """
        if nonce is None:
            nonce = os.urandom(_NONCE_BYTES)
        elif len(nonce) != _NONCE_BYTES:
            raise ParameterError(
                f"nonce must be {_NONCE_BYTES} bytes, got {len(nonce)}"
            )
        plaintext = bytes(plaintext)
        body = xor_bytes(plaintext, _keystream(self._enc, nonce, len(plaintext)))
        tag = self._mac.digest(nonce + body)[:_TAG_BYTES]
        return nonce + body + tag

    def deterministic_nonce(self, plaintext: bytes) -> bytes:
        """The SIV nonce for ``plaintext``: ``HMAC(siv_key, plaintext)``.

        A PRF of the plaintext under an independently derived sub-key:
        distinct plaintexts can never collide on a nonce (up to PRF
        security), and equal plaintexts map to equal nonces — the
        misuse-resistant "synthetic IV" construction.
        """
        return self._siv.digest(bytes(plaintext))[:_NONCE_BYTES]

    def encrypt_deterministic(self, plaintext: bytes) -> bytes:
        """SIV-mode encryption: same key + plaintext ⇒ same ciphertext.

        Trades the unlinkability of randomized encryption for
        reproducibility: re-encrypting an unchanged plaintext yields the
        identical ciphertext, which is what makes index builds
        byte-reproducible (and parallel builds verifiable against
        sequential ones).  Distinct plaintexts still get distinct,
        pseudorandom nonces, so keystream reuse cannot occur.
        """
        return self.encrypt(plaintext, nonce=self.deterministic_nonce(plaintext))

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Verify and decrypt; raises :class:`IntegrityError` on tampering."""
        ciphertext = bytes(ciphertext)
        if len(ciphertext) < self.overhead_bytes:
            raise CryptoError(
                f"ciphertext too short: {len(ciphertext)} < {self.overhead_bytes}"
            )
        nonce = ciphertext[:_NONCE_BYTES]
        tag = ciphertext[-_TAG_BYTES:]
        body = ciphertext[_NONCE_BYTES:-_TAG_BYTES]
        expected = self._mac.digest(nonce + body)[:_TAG_BYTES]
        if not hmac.compare_digest(tag, expected):
            raise IntegrityError("ciphertext authentication failed")
        return xor_bytes(body, _keystream(self._enc, nonce, len(body)))

    # -- fixed-width integer convenience (score encryption) ------------

    #: Width used for encoding scores/levels as plaintext integers.
    int_width_bytes = 8

    def encrypt_int(self, value: int, nonce: bytes | None = None) -> bytes:
        """Encrypt a non-negative integer at fixed 8-byte width."""
        if value < 0 or value >= 1 << (8 * self.int_width_bytes):
            raise ParameterError(f"integer out of encodable range: {value}")
        return self.encrypt(value.to_bytes(self.int_width_bytes, "big"), nonce)

    def decrypt_int(self, ciphertext: bytes) -> int:
        """Decrypt an integer produced by :meth:`encrypt_int`."""
        plaintext = self.decrypt(ciphertext)
        if len(plaintext) != self.int_width_bytes:
            raise CryptoError(
                f"expected {self.int_width_bytes}-byte integer plaintext, "
                f"got {len(plaintext)} bytes"
            )
        return int.from_bytes(plaintext, "big")

    def ciphertext_length(self, plaintext_length: int) -> int:
        """Ciphertext length for a plaintext of ``plaintext_length`` bytes."""
        if plaintext_length < 0:
            raise ParameterError("plaintext length must be non-negative")
        return plaintext_length + self.overhead_bytes


def random_bytes_like_ciphertext(length: int) -> bytes:
    """Uniform random bytes used as dummy index entries (Fig. 3, step 3).

    Dummy entries must be indistinguishable from real encrypted entries
    of the same size; since real ciphertext bytes are pseudo-random,
    uniformly random bytes of equal length suffice.
    """
    if length < 0:
        raise ParameterError("length must be non-negative")
    return os.urandom(length)
