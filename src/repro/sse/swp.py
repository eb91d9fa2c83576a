"""Song-Wagner-Perrig sequential-scan searchable encryption [6].

The first searchable-encryption scheme (S&P 2000), cited by the paper
as the starting point of the lineage: every word of every file is
encrypted under a two-layer construction that lets the server test, at
every word position, whether that position holds the queried word.
Search cost is therefore **linear in the total length of the
collection** — the complexity the later per-file [7, 9] and
per-keyword [10] indexes improved on, measured side by side in
``benchmarks/bench_sse_lineage.py``.

Construction (the basic scheme of [6], word-wise):

* each word is canonicalized to a fixed ``2w``-byte block ``W``;
* pre-encryption: ``X = E_kw(W)``, split into halves ``(L, R)``;
* a pseudo-random stream block ``S_i`` is drawn per position ``i``;
* the per-position key is ``K_i = f_kp(L)`` (word-dependent, so a
  trapdoor unlocks exactly that word's positions);
* ciphertext: ``C_i = X xor (S_i || F_{K_i}(S_i))``.

To search for ``W`` the user reveals ``(X, f_kp(L))``; the server
computes ``C_i xor X = (s, t)`` at every position and checks
``t == F_k(s)`` — a match identifies position ``i`` without revealing
the word.  False positives occur with probability ``2^-8w`` (the check
width); with the 8-byte halves used here they are negligible.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto.symmetric import xor_bytes
from repro.errors import CryptoError, ParameterError

#: Half-block width ``w`` in bytes (block = 2w).
HALF_BYTES = 8
BLOCK_BYTES = 2 * HALF_BYTES


def _canonical_block(word: str) -> bytes:
    """Map a word to a fixed-size block (hash-compress long words)."""
    raw = word.encode("utf-8")
    if len(raw) <= BLOCK_BYTES:
        return raw.ljust(BLOCK_BYTES, b"\x00")
    return hashlib.sha256(raw).digest()[:BLOCK_BYTES]


def _prf(key: bytes, data: bytes, length: int = HALF_BYTES) -> bytes:
    return hmac.new(key, data, hashlib.sha256).digest()[:length]


@dataclass(frozen=True)
class SwpTrapdoor:
    """The search capability for one word: ``(X, k = f_kp(L))``."""

    pre_encrypted: bytes
    position_key: bytes


class SwpScheme:
    """The SWP word-wise searchable encryption over a document stream.

    Parameters
    ----------
    key:
        Master key; the word-encryption key ``kw``, position-key PRF
        key ``kp`` and stream seed are derived from it.
    """

    def __init__(self, key: bytes):
        if not key:
            raise ParameterError("SWP key must be non-empty")
        key = bytes(key)
        self._word_key = _prf(key, b"swp|word", 32)
        self._position_prf_key = _prf(key, b"swp|positions", 32)
        self._stream_seed = _prf(key, b"swp|stream", 32)

    # -- encryption ---------------------------------------------------

    _FEISTEL_ROUNDS = 4

    def _feistel_block(self, block: bytes, inverse: bool) -> bytes:
        """Invertible deterministic block cipher ``E_kw`` (Feistel)."""
        left, right = block[:HALF_BYTES], block[HALF_BYTES:]
        rounds = range(self._FEISTEL_ROUNDS)
        if inverse:
            for round_index in reversed(rounds):
                key = _prf(self._word_key, b"round|%d" % round_index, 32)
                left, right = xor_bytes(right, _prf(key, left)), left
        else:
            for round_index in rounds:
                key = _prf(self._word_key, b"round|%d" % round_index, 32)
                left, right = right, xor_bytes(left, _prf(key, right))
        return left + right

    def _pre_encrypt(self, word: str) -> bytes:
        return self._feistel_block(_canonical_block(word), inverse=False)

    def _stream_block(self, doc_id: str, position: int) -> bytes:
        return _prf(
            self._stream_seed,
            doc_id.encode("utf-8") + b"|" + position.to_bytes(8, "big"),
            HALF_BYTES,
        )

    def encrypt_document(self, doc_id: str, words: list[str]) -> list[bytes]:
        """Encrypt a document's word sequence position by position."""
        if not doc_id:
            raise ParameterError("doc_id must be non-empty")
        ciphertexts = []
        for position, word in enumerate(words):
            pre = self._pre_encrypt(word)
            left = pre[:HALF_BYTES]
            position_key = _prf(self._position_prf_key, left, 32)
            stream = self._stream_block(doc_id, position)
            check = _prf(position_key, stream, HALF_BYTES)
            ciphertexts.append(xor_bytes(pre, stream + check))
        return ciphertexts

    def decrypt_document(
        self, doc_id: str, ciphertexts: list[bytes]
    ) -> list[bytes]:
        """Recover the canonical word blocks of a document.

        Decryption walks the same derivation the encryptor used: the
        stream block gives the pre-encrypted left half, the left half
        gives the position key, the position key gives the check mask,
        and the Feistel inverse gives back the word block.
        """
        blocks = []
        for position, ciphertext in enumerate(ciphertexts):
            if len(ciphertext) != BLOCK_BYTES:
                raise CryptoError("malformed SWP ciphertext block")
            stream = self._stream_block(doc_id, position)
            pre_left = xor_bytes(ciphertext[:HALF_BYTES], stream)
            position_key = _prf(self._position_prf_key, pre_left, 32)
            check_mask = _prf(position_key, stream, HALF_BYTES)
            pre_right = xor_bytes(ciphertext[HALF_BYTES:], check_mask)
            blocks.append(
                self._feistel_block(pre_left + pre_right, inverse=True)
            )
        return blocks

    # -- search ---------------------------------------------------------

    def trapdoor(self, word: str) -> SwpTrapdoor:
        """Build the search capability for ``word``."""
        if not word:
            raise ParameterError("word must be non-empty")
        pre = self._pre_encrypt(word)
        return SwpTrapdoor(
            pre_encrypted=pre,
            position_key=_prf(self._position_prf_key, pre[:HALF_BYTES], 32),
        )

    @staticmethod
    def positions_matching(
        trapdoor: SwpTrapdoor, ciphertexts: list[bytes]
    ) -> list[int]:
        """Server-side scan: every position whose check verifies.

        This is the linear scan: one PRF evaluation per word position
        of the collection.
        """
        matches = []
        for position, ciphertext in enumerate(ciphertexts):
            masked = xor_bytes(ciphertext, trapdoor.pre_encrypted)
            stream, check = masked[:HALF_BYTES], masked[HALF_BYTES:]
            if _prf(trapdoor.position_key, stream, HALF_BYTES) == check:
                matches.append(position)
        return matches


class SwpCollection:
    """A collection of SWP-encrypted documents with linear-scan search."""

    def __init__(self, scheme: SwpScheme):
        self._scheme = scheme
        self._documents: dict[str, list[bytes]] = {}

    def add_document(self, doc_id: str, words: list[str]) -> None:
        """Encrypt and store one document."""
        if doc_id in self._documents:
            raise ParameterError(f"document {doc_id!r} already stored")
        self._documents[doc_id] = self._scheme.encrypt_document(doc_id, words)

    @property
    def total_word_positions(self) -> int:
        """The scan length a search must cover."""
        return sum(len(blocks) for blocks in self._documents.values())

    def search(self, trapdoor: SwpTrapdoor) -> dict[str, list[int]]:
        """Scan every document; return matching positions per document."""
        results = {}
        for doc_id, ciphertexts in self._documents.items():
            positions = SwpScheme.positions_matching(trapdoor, ciphertexts)
            if positions:
                results[doc_id] = positions
        return results
