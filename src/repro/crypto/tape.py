"""Deterministic random-coin generation (the paper's ``TapeGen``).

The OPSE/OPM constructions consume "random coins" that must be
*reproducible*: encrypting the same plaintext under the same key must
walk the identical sequence of hypergeometric draws, otherwise the
order-preserving property (and decryptability) breaks.  Boldyreva et
al. formalize this as ``TapeGen(K, context)``: a PRF-keyed generator of
an arbitrarily long pseudo-random tape bound to an encoding of the
current recursion state.

:class:`CoinStream` implements that tape as an HMAC-SHA256 counter-mode
stream: block ``i`` is ``HMAC(K, "tapegen|" || context || i)``.  On top
of raw bits it offers the exact utilities the samplers need:

* :meth:`bits` / :meth:`bytes` — raw tape material;
* :meth:`uniform_int` — an unbiased integer in ``[0, bound)`` via
  rejection sampling (this is the ``c <- R`` step of Algorithm 1);
* :meth:`uniform_float` — a 53-bit uniform in ``[0, 1)`` used to invert
  the hypergeometric CDF (our deterministic stand-in for MATLAB's
  ``hygeinv`` consuming a coin).

:class:`KeyedTape` holds one tape key, keyed once as a
:class:`~repro.crypto.prekeyed.PrekeyedHmac` with the ``"tapegen|"``
label already absorbed.  It serves streams — or single in-bucket
choices — for any number of contexts, so a block costs two SHA-256
state copies and finishes, never a fresh HMAC keying.  An OPM or OPSE
instance owns one ``KeyedTape`` and passes it to every split draw and
in-bucket choice it makes.  Its output is byte-identical to the
equivalent ``CoinStream(key, context)`` calls.
"""

from __future__ import annotations

from typing import Iterable

from repro.crypto.prekeyed import PrekeyedHmac
from repro.errors import ParameterError

_BLOCK_BYTES = 32
_BLOCK_BITS = 8 * _BLOCK_BYTES
_LABEL = b"tapegen|"


def encode_context(parts: Iterable[bytes | str | int]) -> bytes:
    """Canonically encode a tuple of context parts into tape input.

    Each part is tagged with its type and length-prefixed so that no two
    distinct tuples encode to the same byte string (the injectivity the
    security proof of OPSE requires from the tape input encoding).

    Integers may be arbitrarily large (range endpoints up to ``2**46``
    and beyond appear in the paper's parameterization); they are encoded
    in signed big-endian form with an 8-byte length prefix.
    """
    pieces = []
    for part in parts:
        if isinstance(part, bool):
            # bool is an int subclass; keep the tag distinct anyway.
            raw = b"\x01" if part else b"\x00"
            pieces.append(b"B" + len(raw).to_bytes(8, "big") + raw)
        elif isinstance(part, int):
            width = max(1, (part.bit_length() + 8) // 8)
            raw = part.to_bytes(width, "big", signed=True)
            pieces.append(b"I" + len(raw).to_bytes(8, "big") + raw)
        elif isinstance(part, str):
            raw = part.encode("utf-8")
            pieces.append(b"S" + len(raw).to_bytes(8, "big") + raw)
        elif isinstance(part, (bytes, bytearray, memoryview)):
            pieces.append(encode_bytes(bytes(part)))
        else:
            raise ParameterError(
                f"unsupported context part type: {type(part).__name__}"
            )
    return b"".join(pieces)


def encode_bytes(raw: bytes) -> bytes:
    """``encode_context((raw,))`` for a single bytes part.

    Skips the per-part type dispatch; the OPM appends this to a cached
    context prefix once per mapped entry.
    """
    return b"Y" + len(raw).to_bytes(8, "big") + raw


class CoinStream:
    """An endless deterministic pseudo-random tape bound to a context.

    Two :class:`CoinStream` objects built from the same ``(key,
    context)`` pair yield byte-identical output; different contexts give
    computationally independent tapes.

    Parameters
    ----------
    key:
        Secret tape key.
    context:
        Tuple of parts identifying the recursion state, encoded via
        :func:`encode_context`.  In Algorithm 1 this is
        ``(D, R, 0 || y)`` during the binary search and
        ``(D, R, 1 || m, id(F))`` for the final ciphertext choice.
    """

    def __init__(self, key: bytes, context: Iterable[bytes | str | int]):
        if not key:
            raise ParameterError("tape key must be non-empty")
        self._mac = PrekeyedHmac(key, _LABEL)
        self._seed = encode_context(context)
        self._counter = 0
        self._buffer = b""
        self._bit_buffer = 0
        self._bit_count = 0
        self._stats = None

    @classmethod
    def _from_prekeyed(cls, mac: PrekeyedHmac, seed: bytes, stats=None):
        """Build a stream around an already-keyed HMAC (see KeyedTape).

        The prekeyed ``mac`` is shared, never mutated, so the emitted
        tape is byte-identical to ``CoinStream(key, context)``.
        """
        self = cls.__new__(cls)
        self._mac = mac
        self._seed = seed
        self._counter = 0
        self._buffer = b""
        self._bit_buffer = 0
        self._bit_count = 0
        self._stats = stats
        return self

    def _next_block(self) -> bytes:
        block = self._mac.digest(self._seed + self._counter.to_bytes(8, "big"))
        self._counter += 1
        if self._stats is not None:
            self._stats.tape_blocks += 1
        return block

    def bytes(self, length: int) -> bytes:
        """Return the next ``length`` tape bytes."""
        if length < 0:
            raise ParameterError(f"length must be non-negative, got {length}")
        while len(self._buffer) < length:
            self._buffer += self._next_block()
        out, self._buffer = self._buffer[:length], self._buffer[length:]
        return out

    def bits(self, count: int) -> int:
        """Return the next ``count`` tape bits as an integer in ``[0, 2**count)``."""
        if count < 0:
            raise ParameterError(f"bit count must be non-negative, got {count}")
        while self._bit_count < count:
            block = self.bytes(_BLOCK_BYTES)
            self._bit_buffer = (self._bit_buffer << (8 * len(block))) | int.from_bytes(
                block, "big"
            )
            self._bit_count += 8 * len(block)
        shift = self._bit_count - count
        value = self._bit_buffer >> shift
        self._bit_buffer &= (1 << shift) - 1
        self._bit_count = shift
        return value

    def uniform_int(self, bound: int) -> int:
        """Return an unbiased uniform integer in ``[0, bound)``.

        Uses rejection sampling on ``ceil(log2(bound))``-bit draws, so
        the output distribution is exactly uniform regardless of whether
        ``bound`` is a power of two.  Terminates with probability one;
        the expected number of draws is below 2.
        """
        if bound <= 0:
            raise ParameterError(f"bound must be positive, got {bound}")
        if bound == 1:
            return 0
        width = (bound - 1).bit_length()
        while True:
            candidate = self.bits(width)
            if candidate < bound:
                return candidate

    def uniform_float(self) -> float:
        """Return a uniform float in ``[0, 1)`` with 53 bits of precision."""
        return self.bits(53) / float(1 << 53)

    def choice(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive interval ``[low, high]``."""
        if high < low:
            raise ParameterError(f"empty interval [{low}, {high}]")
        return low + self.uniform_int(high - low + 1)


class KeyedTape:
    """A reusable, pre-keyed ``TapeGen`` for one tape key.

    The key is fixed per posting list (OPM) or per OPSE instance; only
    the context changes from one stream to the next.  ``KeyedTape``
    keys the HMAC once and hands out streams (or single in-bucket
    choices) that share the keyed state.

    Everything produced here is byte-identical to the equivalent
    ``CoinStream(key, context)`` calls — the keyed state does not
    depend on how many streams share it.  The test suite pins this
    equivalence.
    """

    def __init__(self, key: bytes):
        if not key:
            raise ParameterError("tape key must be non-empty")
        self._mac = PrekeyedHmac(key, _LABEL)

    def stream(
        self, context: Iterable[bytes | str | int], stats=None
    ) -> CoinStream:
        """A :class:`CoinStream` bound to ``context`` (shared keying)."""
        return CoinStream._from_prekeyed(
            self._mac, encode_context(context), stats
        )

    def stream_from_seed(self, seed: bytes, stats=None) -> CoinStream:
        """A stream from an already-encoded context (see
        :func:`encode_context`); lets callers pre-encode the static
        prefix of a context family once and append only the varying
        suffix per call."""
        return CoinStream._from_prekeyed(self._mac, bytes(seed), stats)

    def choice(self, seed: bytes, low: int, high: int, stats=None) -> int:
        """Uniform integer in ``[low, high]`` from the tape at ``seed``.

        Inlined equivalent of ``self.stream_from_seed(seed).choice(low,
        high)`` without building a stream object: one HMAC block is
        generated (more only on rejection-sampling retries, probability
        < 1/2 per round) and bits are consumed exactly as
        :meth:`CoinStream.bits` consumes them, so the returned value is
        byte-identical to the ``CoinStream`` path.
        """
        if high < low:
            raise ParameterError(f"empty interval [{low}, {high}]")
        size = high - low + 1
        if size == 1:
            return low
        width = (size - 1).bit_length()
        digest = self._mac.digest
        bit_buffer = 0
        bit_count = 0
        counter = 0
        while True:
            while bit_count < width:
                block = digest(seed + counter.to_bytes(8, "big"))
                counter += 1
                bit_buffer = (bit_buffer << _BLOCK_BITS) | int.from_bytes(
                    block, "big"
                )
                bit_count += _BLOCK_BITS
            shift = bit_count - width
            candidate = bit_buffer >> shift
            bit_buffer &= (1 << shift) - 1
            bit_count = shift
            if candidate < size:
                if stats is not None:
                    stats.tape_blocks += counter
                    stats.choices += 1
                return low + candidate


def tape_gen(key: bytes, context: Iterable[bytes | str | int]) -> CoinStream:
    """The paper's ``TapeGen(K, context)``: build the coin stream."""
    return CoinStream(key, context)
