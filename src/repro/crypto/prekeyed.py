"""HMAC-SHA256 under one fixed key, keyed once.

Every hot path of the scheme evaluates HMAC-SHA256 many times under
the same key: the cipher's keystream blocks, MAC and SIV nonce, and the
OPM/OPSE coin tape (one block per mapped entry, one stream per split
draw).  ``hmac.new`` re-keys on every call — it pads the key and hashes
the ipad and opad blocks before it touches the message.

RFC 2104 defines ``HMAC(K, m) = H((K' ^ opad) || H((K' ^ ipad) || m))``
where ``K'`` is the key zero-padded to the 64-byte SHA-256 block (keys
longer than a block are hashed first).  The two key blocks do not
depend on the message, so :class:`PrekeyedHmac` hashes them once and
then, per message, copies the two SHA-256 states and finishes them.
The output is byte-identical to ``hmac.new(key, prefix + message,
hashlib.sha256).digest()``.
"""

from __future__ import annotations

from hashlib import sha256

_BLOCK = 64
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


class PrekeyedHmac:
    """``HMAC-SHA256(key, prefix || message)`` with the keying paid once.

    Parameters
    ----------
    key:
        The HMAC key (any length, as for :func:`hmac.new`).
    prefix:
        Bytes absorbed into the inner state up front, for callers whose
        every message starts with the same label.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes, prefix: bytes = b""):
        if not isinstance(key, bytes):
            key = bytes(key)
        if len(key) > _BLOCK:
            key = sha256(key).digest()
        key = key.ljust(_BLOCK, b"\x00")
        self._inner = sha256(key.translate(_IPAD))
        if prefix:
            self._inner.update(prefix)
        self._outer = sha256(key.translate(_OPAD))

    def digest(self, message: bytes) -> bytes:
        """The 32-byte MAC of ``prefix || message``."""
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()
