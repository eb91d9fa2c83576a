"""The secure searchable index ``I`` (paper Fig. 3).

Structure
---------
The index maps keyword addresses ``pi_x(w_i)`` to lists of encrypted
posting entries.  Each entry is the authenticated encryption, under the
per-list key ``f_y(w_i)``, of the fixed-width plaintext

    ``0^l || id(F_ij) || score_field``

where the leading ``l`` zero bytes mark the entry as valid, the file id
is padded to a fixed width, and ``score_field`` is either the
semantically-secure ``E_z(S_ij)`` (basic scheme) or the OPM value
(efficient scheme) — both at fixed width, so every entry in the index
has identical length and dummy entries (uniform random bytes) are
length-indistinguishable from real ones.

Server-side lookup uses an ordered address map (the paper notes the
server "uses a tree-based data structure to fetch the corresponding
list"); :class:`AddressTree` provides the ordered-map behaviour with
``O(log n)`` bisection over sorted addresses.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.crypto.prf import Prf
from repro.crypto.symmetric import SymmetricCipher, random_bytes_like_ciphertext
from repro.errors import IndexError_, ParameterError, ReproError


@dataclass(frozen=True)
class EntryLayout:
    """Fixed geometry of posting-entry plaintexts.

    Attributes
    ----------
    zero_pad_bytes:
        ``l / 8`` — width of the all-zero validity marker.
    file_id_bytes:
        Fixed width of the encoded file identifier.
    score_bytes:
        Fixed width of the score field.
    """

    zero_pad_bytes: int
    file_id_bytes: int
    score_bytes: int

    def __post_init__(self) -> None:
        if self.zero_pad_bytes < 1:
            raise ParameterError(
                f"zero_pad_bytes must be >= 1, got {self.zero_pad_bytes}"
            )
        if self.file_id_bytes < 1:
            raise ParameterError(
                f"file_id_bytes must be >= 1, got {self.file_id_bytes}"
            )
        if self.score_bytes < 1:
            raise ParameterError(
                f"score_bytes must be >= 1, got {self.score_bytes}"
            )

    @property
    def plaintext_bytes(self) -> int:
        """Total plaintext entry width."""
        return self.zero_pad_bytes + self.file_id_bytes + self.score_bytes

    @property
    def ciphertext_bytes(self) -> int:
        """Total encrypted entry width (plaintext + cipher overhead)."""
        return self.plaintext_bytes + SymmetricCipher.overhead_bytes

    # -- plaintext encoding -------------------------------------------

    def encode_file_id(self, file_id: str) -> bytes:
        """Encode a file id at fixed width (length byte + padded UTF-8)."""
        raw = file_id.encode("utf-8")
        if len(raw) > self.file_id_bytes - 1:
            raise ParameterError(
                f"file id {file_id!r} exceeds {self.file_id_bytes - 1} "
                f"encoded bytes"
            )
        return bytes([len(raw)]) + raw.ljust(self.file_id_bytes - 1, b"\x00")

    def decode_file_id(self, encoded: bytes) -> str:
        """Invert :meth:`encode_file_id`."""
        if len(encoded) != self.file_id_bytes:
            raise IndexError_(
                f"encoded file id has wrong width {len(encoded)}"
            )
        length = encoded[0]
        if length > self.file_id_bytes - 1:
            raise IndexError_("corrupt file id length byte")
        return encoded[1 : 1 + length].decode("utf-8")

    def encode_entry(self, file_id: str, score_field: bytes) -> bytes:
        """Build the plaintext ``0^l || id || score_field``."""
        if len(score_field) != self.score_bytes:
            raise ParameterError(
                f"score field must be {self.score_bytes} bytes, got "
                f"{len(score_field)}"
            )
        return (
            b"\x00" * self.zero_pad_bytes
            + self.encode_file_id(file_id)
            + score_field
        )

    def decode_entry(self, plaintext: bytes) -> tuple[str, bytes]:
        """Split a decrypted entry; raises if the zero marker is absent."""
        if len(plaintext) != self.plaintext_bytes:
            raise IndexError_(
                f"entry plaintext has wrong width {len(plaintext)}"
            )
        if any(plaintext[: self.zero_pad_bytes]):
            raise IndexError_("entry validity marker is not all-zero")
        file_id = self.decode_file_id(
            plaintext[self.zero_pad_bytes : self.zero_pad_bytes + self.file_id_bytes]
        )
        return file_id, plaintext[self.zero_pad_bytes + self.file_id_bytes :]


def check_entry_widths(layout: EntryLayout, entries: Iterable[bytes]) -> None:
    """Reject any entry that is not exactly one ciphertext wide."""
    width = layout.ciphertext_bytes
    for entry in entries:
        if len(entry) != width:
            raise ParameterError(
                f"encrypted entry width {len(entry)} != expected {width}"
            )


def fresh_entries(
    existing: Iterable[bytes], entries: Iterable[bytes]
) -> list[bytes]:
    """The entries of ``entries`` that ``existing`` does not hold.

    The append idempotence rule shared by every index store and by
    delta-log replay.  Exact-duplicate detection is sound because
    entry encryption is SIV-deterministic (:func:`encrypt_entry`) and
    file ids are unique within a list: re-sending an entry yields the
    same bytes, and two different entries never collide.
    """
    present = set(existing)
    return [entry for entry in entries if entry not in present]


class AddressTree:
    """Ordered map from addresses to entry lists (server-side lookup).

    Maintains a sorted key list for ``O(log n)`` bisection lookups —
    the "tree-based data structure" of the paper's search-efficiency
    discussion — while storing values in a dict.
    """

    def __init__(self) -> None:
        self._sorted_keys: list[bytes] = []
        self._values: dict[bytes, list[bytes]] = {}

    def __len__(self) -> int:
        return len(self._sorted_keys)

    def __contains__(self, address: bytes) -> bool:
        return address in self._values

    def insert(self, address: bytes, entries: list[bytes]) -> None:
        """Insert a new list; duplicate addresses are an error."""
        if address in self._values:
            raise IndexError_("duplicate index address")
        position = bisect.bisect_left(self._sorted_keys, address)
        self._sorted_keys.insert(position, address)
        self._values[address] = entries

    def lookup(self, address: bytes) -> list[bytes] | None:
        """Bisection lookup; None when the address is absent."""
        position = bisect.bisect_left(self._sorted_keys, address)
        if (
            position < len(self._sorted_keys)
            and self._sorted_keys[position] == address
        ):
            return self._values[address]
        return None

    def replace(self, address: bytes, entries: list[bytes]) -> None:
        """Replace an existing list (index-update path)."""
        if address not in self._values:
            raise IndexError_("cannot replace a missing address")
        self._values[address] = entries

    def items(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """Iterate ``(address, entries)`` in address order."""
        for address in self._sorted_keys:
            yield address, self._values[address]

    def addresses(self) -> Iterator[bytes]:
        """Iterate addresses in ascending order (no entries touched)."""
        return iter(self._sorted_keys)


class SecureIndex:
    """The outsourced encrypted index ``I``.

    Parameters
    ----------
    layout:
        The fixed entry geometry (identical across the whole index).
    padded_length:
        When set (basic scheme), every list is padded with random dummy
        entries up to this length ``nu`` at insertion time.
    """

    def __init__(self, layout: EntryLayout, padded_length: int | None = None):
        if padded_length is not None and padded_length < 1:
            raise ParameterError(
                f"padded_length must be >= 1, got {padded_length}"
            )
        self._layout = layout
        self._padded_length = padded_length
        self._tree = AddressTree()

    @property
    def layout(self) -> EntryLayout:
        """The entry geometry."""
        return self._layout

    @property
    def padded_length(self) -> int | None:
        """``nu`` when padding is enabled, else None."""
        return self._padded_length

    @property
    def num_lists(self) -> int:
        """Number of posting lists (``m`` when one per keyword)."""
        return len(self._tree)

    def __contains__(self, address: bytes) -> bool:
        return address in self._tree

    # -- owner-side construction ----------------------------------------

    def add_list(self, address: bytes, encrypted_entries: list[bytes]) -> None:
        """Store one posting list, padding with dummies if configured."""
        check_entry_widths(self._layout, encrypted_entries)
        width = self._layout.ciphertext_bytes
        entries = list(encrypted_entries)
        if self._padded_length is not None:
            if len(entries) > self._padded_length:
                raise ParameterError(
                    f"list of {len(entries)} entries exceeds padded length "
                    f"{self._padded_length}"
                )
            while len(entries) < self._padded_length:
                entries.append(random_bytes_like_ciphertext(width))
        self._tree.insert(address, entries)

    def replace_list(self, address: bytes, encrypted_entries: list[bytes]) -> None:
        """Owner-side update of one list (score-dynamics path)."""
        check_entry_widths(self._layout, encrypted_entries)
        self._tree.replace(address, list(encrypted_entries))

    def append_entries(
        self, address: bytes, encrypted_entries: list[bytes]
    ) -> list[bytes]:
        """Append entries to an existing list; returns those appended.

        Entries the list already holds are skipped, so a re-sent
        append is a no-op (see :func:`fresh_entries`).
        """
        check_entry_widths(self._layout, encrypted_entries)
        existing = self._tree.lookup(address)
        if existing is None:
            raise IndexError_("cannot append to a missing address")
        fresh = fresh_entries(existing, encrypted_entries)
        if fresh:
            self._tree.replace(address, existing + fresh)
        return fresh

    # -- server-side access -----------------------------------------------

    def lookup(self, address: bytes) -> list[bytes] | None:
        """Fetch the encrypted entries at ``address`` (None if absent)."""
        return self._tree.lookup(address)

    def items(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """All lists in address order (used by leakage analysis)."""
        return self._tree.items()

    def addresses(self) -> Iterator[bytes]:
        """All addresses in ascending order (cheap: no entry bytes).

        Part of the shared store read surface — packed stores
        (:mod:`repro.cloud.store`) implement the same method without
        decoding any posting blocks, so placement validation at load
        time stays proportional to the keyword count, not the corpus.
        """
        return self._tree.addresses()

    # -- measurements -----------------------------------------------------

    def size_bytes(self) -> int:
        """Total ciphertext bytes stored (addresses excluded)."""
        return sum(
            len(entry) for _, entries in self._tree.items() for entry in entries
        )

    def average_list_size_bytes(self) -> float:
        """Mean per-keyword list size in bytes (Table I's metric)."""
        if self.num_lists == 0:
            raise IndexError_("index is empty")
        return self.size_bytes() / self.num_lists

    # -- serialization ------------------------------------------------------

    def serialize(self) -> bytes:
        """Self-describing JSON+hex encoding (for persistence tests)."""
        payload = {
            "layout": {
                "zero_pad_bytes": self._layout.zero_pad_bytes,
                "file_id_bytes": self._layout.file_id_bytes,
                "score_bytes": self._layout.score_bytes,
            },
            "padded_length": self._padded_length,
            "lists": [
                {
                    "address": address.hex(),
                    "entries": [entry.hex() for entry in entries],
                }
                for address, entries in self._tree.items()
            ],
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def deserialize(cls, data: bytes) -> "SecureIndex":
        """Parse the :meth:`serialize` encoding."""
        try:
            payload = json.loads(data.decode("utf-8"))
            layout = EntryLayout(**payload["layout"])
            index = cls(layout, payload["padded_length"])
            for item in payload["lists"]:
                index._tree.insert(
                    bytes.fromhex(item["address"]),
                    [bytes.fromhex(entry) for entry in item["entries"]],
                )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise IndexError_(f"malformed index encoding: {exc}") from exc
        return index


def encrypt_entry(
    layout: EntryLayout,
    list_key: bytes,
    file_id: str,
    score_field: bytes,
    cipher: SymmetricCipher | None = None,
    deterministic: bool = True,
) -> bytes:
    """Encrypt one posting entry under the per-list key ``f_y(w)``.

    By default the nonce is the SIV of the entry plaintext
    (:meth:`SymmetricCipher.encrypt_deterministic`), so the same
    (key, file, score) always produces the same ciphertext: index
    builds become byte-reproducible regardless of worker count, and
    the dynamics path regenerates unchanged entries verbatim.  Within
    one posting list every plaintext is distinct (file ids are unique
    per list), so no nonce is ever reused.  Pass
    ``deterministic=False`` for the classic randomized behaviour.

    Callers encrypting a whole posting list should construct the
    :class:`SymmetricCipher` once and pass it via ``cipher`` — key
    derivation is the dominant per-entry cost otherwise.
    """
    if cipher is None:
        cipher = SymmetricCipher(list_key)
    plaintext = layout.encode_entry(file_id, score_field)
    if deterministic:
        return cipher.encrypt_deterministic(plaintext)
    return cipher.encrypt(plaintext)


def deterministic_dummy_entries(
    layout: EntryLayout, list_key: bytes, count: int, start: int = 0
) -> list[bytes]:
    """PRF-derived dummy entries for reproducible list padding.

    The dummies are the output of a PRF keyed by a sub-key derived from
    ``f_y(w)`` with its own label, so they are pseudorandom (length-
    and content-indistinguishable from real ciphertexts, like the
    uniform dummies of Fig. 3) yet fail authentication under the list
    cipher with overwhelming probability.  Being a pure function of
    ``(list_key, position)`` they reproduce exactly across rebuilds and
    across build-worker counts.
    """
    if count < 0:
        raise ParameterError(f"dummy count must be >= 0, got {count}")
    pad_prf = Prf(Prf(list_key).derive_key(b"dummy-pad", 32))
    width = layout.ciphertext_bytes
    return [
        pad_prf.evaluate_to_length(position.to_bytes(8, "big"), width)
        for position in range(start, start + count)
    ]


def try_decrypt_entry(
    layout: EntryLayout,
    list_key: bytes,
    encrypted_entry: bytes,
    cipher: SymmetricCipher | None = None,
) -> tuple[str, bytes] | None:
    """Decrypt one entry; None for dummy/corrupt entries.

    Real entries authenticate and carry the ``0^l`` marker; random
    dummies fail authentication (and, with probability ``1 - 2**-l``,
    the marker too), exactly the validity test Fig. 3 describes.

    Callers decrypting a whole posting list should construct the
    :class:`SymmetricCipher` once and pass it via ``cipher`` — key
    derivation is the dominant per-entry cost otherwise.
    """
    if cipher is None:
        cipher = SymmetricCipher(list_key)
    try:
        plaintext = cipher.decrypt(encrypted_entry)
        return layout.decode_entry(plaintext)
    except ReproError:
        # Authentication failures (CryptoError) and marker/layout
        # failures (IndexError_) both mean "not a valid entry for this
        # key" — i.e. a dummy.
        return None


def decrypt_posting_list(
    layout: EntryLayout, list_key: bytes, encrypted_entries: Iterable[bytes]
) -> list[tuple[str, bytes]]:
    """Decrypt a whole posting list, dropping dummies (server hot path)."""
    cipher = SymmetricCipher(list_key)
    decoded = []
    for entry in encrypted_entries:
        result = try_decrypt_entry(layout, list_key, entry, cipher=cipher)
        if result is not None:
            decoded.append(result)
    return decoded
