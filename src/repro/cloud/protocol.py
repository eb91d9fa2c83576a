"""Wire protocol between user and cloud server.

Typed messages with explicit byte encodings, so the simulated network
(:mod:`repro.cloud.network`) can account bandwidth exactly — the
paper's Section III-C argument against the basic scheme is a bandwidth
and round-trip argument, and ``benchmarks/bench_basic_vs_rsse.py``
measures it on these encodings.

Two codecs share every message type:

* **json** (:data:`CODEC_JSON`, the default) — JSON with hex for
  binary fields.  Deliberately simple and human-inspectable; the
  bandwidth-accounting reference for the paper's figures (hex doubles
  every blob, which the figures note).
* **binary** (:data:`CODEC_BINARY`) — a length-prefixed framing: one
  kind-tag byte followed by ``u32``-length-prefixed raw-byte fields.
  No hex inflation, and :func:`peek_kind` reads exactly one byte, so
  servers dispatch without parsing payloads.

``to_bytes(codec=...)`` selects the encoding; ``from_bytes`` and
:func:`peek_kind` auto-detect it (binary tags occupy the high-bit
byte range, JSON messages start with ``{``), so a server transparently
serves clients speaking either codec and mirrors the request's codec
in its response.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

from repro.errors import ProtocolError

#: The hex-over-JSON codec (default; bandwidth-accounting reference).
CODEC_JSON = "json"

#: The length-prefixed binary codec (no hex, one-byte kind peek).
CODEC_BINARY = "binary"

#: Every supported codec name.
CODECS = (CODEC_JSON, CODEC_BINARY)

#: Binary kind tags, one byte each.  High-bit values cannot collide
#: with the ``{`` (0x7b) a JSON message starts with, so codec
#: detection needs only the first byte.
BINARY_TAGS = {
    "search": 0xA1,
    "search-response": 0xA2,
    "fetch": 0xA3,
    "files": 0xA4,
    "multi-search": 0xA5,
    "multi-search-response": 0xA6,
    "update-list": 0xB1,
    "put-blob": 0xB2,
    "remove-blob": 0xB3,
    "ack": 0xB4,
    "error": 0xBF,
    "traced": 0xC1,
    "obs-snapshot": 0xC2,
    "obs-snapshot-response": 0xC3,
    "admin": 0xC4,
    "admin-response": 0xC5,
    "observed": 0xC6,
    "observed-response": 0xC7,
}

_KIND_FOR_TAG = {tag: kind for kind, tag in BINARY_TAGS.items()}

#: Multi-keyword aggregation: a file must match every term.
MODE_CONJUNCTIVE = "conjunctive"

#: Multi-keyword aggregation: a file may match any subset of terms.
MODE_DISJUNCTIVE = "disjunctive"

#: Every supported multi-keyword mode.
MULTI_MODES = (MODE_CONJUNCTIVE, MODE_DISJUNCTIVE)

#: Width of the aggregated OPM-sum score field in a final
#: multi-search response.  Single-term OPM fields are at most 6 bytes
#: (``range_size`` ~ 2^46), so even a 64-term sum fits in 8.
MULTI_SCORE_BYTES = 8

#: Width of the per-shard partial score field: the 8-byte running sum
#: followed by a 4-byte count of how many of the shard's terms the
#: file matched (the coordinator's conjunctive completeness check).
PARTIAL_SCORE_BYTES = MULTI_SCORE_BYTES + 4


def pack_multi_score(total: int) -> bytes:
    """Encode an aggregated OPM sum as a fixed-width score field."""
    if total < 0:
        raise ProtocolError(f"negative aggregate score {total}")
    try:
        return total.to_bytes(MULTI_SCORE_BYTES, "big")
    except OverflowError:
        raise ProtocolError(
            f"aggregate score {total} exceeds "
            f"{MULTI_SCORE_BYTES} bytes"
        ) from None


def unpack_multi_score(score_field: bytes) -> int:
    """Decode a final multi-search score field back to its OPM sum."""
    if len(score_field) != MULTI_SCORE_BYTES:
        raise ProtocolError(
            f"malformed multi-search score field of "
            f"{len(score_field)} bytes"
        )
    return int.from_bytes(score_field, "big")


def pack_partial_score(total: int, terms_matched: int) -> bytes:
    """Encode one shard's partial aggregate: sum || matched-term count."""
    if terms_matched < 1:
        raise ProtocolError(
            f"terms_matched must be >= 1, got {terms_matched}"
        )
    return pack_multi_score(total) + terms_matched.to_bytes(4, "big")


def unpack_partial_score(score_field: bytes) -> tuple[int, int]:
    """Decode a partial score field to ``(sum, terms_matched)``."""
    if len(score_field) != PARTIAL_SCORE_BYTES:
        raise ProtocolError(
            f"malformed partial score field of "
            f"{len(score_field)} bytes"
        )
    return (
        int.from_bytes(score_field[:MULTI_SCORE_BYTES], "big"),
        int.from_bytes(score_field[MULTI_SCORE_BYTES:], "big"),
    )


def check_partial_scores(matches: tuple[tuple[str, bytes], ...]) -> None:
    """Reject ``matches`` unless every score field is a partial field.

    The length check of :func:`unpack_partial_score` without the
    unpacking, for a merge that unpacks only the files it keeps.
    """
    for length in {len(score_field) for _, score_field in matches}:
        if length != PARTIAL_SCORE_BYTES:
            raise ProtocolError(
                f"malformed partial score field of {length} bytes"
            )


def require_codec(codec: str) -> str:
    """Validate a codec name (returns it for chaining)."""
    if codec not in CODECS:
        raise ProtocolError(
            f"unknown codec {codec!r}; expected one of {CODECS}"
        )
    return codec


def detect_codec(data: bytes) -> str:
    """Which codec encoded this message (from its first byte)."""
    if not data:
        raise ProtocolError("empty message")
    first = data[0]
    if first in _KIND_FOR_TAG:
        return CODEC_BINARY
    if first == 0x7B:  # '{'
        return CODEC_JSON
    raise ProtocolError(
        f"unrecognized message leading byte 0x{first:02x}"
    )


# -- stream framing (messages over a byte stream) --------------------------

#: Default upper bound on one framed message.  Large enough for any
#: realistic search response (matches + encrypted files); small enough
#: that a corrupted or hostile length prefix cannot make a server
#: buffer gigabytes before noticing.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def encode_frame(
    payload: bytes, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Frame one codec message for a byte stream: ``u32 length || payload``.

    TCP gives a byte stream, not message boundaries; every message the
    network layer (:mod:`repro.cloud.netserve`) moves is wrapped in
    this length prefix so the receiver can reassemble it regardless of
    how the kernel chunked it.  The payload itself is any
    ``to_bytes()`` encoding (either codec) — the prefix is codec-blind.
    """
    if not payload:
        raise ProtocolError("cannot frame an empty payload")
    if len(payload) > max_frame_bytes:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the frame limit "
            f"of {max_frame_bytes}"
        )
    return len(payload).to_bytes(4, "big") + payload


class StreamDecoder:
    """Incremental reassembly of length-prefixed frames from a stream.

    Feed arbitrary chunks (a 1-byte dribble, several coalesced frames,
    a read that ends mid-header — whatever the socket hands back) and
    collect complete message payloads as they materialize.  The
    length prefix is validated the moment its 4 bytes are available:
    a zero or oversized length raises :class:`~repro.errors.ProtocolError`
    *before* any body byte is read or buffered, so a hostile prefix
    cannot make the receiver allocate or wait for a body that will
    never legitimately arrive.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        if max_frame_bytes < 1:
            raise ProtocolError(
                f"max_frame_bytes must be >= 1, got {max_frame_bytes}"
            )
        self._max = max_frame_bytes
        self._buffer = bytearray()
        self._needed: int | None = None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    @property
    def at_boundary(self) -> bool:
        """True when no partial frame is buffered (a clean cut point)."""
        return self._needed is None and not self._buffer

    def feed(self, chunk: bytes) -> list[bytes]:
        """Absorb ``chunk``; return every payload it completed, in order."""
        self._buffer.extend(chunk)
        frames: list[bytes] = []
        while True:
            if self._needed is None:
                if len(self._buffer) < 4:
                    break
                length = int.from_bytes(self._buffer[:4], "big")
                if length == 0:
                    raise ProtocolError("zero-length frame")
                if length > self._max:
                    raise ProtocolError(
                        f"frame length {length} exceeds the limit of "
                        f"{self._max}"
                    )
                del self._buffer[:4]
                self._needed = length
            if len(self._buffer) < self._needed:
                break
            frames.append(bytes(self._buffer[: self._needed]))
            del self._buffer[: self._needed]
            self._needed = None
        return frames


# -- json codec helpers ----------------------------------------------------


def _encode(kind: str, payload: dict) -> bytes:
    return json.dumps(
        {"kind": kind, **payload}, sort_keys=True
    ).encode("utf-8")


def _decode(data: bytes, expected_kind: str) -> dict:
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed message: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message is not a JSON object")
    if payload.get("kind") != expected_kind:
        raise ProtocolError(
            f"expected {expected_kind!r} message, "
            f"got {payload.get('kind')!r}"
        )
    return payload


# -- binary codec helpers --------------------------------------------------


def pack_frames(kind: str, fields: list[bytes]) -> bytes:
    """Binary-encode: kind tag byte + u32-length-prefixed fields."""
    parts = [bytes([BINARY_TAGS[kind]])]
    for data in fields:
        parts.append(len(data).to_bytes(4, "big"))
        parts.append(data)
    return b"".join(parts)


_U32 = struct.Struct(">I")


class FrameReader:
    """Sequential reader for the binary framing.

    Checks the kind tag up front, then hands back one field per
    :meth:`take`; :meth:`expect_end` asserts the message was fully
    consumed (trailing garbage is a protocol violation, not padding).
    """

    def __init__(self, data: bytes, expected_kind: str):
        if not data:
            raise ProtocolError("empty binary message")
        kind = _KIND_FOR_TAG.get(data[0])
        if kind is None:
            raise ProtocolError(
                f"unknown binary kind tag 0x{data[0]:02x}"
            )
        if kind != expected_kind:
            raise ProtocolError(
                f"expected {expected_kind!r} message, got {kind!r}"
            )
        self._data = data
        self._offset = 1

    def take(self) -> bytes:
        """Read the next length-prefixed field."""
        end = self._offset + 4
        if end > len(self._data):
            raise ProtocolError("truncated binary message (length)")
        length = int.from_bytes(self._data[self._offset:end], "big")
        self._offset = end + length
        if self._offset > len(self._data):
            raise ProtocolError("truncated binary message (field)")
        return self._data[end:self._offset]

    def take_str(self) -> str:
        """Read the next field as UTF-8 text."""
        try:
            return self.take().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"malformed text field: {exc}"
            ) from exc

    def take_strs(self, count: int) -> tuple[str, ...]:
        """Read the next ``count`` fields as UTF-8 text.

        One loop with no call per field: a search's observations carry
        one file id per matched document, and the front end decodes
        them on every result-cache fill.
        """
        data, offset, size = self._data, self._offset, len(self._data)
        values = []
        try:
            for _ in range(count):
                (length,) = _U32.unpack_from(data, offset)
                offset += 4 + length
                if offset > size:
                    raise ProtocolError("truncated binary message (field)")
                values.append(data[offset - length:offset].decode("utf-8"))
        except struct.error:
            raise ProtocolError("truncated binary message (length)") from None
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"malformed text field: {exc}") from exc
        self._offset = offset
        return tuple(values)

    def take_pairs(self, count: int) -> tuple[tuple[str, bytes], ...]:
        """Read the next ``count`` ``(text, bytes)`` field pairs.

        One loop, like :meth:`take_strs`, with the same truncation and
        UTF-8 errors: search, multi-search and files responses carry
        one pair per match or file, and the front end decodes every
        shard's multi-search partials.
        """
        data, offset, size = self._data, self._offset, len(self._data)
        pairs = []
        try:
            for _ in range(count):
                (length,) = _U32.unpack_from(data, offset)
                offset += 4 + length
                if offset > size:
                    raise ProtocolError("truncated binary message (field)")
                text = data[offset - length:offset].decode("utf-8")
                (length,) = _U32.unpack_from(data, offset)
                offset += 4 + length
                if offset > size:
                    raise ProtocolError("truncated binary message (field)")
                pairs.append((text, data[offset - length:offset]))
        except struct.error:
            raise ProtocolError("truncated binary message (length)") from None
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"malformed text field: {exc}") from exc
        self._offset = offset
        return tuple(pairs)

    def take_count(self) -> int:
        """Read the next field as a u32 item count."""
        data = self.take()
        if len(data) != 4:
            raise ProtocolError("malformed count field")
        return int.from_bytes(data, "big")

    def expect_end(self) -> None:
        """Fail if unconsumed bytes remain."""
        if self._offset != len(self._data):
            raise ProtocolError("trailing bytes after binary message")


def _pack_count(count: int) -> bytes:
    return count.to_bytes(4, "big")


def _pack_pairs(pairs: tuple[tuple[str, bytes], ...]) -> list[bytes]:
    """Flatten ``(file_id, blob)`` pairs into count + field frames."""
    fields = [_pack_count(len(pairs))]
    for file_id, blob in pairs:
        fields.append(file_id.encode("utf-8"))
        fields.append(blob)
    return fields


def _take_pairs(reader: FrameReader) -> tuple[tuple[str, bytes], ...]:
    return reader.take_pairs(reader.take_count())


def peek_kind(request_bytes: bytes) -> str:
    """Read a message's ``kind`` tag without full payload parsing.

    Servers (:class:`~repro.cloud.server.CloudServer`, the cluster
    front end) use this to dispatch before choosing which typed
    ``from_bytes`` to run.  For the binary codec this is a single
    byte-table lookup; the JSON codec still pays a full parse (one
    reason the binary codec wins the cold-query benchmark).
    """
    if detect_codec(request_bytes) == CODEC_BINARY:
        return _KIND_FOR_TAG[request_bytes[0]]
    try:
        payload = json.loads(request_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed request: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request is not a JSON object")
    kind = payload.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ProtocolError("JSON message lacks a string 'kind' tag")
    return kind


@dataclass(frozen=True)
class SearchRequest:
    """A search: the trapdoor, optionally with a top-k bound.

    ``top_k=None`` asks for all matches (basic one-round flavour);
    ``entries_only=True`` asks for the entry list without file payloads
    (first round of the basic two-round protocol).
    """

    trapdoor_bytes: bytes
    top_k: int | None = None
    entries_only: bool = False

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames(
                "search",
                [
                    self.trapdoor_bytes,
                    b""
                    if self.top_k is None
                    else _pack_count(self.top_k),
                    b"\x01" if self.entries_only else b"\x00",
                ],
            )
        return _encode(
            "search",
            {
                "trapdoor": self.trapdoor_bytes.hex(),
                "top_k": self.top_k,
                "entries_only": self.entries_only,
            },
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SearchRequest":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "search")
            trapdoor_bytes = reader.take()
            top_k_field = reader.take()
            if top_k_field and len(top_k_field) != 4:
                raise ProtocolError("malformed top_k field")
            entries_only = reader.take() == b"\x01"
            reader.expect_end()
            return cls(
                trapdoor_bytes=trapdoor_bytes,
                top_k=(
                    int.from_bytes(top_k_field, "big")
                    if top_k_field
                    else None
                ),
                entries_only=entries_only,
            )
        payload = _decode(data, "search")
        return cls(
            trapdoor_bytes=bytes.fromhex(payload["trapdoor"]),
            top_k=payload["top_k"],
            entries_only=payload["entries_only"],
        )


@dataclass(frozen=True)
class SearchResponse:
    """Server -> user: matched entries, optionally with file payloads.

    ``matches`` carries ``(file_id, score_field)`` pairs — the score
    field is ``E_z(S)`` (basic scheme) or the OPM value bytes
    (efficient scheme).  ``files`` carries encrypted blobs when the
    request asked for them, in the order the server ranked them (index
    order when the server cannot rank).
    """

    matches: tuple[tuple[str, bytes], ...] = field(default_factory=tuple)
    files: tuple[tuple[str, bytes], ...] = field(default_factory=tuple)

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames(
                "search-response",
                _pack_pairs(self.matches) + _pack_pairs(self.files),
            )
        return _encode(
            "search-response",
            {
                "matches": [
                    [file_id, score_field.hex()]
                    for file_id, score_field in self.matches
                ],
                "files": [
                    [file_id, blob.hex()] for file_id, blob in self.files
                ],
            },
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SearchResponse":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "search-response")
            matches = _take_pairs(reader)
            files = _take_pairs(reader)
            reader.expect_end()
            return cls(matches=matches, files=files)
        payload = _decode(data, "search-response")
        return cls(
            matches=tuple(
                (file_id, bytes.fromhex(score_hex))
                for file_id, score_hex in payload["matches"]
            ),
            files=tuple(
                (file_id, bytes.fromhex(blob_hex))
                for file_id, blob_hex in payload["files"]
            ),
        )


@dataclass(frozen=True)
class MultiSearchRequest:
    """A one-round multi-keyword search: k trapdoors, one response.

    ``mode`` selects conjunctive (files must match every term) or
    disjunctive (any term) aggregation of the per-term OPM scores.
    ``top_k=None`` asks for the full aggregated ranking.
    ``partial=True`` is the shard-internal flavour: the server returns
    its complete local aggregates (sum || matched-term count fields,
    no file payloads) for a coordinator to merge — tie-breaks at the
    coordinator then match a single server's exactly.
    """

    trapdoors: tuple[bytes, ...]
    mode: str = MODE_CONJUNCTIVE
    top_k: int | None = None
    partial: bool = False

    def __post_init__(self) -> None:
        if not self.trapdoors:
            raise ProtocolError(
                "multi-search requires at least one trapdoor"
            )
        if self.mode not in MULTI_MODES:
            raise ProtocolError(
                f"unknown multi-search mode {self.mode!r}; "
                f"expected one of {MULTI_MODES}"
            )
        if self.top_k is not None and self.top_k < 1:
            raise ProtocolError(
                f"top_k must be >= 1 or None, got {self.top_k}"
            )

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            fields = [_pack_count(len(self.trapdoors))]
            fields += list(self.trapdoors)
            fields += [
                self.mode.encode("utf-8"),
                b"" if self.top_k is None else _pack_count(self.top_k),
                b"\x01" if self.partial else b"\x00",
            ]
            return pack_frames("multi-search", fields)
        return _encode(
            "multi-search",
            {
                "trapdoors": [t.hex() for t in self.trapdoors],
                "mode": self.mode,
                "top_k": self.top_k,
                "partial": self.partial,
            },
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "MultiSearchRequest":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "multi-search")
            count = reader.take_count()
            trapdoors = tuple(reader.take() for _ in range(count))
            mode = reader.take_str()
            top_k_field = reader.take()
            if top_k_field and len(top_k_field) != 4:
                raise ProtocolError("malformed top_k field")
            partial = reader.take() == b"\x01"
            reader.expect_end()
            return cls(
                trapdoors=trapdoors,
                mode=mode,
                top_k=(
                    int.from_bytes(top_k_field, "big")
                    if top_k_field
                    else None
                ),
                partial=partial,
            )
        payload = _decode(data, "multi-search")
        return cls(
            trapdoors=tuple(
                bytes.fromhex(t) for t in payload["trapdoors"]
            ),
            mode=payload["mode"],
            top_k=payload["top_k"],
            partial=bool(payload["partial"]),
        )


@dataclass(frozen=True)
class MultiSearchResponse:
    """Server -> user: the aggregated multi-keyword ranking.

    ``matches`` carries ``(file_id, score_field)`` pairs in final
    rank order (descending OPM sum, ascending file id on ties); the
    score field is the 8-byte aggregated sum (:func:`pack_multi_score`)
    or, for ``partial=True`` requests, the 12-byte
    sum-plus-matched-count field (:func:`pack_partial_score`) in
    ascending file-id order.  ``files`` carries the encrypted blobs in
    rank order (always empty for partial responses).
    """

    matches: tuple[tuple[str, bytes], ...] = field(default_factory=tuple)
    files: tuple[tuple[str, bytes], ...] = field(default_factory=tuple)

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames(
                "multi-search-response",
                _pack_pairs(self.matches) + _pack_pairs(self.files),
            )
        return _encode(
            "multi-search-response",
            {
                "matches": [
                    [file_id, score_field.hex()]
                    for file_id, score_field in self.matches
                ],
                "files": [
                    [file_id, blob.hex()] for file_id, blob in self.files
                ],
            },
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "MultiSearchResponse":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "multi-search-response")
            matches = _take_pairs(reader)
            files = _take_pairs(reader)
            reader.expect_end()
            return cls(matches=matches, files=files)
        payload = _decode(data, "multi-search-response")
        return cls(
            matches=tuple(
                (file_id, bytes.fromhex(score_hex))
                for file_id, score_hex in payload["matches"]
            ),
            files=tuple(
                (file_id, bytes.fromhex(blob_hex))
                for file_id, blob_hex in payload["files"]
            ),
        )


@dataclass(frozen=True)
class FileRequest:
    """User -> server: fetch these files (second round, basic scheme)."""

    file_ids: tuple[str, ...]

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            fields = [_pack_count(len(self.file_ids))]
            fields += [
                file_id.encode("utf-8") for file_id in self.file_ids
            ]
            return pack_frames("fetch", fields)
        return _encode("fetch", {"file_ids": list(self.file_ids)})

    @classmethod
    def from_bytes(cls, data: bytes) -> "FileRequest":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "fetch")
            count = reader.take_count()
            file_ids = reader.take_strs(count)
            reader.expect_end()
            return cls(file_ids=file_ids)
        payload = _decode(data, "fetch")
        return cls(file_ids=tuple(payload["file_ids"]))


@dataclass(frozen=True)
class RankedFilesResponse:
    """Server -> user: encrypted files in rank order."""

    files: tuple[tuple[str, bytes], ...] = field(default_factory=tuple)

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames("files", _pack_pairs(self.files))
        return _encode(
            "files",
            {
                "files": [
                    [file_id, blob.hex()] for file_id, blob in self.files
                ]
            },
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RankedFilesResponse":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "files")
            files = _take_pairs(reader)
            reader.expect_end()
            return cls(files=files)
        payload = _decode(data, "files")
        return cls(
            files=tuple(
                (file_id, bytes.fromhex(blob_hex))
                for file_id, blob_hex in payload["files"]
            )
        )


@dataclass(frozen=True)
class ErrorResponse:
    """Server -> user: a request failed; here is why.

    The in-process :class:`~repro.cloud.network.Channel` propagates
    exceptions natively, but over a real socket a failure must travel
    as bytes.  ``code`` names the exception class
    (:mod:`repro.errors` names round-trip back to the original type on
    the client), ``detail`` is the human-readable message, and
    ``shard`` identifies which shard failed when the server knows —
    the cluster client needs it to fill
    :class:`~repro.cloud.cluster.PartialResult.missing_shards`.
    """

    code: str
    detail: str = ""
    shard: int | None = None

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames(
                "error",
                [
                    self.code.encode("utf-8"),
                    self.detail.encode("utf-8"),
                    b""
                    if self.shard is None
                    else _pack_count(self.shard),
                ],
            )
        return _encode(
            "error",
            {
                "code": self.code,
                "detail": self.detail,
                "shard": self.shard,
            },
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ErrorResponse":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "error")
            code = reader.take_str()
            detail = reader.take_str()
            shard_field = reader.take()
            if shard_field and len(shard_field) != 4:
                raise ProtocolError("malformed shard field")
            reader.expect_end()
            return cls(
                code=code,
                detail=detail,
                shard=(
                    int.from_bytes(shard_field, "big")
                    if shard_field
                    else None
                ),
            )
        payload = _decode(data, "error")
        return cls(
            code=payload["code"],
            detail=payload["detail"],
            shard=payload["shard"],
        )


# -- distributed observability messages ------------------------------------

#: Width of a trace/span id on the wire (matches the tracer's plain
#: counters; 2^64 ids outlast any deployment).
TRACE_ID_BYTES = 8

#: Admin endpoint sections a front end serves.
ADMIN_SECTIONS = ("prometheus", "jsonl", "health")


def _pack_id(value: int) -> bytes:
    if value < 0 or value >= 1 << (8 * TRACE_ID_BYTES):
        raise ProtocolError(f"trace/span id {value} out of range")
    return value.to_bytes(TRACE_ID_BYTES, "big")


def _take_id(reader: FrameReader) -> int:
    data = reader.take()
    if len(data) != TRACE_ID_BYTES:
        raise ProtocolError("malformed trace/span id field")
    return int.from_bytes(data, "big")


@dataclass(frozen=True)
class TracedRequest:
    """A request wrapped with its caller's trace context.

    The front end wraps worker-bound frames in this envelope when
    tracing is on, so the worker's ``server.handle`` span can take the
    front end's ``net.request`` span as an explicit remote parent —
    one stitched span tree per query across the process boundary.
    ``payload`` is any ordinary request in either codec; responses
    travel back *unwrapped* (the reply pipe already correlates them).
    Servers unwrap the envelope even with tracing off, so enabling obs
    never changes response bytes.
    """

    trace_id: int
    span_id: int
    payload: bytes

    def __post_init__(self) -> None:
        if not self.payload:
            raise ProtocolError("traced envelope requires a payload")

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames(
                "traced",
                [
                    _pack_id(self.trace_id),
                    _pack_id(self.span_id),
                    self.payload,
                ],
            )
        return _encode(
            "traced",
            {
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "payload": self.payload.hex(),
            },
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "TracedRequest":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "traced")
            trace_id = _take_id(reader)
            span_id = _take_id(reader)
            payload = reader.take()
            reader.expect_end()
            return cls(
                trace_id=trace_id, span_id=span_id, payload=payload
            )
        payload = _decode(data, "traced")
        return cls(
            trace_id=int(payload["trace_id"]),
            span_id=int(payload["span_id"]),
            payload=bytes.fromhex(payload["payload"]),
        )


@dataclass(frozen=True)
class ObservedRequest:
    """Front end -> worker: serve this and report what you observed.

    When the front end's result cache is on it must know, per response
    it may later replay, which leakage observations the execution
    produced — a cache hit answers without worker IPC, yet the leakage
    log's search/access-pattern counts must stay exact.  This envelope
    asks the worker to capture the :class:`~repro.analysis.leakage.ServerLog`
    delta its dispatch appended and ship it back alongside the response
    (:class:`ObservedResponse`).  ``payload`` is any ordinary request in
    either codec; when tracing is also on the traced envelope wraps
    *this* one (traced is always outermost).  Fills use it only when
    the front end keeps a leakage log (``obs`` set); otherwise nothing
    would replay the observations, and the worker gets the bare frame.
    """

    payload: bytes

    def __post_init__(self) -> None:
        if not self.payload:
            raise ProtocolError("observed envelope requires a payload")

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames("observed", [self.payload])
        return _encode("observed", {"payload": self.payload.hex()})

    @classmethod
    def from_bytes(cls, data: bytes) -> "ObservedRequest":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "observed")
            payload = reader.take()
            reader.expect_end()
            return cls(payload=payload)
        payload = _decode(data, "observed")
        return cls(payload=bytes.fromhex(payload["payload"]))


@dataclass(frozen=True)
class ObservedResponse:
    """Worker -> front end: the response plus its leakage observations.

    ``payload`` is the byte-exact response the unwrapped request would
    have produced (the front end strips this envelope before caching or
    replying, so clients never see it).  ``observations`` carries one
    ``(address, matched_file_ids, returned_file_ids)`` tuple per
    :class:`~repro.analysis.leakage.SearchObservation` the execution
    appended — enough to replay the search- and access-pattern record
    on every cache hit (score fields are never replayed; the leakage
    log does not keep them).
    """

    payload: bytes
    observations: tuple[tuple[bytes, tuple[str, ...], tuple[str, ...]], ...] = field(
        default_factory=tuple
    )

    def __post_init__(self) -> None:
        if not self.payload:
            raise ProtocolError("observed-response envelope requires a payload")

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            fields = [self.payload, _pack_count(len(self.observations))]
            for address, matched, returned in self.observations:
                fields.append(address)
                fields.append(_pack_count(len(matched)))
                fields.extend(file_id.encode("utf-8") for file_id in matched)
                fields.append(_pack_count(len(returned)))
                fields.extend(file_id.encode("utf-8") for file_id in returned)
            return pack_frames("observed-response", fields)
        return _encode(
            "observed-response",
            {
                "payload": self.payload.hex(),
                "observations": [
                    [address.hex(), list(matched), list(returned)]
                    for address, matched, returned in self.observations
                ],
            },
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ObservedResponse":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "observed-response")
            payload = reader.take()
            count = reader.take_count()
            observations = []
            for _ in range(count):
                address = reader.take()
                matched = reader.take_strs(reader.take_count())
                returned = reader.take_strs(reader.take_count())
                observations.append((address, matched, returned))
            reader.expect_end()
            return cls(payload=payload, observations=tuple(observations))
        decoded = _decode(data, "observed-response")
        return cls(
            payload=bytes.fromhex(decoded["payload"]),
            observations=tuple(
                (bytes.fromhex(address_hex), tuple(matched), tuple(returned))
                for address_hex, matched, returned in decoded["observations"]
            ),
        )


@dataclass(frozen=True)
class ObsSnapshotRequest:
    """Front end -> worker: ship me your telemetry.

    The control-channel message behind cluster-wide scrapes: each
    worker answers with its full JSONL artifact (spans, metrics
    snapshot, leakage events, slow queries).  Handled outside the
    worker's request span/counters so a scrape observes state without
    perturbing it.
    """

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames("obs-snapshot", [])
        return _encode("obs-snapshot", {})

    @classmethod
    def from_bytes(cls, data: bytes) -> "ObsSnapshotRequest":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "obs-snapshot")
            reader.expect_end()
            return cls()
        _decode(data, "obs-snapshot")
        return cls()


@dataclass(frozen=True)
class ObsSnapshotResponse:
    """Worker -> front end: one JSONL telemetry artifact, as bytes.

    ``artifact`` is UTF-8 ``repro.obs.export`` JSONL (empty artifact
    when the worker runs without obs); the front end labels it with
    the worker's shard id and merges it into the cluster view.
    """

    artifact: bytes

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames("obs-snapshot-response", [self.artifact])
        return _encode(
            "obs-snapshot-response", {"artifact": self.artifact.hex()}
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ObsSnapshotResponse":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "obs-snapshot-response")
            artifact = reader.take()
            reader.expect_end()
            return cls(artifact=artifact)
        payload = _decode(data, "obs-snapshot-response")
        return cls(artifact=bytes.fromhex(payload["artifact"]))


@dataclass(frozen=True)
class AdminRequest:
    """Client -> front end: serve one admin section.

    Sections (:data:`ADMIN_SECTIONS`): ``prometheus`` (merged
    cluster metrics in exposition format), ``jsonl`` (the merged
    cluster telemetry artifact), ``health`` (JSON shard/breaker
    status plus recent slow queries — what ``repro top`` renders).
    Admin requests bypass admission control and request accounting so
    an operator can scrape an overloaded server, and so two
    back-to-back scrapes are byte-identical.
    """

    section: str

    def __post_init__(self) -> None:
        if self.section not in ADMIN_SECTIONS:
            raise ProtocolError(
                f"unknown admin section {self.section!r}; "
                f"expected one of {ADMIN_SECTIONS}"
            )

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames("admin", [self.section.encode("utf-8")])
        return _encode("admin", {"section": self.section})

    @classmethod
    def from_bytes(cls, data: bytes) -> "AdminRequest":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "admin")
            section = reader.take_str()
            reader.expect_end()
            return cls(section=section)
        payload = _decode(data, "admin")
        return cls(section=str(payload["section"]))


@dataclass(frozen=True)
class AdminResponse:
    """Front end -> client: one admin section's rendering, as bytes."""

    payload: bytes

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames("admin-response", [self.payload])
        return _encode("admin-response", {"payload": self.payload.hex()})

    @classmethod
    def from_bytes(cls, data: bytes) -> "AdminResponse":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "admin-response")
            payload = reader.take()
            reader.expect_end()
            return cls(payload=payload)
        payload = _decode(data, "admin-response")
        return cls(payload=bytes.fromhex(payload["payload"]))
