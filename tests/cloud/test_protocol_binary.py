"""Binary wire framing: roundtrips, codec detection, and JSON
equivalence.

Every message type of the protocol (search, fetch, responses, and the
three update messages plus ack) must roundtrip through the binary
codec, decode from either codec without being told which one was used
(auto-detection off the first byte), and carry exactly the same
semantic content as its JSON encoding — the property tests drive all
of that from generated payloads.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.protocol import (
    BINARY_TAGS,
    CODEC_BINARY,
    CODEC_JSON,
    MULTI_MODES,
    ErrorResponse,
    FileRequest,
    MultiSearchRequest,
    MultiSearchResponse,
    ObservedResponse,
    RankedFilesResponse,
    SearchRequest,
    SearchResponse,
    detect_codec,
    pack_frames,
    pack_multi_score,
    pack_partial_score,
    peek_kind,
    require_codec,
    unpack_multi_score,
    unpack_partial_score,
)
from repro.cloud.updates import (
    AckResponse,
    PutBlobRequest,
    RemoveBlobRequest,
    UpdateListRequest,
)
from repro.errors import ProtocolError

file_ids = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00"),
    min_size=1,
    max_size=20,
)
blobs = st.binary(max_size=256)
pairs = st.tuples(file_ids, blobs)


class TestCodecSelection:
    def test_unknown_codec_rejected(self):
        with pytest.raises(ProtocolError):
            require_codec("msgpack")
        with pytest.raises(ProtocolError):
            SearchRequest(trapdoor_bytes=b"\x01").to_bytes("msgpack")

    def test_detect_json(self):
        data = SearchRequest(trapdoor_bytes=b"\x01").to_bytes(CODEC_JSON)
        assert detect_codec(data) == CODEC_JSON

    def test_detect_binary(self):
        data = SearchRequest(trapdoor_bytes=b"\x01").to_bytes(CODEC_BINARY)
        assert detect_codec(data) == CODEC_BINARY

    def test_detect_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            detect_codec(b"\x00\x01\x02")
        with pytest.raises(ProtocolError):
            detect_codec(b"")

    def test_binary_tags_disjoint_from_json(self):
        # One-byte dispatch is sound: no tag collides with '{' (0x7b).
        assert ord("{") not in BINARY_TAGS.values()
        assert len(set(BINARY_TAGS.values())) == len(BINARY_TAGS)

    def test_peek_kind_reads_one_byte_tag(self):
        data = FileRequest(file_ids=("a",)).to_bytes(CODEC_BINARY)
        # peek_kind on a truncated binary message still answers from
        # the tag byte alone — no full parse.
        assert peek_kind(data[:1]) == "fetch"


class TestBinaryFraming:
    def test_truncated_frame_rejected(self):
        data = SearchRequest(trapdoor_bytes=b"\x01" * 8).to_bytes(
            CODEC_BINARY
        )
        with pytest.raises(ProtocolError):
            SearchRequest.from_bytes(data[:-3])

    def test_truncated_text_fields_rejected_at_every_length(self):
        pairs = (("a", b"\x01" * 12), ("bb", b""), ("ccc", b"\x02" * 3))
        messages = [
            FileRequest(file_ids=("a", "bb", "ccc")),
            # (text, bytes) pairs: the search, multi-search and files
            # responses all decode through ``take_pairs``.
            SearchResponse(matches=pairs, files=pairs[:2]),
            MultiSearchResponse(matches=pairs, files=pairs[1:]),
            RankedFilesResponse(files=pairs),
        ]
        for message in messages:
            data = message.to_bytes(CODEC_BINARY)
            assert type(message).from_bytes(data) == message
            for end in range(1, len(data)):
                with pytest.raises(ProtocolError, match="truncated"):
                    type(message).from_bytes(data[:end])

    def test_non_utf8_text_field_rejected(self):
        data = pack_frames("fetch", [(1).to_bytes(4, "big"), b"\xff"])
        with pytest.raises(ProtocolError, match="malformed text field"):
            FileRequest.from_bytes(data)

    def test_non_utf8_pair_file_id_rejected(self):
        count = (1).to_bytes(4, "big")
        data = pack_frames("files", [count, b"\xff", b"blob"])
        with pytest.raises(ProtocolError, match="malformed text field"):
            RankedFilesResponse.from_bytes(data)

    def test_trailing_bytes_rejected(self):
        data = SearchRequest(trapdoor_bytes=b"\x01").to_bytes(CODEC_BINARY)
        with pytest.raises(ProtocolError):
            SearchRequest.from_bytes(data + b"\x00")

    def test_cross_kind_rejected(self):
        data = FileRequest(file_ids=("a",)).to_bytes(CODEC_BINARY)
        with pytest.raises(ProtocolError):
            SearchRequest.from_bytes(data)

    def test_no_hex_doubling(self):
        blob = b"\xaa" * 1000
        binary = SearchResponse(files=(("d", blob),)).to_bytes(CODEC_BINARY)
        json_encoded = SearchResponse(files=(("d", blob),)).to_bytes(
            CODEC_JSON
        )
        assert len(binary) < len(blob) + 200
        assert len(json_encoded) > 2 * len(blob)


class TestRoundtripProperties:
    """JSON<->binary equivalence for every message type."""

    @settings(max_examples=50)
    @given(
        trapdoor=st.binary(min_size=1, max_size=64),
        top_k=st.one_of(st.none(), st.integers(1, 2**32 - 1)),
        entries_only=st.booleans(),
    )
    def test_search_request(self, trapdoor, top_k, entries_only):
        message = SearchRequest(
            trapdoor_bytes=trapdoor, top_k=top_k, entries_only=entries_only
        )
        for codec in (CODEC_JSON, CODEC_BINARY):
            data = message.to_bytes(codec)
            assert detect_codec(data) == codec
            assert peek_kind(data) == "search"
            assert SearchRequest.from_bytes(data) == message

    @settings(max_examples=50)
    @given(
        matches=st.lists(pairs, max_size=8),
        files=st.lists(pairs, max_size=8),
    )
    def test_search_response(self, matches, files):
        message = SearchResponse(
            matches=tuple(matches), files=tuple(files)
        )
        for codec in (CODEC_JSON, CODEC_BINARY):
            data = message.to_bytes(codec)
            assert peek_kind(data) == "search-response"
            assert SearchResponse.from_bytes(data) == message

    @settings(max_examples=50)
    @given(ids=st.lists(file_ids, max_size=8))
    def test_file_request(self, ids):
        message = FileRequest(file_ids=tuple(ids))
        for codec in (CODEC_JSON, CODEC_BINARY):
            data = message.to_bytes(codec)
            assert peek_kind(data) == "fetch"
            assert FileRequest.from_bytes(data) == message

    @settings(max_examples=50)
    @given(
        payload=st.binary(min_size=1, max_size=64),
        observations=st.lists(
            st.tuples(
                st.binary(max_size=32),
                st.lists(file_ids, max_size=8).map(tuple),
                st.lists(file_ids, max_size=8).map(tuple),
            ),
            max_size=4,
        ),
    )
    def test_observed_response(self, payload, observations):
        message = ObservedResponse(
            payload=payload, observations=tuple(observations)
        )
        for codec in (CODEC_JSON, CODEC_BINARY):
            data = message.to_bytes(codec)
            assert peek_kind(data) == "observed-response"
            assert ObservedResponse.from_bytes(data) == message

    @settings(max_examples=50)
    @given(files=st.lists(pairs, max_size=8))
    def test_ranked_files_response(self, files):
        message = RankedFilesResponse(files=tuple(files))
        for codec in (CODEC_JSON, CODEC_BINARY):
            data = message.to_bytes(codec)
            assert peek_kind(data) == "files"
            assert RankedFilesResponse.from_bytes(data) == message

    @settings(max_examples=50)
    @given(
        token=st.binary(max_size=32),
        address=st.binary(min_size=1, max_size=32),
        entries=st.lists(st.binary(min_size=1, max_size=64), max_size=8),
        mode=st.sampled_from(["append", "replace"]),
    )
    def test_update_list_request(self, token, address, entries, mode):
        message = UpdateListRequest(
            token=token,
            address=address,
            entries=tuple(entries),
            mode=mode,
        )
        for codec in (CODEC_JSON, CODEC_BINARY):
            data = message.to_bytes(codec)
            assert peek_kind(data) == "update-list"
            assert UpdateListRequest.from_bytes(data) == message

    @settings(max_examples=50)
    @given(token=st.binary(max_size=32), pair=pairs)
    def test_put_blob_request(self, token, pair):
        file_id, blob = pair
        message = PutBlobRequest(token=token, file_id=file_id, blob=blob)
        for codec in (CODEC_JSON, CODEC_BINARY):
            data = message.to_bytes(codec)
            assert peek_kind(data) == "put-blob"
            assert PutBlobRequest.from_bytes(data) == message

    @settings(max_examples=50)
    @given(token=st.binary(max_size=32), file_id=file_ids)
    def test_remove_blob_request(self, token, file_id):
        message = RemoveBlobRequest(token=token, file_id=file_id)
        for codec in (CODEC_JSON, CODEC_BINARY):
            data = message.to_bytes(codec)
            assert peek_kind(data) == "remove-blob"
            assert RemoveBlobRequest.from_bytes(data) == message

    @settings(max_examples=50)
    @given(
        trapdoors=st.lists(
            st.binary(min_size=1, max_size=64), min_size=1, max_size=6
        ),
        mode=st.sampled_from(sorted(MULTI_MODES)),
        top_k=st.one_of(st.none(), st.integers(1, 2**32 - 1)),
        partial=st.booleans(),
    )
    def test_multi_search_request(self, trapdoors, mode, top_k, partial):
        message = MultiSearchRequest(
            trapdoors=tuple(trapdoors),
            mode=mode,
            top_k=top_k,
            partial=partial,
        )
        for codec in (CODEC_JSON, CODEC_BINARY):
            data = message.to_bytes(codec)
            assert detect_codec(data) == codec
            assert peek_kind(data) == "multi-search"
            assert MultiSearchRequest.from_bytes(data) == message

    @settings(max_examples=50)
    @given(
        matches=st.lists(pairs, max_size=8),
        files=st.lists(pairs, max_size=8),
    )
    def test_multi_search_response(self, matches, files):
        message = MultiSearchResponse(
            matches=tuple(matches), files=tuple(files)
        )
        for codec in (CODEC_JSON, CODEC_BINARY):
            data = message.to_bytes(codec)
            assert peek_kind(data) == "multi-search-response"
            assert MultiSearchResponse.from_bytes(data) == message

    @settings(max_examples=50)
    @given(ok=st.booleans(), detail=st.text(max_size=40))
    def test_ack_response(self, ok, detail):
        message = AckResponse(ok=ok, detail=detail)
        for codec in (CODEC_JSON, CODEC_BINARY):
            data = message.to_bytes(codec)
            assert peek_kind(data) == "ack"
            assert AckResponse.from_bytes(data) == message


class TestDispatchEdgeCases:
    """Pin the single-byte dispatch path against degenerate payloads.

    ``detect_codec`` and ``peek_kind`` are the very first thing the
    network front end runs on every frame, so their behavior on empty,
    one-byte, and tag-colliding inputs is part of the wire contract.
    """

    def test_empty_payload_rejected_everywhere(self):
        with pytest.raises(ProtocolError):
            detect_codec(b"")
        with pytest.raises(ProtocolError):
            peek_kind(b"")

    def test_single_tag_byte_is_enough_to_peek(self):
        # A one-byte payload carrying a known tag dispatches — the
        # rest of the message is someone else's problem.
        for kind, tag in BINARY_TAGS.items():
            assert detect_codec(bytes([tag])) == CODEC_BINARY
            assert peek_kind(bytes([tag])) == kind

    def test_single_unknown_byte_rejected(self):
        for first in (0x00, 0x41, 0x7A, 0x7C, 0xA0, 0xFF):
            with pytest.raises(ProtocolError):
                detect_codec(bytes([first]))
            with pytest.raises(ProtocolError):
                peek_kind(bytes([first]))

    def test_tag_colliding_first_byte_detects_binary(self):
        # Garbage that merely *starts* with a registered tag byte is
        # classified binary by the one-byte rule; rejecting it is the
        # full parser's job, never the dispatcher's.
        garbage = bytes([BINARY_TAGS["search"]]) + b"\xde\xad\xbe\xef"
        assert detect_codec(garbage) == CODEC_BINARY
        assert peek_kind(garbage) == "search"
        with pytest.raises(ProtocolError):
            SearchRequest.from_bytes(garbage)

    def test_json_payload_must_carry_string_kind(self):
        with pytest.raises(ProtocolError):
            peek_kind(b"{}")
        with pytest.raises(ProtocolError):
            peek_kind(b'{"kind": 7}')
        with pytest.raises(ProtocolError):
            peek_kind(b'{"kind": null}')
        with pytest.raises(ProtocolError):
            peek_kind(b"{not json")
        assert peek_kind(b'{"kind": "search"}') == "search"

    def test_json_array_rejected(self):
        # '[' is not '{': arrays never reach the JSON kind probe.
        with pytest.raises(ProtocolError):
            detect_codec(b'["kind", "search"]')


class TestMultiSearchValidation:
    """Construction and framing rules for the multi-keyword messages."""

    def test_empty_trapdoors_rejected(self):
        with pytest.raises(ProtocolError):
            MultiSearchRequest(trapdoors=())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ProtocolError):
            MultiSearchRequest(trapdoors=(b"\x01",), mode="xor")

    def test_bad_top_k_rejected(self):
        with pytest.raises(ProtocolError):
            MultiSearchRequest(trapdoors=(b"\x01",), top_k=0)
        with pytest.raises(ProtocolError):
            MultiSearchRequest(trapdoors=(b"\x01",), top_k=-3)

    def test_truncated_binary_frame_rejected(self):
        data = MultiSearchRequest(
            trapdoors=(b"\x01" * 8, b"\x02" * 8), top_k=4
        ).to_bytes(CODEC_BINARY)
        with pytest.raises(ProtocolError):
            MultiSearchRequest.from_bytes(data[:-3])

    def test_trailing_bytes_rejected(self):
        data = MultiSearchRequest(trapdoors=(b"\x01",)).to_bytes(
            CODEC_BINARY
        )
        with pytest.raises(ProtocolError):
            MultiSearchRequest.from_bytes(data + b"\x00")

    def test_cross_kind_rejected(self):
        data = SearchRequest(trapdoor_bytes=b"\x01").to_bytes(CODEC_BINARY)
        with pytest.raises(ProtocolError):
            MultiSearchRequest.from_bytes(data)
        multi = MultiSearchRequest(trapdoors=(b"\x01",)).to_bytes(
            CODEC_BINARY
        )
        with pytest.raises(ProtocolError):
            SearchRequest.from_bytes(multi)

    @settings(max_examples=50)
    @given(total=st.integers(0, 2**64 - 1))
    def test_multi_score_roundtrip(self, total):
        packed = pack_multi_score(total)
        assert len(packed) == 8
        assert unpack_multi_score(packed) == total

    @settings(max_examples=50)
    @given(
        total=st.integers(0, 2**64 - 1),
        terms=st.integers(1, 2**32 - 1),
    )
    def test_partial_score_roundtrip(self, total, terms):
        packed = pack_partial_score(total, terms)
        assert len(packed) == 12
        assert unpack_partial_score(packed) == (total, terms)

    def test_score_packing_rejects_out_of_range(self):
        with pytest.raises(ProtocolError):
            pack_multi_score(-1)
        with pytest.raises(ProtocolError):
            pack_multi_score(2**64)
        with pytest.raises(ProtocolError):
            pack_partial_score(1, 0)
        with pytest.raises(ProtocolError):
            unpack_multi_score(b"\x00" * 7)
        with pytest.raises(ProtocolError):
            unpack_partial_score(b"\x00" * 8)


class TestErrorResponseRoundtrip:
    @settings(max_examples=50)
    @given(
        code=st.text(
            alphabet=st.characters(codec="utf-8"), min_size=1, max_size=40
        ),
        detail=st.text(max_size=80),
        shard=st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
    )
    def test_roundtrip_both_codecs(self, code, detail, shard):
        message = ErrorResponse(code=code, detail=detail, shard=shard)
        for codec in (CODEC_JSON, CODEC_BINARY):
            data = message.to_bytes(codec)
            assert detect_codec(data) == codec
            assert peek_kind(data) == "error"
            assert ErrorResponse.from_bytes(data) == message

    def test_shard_none_survives(self):
        message = ErrorResponse(code="TransportError")
        for codec in (CODEC_JSON, CODEC_BINARY):
            restored = ErrorResponse.from_bytes(message.to_bytes(codec))
            assert restored.shard is None
            assert restored.detail == ""

    def test_malformed_shard_field_rejected(self):
        good = ErrorResponse(
            code="ShardDownError", shard=3
        ).to_bytes(CODEC_BINARY)
        # Stretch the shard field to an invalid width (must be 0 or 4
        # bytes): the last field is length-prefixed, so rewrite it.
        bad = good[:-4] + (5).to_bytes(4, "big")[-4:]
        truncated = bad[: len(bad) - 4] + (2).to_bytes(4, "big") + b"\x00\x01"
        with pytest.raises(ProtocolError):
            ErrorResponse.from_bytes(truncated)
