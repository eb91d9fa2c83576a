"""Tests for the packed on-disk storage engine (:mod:`repro.cloud.store`).

Covers the packed file format (writers, mmap reader, corruption
rejection), the mutable :class:`PackedStore` (delta log replay,
compaction), and the acceptance property that search responses are
byte-identical between the dict-backed :class:`SecureIndex` and the
mmap-backed store on the same corpus and key — for a single
:class:`CloudServer` and for a sharded :class:`ClusterServer` built
with :meth:`ShardedIndex.from_stores`.
"""

import random

import pytest

from repro.cloud import Channel, CloudServer, DataOwner, DataUser
from repro.cloud.cluster import ClusterServer, ShardedIndex, shard_for_address
from repro.cloud.protocol import SearchRequest
from repro.cloud.storage import BlobStore
from repro.cloud.store import (
    HEADER_BYTES,
    PackedIndexStore,
    PackedIndexWriter,
    PackedStore,
    SpillingPackWriter,
    load_packed_index,
    pack_index,
)
from repro.cloud.updates import RemoteIndexMaintainer
from repro.core import EfficientRSSE, TEST_PARAMETERS
from repro.core.secure_index import EntryLayout, SecureIndex
from repro.corpus import generate_corpus
from repro.errors import IndexError_, ParameterError

LAYOUT = EntryLayout(zero_pad_bytes=2, file_id_bytes=8, score_bytes=3)
WIDTH = LAYOUT.ciphertext_bytes
TOKEN = b"owner-update-token"


def make_entries(rng, count):
    return [rng.randbytes(WIDTH) for _ in range(count)]


def make_lists(seed, num_lists, max_entries=9):
    rng = random.Random(seed)
    lists = {}
    for i in range(num_lists):
        address = b"addr-%04d" % i
        lists[address] = make_entries(rng, rng.randint(1, max_entries))
    return lists


def write_packed(path, lists, padded_length=None):
    with PackedIndexWriter(path, LAYOUT, padded_length) as writer:
        for address in sorted(lists):
            writer.write_list(address, lists[address])
    return path


@pytest.fixture(scope="module")
def corpus_world():
    documents = generate_corpus(16, seed=61, vocabulary_size=150)
    scheme = EfficientRSSE(TEST_PARAMETERS)
    owner = DataOwner(scheme)
    outsourcing = owner.setup(documents[:12])
    return documents, scheme, owner, outsourcing


class TestPackedFileFormat:
    def test_empty_index_roundtrip(self, tmp_path):
        path = write_packed(tmp_path / "empty.rpk", {})
        with PackedIndexStore(path) as store:
            assert store.num_lists == 0
            assert store.total_entries == 0
            assert list(store.addresses()) == []
            assert list(store.items()) == []
            assert store.lookup(b"anything") is None
            with pytest.raises(IndexError_, match="empty"):
                store.average_list_size_bytes()
        index = load_packed_index(path)
        assert index.num_lists == 0

    def test_single_term_roundtrip(self, tmp_path):
        entries = make_entries(random.Random(7), 5)
        path = write_packed(tmp_path / "one.rpk", {b"only-term": entries})
        with PackedIndexStore(path) as store:
            assert store.num_lists == 1
            assert list(store.addresses()) == [b"only-term"]
            assert store.lookup(b"only-term") == entries
            assert store.lookup(b"other") is None

    def test_many_lists_roundtrip(self, tmp_path):
        lists = make_lists(11, 40)
        path = write_packed(tmp_path / "many.rpk", lists)
        with PackedIndexStore(path) as store:
            assert store.num_lists == len(lists)
            assert dict(store.items()) == lists
            assert store.total_entries == sum(
                len(v) for v in lists.values()
            )

    def test_writer_pads_like_secure_index(self, tmp_path):
        rng = random.Random(3)
        entries = make_entries(rng, 2)
        path = tmp_path / "padded.rpk"
        with PackedIndexWriter(path, LAYOUT, padded_length=5) as writer:
            writer.write_list(b"term", entries)
        with PackedIndexStore(path) as store:
            assert store.padded_length == 5
            stored = store.lookup(b"term")
            assert len(stored) == 5
            assert stored[:2] == entries
            assert all(len(e) == WIDTH for e in stored)

    def test_writer_requires_ascending_addresses(self, tmp_path):
        writer = PackedIndexWriter(tmp_path / "x.rpk", LAYOUT)
        writer.write_list(b"bbb", make_entries(random.Random(1), 1))
        with pytest.raises(IndexError_, match="ascending"):
            writer.write_list(b"aaa", make_entries(random.Random(2), 1))
        with pytest.raises(IndexError_, match="ascending"):
            writer.write_list(b"bbb", make_entries(random.Random(3), 1))
        writer.close()

    def test_writer_rejects_bad_input(self, tmp_path):
        writer = PackedIndexWriter(tmp_path / "x.rpk", LAYOUT)
        with pytest.raises(ParameterError, match="address"):
            writer.write_list(b"", [b"\x00" * WIDTH])
        with pytest.raises(ParameterError, match="width"):
            writer.write_list(b"term", [b"\x00" * (WIDTH - 1)])
        writer.close()
        with pytest.raises(IndexError_, match="closed"):
            writer.write_list(b"term", [b"\x00" * WIDTH])

    def test_spilling_writer_matches_sorted_writer(self, tmp_path):
        lists = make_lists(23, 30)
        reference = write_packed(tmp_path / "sorted.rpk", lists)
        shuffled = list(lists)
        random.Random(5).shuffle(shuffled)
        writer = SpillingPackWriter(
            tmp_path / "spilled.rpk", LAYOUT, run_entries=17
        )
        for address in shuffled:
            writer.add_list(address, lists[address])
        assert writer.runs_spilled > 1
        writer.close()
        assert (
            (tmp_path / "spilled.rpk").read_bytes()
            == reference.read_bytes()
        )

    def test_spilling_writer_rejects_duplicates(self, tmp_path):
        with SpillingPackWriter(tmp_path / "x.rpk", LAYOUT) as writer:
            writer.add_list(b"term", make_entries(random.Random(1), 1))
            with pytest.raises(IndexError_, match="duplicate"):
                writer.add_list(b"term", make_entries(random.Random(2), 1))


class TestCorruptionRejection:
    @pytest.fixture()
    def packed(self, tmp_path):
        return write_packed(tmp_path / "good.rpk", make_lists(31, 12))

    def test_truncated_header(self, tmp_path, packed):
        bad = tmp_path / "trunc.rpk"
        bad.write_bytes(packed.read_bytes()[: HEADER_BYTES - 1])
        with pytest.raises(IndexError_, match="truncated"):
            PackedIndexStore(bad)

    def test_bad_magic(self, tmp_path, packed):
        data = bytearray(packed.read_bytes())
        data[:4] = b"XXXX"
        bad = tmp_path / "magic.rpk"
        bad.write_bytes(bytes(data))
        with pytest.raises(IndexError_, match="magic"):
            PackedIndexStore(bad)

    def test_bad_version(self, tmp_path, packed):
        data = bytearray(packed.read_bytes())
        data[4:6] = (99).to_bytes(2, "big")
        bad = tmp_path / "version.rpk"
        bad.write_bytes(bytes(data))
        with pytest.raises(IndexError_, match="version"):
            PackedIndexStore(bad)

    def test_truncated_body(self, tmp_path, packed):
        data = packed.read_bytes()
        bad = tmp_path / "body.rpk"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(IndexError_):
            PackedIndexStore(bad)

    def test_tampered_trailer(self, tmp_path, packed):
        data = bytearray(packed.read_bytes())
        data[-1] ^= 0xFF
        bad = tmp_path / "trailer.rpk"
        bad.write_bytes(bytes(data))
        with pytest.raises(IndexError_):
            PackedIndexStore(bad)

    def test_eager_loader_rejects_corruption_too(self, tmp_path, packed):
        bad = tmp_path / "eager.rpk"
        bad.write_bytes(b"RPKJ" + packed.read_bytes()[4:])
        with pytest.raises(IndexError_, match="magic"):
            load_packed_index(bad)


class TestPackIndexHelpers:
    def test_pack_and_eager_load_roundtrip(self, tmp_path, corpus_world):
        _, _, _, outsourcing = corpus_world
        index = outsourcing.secure_index
        path = pack_index(index, tmp_path / "corpus.rpk")
        restored = load_packed_index(path)
        assert isinstance(restored, SecureIndex)
        assert restored.layout == index.layout
        assert restored.padded_length == index.padded_length
        assert dict(restored.items()) == dict(index.items())

    def test_mmap_store_matches_dict_items(self, tmp_path, corpus_world):
        _, _, _, outsourcing = corpus_world
        index = outsourcing.secure_index
        path = pack_index(index, tmp_path / "corpus.rpk")
        with PackedIndexStore(path) as store:
            assert dict(store.items()) == dict(index.items())
            assert store.to_secure_index().size_bytes() == index.size_bytes()


class TestByteIdenticalServing:
    """The PR's acceptance property: dict vs mmap responses match."""

    def test_cloud_server_responses_identical(self, tmp_path, corpus_world):
        _, scheme, owner, outsourcing = corpus_world
        path = pack_index(outsourcing.secure_index, tmp_path / "idx.rpk")
        dict_server = CloudServer(
            outsourcing.secure_index, outsourcing.blob_store, can_rank=True,
            cache_searches=False,
        )
        with PackedStore(path) as store:
            mmap_server = CloudServer(
                store, outsourcing.blob_store, can_rank=True,
                cache_searches=False,
            )
            for word in ("network", "protocol", "router", "gateway"):
                trapdoor = scheme.trapdoor(owner.key, word)
                request = SearchRequest(
                    trapdoor_bytes=trapdoor.serialize(), top_k=5
                ).to_bytes()
                assert dict_server.handle(request) == mmap_server.handle(
                    request
                )

    def test_cluster_server_over_packed_shards(self, tmp_path, corpus_world):
        _, scheme, owner, outsourcing = corpus_world
        index = outsourcing.secure_index
        num_shards = 2
        writers = [
            SpillingPackWriter(
                tmp_path / f"shard-{i}.rpk", index.layout,
                index.padded_length,
            )
            for i in range(num_shards)
        ]
        for address, entries in index.items():
            writers[shard_for_address(address, num_shards)].add_list(
                address, entries
            )
        for writer in writers:
            writer.close()
        stores = [
            PackedStore(tmp_path / f"shard-{i}.rpk")
            for i in range(num_shards)
        ]
        sharded = ShardedIndex.from_stores(stores)
        single = CloudServer(
            index, outsourcing.blob_store, can_rank=True,
            cache_searches=False,
        )
        with ClusterServer(
            sharded, outsourcing.blob_store, can_rank=True,
            cache_searches=False,
        ) as cluster:
            for word in ("network", "protocol", "router"):
                trapdoor = scheme.trapdoor(owner.key, word)
                request = SearchRequest(
                    trapdoor_bytes=trapdoor.serialize(), top_k=5
                ).to_bytes()
                assert cluster.handle(request) == single.handle(request)
        for store in stores:
            store.close()


class TestPackedStoreDeltas:
    @pytest.fixture()
    def base(self, tmp_path):
        lists = make_lists(41, 10)
        path = write_packed(tmp_path / "base.rpk", lists)
        return path, lists

    def test_add_and_replace_visible_and_durable(self, base):
        path, lists = base
        rng = random.Random(9)
        added = make_entries(rng, 3)
        replaced = make_entries(rng, 2)
        victim = sorted(lists)[0]
        with PackedStore(path) as store:
            store.add_list(b"new-term", added)
            store.replace_list(victim, replaced)
            assert store.lookup(b"new-term") == added
            assert store.lookup(victim) == replaced
            assert b"new-term" in store
            assert store.pending_delta_records == 2
            expected = dict(store.items())
        with PackedStore(path) as store:
            assert store.pending_delta_records == 2
            assert store.lookup(b"new-term") == added
            assert store.lookup(victim) == replaced
            assert dict(store.items()) == expected

    def test_mutation_error_parity_with_secure_index(self, base):
        path, lists = base
        victim = sorted(lists)[0]
        with PackedStore(path) as store:
            with pytest.raises(IndexError_, match="duplicate"):
                store.add_list(victim, make_entries(random.Random(1), 1))
            with pytest.raises(IndexError_, match="missing"):
                store.replace_list(
                    b"ghost", make_entries(random.Random(2), 1)
                )
            with pytest.raises(ParameterError, match="width"):
                store.add_list(b"short", [b"\x00" * (WIDTH - 1)])

    def test_compact_folds_delta_and_truncates_log(self, base):
        path, lists = base
        rng = random.Random(13)
        with PackedStore(path) as store:
            store.add_list(b"delta-term", make_entries(rng, 4))
            store.replace_list(sorted(lists)[1], make_entries(rng, 2))
            before = dict(store.items())
            assert store.compact() == 2
            assert store.pending_delta_records == 0
            assert dict(store.items()) == before
        with PackedStore(path) as store:
            assert store.pending_delta_records == 0
            assert dict(store.items()) == before
            assert store.compact() == 0

    def test_reload_after_delta_append_without_compaction(self, base):
        path, lists = base
        rng = random.Random(17)
        entries = make_entries(rng, 2)
        with PackedStore(path) as store:
            store.add_list(b"uncompacted", entries)
        with PackedIndexStore(path) as raw_base:
            # The base file is untouched until compaction.
            assert raw_base.lookup(b"uncompacted") is None
        with PackedStore(path) as store:
            assert store.lookup(b"uncompacted") == entries

    def test_append_logs_only_new_entries(self, base):
        path, lists = base
        victim = sorted(lists)[2]
        delta = path.with_name(path.name + ".delta")
        added = make_entries(random.Random(23), 2)
        with PackedStore(path) as store:
            store.add_list(b"warm-up", make_entries(random.Random(3), 1))
            logged = delta.stat().st_size
            fresh = store.append_entries(victim, lists[victim][:1] + added)
            assert fresh == added
            # u32 length || op || u16 + address || u32 count || entries
            record = 4 + 1 + 2 + len(victim) + 4 + len(added) * WIDTH
            assert delta.stat().st_size == logged + record
            assert store.append_entries(victim, added) == []
            assert delta.stat().st_size == logged + record
            assert store.lookup(victim) == lists[victim] + added
            live = dict(store.items())
        with PackedStore(path) as store:
            assert dict(store.items()) == live

    @pytest.mark.parametrize("kind", ("dict", "sharded", "packed"))
    def test_append_entries_parity_across_stores(self, base, kind):
        path, lists = base
        if kind == "packed":
            store = PackedStore(path)
        else:
            store = SecureIndex(LAYOUT)
            for address in sorted(lists):
                store.add_list(address, list(lists[address]))
            if kind == "sharded":
                store = ShardedIndex.from_secure_index(store, 3)
        victim = sorted(lists)[0]
        added = make_entries(random.Random(29), 2)
        assert store.append_entries(victim, lists[victim] + added) == added
        assert store.append_entries(victim, added) == []
        assert store.lookup(victim) == lists[victim] + added
        with pytest.raises(IndexError_, match="missing"):
            store.append_entries(b"ghost", added)
        with pytest.raises(ParameterError, match="width"):
            store.append_entries(victim, [b"\x00" * (WIDTH - 1)])
        if kind == "packed":
            store.close()

    def test_compaction_crash_window_replays_to_same_store(self, base):
        """A crash after the swap but before the log unlink is harmless.

        The folded log then sits beside the compacted base; replaying
        it must rebuild exactly the live store — no duplicated append
        entries, no double-counted added lists.
        """
        path, lists = base
        rng = random.Random(31)
        delta = path.with_name(path.name + ".delta")
        addresses = sorted(lists)
        with PackedStore(path) as store:
            store.add_list(b"crash-new", make_entries(rng, 2))
            store.append_entries(b"crash-new", make_entries(rng, 1))
            store.append_entries(addresses[0], make_entries(rng, 2))
            store.replace_list(addresses[1], make_entries(rng, 3))
            store.append_entries(addresses[1], make_entries(rng, 1))
            folded_log = delta.read_bytes()
            store.compact()
            live = dict(store.items())
            num_lists = store.num_lists
            size = store.size_bytes()
        delta.write_bytes(folded_log)
        with PackedStore(path) as reopened:
            assert dict(reopened.items()) == live
            assert reopened.num_lists == num_lists
            assert reopened.size_bytes() == size

    def test_log_of_add_and_replace_records_still_replays(self, base):
        """A log with only op 1/2 records (no appends) reads as before."""
        path, lists = base
        rng = random.Random(37)
        victim = sorted(lists)[3]
        added, replaced = make_entries(rng, 2), make_entries(rng, 1)

        def record(op, address, entries):
            body = (
                bytes([op]) + len(address).to_bytes(2, "big") + address
                + len(entries).to_bytes(4, "big") + b"".join(entries)
            )
            return len(body).to_bytes(4, "big") + body

        path.with_name(path.name + ".delta").write_bytes(
            b"RPKD\x00\x01\x00\x00"
            + record(1, b"logged-new", added)
            + record(2, victim, replaced)
        )
        with PackedStore(path) as store:
            assert store.pending_delta_records == 2
            assert store.lookup(b"logged-new") == added
            assert store.lookup(victim) == replaced
            assert store.num_lists == len(lists) + 1
            expected = {**lists, b"logged-new": added, victim: replaced}
            assert dict(store.items()) == expected
            assert store.size_bytes() == WIDTH * sum(
                len(entries) for entries in expected.values()
            )

    def test_truncated_delta_log_rejected(self, base):
        path, lists = base
        with PackedStore(path) as store:
            store.add_list(b"torn", make_entries(random.Random(19), 2))
        delta = path.with_name(path.name + ".delta")
        data = delta.read_bytes()
        delta.write_bytes(data[:-3])
        with pytest.raises(IndexError_, match="truncated"):
            PackedStore(path)


class TestUpdateProtocolOverPackedStore:
    def test_remote_insert_then_compact_and_reload(
        self, tmp_path, corpus_world
    ):
        documents, scheme, owner, outsourcing = corpus_world
        path = pack_index(outsourcing.secure_index, tmp_path / "live.rpk")
        store = PackedStore(path)
        server = CloudServer(
            store, outsourcing.blob_store, can_rank=True,
            cache_searches=True, update_token=TOKEN,
        )
        maintainer = RemoteIndexMaintainer(
            owner, Channel(server.handle), TOKEN
        )
        user = DataUser(
            scheme, owner.authorize_user(), Channel(server.handle),
            owner.analyzer,
        )
        new_doc = documents[12]
        report = maintainer.insert_document(new_doc)
        assert report.lists_touched > 0
        hits = user.search_ranked_topk("network", 100)
        assert new_doc.doc_id in {hit.file_id for hit in hits}
        assert store.pending_delta_records > 0
        assert store.compact() > 0
        store.close()
        # A fresh process sees the acknowledged update in the base file.
        with PackedStore(path) as reopened:
            assert reopened.pending_delta_records == 0
            server = CloudServer(
                reopened, outsourcing.blob_store, can_rank=True,
                cache_searches=False,
            )
            user = DataUser(
                scheme, owner.authorize_user(), Channel(server.handle),
                owner.analyzer,
            )
            hits = user.search_ranked_topk("network", 100)
            assert new_doc.doc_id in {hit.file_id for hit in hits}
