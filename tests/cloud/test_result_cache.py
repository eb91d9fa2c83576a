"""Unit and equivalence tests for the hot-query result cache.

Covers the cache plumbing underneath the fast lane, bottom-up:

* :class:`~repro.cloud.cache.LruCache` in **bytes mode** — budget
  accounting, LRU eviction under the byte budget, oversize refusal
  (including dropping the stale entry an oversize put meant to
  replace);
* :class:`~repro.cloud.cache.ResultCache` — keying, epoch stamps,
  bump-based invalidation, and the stale-on-arrival guarantee for
  fills that race a mutation;
* :class:`~repro.cloud.cluster.ClusterServer`'s result-cache layer —
  byte-identical to the cache-off cluster at 1 and 4 shards, in both
  codecs, through an interleaved insert/remove cycle (every update is
  fanned to the cached *and* the uncached deployment, since each
  snapshots the index at construction);
* multi-keyword requests through the cluster's cache layer
  (``partial`` responses are never cached);
* update invalidation of the ranked posting-list cache over the
  packed mmap store, against a server with caching off.
"""

import random

import pytest

from repro.cloud import Channel, CloudServer, DataOwner
from repro.cloud.cache import CachedResult, LruCache, ResultCache
from repro.cloud.cluster import ClusterServer
from repro.cloud.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    MODE_CONJUNCTIVE,
    MODE_DISJUNCTIVE,
    MultiSearchRequest,
    SearchRequest,
)
from repro.cloud.storage import BlobStore
from repro.cloud.store import PackedStore, pack_index
from repro.cloud.updates import RemoteIndexMaintainer
from repro.core import EfficientRSSE, TEST_PARAMETERS
from repro.corpus.loader import Document
from repro.errors import ParameterError

VOCAB = [f"term{i:02d}" for i in range(16)]
NUM_SHARDS = 4
TOKEN = b"result-cache-token"
CODECS = (CODEC_JSON, CODEC_BINARY)
CACHE_BYTES = 4 << 20


def build_world(seed: int = 11, docs: int = 18):
    """A fresh outsourced deployment (private per mutating test)."""
    scheme = EfficientRSSE(TEST_PARAMETERS)
    owner = DataOwner(scheme)
    rng = random.Random(seed)
    documents = [
        Document(
            doc_id=f"doc{i:02d}",
            title=f"doc {i}",
            text=" ".join(rng.choice(VOCAB) for _ in range(30)),
        )
        for i in range(docs)
    ]
    outsourcing = owner.setup(documents)
    return scheme, owner, outsourcing


def search_frames(scheme, owner, codec, keywords=VOCAB, top_k=5):
    return [
        SearchRequest(
            trapdoor_bytes=scheme.trapdoor(
                owner.key, owner.analyzer.analyze_query(keyword)
            ).serialize(),
            top_k=top_k,
        ).to_bytes(codec)
        for keyword in keywords
    ]


@pytest.fixture(scope="module")
def world():
    """One shared deployment for the read-only equivalence tests."""
    return build_world()


@pytest.fixture(scope="module")
def golden(world):
    scheme, owner, _ = world
    frames = []
    for codec in CODECS:
        frames.extend(search_frames(scheme, owner, codec))
    return frames


class TestLruBytesMode:
    def test_needs_some_capacity(self):
        with pytest.raises(ParameterError):
            LruCache(capacity=None, capacity_bytes=None)
        with pytest.raises(ParameterError):
            LruCache(capacity=None, capacity_bytes=0)

    def test_byte_budget_evicts_lru_first(self):
        cache = LruCache(capacity=None, capacity_bytes=10)
        cache.put(b"a", b"xxxx")
        cache.put(b"b", b"yyyy")
        assert cache.get(b"a") == b"xxxx"  # touch a: b is now LRU
        cache.put(b"c", b"zzzz")
        assert b"b" not in cache
        assert cache.keys() == [b"a", b"c"]
        assert cache.resident_bytes == 8
        assert cache.evictions == 1

    def test_resident_bytes_tracks_replacement(self):
        cache = LruCache(capacity=None, capacity_bytes=100)
        cache.put(b"k", b"x" * 40)
        assert cache.resident_bytes == 40
        cache.put(b"k", b"x" * 10)
        assert cache.resident_bytes == 10
        cache.pop(b"k")
        assert cache.resident_bytes == 0

    def test_oversize_value_is_refused_and_drops_stale_entry(self):
        cache = LruCache(capacity=None, capacity_bytes=8)
        cache.put(b"k", b"old")
        cache.put(b"k", b"x" * 9)  # over the whole budget
        assert b"k" not in cache
        assert cache.oversize_rejections == 1
        assert cache.resident_bytes == 0

    def test_growing_a_resident_entry_can_evict_others(self):
        cache = LruCache(capacity=None, capacity_bytes=10)
        cache.put(b"a", b"xxx")
        cache.put(b"b", b"yyy")
        cache.put(b"b", b"y" * 8)  # a (LRU) must go to make room
        assert b"a" not in cache
        assert cache.get(b"b") == b"y" * 8
        assert cache.resident_bytes == 8

    def test_entries_and_bytes_bounds_compose(self):
        cache = LruCache(capacity=2, capacity_bytes=1000)
        for key in (b"a", b"b", b"c"):
            cache.put(key, b"v")
        assert len(cache) == 2
        assert cache.resident_bytes == 2


class TestResultCacheUnit:
    def test_key_is_per_codec_and_per_frame(self):
        key = ResultCache.key_for(CODEC_JSON, b"frame")
        assert key == ResultCache.key_for(CODEC_JSON, b"frame")
        assert key != ResultCache.key_for(CODEC_BINARY, b"frame")
        assert key != ResultCache.key_for(CODEC_JSON, b"other")

    def test_put_get_roundtrip_carries_payload(self):
        cache = ResultCache(1024, num_shards=4)
        key = ResultCache.key_for(CODEC_JSON, b"req")
        stamps = cache.stamp((2,))
        cache.put(key, stamps, b"resp", payload=("obs",))
        entry = cache.get(key)
        assert isinstance(entry, CachedResult)
        assert entry.frame == b"resp"
        assert entry.payload == ("obs",)
        assert cache.stats()["hits"] == 1

    def test_bump_invalidates_only_stamped_shards(self):
        cache = ResultCache(1024, num_shards=4)
        key_a = ResultCache.key_for(CODEC_JSON, b"a")
        key_b = ResultCache.key_for(CODEC_JSON, b"b")
        cache.put(key_a, cache.stamp((0,)), b"ra")
        cache.put(key_b, cache.stamp((3,)), b"rb")
        cache.bump(0)
        assert cache.get(key_a) is None
        assert cache.get(key_b).frame == b"rb"
        cache.bump(None)
        assert cache.get(key_b) is None
        assert cache.stats()["invalidations"] == 2
        assert cache.resident_bytes == 0  # dead frames swept eagerly

    def test_racing_fill_lands_dead_on_arrival(self):
        cache = ResultCache(1024, num_shards=2)
        key = ResultCache.key_for(CODEC_BINARY, b"req")
        stamps = cache.stamp((1,))  # taken before dispatch ...
        cache.bump(1)  # ... mutation lands while the fill is in flight
        cache.put(key, stamps, b"stale")
        assert cache.get(key) is None

    def test_byte_budget_bounds_resident_frames(self):
        cache = ResultCache(100, num_shards=1)
        for index in range(10):
            key = ResultCache.key_for(CODEC_JSON, bytes([index]))
            cache.put(key, cache.stamp((0,)), b"x" * 40)
        assert cache.resident_bytes <= 100
        assert len(cache) == 2


class TestClusterEquivalence:
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("shards", (1, NUM_SHARDS))
    def test_interleaved_updates_byte_identical(self, shards, codec):
        scheme, owner, outsourcing = build_world(seed=23)
        with ClusterServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=True,
            num_shards=shards,
            cache_searches=True,
            update_token=TOKEN,
        ) as plain, ClusterServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=True,
            num_shards=shards,
            cache_searches=True,
            update_token=TOKEN,
            result_cache_bytes=CACHE_BYTES,
        ) as cached:

            def fan_out(frame: bytes) -> bytes:
                response = cached.handle(frame)
                plain.handle(frame)
                return response

            maintainer = RemoteIndexMaintainer(
                owner, Channel(fan_out), TOKEN, codec=codec
            )
            frames = search_frames(scheme, owner, codec, VOCAB[:8])

            def check() -> list[bytes]:
                snapshot = []
                for frame in frames:
                    expected = plain.handle(frame)
                    assert cached.handle(frame) == expected
                    assert cached.handle(frame) == expected  # hit path
                    snapshot.append(expected)
                return snapshot

            before = check()
            assert cached.result_cache is not None
            assert cached.result_cache.stats()["hits"] > 0
            maintainer.insert_document(
                Document(
                    doc_id="doc-new",
                    title="new",
                    text=f"{VOCAB[0]} {VOCAB[0]} {VOCAB[2]}",
                )
            )
            after_insert = check()
            assert after_insert != before
            maintainer.remove_document("doc-new")
            assert check() == before

    @pytest.mark.parametrize("mode", (MODE_CONJUNCTIVE, MODE_DISJUNCTIVE))
    def test_multi_search_transparent_through_cache_layer(self, world, mode):
        """Multi-search bypasses the cluster's result cache (it is cached
        at the NetServer front end, which owns the shard fan-out) — the
        cache layer must stay byte-transparent for it, and ``partial``
        responses must never land in the cache."""
        scheme, owner, outsourcing = world
        queries = [VOCAB[:2], VOCAB[2:5], VOCAB[5:7]]

        def multi_frame(terms, partial=False):
            return MultiSearchRequest(
                trapdoors=tuple(
                    scheme.trapdoor(
                        owner.key, owner.analyzer.analyze_query(term)
                    ).serialize()
                    for term in terms
                ),
                mode=mode,
                top_k=4,
                partial=partial,
            ).to_bytes(CODEC_BINARY)

        with ClusterServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=True,
            num_shards=NUM_SHARDS,
            cache_searches=True,
        ) as plain, ClusterServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=True,
            num_shards=NUM_SHARDS,
            cache_searches=True,
            result_cache_bytes=CACHE_BYTES,
        ) as cached:
            for terms in queries:
                frame = multi_frame(terms)
                expected = plain.handle(frame)
                assert cached.handle(frame) == expected
                assert cached.handle(frame) == expected
            entries_before = cached.result_cache.stats()["entries"]
            # A partial=True response carries protected per-term fields
            # for client-side coverage accounting — never cached.
            partial_frame = multi_frame(VOCAB[:3], partial=True)
            assert cached.handle(partial_frame) == plain.handle(
                partial_frame
            )
            assert (
                cached.result_cache.stats()["entries"] == entries_before
            )


class TestPackedStoreEquivalence:
    def test_interleaved_updates_over_packed_store(self, tmp_path):
        scheme, owner, outsourcing = build_world(seed=31, docs=10)

        def deployment(name, cache_searches):
            path = pack_index(
                outsourcing.secure_index, tmp_path / f"{name}.rpk"
            )
            store = PackedStore(path)
            blobs = BlobStore()
            for file_id in outsourcing.blob_store.ids():
                blobs.put(file_id, outsourcing.blob_store.get(file_id))
            return store, CloudServer(
                store,
                blobs,
                can_rank=True,
                cache_searches=cache_searches,
                update_token=TOKEN,
            )

        plain_store, plain = deployment("plain", cache_searches=False)
        cached_store, cached = deployment("cached", cache_searches=True)
        with plain_store, cached_store:

            def fan_out(frame: bytes) -> bytes:
                response = cached.handle(frame)
                plain.handle(frame)
                return response

            maintainer = RemoteIndexMaintainer(owner, Channel(fan_out), TOKEN)
            frames = search_frames(scheme, owner, CODEC_BINARY, VOCAB[:6])

            def check() -> list[bytes]:
                snapshot = []
                for frame in frames:
                    expected = plain.handle(frame)
                    assert cached.handle(frame) == expected
                    assert cached.handle(frame) == expected
                    snapshot.append(expected)
                return snapshot

            before = check()
            maintainer.insert_document(
                Document(
                    doc_id="doc-new",
                    title="new",
                    text=f"{VOCAB[1]} {VOCAB[1]} {VOCAB[3]}",
                )
            )
            assert check() != before
            maintainer.remove_document("doc-new")
            assert check() == before
