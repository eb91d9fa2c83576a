"""TCP loopback tests for the hot-query fast lane.

Proves the :class:`~repro.cloud.netserve.NetServer` front-end result
cache over real sockets:

* responses are byte-identical with the cache on and off, in both
  codecs, for single- and multi-keyword queries, through an
  interleaved insert/remove cycle (every update frame is fanned to the
  cached *and* the uncached deployment, since each worker set owns a
  private copy of the index);
* a pipelined burst of identical cold queries collapses to one worker
  round trip behind the single-flight leader, proven by the cache's
  own counters (``misses`` counts actual worker dispatches);
* front-end cache hits still record leakage events, so the curious
  server's log rebuilt from the exported event stream
  (:func:`repro.analysis.leakage.server_log_from_events`) keeps exact
  search- and access-pattern counts — one observation per answered
  query, hit or miss;
* without a leakage log (``obs=None``) fills send the bare client
  frame, with no observation envelope, and cache entries hold no
  observations;
* the admin health document reports the cache's counters.
"""

import json
import random
from collections import Counter

import pytest

from repro.analysis.leakage import server_log_from_events
from repro.cloud.cache import ResultCache
from repro.cloud.cluster import ClusterServer
from repro.cloud.netserve import NetServer, NetworkChannel, _WorkerHandle
from repro.cloud.network import Channel
from repro.cloud.owner import DataOwner
from repro.cloud.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    MODE_CONJUNCTIVE,
    MODE_DISJUNCTIVE,
    MultiSearchRequest,
    SearchRequest,
    peek_kind,
)
from repro.cloud.updates import RemoteIndexMaintainer
from repro.core import EfficientRSSE, TEST_PARAMETERS
from repro.corpus.loader import Document
from repro.obs import FakeClock, Obs, load_jsonl, validate_records

VOCAB = [f"term{i:02d}" for i in range(16)]
NUM_SHARDS = 4
TOKEN = b"fast-lane-token"
CACHE_BYTES = 4 << 20


def build_world(seed: int = 77, docs: int = 18):
    scheme = EfficientRSSE(TEST_PARAMETERS)
    owner = DataOwner(scheme)
    rng = random.Random(seed)
    documents = [
        Document(
            doc_id=f"doc{i:02d}",
            title=f"doc {i}",
            text=" ".join(rng.choice(VOCAB) for _ in range(40)),
        )
        for i in range(docs)
    ]
    outsourcing = owner.setup(documents)
    return scheme, owner, outsourcing


@pytest.fixture(scope="module")
def world():
    """One shared deployment for the read-only tests."""
    return build_world()


def search_bytes(world, keyword, codec=CODEC_BINARY, top_k=5):
    scheme, owner, _ = world
    term = owner.analyzer.analyze_query(keyword)
    return SearchRequest(
        trapdoor_bytes=scheme.trapdoor(owner.key, term).serialize(),
        top_k=top_k,
    ).to_bytes(codec)


def multi_bytes(world, keywords, mode, codec=CODEC_BINARY):
    scheme, owner, _ = world
    return MultiSearchRequest(
        trapdoors=tuple(
            scheme.trapdoor(
                owner.key, owner.analyzer.analyze_query(keyword)
            ).serialize()
            for keyword in keywords
        ),
        mode=mode,
        top_k=5,
    ).to_bytes(codec)


def make_server(world, **kwargs) -> NetServer:
    _, _, outsourcing = world
    return NetServer(
        outsourcing.secure_index,
        outsourcing.blob_store,
        can_rank=True,
        num_shards=NUM_SHARDS,
        **kwargs,
    )


class TestByteIdentityOverTCP:
    @pytest.mark.parametrize("codec", (CODEC_JSON, CODEC_BINARY))
    def test_interleaved_updates_byte_identical(self, codec):
        world = build_world(seed=31)
        _, owner, _ = world
        frames = [
            search_bytes(world, keyword, codec) for keyword in VOCAB[:8]
        ] + [
            multi_bytes(world, VOCAB[:3], MODE_CONJUNCTIVE, codec),
            multi_bytes(world, VOCAB[3:6], MODE_DISJUNCTIVE, codec),
        ]
        with make_server(world, update_token=TOKEN) as plain, make_server(
            world, update_token=TOKEN, result_cache_bytes=CACHE_BYTES
        ) as cached, NetworkChannel(
            plain.host, plain.port
        ) as plain_channel, NetworkChannel(
            cached.host, cached.port
        ) as cached_channel:

            def fan_out(frame: bytes) -> bytes:
                response = cached_channel.call(frame)
                plain_channel.call(frame)
                return response

            maintainer = RemoteIndexMaintainer(
                owner, Channel(fan_out), TOKEN, codec=codec
            )

            def check() -> list[bytes]:
                snapshot = []
                for frame in frames:
                    expected = plain_channel.call(frame)
                    assert cached_channel.call(frame) == expected
                    assert cached_channel.call(frame) == expected  # hit
                    snapshot.append(expected)
                return snapshot

            before = check()
            stats = cached.result_cache.stats()
            assert stats["entries"] == len(frames)  # multi cached too
            assert stats["hits"] > 0
            maintainer.insert_document(
                Document(
                    doc_id="doc-new",
                    title="new",
                    text=f"{VOCAB[0]} {VOCAB[0]} {VOCAB[1]}",
                )
            )
            after_insert = check()
            assert after_insert != before
            assert cached.result_cache.stats()["invalidations"] > 0
            maintainer.remove_document("doc-new")
            assert check() == before


class TestSingleFlightCoalescing:
    def test_identical_cold_burst_dispatches_once(self, world):
        frame = search_bytes(world, VOCAB[0])
        with make_server(
            world,
            result_cache_bytes=CACHE_BYTES,
            worker_delay_s=0.05,
        ) as server, NetworkChannel(server.host, server.port) as channel:
            responses = channel.call_many([frame] * 16)
            assert len(set(responses)) == 1
            stats = server.result_cache.stats()
            # "misses" counts actual worker dispatches through the
            # cached path — the burst must collapse behind one leader.
            assert stats["misses"] <= 2
            assert stats["coalesced"] >= 14
            assert channel.call(frame) == responses[0]  # now a plain hit
            assert server.result_cache.stats()["hits"] >= 1


class TestLeakageExactness:
    WORKLOAD = [VOCAB[0]] * 4 + [VOCAB[1]] * 3 + [VOCAB[2]]

    def dump_for(self, world, **kwargs):
        obs = Obs.enabled(clock=FakeClock())
        with make_server(
            world, obs=obs, deterministic_obs=True, **kwargs
        ) as server, NetworkChannel(server.host, server.port) as channel:
            for keyword in self.WORKLOAD:
                channel.call(search_bytes(world, keyword))
            artifact = server.export_cluster_jsonl()
        assert validate_records(artifact) == []
        return load_jsonl(artifact)

    def test_cache_hits_keep_leakage_counts_exact(self, world):
        cached = self.dump_for(world, result_cache_bytes=CACHE_BYTES)
        plain = self.dump_for(world)
        # One leakage event per answered query, hit or miss ...
        assert len(cached.leakage) == len(self.WORKLOAD)
        assert len(plain.leakage) == len(self.WORKLOAD)
        # ... and the search-pattern multiplicity is identical to the
        # cache-off deployment: 4/3/1 over the three distinct keywords.
        cached_counts = Counter(
            event.trapdoor for event in cached.leakage
        )
        plain_counts = Counter(event.trapdoor for event in plain.leakage)
        assert cached_counts == plain_counts
        assert sorted(cached_counts.values()) == [1, 3, 4]

    def test_replayed_log_matches_uncached_access_pattern(self, world):
        cached = self.dump_for(world, result_cache_bytes=CACHE_BYTES)
        plain = self.dump_for(world)
        cached_log = server_log_from_events(cached.leakage)
        plain_log = server_log_from_events(plain.leakage)
        assert len(cached_log.observations) == len(self.WORKLOAD)

        def pattern(log):
            return Counter(
                (
                    observation.address,
                    observation.matched_file_ids,
                    observation.returned_file_ids,
                )
                for observation in log.observations
            )

        assert pattern(cached_log) == pattern(plain_log)


class TestUntracedFillsSendBareFrames:
    """With no leakage log, nothing replays fill-time observations."""

    def test_fills_send_bare_frames_and_cache_no_observations(
        self, world, monkeypatch
    ):
        _, _, outsourcing = world
        sent: list[bytes] = []
        real_call = _WorkerHandle.call

        async def spy(handle, request):
            sent.append(request)
            return await real_call(handle, request)

        monkeypatch.setattr(_WorkerHandle, "call", spy)
        cases = [
            (codec, frame)
            for codec in (CODEC_JSON, CODEC_BINARY)
            for frame in [
                search_bytes(world, keyword, codec)
                for keyword in VOCAB[:6]
            ]
            + [
                multi_bytes(world, VOCAB[:3], MODE_CONJUNCTIVE, codec),
                multi_bytes(world, VOCAB[3:7], MODE_DISJUNCTIVE, codec),
            ]
        ]
        with ClusterServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=True,
            num_shards=NUM_SHARDS,
        ) as reference, make_server(
            world, result_cache_bytes=CACHE_BYTES
        ) as server, NetworkChannel(server.host, server.port) as channel:
            for _, frame in cases:
                expected = reference.handle(frame)
                assert channel.call(frame) == expected  # fill
                assert channel.call(frame) == expected  # hit
            cache = server.result_cache
            assert cache.stats()["entries"] == len(cases)
            for codec, frame in cases:
                entry = cache.get(ResultCache.key_for(codec, frame))
                assert entry is not None
                assert not entry.payload
        # Every fill reached a worker: one call per search, one per
        # owning shard of each multi-search.
        assert len(sent) >= len(cases)
        assert [
            request for request in sent if peek_kind(request) == "observed"
        ] == []


class TestAdminHealth:
    def test_health_document_reports_cache_counters(self, world):
        obs = Obs.enabled(clock=FakeClock())
        frame = search_bytes(world, VOCAB[0])
        with make_server(
            world, obs=obs, result_cache_bytes=CACHE_BYTES
        ) as server, NetworkChannel(server.host, server.port) as channel:
            channel.call(frame)
            channel.call(frame)
            health = json.loads(channel.admin("health").decode("utf-8"))
        cache = health["result_cache"]
        assert cache["enabled"] is True
        assert cache["hits"] == 1
        assert cache["misses"] == 1
        assert cache["entries"] == 1
        assert cache["resident_bytes"] > 0

    def test_health_reports_disabled_without_cache(self, world):
        obs = Obs.enabled(clock=FakeClock())
        with make_server(world, obs=obs) as server, NetworkChannel(
            server.host, server.port
        ) as channel:
            health = json.loads(channel.admin("health").decode("utf-8"))
        assert health["result_cache"]["enabled"] is False
