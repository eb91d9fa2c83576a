"""One-round multi-keyword serving: equivalence across every deployment.

The tentpole property: a ``multi-search`` request produces the same
ranking — byte for byte on the wire — no matter how the server is
deployed.  The suite pins the one-round path against the legacy
k-round client-side merge (the semantics oracle), then proves the
response bytes identical across: cache on/off, dict vs packed mmap
store, a single :class:`CloudServer` vs a 4-shard
:class:`ClusterServer`, batch vs one-at-a-time dispatch, and a real
TCP loopback through :class:`NetServer` — in both wire codecs and
both aggregation modes.
"""

import random

import pytest

from repro.cloud import Channel, CloudServer, DataOwner, DataUser
from repro.cloud.cluster import ClusterServer, shard_for_address
from repro.cloud.netserve import NetServer, NetworkChannel
from repro.cloud.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    MODE_CONJUNCTIVE,
    MODE_DISJUNCTIVE,
    MultiSearchRequest,
    MultiSearchResponse,
    SearchRequest,
    SearchResponse,
    unpack_multi_score,
    unpack_partial_score,
)
from repro.cloud.store import PackedStore, pack_index
from repro.core import EfficientRSSE, TEST_PARAMETERS
from repro.core.multi_keyword import MultiKeywordSearcher
from repro.corpus.loader import Document
from repro.errors import ParameterError, ProtocolError
from repro.ir.topk import intersect_sums, rank_pairs, union_sums

# A compact vocabulary over many docs makes conjunctive intersections
# dense — every pair of terms co-occurs somewhere, and score ties are
# common enough to exercise the canonical tie-break.
VOCAB = [f"term{i:02d}" for i in range(10)]
NUM_SHARDS = 4
QUERIES = [
    ["term00", "term01"],
    ["term02", "term03", "term04"],
    ["term00", "term05", "term06", "term07"],
    ["term08", "term09"],
]
MODES = (MODE_CONJUNCTIVE, MODE_DISJUNCTIVE)
CODECS = (CODEC_JSON, CODEC_BINARY)


@pytest.fixture(scope="module")
def world():
    scheme = EfficientRSSE(TEST_PARAMETERS)
    owner = DataOwner(scheme)
    rng = random.Random(7)
    documents = [
        Document(
            doc_id=f"doc{i:02d}",
            title=f"doc {i}",
            text=" ".join(rng.choice(VOCAB) for _ in range(30)),
        )
        for i in range(24)
    ]
    outsourcing = owner.setup(documents)
    return scheme, owner, outsourcing


def trapdoors_for(scheme, owner, terms):
    return tuple(
        scheme.trapdoor(
            owner.key, owner.analyzer.analyze_query(term)
        ).serialize()
        for term in terms
    )


@pytest.fixture(scope="module")
def golden(world):
    """Every query in both modes and codecs, as wire bytes.

    Each query also comes as a ``partial`` request (unranked
    aggregates with matched-term counts), so a coordinator's re-pack
    of merged partials is held to a single server's bytes too.
    """
    scheme, owner, _ = world
    requests = []
    for terms in QUERIES:
        trapdoors = trapdoors_for(scheme, owner, terms)
        for mode in MODES:
            for codec in CODECS:
                requests.append(
                    MultiSearchRequest(
                        trapdoors=trapdoors, mode=mode, top_k=5
                    ).to_bytes(codec)
                )
                requests.append(
                    MultiSearchRequest(
                        trapdoors=trapdoors, mode=mode, partial=True
                    ).to_bytes(codec)
                )
    return requests


def make_server(world, cached=True):
    _, _, outsourcing = world
    return CloudServer(
        outsourcing.secure_index,
        outsourcing.blob_store,
        can_rank=True,
        cache_searches=cached,
    )


class TestOneRoundVsLegacy:
    """Semantics oracle: one-round == k-round client-side merge."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("codec", CODECS)
    def test_user_paths_agree(self, world, mode, codec):
        scheme, owner, outsourcing = world
        user = DataUser(
            scheme,
            owner.authorize_user(),
            Channel(make_server(world).handle),
            codec=codec,
        )
        for terms in QUERIES:
            one_round = user.search_multi_topk(terms, 5, mode=mode)
            legacy = user.search_multi_topk_legacy(terms, 5, mode=mode)
            assert one_round == legacy
            assert one_round, terms

    def test_matches_carry_the_opm_sums(self, world):
        """Response score fields are the per-term OPM sums, verifiable
        against k independent single-keyword searches."""
        scheme, owner, _ = world
        server = make_server(world)
        terms = QUERIES[2]
        trapdoors = trapdoors_for(scheme, owner, terms)
        per_term = []
        for trapdoor in trapdoors:
            response = SearchResponse.from_bytes(
                server.handle(
                    SearchRequest(trapdoor_bytes=trapdoor).to_bytes()
                )
            )
            per_term.append(
                {
                    file_id: int.from_bytes(field, "big")
                    for file_id, field in response.matches
                }
            )
        for mode, combine in (
            (MODE_CONJUNCTIVE, intersect_sums),
            (MODE_DISJUNCTIVE, union_sums),
        ):
            response = MultiSearchResponse.from_bytes(
                server.handle(
                    MultiSearchRequest(
                        trapdoors=trapdoors, mode=mode, top_k=4
                    ).to_bytes()
                )
            )
            expected = rank_pairs(combine(per_term), 4)
            assert [
                (file_id, unpack_multi_score(field))
                for file_id, field in response.matches
            ] == expected
            assert [fid for fid, _ in response.files] == [
                fid for fid, _ in expected
            ]

    def test_matches_core_searcher(self, world):
        """The serving path agrees with the in-core reference searcher."""
        scheme, owner, outsourcing = world
        server = make_server(world)
        searcher = MultiKeywordSearcher(scheme, owner.analyzer)
        for terms in QUERIES:
            query = searcher.make_query(owner.key, terms)
            expected = searcher.search_top_k(
                outsourcing.secure_index, query, 5
            )
            response = MultiSearchResponse.from_bytes(
                server.handle(
                    MultiSearchRequest(
                        trapdoors=tuple(
                            trapdoor.serialize()
                            for trapdoor in query.trapdoors
                        ),
                        top_k=5,
                    ).to_bytes()
                )
            )
            assert [
                (file_id, unpack_multi_score(field))
                for file_id, field in response.matches
            ] == [(entry.file_id, int(entry.score)) for entry in expected]


class TestByteIdenticalDeployments:
    def test_cache_on_off_identical(self, world, golden):
        cold = make_server(world, cached=False)
        warm = make_server(world, cached=True)
        for request in golden:
            assert cold.handle(request) == warm.handle(request)
        # And again with the cache actually warm.
        for request in golden:
            assert cold.handle(request) == warm.handle(request)

    def test_dict_vs_packed_store_identical(self, tmp_path, world, golden):
        _, _, outsourcing = world
        path = pack_index(outsourcing.secure_index, tmp_path / "idx.rpk")
        dict_server = make_server(world)
        with PackedStore(path) as store:
            mmap_server = CloudServer(
                store, outsourcing.blob_store, can_rank=True
            )
            for request in golden:
                assert dict_server.handle(request) == mmap_server.handle(
                    request
                )

    def test_single_vs_sharded_identical(self, world, golden):
        _, _, outsourcing = world
        single = make_server(world)
        with ClusterServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=True,
            num_shards=NUM_SHARDS,
        ) as cluster:
            for request in golden:
                assert cluster.handle(request) == single.handle(request)

    def test_single_shard_cluster_identical(self, world, golden):
        _, _, outsourcing = world
        single = make_server(world)
        with ClusterServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=True,
            num_shards=1,
        ) as cluster:
            for request in golden:
                assert cluster.handle(request) == single.handle(request)

    def test_batch_matches_single_dispatch(self, world, golden):
        _, _, outsourcing = world
        with ClusterServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=True,
            num_shards=NUM_SHARDS,
        ) as cluster:
            batched = cluster.handle_many(golden)
            assert batched == [cluster.handle(r) for r in golden]
            result = cluster.handle_many_resilient(golden)
            assert result.complete
            assert list(result.responses) == batched

    def test_mixed_batch_single_and_multi(self, world):
        """handle_many interleaves single-keyword and multi requests."""
        scheme, owner, outsourcing = world
        single = make_server(world)
        trapdoors = trapdoors_for(scheme, owner, QUERIES[0])
        batch = [
            SearchRequest(trapdoor_bytes=trapdoors[0], top_k=3).to_bytes(),
            MultiSearchRequest(trapdoors=trapdoors, top_k=3).to_bytes(),
            SearchRequest(trapdoor_bytes=trapdoors[1], top_k=3).to_bytes(
                CODEC_BINARY
            ),
            MultiSearchRequest(
                trapdoors=trapdoors, mode=MODE_DISJUNCTIVE, top_k=3
            ).to_bytes(CODEC_BINARY),
        ]
        with ClusterServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=True,
            num_shards=NUM_SHARDS,
        ) as cluster:
            assert cluster.handle_many(batch) == [
                single.handle(request) for request in batch
            ]


class TestPartialResponses:
    """The shard-internal wire format is also a public request shape."""

    def test_partial_carries_sum_and_term_count(self, world):
        scheme, owner, _ = world
        server = make_server(world)
        terms = QUERIES[1]
        trapdoors = trapdoors_for(scheme, owner, terms)
        response = MultiSearchResponse.from_bytes(
            server.handle(
                MultiSearchRequest(
                    trapdoors=trapdoors, partial=True
                ).to_bytes()
            )
        )
        assert response.files == ()
        assert response.matches
        ids = [file_id for file_id, _ in response.matches]
        assert ids == sorted(ids)
        for _, field in response.matches:
            total, matched = unpack_partial_score(field)
            assert matched == len(terms)
            assert total > 0

    def test_disjunctive_partial_counts_membership(self, world):
        scheme, owner, _ = world
        server = make_server(world)
        terms = QUERIES[1]
        trapdoors = trapdoors_for(scheme, owner, terms)
        response = MultiSearchResponse.from_bytes(
            server.handle(
                MultiSearchRequest(
                    trapdoors=trapdoors,
                    mode=MODE_DISJUNCTIVE,
                    partial=True,
                ).to_bytes()
            )
        )
        counts = {
            unpack_partial_score(field)[1] for _, field in response.matches
        }
        assert counts <= set(range(1, len(terms) + 1))


class TestNetserveLoopback:
    def test_loopback_matches_in_process(self, world, golden):
        _, _, outsourcing = world
        single = make_server(world)
        expected = [single.handle(request) for request in golden]
        with NetServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=True,
            num_shards=NUM_SHARDS,
        ) as srv, NetworkChannel(srv.host, srv.port) as channel:
            assert [
                channel.call(request) for request in golden
            ] == expected
            assert channel.call_many(golden) == expected

    def test_data_user_over_loopback(self, world):
        scheme, owner, outsourcing = world
        reference = DataUser(
            scheme,
            owner.authorize_user(),
            Channel(make_server(world).handle),
        )
        with NetServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=True,
            num_shards=NUM_SHARDS,
        ) as srv, NetworkChannel(srv.host, srv.port) as channel:
            user = DataUser(
                scheme,
                owner.authorize_user(),
                channel,
                codec=CODEC_BINARY,
            )
            for terms in QUERIES:
                for mode in MODES:
                    assert user.search_multi_topk(
                        terms, 5, mode=mode
                    ) == reference.search_multi_topk(terms, 5, mode=mode)

    def test_cannot_rank_raises_over_loopback(self, world):
        """The server's rejection crosses the wire as an ErrorResponse,
        which the channel re-raises as the original exception type."""
        scheme, owner, outsourcing = world
        trapdoors = trapdoors_for(scheme, owner, QUERIES[0])
        request = MultiSearchRequest(trapdoors=trapdoors, top_k=3)
        with NetServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=False,
            num_shards=2,
        ) as srv, NetworkChannel(srv.host, srv.port) as channel:
            for codec in CODECS:
                with pytest.raises(ProtocolError, match="rankable"):
                    channel.call(request.to_bytes(codec))


class TestValidation:
    def test_server_rejects_when_cannot_rank(self, world):
        scheme, owner, outsourcing = world
        server = CloudServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=False,
        )
        request = MultiSearchRequest(
            trapdoors=trapdoors_for(scheme, owner, QUERIES[0])
        )
        with pytest.raises(ProtocolError):
            server.handle(request.to_bytes())

    def test_user_rejects_duplicates_after_normalization(self, world):
        scheme, owner, _ = world
        user = DataUser(
            scheme,
            owner.authorize_user(),
            Channel(make_server(world).handle),
        )
        with pytest.raises(ParameterError, match="duplicate"):
            user.search_multi_topk(["Term00", "term00"], 3)
        with pytest.raises(ParameterError, match="duplicate"):
            user.search_multi_topk_legacy(["Term00", "term00"], 3)

    def test_user_rejects_bad_mode_and_k(self, world):
        scheme, owner, _ = world
        user = DataUser(
            scheme,
            owner.authorize_user(),
            Channel(make_server(world).handle),
        )
        with pytest.raises(ParameterError):
            user.search_multi_topk(["term00"], 0)
        with pytest.raises(ParameterError):
            user.search_multi_topk(["term00"], 3, mode="xor")

    def test_missing_blob_tolerated(self, world):
        """A file whose blob was removed drops out of the response
        instead of failing the whole query (matching single-keyword
        serving semantics)."""
        scheme, owner, outsourcing = world
        trapdoors = trapdoors_for(scheme, owner, QUERIES[0])
        request = MultiSearchRequest(trapdoors=trapdoors, top_k=5)
        full = MultiSearchResponse.from_bytes(
            make_server(world).handle(request.to_bytes())
        )
        assert full.matches
        victim = full.matches[0][0]
        pruned_blobs = type(outsourcing.blob_store)()
        for file_id in outsourcing.blob_store.ids():
            if file_id != victim:
                pruned_blobs.put(
                    file_id, outsourcing.blob_store.get(file_id)
                )
        server = CloudServer(
            outsourcing.secure_index, pruned_blobs, can_rank=True
        )
        response = MultiSearchResponse.from_bytes(
            server.handle(request.to_bytes())
        )
        returned = [file_id for file_id, _ in response.files]
        assert victim not in returned
        assert returned == [
            file_id for file_id, _ in full.files if file_id != victim
        ]


class TestShardRouting:
    def test_queries_do_span_shards(self, world):
        """The fixture is honest: at least one golden query fans out."""
        scheme, owner, _ = world
        from repro.core.trapdoor import Trapdoor

        spans = set()
        for terms in QUERIES:
            shards = {
                shard_for_address(
                    Trapdoor.deserialize(raw).address, NUM_SHARDS
                )
                for raw in trapdoors_for(scheme, owner, terms)
            }
            spans.add(len(shards))
        assert max(spans) > 1
