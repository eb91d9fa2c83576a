"""Equivalence of the warm decrypted-list cache under owner appends.

An ``update-list`` append to an existing list keeps that list's warm
cache entry and queues the appended ciphertexts on it; the next search
decrypts only those and merges them into the pre-ranked list.  The
property pinned here: for any interleaving of single searches,
multi-searches (both modes, full and partial), appends (new and
duplicate entries, and to a missing list), replaces and compactions,
a :class:`CloudServer` with ``cache_searches=True`` returns the same
response bytes and logs the same curious-server observations as the
same server with the cache off — over the dict, sharded and packed
stores, and with ranking on and off.  Packed stores must also replay
their delta log to the same lists they served.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import DataOwner
from repro.cloud.cluster import ShardedIndex
from repro.cloud.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    MODE_CONJUNCTIVE,
    MODE_DISJUNCTIVE,
    MultiSearchRequest,
    SearchRequest,
)
from repro.cloud.server import CloudServer
from repro.cloud.store import PackedStore, pack_index
from repro.cloud.updates import UpdateListRequest
from repro.core import EfficientRSSE, TEST_PARAMETERS
from repro.core.secure_index import (
    SecureIndex,
    decrypt_posting_list,
    encrypt_entry,
)
from repro.corpus import generate_corpus

TOKEN = b"owner-update-token"
#: Two indexed terms plus one the corpus never uses (appends create it).
TERMS = 3
NEW_FILES = tuple(f"x{number}" for number in range(6))


@pytest.fixture(scope="module")
def world():
    documents = generate_corpus(14, seed=29, vocabulary_size=120)
    scheme = EfficientRSSE(TEST_PARAMETERS)
    owner = DataOwner(scheme)
    outsourcing = owner.setup(documents)
    blobs = outsourcing.blob_store
    for file_id in NEW_FILES[:3]:  # the rest exercise missing blobs
        blobs.put(file_id, b"blob-" + file_id.encode())
    frequency = Counter(
        term
        for document in documents
        for term in set(owner.analyzer.analyze(document.text))
    )
    common = sorted(frequency, key=lambda term: (-frequency[term], term))
    terms = common[: TERMS - 1] + ["zzz-unused-term"]
    trapdoors = [scheme.trapdoor(owner.key, term) for term in terms]
    return outsourcing.secure_index, blobs, trapdoors


#: (file id, score pick): picks below 4 are literal scores; higher
#: picks copy the score of an entry already in the list, so appended
#: entries tie with old ones as well as with each other.
new_entries = st.lists(
    st.tuples(st.sampled_from(NEW_FILES), st.integers(0, 7)),
    max_size=4,
)
keyword = st.integers(0, TERMS - 1)
operation = st.one_of(
    st.tuples(
        st.just("search"),
        keyword,
        st.one_of(st.none(), st.integers(1, 6)),
        st.sampled_from((CODEC_JSON, CODEC_BINARY)),
    ),
    st.tuples(
        st.just("multi"),
        st.lists(keyword, min_size=1, max_size=3),
        st.sampled_from((MODE_CONJUNCTIVE, MODE_DISJUNCTIVE)),
        st.one_of(st.none(), st.integers(1, 6)),
        st.booleans(),
    ),
    st.tuples(st.just("append"), keyword, new_entries, st.integers(0, 3)),
    st.tuples(st.just("replace"), keyword, new_entries, st.integers(0, 99)),
    st.tuples(st.just("compact")),
)


def make_entry(layout, trapdoor, file_id, pick, scores):
    """A valid entry whose score ties often (see ``new_entries``)."""
    if pick < 4 or not scores:
        score = pick.to_bytes(layout.score_bytes, "big")
    else:
        score = scores[pick % len(scores)]
    return encrypt_entry(layout, trapdoor.list_key, file_id, score)


def copy_store(kind, reference, directory, name):
    if kind == "dict":
        return SecureIndex.deserialize(reference.serialize())
    if kind == "sharded":
        return ShardedIndex.from_secure_index(reference, 2)
    return PackedStore(pack_index(reference, directory / f"{name}.rpk"))


def request_for(op, index, trapdoors):
    """Wire bytes of one op, or None when it does not apply."""
    if op[0] == "search":
        _, term, top_k, codec = op
        return SearchRequest(
            trapdoor_bytes=trapdoors[term].serialize(), top_k=top_k
        ).to_bytes(codec)
    if op[0] == "multi":
        _, terms, mode, top_k, partial = op
        return MultiSearchRequest(
            trapdoors=tuple(trapdoors[term].serialize() for term in terms),
            mode=mode,
            top_k=top_k,
            partial=partial,
        ).to_bytes(CODEC_BINARY)
    _, term, fresh, seed = op
    trapdoor = trapdoors[term]
    current = index.lookup(trapdoor.address) or []
    scores = [
        score
        for _, score in decrypt_posting_list(
            index.layout, trapdoor.list_key, current
        )
    ]
    entries = [
        make_entry(index.layout, trapdoor, file_id, pick, scores)
        for file_id, pick in fresh
    ]
    rng = random.Random(seed)
    if op[0] == "append":
        # Re-send some entries the list already holds.
        entries = rng.sample(current, min(seed, len(current))) + entries
        mode = "append"
    else:
        if not current:
            return None
        entries = rng.sample(current, rng.randint(0, len(current))) + entries
        mode = "replace"
    return UpdateListRequest(
        token=TOKEN,
        address=trapdoor.address,
        entries=tuple(dict.fromkeys(entries)),
        mode=mode,
    ).to_bytes()


@pytest.mark.parametrize("can_rank", (True, False))
@pytest.mark.parametrize("kind", ("dict", "sharded", "packed"))
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(operation, min_size=1, max_size=14))
def test_warm_cache_matches_cache_off(
    world, tmp_path_factory, kind, can_rank, ops
):
    reference, blobs, trapdoors = world
    directory = tmp_path_factory.mktemp("warm")
    servers = [
        CloudServer(
            copy_store(kind, reference, directory, name),
            blobs,
            can_rank=can_rank,
            cache_searches=cache,
            update_token=TOKEN,
        )
        for name, cache in (("cold", False), ("warm", True))
    ]
    cold, warm = servers
    for op in ops:
        if op[0] == "compact":
            for server in servers:
                if kind == "packed":
                    server.secure_index.compact()
            continue
        if op[0] == "multi" and not can_rank:
            continue
        request = request_for(op, cold.secure_index, trapdoors)
        if request is not None:
            assert warm.handle(request) == cold.handle(request), op
    assert warm.log.observations == cold.log.observations
    assert dict(warm.secure_index.items()) == dict(cold.secure_index.items())
    if kind == "packed":
        for server in servers:
            store = server.secure_index
            live = dict(store.items())
            store.close()
            with PackedStore(store.packed_path) as reopened:
                assert dict(reopened.items()) == live
