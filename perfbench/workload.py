"""The three traffic mixes and their request frames, all from the seed.

An op is ``("search", term)``, ``("multi", (t1, t2, t3, t4))`` or
``("insert", n)`` for the owner's n-th document insert.  Streams are
endless and a pure function of (workload, seed, vocabulary).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator

from repro.cloud.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    MODE_CONJUNCTIVE,
    MultiSearchRequest,
    MultiSearchResponse,
    SearchRequest,
    SearchResponse,
)
from repro.corpus.zipf import ZipfSampler

TOP_K = 10
#: Hot reads: Zipf over the vocabulary ranked by document frequency.
HOT_EXPONENT = 1.1
#: Tail reads draw terms ranked below this (about 450 lists per shard,
#: more than the 256-list ranked LRU of each worker).
TAIL_MIN_RANK = 200
#: Conjunctive queries combine terms from the most frequent ones.
HEAD_TERMS = 300
MULTI_TERMS = 4
#: Distinct conjunctive queries per run: few enough for the reference
#: server to check every answer, while the result cache, which the
#: ~1,800 tail answers compete for too, still misses most of them.
MULTI_POOL = 120
TAIL_PER_MULTI = 3
READS_PER_INSERT = 80


@dataclass(frozen=True)
class Workload:
    """A traffic mix and the deployment shape it runs on."""

    name: str
    store: str  # "json" loads as the dict store, "packed" as sharded mmap
    codec: str
    inserts: bool


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("hot_search", "json", CODEC_BINARY, inserts=False),
        Workload("tail_search", "packed", CODEC_BINARY, inserts=False),
        Workload("search_insert", "packed", CODEC_JSON, inserts=True),
    )
}


def ranked_terms(owner) -> list[str]:
    """Queryable index terms, most frequent first.

    A term qualifies when the query analyzer maps it to itself, so it
    reaches the index unchanged through ``DataUser`` as well.
    """
    index = owner.plain_index

    def queryable(term: str) -> bool:
        try:
            return owner.analyzer.analyze_query(term) == term
        except ValueError:
            return False

    return sorted(
        filter(queryable, index.vocabulary),
        key=lambda term: (-index.document_frequency(term), term),
    )


def op_stream(workload: str, seed: int, terms: list[str]) -> Iterator[tuple]:
    """The workload's endless op sequence for ``seed``."""
    rng = random.Random(f"{workload}|{seed}")
    if workload == "tail_search":
        tail = terms[TAIL_MIN_RANK:]
        pool = [
            tuple(rng.sample(terms[:HEAD_TERMS], MULTI_TERMS))
            for _ in range(MULTI_POOL)
        ]
        while True:
            multi_at = rng.randrange(TAIL_PER_MULTI + 1)
            for slot in range(TAIL_PER_MULTI + 1):
                if slot == multi_at:
                    yield ("multi", rng.choice(pool))
                else:
                    yield ("search", rng.choice(tail))
    hot = ZipfSampler(len(terms), HOT_EXPONENT, rng)
    inserted = 0
    while True:
        insert_at = (
            rng.randrange(READS_PER_INSERT + 1)
            if workload == "search_insert"
            else -1
        )
        for slot in range(READS_PER_INSERT + 1):
            if slot == insert_at:
                yield ("insert", inserted)
                inserted += 1
            else:
                yield ("search", terms[hot.sample()])


class Frames:
    """Request frames and index addresses of read ops.

    Trapdoors are memoized per term, as ``DataUser`` memoizes them; the
    time each first generation took is kept in :attr:`trapdoor_s`.
    """

    def __init__(self, owner, codec: str):
        self._scheme = owner.scheme
        self._key = owner.key
        self.codec = codec
        self._trapdoors: dict[str, tuple[bytes, bytes]] = {}
        self._frames: dict[tuple, bytes] = {}
        self.trapdoor_s: list[float] = []

    def _trapdoor(self, term: str) -> tuple[bytes, bytes]:
        known = self._trapdoors.get(term)
        if known is None:
            started = time.perf_counter()
            trapdoor = self._scheme.trapdoor(self._key, term)
            known = (trapdoor.serialize(), trapdoor.address)
            self.trapdoor_s.append(time.perf_counter() - started)
            self._trapdoors[term] = known
        return known

    def encode(self, op: tuple) -> bytes:
        """A freshly encoded request frame for a read op."""
        if op[0] == "search":
            return SearchRequest(
                trapdoor_bytes=self._trapdoor(op[1])[0], top_k=TOP_K
            ).to_bytes(self.codec)
        return MultiSearchRequest(
            trapdoors=tuple(self._trapdoor(term)[0] for term in op[1]),
            mode=MODE_CONJUNCTIVE,
            top_k=TOP_K,
        ).to_bytes(self.codec)

    def request(self, op: tuple) -> bytes:
        """The op's request frame, encoded once per distinct op."""
        frame = self._frames.get(op)
        if frame is None:
            frame = self._frames[op] = self.encode(op)
        return frame

    def addresses(self, op: tuple) -> tuple[bytes, ...]:
        """The index addresses a read op queries."""
        terms = (op[1],) if op[0] == "search" else op[1]
        return tuple(self._trapdoor(term)[1] for term in terms)

    @staticmethod
    def decode(op: tuple, response: bytes):
        """The client's decode of a read's response frame."""
        if op[0] == "search":
            return SearchResponse.from_bytes(response)
        return MultiSearchResponse.from_bytes(response)


def probe_frame(owner, codec: str) -> bytes:
    """The request that proves a new server ready: the top term."""
    return Frames(owner, codec).encode(("search", ranked_terms(owner)[0]))
