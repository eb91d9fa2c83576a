"""Sharded, concurrent serving layer for the secure index.

The single :class:`~repro.cloud.server.CloudServer` is a one-worker
service; a production deployment partitions the encrypted index across
worker shards so searches (and index maintenance) proceed in parallel.
This module provides that layer:

* :class:`ShardedIndex` — partitions :class:`SecureIndex` posting
  lists across ``N`` shards by a keyed hash of the *index address*
  ``pi_x(w)``.  Placement is a public function of the address, which
  the server observes on every query anyway, so the partition leaks
  nothing beyond the scheme's existing search/access-pattern leakage
  — and because Wang et al.'s ranking is per-posting-list, every
  search touches exactly one shard: shards are independent by
  construction.
* :class:`ClusterServer` — a front end that owns one
  :class:`CloudServer` per shard, routes every request to the owning
  shard, and fans concurrent traffic out on a thread pool.  Each shard
  keeps its own bounded LRU decrypted-list cache and its own
  :class:`~repro.cloud.network.ChannelStats`, aggregated across the
  cluster.

The concurrency model is deliberately simple: a shard is the unit of
serialization (one request at a time per shard, via the shard lock),
and posting-list updates swap whole list objects, so a search never
observes a torn list — it sees either the pre-update or the
post-update version.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.cloud.cache import ResultCache
from repro.cloud.faults import FaultPlan, FaultStats, FaultyChannel
from repro.cloud.network import Channel, ChannelStats, LinkModel
from repro.cloud.protocol import (
    MODE_CONJUNCTIVE,
    MultiSearchRequest,
    MultiSearchResponse,
    SearchRequest,
    check_partial_scores,
    detect_codec,
    pack_multi_score,
    pack_partial_score,
    peek_kind,
    unpack_partial_score,
)
from repro.cloud.retry import (
    BREAKER_STATE_VALUES,
    BreakerConfig,
    BreakerSnapshot,
    CircuitBreaker,
    RetryPolicy,
    RetryingChannel,
)
from repro.cloud.server import CloudServer, SearchObservation, ServerLog
from repro.cloud.storage import BlobStore
from repro.cloud.updates import (
    PutBlobRequest,
    RemoveBlobRequest,
    UpdateListRequest,
)
from repro.core.secure_index import EntryLayout, SecureIndex
from repro.core.trapdoor import Trapdoor
from repro.errors import (
    ParameterError,
    ProtocolError,
    ShardDownError,
    TransportError,
)
from repro.ir.topk import rank_pairs
from repro.obs.export import render_prometheus
from repro.obs.trace import NOOP_TRACER

#: Default keyed-hash seed for shard placement.  Any deployment-chosen
#: value works (placement only needs to be stable and balanced); it is
#: recorded alongside persisted shards so reloads route identically.
DEFAULT_SHARD_SEED = b"repro-shard-placement-v1"

#: Default shard count for convenience constructors.
DEFAULT_NUM_SHARDS = 4


def routing_address(request_bytes: bytes) -> bytes:
    """The bytes that decide which shard owns one request.

    Addressed requests (search, update-list) route by the index
    address they touch.  Blob requests carry no index address; they
    route by their file id so blob traffic spreads deterministically
    (any worker can serve them — the blob store is shared in-process
    and replicated per worker over the network).  Shared by
    :class:`ClusterServer` and the socket front end
    (:class:`~repro.cloud.netserve.NetServer`), so the two deployments
    route every request identically.
    """
    kind = peek_kind(request_bytes)
    if kind == "search":
        request = SearchRequest.from_bytes(request_bytes)
        return Trapdoor.deserialize(request.trapdoor_bytes).address
    if kind == "update-list":
        return UpdateListRequest.from_bytes(request_bytes).address
    if kind == "put-blob":
        return PutBlobRequest.from_bytes(request_bytes).file_id.encode(
            "utf-8"
        )
    if kind == "remove-blob":
        return RemoveBlobRequest.from_bytes(request_bytes).file_id.encode(
            "utf-8"
        )
    if kind == "fetch":
        return request_bytes
    raise ProtocolError(f"unknown request kind {kind!r}")


def shard_for_address(
    address: bytes, num_shards: int, seed: bytes = DEFAULT_SHARD_SEED
) -> int:
    """Owning shard of an index address: ``BLAKE2b_seed(address) mod N``.

    A keyed hash of the already-pseudonymous address: balanced (the
    addresses are PRF outputs, and the hash re-mixes them under the
    deployment seed) and computable by anyone who sees the address —
    i.e. exactly the parties the scheme already shows addresses to.
    """
    if num_shards < 1:
        raise ParameterError(f"num_shards must be >= 1, got {num_shards}")
    if not seed or len(seed) > 64:
        raise ParameterError("shard seed must be 1..64 bytes")
    digest = hashlib.blake2b(address, key=seed, digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


def split_multi_request(
    request: MultiSearchRequest, num_shards: int, seed: bytes
) -> dict[int, MultiSearchRequest]:
    """Partition a multi-search into per-shard partial sub-requests.

    Each shard gets *one* sub-request carrying every trapdoor it owns
    (in query order), flagged ``partial=True`` with no top-k bound:
    the shard must return its complete local aggregates, because a
    locally low-scoring file can still land in the global top-k once
    the other shards' contributions are added.  Shared by the
    in-process coordinator (:class:`ClusterServer`) and the socket
    front end (:class:`~repro.cloud.netserve.NetServer`), so both
    deployments fan out identically.
    """
    groups: dict[int, list[bytes]] = {}
    for trapdoor_bytes in request.trapdoors:
        address = Trapdoor.deserialize(trapdoor_bytes).address
        shard = shard_for_address(address, num_shards, seed)
        groups.setdefault(shard, []).append(trapdoor_bytes)
    return {
        shard: MultiSearchRequest(
            trapdoors=tuple(trapdoors),
            mode=request.mode,
            top_k=None,
            partial=True,
        )
        for shard, trapdoors in groups.items()
    }


def merge_partial_matches(
    partials: Sequence[tuple[tuple[str, bytes], ...]],
    mode: str,
    total_terms: int,
) -> list[tuple[str, int, int]]:
    """Merge per-shard partial aggregates into global candidates.

    ``partials`` is one ``matches`` tuple per shard (partial score
    fields: sum || matched-term count).  Conjunctive mode keeps only
    files present in *every* shard's local intersection whose matched
    counts add up to ``total_terms``; disjunctive mode sums across all
    shards.  Returns ``(file_id, opm_sum, matched_terms)`` in
    ascending file-id order — the same candidate order a single
    server's aggregation produces, so the coordinator's final
    :func:`repro.ir.topk.rank_pairs` cut breaks ties identically.
    A wrong-length score field anywhere raises
    :class:`~repro.errors.ProtocolError`.
    """
    if not partials:
        return []
    if mode == MODE_CONJUNCTIVE:
        # Intersect on file ids first, probing from the smallest
        # shard; only files present in every shard get their score
        # fields unpacked.
        fields_by_shard: list[dict[str, bytes]] = []
        for matches in partials:
            check_partial_scores(matches)
            fields_by_shard.append(dict(matches))
        smallest = min(fields_by_shard, key=len)
        others = [m for m in fields_by_shard if m is not smallest]
        merged: list[tuple[str, int, int]] = []
        for file_id in sorted(smallest):
            fields = [smallest[file_id]]
            for shard_map in others:
                score_field = shard_map.get(file_id)
                if score_field is None:
                    break
                fields.append(score_field)
            else:
                total = count = 0
                for score_field in fields:
                    shard_total, shard_count = unpack_partial_score(
                        score_field
                    )
                    total += shard_total
                    count += shard_count
                if count == total_terms:
                    merged.append((file_id, total, count))
        return merged
    per_shard: list[dict[str, tuple[int, int]]] = [
        {
            file_id: unpack_partial_score(score_field)
            for file_id, score_field in matches
        }
        for matches in partials
    ]
    sums: dict[str, tuple[int, int]] = {}
    for shard_map in per_shard:
        for file_id, (total, count) in shard_map.items():
            sum_so_far, count_so_far = sums.get(file_id, (0, 0))
            sums[file_id] = (sum_so_far + total, count_so_far + count)
    return [
        (file_id, total, count)
        for file_id, (total, count) in sorted(sums.items())
    ]


def finish_multi_search(
    partials: Sequence[tuple[tuple[str, bytes], ...]],
    request: MultiSearchRequest,
    codec: str,
    blobs: BlobStore,
) -> bytes:
    """The coordinator's tail of a fanned-out multi-search, encoded.

    Merges the per-shard partial aggregates (:func:`merge_partial_matches`).
    A ``partial`` request gets the merged aggregates re-packed as
    partial score fields; otherwise the candidates are cut to the
    top-k under the single server's tie-break and the blobs are
    attached from ``blobs``.  Shared by :class:`ClusterServer` and the
    socket front end (:class:`~repro.cloud.netserve.NetServer`), so
    both coordinators answer byte-identically to a single server.
    """
    merged = merge_partial_matches(
        partials, request.mode, len(request.trapdoors)
    )
    if request.partial:
        return MultiSearchResponse(
            matches=tuple(
                (file_id, pack_partial_score(total, count))
                for file_id, total, count in merged
            ),
            files=(),
        ).to_bytes(codec)
    ranked = rank_pairs(
        [(file_id, total) for file_id, total, _ in merged],
        request.top_k,
    )
    matches = []
    payloads = []
    for file_id, total in ranked:
        # Same removed-blob tolerance as a single server.
        blob = blobs.get_optional(file_id)
        if blob is None:
            continue
        matches.append((file_id, pack_multi_score(total)))
        payloads.append((file_id, blob))
    return MultiSearchResponse(
        matches=tuple(matches), files=tuple(payloads)
    ).to_bytes(codec)


class ShardedIndex:
    """A :class:`SecureIndex` partitioned across ``N`` shards by address.

    Presents the same owner/server surface as :class:`SecureIndex`
    (``add_list`` / ``replace_list`` / ``append_entries`` / ``lookup`` /
    ``items`` / sizes / serialization) while storing each posting list
    in the shard its address hashes to.  Every per-list operation
    touches exactly one shard.

    Parameters
    ----------
    layout:
        The fixed entry geometry (identical across all shards).
    num_shards:
        Number of partitions.
    padded_length:
        Forwarded to every shard (basic-scheme list padding).
    shard_seed:
        Keyed-hash seed for placement (1..64 bytes).
    """

    def __init__(
        self,
        layout: EntryLayout,
        num_shards: int,
        padded_length: int | None = None,
        shard_seed: bytes = DEFAULT_SHARD_SEED,
    ):
        if num_shards < 1:
            raise ParameterError(f"num_shards must be >= 1, got {num_shards}")
        if not shard_seed or len(shard_seed) > 64:
            raise ParameterError("shard seed must be 1..64 bytes")
        self._layout = layout
        self._padded_length = padded_length
        self._seed = bytes(shard_seed)
        self._shards = tuple(
            SecureIndex(layout, padded_length=padded_length)
            for _ in range(num_shards)
        )

    @classmethod
    def from_secure_index(
        cls,
        index: SecureIndex,
        num_shards: int,
        shard_seed: bytes = DEFAULT_SHARD_SEED,
    ) -> "ShardedIndex":
        """Partition an existing index (snapshot; the source is untouched)."""
        sharded = cls(
            index.layout,
            num_shards,
            padded_length=index.padded_length,
            shard_seed=shard_seed,
        )
        for address, entries in index.items():
            # Lists from a built index are already at padded_length,
            # so the shard's own padding step is a no-op here.
            sharded.shard_for(address).add_list(address, list(entries))
        return sharded

    @classmethod
    def from_shards(
        cls,
        shards: Sequence[SecureIndex],
        shard_seed: bytes = DEFAULT_SHARD_SEED,
    ) -> "ShardedIndex":
        """Reassemble from per-shard indexes (the persistence path).

        Validates that every list sits in the shard its address hashes
        to under ``shard_seed`` — a reload with the wrong seed or
        reordered shard files would silently misroute every search
        otherwise.
        """
        if not shards:
            raise ParameterError("at least one shard is required")
        first = shards[0]
        sharded = cls(
            first.layout,
            len(shards),
            padded_length=first.padded_length,
            shard_seed=shard_seed,
        )
        for shard_id, shard in enumerate(shards):
            if shard.layout != first.layout:
                raise ParameterError("shards disagree on entry layout")
            for address, entries in shard.items():
                expected = shard_for_address(address, len(shards), sharded._seed)
                if expected != shard_id:
                    raise ParameterError(
                        f"address {address.hex()} stored in shard {shard_id} "
                        f"but hashes to shard {expected} (wrong seed or "
                        "shard order?)"
                    )
                sharded._shards[shard_id].add_list(address, list(entries))
        return sharded

    @classmethod
    def from_stores(
        cls,
        stores: Sequence,
        shard_seed: bytes = DEFAULT_SHARD_SEED,
    ) -> "ShardedIndex":
        """Wrap per-shard *store* objects without copying their lists.

        The packed-deployment load path: each element is any object
        with the shard-side index surface (``layout`` /
        ``padded_length`` / ``lookup`` / ``items`` / ``addresses`` /
        ``num_lists`` / ``size_bytes``) — e.g. a lazy
        :class:`~repro.cloud.store.PackedStore` — and is served *as
        is*, so an ``mmap``-backed shard stays lazy instead of being
        materialized the way :meth:`from_shards` does.  Placement is
        validated from ``addresses()`` alone: no posting block is
        decoded to prove the routing is right.
        """
        if not stores:
            raise ParameterError("at least one store is required")
        first = stores[0]
        sharded = cls(
            first.layout,
            len(stores),
            padded_length=first.padded_length,
            shard_seed=shard_seed,
        )
        for shard_id, store in enumerate(stores):
            if store.layout != first.layout:
                raise ParameterError("shards disagree on entry layout")
            for address in store.addresses():
                expected = shard_for_address(
                    address, len(stores), sharded._seed
                )
                if expected != shard_id:
                    raise ParameterError(
                        f"address {address.hex()} stored in shard "
                        f"{shard_id} but hashes to shard {expected} "
                        "(wrong seed or shard order?)"
                    )
        sharded._shards = tuple(stores)
        return sharded

    # -- partition geometry ------------------------------------------------

    @property
    def layout(self) -> EntryLayout:
        """The entry geometry (shared by all shards)."""
        return self._layout

    @property
    def padded_length(self) -> int | None:
        """``nu`` when padding is enabled, else None."""
        return self._padded_length

    @property
    def num_shards(self) -> int:
        """Number of partitions."""
        return len(self._shards)

    @property
    def shards(self) -> tuple[SecureIndex, ...]:
        """The per-shard indexes, in shard order."""
        return self._shards

    @property
    def shard_seed(self) -> bytes:
        """The placement seed (persisted with the deployment)."""
        return self._seed

    def shard_id(self, address: bytes) -> int:
        """Owning shard number of an address."""
        return shard_for_address(address, len(self._shards), self._seed)

    def shard_for(self, address: bytes) -> SecureIndex:
        """Owning shard of an address."""
        return self._shards[self.shard_id(address)]

    def shard_for_request(self, request_bytes: bytes) -> int:
        """Owning shard number of one request frame.

        The one route step of both coordinators: the shard owning the
        frame's :func:`routing_address`.  Raises
        :class:`~repro.errors.ProtocolError` for a malformed frame or
        an unroutable kind.
        """
        return shard_for_address(
            routing_address(request_bytes), len(self._shards), self._seed
        )

    # -- SecureIndex surface ----------------------------------------------

    def add_list(self, address: bytes, encrypted_entries: list[bytes]) -> None:
        """Store one posting list in its owning shard."""
        self.shard_for(address).add_list(address, encrypted_entries)

    def replace_list(
        self, address: bytes, encrypted_entries: list[bytes]
    ) -> None:
        """Replace an existing list in its owning shard."""
        self.shard_for(address).replace_list(address, encrypted_entries)

    def append_entries(
        self, address: bytes, encrypted_entries: list[bytes]
    ) -> list[bytes]:
        """Append to an existing list in its owning shard."""
        return self.shard_for(address).append_entries(
            address, encrypted_entries
        )

    def lookup(self, address: bytes) -> list[bytes] | None:
        """Fetch the entries at ``address`` from its owning shard."""
        return self.shard_for(address).lookup(address)

    def __contains__(self, address: bytes) -> bool:
        return address in self.shard_for(address)

    def items(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """All lists across shards, merged back into address order."""
        return heapq.merge(
            *(shard.items() for shard in self._shards),
            key=lambda item: item[0],
        )

    def addresses(self) -> Iterator[bytes]:
        """All addresses across shards, merged into ascending order."""
        return heapq.merge(*(shard.addresses() for shard in self._shards))

    @property
    def num_lists(self) -> int:
        """Total posting lists across shards."""
        return sum(shard.num_lists for shard in self._shards)

    def size_bytes(self) -> int:
        """Total ciphertext bytes across shards."""
        return sum(shard.size_bytes() for shard in self._shards)

    def to_secure_index(self) -> SecureIndex:
        """Merge back into a single unsharded index (a copy)."""
        merged = SecureIndex(self._layout, padded_length=self._padded_length)
        for address, entries in self.items():
            merged.add_list(address, list(entries))
        return merged

    # -- serialization -----------------------------------------------------

    def serialize(self) -> bytes:
        """Self-describing encoding: seed + per-shard index encodings."""
        import json

        payload = {
            "kind": "sharded-index",
            "shard_seed": self._seed.hex(),
            "shards": [
                json.loads(shard.serialize().decode("utf-8"))
                for shard in self._shards
            ],
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def deserialize(cls, data: bytes) -> "ShardedIndex":
        """Parse the :meth:`serialize` encoding (placement revalidated)."""
        import json

        try:
            payload = json.loads(data.decode("utf-8"))
            if payload.get("kind") != "sharded-index":
                raise ParameterError("not a sharded-index encoding")
            seed = bytes.fromhex(payload["shard_seed"])
            shards = [
                SecureIndex.deserialize(
                    json.dumps(item, sort_keys=True).encode("utf-8")
                )
                for item in payload["shards"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(
                f"malformed sharded-index encoding: {exc}"
            ) from exc
        return cls.from_shards(shards, shard_seed=seed)


@dataclass(frozen=True)
class PartialResult:
    """A degraded batch answer: what was served, and what was lost.

    The graceful-degradation contract of the resilient serving path: a
    search that loses shards returns the top-k answers the healthy
    shards produced plus an explicit account of the missing shards,
    instead of raising.  Leaks nothing beyond the already-public
    access pattern — shard ids are a public function of queried
    addresses, and a missing entry says only "this shard did not
    answer".

    Attributes
    ----------
    responses:
        One entry per request, in request order; ``None`` where the
        owning shard could not be reached within the retry policy.
    missing_shards:
        Sorted, de-duplicated ids of the shards that failed at least
        one request in this batch.
    failures:
        ``(request position, shard id, error class name)`` for every
        failed request — the full degradation account.
    """

    responses: tuple[bytes | None, ...]
    missing_shards: tuple[int, ...]
    failures: tuple[tuple[int, int, str], ...] = ()

    @property
    def complete(self) -> bool:
        """True when every request was served."""
        return not self.missing_shards

    @property
    def served(self) -> int:
        """Number of requests that got a response."""
        return sum(
            1 for response in self.responses if response is not None
        )

    def require_complete(self) -> tuple[bytes, ...]:
        """The responses, or :class:`ShardDownError` if any are missing."""
        if self.missing_shards:
            raise ShardDownError(
                f"shards {list(self.missing_shards)} did not answer "
                f"({self.served}/{len(self.responses)} requests served)"
            )
        return tuple(
            response
            for response in self.responses
            if response is not None
        )


class ClusterServer:
    """A sharded, thread-safe cloud server.

    Owns one :class:`CloudServer` per shard (each hosting one partition
    of the index and sharing the blob store), routes every request to
    the shard owning its address, and fans concurrent request batches
    out on a thread pool.  Exposes the same byte-level :meth:`handle`
    entry point as :class:`CloudServer`, so owners
    (:class:`~repro.cloud.updates.RemoteIndexMaintainer`) and users
    (:class:`~repro.cloud.user.DataUser`) connect to a cluster exactly
    as to a single server.

    Parameters
    ----------
    index:
        A pre-partitioned :class:`ShardedIndex`, or a plain
        :class:`SecureIndex` to partition on construction (snapshot).
    blob_store:
        The encrypted collection, shared across shards.
    can_rank:
        Forwarded to every shard server (efficient vs basic scheme).
    num_shards:
        Partition count when ``index`` is unsharded (default 4);
        must be omitted or match when a :class:`ShardedIndex` is given.
    cache_searches / cache_capacity:
        Per-cluster decrypted-list cache switch and *total* capacity;
        each shard runs its own LRU of ``capacity / N`` entries (at
        least one), and :meth:`invalidate_cache` routes to the owning
        shard.
    result_cache_bytes:
        Optional byte budget for a front-end cache of fully-encoded
        search response frames keyed by ``(codec, request-frame
        digest)``.  A hit answers without touching the owning shard
        (its stored observations are replayed into the shard's
        curious-server log, so search/access-pattern accounting stays
        exact) and is byte-identical to the uncached answer; updates
        bump the owning shard's epoch (blob mutations bump all), so a
        post-update query always re-executes.  Only single-keyword
        ``search`` frames are cached at this layer — multi-search
        fan-outs are cached by the socket front end
        (:class:`~repro.cloud.netserve.NetServer`).  ``None`` (the
        default) disables the cache.
    update_token:
        Write-authorization secret, forwarded to every shard.
    log_capacity:
        Optional per-shard bound on the curious-server observation log
        (see :class:`~repro.cloud.server.ServerLog`); ``None`` keeps
        full history.
    max_workers:
        Thread-pool width for :meth:`handle_many` (default: twice the
        shard count).
    link_model / simulate_latency:
        Forwarded to each shard's :class:`~repro.cloud.network.Channel`;
        with ``simulate_latency`` every shard call sleeps for its
        modeled service time, making scaling measurements wall-clock
        faithful (see ``benchmarks/bench_cluster_scaling.py``).
    fault_plan:
        Optional deterministic fault injection: each shard's channel
        is wrapped in a :class:`~repro.cloud.faults.FaultyChannel`
        with the plan's schedule for that shard id.
    retry_policy:
        Optional per-shard retry: each (possibly faulty) shard
        channel is wrapped in a
        :class:`~repro.cloud.retry.RetryingChannel`, so transient
        drops and corruption are absorbed before the circuit breaker
        ever sees a failure.
    breaker:
        Per-shard circuit-breaker tuning (defaults applied when
        omitted).  Breakers only act on
        :class:`~repro.errors.TransportError` failures, so a
        fault-free deployment never trips one.
    retry_sleep:
        Clock for retry backoff waits (injectable so tests and
        deterministic suites can run on modeled time).
    obs:
        Optional :class:`repro.obs.Obs` bundle, threaded through the
        whole serving stack: each request runs under a
        ``cluster.handle`` / ``cluster.handle_resilient`` root span
        with per-shard ``shard.dispatch`` children (retry attempts and
        injected faults annotate below them via the shard's retry and
        fault wrappers), shard servers record search-phase spans and
        leakage events, and headline counters/latency histograms land
        in the shared metrics registry.  ``None`` (the default) wires
        everything to the no-op tracer.
    """

    def __init__(
        self,
        index: SecureIndex | ShardedIndex,
        blob_store: BlobStore,
        can_rank: bool,
        num_shards: int | None = None,
        cache_searches: bool = False,
        cache_capacity: int | None = None,
        update_token: bytes | None = None,
        max_workers: int | None = None,
        link_model: LinkModel | None = None,
        simulate_latency: bool = False,
        shard_seed: bytes = DEFAULT_SHARD_SEED,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker: BreakerConfig | None = None,
        retry_sleep: Callable[[float], None] = time.sleep,
        obs=None,
        log_capacity: int | None = None,
        result_cache_bytes: int | None = None,
    ):
        self._obs = obs
        self._tracer = obs.tracer if obs is not None else NOOP_TRACER
        if isinstance(index, ShardedIndex):
            if num_shards is not None and num_shards != index.num_shards:
                raise ParameterError(
                    f"index has {index.num_shards} shards but num_shards="
                    f"{num_shards} was requested"
                )
            self._sharded = index
        else:
            self._sharded = ShardedIndex.from_secure_index(
                index,
                num_shards if num_shards is not None else DEFAULT_NUM_SHARDS,
                shard_seed=shard_seed,
            )
        shards = self._sharded.num_shards
        if cache_capacity is None:
            per_shard_capacity = None
        else:
            if cache_capacity < 1:
                raise ParameterError(
                    f"cache capacity must be >= 1, got {cache_capacity}"
                )
            per_shard_capacity = max(1, cache_capacity // shards)
        self._blobs = blob_store
        self._servers = tuple(
            CloudServer(
                shard,
                blob_store,
                can_rank,
                cache_searches=cache_searches,
                update_token=update_token,
                obs=obs,
                log_capacity=log_capacity,
                **(
                    {"cache_capacity": per_shard_capacity}
                    if per_shard_capacity is not None
                    else {}
                ),
            )
            for shard in self._sharded.shards
        )
        self._channels = tuple(
            Channel(
                server.handle,
                link_model=link_model,
                simulate_latency=simulate_latency,
            )
            for server in self._servers
        )
        # Serving stack per shard: base channel, optionally wrapped in
        # fault injection, optionally wrapped in retry.  Breakers sit
        # above the stack in _call_shard, so one exhausted retry run
        # counts as a single breaker failure.
        self._faulty_channels: tuple[FaultyChannel, ...] | None = None
        serving: tuple[Channel | FaultyChannel | RetryingChannel, ...]
        serving = self._channels
        if fault_plan is not None:
            self._faulty_channels = tuple(
                FaultyChannel(
                    channel, fault_plan.schedule_for(shard), obs=obs
                )
                for shard, channel in enumerate(serving)
            )
            serving = self._faulty_channels
        self._retrying_channels: tuple[RetryingChannel, ...] | None = None
        if retry_policy is not None:
            self._retrying_channels = tuple(
                RetryingChannel(
                    channel, retry_policy, sleep=retry_sleep, obs=obs
                )
                for channel in serving
            )
            serving = self._retrying_channels
        self._serving = serving
        self._breakers = tuple(
            CircuitBreaker(breaker) for _ in range(shards)
        )
        self._result_cache: ResultCache | None = (
            ResultCache(result_cache_bytes, shards)
            if result_cache_bytes is not None
            else None
        )
        self._shard_locks = tuple(threading.Lock() for _ in range(shards))
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers if max_workers is not None else 2 * shards,
            thread_name_prefix="rsse-shard",
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the request thread pool down (idempotent)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ClusterServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- topology ----------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return self._sharded.num_shards

    @property
    def sharded_index(self) -> ShardedIndex:
        """The hosted partitioned index."""
        return self._sharded

    @property
    def servers(self) -> tuple[CloudServer, ...]:
        """The per-shard servers, in shard order."""
        return self._servers

    @property
    def blob_store(self) -> BlobStore:
        """The hosted encrypted collection (shared across shards)."""
        return self._blobs

    # -- routing -----------------------------------------------------------

    def shard_id_for(self, request_bytes: bytes) -> int:
        """Owning shard of one request.

        Addressed requests (search, update-list) go to the shard that
        owns the address.  Blob requests carry no index address; they
        hash their file id (or id list) so blob traffic spreads across
        shard workers deterministically — the blob store itself is
        shared, so any worker can serve them.
        """
        return self._sharded.shard_for_request(request_bytes)

    def _call_shard(
        self, shard: int, request_bytes: bytes, parent=None
    ) -> tuple[bytes, tuple[SearchObservation, ...]]:
        """One shard call through breaker + retry + fault injection.

        Returns the response and the observations the call appended to
        the shard's log.  The breaker check, the call, the outcome
        recording and the log capture all happen under the shard lock,
        so breaker transitions are a deterministic function of the
        per-shard call sequence and the log delta is exactly this
        call's appends — the raw material the result cache replays
        into the shard log on every later hit.  Under fault injection
        a retried call may append more than one observation; the delta
        keeps them all, matching what the shard actually logged.  Only
        :class:`~repro.errors.TransportError` failures count against
        the breaker: a :class:`~repro.errors.ProtocolError` means the
        *request* was bad, not the shard.

        ``parent`` bridges the thread-pool boundary: pool workers pass
        the batch's root span explicitly so their ``shard.dispatch``
        spans land in the right trace tree.
        """
        server_log = self._servers[shard].log
        with self._tracer.span(
            "shard.dispatch", parent=parent, shard=shard
        ) as span:
            with self._shard_locks[shard]:
                breaker = self._breakers[shard]
                if not breaker.allow():
                    span.set(breaker="open")
                    raise ShardDownError(
                        f"shard {shard}: circuit open "
                        f"(awaiting half-open probe)"
                    )
                if self._tracer.enabled:
                    span.set(breaker=breaker.state)
                recorded_before = server_log.total_recorded
                try:
                    response = self._serving[shard].call(request_bytes)
                except TransportError:
                    breaker.record_failure()
                    raise
                breaker.record_success()
                return response, server_log.tail(
                    server_log.total_recorded - recorded_before
                )

    def _observe_request(self, kind: str, span) -> None:
        """Count one served root request + its traced duration."""
        if self._obs is None:
            return
        self._obs.metrics.counter(
            "repro_cluster_requests_total", kind=kind
        ).inc()
        if self._tracer.enabled and span.end_s is not None:
            self._obs.metrics.histogram(
                "repro_cluster_request_seconds", kind=kind
            ).observe(span.duration_s)

    def handle(self, request_bytes: bytes) -> bytes:
        """Route one request to its owning shard and serve it.

        Safe to call from many threads at once; requests to distinct
        shards proceed in parallel, requests to the same shard are
        serialized on the shard lock.  Under an injected fault plan
        this may raise a :class:`~repro.errors.TransportError`
        subclass; use :meth:`handle_resilient` for the non-raising
        degraded contract.
        """
        kind = peek_kind(request_bytes)
        if kind == "multi-search":
            return self._handle_multi_search(request_bytes)
        shard = self.shard_id_for(request_bytes)
        if self._result_cache is not None:
            if kind == "search":
                return self._handle_search_cached(request_bytes, shard)
            self._result_cache.note_mutation(kind, shard)
        with self._tracer.span("cluster.handle", shard=shard) as span:
            response, _ = self._call_shard(shard, request_bytes)
        self._observe_request("handle", span)
        return response

    def _observe_result_cache(self, outcome: str) -> None:
        if self._obs is None:
            return
        self._obs.metrics.counter(
            f"repro_result_cache_{outcome}_total", layer="cluster"
        ).inc()
        if self._result_cache is not None:
            self._obs.metrics.gauge(
                "repro_result_cache_resident_bytes", layer="cluster"
            ).set(float(self._result_cache.resident_bytes))

    def _handle_search_cached(self, request_bytes: bytes, shard: int) -> bytes:
        """Serve one search through the front-end result cache.

        A hit returns the stored frame and replays its observations
        into the owning shard's log (search/access-pattern exactness);
        a miss stamps the owning shard's epoch *before* dispatching,
        fills the cache, and returns the fresh frame — so a mutation
        racing the fill invalidates the entry rather than losing the
        race.
        """
        assert self._result_cache is not None
        codec = detect_codec(request_bytes)
        key = ResultCache.key_for(codec, request_bytes)
        entry = self._result_cache.get(key)
        if entry is not None:
            shard, observations = entry.payload
            server = self._servers[shard]
            for observation in observations:
                server.record_replayed_observation(observation)
            self._observe_result_cache("hits")
            if self._obs is not None:
                self._obs.metrics.counter(
                    "repro_cluster_requests_total", kind="handle"
                ).inc()
            return entry.frame
        stamps = self._result_cache.stamp((shard,))
        with self._tracer.span("cluster.handle", shard=shard) as span:
            response, captured = self._call_shard(shard, request_bytes)
        self._observe_request("handle", span)
        self._result_cache.put(
            key, stamps, response, payload=(shard, captured)
        )
        self._observe_result_cache("misses")
        return response

    # -- multi-keyword fan-out ---------------------------------------------

    def _multi_fanout(
        self, request_bytes: bytes, parent=None
    ) -> tuple[bytes | None, list[tuple[int, Exception]]]:
        """Serve one multi-search across shards; never raises transport.

        A query whose terms all live on one shard is forwarded whole —
        that shard aggregates, ranks, and attaches files exactly like
        a single server.  Otherwise each owning shard gets one partial
        sub-request (all of its terms in one call) on the thread pool,
        and the coordinator merges the partial aggregates, re-ranks
        under the identical tie-break, and attaches blobs from the
        shared store.  Returns ``(response_bytes, [])`` on success or
        ``(None, [(shard, error), ...])`` when any shard fails — the
        conjunctive intersection (and the disjunctive sum) is unsound
        with a shard missing, so a lost shard fails the whole query
        rather than silently dropping its terms.
        """
        codec = detect_codec(request_bytes)
        request = MultiSearchRequest.from_bytes(request_bytes)
        sub_requests = split_multi_request(
            request, self._sharded.num_shards, self._sharded.shard_seed
        )
        if len(sub_requests) == 1:
            shard = next(iter(sub_requests))
            try:
                response, _ = self._call_shard(
                    shard, request_bytes, parent=parent
                )
            except TransportError as exc:
                return None, [(shard, exc)]
            return response, []
        futures = {
            shard: self._executor.submit(
                self._call_shard,
                shard,
                sub_request.to_bytes(codec),
                parent,
            )
            for shard, sub_request in sorted(sub_requests.items())
        }
        partials: list[tuple[tuple[str, bytes], ...]] = []
        failures: list[tuple[int, Exception]] = []
        for shard, future in futures.items():
            try:
                response, _ = future.result()
            except TransportError as exc:
                failures.append((shard, exc))
                continue
            partials.append(MultiSearchResponse.from_bytes(response).matches)
        if failures:
            return None, failures
        return finish_multi_search(partials, request, codec, self._blobs), []

    def _handle_multi_search(
        self, request_bytes: bytes, parent=None
    ) -> bytes:
        """Raising flavour of the multi-search fan-out (handle path)."""
        with self._tracer.span(
            "cluster.multi_search", parent=parent
        ) as span:
            inner = span if self._tracer.enabled else None
            response, failures = self._multi_fanout(
                request_bytes, parent=inner
            )
            if self._tracer.enabled:
                span.set(failed_shards=len(failures))
        if failures:
            raise failures[0][1]
        assert response is not None
        self._observe_request("multi_search", span)
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_cluster_multi_requests_total",
                mode=MultiSearchRequest.from_bytes(request_bytes).mode,
            ).inc()
        return response

    def _group_by_shard(
        self, batch: Sequence[bytes]
    ) -> tuple[dict[int, list[int]], list[int]]:
        """Request positions per owning shard, in request order.

        The batch fan-out unit: one pooled task per *shard* per batch
        (not per request), amortizing thread-pool dispatch and breaker
        bookkeeping across every request a shard owns.  Multi-search
        requests have no single owning shard; their positions come
        back separately and are fanned out by the coordinator itself
        (each one already parallelizes internally across shards).

        Routing is where the batch's mutations are first known, so the
        result-cache epochs they invalidate are bumped here, before
        anything in the batch is dispatched.
        """
        groups: dict[int, list[int]] = {}
        multi_positions: list[int] = []
        for position, request_bytes in enumerate(batch):
            kind = peek_kind(request_bytes)
            if kind == "multi-search":
                multi_positions.append(position)
                continue
            shard = self.shard_id_for(request_bytes)
            if self._result_cache is not None:
                self._result_cache.note_mutation(kind, shard)
            groups.setdefault(shard, []).append(position)
        return groups, multi_positions

    def _observe_batch(self, batch_size: int, groups: int, kind: str) -> None:
        """Record one batch fan-out in the metrics registry."""
        if self._obs is None:
            return
        self._obs.metrics.histogram(
            "repro_cluster_batch_size",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
            kind=kind,
        ).observe(float(batch_size))
        self._obs.metrics.counter(
            "repro_cluster_batch_tasks_total", kind=kind
        ).inc(groups)

    def handle_many(self, requests: Iterable[bytes]) -> list[bytes]:
        """Serve a batch concurrently; responses in request order.

        The batch is grouped by owning shard and dispatched as one
        pooled task per shard: requests for distinct shards run in
        parallel, while a shard's own requests run back-to-back on one
        worker without re-queueing — the same serialization the shard
        lock would force anyway, minus the pool overhead.  Responses
        are byte-identical to per-request :meth:`handle` calls.

        If any request fails, the whole batch still executes (matching
        the per-request dispatch semantics) and the earliest-position
        exception is raised.
        """
        batch = list(requests)
        if not batch:
            return []
        groups, multi_positions = self._group_by_shard(batch)
        self._observe_batch(
            len(batch), len(groups) + len(multi_positions), "handle_many"
        )
        responses: list[bytes | None] = [None] * len(batch)
        errors: list[tuple[int, Exception]] = []
        errors_lock = threading.Lock()

        def run_group(shard: int, positions: list[int]) -> None:
            for position in positions:
                try:
                    with self._tracer.span(
                        "cluster.handle", shard=shard
                    ) as span:
                        responses[position], _ = self._call_shard(
                            shard, batch[position]
                        )
                    self._observe_request("handle", span)
                except Exception as exc:
                    with errors_lock:
                        errors.append((position, exc))

        futures = [
            self._executor.submit(run_group, shard, positions)
            for shard, positions in groups.items()
        ]
        # Multi-searches run from the coordinator thread (each fans
        # its per-shard sub-requests out on the pool itself, so a
        # pooled wrapper task would just hold a worker hostage while
        # waiting on other workers).
        for position in multi_positions:
            try:
                responses[position] = self._handle_multi_search(
                    batch[position]
                )
            except Exception as exc:
                with errors_lock:
                    errors.append((position, exc))
        for future in futures:
            future.result()
        if errors:
            raise min(errors, key=lambda item: item[0])[1]
        return [response for response in responses if response is not None]

    def _try_handle(
        self, position: int, request_bytes: bytes, shard: int, parent=None
    ) -> tuple[int, bytes | None, int, str | None]:
        try:
            response, _ = self._call_shard(
                shard, request_bytes, parent=parent
            )
            return position, response, shard, None
        except TransportError as exc:
            return position, None, shard, type(exc).__name__

    def handle_resilient(self, request_bytes: bytes) -> PartialResult:
        """Serve one request, degrading instead of raising.

        Transport failures (after the retry policy is exhausted and
        the breaker consulted) come back as a
        :class:`PartialResult` naming the missing shard — never as an
        exception.
        """
        return self.handle_many_resilient([request_bytes])

    def handle_many_resilient(
        self, requests: Iterable[bytes]
    ) -> PartialResult:
        """Serve a batch concurrently with graceful degradation.

        Every request is attempted; requests whose owning shard is
        unreachable (retries exhausted or circuit open) are reported
        in ``missing_shards``/``failures`` while the rest of the
        batch is served normally.  Responses stay in request order.
        """
        batch = list(requests)
        with self._tracer.span(
            "cluster.handle_resilient", requests=len(batch)
        ) as root:
            # The root span is passed explicitly: pool workers run in
            # other threads, where thread-local parenting cannot see it.
            parent = root if self._tracer.enabled else None
            groups, multi_positions = self._group_by_shard(batch)
            self._observe_batch(
                len(batch),
                len(groups) + len(multi_positions),
                "handle_resilient",
            )

            def run_group(
                shard: int, positions: list[int]
            ) -> list[tuple[int, bytes | None, int, str | None]]:
                return [
                    self._try_handle(
                        position, batch[position], shard, parent=parent
                    )
                    for position in positions
                ]

            futures = [
                self._executor.submit(run_group, shard, positions)
                for shard, positions in groups.items()
            ]
            responses_by_position: dict[int, bytes | None] = {}
            failure_entries: list[tuple[int, int, str]] = []
            # Coordinator-side multi-search fan-out (see handle_many);
            # a multi that loses shards yields None at its position
            # plus one failure entry per lost shard.
            for position in multi_positions:
                response, shard_failures = self._multi_fanout(
                    batch[position], parent=parent
                )
                responses_by_position[position] = response
                failure_entries.extend(
                    (position, shard, type(exc).__name__)
                    for shard, exc in shard_failures
                )
            for future in futures:
                for position, response, shard, error in future.result():
                    responses_by_position[position] = response
                    if error is not None:
                        failure_entries.append((position, shard, error))
            failures = tuple(sorted(failure_entries))
            result = PartialResult(
                responses=tuple(
                    responses_by_position[position]
                    for position in range(len(batch))
                ),
                missing_shards=tuple(
                    sorted({shard for _, shard, _ in failures})
                ),
                failures=failures,
            )
            root.set(served=result.served, failed=len(failures))
        self._observe_request("handle_resilient", root)
        if self._obs is not None and failures:
            self._obs.metrics.counter(
                "repro_cluster_degraded_requests_total"
            ).inc(len(failures))
        return result

    # -- cache -------------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Searches answered from shard caches, cluster-wide."""
        return sum(server.cache_hits for server in self._servers)

    @property
    def result_cache(self) -> ResultCache | None:
        """The front-end encoded-response cache (None when disabled)."""
        return self._result_cache

    def invalidate_cache(self, address: bytes | None = None) -> None:
        """Drop cached decrypted lists (all shards, or one address)."""
        if address is None:
            for server in self._servers:
                server.invalidate_cache()
            if self._result_cache is not None:
                self._result_cache.bump(None)
        else:
            shard = self._sharded.shard_id(address)
            self._servers[shard].invalidate_cache(address)
            if self._result_cache is not None:
                self._result_cache.bump(shard)

    # -- observability -----------------------------------------------------

    @property
    def shard_stats(self) -> tuple[ChannelStats, ...]:
        """Per-shard traffic counters, in shard order."""
        return tuple(channel.stats for channel in self._channels)

    def total_stats(self) -> ChannelStats:
        """Cluster-wide traffic counters (merged across shards).

        Merging snapshots each shard's stats atomically, so sampling
        a live cluster never sums a torn per-shard view.
        """
        return ChannelStats.merged(self.shard_stats)

    @property
    def shard_health(self) -> tuple[BreakerSnapshot, ...]:
        """Per-shard circuit-breaker views, in shard order."""
        return tuple(breaker.snapshot() for breaker in self._breakers)

    def publish_breaker_gauges(self) -> None:
        """Refresh ``repro_net_breaker_state{worker=...}`` gauges.

        The same series the networked front end publishes
        (:meth:`repro.cloud.netserve.NetServer.scrape`), so one
        dashboard watches breaker health across both deployment
        shapes.  Published at scrape time — the breakers hold the
        authoritative state; a per-call mirror would just be a second
        copy to keep coherent.  No-op without an obs bundle.
        """
        if self._obs is None:
            return
        for shard, breaker in enumerate(self._breakers):
            snapshot = breaker.snapshot()
            self._obs.metrics.gauge(
                "repro_net_breaker_state", worker=str(shard)
            ).set(BREAKER_STATE_VALUES[snapshot.state])

    def scrape(self) -> str:
        """Prometheus exposition text for this in-process cluster.

        Parity with :meth:`repro.cloud.netserve.NetServer.scrape`:
        breaker-state gauges and per-shard channel-traffic gauges are
        refreshed first, so the text covers serving counters, breaker
        health, and wire bytes in one scrape.  Raises
        :class:`~repro.errors.ParameterError` when the cluster runs
        with observability disabled.
        """
        if self._obs is None:
            raise ParameterError(
                "observability is disabled on this cluster (obs=None)"
            )
        self.publish_breaker_gauges()
        for shard, stats in enumerate(self.shard_stats):
            stats.publish(self._obs.metrics, channel=str(shard))
        return render_prometheus(self._obs.metrics.snapshot())

    @property
    def fault_stats(self) -> tuple[FaultStats, ...] | None:
        """Per-shard injected-fault counters (None without a plan)."""
        if self._faulty_channels is None:
            return None
        return tuple(
            channel.fault_stats for channel in self._faulty_channels
        )

    @property
    def retrying_channels(self) -> tuple[RetryingChannel, ...] | None:
        """Per-shard retry wrappers (None without a policy).

        Exposes the per-call attempt traces the determinism suites
        compare run-to-run.
        """
        return self._retrying_channels

    @property
    def logs(self) -> tuple[ServerLog, ...]:
        """Per-shard curious-server logs, in shard order."""
        return tuple(server.log for server in self._servers)

    def search_pattern(self) -> dict[bytes, int]:
        """Cluster-wide search pattern (merged across shard logs)."""
        pattern: Counter[bytes] = Counter()
        for log in self.logs:
            pattern.update(log.search_pattern())
        return dict(pattern)
