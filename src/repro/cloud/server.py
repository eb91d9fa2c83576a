"""The honest-but-curious cloud server.

Hosts the secure index and the encrypted file collection, and executes
searches exactly as the protocol prescribes (honest) while recording
everything it observes (curious): which index address was queried, how
often, which files matched, and the protected score fields — the raw
material for the leakage analysis in :mod:`repro.analysis.leakage` and
the reverse-engineering attack of :mod:`repro.analysis.attacks`.

The server never holds any key except the per-list keys ``f_y(w)``
embedded in trapdoors it receives, so its capabilities are exactly the
paper's threat model.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import MutableSequence, Sequence

from repro.cloud.cache import DEFAULT_CACHE_CAPACITY, LruCache
from repro.cloud.protocol import (
    CODEC_BINARY,
    MODE_CONJUNCTIVE,
    FileRequest,
    MultiSearchRequest,
    MultiSearchResponse,
    ObservedRequest,
    ObservedResponse,
    ObsSnapshotRequest,
    ObsSnapshotResponse,
    RankedFilesResponse,
    SearchRequest,
    SearchResponse,
    TracedRequest,
    detect_codec,
    pack_multi_score,
    pack_partial_score,
    peek_kind,
)
from repro.cloud.storage import BlobStore
from repro.core.results import ServerMatch
from repro.core.secure_index import SecureIndex, decrypt_posting_list
from repro.core.trapdoor import Trapdoor
from repro.errors import ParameterError, ProtocolError
from repro.ir.topk import (
    intersect_sums,
    rank_all,
    rank_pairs,
    top_k,
    top_of_ranked,
    union_sums,
)
from repro.obs.export import export_jsonl
from repro.obs.trace import NOOP_TRACER, RemoteParent, Span


@dataclass(frozen=True)
class SearchObservation:
    """Everything the curious server wrote down about one search.

    Attributes
    ----------
    address:
        The queried index address (search pattern: equal addresses mean
        equal keywords).
    matched_file_ids:
        The access pattern — which files were touched.
    score_fields:
        The protected score field of every match (OPM values in the
        efficient scheme: the attack surface of Fig. 4 / Fig. 6).
    returned_file_ids:
        What was actually sent back (for top-k, a strict subset — the
        extra "requested files outrank the rest" leakage of the basic
        two-round protocol shows up here too).
    """

    address: bytes
    matched_file_ids: tuple[str, ...]
    score_fields: tuple[bytes, ...]
    returned_file_ids: tuple[str, ...]


@dataclass
class ServerLog:
    """The curious server's accumulating notebook.

    By default every observation is kept forever — leakage analysis
    needs the full history.  For million-query benchmark runs pass
    ``max_observations`` to keep only the most recent window (a
    ``deque(maxlen=...)``); the running :meth:`search_pattern` counter
    still covers *all* observations ever recorded through
    :meth:`record`, so pattern accounting stays exact even when old
    observations have been dropped.
    """

    observations: MutableSequence[SearchObservation] = field(
        default_factory=list
    )
    max_observations: int | None = None

    def __post_init__(self) -> None:
        if self.max_observations is not None:
            if self.max_observations < 1:
                raise ParameterError(
                    "max_observations must be >= 1, got "
                    f"{self.max_observations}"
                )
            self.observations = deque(
                self.observations, maxlen=self.max_observations
            )
        self._pattern: Counter[bytes] = Counter(
            observation.address for observation in self.observations
        )
        self._recorded = len(self.observations)

    def record(self, observation: SearchObservation) -> None:
        """Append one observation, keeping the pattern counter exact."""
        self.observations.append(observation)
        self._pattern[observation.address] += 1
        self._recorded += 1

    @property
    def total_recorded(self) -> int:
        """Lifetime observations recorded (monotone; survives bounded
        logs dropping old entries, so callers can count appends by
        differencing)."""
        return self._recorded

    def tail(self, count: int) -> tuple[SearchObservation, ...]:
        """The most recent ``count`` retained observations, in order."""
        if count <= 0:
            return ()
        observations = self.observations
        count = min(count, len(observations))
        if isinstance(observations, deque):
            start = len(observations) - count
            return tuple(
                itertools.islice(observations, start, len(observations))
            )
        return tuple(observations[-count:])

    def search_pattern(self) -> dict[bytes, int]:
        """Address -> times queried (the search pattern).

        Unbounded logs answer with one :class:`collections.Counter`
        sweep of ``observations`` (so direct appends — the
        leakage-analysis idiom — are always counted).  Bounded logs
        answer from the running counter maintained by :meth:`record`,
        which is exact across the full history even after old
        observations fall out of the window.
        """
        if self.max_observations is None:
            return dict(
                Counter(
                    observation.address
                    for observation in self.observations
                )
            )
        return dict(self._pattern)

    def access_pattern(self) -> dict[bytes, tuple[str, ...]]:
        """Address -> matched files (the access pattern)."""
        return {
            observation.address: observation.matched_file_ids
            for observation in self.observations
        }


def _descending_opm(match: ServerMatch) -> int:
    return -match.opm_value()


@dataclass
class CachedPostings:
    """One decrypted posting list, as the warm cache stores it.

    ``matches`` keeps index order (what the curious server logs, and
    what the basic scheme returns).  ``ranked`` is the same matches
    pre-sorted by descending OPM value — built once at cache-fill time
    so every OPM score field is decoded to an int exactly once, and a
    warm top-k query is an O(k) slice.  Pre-sorting is a legitimate
    optimization: numeric order of the score fields is exactly what
    the one-to-many OPM already leaks to the server, so the cache
    stores nothing the server could not always compute.  ``ranked`` is
    ``None`` for the basic scheme (``can_rank=False``: score fields
    are semantically secure, the server cannot sort them).

    An owner append keeps the entry warm: the server holds no list key
    at update time, so it only extends ``pending`` with the appended
    ciphertexts.  The next search of the address carries the key in
    its trapdoor; it decrypts just those entries and folds them in
    with :meth:`absorb`.  The entry is mutated in place, only under
    the owning server's lock.
    """

    matches: tuple[ServerMatch, ...]
    ranked: tuple[ServerMatch, ...] | None
    #: ``file_id -> decoded OPM value``, built at fill time alongside
    #: ``ranked`` so a warm multi-keyword aggregation probes a dict
    #: instead of re-decoding score fields.  ``None`` when the server
    #: cannot rank or caching is off.
    by_file: dict[str, int] | None = None
    #: Appended ciphertexts not yet decrypted, in list order.
    pending: tuple[bytes, ...] = ()

    def absorb(self, fresh: Sequence[ServerMatch]) -> None:
        """Fold in the decrypted ``pending`` entries and clear them.

        Leaves the entry exactly as a cold fill of the extended list
        would build it: ``fresh`` follows ``matches`` in list order,
        and each fresh match lands in ``ranked`` after every match
        with an equal or higher score — ``rank_all``'s tie-break
        toward earlier entries.
        """
        self.pending = ()
        if not fresh:
            return
        self.matches += tuple(fresh)
        if self.ranked is not None:
            ranked = list(self.ranked)
            for match in fresh:
                bisect.insort_right(ranked, match, key=_descending_opm)
            self.ranked = tuple(ranked)
        if self.by_file is not None:
            self.by_file.update(
                (match.file_id, match.opm_value()) for match in fresh
            )


class CloudServer:
    """The cloud server ``CS`` of Fig. 1.

    One ``CloudServer`` processes one request at a time: :meth:`handle`
    takes an internal lock, so concurrent callers are safe but
    serialized.  The unit of parallelism is the *server* — the sharded
    front end (:class:`repro.cloud.cluster.ClusterServer`) runs one of
    these per shard to serve searches concurrently.

    Parameters
    ----------
    secure_index:
        The outsourced index ``I`` — an in-memory
        :class:`SecureIndex` or any object with the same server-side
        surface (``layout`` / ``padded_length`` / ``lookup`` /
        ``__contains__`` / ``add_list`` / ``replace_list`` /
        ``append_entries`` / ``items`` / ``num_lists`` /
        ``size_bytes``), e.g. a lazy ``mmap``-backed
        :class:`~repro.cloud.store.PackedStore` whose cold lookups
        touch only the queried posting block before feeding the same
        ranked warm cache.
    blob_store:
        The encrypted collection ``C``.
    can_rank:
        True for the efficient scheme (score fields are OPM values and
        numeric order is relevance order); False for the basic scheme,
        where the server returns matches in index order because score
        fields are semantically secure ciphertexts.
    cache_searches:
        Memoize decrypted posting lists per queried address (the search
        pattern the scheme already leaks) in a bounded LRU cache.
    cache_capacity:
        Maximum decrypted lists resident when caching is enabled.
    log_capacity:
        Optional bound on the curious server's observation log (see
        :class:`ServerLog`).  ``None`` (the default) keeps the full
        history for leakage analysis.
    obs:
        Optional :class:`repro.obs.Obs` bundle.  When set, every
        handled request runs under a ``server.handle`` span (with
        per-phase child spans for trapdoor parsing, posting-list
        decryption, and ranking), searches append to the replayable
        leakage-event stream, and headline counters mirror into the
        metrics registry.  ``None`` (the default) keeps the whole path
        on the shared no-op tracer.
    """

    def __init__(
        self,
        secure_index: SecureIndex,
        blob_store: BlobStore,
        can_rank: bool,
        cache_searches: bool = False,
        update_token: bytes | None = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        obs=None,
        log_capacity: int | None = None,
    ):
        self._index = secure_index
        self._blobs = blob_store
        self._can_rank = can_rank
        self._log = ServerLog(max_observations=log_capacity)
        self._cache: LruCache | None = (
            LruCache(cache_capacity) if cache_searches else None
        )
        self._update_token = update_token
        self._lock = threading.RLock()
        self._obs = obs
        self._tracer = obs.tracer if obs is not None else NOOP_TRACER

    @property
    def log(self) -> ServerLog:
        """The curious server's observation log."""
        return self._log

    @property
    def secure_index(self) -> SecureIndex:
        """The hosted index (the server owns this data)."""
        return self._index

    @property
    def blob_store(self) -> BlobStore:
        """The hosted encrypted collection."""
        return self._blobs

    # -- protocol handling -------------------------------------------------

    def handle(self, request_bytes: bytes) -> bytes:
        """Transport entry point: dispatch one request, return response.

        Serialized on the server's lock: this server is a one-worker
        service, safe (but not parallel) under concurrent callers.

        The response mirrors the request's wire codec: a binary-framed
        request gets a binary-framed response, a JSON request a JSON
        one, so clients never need to negotiate.

        A request may arrive wrapped in a
        :class:`~repro.cloud.protocol.TracedRequest` envelope carrying
        the caller's trace context; the envelope is unwrapped
        unconditionally (so enabling tracing on either side never
        changes response bytes), and when this server's tracer is live
        the ``server.handle`` span adopts the remote caller's span as
        its parent — one stitched tree per query across the process
        boundary.  ``obs-snapshot`` requests are answered outside the
        span and metric instrumentation entirely: a telemetry scrape
        observes the server without perturbing what it observes.
        """
        kind = peek_kind(request_bytes)
        parent: RemoteParent | None = None
        if kind == "traced":
            envelope = TracedRequest.from_bytes(request_bytes)
            request_bytes = envelope.payload
            kind = peek_kind(request_bytes)
            if self._tracer.enabled:
                parent = RemoteParent(
                    envelope.trace_id, envelope.span_id
                )
        observe = False
        if kind == "observed":
            request_bytes = ObservedRequest.from_bytes(request_bytes).payload
            kind = peek_kind(request_bytes)
            observe = True
        codec = detect_codec(request_bytes)
        if kind == "obs-snapshot":
            ObsSnapshotRequest.from_bytes(request_bytes)
            return self._handle_obs_snapshot().to_bytes(codec)
        with self._tracer.span("server.handle", parent=parent, kind=kind):
            with self._lock:
                recorded_before = self._log.total_recorded
                response_bytes = self._dispatch_locked(
                    kind, request_bytes, codec
                )
                if response_bytes is not None:
                    if observe:
                        return ObservedResponse(
                            payload=response_bytes,
                            observations=self._captured_observations(
                                self._log.total_recorded - recorded_before
                            ),
                        ).to_bytes(CODEC_BINARY)
                    return response_bytes
        raise ProtocolError(f"unknown request kind {kind!r}")

    def _dispatch_locked(
        self, kind: str, request_bytes: bytes, codec: str
    ) -> bytes | None:
        """Serve one unwrapped request (caller holds the lock and span)."""
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_server_requests_total", codec=codec
            ).inc()
        if kind == "search":
            return self._handle_search(
                SearchRequest.from_bytes(request_bytes)
            ).to_bytes(codec)
        if kind == "multi-search":
            return self._handle_multi_search(
                MultiSearchRequest.from_bytes(request_bytes)
            ).to_bytes(codec)
        if kind == "fetch":
            return self._handle_fetch(
                FileRequest.from_bytes(request_bytes)
            ).to_bytes(codec)
        if kind in ("update-list", "put-blob", "remove-blob"):
            response = self._handle_update(kind, request_bytes)
            if self._obs is not None:
                self._obs.metrics.counter(
                    "repro_server_updates_total", kind=kind
                ).inc()
            return response.to_bytes(codec)
        return None

    def _captured_observations(
        self, appended: int
    ) -> tuple[tuple[bytes, tuple[str, ...], tuple[str, ...]], ...]:
        """Wire form of the observations the current dispatch appended.

        Score fields are deliberately excluded: the leakage-event
        stream the front end replays into never carries them.
        """
        return tuple(
            (
                observation.address,
                observation.matched_file_ids,
                observation.returned_file_ids,
            )
            for observation in self._log.tail(appended)
        )

    def _handle_update(self, kind: str, request_bytes: bytes):
        """Apply one authenticated update, idempotently.

        Every update is safe to re-send: a retry layer that lost a
        response (e.g. corrupted in flight) re-executes the request,
        so appends skip entries already present (exact-duplicate
        detection is sound because entry encryption is deterministic),
        a re-put of an identical blob acks, and removing an absent
        blob acks.  Conflicting re-puts are still an error — that is
        a protocol violation, not a retry.

        An append to an existing list goes through the store's
        ``append_entries`` (a packed store logs only the new entries)
        and keeps the list's warm cache entry, queueing the appended
        ciphertexts on it; a replace or a new list drops the entry.
        """
        from repro.cloud.updates import (
            AckResponse,
            PutBlobRequest,
            RemoveBlobRequest,
            UpdateListRequest,
            check_token,
        )

        if kind == "update-list":
            request = UpdateListRequest.from_bytes(request_bytes)
            check_token(self._update_token, request.token)
            exists = request.address in self._index
            if request.mode == "append" and exists:
                fresh = self._index.append_entries(
                    request.address, list(request.entries)
                )
                if not fresh:
                    return AckResponse(ok=True, detail="already applied")
                if self._cache is not None:
                    cached = self._cache.peek(request.address)
                    if cached is not None:
                        cached.pending += tuple(fresh)
                return AckResponse(ok=True)
            if request.mode == "append":
                self._index.add_list(request.address, list(request.entries))
            else:  # replace
                if not exists:
                    raise ProtocolError(
                        "cannot replace a posting list that does not exist"
                    )
                self._index.replace_list(
                    request.address, list(request.entries)
                )
            self.invalidate_cache(request.address)
            return AckResponse(ok=True)
        if kind == "put-blob":
            put = PutBlobRequest.from_bytes(request_bytes)
            check_token(self._update_token, put.token)
            stored = self._blobs.get_optional(put.file_id)
            if stored is not None:
                if stored == put.blob:
                    return AckResponse(ok=True, detail="already stored")
                raise ProtocolError(
                    f"blob {put.file_id!r} already stored with "
                    "different contents"
                )
            self._blobs.put(put.file_id, put.blob)
            return AckResponse(ok=True)
        remove = RemoveBlobRequest.from_bytes(request_bytes)
        check_token(self._update_token, remove.token)
        if remove.file_id not in self._blobs:
            return AckResponse(ok=True, detail="already removed")
        self._blobs.delete(remove.file_id)
        return AckResponse(ok=True)

    def _handle_obs_snapshot(self) -> ObsSnapshotResponse:
        """Ship this server's telemetry (spans, metrics, leakage, slow).

        Runs outside the request span and counters so back-to-back
        scrapes are byte-identical; a server without an obs bundle
        answers with the minimal (header-only) artifact rather than an
        error, so a mixed deployment still scrapes cleanly.
        """
        with self._lock:
            if self._obs is None:
                artifact = export_jsonl()
            else:
                artifact = self._obs.export_jsonl()
        return ObsSnapshotResponse(artifact=artifact.encode("utf-8"))

    def _record_slow(
        self,
        kind: str,
        phase_spans: tuple[tuple[str, Span], ...],
    ) -> None:
        """Feed one served query's phase spans to the slow-query log.

        Phase durations come straight from the handler's own spans
        (decode -> postings -> aggregate/rank -> respond), so a kept
        entry arrives already attributed; with tracing off the spans
        are no-ops and nothing is recorded.
        """
        if self._obs is None or not self._tracer.enabled:
            return
        current = self._tracer.current()
        self._obs.slowlog.record(
            kind,
            current.trace_id if current is not None else 0,
            tuple(
                (name, span.duration_s) for name, span in phase_spans
            ),
        )

    @property
    def cache_hits(self) -> int:
        """Searches answered from the decrypted-list cache."""
        return self._cache.hits if self._cache is not None else 0

    @property
    def cache(self) -> LruCache | None:
        """The bounded decrypted-list cache (None when disabled)."""
        return self._cache

    def invalidate_cache(self, address: bytes | None = None) -> None:
        """Drop cached decrypted lists.

        An owner changing the hosted index behind the server's back
        must call this (or deploy with ``cache_searches=False``); the
        simulated deployment gives the owner a direct handle.  The
        update protocol of :mod:`repro.cloud.updates` calls it for a
        replaced list and for a new one; an append to an existing list
        keeps the entry warm instead (see :class:`CachedPostings`).
        With an address, only that posting list is dropped; without
        one, everything goes.
        """
        if self._cache is None:
            return
        with self._lock:
            if address is None:
                self._cache.clear()
            else:
                self._cache.pop(address)

    def record_replayed_observation(
        self, observation: SearchObservation
    ) -> None:
        """Log one search served from a cache in front of this server.

        The cluster's result cache answers repeat queries without
        touching the owning shard, yet the shard's curious-server log
        must still count every logical search (search- and
        access-pattern exactness is a correctness property of the
        leakage analysis).  The front end replays the stored
        observation here on every hit.
        """
        with self._lock:
            self._log.record(observation)
            if self._obs is not None:
                self._obs.leakage.record(
                    observation.address,
                    matched_file_ids=observation.matched_file_ids,
                    returned_file_ids=observation.returned_file_ids,
                )
                self._obs.metrics.counter(
                    "repro_server_searches_total"
                ).inc()

    def _postings_for(self, trapdoor: Trapdoor) -> CachedPostings:
        """``SearchIndex``: locate, decrypt, drop dummies.

        With caching enabled, repeated trapdoors (the *search pattern*
        the scheme already reveals) reuse the decrypted list: the
        per-entry decryption work is paid once per keyword, not once
        per query — a legitimate optimization because it consumes only
        information the protocol leaks anyway.  The cache is a bounded
        LRU (:class:`~repro.cloud.cache.LruCache`): cold keywords are
        evicted and simply re-decrypted on their next query.

        In the efficient scheme the cache additionally stores the list
        pre-sorted by descending OPM value (see
        :class:`CachedPostings`): the sort and every score-field
        decode happen once at fill time, and warm top-k queries are an
        O(k) slice.  A warm entry with appended entries pending
        decrypts only those.
        """
        if self._cache is not None:
            cached = self._cache.get(trapdoor.address)
            if cached is not None:
                if cached.pending:
                    cached.absorb(self._decrypt(trapdoor, cached.pending))
                return cached
        entries = self._index.lookup(trapdoor.address)
        matches = (
            self._decrypt(trapdoor, entries) if entries is not None else ()
        )
        ranked: tuple[ServerMatch, ...] | None = None
        by_file: dict[str, int] | None = None
        if self._cache is not None and self._can_rank:
            # rank_all's tie-break (toward earlier items) matches
            # top_k's, so slicing this pre-sorted list reproduces the
            # per-query ranking byte for byte.
            ranked = tuple(
                rank_all(matches, key=ServerMatch.opm_value)
            )
            by_file = {
                match.file_id: match.opm_value() for match in matches
            }
        posting = CachedPostings(
            matches=matches, ranked=ranked, by_file=by_file
        )
        if self._cache is not None:
            self._cache.put(trapdoor.address, posting)
        return posting

    def _decrypt(
        self, trapdoor: Trapdoor, entries: Sequence[bytes]
    ) -> tuple[ServerMatch, ...]:
        """Decrypt entries under the trapdoor's list key, dropping dummies."""
        return tuple(
            ServerMatch(file_id=file_id, score_field=score_field)
            for file_id, score_field in decrypt_posting_list(
                self._index.layout, trapdoor.list_key, entries
            )
        )

    def _handle_search(self, request: SearchRequest) -> SearchResponse:
        with self._tracer.span("search.trapdoor") as decode_span:
            trapdoor = Trapdoor.deserialize(request.trapdoor_bytes)
        hits_before = self.cache_hits
        with self._tracer.span("search.postings") as postings_span:
            posting = self._postings_for(trapdoor)
            matches = posting.matches
            postings_span.set(
                postings=len(matches),
                cache_hit=self.cache_hits > hits_before,
            )

        rank_counters: dict[str, int] | None = (
            {} if self._tracer.enabled else None
        )
        with self._tracer.span(
            "search.rank",
            can_rank=self._can_rank,
            k=request.top_k,
        ) as rank_span:
            if not self._can_rank:
                # Semantically secure score fields: no server-side
                # ranking possible; a top-k bound cannot be honoured
                # meaningfully.
                ordered = list(matches)
            elif posting.ranked is not None:
                # Ranked-cache fast path: the list is already in
                # descending OPM order, so top-k is an O(k) slice —
                # zero comparisons, zero score-field decodes.
                ordered = top_of_ranked(
                    posting.ranked, request.top_k, counters=rank_counters
                )
                rank_span.set(ranked_cache=True)
            elif request.top_k is not None:
                # Honesty mode (no cache): one bounded-heap pass.
                ordered = top_k(
                    matches,
                    request.top_k,
                    key=ServerMatch.opm_value,
                    counters=rank_counters,
                )
            else:
                ordered = rank_all(
                    matches,
                    key=ServerMatch.opm_value,
                    counters=rank_counters,
                )
            if rank_counters:
                rank_span.set(**rank_counters)

        with self._tracer.span("search.files") as files_span:
            if request.entries_only:
                returned: list[ServerMatch] = []
                files: tuple[tuple[str, bytes], ...] = ()
            else:
                # Tolerate a file removed between the index read and
                # the blob fetch (concurrent owner updates): dropping
                # it from both lists yields exactly the post-removal
                # response instead of a torn one.
                returned = []
                payloads = []
                for match in ordered:
                    blob = self._blobs.get_optional(match.file_id)
                    if blob is None:
                        continue
                    returned.append(match)
                    payloads.append((match.file_id, blob))
                ordered = returned
                files = tuple(payloads)
            files_span.set(files=len(files))

        self._log.record(
            SearchObservation(
                address=trapdoor.address,
                matched_file_ids=tuple(match.file_id for match in matches),
                score_fields=tuple(match.score_field for match in matches),
                returned_file_ids=tuple(match.file_id for match in returned),
            )
        )
        if self._obs is not None:
            current = self._tracer.current()
            self._obs.leakage.record(
                trapdoor.address,
                matched_file_ids=tuple(
                    match.file_id for match in matches
                ),
                returned_file_ids=tuple(
                    match.file_id for match in returned
                ),
                trace_id=current.trace_id if current is not None else 0,
            )
            self._obs.metrics.counter("repro_server_searches_total").inc()
            self._obs.metrics.histogram(
                "repro_server_postings_scanned",
                buckets=(1.0, 10.0, 100.0, 1000.0, 10000.0),
            ).observe(float(len(matches)))
            if self._cache is not None:
                self._obs.metrics.gauge(
                    "repro_server_cache_hit_ratio"
                ).set(self._cache.hit_ratio)
        self._record_slow(
            "search",
            (
                ("decode", decode_span),
                ("postings", postings_span),
                ("rank", rank_span),
                ("respond", files_span),
            ),
        )
        response_matches = tuple(
            (match.file_id, match.score_field) for match in ordered
        )
        return SearchResponse(matches=response_matches, files=files)

    def _score_map(self, posting: CachedPostings) -> dict[str, int]:
        """``file_id -> OPM value`` for one posting list.

        Warm path: the dict was built once at cache-fill time.  Cold
        (or cache-off) path: decode the score fields now — same values
        either way, so responses are byte-identical cache on/off.
        """
        if posting.by_file is not None:
            return posting.by_file
        return {
            match.file_id: match.opm_value()
            for match in posting.matches
        }

    def _handle_multi_search(
        self, request: MultiSearchRequest
    ) -> MultiSearchResponse:
        """One-round multi-keyword top-k: aggregate OPM sums server-side.

        Looks up every trapdoor through the same ranked warm cache the
        single-keyword path uses (so only queried terms are decoded,
        also under the packed mmap store), sums per-file OPM values
        across terms — intersecting for conjunctive mode, merging for
        disjunctive — and selects the top-k with a bounded heap under
        the canonical tie-break (descending sum, ascending file id).

        ``partial=True`` (the cluster-internal flavour) skips the
        top-k cut and file fetch and returns every local aggregate
        with its matched-term count, in ascending file-id order.
        """
        if not self._can_rank:
            raise ProtocolError(
                "multi-keyword search requires rankable score fields "
                "(the efficient scheme); the basic scheme cannot "
                "aggregate semantically secure scores server-side"
            )
        with self._tracer.span(
            "search.trapdoor", terms=len(request.trapdoors)
        ) as decode_span:
            trapdoors = [
                Trapdoor.deserialize(t) for t in request.trapdoors
            ]
        hits_before = self.cache_hits
        postings: list[CachedPostings] = []
        per_term: list[dict[str, int]] = []
        with self._tracer.span("search.postings") as postings_span:
            for trapdoor in trapdoors:
                posting = self._postings_for(trapdoor)
                postings.append(posting)
                per_term.append(self._score_map(posting))
            postings_span.set(
                postings=sum(len(p.matches) for p in postings),
                cache_hits=self.cache_hits - hits_before,
            )

        rank_counters: dict[str, int] | None = (
            {} if self._tracer.enabled else None
        )
        with self._tracer.span(
            "search.aggregate",
            mode=request.mode,
            terms=len(trapdoors),
            k=request.top_k,
            partial=request.partial,
        ) as aggregate_span:
            if request.mode == MODE_CONJUNCTIVE:
                pairs = intersect_sums(per_term)
            else:
                pairs = union_sums(per_term)
            aggregate_span.set(candidates=len(pairs))
            if request.partial:
                if request.mode == MODE_CONJUNCTIVE:
                    # Every survivor matched all local terms.
                    counts = {
                        file_id: len(per_term) for file_id, _ in pairs
                    }
                else:
                    counts = {
                        file_id: sum(
                            1 for scores in per_term if file_id in scores
                        )
                        for file_id, _ in pairs
                    }
                ranked = pairs  # already ascending file id
            else:
                ranked = rank_pairs(
                    pairs, request.top_k, counters=rank_counters
                )
            if rank_counters:
                aggregate_span.set(**rank_counters)

        with self._tracer.span("search.files") as files_span:
            if request.partial:
                returned_pairs = ranked
                files: tuple[tuple[str, bytes], ...] = ()
                matches = tuple(
                    (file_id, pack_partial_score(total, counts[file_id]))
                    for file_id, total in returned_pairs
                )
            else:
                # Same tolerance as the single-keyword path: a blob
                # removed since the index read drops out of both lists.
                returned_pairs = []
                payloads = []
                for file_id, total in ranked:
                    blob = self._blobs.get_optional(file_id)
                    if blob is None:
                        continue
                    returned_pairs.append((file_id, total))
                    payloads.append((file_id, blob))
                files = tuple(payloads)
                matches = tuple(
                    (file_id, pack_multi_score(total))
                    for file_id, total in returned_pairs
                )
            files_span.set(files=len(files))

        returned_ids = tuple(file_id for file_id, _ in returned_pairs)
        for trapdoor, posting in zip(trapdoors, postings):
            self._log.record(
                SearchObservation(
                    address=trapdoor.address,
                    matched_file_ids=tuple(
                        match.file_id for match in posting.matches
                    ),
                    score_fields=tuple(
                        match.score_field for match in posting.matches
                    ),
                    returned_file_ids=returned_ids,
                )
            )
        if self._obs is not None:
            current = self._tracer.current()
            for trapdoor, posting in zip(trapdoors, postings):
                self._obs.leakage.record(
                    trapdoor.address,
                    matched_file_ids=tuple(
                        match.file_id for match in posting.matches
                    ),
                    returned_file_ids=returned_ids,
                    trace_id=(
                        current.trace_id if current is not None else 0
                    ),
                )
            self._obs.metrics.counter(
                "repro_server_multi_searches_total", mode=request.mode
            ).inc()
            if self._cache is not None:
                self._obs.metrics.gauge(
                    "repro_server_cache_hit_ratio"
                ).set(self._cache.hit_ratio)
        self._record_slow(
            "multi-search",
            (
                ("decode", decode_span),
                ("postings", postings_span),
                ("aggregate", aggregate_span),
                ("respond", files_span),
            ),
        )
        return MultiSearchResponse(matches=matches, files=files)

    def _handle_fetch(self, request: FileRequest) -> RankedFilesResponse:
        """Second round of the basic top-k protocol.

        The server learns that the requested files outrank the
        unrequested ones — the extra leakage Section III-C points out;
        it lands in the log as ``returned_file_ids`` of a fresh
        observation tied to no address.
        """
        files = tuple(
            (file_id, self._blobs.get(file_id)) for file_id in request.file_ids
        )
        self._log.record(
            SearchObservation(
                address=b"",
                matched_file_ids=(),
                score_fields=(),
                returned_file_ids=tuple(request.file_ids),
            )
        )
        return RankedFilesResponse(files=files)
