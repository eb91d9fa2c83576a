"""Bounded, thread-safe LRU caches for the serving stack.

The server's search cache (:class:`repro.cloud.server.CloudServer`,
:class:`repro.cloud.cluster.ClusterServer`) memoizes the decrypted
posting list per queried address — information the protocol already
leaks through the search pattern, so caching it adds no leakage.  A
production server cannot hold an unbounded dict of decrypted lists, so
this cache bounds residency with least-recently-used eviction.

Two capacity modes exist:

* **entries mode** (the default): at most ``capacity`` entries are
  resident; this is the historical behaviour and what the posting-list
  cache uses.
* **bytes mode** (``capacity_bytes``): residency is bounded by the sum
  of ``size_of(value)`` over resident entries.  Encoded response frames
  vary from a few hundred bytes to near the frame limit, so counting
  entries would undercount large responses by orders of magnitude; the
  hot-query result cache therefore budgets bytes.

:class:`ResultCache` layers epoch-based invalidation on top of a
bytes-mode :class:`LruCache`: every entry is stamped with the epoch of
each shard whose state it depends on, and mutations bump the shard's
epoch, making dependent entries unservable immediately (they are also
swept eagerly so the byte budget is not held by dead frames).

All operations take an internal lock, making the caches safe under the
concurrent search traffic :class:`~repro.cloud.cluster.ClusterServer`
generates.  The hit counter is monotone: it survives :meth:`clear` and
evictions (it counts lifetime hits, not current contents).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

from repro.errors import ParameterError

#: Default number of decrypted posting lists a server keeps resident.
DEFAULT_CACHE_CAPACITY = 256

#: Default byte budget for the hot-query result cache (``repro serve
#: --result-cache``).  Sized for a few thousand typical top-k response
#: frames; far below ``MAX_FRAME_BYTES`` so a single giant response
#: cannot monopolize the front end's memory.
DEFAULT_RESULT_CACHE_BYTES = 8 << 20

_KEY_DIGEST_SIZE = 16


def _default_size_of(value: Any) -> int:
    return len(value)


class LruCache:
    """A bounded map with least-recently-used eviction.

    Parameters
    ----------
    capacity:
        Maximum number of entries resident at once; inserting into a
        full cache evicts the least recently *used* entry (both
        :meth:`get` hits and :meth:`put` refresh recency).  May be
        ``None`` when ``capacity_bytes`` alone should bound residency.
    capacity_bytes:
        Maximum total ``size_of(value)`` over resident entries; ``None``
        (the default) disables byte accounting.  A value larger than the
        whole budget is refused outright (never cached) rather than
        evicting everything else.
    size_of:
        Sizer for byte accounting; defaults to :func:`len` on the stored
        value.  Only consulted when ``capacity_bytes`` is set.
    """

    def __init__(
        self,
        capacity: int | None = DEFAULT_CACHE_CAPACITY,
        capacity_bytes: int | None = None,
        size_of: Callable[[Any], int] | None = None,
    ):
        if capacity is None and capacity_bytes is None:
            raise ParameterError("cache needs capacity and/or capacity_bytes")
        if capacity is not None and capacity < 1:
            raise ParameterError(f"cache capacity must be >= 1, got {capacity}")
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ParameterError(
                f"cache capacity_bytes must be >= 1, got {capacity_bytes}"
            )
        self._capacity = capacity
        self._capacity_bytes = capacity_bytes
        self._size_of = size_of if size_of is not None else _default_size_of
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._resident_bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._oversize_rejections = 0

    @property
    def capacity(self) -> int | None:
        """Maximum resident entries (None when only bytes-bounded)."""
        return self._capacity

    @property
    def capacity_bytes(self) -> int | None:
        """Maximum resident bytes (None when only entries-bounded)."""
        return self._capacity_bytes

    @property
    def resident_bytes(self) -> int:
        """Current total of ``size_of(value)`` over resident entries.

        Always 0 when byte accounting is disabled.
        """
        with self._lock:
            return self._resident_bytes

    @property
    def hits(self) -> int:
        """Lifetime :meth:`get` hits (monotone non-decreasing)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lifetime :meth:`get` misses (monotone non-decreasing)."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Lifetime capacity evictions (monotone non-decreasing)."""
        return self._evictions

    @property
    def oversize_rejections(self) -> int:
        """Lifetime :meth:`put` refusals of values over the byte budget."""
        return self._oversize_rejections

    @property
    def hit_ratio(self) -> float:
        """Lifetime hits / lookups (0.0 before the first lookup)."""
        lookups = self._hits + self._misses
        return self._hits / lookups if lookups else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Presence test without touching recency or counters."""
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
            return default

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value without touching recency or counters."""
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry, evicting LRU entries if over budget.

        In bytes mode a value larger than the whole ``capacity_bytes``
        budget is refused; if the key was resident its stale entry is
        dropped (the cache must never keep a value :meth:`put` meant to
        replace).
        """
        with self._lock:
            size = 0
            if self._capacity_bytes is not None:
                size = self._size_of(value)
                if size > self._capacity_bytes:
                    self._drop(key)
                    self._oversize_rejections += 1
                    return
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                if self._capacity_bytes is not None:
                    self._resident_bytes += size - self._sizes[key]
                    self._sizes[key] = size
                    self._evict_over_byte_budget()
                return
            if self._capacity is not None and len(self._entries) >= self._capacity:
                self._evict_lru()
            self._entries[key] = value
            if self._capacity_bytes is not None:
                self._sizes[key] = size
                self._resident_bytes += size
                self._evict_over_byte_budget()

    def _evict_over_byte_budget(self) -> None:
        assert self._capacity_bytes is not None
        while self._resident_bytes > self._capacity_bytes and len(self._entries) > 1:
            self._evict_lru()

    def _evict_lru(self) -> None:
        key, _ = self._entries.popitem(last=False)
        self._resident_bytes -= self._sizes.pop(key, 0)
        self._evictions += 1

    def _drop(self, key: Hashable) -> Any:
        value = self._entries.pop(key, None)
        self._resident_bytes -= self._sizes.pop(key, 0)
        return value

    def pop(self, key: Hashable) -> Any:
        """Remove one entry (None if absent); no counter changes."""
        with self._lock:
            return self._drop(key)

    def clear(self) -> None:
        """Drop all entries; lifetime counters are preserved."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._resident_bytes = 0

    def keys(self) -> list[Hashable]:
        """Snapshot of resident keys, least recently used first."""
        with self._lock:
            return list(self._entries)


@dataclass(frozen=True)
class CachedResult:
    """One memoized response frame with its dependency stamps.

    ``stamps`` records, per shard the response depends on, the shard's
    epoch *when the request was admitted* — an entry is servable only
    while every stamped epoch is still current.  ``payload`` carries
    opaque replay data (the leakage observations the original execution
    produced) so a cache hit can keep the leakage log exact.
    """

    frame: bytes
    stamps: tuple[tuple[int, int], ...]
    payload: Any = None


class ResultCache:
    """Byte-budgeted cache of encoded response frames with epoch invalidation.

    Keys are ``(codec, request-frame digest)`` — see :meth:`key_for` —
    so two byte-identical request frames in the same codec share one
    entry, and the cached value is the byte-exact response frame the
    uncached path would have produced.

    Invalidation is epoch-based: :meth:`bump` advances a shard's epoch
    (or every epoch, for broadcast mutations) which immediately makes
    entries stamped with the old epoch unservable; they are also swept
    eagerly so dead frames do not occupy the byte budget.  Stamps are
    taken *before* the underlying request is dispatched (:meth:`stamp`),
    so a mutation racing with an in-flight fill lands the filled entry
    dead on arrival instead of serving a stale response.
    """

    def __init__(self, capacity_bytes: int, num_shards: int):
        if num_shards < 1:
            raise ParameterError(f"num_shards must be >= 1, got {num_shards}")
        self._cache = LruCache(
            capacity=None,
            capacity_bytes=capacity_bytes,
            size_of=lambda entry: len(entry.frame),
        )
        self._epochs = [0] * num_shards
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._coalesced = 0
        self._invalidations = 0

    @staticmethod
    def key_for(codec: str, request_bytes: bytes) -> tuple[str, bytes]:
        """Cache key for one request frame: ``(codec, frame digest)``."""
        digest = hashlib.blake2b(request_bytes, digest_size=_KEY_DIGEST_SIZE)
        return (codec, digest.digest())

    @property
    def hits(self) -> int:
        """Lifetime servable hits (monotone non-decreasing)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lifetime misses, including epoch-stale entries (monotone)."""
        return self._misses

    @property
    def coalesced(self) -> int:
        """Lifetime requests that piggybacked on an in-flight fill."""
        return self._coalesced

    @property
    def invalidations(self) -> int:
        """Lifetime :meth:`bump` calls (monotone non-decreasing)."""
        return self._invalidations

    @property
    def resident_bytes(self) -> int:
        """Current total of cached response-frame bytes."""
        return self._cache.resident_bytes

    def __len__(self) -> int:
        return len(self._cache)

    def stamp(self, shards: Iterable[int]) -> tuple[tuple[int, int], ...]:
        """Snapshot ``(shard, epoch)`` pairs for the shards a fill covers."""
        with self._lock:
            return tuple((shard, self._epochs[shard]) for shard in sorted(set(shards)))

    def get(self, key: tuple[str, bytes]) -> CachedResult | None:
        """Return a servable entry or None; stale entries are dropped."""
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None and self._fresh(entry):
                self._hits += 1
                return entry
            if entry is not None:
                self._cache.pop(key)
            self._misses += 1
            return None

    def put(
        self,
        key: tuple[str, bytes],
        stamps: tuple[tuple[int, int], ...],
        frame: bytes,
        payload: Any = None,
    ) -> None:
        """Store one filled response under stamps taken at admission."""
        with self._lock:
            self._cache.put(key, CachedResult(frame=frame, stamps=stamps, payload=payload))

    def bump(self, shard: int | None) -> None:
        """Advance one shard's epoch (all shards when ``shard`` is None).

        Entries stamped with an outdated epoch are swept immediately.
        """
        with self._lock:
            if shard is None:
                for index in range(len(self._epochs)):
                    self._epochs[index] += 1
            else:
                self._epochs[shard] += 1
            self._invalidations += 1
            for key in self._cache.keys():
                entry = self._cache.peek(key)
                if entry is not None and not self._fresh(entry):
                    self._cache.pop(key)

    def note_mutation(self, kind: str, shard: int) -> None:
        """Bump the epochs one routed request invalidates, on receipt.

        Bumped before the owning shard applies the update: a redundant
        bump only costs a refill, while a missed one would serve stale
        bytes.  ``update-list`` changes only its owning ``shard``; blob
        mutations change the blob store every cached response may
        embed, so they bump every shard.  Other kinds change nothing.
        """
        if kind == "update-list":
            self.bump(shard)
        elif kind in ("put-blob", "remove-blob"):
            self.bump(None)

    def note_coalesced(self) -> None:
        """Count one request that awaited an in-flight identical fill."""
        with self._lock:
            self._coalesced += 1

    def _fresh(self, entry: CachedResult) -> bool:
        return all(self._epochs[shard] == epoch for shard, epoch in entry.stamps)

    def stats(self) -> dict[str, int]:
        """Counter snapshot for health endpoints and benchmarks."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "coalesced": self._coalesced,
                "invalidations": self._invalidations,
                "entries": len(self._cache),
                "resident_bytes": self._cache.resident_bytes,
            }
