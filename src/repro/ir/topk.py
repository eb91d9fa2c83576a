"""Top-k selection for ranked retrieval.

The cloud server ranks posting entries by (encrypted) relevance score
and returns the ``k`` best (paper Section II-A, Fig. 8 experiment).
Because OPM ciphertexts preserve order, *the same* selection routine
works on plaintext scores and on encrypted scores — which is precisely
the paper's point that top-k over the encrypted index is "almost as
fast as in the plaintext domain".

Implementation: a bounded min-heap giving ``O(n log k)`` time and
``O(k)`` extra space; ties broken by item order for determinism.
"""

from __future__ import annotations

import heapq
from typing import (
    Callable,
    Iterable,
    Mapping,
    MutableMapping,
    Sequence,
    TypeVar,
)

from repro.errors import ParameterError

T = TypeVar("T")


def top_k(
    items: Iterable[T],
    k: int,
    key: Callable[[T], object],
    counters: MutableMapping[str, int] | None = None,
) -> list[T]:
    """Return the ``k`` items with largest ``key``, descending.

    Parameters
    ----------
    items:
        Any iterable; consumed once.
    k:
        Number of items to keep; must be positive.  If fewer than ``k``
        items exist, all are returned.
    key:
        Scoring function; larger is better.  Values must be mutually
        comparable (ints, floats, or OPM ciphertexts — all integers).
    counters:
        Optional work accounting (the observability hook): on return,
        ``scanned`` and ``heap_replacements`` are added into the
        mapping — the numbers a traced search reports as span
        attributes.  ``None`` (the default) skips all accounting.

    Ties are broken toward earlier items, deterministically.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    heap: list[tuple[object, int, T]] = []
    scanned = 0
    replacements = 0
    for order, item in enumerate(items):
        entry = (key(item), -order, item)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
            replacements += 1
        scanned = order + 1
    heap.sort(reverse=True)
    if counters is not None:
        counters["scanned"] = counters.get("scanned", 0) + scanned
        counters["heap_replacements"] = (
            counters.get("heap_replacements", 0) + replacements
        )
    return [item for (_, _, item) in heap]


def top_of_ranked(
    ranked: Sequence[T],
    k: int | None,
    counters: MutableMapping[str, int] | None = None,
) -> list[T]:
    """Slice a pre-ranked (descending) list down to its top ``k``.

    The O(k) fast path for callers that already hold a full descending
    ranking (e.g. the cloud server's ranked warm cache): because
    :func:`top_k` and :func:`rank_all` break ties identically (toward
    earlier items), ``top_of_ranked(rank_all(items, key), k)`` equals
    ``top_k(items, k, key)`` element for element.  ``k=None`` returns a
    copy of the whole ranking.  ``counters`` accounts ``scanned`` with
    the number of items *touched* (``min(k, len(ranked))``) — the point
    of the fast path is that a warm query never rescans the list.
    """
    if k is None:
        result = list(ranked)
    else:
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        result = list(ranked[:k])
    if counters is not None:
        counters["scanned"] = counters.get("scanned", 0) + len(result)
    return result


def rank_all(
    items: Iterable[T],
    key: Callable[[T], object],
    counters: MutableMapping[str, int] | None = None,
) -> list[T]:
    """Return all items sorted by descending ``key`` (full ranking).

    Used by the basic scheme's user-side ranking and as the reference
    ordering in correctness tests.  ``counters`` accounts ``scanned``
    like :func:`top_k`.
    """
    indexed = list(enumerate(items))
    indexed.sort(key=lambda pair: (key(pair[1]), -pair[0]), reverse=True)
    if counters is not None:
        counters["scanned"] = counters.get("scanned", 0) + len(indexed)
    return [item for (_, item) in indexed]


# -- multi-keyword score aggregation ---------------------------------------
#
# The one-round multi-keyword path (PR 8) aggregates per-term score
# maps server-side.  These helpers are shared by the in-process
# searcher (repro.core.multi_keyword), the cloud server's aggregation
# handler, and the cluster coordinator's partial-result merge, so all
# three produce bit-identical rankings under one tie-break rule:
# descending aggregate score, then ascending id — an ordering that is
# independent of dict/set iteration order (and therefore of
# PYTHONHASHSEED).


def intersect_sums(
    per_term: Sequence[Mapping[str, int]],
) -> list[tuple[str, int]]:
    """Conjunctive aggregation: ids present in *every* map, summed.

    Iterates the smallest map and probes the rest, so the cost is
    ``O(min_len * terms)`` — the sorted-posting-intersection shape —
    rather than the size of the largest posting list.  Returns
    ``(id, sum)`` pairs in ascending-id order.
    """
    if not per_term:
        raise ParameterError("need at least one score map")
    # Exclude the smallest map by position, not identity: a repeated
    # term may hand in the same map object twice, and it counts twice.
    position = min(range(len(per_term)), key=lambda i: len(per_term[i]))
    smallest = per_term[position]
    others = [m for i, m in enumerate(per_term) if i != position]
    pairs: list[tuple[str, int]] = []
    for item_id in sorted(smallest):
        total = smallest[item_id]
        for scores in others:
            value = scores.get(item_id)
            if value is None:
                break
            total += value
        else:
            pairs.append((item_id, total))
    return pairs


def union_sums(
    per_term: Sequence[Mapping[str, int]],
) -> list[tuple[str, int]]:
    """Disjunctive aggregation: every id in any map, scores summed.

    A k-way merge-accumulate over the per-term maps.  Returns
    ``(id, sum)`` pairs in ascending-id order.
    """
    if not per_term:
        raise ParameterError("need at least one score map")
    totals: dict[str, int] = {}
    for scores in per_term:
        for item_id, value in scores.items():
            totals[item_id] = totals.get(item_id, 0) + value
    return sorted(totals.items())


def rank_pairs(
    pairs: Iterable[tuple[str, int]],
    k: int | None,
    counters: MutableMapping[str, int] | None = None,
) -> list[tuple[str, int]]:
    """Canonically rank ``(id, score)`` pairs, optionally bounded.

    Descending score; ties broken by ascending id, regardless of the
    order pairs arrive in.  ``k=None`` returns the full ranking;
    otherwise a bounded heap keeps the selection at ``O(n log k)``
    without materializing a full score-sorted ranking.
    """
    ordered = sorted(pairs, key=lambda pair: pair[0])
    if k is None:
        return rank_all(ordered, key=lambda pair: pair[1], counters=counters)
    return top_k(ordered, k, key=lambda pair: pair[1], counters=counters)
