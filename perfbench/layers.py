"""Per-layer split of a traced run, from spans the program already emits.

The front end records one ``net.request`` span per request (attribute
``kind``; ``cache="hit"`` when its result cache answered) and each
worker a ``server.handle`` span under it, with one child span per
search phase.  Per request, the front end's self time is
``net.request`` minus the slowest worker's ``server.handle`` (the
critical path of a fan-out), and the worker's self time is
``server.handle`` minus its phase spans.  Means are taken over every
request of a kind, so a front-end hit adds zero worker time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

#: Worker phase spans, by the name the split reports them under.
PHASES = {
    "search.trapdoor": "trapdoor",
    "search.postings": "postings",
    "search.rank": "rank",
    "search.aggregate": "aggregate",
    "search.files": "files",
    "search.cache": "cache",
}


@dataclass
class Split:
    """Mean seconds per request of one kind, layer by layer."""

    requests: int = 0
    net_request: float = 0.0
    worker: float = 0.0
    phases: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASES.values(), 0.0)
    )
    hits: int = 0
    hit_net_request: float = 0.0

    @property
    def frontend_self(self) -> float:
        return self.net_request - self.worker

    @property
    def server_self(self) -> float:
        return self.worker - sum(self.phases.values())


def last_request_id(dump) -> int:
    """The newest front-end ``net.request`` span id in a dump (0 for none).

    Requests are told apart by span id, which the front end allocates
    in order: its concurrent requests can share a trace id, because a
    new request's span nests under whichever span is open on the event
    loop thread.
    """
    return max(
        (span.span_id for span in dump.spans if span.name == "net.request"),
        default=0,
    )


def _requests(dump, after_span_id: int):
    """``(net.request span, its server.handle spans)`` for requests
    newer than ``after_span_id``, plus the dump's child index."""
    children = defaultdict(list)
    for span in dump.spans:
        if span.parent_id is not None:
            children[(span.trace_id, span.parent_id)].append(span)
    found = [
        (
            span,
            [
                child
                for child in children[(span.trace_id, span.span_id)]
                if child.name == "server.handle"
            ],
        )
        for span in dump.spans
        if span.name == "net.request" and span.span_id > after_span_id
    ]
    return found, children


def request_splits(dump, after_span_id: int) -> dict[str, Split]:
    """Per request kind, the mean split of requests newer than
    ``after_span_id``."""
    requests, children = _requests(dump, after_span_id)
    splits: dict[str, Split] = defaultdict(Split)
    for span, handles in requests:
        split = splits[str(span.attrs.get("kind"))]
        split.requests += 1
        split.net_request += span.duration_s
        if span.attrs.get("cache") == "hit":
            split.hits += 1
            split.hit_net_request += span.duration_s
        if not handles:
            continue
        worker = max(handles, key=lambda handle: handle.duration_s)
        split.worker += worker.duration_s
        for phase in children[(worker.trace_id, worker.span_id)]:
            name = PHASES.get(phase.name)
            if name is not None:
                split.phases[name] += phase.duration_s
    for split in splits.values():
        split.net_request /= split.requests
        split.worker /= split.requests
        split.phases = {
            name: seconds / split.requests
            for name, seconds in split.phases.items()
        }
        if split.hits:
            split.hit_net_request /= split.hits
    return splits


def ranked_cache_hit_ratio(dump, after_span_id: int) -> float:
    """Share of worker posting-list lookups the ranked LRU answered, for
    requests newer than ``after_span_id``."""
    requests, children = _requests(dump, after_span_id)
    hits = lookups = 0
    for _, handles in requests:
        for handle in handles:
            phases = {
                child.name: child
                for child in children[(handle.trace_id, handle.span_id)]
            }
            postings = phases.get("search.postings")
            if postings is None:
                continue
            if "cache_hit" in postings.attrs:
                hits += bool(postings.attrs["cache_hit"])
                lookups += 1
            else:
                hits += int(postings.attrs.get("cache_hits", 0))
                lookups += phases["search.trapdoor"].attrs.get("terms", 0)
    return hits / lookups if lookups else 0.0


def covered_s(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reached = float("-inf")
    for start, end in sorted(intervals):
        if end > reached:
            total += end - max(start, reached)
            reached = end
    return total


def coordinator_self_s(spans, handle_s: list[float]) -> float:
    """Mean in-process coordinator time per ``ClusterServer.handle``.

    Each call's wall time minus the time its ``shard.dispatch`` spans
    cover; a result-cache hit dispatches nothing, so all of it counts.
    """
    dispatches = defaultdict(list)
    for span in spans:
        if span.name == "shard.dispatch":
            dispatches[span.trace_id].append((span.start_s, span.end_s))
    shard_s = sum(covered_s(found) for found in dispatches.values())
    return (sum(handle_s) - shard_s) / len(handle_s)
