"""Correctness of a run: every answer against a plain reference server,
and the traced server's leakage log against the reads it answered."""

from __future__ import annotations

from collections import Counter

from repro.analysis.leakage import server_log_from_events
from repro.cloud.protocol import peek_kind
from repro.cloud.server import CloudServer
from repro.cloud.updates import UpdateListRequest
from repro.obs import trapdoor_digest

from traffic import digest


def answers(deployment, reads, inserts, addresses) -> list[str]:
    """Failures among ``reads`` and the acks of ``inserts``.

    The reference is a plain ``CloudServer`` (dict store, no caches)
    over the deployment's in-memory index and blobs, walked through the
    insert sequence; it consumes them.  A read is right when it equals
    the reference answer after some number of inserts inside its
    window.  Reference answers are memoized per request frame and the
    number of inserts that touched each address the read queries.
    """
    reference = CloudServer(
        deployment.outsourcing.secure_index,
        deployment.outsourcing.blob_store,
        can_rank=True,
        update_token=deployment.owner.update_token,
        log_capacity=1,
    )
    ordered = sorted(inserts, key=lambda insert: insert.seq)
    if [insert.seq for insert in ordered] != list(range(len(ordered))):
        return ["an insert failed, so later answers have no reference"]
    failures: list[str] = []
    touched: Counter = Counter()
    expected: dict = {}
    waiting = sorted(reads, key=lambda read: read.lo)
    cursor = 0
    pending = []
    for state, insert in enumerate([*ordered, None]):
        while cursor < len(waiting) and waiting[cursor].lo <= state:
            pending.append(waiting[cursor])
            cursor += 1
        unresolved = []
        for read in pending:
            key = (read.frame, tuple(touched[a] for a in addresses(read.op)))
            if key not in expected:
                expected[key] = digest(reference.handle(read.frame))
            if expected[key] == read.digest:
                continue
            if read.hi > state:
                unresolved.append(read)
            else:
                failures.append(
                    f"op {read.index} {read.op[0]}: answer differs from "
                    "the reference"
                )
        pending = unresolved
        if insert is None:
            break
        for frame, ack in zip(insert.frames, insert.acks):
            if reference.handle(frame) != ack:
                failures.append(
                    f"insert {insert.seq}: ack differs from the reference"
                )
            if peek_kind(frame) == "update-list":
                touched[UpdateListRequest.from_bytes(frame).address] += 1
    failures.extend(
        f"op {read.index}: answered past the recorded inserts"
        for read in pending + waiting[cursor:]
    )
    return failures


def leakage(dump, reads, addresses) -> tuple[int, list[str]]:
    """Search observations in a merged cluster artifact, checked against
    one per trapdoor of every answered read.

    The curious server's log is rebuilt with
    ``server_log_from_events``; result-cache hits and coalesced
    followers must appear in it like any other answered read.
    """
    log = server_log_from_events(dump.leakage)
    expected = Counter(
        bytes.fromhex(trapdoor_digest(address))
        for read in reads
        for address in addresses(read.op)
    )
    count = len(log.observations)
    if log.search_pattern() != dict(expected):
        return count, [
            f"leakage log holds {count} search observations for "
            f"{sum(expected.values())} answered trapdoors"
        ]
    return count, []
