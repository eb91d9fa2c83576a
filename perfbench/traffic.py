"""Driving a deployment: closed-loop TCP clients, owner inserts, the
in-process replay and the DataUser sample.

Every answer is kept as a :class:`Read` (its request frame and a digest
of the response), so :mod:`check` can match it against a reference
server afterwards without holding response bytes.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

from repro.cloud.user import DataUser
from repro.crypto.symmetric import SymmetricCipher
from repro.errors import ReproError

from workload import TOP_K, Frames

#: Longest a client waits for the insert ahead of its own to finish.
INSERT_TURN_TIMEOUT_S = 120.0


def digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


@dataclass
class Read:
    """One answered read.

    ``lo`` owner inserts were acknowledged when it was sent and ``hi``
    had begun when its answer arrived, so a right answer equals the
    reference answer after ``n`` inserts for some ``lo <= n <= hi``.
    """

    index: int
    op: tuple
    frame: bytes
    digest: bytes
    size: int
    latency_s: float
    lo: int = 0
    hi: int = 0
    call_s: float = 0.0
    decode_s: float = 0.0


@dataclass
class Insert:
    """One owner insert: its frames, their acks, each frame's wire time."""

    seq: int
    latency_s: float
    frames: list[bytes]
    acks: list[bytes]
    frame_s: list[float]


@dataclass
class Served:
    """What one phase of a run served."""

    reads: list[Read] = field(default_factory=list)
    inserts: list[Insert] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    digest: str = ""
    decrypt_s: list[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.reads) + len(self.inserts)

    @property
    def attempted(self) -> int:
        return self.completed + len(self.failures)

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.elapsed_s

    @property
    def response_bytes(self) -> int:
        return sum(read.size for read in self.reads) + sum(
            len(ack) for insert in self.inserts for ack in insert.acks
        )


class OpFeed:
    """Hands a workload's ops out, in order, to any number of threads."""

    def __init__(self, stream):
        self._stream = stream
        self._next = 0
        self._stop: int | None = None
        self._lock = threading.Lock()

    def limit(self, count: int) -> None:
        """Hand out ``count`` more ops, then report the feed empty."""
        with self._lock:
            self._stop = self._next + count

    def next(self) -> tuple[int, tuple] | None:
        with self._lock:
            if self._stop is not None and self._next >= self._stop:
                return None
            self._next += 1
            return self._next - 1, next(self._stream)


class ThreadRoute:
    """The owner's transport: each call goes out on the calling client's
    own connection and is recorded for the insert in progress."""

    def __init__(self):
        self._local = threading.local()

    def bind(self, channel) -> None:
        self._local.channel = channel

    @property
    def stats(self):
        return self._local.channel.stats

    def start(self) -> None:
        self._local.log = ([], [], [])

    def finish(self) -> tuple[list, list, list]:
        return self._local.log

    def call(self, request: bytes) -> bytes:
        started = time.perf_counter()
        response = self._local.channel.call(request)
        frames, acks, seconds = self._local.log
        seconds.append(time.perf_counter() - started)
        frames.append(request)
        acks.append(response)
        return response


class InsertLane:
    """Owner inserts, one at a time and in stream order."""

    def __init__(self, maintainer, route: ThreadRoute, document_for):
        self.route = route
        self._maintainer = maintainer
        self._document_for = document_for
        self._turn = threading.Condition()
        self.begun = 0
        self.acked = 0
        self.inserts: list[Insert] = []

    def run(self, seq: int) -> None:
        with self._turn:
            if not self._turn.wait_for(
                lambda: self.acked == seq, INSERT_TURN_TIMEOUT_S
            ):
                raise RuntimeError(f"insert {seq} never got its turn")
            self.begun = seq + 1
        document = self._document_for(seq)
        self.route.start()
        started = time.perf_counter()
        try:
            self._maintainer.insert_document(document)
            latency = time.perf_counter() - started
            self.inserts.append(Insert(seq, latency, *self.route.finish()))
        finally:
            with self._turn:
                self.acked = seq + 1
                self._turn.notify_all()


def closed_loop(
    server, clients: int, feed: OpFeed, frames: Frames, lane=None, seconds=None
) -> Served:
    """``clients`` connections with one outstanding request each, until
    the feed is empty or ``seconds`` have passed.

    A read's latency runs from sending its (pre-encoded) request frame
    to decoding the response frame.
    """
    served = Served()
    errors: list[Exception] = []
    inserts_before = len(lane.inserts) if lane else 0
    deadline = None if seconds is None else time.perf_counter() + seconds

    def read(channel, index: int, op: tuple) -> None:
        lo = lane.acked if lane else 0
        frame = frames.request(op)
        sent = time.perf_counter()
        response = channel.call(frame)
        answered = time.perf_counter()
        frames.decode(op, response)
        decoded = time.perf_counter()
        served.reads.append(
            Read(
                index,
                op,
                frame,
                digest(response),
                len(response),
                decoded - sent,
                lo,
                lane.begun if lane else 0,
                answered - sent,
                decoded - answered,
            )
        )

    def client() -> None:
        try:
            with server.channel() as channel:
                if lane:
                    lane.route.bind(channel)
                while deadline is None or time.perf_counter() < deadline:
                    item = feed.next()
                    if item is None:
                        return
                    index, op = item
                    try:
                        if op[0] == "insert":
                            lane.run(op[1])
                        else:
                            read(channel, index, op)
                    except ReproError as exc:
                        served.failures.append(
                            f"op {index} {op[0]}: {type(exc).__name__}: {exc}"
                        )
        except Exception as exc:  # re-raised after the join below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, name=f"perfbench-client-{number}")
        for number in range(clients)
    ]
    cpu = time.process_time()
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    served.elapsed_s = time.perf_counter() - started
    served.cpu_s = time.process_time() - cpu
    if errors:
        raise errors[0]
    if lane:
        served.inserts = lane.inserts[inserts_before:]
    return served


def replay(handle, ops, frames: Frames, inserts: list[Insert]) -> Served:
    """Serve ``ops`` through ``handle`` with one caller.

    Inserts replay the update frames recorded for them over TCP; the
    replay stops at the first insert that was never recorded.
    :attr:`Served.digest` hashes every response in op order.
    """
    recorded = {insert.seq: insert for insert in inserts}
    hasher = hashlib.blake2b(digest_size=16)
    served = Served()
    applied = 0
    for index, op in ops:
        try:
            if op[0] == "insert":
                insert = recorded.get(op[1])
                if insert is None:
                    break
                started = time.perf_counter()
                acks = [handle(frame) for frame in insert.frames]
                served.latencies.append(time.perf_counter() - started)
                if acks != insert.acks:
                    served.failures.append(
                        f"op {index}: in-process acks differ from TCP acks"
                    )
                served.inserts.append(insert)
                hasher.update(b"".join(acks))
                applied += 1
                continue
            frame = frames.request(op)
            started = time.perf_counter()
            response = handle(frame)
            latency = time.perf_counter() - started
        except ReproError as exc:
            served.failures.append(
                f"op {index} {op[0]}: {type(exc).__name__}: {exc}"
            )
            continue
        served.latencies.append(latency)
        hasher.update(response)
        served.reads.append(
            Read(
                index,
                op,
                frame,
                digest(response),
                len(response),
                latency,
                applied,
                applied,
            )
        )
    served.elapsed_s = sum(served.latencies)
    served.digest = hasher.hexdigest()
    return served


class Recorder:
    """A transport that keeps the last exchange it carried."""

    def __init__(self, channel):
        self._channel = channel
        self.request = self.response = b""

    @property
    def stats(self):
        return self._channel.stats

    def call(self, request: bytes) -> bytes:
        self.request = request
        self.response = self._channel.call(request)
        return self.response


def user_sample(server, deployment, codec: str, ops, inserts: int) -> Served:
    """Reads issued one at a time through ``DataUser``: trapdoor, codec
    and file decryption included.

    The reads go out twice, each time from a new ``DataUser``; only the
    second pass is timed, so it meets warm server caches, as a hot
    workload's repeat reads do, and still pays every trapdoor.  The
    decryption of each timed answer's files is timed again on its own
    into :attr:`Served.decrypt_s`.  ``inserts`` owner inserts have
    landed.
    """
    owner = deployment.owner
    credentials = owner.authorize_user()
    cipher = SymmetricCipher(credentials.file_key)
    served = Served()
    with server.channel() as channel:
        recorder = Recorder(channel)
        for timed in (False, True):
            user = DataUser(
                owner.scheme, credentials, recorder, owner.analyzer, codec=codec
            )
            for index, op in ops:
                started = time.perf_counter()
                try:
                    if op[0] == "search":
                        hits = user.search_ranked_topk(op[1], TOP_K)
                    else:
                        hits = user.search_multi_topk(list(op[1]), TOP_K)
                except ReproError as exc:
                    served.failures.append(
                        f"op {index} {op[0]}: {type(exc).__name__}: {exc}"
                    )
                    continue
                latency = time.perf_counter() - started
                if any(
                    hit.text != deployment.texts.get(hit.file_id)
                    for hit in hits
                ):
                    served.failures.append(
                        f"op {index}: a decrypted file differs from its "
                        "document"
                    )
                served.reads.append(
                    Read(
                        index,
                        op,
                        recorder.request,
                        digest(recorder.response),
                        len(recorder.response),
                        latency,
                        inserts,
                        inserts,
                    )
                )
                if not timed:
                    continue
                served.latencies.append(latency)
                files = Frames.decode(op, recorder.response).files
                started = time.perf_counter()
                for _, blob in files:
                    cipher.decrypt(blob)
                served.decrypt_s.append(time.perf_counter() - started)
    return served
