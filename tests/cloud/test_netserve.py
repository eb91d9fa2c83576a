"""Loopback integration tests for the real-socket serving layer.

Proves :class:`~repro.cloud.netserve.NetServer` (asyncio front end +
one shard worker *process* per shard) and
:class:`~repro.cloud.netserve.NetworkChannel` against the in-process
:class:`~repro.cloud.cluster.ClusterServer` reference:

* golden query set byte-identical over TCP for both codecs, via
  sequential calls, pipelined ``call_many``, and
  ``call_many_resilient``;
* the whole client stack (``DataUser``, ``RetryingChannel``,
  ``RemoteIndexMaintainer``) works over loopback unmodified;
* killing a worker process mid-sequence degrades to a
  :class:`~repro.cloud.cluster.PartialResult` naming the dead shard,
  and the per-worker circuit breaker opens;
* an over-capacity burst is shed with explicit
  ``ServerOverloadedError`` responses — never a hang or a dropped
  frame — and the server stays healthy afterwards;
* clean shutdown reaps every worker process and releases the port;
* the worker pipes are served on the front-end event loop: replies in
  ``multiprocessing`` connection framing are reassembled at any split,
  a frame larger than the pipe's socket buffer round-trips, and no
  per-worker thread exists.
"""

import asyncio
import copy
import json
import multiprocessing
import os
import random
import socket
import threading
import time
from collections import Counter

import pytest

from repro.cloud.cluster import (
    DEFAULT_SHARD_SEED,
    ClusterServer,
    routing_address,
    shard_for_address,
)
from repro.cloud.netserve import NetServer, NetworkChannel, _WorkerHandle
from repro.cloud.network import Channel, Transport
from repro.cloud.owner import DataOwner
from repro.cloud.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    ErrorResponse,
    FileRequest,
    RankedFilesResponse,
    SearchRequest,
    SearchResponse,
    encode_frame,
)
from repro.cloud.retry import (
    BreakerConfig,
    CircuitBreaker,
    RetryingChannel,
    RetryPolicy,
)
from repro.cloud.updates import PutBlobRequest, RemoteIndexMaintainer
from repro.cloud.user import DataUser
from repro.core import EfficientRSSE, TEST_PARAMETERS
from repro.corpus.loader import Document
from repro.errors import CallDroppedError, ShardDownError, TransportError
from repro.obs import Obs

VOCAB = [f"term{i:02d}" for i in range(32)]
NUM_SHARDS = 4
TOKEN = b"netserve-update-token"


@pytest.fixture(scope="module")
def world():
    """One outsourced deployment shared by every read-only test."""
    scheme = EfficientRSSE(TEST_PARAMETERS)
    owner = DataOwner(scheme)
    rng = random.Random(42)
    documents = [
        Document(
            doc_id=f"doc{i}",
            title=f"doc {i}",
            text=" ".join(rng.choice(VOCAB) for _ in range(40)),
        )
        for i in range(20)
    ]
    outsourcing = owner.setup(documents)
    return scheme, owner, outsourcing


@pytest.fixture(scope="module")
def server(world):
    """A running 4-worker NetServer over the shared deployment."""
    _, _, outsourcing = world
    with NetServer(
        outsourcing.secure_index,
        outsourcing.blob_store,
        can_rank=True,
        num_shards=NUM_SHARDS,
    ) as srv:
        yield srv


@pytest.fixture(scope="module")
def reference(world):
    """The deterministic in-process cluster the sockets must match."""
    _, _, outsourcing = world
    cluster = ClusterServer(
        outsourcing.secure_index,
        outsourcing.blob_store,
        can_rank=True,
        num_shards=NUM_SHARDS,
    )
    with cluster:
        yield cluster


@pytest.fixture(scope="module")
def golden(world):
    """Every vocabulary keyword as a SearchRequest, in both codecs."""
    scheme, owner, _ = world
    requests = []
    for keyword in VOCAB:
        term = owner.analyzer.analyze_query(keyword)
        trapdoor = scheme.trapdoor(owner.key, term).serialize()
        for codec in (CODEC_JSON, CODEC_BINARY):
            requests.append(
                SearchRequest(trapdoor_bytes=trapdoor, top_k=5).to_bytes(
                    codec
                )
            )
    return requests


def recv_frame(raw: socket.socket) -> bytes:
    """Read one length-prefixed frame from a raw socket."""
    data = b""
    while len(data) < 4 or len(data) < 4 + int.from_bytes(data[:4], "big"):
        chunk = raw.recv(65536)
        assert chunk, "server closed the connection"
        data += chunk
    return data[4:]


def fresh_server(world, **kwargs):
    """A private NetServer for tests that mutate or destroy state."""
    _, _, outsourcing = world
    return NetServer(
        outsourcing.secure_index,
        outsourcing.blob_store,
        can_rank=True,
        num_shards=NUM_SHARDS,
        **kwargs,
    )


class TestGoldenByteIdentity:
    def test_sequential_calls_match_in_process(
        self, server, reference, golden
    ):
        with NetworkChannel(server.host, server.port) as channel:
            for request in golden:
                assert channel.call(request) == reference.handle(request)

    def test_pipelined_batch_matches_in_process(
        self, server, reference, golden
    ):
        with NetworkChannel(server.host, server.port) as channel:
            over_wire = channel.call_many(golden)
        assert over_wire == reference.handle_many(golden)

    def test_resilient_batch_is_complete_when_healthy(
        self, server, reference, golden
    ):
        with NetworkChannel(server.host, server.port) as channel:
            result = channel.call_many_resilient(golden)
        assert result.missing_shards == ()
        assert result.failures == ()
        assert list(result.responses) == reference.handle_many(golden)

    def test_responses_decode_and_mirror_request_codec(
        self, server, golden
    ):
        with NetworkChannel(server.host, server.port) as channel:
            for request in golden:
                response = SearchResponse.from_bytes(
                    channel.call(request)
                )
                assert response.files  # every vocab term matches docs

    def test_stats_mirror_in_process_channel(self, server, golden):
        batch = golden[:8]
        with NetworkChannel(server.host, server.port) as channel:
            for request in batch:
                channel.call(request)
            network = channel.stats.snapshot()
        assert network.round_trips == len(batch)
        assert network.failed_calls == 0
        assert network.bytes_to_server == sum(len(r) for r in batch)
        assert network.bytes_to_user > 0

    def test_network_channel_satisfies_transport(self, server):
        with NetworkChannel(server.host, server.port) as channel:
            assert isinstance(channel, Transport)


class TestClientStack:
    def test_data_user_matches_in_process(self, world, server, reference):
        scheme, owner, _ = world
        credentials = owner.authorize_user()
        with NetworkChannel(server.host, server.port) as channel:
            remote = DataUser(
                scheme, credentials, channel, owner.analyzer
            ).search_ranked_topk(VOCAB[3], k=5)
        local = DataUser(
            scheme,
            credentials,
            Channel(reference.handle),
            owner.analyzer,
        ).search_ranked_topk(VOCAB[3], k=5)
        assert remote == local
        assert remote  # non-trivial: the keyword matches documents

    def test_binary_codec_user_over_loopback(self, world, server):
        scheme, owner, _ = world
        with NetworkChannel(server.host, server.port) as channel:
            hits = DataUser(
                scheme,
                owner.authorize_user(),
                channel,
                owner.analyzer,
                codec=CODEC_BINARY,
            ).search_ranked_topk(VOCAB[7], k=3)
        assert len(hits) == 3
        assert [hit.rank for hit in hits] == [1, 2, 3]

    def test_retrying_channel_wraps_network_channel(
        self, world, server
    ):
        scheme, owner, _ = world
        with NetworkChannel(server.host, server.port) as channel:
            retrying = RetryingChannel(channel, RetryPolicy())
            hits = DataUser(
                scheme, owner.authorize_user(), retrying, owner.analyzer
            ).search_ranked_topk(VOCAB[11], k=2)
        assert len(hits) == 2

    def test_reconnects_after_explicit_close(self, server, golden):
        channel = NetworkChannel(server.host, server.port)
        try:
            first = channel.call(golden[0])
            channel.close()
            # The next call must transparently re-dial.
            assert channel.call(golden[0]) == first
        finally:
            channel.close()


class TestUpdatesOverNetwork:
    def test_maintainer_insert_and_remove(self):
        """The owner's update driver works over real sockets unchanged.

        put-blob / remove-blob are broadcast to every worker process
        (each holds a full blob-store replica), so the new document
        must be retrievable no matter which shard ranks it.
        """
        scheme = EfficientRSSE(TEST_PARAMETERS)
        owner = DataOwner(scheme)
        documents = [
            Document(
                doc_id=f"doc{i}",
                title=f"doc {i}",
                text="alpha beta gamma " * (i + 1),
            )
            for i in range(6)
        ]
        outsourcing = owner.setup(documents)
        with NetServer(
            outsourcing.secure_index,
            outsourcing.blob_store,
            can_rank=True,
            num_shards=NUM_SHARDS,
            update_token=TOKEN,
        ) as srv, NetworkChannel(srv.host, srv.port) as channel:
            maintainer = RemoteIndexMaintainer(owner, channel, TOKEN)

            def matches(keyword):
                term = owner.analyzer.analyze_query(keyword)
                request = SearchRequest(
                    trapdoor_bytes=scheme.trapdoor(
                        owner.key, term
                    ).serialize(),
                    top_k=None,
                ).to_bytes()
                return {
                    m[0]
                    for m in SearchResponse.from_bytes(
                        channel.call(request)
                    ).matches
                }

            before = matches("alpha")
            maintainer.insert_document(
                Document(
                    doc_id="new-doc",
                    title="new doc",
                    text="alpha alpha delta",
                )
            )
            assert matches("alpha") == before | {"new-doc"}
            user = DataUser(
                scheme, owner.authorize_user(), channel, owner.analyzer
            )
            retrieved = user.search_ranked_topk("delta", k=1)
            assert [hit.file_id for hit in retrieved] == ["new-doc"]
            maintainer.remove_document("new-doc")
            assert matches("alpha") == before


class TestFaults:
    def test_killed_worker_yields_partial_result(self, world, golden):
        with fresh_server(world) as srv, NetworkChannel(
            srv.host, srv.port
        ) as channel:
            healthy = channel.call_many(golden)
            victim = 2
            srv.kill_worker(victim)
            result = channel.call_many_resilient(golden)
            assert result.missing_shards == (victim,)
            routed = [
                shard_for_address(
                    routing_address(request),
                    NUM_SHARDS,
                    DEFAULT_SHARD_SEED,
                )
                for request in golden
            ]
            for position, request in enumerate(golden):
                if routed[position] == victim:
                    assert result.responses[position] is None
                else:
                    # Surviving shards still serve byte-identical
                    # responses.
                    assert (
                        result.responses[position] == healthy[position]
                    )
            failed_positions = {
                position for position, _, _ in result.failures
            }
            assert failed_positions == {
                position
                for position, shard in enumerate(routed)
                if shard == victim
            }

    def test_circuit_breaker_opens_for_dead_worker(self, world, golden):
        breaker = BreakerConfig(failure_threshold=3)
        # Placement depends on the owner's fresh keys: kill the shard
        # the most frames route to, so its breaker is sure to see
        # ``failure_threshold`` failures.
        routed = Counter(
            shard_for_address(
                routing_address(request), NUM_SHARDS, DEFAULT_SHARD_SEED
            )
            for request in golden
        )
        victim, sent = routed.most_common(1)[0]
        assert sent >= breaker.failure_threshold
        with fresh_server(world, breaker=breaker) as srv, NetworkChannel(
            srv.host, srv.port
        ) as channel:
            srv.kill_worker(victim)
            channel.call_many_resilient(golden)
            health = srv.worker_health
            assert health[victim].state == "open"
            alive = [
                snapshot.state
                for shard, snapshot in enumerate(health)
                if shard != victim
            ]
            assert alive == ["closed"] * (NUM_SHARDS - 1)

    def test_strict_batch_raises_for_dead_worker(self, world, golden):
        with fresh_server(world) as srv, NetworkChannel(
            srv.host, srv.port
        ) as channel:
            srv.kill_worker(0)
            with pytest.raises(TransportError):
                channel.call_many(golden)


class TestOverload:
    def test_burst_is_shed_with_explicit_errors(self, world, golden):
        """2x-capacity pipelined burst: every request gets an answer.

        With the queue-depth high-water mark at 4 and slow workers,
        most of a 64-deep pipelined burst must be rejected with
        ``ServerOverloadedError`` — an explicit response, not a
        dropped frame or an unbounded queue — and the connection and
        server stay fully usable afterwards.
        """
        obs = Obs.enabled()
        with fresh_server(
            world,
            max_queue_depth=4,
            max_inflight_per_conn=64,
            worker_delay_s=0.02,
            obs=obs,
        ) as srv, NetworkChannel(srv.host, srv.port) as channel:
            result = channel.call_many_resilient(golden)
            assert len(result.responses) == len(golden)
            shed = [
                (position, error)
                for position, _, error in result.failures
            ]
            assert shed, "burst never hit the admission limit"
            assert {error for _, error in shed} == {
                "ServerOverloadedError"
            }
            served = [r for r in result.responses if r is not None]
            assert served, "admission control shed the entire burst"
            # Accounting: the obs rejection counter saw every shed
            # request.
            assert obs.metrics.snapshot().value(
                "repro_net_overload_rejections_total"
            ) == len(shed)
            # The server is healthy after the storm.
            assert channel.call(golden[0]) is not None
            assert all(
                snapshot.state == "closed"
                for snapshot in srv.worker_health
            )


class TestObservability:
    def test_connection_gauge_and_request_counter(self, world, golden):
        obs = Obs.enabled()
        with fresh_server(world, obs=obs) as srv:
            with NetworkChannel(srv.host, srv.port) as channel:
                channel.call_many(golden[:6])
                value = obs.metrics.snapshot().value
                assert value("repro_net_connections") == 1
                assert value(
                    "repro_net_requests_total", kind="search"
                ) == 6
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if (
                    obs.metrics.snapshot().value("repro_net_connections")
                    == 0
                ):
                    break
                time.sleep(0.01)
            assert (
                obs.metrics.snapshot().value("repro_net_connections") == 0
            )


class TestShutdown:
    def test_close_reaps_workers_and_releases_port(self, world, golden):
        srv = fresh_server(world).start()
        port = srv.port
        with NetworkChannel(srv.host, port) as channel:
            channel.call(golden[0])
        processes = srv.worker_processes
        assert len(processes) == NUM_SHARDS
        assert all(process.is_alive() for process in processes)
        srv.close()
        assert all(not process.is_alive() for process in processes)
        with pytest.raises(CallDroppedError):
            NetworkChannel(srv.host, port).call(golden[0])

    def test_close_is_idempotent(self, world):
        srv = fresh_server(world).start()
        srv.close()
        srv.close()
        assert all(
            not process.is_alive() for process in srv.worker_processes
        )


class TestProtocolHygiene:
    def test_framing_violation_closes_connection(self, server, golden):
        with socket.create_connection(
            (server.host, server.port), timeout=5.0
        ) as raw:
            raw.sendall(b"\x00\x00\x00\x00")  # zero-length frame
            assert raw.recv(4096) == b""  # server hangs up
        # The violation is contained to that connection.
        with NetworkChannel(server.host, server.port) as channel:
            assert channel.call(golden[0])

    def test_oversized_frame_closes_connection(self, server, golden):
        with socket.create_connection(
            (server.host, server.port), timeout=5.0
        ) as raw:
            raw.sendall((2**31).to_bytes(4, "big"))
            assert raw.recv(4096) == b""
        with NetworkChannel(server.host, server.port) as channel:
            assert channel.call(golden[0])

    def test_interleaved_codecs_on_one_connection(
        self, server, reference, golden
    ):
        """JSON and binary requests share a connection freely."""
        mixed = golden[:10]  # alternating codecs by construction
        with NetworkChannel(server.host, server.port) as channel:
            assert channel.call_many(mixed) == reference.handle_many(
                mixed
            )

    @pytest.mark.parametrize("kind", ("put-blob", "remove-blob"))
    def test_malformed_blob_mutation_gets_error_response(
        self, server, golden, kind
    ):
        """A blob mutation that cannot be routed is answered like a
        malformed search, and the connection keeps serving."""
        malformed = json.dumps({"kind": kind}).encode("utf-8")
        with socket.create_connection(
            (server.host, server.port), timeout=5.0
        ) as raw:
            raw.sendall(encode_frame(malformed))
            error = ErrorResponse.from_bytes(recv_frame(raw))
            assert error.code == "ProtocolError"
            raw.sendall(encode_frame(golden[0]))
            assert SearchResponse.from_bytes(recv_frame(raw)).files

    def test_valid_frame_sent_raw_round_trips(self, server, golden):
        with socket.create_connection(
            (server.host, server.port), timeout=5.0
        ) as raw:
            raw.sendall(encode_frame(golden[0]))
            header = b""
            while len(header) < 4:
                header += raw.recv(4 - len(header))
            length = int.from_bytes(header, "big")
            body = b""
            while len(body) < length:
                body += raw.recv(length - len(body))
        assert SearchResponse.from_bytes(body).files


class _RecordingTransport:
    """Stands in for the loop's pipe transport: keeps what is written."""

    def __init__(self):
        self.written = bytearray()

    def write(self, data: bytes) -> None:
        self.written += data


def _packed(text: str) -> bytes:
    data = text.encode("utf-8")
    return len(data).to_bytes(4, "big") + data


def _rid(number: int) -> bytes:
    return number.to_bytes(8, "big")


def _ok_reply(number: int, response: bytes) -> bytes:
    return _rid(number) + b"\x00" + (7).to_bytes(4, "big") + response


def _send_bytes_stream(*messages: bytes) -> bytes:
    """The raw bytes a real ``Connection.send_bytes`` writes per message."""
    ours, theirs = multiprocessing.Pipe(duplex=True)
    with ours, theirs:
        expected = sum(4 + len(message) for message in messages)
        for message in messages:
            theirs.send_bytes(message)
        stream = b""
        while len(stream) < expected:
            stream += os.read(ours.fileno(), expected - len(stream))
    return stream


_REQUESTS = (b"request-0", b"request-1", b"request-2")
#: Replies out of request order, one of them an error and one over the
#: 16 KiB at which ``send_bytes`` writes header and body separately.
_REPLIES = (
    _ok_reply(2, b"x" * 20000),
    _ok_reply(0, b"response-0"),
    _rid(1) + b"\x01" + _packed("KeyError") + _packed("no such list"),
)
_EXPECTED = [
    (True, b"response-0", 7, ""),
    (False, b"", 0, "KeyError\x00no such list"),
    (True, b"x" * 20000, 7, ""),
]


async def _answers(chunks) -> tuple[list, bytes]:
    """Three pipelined calls on a fresh handle, replies fed as ``chunks``.

    Returns the call outcomes and the bytes the calls wrote.
    """
    handle = _WorkerHandle(0, None, None, CircuitBreaker())
    transport = _RecordingTransport()
    handle.connection_made(transport)
    calls = [asyncio.ensure_future(handle.call(r)) for r in _REQUESTS]
    await asyncio.sleep(0)
    for chunk in chunks:
        handle.data_received(chunk)
    # Every reply is already fed: a call still pending is a parse bug.
    answers = await asyncio.wait_for(asyncio.gather(*calls), 5.0)
    return list(answers), bytes(transport.written)


class TestWorkerPipe:
    def test_requests_are_read_by_recv_bytes(self):
        """The worker's unchanged ``recv_bytes`` loop reads what
        ``call`` writes: rid-prefixed requests, in send order."""
        _, written = asyncio.run(
            _answers([_send_bytes_stream(*_REPLIES)])
        )
        ours, theirs = multiprocessing.Pipe(duplex=True)
        with ours, theirs:
            os.write(ours.fileno(), written)
            ours.close()  # a misframed stream then ends in EOFError
            received = [theirs.recv_bytes() for _ in _REQUESTS]
        assert received == [
            _rid(number) + request
            for number, request in enumerate(_REQUESTS)
        ]

    def test_replies_reassemble_at_every_split(self):
        """``send_bytes`` output split at every offset, several frames
        per chunk, resolves each call with its own reply."""
        stream = _send_bytes_stream(*_REPLIES)

        async def every_split():
            for cut in range(len(stream) + 1):
                answers, _ = await _answers([stream[:cut], stream[cut:]])
                assert answers == _EXPECTED, cut

        asyncio.run(every_split())

    def test_long_form_header(self):
        """``-1`` then an 8-byte length (the form ``send_bytes`` uses
        past 2 GiB) is parsed like the short form, at any split."""
        stream = _send_bytes_stream(_REPLIES[0]) + b"".join(
            (-1).to_bytes(4, "big", signed=True)
            + len(reply).to_bytes(8, "big")
            + reply
            for reply in _REPLIES[1:]
        )

        async def every_split():
            for cut in range(len(stream) + 1):
                answers, _ = await _answers([stream[:cut], stream[cut:]])
                assert answers == _EXPECTED, cut

        asyncio.run(every_split())

    def test_lost_pipe_fails_pending_and_later_calls(self):
        async def scenario():
            handle = _WorkerHandle(3, None, None, CircuitBreaker())
            handle.connection_made(_RecordingTransport())
            pending = asyncio.ensure_future(handle.call(b"request"))
            await asyncio.sleep(0)
            handle.connection_lost(None)
            with pytest.raises(ShardDownError, match="shard 3"):
                await asyncio.wait_for(pending, 5.0)
            with pytest.raises(ShardDownError, match="shard 3"):
                await handle.call(b"request")
            assert handle.alive is False

        asyncio.run(scenario())

    def test_start_creates_no_worker_threads(self, world, golden):
        with fresh_server(world) as srv, NetworkChannel(
            srv.host, srv.port
        ) as channel:
            channel.call_many(golden)
            names = [thread.name for thread in threading.enumerate()]
        assert "netserve-frontend" in names
        assert not [
            name for name in names if name.startswith("netserve-worker-")
        ]

    @pytest.mark.parametrize("codec", (CODEC_BINARY, CODEC_JSON))
    def test_large_blob_broadcast_matches_cluster(self, world, codec):
        """A 4 MiB ``put-blob`` — larger than the pipe's socket buffer,
        below the frame cap — reaches all four workers, and its ack is
        byte-identical to the in-process cluster's."""
        _, _, outsourcing = world
        blob = random.Random(7).randbytes(4 << 20)
        put = PutBlobRequest(token=TOKEN, file_id="big", blob=blob)
        frame = put.to_bytes(codec)
        cluster = ClusterServer(
            outsourcing.secure_index,
            copy.deepcopy(outsourcing.blob_store),
            can_rank=True,
            num_shards=NUM_SHARDS,
            update_token=TOKEN,
        )
        with cluster, NetServer(
            outsourcing.secure_index,
            copy.deepcopy(outsourcing.blob_store),
            can_rank=True,
            num_shards=NUM_SHARDS,
            update_token=TOKEN,
        ) as srv, NetworkChannel(srv.host, srv.port) as channel:
            assert channel.call(frame) == cluster.handle(frame)
            # Each worker's replica, asked over its own pipe: a reply
            # as large as the request comes back through the loop.
            fetch = FileRequest(file_ids=("big",)).to_bytes(codec)
            for handle in srv._workers:
                ok, response, _, _ = asyncio.run_coroutine_threadsafe(
                    handle.call(fetch), srv._loop
                ).result(timeout=30)
                assert ok
                files = RankedFilesResponse.from_bytes(response).files
                assert files == (("big", blob),)
