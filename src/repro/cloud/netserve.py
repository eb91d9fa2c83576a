"""Real network serving: sockets, processes, and the binary codec.

Everything below the wire in PRs 1–5 — the sharded cluster, retry and
breakers, the ranked cache, the dual codec — ran behind the in-process
:class:`~repro.cloud.network.Channel`, which means one Python process
and the GIL capping a "4-shard" cluster at one core.  This module is
the deployment shape the codec was designed for:

* :class:`NetServer` — an asyncio TCP front end speaking
  length-prefixed frames (:func:`~repro.cloud.protocol.encode_frame`)
  whose payloads are the PR-5 codec messages.  Dispatch is
  :func:`~repro.cloud.protocol.peek_kind` (one byte for the binary
  codec); JSON clients work unchanged via
  :func:`~repro.cloud.protocol.detect_codec`, and every response
  mirrors its request's codec.
* **Pre-forked shard workers** — one OS *process* per shard
  (``multiprocessing`` fork context), each owning a full
  :class:`~repro.cloud.server.CloudServer` over its index partition
  plus its own ranked cache, so shards rank and decrypt on separate
  cores.  The parent talks to each worker over a duplex pipe with
  request-id multiplexing, so one worker serves pipelined requests
  from many connections.  The pipes are read and written on the
  front-end event loop (an asyncio protocol over each socketpair),
  with no per-worker threads.
* **Backpressure, twice** — a per-connection in-flight window (the
  reader simply stops consuming the socket, letting TCP flow control
  push back on the client) and a global queue-depth high-water mark
  that *sheds* load with an explicit
  :class:`~repro.cloud.protocol.ErrorResponse` carrying
  ``ServerOverloadedError`` rather than queueing without bound.
* :class:`NetworkChannel` — the client side: a drop-in
  :class:`~repro.cloud.network.Transport`, so
  :class:`~repro.cloud.user.DataUser`,
  :class:`~repro.cloud.retry.RetryingChannel`, and
  :class:`~repro.cloud.updates.RemoteIndexMaintainer` run unmodified
  over real sockets, plus pipelined batch calls mirroring the cluster
  fan-out (:meth:`NetworkChannel.call_many_resilient` returns the
  same :class:`~repro.cloud.cluster.PartialResult` contract).

Routing is byte-identical to :class:`~repro.cloud.cluster.ClusterServer`
(shared :meth:`~repro.cloud.cluster.ShardedIndex.shard_for_request`,
and :func:`~repro.cloud.cluster.finish_multi_search` for a fanned-out
multi-search), with one
deployment difference: the blob store is *replicated* per worker
process (fork copy-on-write), so ``put-blob``/``remove-blob`` are
broadcast to every worker while addressed requests go only to their
owning shard.  The in-process cluster remains the deterministic
reference; the loopback suite asserts the two produce byte-identical
responses.
"""

from __future__ import annotations

import asyncio
import gc
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from collections import deque
from typing import Awaitable, Callable, Iterable, Sequence

import repro.errors
from repro.cloud.cluster import (
    DEFAULT_NUM_SHARDS,
    DEFAULT_SHARD_SEED,
    PartialResult,
    ShardedIndex,
    finish_multi_search,
    split_multi_request,
)
from repro.cloud.cache import ResultCache
from repro.cloud.network import ChannelStats
from repro.cloud.protocol import (
    CODEC_BINARY,
    MAX_FRAME_BYTES,
    AdminRequest,
    AdminResponse,
    ErrorResponse,
    MultiSearchRequest,
    MultiSearchResponse,
    ObservedRequest,
    ObservedResponse,
    ObsSnapshotRequest,
    ObsSnapshotResponse,
    StreamDecoder,
    TracedRequest,
    detect_codec,
    encode_frame,
    peek_kind,
)
from repro.cloud.retry import (
    BREAKER_STATE_VALUES,
    BreakerConfig,
    BreakerSnapshot,
    CircuitBreaker,
)
from repro.cloud.server import CloudServer
from repro.cloud.storage import BlobStore
from repro.core.secure_index import SecureIndex
from repro.errors import (
    CallDroppedError,
    CallTimeoutError,
    CorruptedResponseError,
    ParameterError,
    ProtocolError,
    ReproError,
    ServerOverloadedError,
    ShardDownError,
    TransportError,
)
from repro.obs import (
    LeakageLog,
    MetricsRegistry,
    MetricsSnapshot,
    Obs,
    ObsDump,
    SlowQueryLog,
    dump_jsonl,
    load_jsonl,
    merge_dumps,
    render_prometheus,
)
from repro.obs.trace import NOOP_SPAN, NOOP_TRACER, FakeClock, Tracer

#: Upper bound on each step of the start-up loopback warm-up.
_WARM_UP_TIMEOUT_S = 5.0

#: Default per-connection in-flight window (requests admitted but not
#: yet answered before the server stops reading that socket).
DEFAULT_MAX_INFLIGHT_PER_CONN = 32

#: Default global queue-depth high-water mark: requests in flight
#: across all connections beyond which new arrivals are shed with an
#: explicit overload response.
DEFAULT_MAX_QUEUE_DEPTH = 128

#: Blob mutations are broadcast to every worker (replicated stores).
_BROADCAST_KINDS = ("put-blob", "remove-blob")

_STATUS_OK = 0x00
_STATUS_ERROR = 0x01

_RID_BYTES = 8

#: Span/trace-id stride between processes of one deployment: worker
#: ``i`` counts ids from ``(i + 1) * stride``, the front end from 0,
#: so a merged cluster artifact never collides on ids.  2^48 ids per
#: process outlasts any run; 2^16 processes fit below the wire's
#: 8-byte id fields.
_WORKER_ID_STRIDE = 1 << 48

#: Slow-query entries surfaced in the admin ``health`` section.
_HEALTH_SLOW_QUERIES = 10


def _pack_strs(*values: str) -> bytes:
    parts = []
    for value in values:
        data = value.encode("utf-8")
        parts.append(len(data).to_bytes(4, "big"))
        parts.append(data)
    return b"".join(parts)


def _unpack_strs(data: bytes, count: int) -> list[str]:
    values = []
    offset = 0
    for _ in range(count):
        length = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
        values.append(data[offset:offset + length].decode("utf-8"))
        offset += length
    return values


def _worker_main(
    conn,
    shard_index: SecureIndex,
    blob_store: BlobStore,
    can_rank: bool,
    cache_searches: bool,
    cache_capacity: int | None,
    update_token: bytes | None,
    delay_s: float,
    obs=None,
    clock: Callable[[], float] | None = None,
) -> None:
    """One shard worker: a CloudServer behind a request pipe.

    Runs in the forked child.  The shard index and blob store arrive
    via fork copy-on-write (never pickled), so the worker starts with
    an exact snapshot of the parent's deployment.  The loop is
    deliberately single-threaded — a shard is the unit of
    serialization, exactly the guarantee the in-process cluster gets
    from its shard lock — and exits when the parent closes its pipe
    end.  SIGINT is ignored so an interactive Ctrl-C reaches only the
    parent, which then shuts workers down via the pipes.

    ``obs`` is this worker's *own* bundle (processes cannot share a
    registry): the parent builds it pre-fork with a disjoint tracer
    id range and fetches its contents over the pipe via
    ``obs-snapshot`` requests.  ``clock`` overrides the per-request
    elapsed-time source (a worker-local
    :class:`~repro.obs.trace.FakeClock` in deterministic deployments,
    so ``worker_us`` attributes are byte-stable too).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    server = CloudServer(
        shard_index,
        blob_store,
        can_rank,
        cache_searches=cache_searches,
        update_token=update_token,
        obs=obs,
        **(
            {"cache_capacity": cache_capacity}
            if cache_capacity is not None
            else {}
        ),
    )
    timer = clock if clock is not None else time.perf_counter
    while True:
        try:
            envelope = conn.recv_bytes()
        except (EOFError, OSError):
            break
        rid = envelope[:_RID_BYTES]
        request = envelope[_RID_BYTES:]
        if delay_s:
            time.sleep(delay_s)
        started = timer()
        try:
            response = server.handle(request)
        except Exception as exc:  # noqa: BLE001 — workers must not die
            reply = (
                rid
                + bytes([_STATUS_ERROR])
                + _pack_strs(type(exc).__name__, str(exc))
            )
        else:
            elapsed_us = min(
                int((timer() - started) * 1e6), 2**32 - 1
            )
            reply = (
                rid
                + bytes([_STATUS_OK])
                + elapsed_us.to_bytes(4, "big")
                + response
            )
        try:
            conn.send_bytes(reply)
        except (OSError, BrokenPipeError):
            break
    conn.close()


class _WorkerHandle(asyncio.Protocol):
    """Parent-side view of one shard worker process.

    The worker pipe is a socketpair, and a dup of its parent end is
    served on the front-end event loop with this protocol: no thread,
    lock or executor sits between a request and its worker.  Requests
    are written with ``transport.write`` in ``multiprocessing``
    connection framing (a 4-byte signed big-endian length, or ``-1``
    then an 8-byte length), so the worker's ``recv_bytes`` reads them
    unchanged, and carry 8-byte request ids so one worker serves
    pipelined requests from many connections.  :meth:`data_received`
    parses the replies in the same framing and resolves the matching
    futures in place.  When the pipe dies (worker crashed or killed),
    every pending call — and every future call — fails with
    :class:`~repro.errors.ShardDownError`, which is what the front
    end's per-worker circuit breaker counts.
    """

    def __init__(self, shard: int, process, conn, breaker: CircuitBreaker):
        self.shard = shard
        self.process = process
        self.conn = conn
        self.breaker = breaker
        self.alive = True
        self._pending: dict[bytes, asyncio.Future] = {}
        self._next_rid = 0
        self._transport: asyncio.Transport | None = None
        self._buffer = bytearray()

    async def connect(self, loop: asyncio.AbstractEventLoop) -> None:
        """Serve the pipe on ``loop`` (a dup, so ``conn`` stays ours)."""
        sock = socket.socket(fileno=os.dup(self.conn.fileno()))
        await loop.connect_accepted_socket(lambda: self, sock)

    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        offset = 0
        while len(buffer) - offset >= 4:
            size = int.from_bytes(
                buffer[offset:offset + 4], "big", signed=True
            )
            start = offset + 4
            if size == -1:
                if len(buffer) - offset < 12:
                    break
                size = int.from_bytes(buffer[start:start + 8], "big")
                start += 8
            end = start + size
            if len(buffer) < end:
                break
            self._resolve(bytes(buffer[start:end]))
            offset = end
        del buffer[:offset]

    def _resolve(self, reply: bytes) -> None:
        future = self._pending.pop(reply[:_RID_BYTES], None)
        if future is None or future.done():
            return
        body = _RID_BYTES + 1
        if reply[_RID_BYTES] == _STATUS_OK:
            elapsed_us = int.from_bytes(reply[body:body + 4], "big")
            future.set_result((True, reply[body + 4:], elapsed_us, ""))
        else:
            code, detail = _unpack_strs(reply[body:], 2)
            future.set_result((False, b"", 0, f"{code}\x00{detail}"))

    def connection_lost(self, exc: Exception | None) -> None:
        self.alive = False
        orphans = list(self._pending.values())
        self._pending.clear()
        for future in orphans:
            if not future.done():
                future.set_exception(
                    ShardDownError(f"shard {self.shard}: worker died")
                )

    async def call(self, request: bytes) -> tuple[bool, bytes, int, str]:
        """One pipelined worker round trip.

        Returns ``(ok, response, worker_us, packed_error)``; raises
        :class:`~repro.errors.ShardDownError` when the worker (or its
        pipe) is gone.
        """
        if not self.alive or self._transport is None:
            raise ShardDownError(
                f"shard {self.shard}: worker is not running"
            )
        rid = self._next_rid.to_bytes(_RID_BYTES, "big")
        self._next_rid += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        size = _RID_BYTES + len(request)
        if size > 0x7FFFFFFF:
            header = b"\xff\xff\xff\xff" + size.to_bytes(8, "big")
        else:
            header = size.to_bytes(4, "big")
        # A failed write closes the transport, and ``connection_lost``
        # then fails this future along with every other pending one.
        self._transport.write(header + rid + request)
        return await future

    def close_transport(self) -> None:
        """Drop the loop's end of the pipe (front-end teardown)."""
        if self._transport is not None:
            self._transport.abort()

    def shutdown(self, timeout_s: float) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=timeout_s)
        if self.process.is_alive():  # pragma: no cover — last resort
            self.process.kill()
            self.process.join(timeout=timeout_s)
        try:
            self.conn.close()
        except OSError:
            pass


class NetServer:
    """A multi-process TCP front end for the sharded index.

    Accepts persistent connections carrying length-prefixed codec
    frames, routes each request to the worker process owning its shard
    (broadcasting blob mutations to all workers — the blob store is
    replicated per process), and writes responses back *in request
    order* per connection, so clients may pipeline freely.

    Failure semantics are explicit bytes, never silence: a request
    whose shard is down, whose handler rejected it, or which was shed
    at the admission-control limit comes back as an
    :class:`~repro.cloud.protocol.ErrorResponse` in the request's own
    codec, carrying the exception class name and the shard id when one
    is known.  Per-worker circuit breakers (same
    :class:`~repro.cloud.retry.CircuitBreaker` as the in-process
    cluster) stop hammering a dead worker after
    ``failure_threshold`` consecutive pipe failures.

    Parameters
    ----------
    index:
        A pre-partitioned :class:`~repro.cloud.cluster.ShardedIndex`,
        or a plain :class:`~repro.core.secure_index.SecureIndex` to
        partition on construction.
    blob_store:
        The encrypted collection; each worker inherits a fork-time
        copy, kept consistent by broadcasting blob mutations.
    can_rank:
        Forwarded to every worker's CloudServer.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    num_shards / shard_seed:
        Partition geometry when ``index`` is unsharded.
    cache_searches / cache_capacity / update_token:
        Per-worker CloudServer knobs (each worker owns a private
        ranked cache over its shard).
    result_cache_bytes:
        Byte budget for the hot-query fast lane.  When set, the front
        end keeps a :class:`~repro.cloud.cache.ResultCache` of fully
        encoded response frames keyed by ``(codec, frame digest)`` —
        a repeated query is answered from the asyncio loop with zero
        worker IPC and zero re-encode — and concurrent identical
        requests are *coalesced* into one shared worker round trip
        via an asyncio future map (single-flight).  The workers keep
        no response cache of their own: they only ever see this
        cache's misses.  Mutations invalidate by epoch:
        ``update-list`` bumps its owning shard, blob broadcasts bump
        every shard, and error/partial responses are never cached, so
        responses are byte-identical with the cache on or off.  With
        ``obs`` set, cache hits still record their
        search/access-pattern observations (captured at fill time via
        :class:`~repro.cloud.protocol.ObservedRequest` envelopes and
        replayed into the front end's leakage log), so the merged
        cluster artifact keeps exact leakage counts.  Without ``obs``
        there is no log to replay into: fills send the bare client
        frame and entries hold no observations.
    max_inflight_per_conn:
        Per-connection admission window; past it the server stops
        reading the socket (TCP pushes back on the client).
    max_queue_depth:
        Global in-flight high-water mark; past it new requests are
        shed with ``ServerOverloadedError`` responses.
    max_frame_bytes:
        Per-frame size cap enforced at the length prefix.
    breaker:
        Per-worker circuit-breaker tuning (defaults when omitted).
    worker_delay_s:
        Artificial per-request service delay inside each worker —
        a test/bench knob for provoking overload deterministically.
    obs:
        Optional :class:`repro.obs.Obs` bundle.  The front end keeps a
        connection gauge (``repro_net_connections``), an in-flight
        histogram (``repro_net_inflight``), request and
        overload-rejection counters, breaker-state gauges
        (``repro_net_breaker_state{worker=...}``), and per-request
        spans whose ``worker_us`` attribute bridges the worker's
        measured handling time across the process boundary.  When set,
        each worker additionally gets its *own* pre-fork bundle (a
        registry cannot be shared across processes) with a disjoint
        tracer id range, worker-bound frames travel inside
        :class:`~repro.cloud.protocol.TracedRequest` envelopes so
        worker spans stitch under the front end's ``net.request``
        root, and the ``admin`` request kind serves merged
        cluster-wide Prometheus/JSONL/health views (see
        :meth:`scrape`).
    deterministic_obs:
        Give every worker a private
        :class:`~repro.obs.trace.FakeClock` driving both its span
        timings and its ``worker_us`` measurements, so exported
        cluster artifacts are a pure function of the request sequence
        (the CI smoke job diffs two full runs byte-for-byte).  Only
        meaningful with ``obs``.
    """

    def __init__(
        self,
        index: SecureIndex | ShardedIndex,
        blob_store: BlobStore,
        can_rank: bool,
        host: str = "127.0.0.1",
        port: int = 0,
        num_shards: int | None = None,
        shard_seed: bytes = DEFAULT_SHARD_SEED,
        cache_searches: bool = False,
        cache_capacity: int | None = None,
        result_cache_bytes: int | None = None,
        update_token: bytes | None = None,
        max_inflight_per_conn: int = DEFAULT_MAX_INFLIGHT_PER_CONN,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        breaker: BreakerConfig | None = None,
        worker_delay_s: float = 0.0,
        obs=None,
        deterministic_obs: bool = False,
    ):
        if max_inflight_per_conn < 1:
            raise ParameterError(
                f"max_inflight_per_conn must be >= 1, got "
                f"{max_inflight_per_conn}"
            )
        if max_queue_depth < 1:
            raise ParameterError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if worker_delay_s < 0:
            raise ParameterError(
                f"worker_delay_s must be >= 0, got {worker_delay_s}"
            )
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
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover — POSIX only
            raise ParameterError(
                "NetServer requires the fork start method (POSIX)"
            ) from exc
        shards = self._sharded.num_shards
        if cache_capacity is not None and cache_capacity < 1:
            raise ParameterError(
                f"cache capacity must be >= 1, got {cache_capacity}"
            )
        self._per_shard_capacity = (
            max(1, cache_capacity // shards)
            if cache_capacity is not None
            else None
        )
        if result_cache_bytes is not None and result_cache_bytes < 1:
            raise ParameterError(
                f"result_cache_bytes must be >= 1, got {result_cache_bytes}"
            )
        self._result_cache = (
            ResultCache(result_cache_bytes, shards)
            if result_cache_bytes is not None
            else None
        )
        #: Single-flight map: key -> future resolving to
        #: ``(response bytes, wire observations)``.  Touched only on
        #: the event-loop thread.
        self._single_flight: dict[
            tuple[str, bytes], asyncio.Future
        ] = {}
        self._blobs = blob_store
        self._can_rank = can_rank
        self._cache_searches = cache_searches
        self._update_token = update_token
        self._worker_delay_s = worker_delay_s
        self._breaker_config = breaker
        self._host = host
        self._requested_port = port
        self._bound_port: int | None = None
        self._max_inflight = max_inflight_per_conn
        self._max_depth = max_queue_depth
        self._max_frame = max_frame_bytes
        self._obs = obs
        self._deterministic_obs = deterministic_obs
        self._tracer = obs.tracer if obs is not None else NOOP_TRACER
        self._workers: tuple[_WorkerHandle, ...] = ()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._inflight = 0
        self._started = False
        self._closed = False
        self._start_error: BaseException | None = None

    def _worker_obs(self, shard: int):
        """Build one worker's private obs bundle (pre-fork).

        The tracer counts ids from ``(shard + 1) * _WORKER_ID_STRIDE``
        so merged cluster artifacts never collide with the front end's
        (or another worker's) span ids; the slow-query knobs mirror the
        front end's.  Returns ``(None, None)`` when observability is
        off — the worker then runs the exact pre-obs code path.
        """
        if self._obs is None:
            return None, None
        clock = FakeClock() if self._deterministic_obs else None
        template = self._obs.slowlog
        obs = Obs(
            tracer=Tracer(
                clock=clock, id_base=(shard + 1) * _WORKER_ID_STRIDE
            ),
            metrics=MetricsRegistry(),
            leakage=LeakageLog(),
            slowlog=SlowQueryLog(
                threshold_s=template.threshold_s,
                sample_every=template.sample_every,
                capacity=template.capacity,
            ),
        )
        return obs, clock

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "NetServer":
        """Fork the workers, bind the socket, begin serving.

        Returns ``self`` so tests can write
        ``with NetServer(...).start() as server``.  The front-end
        event loop runs on a background thread; this call returns once
        the listening port is bound and every worker pipe is on the loop.
        """
        if self._started:
            raise ParameterError("server is already started")
        self._started = True
        handles = []
        # Frozen objects are never traversed by a worker's collector,
        # so the pages of the heap each worker inherits stay shared
        # instead of being copied on its first collection.  The
        # parent's own collector is unchanged once it unfreezes.
        gc.freeze()
        try:
            for shard, shard_index in enumerate(self._sharded.shards):
                parent_conn, child_conn = self._mp.Pipe(duplex=True)
                worker_obs, worker_clock = self._worker_obs(shard)
                process = self._mp.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        shard_index,
                        self._blobs,
                        self._can_rank,
                        self._cache_searches,
                        self._per_shard_capacity,
                        self._update_token,
                        self._worker_delay_s,
                        worker_obs,
                        worker_clock,
                    ),
                    name=f"netserve-shard-{shard}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                handles.append(
                    _WorkerHandle(
                        shard,
                        process,
                        parent_conn,
                        CircuitBreaker(self._breaker_config),
                    )
                )
        finally:
            gc.unfreeze()
        self._workers = tuple(handles)
        ready = threading.Event()
        self._loop_thread = threading.Thread(
            target=self._run_loop,
            args=(ready,),
            name="netserve-frontend",
            daemon=True,
        )
        self._loop_thread.start()
        ready.wait()
        if self._start_error is not None:
            error = self._start_error
            self.close()
            raise ParameterError(
                f"could not start network server: {error}"
            ) from error
        return self

    def _run_loop(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve(ready))
        except BaseException as exc:  # pragma: no cover — defensive
            self._start_error = exc
        finally:
            ready.set()
            loop.close()

    async def _serve(self, ready: threading.Event) -> None:
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_conn, self._host, self._requested_port
            )
        except OSError as exc:
            self._start_error = exc
            return
        self._bound_port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        for handle in self._workers:
            await handle.connect(loop)
        await self._warm_up(server.sockets[0].getsockname()[0])
        ready.set()
        async with server:
            await self._stop_event.wait()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        # In-flight request tasks may still be parked on worker
        # futures; cancel them so the loop closes without orphans.
        current = asyncio.current_task()
        leftovers = [
            task for task in asyncio.all_tasks() if task is not current
        ]
        for task in leftovers:
            task.cancel()
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)
        # Close the worker transports while the loop still runs their
        # ``connection_lost`` callbacks; ``shutdown`` then only reaps.
        for handle in self._workers:
            handle.close_transport()
        await asyncio.sleep(0)

    async def _warm_up(self, host: str) -> None:
        """Serve one malformed frame over loopback before going ready.

        Forking the workers leaves every page of this process shared
        copy-on-write, so the first request would pay a page copy for
        each page the accept → decode → write path touches (hundreds
        of faults, milliseconds on a virtualized host) before its root
        span opens.  A frame that fails codec detection walks that
        path without reaching a worker, a request counter or a span.
        Best effort: a failed warm-up only leaves the cost in place.
        """
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, self._bound_port),
                _WARM_UP_TIMEOUT_S,
            )
        except (OSError, asyncio.TimeoutError):
            return
        try:
            writer.write(encode_frame(b"\x00", self._max_frame))
            await writer.drain()
            # The error response, or EOF.
            await asyncio.wait_for(reader.read(65536), _WARM_UP_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass

    def close(self) -> None:
        """Stop serving and reap every worker process (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # pragma: no cover — loop already gone
                pass
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10.0)
        for handle in self._workers:
            handle.shutdown(timeout_s=10.0)

    def __enter__(self) -> "NetServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- topology -----------------------------------------------------------

    @property
    def host(self) -> str:
        """The bind address."""
        return self._host

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._bound_port is None:
            raise ParameterError("server has not been started")
        return self._bound_port

    @property
    def num_shards(self) -> int:
        """Number of shard worker processes."""
        return self._sharded.num_shards

    @property
    def result_cache(self) -> ResultCache | None:
        """The front-end result cache (``None`` when the fast lane is off)."""
        return self._result_cache

    @property
    def worker_processes(self) -> tuple:
        """The shard worker process handles (for liveness assertions)."""
        return tuple(handle.process for handle in self._workers)

    @property
    def worker_health(self) -> tuple[BreakerSnapshot, ...]:
        """Per-worker circuit-breaker views, in shard order."""
        return tuple(handle.breaker.snapshot() for handle in self._workers)

    def kill_worker(self, shard: int) -> None:
        """Kill one shard worker process (fault-injection helper).

        SIGKILL, not a clean shutdown — the parent finds out the same
        way it would about a real crash: the worker pipe goes dead and
        in-flight calls fail with
        :class:`~repro.errors.ShardDownError`.
        """
        handle = self._workers[shard]
        handle.process.kill()
        handle.process.join(timeout=10.0)

    # -- request path -------------------------------------------------------

    def _observe_conn(self, delta: int) -> None:
        if self._obs is not None:
            self._obs.metrics.gauge("repro_net_connections").add(delta)

    def _observe_admitted(self, kind: str) -> None:
        if self._obs is None:
            return
        self._obs.metrics.counter(
            "repro_net_requests_total", kind=kind
        ).inc()
        self._obs.metrics.histogram(
            "repro_net_inflight",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        ).observe(float(self._inflight))

    def _observe_overload(self) -> None:
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_net_overload_rejections_total"
            ).inc()

    async def _handle_conn(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        self._observe_conn(+1)
        # The gauge decrement lives in its own outermost ``finally``:
        # teardown below awaits twice (the writer task, then
        # ``wait_closed``), and a cancellation or surprise exception
        # landing between them must not leave a phantom connection in
        # ``repro_net_connections`` forever.
        try:
            await self._conn_loop(reader, writer)
        finally:
            self._observe_conn(-1)
            self._conn_tasks.discard(task)

    async def _conn_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        decoder = StreamDecoder(self._max_frame)
        window = asyncio.Semaphore(self._max_inflight)
        responses: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.get_running_loop().create_task(
            self._write_loop(responses, writer)
        )
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                try:
                    frames = decoder.feed(chunk)
                except ProtocolError:
                    # A framing violation poisons the whole stream
                    # (there is no resynchronization point); drop the
                    # connection rather than guess at boundaries.
                    break
                for frame in frames:
                    # The admission window: waiting here stops the
                    # read loop, which stops ACKing the socket, which
                    # is TCP backpressure on the client.
                    await window.acquire()
                    await responses.put(
                        asyncio.get_running_loop().create_task(
                            self._serve_one(frame, window)
                        )
                    )
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            # The queue is unbounded, so the sentinel cannot block —
            # and ``put_nowait`` cannot be interrupted by a second
            # cancellation the way ``await put`` could, which would
            # orphan the writer task.
            responses.put_nowait(None)
            try:
                await writer_task
            except asyncio.CancelledError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write_loop(
        self, responses: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Drain response tasks in admission order (pipelining).

        A request's ``net.request`` span closes here, once its response
        is written, so the root span owns the frame encode, the socket
        write and the drain as well as the routing.  After a failed
        write the loop keeps draining without writing, so every
        admitted request's span is still recorded.
        """
        connected = True
        while True:
            task = await responses.get()
            if task is None:
                return
            payload, span = await task
            try:
                if connected:
                    writer.write(encode_frame(payload, self._max_frame))
                    await writer.drain()
            except (ConnectionError, OSError):
                connected = False
            finally:
                span.finish()

    async def _serve_one(self, frame: bytes, window: asyncio.Semaphore):
        """Serve one frame: ``(response bytes, its open root span)``.

        The ``net.request`` span opens as soon as the frame is admitted
        and is left open for :meth:`_write_loop` to close after the
        write; frames that are not admitted carry the no-op span.
        """
        try:
            try:
                codec = detect_codec(frame)
                kind = peek_kind(frame)
            except ProtocolError as exc:
                return (
                    ErrorResponse(
                        code="ProtocolError", detail=str(exc)
                    ).to_bytes(),
                    NOOP_SPAN,
                )
            if kind == "admin":
                # Out-of-band: no admission control, no request
                # counters, no tracing.  A scrape must work *during*
                # overload, and observing the server must not perturb
                # what it observes (two back-to-back scrapes of an
                # idle server are byte-identical).
                return await self._admin(frame, codec), NOOP_SPAN
            if self._inflight >= self._max_depth:
                self._observe_overload()
                return (
                    ErrorResponse(
                        code="ServerOverloadedError",
                        detail=(
                            f"queue depth {self._inflight} at its "
                            f"high-water mark ({self._max_depth}); "
                            "retry with backoff"
                        ),
                    ).to_bytes(codec),
                    NOOP_SPAN,
                )
            self._inflight += 1
            span = self._tracer.span("net.request", kind=kind)
            try:
                self._observe_admitted(kind)
                return await self._route(frame, codec, kind, span), span
            except BaseException as exc:
                span.set(error=type(exc).__name__)
                span.finish()
                raise
            finally:
                self._inflight -= 1
        finally:
            window.release()

    async def _route(
        self, frame: bytes, codec: str, kind: str, span
    ) -> bytes:
        """Route one admitted frame, through the fast lane when on.

        The one route step: the owning shard of the frame (for a
        multi-search, of each term) is computed here, once, for every
        kind.  A frame that cannot be routed — malformed, or of a kind
        no worker serves — gets an
        :class:`~repro.cloud.protocol.ErrorResponse` on its own
        connection, blob mutations included.  Only ``search`` and
        non-partial ``multi-search`` frames are cached (a ``partial``
        multi-search returns unranked aggregates meant for client-side
        merging).
        """
        request: MultiSearchRequest | None = None
        try:
            if kind == "multi-search":
                request = MultiSearchRequest.from_bytes(frame)
                sub_requests = split_multi_request(
                    request,
                    self._sharded.num_shards,
                    self._sharded.shard_seed,
                )
                shards = tuple(sorted(sub_requests))
            else:
                shards = (self._sharded.shard_for_request(frame),)
        except ReproError as exc:
            return ErrorResponse(
                code=type(exc).__name__, detail=str(exc)
            ).to_bytes(codec)
        cache = self._result_cache
        # Fills capture observations only for a leakage log to replay;
        # without one the worker sees the bare client frame.
        observe = self._obs is not None
        if request is not None:
            if cache is not None and not request.partial:
                return await self._serve_cached(
                    frame,
                    codec,
                    span,
                    shards,
                    lambda: self._fan_out(
                        frame, codec, span, request, sub_requests, observe
                    ),
                )
            response, _ = await self._fan_out(
                frame, codec, span, request, sub_requests, False
            )
            return response
        shard = shards[0]
        if cache is not None:
            cache.note_mutation(kind, shard)
            if kind == "search":
                return await self._serve_cached(
                    frame,
                    codec,
                    span,
                    shards,
                    lambda: self._dispatch(
                        shard, frame, codec, span, observe
                    ),
                )
        if kind in _BROADCAST_KINDS:
            return await self._broadcast(frame, codec, span, shard)
        response, _ = await self._dispatch(shard, frame, codec, span)
        return response

    # -- hot-query fast lane -------------------------------------------------

    def _observe_result_cache(self, outcome: str) -> None:
        assert self._result_cache is not None
        if self._obs is None:
            return
        self._obs.metrics.counter(
            f"repro_result_cache_{outcome}_total", layer="frontend"
        ).inc()
        self._obs.metrics.gauge(
            "repro_result_cache_resident_bytes", layer="frontend"
        ).set(float(self._result_cache.resident_bytes))

    def _emit_cached_observations(self, observations, span) -> None:
        """Replay fill-time observations for a front-end cache hit.

        A hit never reaches a worker, so the worker's leakage log
        cannot see it; the front end records the same search/access
        pattern tuples into its own log instead, keeping the merged
        cluster artifact's counts exact (every answered query is one
        observation, coalesced followers included).
        """
        if self._obs is None:
            return
        trace_id = span.trace_id if self._tracer.enabled else 0
        for address, matched, returned in observations:
            self._obs.leakage.record(
                address,
                matched_file_ids=matched,
                returned_file_ids=returned,
                trace_id=trace_id,
            )

    async def _serve_cached(
        self,
        frame: bytes,
        codec: str,
        span,
        shards: tuple[int, ...],
        serve: Callable[[], Awaitable[tuple[bytes, tuple]]],
    ) -> bytes:
        """The fast lane: cache lookup, then single-flight, then fill.

        ``serve`` runs the frame's worker round trip, capturing the
        observations a later hit replays (none without a leakage
        log); ``shards`` are the shards the response depends on.
        """
        cache = self._result_cache
        assert cache is not None
        key = ResultCache.key_for(codec, frame)
        # Single-flight first: while a leader is in flight the cache
        # holds no fresh entry for this key (the leader writes the
        # entry and leaves the map with no ``await`` in between), so
        # a follower never misses a hit by checking here, and a
        # follower's lookup never skews the cache's miss counter.
        leader = self._single_flight.get(key)
        if leader is not None:
            # Single-flight: an identical request is already in
            # flight; await its shared round trip instead of adding
            # another.  ``shield`` keeps a follower's cancellation
            # from killing the leader's future mid-fill.
            cache.note_coalesced()
            self._observe_result_cache("coalesced")
            try:
                response, observations = await asyncio.shield(leader)
            except asyncio.CancelledError:
                if not leader.cancelled():
                    raise  # this follower itself was cancelled
                # The leader was torn down without a result (its
                # connection died); serve independently.
                return await self._fill(shards, key, None, serve)
            except Exception:  # noqa: BLE001 — degrade to own dispatch
                return await self._fill(shards, key, None, serve)
            self._emit_cached_observations(observations, span)
            if self._tracer.enabled:
                span.set(cache="coalesced")
            return response
        entry = cache.get(key)
        if entry is not None:
            self._observe_result_cache("hits")
            self._emit_cached_observations(entry.payload, span)
            if self._tracer.enabled:
                span.set(cache="hit")
            return entry.frame
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        self._single_flight[key] = future
        try:
            return await self._fill(shards, key, future, serve)
        finally:
            if self._single_flight.get(key) is future:
                del self._single_flight[key]
            if not future.done():
                future.cancel()

    async def _fill(
        self,
        shards: tuple[int, ...],
        key: tuple[str, bytes],
        future: asyncio.Future | None,
        serve: Callable[[], Awaitable[tuple[bytes, tuple]]],
    ) -> bytes:
        """One worker round trip that (on success) populates the cache.

        Epoch stamps are taken *before* dispatch, so a mutation racing
        this fill invalidates the entry before it is even written.
        Error responses are never cached and never resolve followers
        (the leader's future is cancelled instead, and each follower
        retries independently).
        """
        cache = self._result_cache
        assert cache is not None
        self._observe_result_cache("misses")
        stamps = cache.stamp(shards)
        response, observations = await serve()
        try:
            failed = peek_kind(response) == "error"
        except ProtocolError:  # pragma: no cover — defensive
            failed = True
        if not failed:
            cache.put(key, stamps, response, payload=observations)
            if future is not None and not future.done():
                future.set_result((response, observations))
        return response

    async def _dispatch(
        self,
        shard: int,
        frame: bytes,
        codec: str,
        span,
        observe: bool = False,
    ) -> tuple[bytes, tuple]:
        """One breaker-guarded worker call; failures become bytes.

        Returns the response and, with ``observe``, the leakage
        observations the call appended to the worker's server log:
        the frame then travels in an :class:`ObservedRequest` envelope
        (inside the tracing envelope, when tracing is on) and the
        worker answers with an :class:`ObservedResponse`.  Error bytes
        come back with no observations.
        """
        handle = self._workers[shard]
        if self._tracer.enabled:
            span.set(shard=shard)
        if not handle.breaker.allow():
            return ErrorResponse(
                code="ShardDownError",
                detail=(
                    f"shard {shard}: circuit open "
                    "(awaiting half-open probe)"
                ),
                shard=shard,
            ).to_bytes(codec), ()
        payload = frame
        if observe:
            payload = ObservedRequest(payload=frame).to_bytes(CODEC_BINARY)
        if self._tracer.enabled:
            # Cross-process trace propagation: the worker unwraps the
            # envelope and parents its ``server.handle`` span under
            # this request's span, so the merged cluster artifact
            # shows one stitched tree per query.  Responses travel
            # unwrapped (ids only flow down), and with obs off the
            # worker sees the exact client frame — byte-identity
            # between obs on/off is asserted by the loopback suite.
            payload = TracedRequest(
                trace_id=span.trace_id,
                span_id=span.span_id,
                payload=payload,
            ).to_bytes(CODEC_BINARY)
        try:
            ok, response, worker_us, packed = await handle.call(payload)
        except ShardDownError as exc:
            handle.breaker.record_failure()
            return ErrorResponse(
                code="ShardDownError", detail=str(exc), shard=shard
            ).to_bytes(codec), ()
        # A server-side error means the worker *served* the request
        # (the request was bad, not the shard): breaker success.
        handle.breaker.record_success()
        if not ok:
            code, _, detail = packed.partition("\x00")
            return ErrorResponse(
                code=code, detail=detail, shard=shard
            ).to_bytes(codec), ()
        if self._tracer.enabled:
            span.set(worker_us=worker_us)
        if observe:
            envelope = ObservedResponse.from_bytes(response)
            return envelope.payload, envelope.observations
        return response, ()

    async def _fan_out(
        self,
        frame: bytes,
        codec: str,
        span,
        request: MultiSearchRequest,
        sub_requests: dict[int, MultiSearchRequest],
        observe: bool,
    ) -> tuple[bytes, tuple]:
        """Coordinate one multi-search across shard workers.

        Mirrors :meth:`ClusterServer._multi_fanout` over pipes: a
        query owned by one shard is forwarded whole; otherwise every
        owning shard gets its partial sub-request concurrently
        (``asyncio.gather``) and :func:`finish_multi_search` merges
        the partial aggregates under the identical tie-break, with
        blobs from the front end's replica of the store (kept current
        by :meth:`_broadcast`).  A failed shard fails the whole query
        — its error travels back as the response, shard id included,
        because a conjunctive intersection (or disjunctive sum)
        missing a shard's terms would be silently wrong rather than
        merely partial.  With ``observe`` the concatenated
        observations (sorted shard order, worker order within a
        shard) ride back for the result cache to replay on later
        hits; the response bytes are identical either way.
        """
        if self._tracer.enabled:
            span.set(
                mode=request.mode,
                terms=len(request.trapdoors),
                fanout=len(sub_requests),
            )
        if len(sub_requests) == 1:
            shard = next(iter(sub_requests))
            return await self._dispatch(shard, frame, codec, span, observe)
        outcomes = await asyncio.gather(
            *(
                self._dispatch(
                    shard, sub_request.to_bytes(codec), codec, span, observe
                )
                for shard, sub_request in sorted(sub_requests.items())
            )
        )
        partials = []
        for response, _ in outcomes:
            if peek_kind(response) == "error":
                return response, ()
            partials.append(MultiSearchResponse.from_bytes(response).matches)
        observations = tuple(
            observation
            for _, captured in outcomes
            for observation in captured
        )
        return (
            finish_multi_search(partials, request, codec, self._blobs),
            observations,
        )

    def _apply_blob_mutation(self, frame: bytes) -> None:
        """Mirror an acked blob mutation into the front end's store.

        Workers hold fork-time replicas that broadcasts keep current;
        the parent's copy must track them too, because the
        multi-search coordinator attaches blobs from it.  Idempotent,
        like the worker-side handlers.
        """
        from repro.cloud.updates import PutBlobRequest, RemoveBlobRequest

        kind = peek_kind(frame)
        if kind == "put-blob":
            put = PutBlobRequest.from_bytes(frame)
            if self._blobs.get_optional(put.file_id) is None:
                self._blobs.put(put.file_id, put.blob)
        else:
            remove = RemoveBlobRequest.from_bytes(frame)
            if remove.file_id in self._blobs:
                self._blobs.delete(remove.file_id)

    async def _broadcast(
        self, frame: bytes, codec: str, span, owner: int
    ) -> bytes:
        """Apply a blob mutation on every worker (replicated stores).

        The response returned to the client is the *owning* shard's
        (the same shard the in-process cluster would route to), so a
        networked ack is byte-identical to the reference.  Handlers
        are deterministic, so live workers all produce that same ack;
        dead workers are already failing their own searches and are
        skipped by their breakers.
        """
        results = await asyncio.gather(
            *(
                self._dispatch(shard, frame, codec, span)
                for shard in range(self._sharded.num_shards)
            )
        )
        response, _ = results[owner]
        if peek_kind(response) == "ack":
            self._apply_blob_mutation(frame)
        return response

    # -- telemetry plane ----------------------------------------------------

    async def _admin(self, frame: bytes, codec: str) -> bytes:
        """Serve one ``admin`` request (already exempt from admission)."""
        try:
            request = AdminRequest.from_bytes(frame)
        except ReproError as exc:
            return ErrorResponse(
                code=type(exc).__name__, detail=str(exc)
            ).to_bytes(codec)
        if self._obs is None:
            return ErrorResponse(
                code="ParameterError",
                detail="observability is disabled on this server",
            ).to_bytes(codec)
        if request.section == "prometheus":
            payload = (await self._cluster_dump_text()).encode("utf-8")
        elif request.section == "jsonl":
            payload = (await self._cluster_jsonl_text()).encode("utf-8")
        else:
            payload = json.dumps(
                await self._health_view(), sort_keys=True, indent=2
            ).encode("utf-8")
        return AdminResponse(payload=payload).to_bytes(codec)

    async def _collect_worker_dumps(self) -> list[tuple[str, ObsDump]]:
        """Fetch each live worker's obs artifact over its pipe.

        Sequential in shard order — scrapes are rare, and determinism
        beats latency here — and via :meth:`_WorkerHandle.call`
        *directly*: no breaker interaction, no span, no request
        counter, so a scrape never perturbs the state it reports.
        (The worker side serves ``obs-snapshot`` before its own
        span/counter instrumentation for the same reason.)  Dead
        workers are skipped; their absence shows in the breaker
        gauges, not as a scrape failure.
        """
        request = ObsSnapshotRequest().to_bytes(CODEC_BINARY)
        dumps: list[tuple[str, ObsDump]] = []
        for handle in self._workers:
            try:
                ok, response, _, _ = await handle.call(request)
            except ShardDownError:
                continue
            if not ok:
                continue
            artifact = ObsSnapshotResponse.from_bytes(response).artifact
            dumps.append(
                (str(handle.shard), load_jsonl(artifact.decode("utf-8")))
            )
        return dumps

    def _publish_breaker_gauges(self) -> None:
        """Refresh ``repro_net_breaker_state{worker=...}`` gauges.

        Published at scrape time (breakers already hold their own
        authoritative state; mirroring it on every call would just be
        a second copy to keep coherent).  Encoding: closed=0,
        half-open=1, open=2.
        """
        assert self._obs is not None
        for handle in self._workers:
            snapshot = handle.breaker.snapshot()
            self._obs.metrics.gauge(
                "repro_net_breaker_state", worker=str(handle.shard)
            ).set(BREAKER_STATE_VALUES[snapshot.state])

    async def _cluster_dump(self) -> ObsDump:
        """The merged cluster-wide view: front end plus every worker.

        Front-end records carry ``worker="frontend"``; each shard's
        carry its shard number.  Span ids are already disjoint by
        construction (:data:`_WORKER_ID_STRIDE`), so the merged trace
        section holds one stitched tree per query.
        """
        assert self._obs is not None
        self._publish_breaker_gauges()
        labeled: list[tuple[str, ObsDump]] = [
            ("frontend", load_jsonl(self._obs.export_jsonl()))
        ]
        labeled.extend(await self._collect_worker_dumps())
        return merge_dumps(labeled)

    async def _health_view(self) -> dict:
        """JSON health section: shard/breaker state plus slow queries.

        Deliberately excludes anything host- or run-specific (pids,
        ports, clock readings) so two scrapes of the same logical
        state are byte-identical.
        """
        assert self._obs is not None
        workers = {}
        for handle in self._workers:
            snapshot = handle.breaker.snapshot()
            workers[str(handle.shard)] = {
                "alive": handle.alive,
                "breaker": {
                    "state": snapshot.state,
                    "consecutive_failures": snapshot.consecutive_failures,
                    "times_opened": snapshot.times_opened,
                    "probes": snapshot.probes,
                    "suppressed_calls": snapshot.suppressed_calls,
                },
            }
        metrics = self._obs.metrics.snapshot()
        dump = await self._cluster_dump()
        slow = [
            entry.as_dict() for entry in dump.slow[-_HEALTH_SLOW_QUERIES:]
        ]
        result_cache: dict = {"enabled": self._result_cache is not None}
        if self._result_cache is not None:
            result_cache.update(self._result_cache.stats())
        return {
            "num_shards": self._sharded.num_shards,
            "connections": metrics.value("repro_net_connections"),
            "inflight": self._inflight,
            "overload_rejections": metrics.value(
                "repro_net_overload_rejections_total"
            ),
            "result_cache": result_cache,
            "workers": workers,
            "slow_queries": slow,
        }

    def _run_admin(self, factory):
        """Run one admin coroutine on the serving loop, synchronously.

        Takes a factory (not a coroutine) so the guard clauses below
        can reject before anything awaitable is created.
        """
        if self._obs is None:
            raise ParameterError(
                "observability is disabled on this server (obs=None)"
            )
        if self._loop is None or not self._started or self._closed:
            raise ParameterError("server is not running")
        future = asyncio.run_coroutine_threadsafe(factory(), self._loop)
        return future.result(timeout=30.0)

    def scrape(self) -> str:
        """Merged cluster-wide Prometheus exposition text.

        Covers the front end's instruments (connections, in-flight,
        request/overload counters, breaker-state gauges) *and* every
        worker's (search counters, cache hits, leakage totals), the
        latter labeled ``worker="<shard>"`` — the same text the
        ``admin``/``prometheus`` wire request returns.
        """
        return self._run_admin(self._cluster_dump_text)

    async def _cluster_dump_text(self) -> str:
        dump = await self._cluster_dump()
        return render_prometheus(MetricsSnapshot(points=dump.metrics))

    def export_cluster_jsonl(self) -> str:
        """Merged cluster-wide JSONL artifact (spans/metrics/leakage).

        One stitched span tree per query across the process boundary;
        every record labeled with its originating process.  The text
        round-trips through :func:`repro.obs.load_jsonl` and passes
        ``scripts/check_trace_schema.py``.
        """
        return self._run_admin(self._cluster_jsonl_text)

    async def _cluster_jsonl_text(self) -> str:
        return dump_jsonl(await self._cluster_dump())

    def health(self) -> dict:
        """The admin ``health`` section as a dict (see :meth:`_health_view`)."""
        return self._run_admin(self._health_view)


#: ``ErrorResponse.code`` values that a NetworkChannel re-raises as the
#: matching :mod:`repro.errors` class (anything else degrades to
#: :class:`~repro.errors.TransportError`).
def _exception_for(code: str, detail: str) -> ReproError:
    candidate = getattr(repro.errors, code, None)
    if isinstance(candidate, type) and issubclass(candidate, ReproError):
        return candidate(detail or code)
    return TransportError(f"{code}: {detail}")


class NetworkChannel:
    """A real-socket drop-in for :class:`~repro.cloud.network.Channel`.

    Satisfies :class:`~repro.cloud.network.Transport` — one blocking
    :meth:`call` per round trip plus the standard
    :class:`~repro.cloud.network.ChannelStats` accounting — so
    :class:`~repro.cloud.user.DataUser`,
    :class:`~repro.cloud.retry.RetryingChannel`, and
    :class:`~repro.cloud.updates.RemoteIndexMaintainer` work over
    loopback (or a LAN) without modification.  The connection is
    persistent and lazily established; any socket-level failure tears
    it down and surfaces as the matching
    :class:`~repro.errors.TransportError` subclass, and the next call
    reconnects from a clean frame boundary.

    :class:`~repro.cloud.protocol.ErrorResponse` payloads are
    *protocol*, not data: they re-raise client-side as the exception
    class they name, so error semantics match the in-process channel
    (a dead shard raises :class:`~repro.errors.ShardDownError` either
    way).

    Parameters
    ----------
    host / port:
        The :class:`NetServer` to dial.
    timeout_s:
        Socket timeout per blocking operation; an expiry raises
        :class:`~repro.errors.CallTimeoutError` (retryable).
    codec:
        Optional descriptive codec label (mirrors ``Channel``).
    max_frame_bytes:
        Frame-size cap for both directions.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 10.0,
        codec: str | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        if timeout_s <= 0:
            raise ParameterError(
                f"timeout_s must be positive, got {timeout_s}"
            )
        self._host = host
        self._port = port
        self._timeout_s = timeout_s
        self._codec = codec
        self._max_frame = max_frame_bytes
        self._stats = ChannelStats()
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._decoder: StreamDecoder | None = None
        # Responses decoded but not yet consumed: one socket read may
        # complete several pipelined frames at once.
        self._frames: deque[bytes] = deque()

    @property
    def stats(self) -> ChannelStats:
        """Traffic counters since construction or last reset."""
        return self._stats

    @property
    def codec(self) -> str | None:
        """The declared wire-codec label (None when unspecified)."""
        return self._codec

    def close(self) -> None:
        """Drop the connection (idempotent; next call reconnects)."""
        with self._lock:
            self._disconnect()

    def __enter__(self) -> "NetworkChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing (all under the channel lock) -------------------------------

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._decoder = None
        self._frames.clear()

    def _ensure_connected(self) -> socket.socket:
        if self._sock is None:
            try:
                sock = socket.create_connection(
                    (self._host, self._port), timeout=self._timeout_s
                )
            except socket.timeout as exc:
                raise CallTimeoutError(
                    f"connect to {self._host}:{self._port} timed out"
                ) from exc
            except OSError as exc:
                raise CallDroppedError(
                    f"connect to {self._host}:{self._port} failed: {exc}"
                ) from exc
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._decoder = StreamDecoder(self._max_frame)
        return self._sock

    def _send_frames(self, requests: Sequence[bytes]) -> None:
        sock = self._ensure_connected()
        try:
            sock.sendall(
                b"".join(
                    encode_frame(request, self._max_frame)
                    for request in requests
                )
            )
        except socket.timeout as exc:
            self._disconnect()
            raise CallTimeoutError("send timed out") from exc
        except OSError as exc:
            self._disconnect()
            raise CallDroppedError(f"send failed: {exc}") from exc

    def _recv_frame(self) -> bytes:
        if self._frames:
            return self._frames.popleft()
        sock = self._sock
        decoder = self._decoder
        assert sock is not None and decoder is not None
        while not self._frames:
            try:
                chunk = sock.recv(65536)
            except socket.timeout as exc:
                self._disconnect()
                raise CallTimeoutError(
                    f"no response within {self._timeout_s}s"
                ) from exc
            except OSError as exc:
                self._disconnect()
                raise CallDroppedError(f"receive failed: {exc}") from exc
            if not chunk:
                self._disconnect()
                raise CallDroppedError("server closed the connection")
            try:
                self._frames.extend(decoder.feed(chunk))
            except ProtocolError as exc:
                # The stream is desynchronized; only a fresh
                # connection restores a frame boundary.
                self._disconnect()
                raise CorruptedResponseError(
                    f"response framing violated: {exc}"
                ) from exc
        return self._frames.popleft()

    @staticmethod
    def _raise_if_error(response: bytes) -> bytes:
        try:
            is_error = peek_kind(response) == "error"
        except ProtocolError:
            is_error = False
        if is_error:
            error = ErrorResponse.from_bytes(response)
            raise _exception_for(error.code, error.detail)
        return response

    # -- Transport surface ---------------------------------------------------

    def call(self, request: bytes) -> bytes:
        """Send ``request``, return the server's response (one RTT).

        Accounting mirrors the in-process channel exactly: a call that
        raises (socket failure *or* an error response) counts as a
        ``failed_calls`` tick and never as response traffic.
        """
        with self._lock:
            self._stats.record_request(len(request))
            try:
                self._send_frames([request])
                response = self._raise_if_error(self._recv_frame())
            except Exception:
                self._stats.record_failure()
                raise
            self._stats.record_response(len(response))
            return response

    def admin(self, section: str) -> bytes:
        """Fetch one admin section over the wire (binary codec).

        ``section`` is one of
        :data:`~repro.cloud.protocol.ADMIN_SECTIONS` —
        ``"prometheus"`` (exposition text), ``"jsonl"`` (the merged
        cluster artifact), or ``"health"`` (a JSON document).  The
        server answers out of band — no admission control, no tracing
        — so a scrape works even while data requests are being shed.
        Raises :class:`~repro.errors.ParameterError` when the server
        runs with observability disabled.
        """
        request = AdminRequest(section=section).to_bytes(CODEC_BINARY)
        response = self.call(request)
        return AdminResponse.from_bytes(response).payload

    def call_many(self, requests: Iterable[bytes]) -> list[bytes]:
        """Serve a batch over one pipelined exchange.

        All requests go out back-to-back before the first response is
        read — one flush, one queue transit per direction — and the
        server's per-connection ordering guarantee puts responses back
        in request order.  If any request failed, the whole batch is
        still drained (keeping the stream synchronized) and the
        earliest-position exception is raised, matching
        :meth:`~repro.cloud.cluster.ClusterServer.handle_many`.
        """
        batch = list(requests)
        if not batch:
            return []
        with self._lock:
            outcomes = self._pipelined(batch)
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return [
            outcome for outcome in outcomes if isinstance(outcome, bytes)
        ]

    def call_many_resilient(
        self, requests: Iterable[bytes]
    ) -> PartialResult:
        """Pipelined batch with the cluster's graceful-degradation contract.

        Transport failures (a dead shard's
        :class:`~repro.cloud.protocol.ErrorResponse`, an overload
        rejection) are reported per-position in a
        :class:`~repro.cloud.cluster.PartialResult` — shard ids taken
        from the error payload (``-1`` when the server could not name
        one) — while healthy responses come back normally.
        Non-transport failures (socket loss mid-batch, protocol
        violations) still raise: they cannot be attributed to a shard.
        """
        batch = list(requests)
        with self._lock:
            outcomes = self._pipelined(batch, keep_shards=True)
        responses: list[bytes | None] = []
        failures: list[tuple[int, int, str]] = []
        for position, outcome in enumerate(outcomes):
            if isinstance(outcome, bytes):
                responses.append(outcome)
                continue
            if isinstance(outcome, tuple):
                exc, shard = outcome
                responses.append(None)
                failures.append((position, shard, type(exc).__name__))
                continue
            raise outcome
        return PartialResult(
            responses=tuple(responses),
            missing_shards=tuple(
                sorted({shard for _, shard, _ in failures})
            ),
            failures=tuple(failures),
        )

    def _pipelined(
        self, batch: Sequence[bytes], keep_shards: bool = False
    ) -> list:
        """Send a batch, collect per-position outcomes in order.

        Each outcome is response bytes, an exception, or (with
        ``keep_shards``, for transport failures only)
        ``(exception, shard id)``.  Socket-level failures abort the
        exchange: every unanswered position gets the same exception,
        and the connection is already torn down for reconnection.
        """
        for request in batch:
            self._stats.record_request(len(request))
        outcomes: list = []
        try:
            self._send_frames(batch)
        except TransportError as exc:
            self._stats.record_failure()
            return [exc] * len(batch)
        for _ in batch:
            try:
                response = self._recv_frame()
            except TransportError as exc:
                # The stream is gone; everything unanswered fails the
                # same way.
                failed = len(batch) - len(outcomes)
                for _ in range(failed):
                    self._stats.record_failure()
                outcomes.extend([exc] * failed)
                break
            try:
                is_error = peek_kind(response) == "error"
            except ProtocolError:
                is_error = False
            if not is_error:
                self._stats.record_response(len(response))
                outcomes.append(response)
                continue
            self._stats.record_failure()
            error = ErrorResponse.from_bytes(response)
            exc = _exception_for(error.code, error.detail)
            if keep_shards and isinstance(exc, TransportError):
                outcomes.append(
                    (exc, error.shard if error.shard is not None else -1)
                )
            else:
                outcomes.append(exc)
        return outcomes
