"""The index-update protocol: score dynamics over the wire.

:mod:`repro.core.dynamics` exercises the OPM's update-friendliness on
an in-memory index.  In a deployment, the owner and the server are
separated by a network; this module carries the updates across it:

* typed update messages (append/replace a posting list, put/remove a
  file blob), authenticated by an **update token** shared between
  owner and server at provisioning — search trapdoors must not grant
  write access;
* server-side handling that applies updates: an append to an existing
  list queues the new ciphertexts on its warm search-cache line, a
  replace or a new list invalidates the line;
* :class:`RemoteIndexMaintainer`, the owner-side driver that turns
  "insert/remove this document" into the minimal message sequence —
  still **zero remapped entries** for insertions, now end to end.
"""

from __future__ import annotations

import hmac
import json
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.cloud.network import Transport
from repro.cloud.owner import DataOwner
from repro.cloud.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    FrameReader,
    detect_codec,
    pack_frames,
    require_codec,
)
from repro.cloud.retry import RetryingChannel, RetryPolicy
from repro.core.dynamics import UpdateReport, build_entry, build_list_entries
from repro.core.rsse import EfficientRSSE
from repro.corpus.loader import Document
from repro.crypto.opm import OneToManyOpm
from repro.crypto.stats import MappingStats
from repro.crypto.symmetric import SymmetricCipher
from repro.errors import ParameterError, ProtocolError, TransportError
from repro.obs.trace import NOOP_TRACER

#: Update-list application modes.
UPDATE_MODES = ("append", "replace")


def _encode(kind: str, payload: dict) -> bytes:
    return json.dumps({"kind": kind, **payload}, sort_keys=True).encode(
        "utf-8"
    )


def _decode(data: bytes, expected_kind: str) -> dict:
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed update message: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("update message is not a JSON object")
    if payload.get("kind") != expected_kind:
        raise ProtocolError(
            f"expected {expected_kind!r}, got {payload.get('kind')!r}"
        )
    return payload


@dataclass(frozen=True)
class UpdateListRequest:
    """Owner -> server: modify one posting list."""

    token: bytes
    address: bytes
    entries: tuple[bytes, ...]
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in UPDATE_MODES:
            raise ParameterError(
                f"mode must be one of {UPDATE_MODES}, got {self.mode!r}"
            )

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            fields = [
                self.token,
                self.address,
                len(self.entries).to_bytes(4, "big"),
                *self.entries,
                self.mode.encode("utf-8"),
            ]
            return pack_frames("update-list", fields)
        return _encode(
            "update-list",
            {
                "token": self.token.hex(),
                "address": self.address.hex(),
                "entries": [entry.hex() for entry in self.entries],
                "mode": self.mode,
            },
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "UpdateListRequest":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "update-list")
            token = reader.take()
            address = reader.take()
            count = reader.take_count()
            entries = tuple(reader.take() for _ in range(count))
            mode = reader.take_str()
            reader.expect_end()
            try:
                return cls(
                    token=token,
                    address=address,
                    entries=entries,
                    mode=mode,
                )
            except ParameterError as exc:
                raise ProtocolError(
                    f"malformed update-list fields: {exc}"
                ) from exc
        payload = _decode(data, "update-list")
        try:
            return cls(
                token=bytes.fromhex(payload["token"]),
                address=bytes.fromhex(payload["address"]),
                entries=tuple(
                    bytes.fromhex(entry) for entry in payload["entries"]
                ),
                mode=payload["mode"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed update-list fields: {exc}") from exc


@dataclass(frozen=True)
class PutBlobRequest:
    """Owner -> server: store an encrypted file."""

    token: bytes
    file_id: str
    blob: bytes

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames(
                "put-blob",
                [self.token, self.file_id.encode("utf-8"), self.blob],
            )
        return _encode(
            "put-blob",
            {
                "token": self.token.hex(),
                "file_id": self.file_id,
                "blob": self.blob.hex(),
            },
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "PutBlobRequest":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "put-blob")
            token = reader.take()
            file_id = reader.take_str()
            blob = reader.take()
            reader.expect_end()
            return cls(token=token, file_id=file_id, blob=blob)
        payload = _decode(data, "put-blob")
        try:
            return cls(
                token=bytes.fromhex(payload["token"]),
                file_id=payload["file_id"],
                blob=bytes.fromhex(payload["blob"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed put-blob fields: {exc}") from exc


@dataclass(frozen=True)
class RemoveBlobRequest:
    """Owner -> server: delete an encrypted file."""

    token: bytes
    file_id: str

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames(
                "remove-blob",
                [self.token, self.file_id.encode("utf-8")],
            )
        return _encode(
            "remove-blob",
            {"token": self.token.hex(), "file_id": self.file_id},
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RemoveBlobRequest":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "remove-blob")
            token = reader.take()
            file_id = reader.take_str()
            reader.expect_end()
            return cls(token=token, file_id=file_id)
        payload = _decode(data, "remove-blob")
        try:
            return cls(
                token=bytes.fromhex(payload["token"]),
                file_id=payload["file_id"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed remove-blob fields: {exc}"
            ) from exc


@dataclass(frozen=True)
class AckResponse:
    """Server -> owner: update applied."""

    ok: bool
    detail: str = ""

    def to_bytes(self, codec: str = CODEC_JSON) -> bytes:
        if require_codec(codec) == CODEC_BINARY:
            return pack_frames(
                "ack",
                [
                    b"\x01" if self.ok else b"\x00",
                    self.detail.encode("utf-8"),
                ],
            )
        return _encode("ack", {"ok": self.ok, "detail": self.detail})

    @classmethod
    def from_bytes(cls, data: bytes) -> "AckResponse":
        if detect_codec(data) == CODEC_BINARY:
            reader = FrameReader(data, "ack")
            ok = reader.take() == b"\x01"
            detail = reader.take_str()
            reader.expect_end()
            return cls(ok=ok, detail=detail)
        payload = _decode(data, "ack")
        return cls(
            ok=bool(payload.get("ok")),
            detail=str(payload.get("detail", "")),
        )


def check_token(expected: bytes | None, presented: bytes) -> None:
    """Constant-time update-token verification."""
    if expected is None:
        raise ProtocolError("this server does not accept updates")
    if not hmac.compare_digest(expected, presented):
        raise ProtocolError("invalid update token")


class RemoteIndexMaintainer:
    """Owner-side driver for over-the-wire index updates.

    Parameters
    ----------
    owner:
        The :class:`DataOwner` whose collection was already outsourced
        (must use the efficient scheme; setup must have run, so the
        quantizer scale is fixed).
    channel:
        Transport to the update-accepting server (the in-process
        channel or a :class:`~repro.cloud.netserve.NetworkChannel`).
    update_token:
        The write-authorization secret shared with the server.
    retry_policy:
        Optional :class:`~repro.cloud.retry.RetryPolicy`; when given,
        the channel is wrapped in a
        :class:`~repro.cloud.retry.RetryingChannel` so transient
        transport faults are absorbed before any queueing happens.
        Safe because the server applies updates idempotently.
    queue_on_failure:
        When True, an update that still fails after retries is queued
        locally (and acked as ``"queued"``) instead of raising; call
        :meth:`flush_pending` once the shard recovers to replay the
        queue in order.  New mutations are refused while the queue is
        non-empty, so replay order can never violate per-address
        ordering.
    obs:
        Optional :class:`repro.obs.Obs` bundle: document mutations run
        under ``owner.insert_document`` / ``owner.remove_document``
        root spans with one ``owner.update_term`` child per touched
        posting list, update counters land in the metrics registry,
        and :meth:`publish_opm_stats` mirrors the cumulative OPM work
        counters as gauges.
    codec:
        Wire codec for every update message
        (:data:`~repro.cloud.protocol.CODEC_JSON`, the default, or
        :data:`~repro.cloud.protocol.CODEC_BINARY`).  The server
        mirrors the request codec in its acks, so either works against
        any server.
    """

    def __init__(
        self,
        owner: DataOwner,
        channel: Transport,
        update_token: bytes,
        retry_policy: RetryPolicy | None = None,
        queue_on_failure: bool = False,
        obs=None,
        codec: str = CODEC_JSON,
    ):
        if not isinstance(owner._scheme, EfficientRSSE):
            raise ParameterError(
                "remote updates require the efficient scheme"
            )
        if owner.quantizer is None:
            raise ParameterError(
                "owner has not run setup yet (no quantizer scale)"
            )
        if not update_token:
            raise ParameterError("update token must be non-empty")
        self._owner = owner
        self._scheme: EfficientRSSE = owner._scheme
        self._channel: Transport = (
            RetryingChannel(channel, retry_policy, obs=obs)
            if retry_policy is not None
            else channel
        )
        self._obs = obs
        self._tracer = obs.tracer if obs is not None else NOOP_TRACER
        self._token = bytes(update_token)
        self._codec = require_codec(codec)
        self._file_cipher = SymmetricCipher(owner.file_key)
        self._queue_on_failure = queue_on_failure
        self._pending: deque[bytes] = deque()
        self._pending_lock = threading.Lock()
        # Term -> OPM, reused across updates of the same keyword so its
        # split tree survives between calls.  OPM instances are not
        # thread-safe, so entries are created sequentially *before* a
        # dispatch fans out and each worker then touches only its own
        # term's instance (terms are distinct within a dispatch).
        self._opm_cache: dict[str, OneToManyOpm] = {}

    @property
    def pending_updates(self) -> int:
        """Updates queued behind an unreachable shard."""
        with self._pending_lock:
            return len(self._pending)

    def flush_pending(self) -> int:
        """Replay queued updates in order; returns how many landed.

        Stops (re-raising the transport failure) at the first update
        that still cannot be delivered, leaving it and everything
        behind it queued — replay is FIFO, so per-address ordering is
        preserved across recovery.
        """
        replayed = 0
        while True:
            with self._pending_lock:
                if not self._pending:
                    return replayed
                request_bytes = self._pending[0]
            ack = AckResponse.from_bytes(self._channel.call(request_bytes))
            if not ack.ok:
                raise ProtocolError(
                    f"server rejected queued update: {ack.detail}"
                )
            with self._pending_lock:
                self._pending.popleft()
            replayed += 1
            if self._obs is not None:
                self._obs.metrics.counter(
                    "repro_owner_flush_replayed_total"
                ).inc()

    def _require_no_pending(self) -> None:
        if self.pending_updates:
            raise ProtocolError(
                "updates are queued behind an unreachable shard; call "
                "flush_pending() before issuing new mutations"
            )

    def _observe_mutation(self, kind: str, lists_touched: int) -> None:
        """Count one document mutation + refresh the OPM work gauges."""
        if self._obs is None:
            return
        self._obs.metrics.counter(
            "repro_owner_updates_total", kind=kind
        ).inc()
        self._obs.metrics.counter(
            "repro_owner_lists_touched_total", kind=kind
        ).inc(lists_touched)
        self.publish_opm_stats()

    def publish_opm_stats(self) -> None:
        """Mirror cumulative OPM work counters into the registry.

        Gauges, not counters: each per-term OPM's
        :class:`~repro.crypto.stats.MappingStats` is itself cumulative,
        so the merged view is republished wholesale after every
        mutation (last write wins).
        """
        if self._obs is None or not self._opm_cache:
            return
        merged = MappingStats.merged(
            opm.stats for opm in self._opm_cache.values()
        )
        merged.publish_to(self._obs.metrics, layer="owner")

    def _opms_for(self, terms) -> dict[str, OneToManyOpm]:
        """Materialize the per-term OPMs for a dispatch, sequentially."""
        for term in terms:
            if term not in self._opm_cache:
                self._opm_cache[term] = self._scheme.opm_for_term(
                    self._owner.key, term
                )
        return self._opm_cache

    def _call(self, request_bytes: bytes) -> AckResponse:
        try:
            ack = AckResponse.from_bytes(self._channel.call(request_bytes))
        except TransportError:
            if not self._queue_on_failure:
                raise
            with self._pending_lock:
                self._pending.append(request_bytes)
            if self._obs is not None:
                self._obs.metrics.counter(
                    "repro_owner_queued_total"
                ).inc()
            return AckResponse(ok=True, detail="queued")
        if not ack.ok:
            raise ProtocolError(f"server rejected update: {ack.detail}")
        return ack

    def _dispatch_terms(self, terms, build_request, workers: int) -> None:
        """Send one update message per term, optionally concurrently.

        Per-term messages touch distinct posting lists (distinct
        addresses), so they commute; against a sharded server they land
        on their owning shards in parallel.  Message *construction*
        (trapdoor + entry encryption) happens inside the workers too —
        it reads only immutable key material and the already-mutated
        plaintext index.
        """
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        # The root mutation span is captured here and passed explicitly
        # because pool workers run in threads where thread-local
        # parenting cannot see it.
        parent = self._tracer.current()

        def send(position_term):
            position, term = position_term
            with self._tracer.span(
                "owner.update_term", parent=parent, term_index=position
            ):
                return self._call(build_request(term))

        if workers == 1 or len(terms) <= 1:
            for item in enumerate(terms):
                send(item)
            return
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for ack in pool.map(send, enumerate(terms)):
                assert ack.ok

    def insert_document(
        self, document: Document, workers: int = 1
    ) -> UpdateReport:
        """Insert a document: blob upload + per-keyword appends.

        The blob is uploaded *before* any index entries so a concurrent
        search never matches a file whose payload is missing; the
        per-keyword appends then dispatch on ``workers`` threads.
        (With ``queue_on_failure`` a queued blob weakens that to "a
        search may match a file whose blob is pending" — the search
        path already tolerates a missing blob by dropping the file
        from the response.)
        """
        self._require_no_pending()
        owner = self._owner
        index = owner.plain_index
        with self._tracer.span("owner.insert_document") as span:
            index.add_document(
                document.doc_id, owner.analyzer.analyze(document.text)
            )
            terms = sorted(
                term
                for term in index.vocabulary
                if index.term_frequency(term, document.doc_id) > 0
            )
            span.set(terms=len(terms))
            self._call(
                PutBlobRequest(
                    token=self._token,
                    file_id=document.doc_id,
                    blob=self._file_cipher.encrypt(
                        document.text.encode("utf-8")
                    ),
                ).to_bytes(self._codec)
            )

            opms = self._opms_for(terms)

            def append_request(term: str) -> bytes:
                trapdoor = self._scheme.trapdoor(owner.key, term)
                entry = build_entry(
                    self._scheme, owner.key, index, owner.quantizer,
                    term, document.doc_id, opm=opms[term],
                )
                return UpdateListRequest(
                    token=self._token,
                    address=trapdoor.address,
                    entries=(entry,),
                    mode="append",
                ).to_bytes(self._codec)

            self._dispatch_terms(terms, append_request, workers)
        self._observe_mutation("insert", len(terms))
        return UpdateReport(
            lists_touched=len(terms),
            entries_written=len(terms),
            entries_remapped=0,
        )

    def remove_document(self, doc_id: str, workers: int = 1) -> UpdateReport:
        """Remove a document: per-keyword list rewrites + blob delete.

        The owner recomputes each affected list from its plaintext
        index (minus the removed file) and replaces it wholesale; other
        files' entries are regenerated deterministically, so their OPM
        values are unchanged (no remapping in the paper's sense).  All
        list rewrites complete (on ``workers`` threads) before the blob
        is deleted, so a concurrent search that still matches the file
        can still fetch it.
        """
        self._require_no_pending()
        owner = self._owner
        index = owner.plain_index
        terms = sorted(
            term
            for term in index.vocabulary
            if index.term_frequency(term, doc_id) > 0
        )
        if not terms:
            raise ParameterError(f"document {doc_id!r} is not indexed")
        with self._tracer.span(
            "owner.remove_document", terms=len(terms)
        ):
            index.remove_document(doc_id)

            opms = self._opms_for(terms)

            def replace_request(term: str) -> bytes:
                trapdoor = self._scheme.trapdoor(owner.key, term)
                replacement = tuple(
                    build_list_entries(
                        self._scheme, owner.key, index, owner.quantizer,
                        term,
                        (p.file_id for p in index.posting_list(term)),
                        opm=opms[term],
                    )
                )
                return UpdateListRequest(
                    token=self._token,
                    address=trapdoor.address,
                    entries=replacement,
                    mode="replace",
                ).to_bytes(self._codec)

            self._dispatch_terms(terms, replace_request, workers)
            self._call(
                RemoveBlobRequest(
                    token=self._token, file_id=doc_id
                ).to_bytes(self._codec)
            )
        self._observe_mutation("remove", len(terms))
        return UpdateReport(
            lists_touched=len(terms),
            entries_written=0,
            entries_remapped=0,
            entries_removed=len(terms),
        )
