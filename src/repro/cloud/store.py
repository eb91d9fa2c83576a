"""Packed on-disk posting-list storage engine.

The in-memory :class:`~repro.core.secure_index.SecureIndex` keeps every
encrypted posting entry as a Python ``bytes`` object in a dict of lists
— perfect for the deterministic reference path, but each entry pays
tens of bytes of object overhead and the whole index must be resident
before the first query.  This module is the scale path: a compact
packed file format whose encoding substrate is the same u32
length-prefixed framing as the binary wire codec
(:mod:`repro.cloud.protocol`), loaded via ``mmap`` with *lazy per-term
decode* — a cold query touches only the bytes of the posting block it
needs, and the decoded list feeds straight into the server's ranked
warm cache (:class:`~repro.cloud.server.CachedPostings`).

File layout (version 1)::

    header (48 bytes)
      magic      "RPKI"   4s
      version             u16   (= 1)
      flags               u16   (bit 0: padded_length present)
      zero_pad_bytes      u32   \\
      file_id_bytes       u32    } EntryLayout geometry
      score_bytes         u32   /
      padded_length       u32   (0 when absent)
      num_lists           u64
      table_offset        u64   (absolute offset of the offset table)
      total_entries       u64
    posting blocks, in ascending address order
      u32 block_length || u32 entry_count || entry_count fixed-width
      encrypted entries (``layout.ciphertext_bytes`` each)
    offset table, one row per list, same order as the blocks
      u16 address_length || address || u64 block_offset || u32 entry_count
    trailer magic "RPKE"  4s

Three access paths share the format:

* :class:`PackedIndexWriter` — streaming writer for address-sorted
  input (constant memory beyond the offset table);
* :class:`SpillingPackWriter` — constant-memory builds from *unsorted*
  input: buffers a bounded run of lists, spills each run sorted to a
  temporary segment file, and merges the sorted runs at close — the
  path that scales index construction past RAM;
* :class:`PackedIndexStore` — the read-only ``mmap`` view (lazy
  per-term decode); :func:`load_packed_index` is its eager non-mmap
  sibling that materializes a plain :class:`SecureIndex` (the
  deterministic dict reference, and the bench's comparison arm).

:class:`PackedStore` stacks mutability on top: an append-only **delta
log** (same framing) absorbs the ``add_list`` / ``replace_list`` /
``append_entries`` calls of the update protocol
(:mod:`repro.cloud.updates`) as op 1 (add), op 2 (replace) and op 3
(append) records — an append record holds only the new entries, so a
one-entry owner append logs one entry, not the whole list — replayed
into an overlay on reload, and :meth:`PackedStore.compact` folds
base + deltas into a fresh packed file.  The class presents the full
server-side ``SecureIndex`` surface, so
:class:`~repro.cloud.server.CloudServer` and
:class:`~repro.cloud.cluster.ClusterServer` host it unchanged.
"""

from __future__ import annotations

import heapq
import mmap
import os
import tempfile
import threading
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.cloud.protocol import encode_frame
from repro.core.secure_index import (
    EntryLayout,
    SecureIndex,
    check_entry_widths,
    fresh_entries,
)
from repro.crypto.symmetric import random_bytes_like_ciphertext
from repro.errors import IndexError_, ParameterError

#: Leading magic of a packed index file.
PACKED_MAGIC = b"RPKI"

#: Trailing magic (truncation sentinel) of a packed index file.
PACKED_TRAILER = b"RPKE"

#: Leading magic of a delta-log file.
DELTA_MAGIC = b"RPKD"

#: Current packed-format version.
PACKED_VERSION = 1

#: Fixed header width in bytes.
HEADER_BYTES = 48

#: Delta-log record operations.
DELTA_ADD = 1
DELTA_REPLACE = 2
DELTA_APPEND = 3

#: Default buffered entries before :class:`SpillingPackWriter` spills
#: a sorted run to disk (bounds builder memory, not corpus size).
DEFAULT_RUN_ENTRIES = 65536

#: Cap on one framed posting block / delta record.  Wider than the
#: wire codec's 16 MB default: a single unpadded posting list over a
#: million-document corpus can legitimately exceed a wire frame.
MAX_BLOCK_BYTES = 2**31 - 1

_FLAG_PADDED = 1


def _pack_header(
    layout: EntryLayout,
    padded_length: int | None,
    num_lists: int,
    table_offset: int,
    total_entries: int,
) -> bytes:
    flags = _FLAG_PADDED if padded_length is not None else 0
    return b"".join(
        (
            PACKED_MAGIC,
            PACKED_VERSION.to_bytes(2, "big"),
            flags.to_bytes(2, "big"),
            layout.zero_pad_bytes.to_bytes(4, "big"),
            layout.file_id_bytes.to_bytes(4, "big"),
            layout.score_bytes.to_bytes(4, "big"),
            (padded_length or 0).to_bytes(4, "big"),
            num_lists.to_bytes(8, "big"),
            table_offset.to_bytes(8, "big"),
            total_entries.to_bytes(8, "big"),
        )
    )


def _parse_header(
    header: bytes,
) -> tuple[EntryLayout, int | None, int, int, int]:
    """Validate + split a header.

    Returns (layout, padded_length, num_lists, table_offset, entries).
    """
    if len(header) < HEADER_BYTES:
        raise IndexError_("packed index header is truncated")
    if header[:4] != PACKED_MAGIC:
        raise IndexError_(
            f"not a packed index (bad magic {header[:4]!r})"
        )
    version = int.from_bytes(header[4:6], "big")
    if version != PACKED_VERSION:
        raise IndexError_(
            f"unsupported packed index version {version} "
            f"(this build reads version {PACKED_VERSION})"
        )
    flags = int.from_bytes(header[6:8], "big")
    try:
        layout = EntryLayout(
            zero_pad_bytes=int.from_bytes(header[8:12], "big"),
            file_id_bytes=int.from_bytes(header[12:16], "big"),
            score_bytes=int.from_bytes(header[16:20], "big"),
        )
    except ParameterError as exc:
        raise IndexError_(f"corrupt packed layout fields: {exc}") from exc
    padded = int.from_bytes(header[20:24], "big")
    padded_length = padded if flags & _FLAG_PADDED else None
    if flags & _FLAG_PADDED and padded < 1:
        raise IndexError_("padded flag set but padded_length is zero")
    num_lists = int.from_bytes(header[24:32], "big")
    table_offset = int.from_bytes(header[32:40], "big")
    total_entries = int.from_bytes(header[40:48], "big")
    return layout, padded_length, num_lists, table_offset, total_entries


def _fsync_directory(path: Path) -> None:
    """Make a rename or unlink inside ``path`` durable."""
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _pad_entries(
    entries: list[bytes], padded_length: int | None, width: int
) -> list[bytes]:
    """The same padding contract as ``SecureIndex.add_list``."""
    if padded_length is None:
        return entries
    if len(entries) > padded_length:
        raise ParameterError(
            f"list of {len(entries)} entries exceeds padded length "
            f"{padded_length}"
        )
    while len(entries) < padded_length:
        entries.append(random_bytes_like_ciphertext(width))
    return entries


class PackedIndexWriter:
    """Streaming writer for address-sorted posting lists.

    Feed lists in strictly ascending address order via
    :meth:`write_list`; blocks stream straight to disk, so resident
    memory is one posting list plus the (small) offset table.  The
    header is back-patched and the table + trailer appended on
    :meth:`close`.
    """

    def __init__(
        self,
        path: str | Path,
        layout: EntryLayout,
        padded_length: int | None = None,
    ):
        if padded_length is not None and padded_length < 1:
            raise ParameterError(
                f"padded_length must be >= 1, got {padded_length}"
            )
        self._path = Path(path)
        self._layout = layout
        self._padded_length = padded_length
        self._file: BinaryIO | None = self._path.open("wb")
        self._file.write(b"\x00" * HEADER_BYTES)
        self._table: list[tuple[bytes, int, int]] = []
        self._previous: bytes | None = None
        self._total_entries = 0

    @property
    def lists_written(self) -> int:
        """Posting lists streamed so far."""
        return len(self._table)

    @property
    def entries_written(self) -> int:
        """Encrypted entries streamed so far (padding included)."""
        return self._total_entries

    def write_list(
        self, address: bytes, encrypted_entries: Iterable[bytes]
    ) -> None:
        """Append one posting block (addresses must strictly ascend)."""
        if self._file is None:
            raise IndexError_("writer is closed")
        if not address or len(address) > 0xFFFF:
            raise ParameterError(
                "address must be 1..65535 bytes"
            )
        if self._previous is not None and address <= self._previous:
            raise IndexError_(
                "packed writer requires strictly ascending addresses "
                f"(got {address.hex()} after {self._previous.hex()})"
            )
        entries = list(encrypted_entries)
        check_entry_widths(self._layout, entries)
        entries = _pad_entries(
            entries, self._padded_length, self._layout.ciphertext_bytes
        )
        offset = self._file.tell()
        payload = len(entries).to_bytes(4, "big") + b"".join(entries)
        self._file.write(encode_frame(payload, MAX_BLOCK_BYTES))
        self._table.append((address, offset, len(entries)))
        self._previous = address
        self._total_entries += len(entries)

    def close(self) -> Path:
        """Flush the table + trailer, back-patch the header; idempotent."""
        if self._file is None:
            return self._path
        table_offset = self._file.tell()
        for address, offset, count in self._table:
            self._file.write(len(address).to_bytes(2, "big"))
            self._file.write(address)
            self._file.write(offset.to_bytes(8, "big"))
            self._file.write(count.to_bytes(4, "big"))
        self._file.write(PACKED_TRAILER)
        self._file.seek(0)
        self._file.write(
            _pack_header(
                self._layout,
                self._padded_length,
                len(self._table),
                table_offset,
                self._total_entries,
            )
        )
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._file = None
        return self._path

    def __enter__(self) -> "PackedIndexWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SpillingPackWriter:
    """Constant-memory packed builds from *unsorted* posting lists.

    Lists arrive in any order via :meth:`add_list`.  At most
    ``run_entries`` encrypted entries are buffered; when the buffer
    fills, the buffered lists are sorted by address and spilled to a
    temporary run file (same block framing as the packed body).  On
    :meth:`close` the sorted runs are k-way merged
    (:func:`heapq.merge`) into a :class:`PackedIndexWriter`, so the
    peak memory of building an index of any size is one run plus one
    posting list — corpora larger than RAM pack in one pass.
    """

    def __init__(
        self,
        path: str | Path,
        layout: EntryLayout,
        padded_length: int | None = None,
        run_entries: int = DEFAULT_RUN_ENTRIES,
        tmp_dir: str | Path | None = None,
    ):
        if run_entries < 1:
            raise ParameterError(
                f"run_entries must be >= 1, got {run_entries}"
            )
        self._path = Path(path)
        self._layout = layout
        self._padded_length = padded_length
        self._run_entries = run_entries
        self._tmp_dir = Path(tmp_dir) if tmp_dir is not None else None
        self._buffer: dict[bytes, list[bytes]] = {}
        self._buffered_entries = 0
        self._runs: list[Path] = []
        self._closed = False

    @property
    def runs_spilled(self) -> int:
        """Sorted run files written so far."""
        return len(self._runs)

    def add_list(
        self, address: bytes, encrypted_entries: Iterable[bytes]
    ) -> None:
        """Buffer one posting list (any address order; padding applied)."""
        if self._closed:
            raise IndexError_("writer is closed")
        if address in self._buffer:
            raise IndexError_("duplicate index address")
        entries = list(encrypted_entries)
        check_entry_widths(self._layout, entries)
        entries = _pad_entries(
            entries, self._padded_length, self._layout.ciphertext_bytes
        )
        self._buffer[address] = entries
        self._buffered_entries += len(entries)
        if self._buffered_entries >= self._run_entries:
            self._spill()

    def _spill(self) -> None:
        if not self._buffer:
            return
        descriptor, name = tempfile.mkstemp(
            prefix="rpk-run-",
            dir=str(self._tmp_dir) if self._tmp_dir is not None else None,
        )
        run_path = Path(name)
        with os.fdopen(descriptor, "wb") as run:
            for address in sorted(self._buffer):
                entries = self._buffer[address]
                run.write(len(address).to_bytes(2, "big"))
                run.write(address)
                run.write(len(entries).to_bytes(4, "big"))
                for entry in entries:
                    run.write(entry)
        self._runs.append(run_path)
        self._buffer = {}
        self._buffered_entries = 0

    def _iter_run(self, run_path: Path) -> Iterator[tuple[bytes, list[bytes]]]:
        width = self._layout.ciphertext_bytes
        with run_path.open("rb") as run:
            while True:
                prefix = run.read(2)
                if not prefix:
                    return
                address = run.read(int.from_bytes(prefix, "big"))
                count = int.from_bytes(run.read(4), "big")
                yield address, [run.read(width) for _ in range(count)]

    def close(self) -> Path:
        """Merge the sorted runs into the final packed file; idempotent."""
        if self._closed:
            return self._path
        self._spill()
        writer = PackedIndexWriter(
            self._path, self._layout, padded_length=self._padded_length
        )
        try:
            merged: Iterable[tuple[bytes, list[bytes]]] = heapq.merge(
                *(self._iter_run(run) for run in self._runs),
                key=lambda item: item[0],
            )
            for address, entries in merged:
                # Runs hold already-padded lists; re-padding is a no-op.
                writer.write_list(address, entries)
        finally:
            writer.close()
            for run_path in self._runs:
                run_path.unlink(missing_ok=True)
            self._runs = []
            self._closed = True
        return self._path

    def __enter__(self) -> "SpillingPackWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def pack_index(index, path: str | Path) -> Path:
    """Pack any index exposing ``layout``/``padded_length``/``items()``.

    Works for :class:`~repro.core.secure_index.SecureIndex`, a
    :class:`~repro.cloud.cluster.ShardedIndex`, or another store —
    ``items()`` already yields in address order, so this streams
    straight through :class:`PackedIndexWriter`.
    """
    with PackedIndexWriter(
        path, index.layout, padded_length=index.padded_length
    ) as writer:
        for address, entries in index.items():
            writer.write_list(address, entries)
    return Path(path)


def load_packed_index(path: str | Path) -> SecureIndex:
    """Eagerly materialize a packed file as an in-memory dict index.

    The deterministic reference arm: sequential buffered reads, no
    ``mmap``, every entry decoded into its own ``bytes`` object — the
    memory shape the packed format exists to avoid, kept loadable so
    equivalence (and the storage bench's resident-memory comparison)
    can always be re-checked against the same on-disk bytes.
    """
    path = Path(path)
    with path.open("rb") as packed:
        layout, padded_length, num_lists, table_offset, _ = _parse_header(
            packed.read(HEADER_BYTES)
        )
        size = path.stat().st_size
        table = _read_table(packed, size, num_lists, table_offset)
        index = SecureIndex(layout, padded_length=padded_length)
        width = layout.ciphertext_bytes
        for address, offset, count in table:
            packed.seek(offset)
            block = packed.read(8 + count * width)
            _check_block(block, count, width, address)
            index._tree.insert(
                address,
                [
                    block[8 + position * width : 8 + (position + 1) * width]
                    for position in range(count)
                ],
            )
    return index


def _read_table(
    packed: BinaryIO, size: int, num_lists: int, table_offset: int
) -> list[tuple[bytes, int, int]]:
    """Read + bounds-check the offset table of an open packed file."""
    if size < HEADER_BYTES + len(PACKED_TRAILER):
        raise IndexError_("packed index file is truncated")
    if not HEADER_BYTES <= table_offset <= size - len(PACKED_TRAILER):
        raise IndexError_("packed index table offset out of bounds")
    packed.seek(table_offset)
    raw = packed.read(size - table_offset)
    if raw[-4:] != PACKED_TRAILER:
        raise IndexError_(
            "packed index trailer missing (truncated or corrupt file)"
        )
    raw = raw[:-4]
    table: list[tuple[bytes, int, int]] = []
    cursor = 0
    previous: bytes | None = None
    for _ in range(num_lists):
        if cursor + 2 > len(raw):
            raise IndexError_("packed index table is truncated")
        address_length = int.from_bytes(raw[cursor : cursor + 2], "big")
        cursor += 2
        end = cursor + address_length + 12
        if address_length == 0 or end > len(raw):
            raise IndexError_("packed index table is truncated")
        address = raw[cursor : cursor + address_length]
        cursor += address_length
        offset = int.from_bytes(raw[cursor : cursor + 8], "big")
        count = int.from_bytes(raw[cursor + 8 : cursor + 12], "big")
        cursor += 12
        if previous is not None and address <= previous:
            raise IndexError_("packed index table addresses not ascending")
        if not HEADER_BYTES <= offset < table_offset:
            raise IndexError_("packed block offset out of bounds")
        previous = address
        table.append((address, offset, count))
    if cursor != len(raw):
        raise IndexError_("trailing bytes after packed index table")
    return table


def _check_block(
    block: bytes, count: int, width: int, address: bytes
) -> None:
    if len(block) != 8 + count * width:
        raise IndexError_(
            f"posting block for {address.hex()} is truncated"
        )
    length = int.from_bytes(block[:4], "big")
    stored = int.from_bytes(block[4:8], "big")
    if length != 4 + count * width or stored != count:
        raise IndexError_(
            f"posting block for {address.hex()} disagrees with the "
            "offset table (corrupt file)"
        )


class PackedIndexStore:
    """Read-only ``mmap`` view of a packed index file.

    Opening parses the header and the per-term offset table (small:
    one row per keyword, no entry bytes); posting blocks stay on disk
    until :meth:`lookup` slices exactly one of them out of the map —
    the lazy per-term decode that keeps resident memory proportional
    to the queried working set, not the corpus.

    Presents the server-side ``SecureIndex`` read surface (``layout``,
    ``padded_length``, ``lookup``, ``items``, ``num_lists``,
    ``size_bytes``, ``average_list_size_bytes``).
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._file = self._path.open("rb")
        try:
            (
                self._layout,
                self._padded_length,
                num_lists,
                self._table_offset,
                self._total_entries,
            ) = _parse_header(self._file.read(HEADER_BYTES))
            size = self._path.stat().st_size
            table = _read_table(
                self._file, size, num_lists, self._table_offset
            )
            counted = sum(count for _, _, count in table)
            if counted != self._total_entries:
                raise IndexError_(
                    f"header promises {self._total_entries} entries, "
                    f"table holds {counted}"
                )
            self._addresses = [address for address, _, _ in table]
            self._blocks = {
                address: (offset, count)
                for address, offset, count in table
            }
            self._mmap: mmap.mmap | None = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
            if hasattr(mmap, "MADV_RANDOM"):
                # Point lookups, not scans: without this the kernel's
                # readahead pages in ~128 KB around every cold fault,
                # dragging most of the file into RSS and defeating the
                # working-set-proportional memory story.
                self._mmap.madvise(mmap.MADV_RANDOM)
        except Exception:
            self._file.close()
            raise

    # -- geometry ----------------------------------------------------------

    @property
    def path(self) -> Path:
        """The backing packed file."""
        return self._path

    @property
    def layout(self) -> EntryLayout:
        """The entry geometry."""
        return self._layout

    @property
    def padded_length(self) -> int | None:
        """``nu`` when padding is enabled, else None."""
        return self._padded_length

    @property
    def num_lists(self) -> int:
        """Number of posting lists."""
        return len(self._addresses)

    @property
    def total_entries(self) -> int:
        """Total encrypted entries across all blocks."""
        return self._total_entries

    # -- read surface ------------------------------------------------------

    def addresses(self) -> Iterator[bytes]:
        """All addresses in ascending order (no block bytes touched)."""
        return iter(self._addresses)

    def __contains__(self, address: bytes) -> bool:
        return address in self._blocks

    def lookup(self, address: bytes) -> list[bytes] | None:
        """Decode exactly one posting block out of the map (or None)."""
        located = self._blocks.get(address)
        if located is None:
            return None
        if self._mmap is None:
            raise IndexError_("packed store is closed")
        offset, count = located
        width = self._layout.ciphertext_bytes
        block = self._mmap[offset : offset + 8 + count * width]
        _check_block(block, count, width, address)
        return [
            block[8 + position * width : 8 + (position + 1) * width]
            for position in range(count)
        ]

    def items(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """All lists in address order, each block decoded on demand."""
        for address in self._addresses:
            entries = self.lookup(address)
            assert entries is not None
            yield address, entries

    def size_bytes(self) -> int:
        """Total ciphertext bytes stored (addresses excluded)."""
        return self._total_entries * self._layout.ciphertext_bytes

    def average_list_size_bytes(self) -> float:
        """Mean per-keyword list size in bytes."""
        if not self._addresses:
            raise IndexError_("index is empty")
        return self.size_bytes() / len(self._addresses)

    def to_secure_index(self) -> SecureIndex:
        """Materialize the whole file as an in-memory dict index."""
        index = SecureIndex(
            self._layout, padded_length=self._padded_length
        )
        for address, entries in self.items():
            index._tree.insert(address, entries)
        return index

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unmap and close the backing file (idempotent)."""
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
            self._file.close()

    def __enter__(self) -> "PackedIndexStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PackedStore:
    """A mutable, durable index store: ``mmap`` base + delta log.

    The full server-side ``SecureIndex`` surface over a packed base
    file.  Reads go to an in-memory overlay first (lists touched by
    updates since the last compaction), then to the lazy ``mmap``
    base.  Every ``add_list`` / ``replace_list`` / ``append_entries``
    — exactly the calls the update protocol issues — is appended to
    the **delta log** (and fsynced) before the overlay is updated, so
    reopening the store replays the log and recovers every
    acknowledged mutation; :meth:`compact` folds base plus overlay
    into a fresh packed file (written beside, atomically swapped via
    ``os.replace``) and removes the log.

    Delta-log layout::

        magic "RPKD" || u16 version || u16 reserved
        records: u32 record_length
                 || u8 op (1=add, 2=replace, 3=append)
                 || u16 address_length || address
                 || u32 entry_count || entries (fixed width)

    An add or replace record holds the whole list; an append record
    holds only the entries it added.  Replay is idempotent, so a log
    replayed onto a base that already folded it (a crash inside
    :meth:`compact`, between the swap and the log unlink) rebuilds the
    same store: an append skips entries the list already holds
    (:func:`~repro.core.secure_index.fresh_entries`), and an add of an
    address the base holds acts as a replace.

    Mutations are serialized on an internal lock; the hosting
    :class:`~repro.cloud.server.CloudServer` additionally serializes
    whole requests, matching the dict path's concurrency contract.
    """

    def __init__(
        self,
        packed_path: str | Path,
        delta_path: str | Path | None = None,
    ):
        self._packed_path = Path(packed_path)
        self._delta_path = (
            Path(delta_path)
            if delta_path is not None
            else self._packed_path.with_name(
                self._packed_path.name + ".delta"
            )
        )
        self._base = PackedIndexStore(self._packed_path)
        self._overlay: dict[bytes, list[bytes]] = {}
        self._added: set[bytes] = set()
        self._pending_records = 0
        self._lock = threading.Lock()
        self._replay_delta()
        self._delta = self._delta_path.open("ab")

    # -- delta log ---------------------------------------------------------

    def _replay_delta(self) -> None:
        if not self._delta_path.exists():
            return
        raw = self._delta_path.read_bytes()
        if not raw:
            return
        if len(raw) < 8 or raw[:4] != DELTA_MAGIC:
            raise IndexError_(
                f"not a delta log (bad magic in {self._delta_path})"
            )
        version = int.from_bytes(raw[4:6], "big")
        if version != PACKED_VERSION:
            raise IndexError_(
                f"unsupported delta-log version {version}"
            )
        width = self._base.layout.ciphertext_bytes
        cursor = 8
        while cursor < len(raw):
            if cursor + 4 > len(raw):
                raise IndexError_("delta log is truncated (record length)")
            record_length = int.from_bytes(raw[cursor : cursor + 4], "big")
            record = raw[cursor + 4 : cursor + 4 + record_length]
            if len(record) != record_length or record_length < 7:
                raise IndexError_("delta log is truncated (record body)")
            cursor += 4 + record_length
            op = record[0]
            address_length = int.from_bytes(record[1:3], "big")
            address = record[3 : 3 + address_length]
            body = record[3 + address_length :]
            if len(address) != address_length or len(body) < 4:
                raise IndexError_("delta record is malformed")
            count = int.from_bytes(body[:4], "big")
            if len(body) != 4 + count * width:
                raise IndexError_("delta record entry bytes are torn")
            entries = [
                body[4 + position * width : 4 + (position + 1) * width]
                for position in range(count)
            ]
            if op == DELTA_APPEND:
                current = self._current(address)
                if current is None:
                    raise IndexError_("delta append to a missing address")
                self._overlay[address] = current + fresh_entries(
                    current, entries
                )
            elif op in (DELTA_ADD, DELTA_REPLACE):
                if op == DELTA_ADD and address not in self._base:
                    self._added.add(address)
                self._overlay[address] = entries
            else:
                raise IndexError_(f"unknown delta op {op}")
            self._pending_records += 1

    def _append_record(
        self, op: int, address: bytes, entries: list[bytes]
    ) -> None:
        if self._delta.tell() == 0:
            self._delta.write(
                DELTA_MAGIC + PACKED_VERSION.to_bytes(2, "big") + b"\x00\x00"
            )
        record = bytearray()
        record.append(op)
        record += len(address).to_bytes(2, "big")
        record += address
        record += len(entries).to_bytes(4, "big")
        for entry in entries:
            record += entry
        self._delta.write(encode_frame(bytes(record), MAX_BLOCK_BYTES))
        self._delta.flush()
        os.fsync(self._delta.fileno())
        self._pending_records += 1

    def _current(self, address: bytes) -> list[bytes] | None:
        """The list at ``address``: the overlay's, else the base's."""
        overlaid = self._overlay.get(address)
        if overlaid is not None:
            return overlaid
        return self._base.lookup(address)

    @property
    def pending_delta_records(self) -> int:
        """Logged mutations not yet folded by :meth:`compact`."""
        return self._pending_records

    # -- geometry ----------------------------------------------------------

    @property
    def packed_path(self) -> Path:
        """The base packed file."""
        return self._packed_path

    @property
    def delta_path(self) -> Path:
        """The append-only delta log."""
        return self._delta_path

    @property
    def layout(self) -> EntryLayout:
        """The entry geometry."""
        return self._base.layout

    @property
    def padded_length(self) -> int | None:
        """``nu`` when padding is enabled, else None."""
        return self._base.padded_length

    @property
    def num_lists(self) -> int:
        """Posting lists across base + overlay."""
        return self._base.num_lists + len(self._added)

    # -- SecureIndex surface ----------------------------------------------

    def addresses(self) -> Iterator[bytes]:
        """All addresses in ascending order (overlay merged in)."""
        if not self._added:
            return self._base.addresses()
        return iter(
            sorted(set(self._base.addresses()) | self._added)
        )

    def lookup(self, address: bytes) -> list[bytes] | None:
        """Overlay first, then the lazy ``mmap`` base."""
        overlaid = self._overlay.get(address)
        if overlaid is not None:
            return list(overlaid)
        return self._base.lookup(address)

    def __contains__(self, address: bytes) -> bool:
        return address in self._overlay or address in self._base

    def add_list(
        self, address: bytes, encrypted_entries: list[bytes]
    ) -> None:
        """Store a new posting list (logged, padded like the dict path)."""
        with self._lock:
            if address in self:
                raise IndexError_("duplicate index address")
            check_entry_widths(self.layout, encrypted_entries)
            entries = _pad_entries(
                list(encrypted_entries),
                self.padded_length,
                self.layout.ciphertext_bytes,
            )
            self._append_record(DELTA_ADD, address, entries)
            self._overlay[address] = entries
            self._added.add(address)

    def replace_list(
        self, address: bytes, encrypted_entries: list[bytes]
    ) -> None:
        """Replace an existing posting list (logged)."""
        with self._lock:
            if address not in self:
                raise IndexError_("cannot replace a missing address")
            check_entry_widths(self.layout, encrypted_entries)
            entries = list(encrypted_entries)
            self._append_record(DELTA_REPLACE, address, entries)
            self._overlay[address] = entries

    def append_entries(
        self, address: bytes, encrypted_entries: list[bytes]
    ) -> list[bytes]:
        """Append to an existing list, logging only the new entries.

        Entries the list already holds are skipped (a re-sent append
        logs nothing); returns the entries actually appended.
        """
        with self._lock:
            check_entry_widths(self.layout, encrypted_entries)
            current = self._current(address)
            if current is None:
                raise IndexError_("cannot append to a missing address")
            fresh = fresh_entries(current, encrypted_entries)
            if fresh:
                self._append_record(DELTA_APPEND, address, fresh)
                self._overlay[address] = current + fresh
            return fresh

    def items(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """All lists in address order (overlay shadowing the base)."""
        for address in self.addresses():
            entries = self.lookup(address)
            assert entries is not None
            yield address, entries

    def size_bytes(self) -> int:
        """Total ciphertext bytes across base + overlay."""
        width = self.layout.ciphertext_bytes
        total = self._base.size_bytes()
        for address, entries in self._overlay.items():
            total += len(entries) * width
            if address not in self._added:
                base_entries = self._base.lookup(address)
                assert base_entries is not None
                total -= len(base_entries) * width
        return total

    def average_list_size_bytes(self) -> float:
        """Mean per-keyword list size in bytes."""
        if self.num_lists == 0:
            raise IndexError_("index is empty")
        return self.size_bytes() / self.num_lists

    def to_secure_index(self) -> SecureIndex:
        """Materialize base + overlay as an in-memory dict index."""
        index = SecureIndex(self.layout, padded_length=self.padded_length)
        for address, entries in self.items():
            index._tree.insert(address, list(entries))
        return index

    # -- compaction --------------------------------------------------------

    def compact(self) -> int:
        """Fold base + deltas into a fresh packed file; returns records folded.

        Writes the merged index to a sibling temporary file, swaps it
        over the base with ``os.replace`` (atomic on POSIX), removes
        the delta log, and reopens the ``mmap`` — readers of *this*
        store see the same logical contents before and after.  The
        directory is fsynced after the swap and after the removal; a
        crash between the two leaves the folded log beside the new
        base, which replays onto it idempotently (see the class
        docstring).
        """
        with self._lock:
            folded = self._pending_records
            if folded == 0:
                return 0
            compact_path = self._packed_path.with_name(
                self._packed_path.name + ".compact"
            )
            with PackedIndexWriter(
                compact_path, self.layout, padded_length=self.padded_length
            ) as writer:
                for address, entries in self.items():
                    writer.write_list(address, entries)
            self._base.close()
            os.replace(compact_path, self._packed_path)
            _fsync_directory(self._packed_path.parent)
            self._delta.close()
            self._delta_path.unlink(missing_ok=True)
            _fsync_directory(self._delta_path.parent)
            self._delta = self._delta_path.open("ab")
            self._base = PackedIndexStore(self._packed_path)
            self._overlay = {}
            self._added = set()
            self._pending_records = 0
            return folded

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the map and the delta log (idempotent)."""
        self._base.close()
        if not self._delta.closed:
            self._delta.close()

    def __enter__(self) -> "PackedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
