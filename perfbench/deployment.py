"""A seeded, paper-scale deployment and the server process hosting it.

Everything the server receives is a function of the seed: the corpus
(the generator behind ``generate_corpus``), the scheme and file keys
(derived from the seed, the way ``repro obs demo`` pins its key) and
the encrypted blobs, which take SIV nonces instead of random ones so
that responses, and so the response digest, are byte-stable across
runs.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cloud.cluster import DEFAULT_NUM_SHARDS, ShardedIndex
from repro.cloud.netserve import NetworkChannel
from repro.cloud.owner import DataOwner, Outsourcing
from repro.cloud.persistence import (
    save_outsourcing,
    save_sharded_outsourcing,
)
from repro.cloud.storage import BlobStore
from repro.cloud.updates import RemoteIndexMaintainer
from repro.core import EfficientRSSE
from repro.corpus.generator import RfcCorpusGenerator
from repro.corpus.loader import Document
from repro.crypto.keys import SchemeKey
from repro.crypto.symmetric import SymmetricCipher

#: Paper scale: the 1,000-document subset of Table I and Figs. 4-8.
DOCS = 1000
#: ``generate_corpus``'s vocabulary (about 2,000 indexed terms).
VOCABULARY_SIZE = 2000
#: Inserted documents touch about as many posting lists as a typical
#: corpus document (~263); fixing the band keeps the cost of an insert,
#: which dominates its workload, from swinging with the seed.
INSERT_TERMS = range(240, 291)
SERVE_SCRIPT = Path(__file__).with_name("serve.py")
PSS_METHOD = (
    "sum of the 'Pss:' line of /proc/<pid>/smaps_rollup (smaps when "
    "absent) over the front end and its shard workers"
)


def derive(seed: int, label: str) -> bytes:
    """A 16-byte secret derived from the seed."""
    return hashlib.blake2b(
        f"perfbench-{seed}|{label}".encode(), digest_size=16
    ).digest()


class SivCipher(SymmetricCipher):
    """A file cipher whose default nonce is the plaintext's SIV."""

    def encrypt(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        if nonce is None:
            nonce = self.deterministic_nonce(plaintext)
        return super().encrypt(plaintext, nonce)


class SeededOwner(DataOwner):
    """A data owner whose keys and blob ciphertexts follow from the seed.

    :meth:`setup` is :meth:`DataOwner.setup` with SIV blob encryption;
    it records how long each phase took in :attr:`phases`.
    """

    def __init__(self, seed: int):
        super().__init__(EfficientRSSE())
        params = self._scheme.params
        self._key = SchemeKey(
            x=derive(seed, "x"),
            y=derive(seed, "y"),
            z=derive(seed, "z"),
            domain_size=params.score_levels,
            range_size=params.range_size,
        )
        self._file_key = derive(seed, "file")
        self.update_token = derive(seed, "update-token")
        self.phases: dict[str, float] = {}

    @property
    def scheme(self) -> EfficientRSSE:
        """The efficient scheme this owner runs."""
        return self._scheme

    def setup(self, documents: list[Document]) -> Outsourcing:
        started = time.perf_counter()
        for document in documents:
            self._plain_index.add_document(
                document.doc_id, self._analyzer.analyze(document.text)
            )
        analyzed = time.perf_counter()
        built = self._scheme.build_index(self._key, self._plain_index)
        self._quantizer = built.quantizer
        indexed = time.perf_counter()
        cipher = SivCipher(self._file_key)
        blobs = BlobStore()
        for document in documents:
            blobs.put(
                document.doc_id, cipher.encrypt(document.text.encode("utf-8"))
            )
        self.phases = {
            "analyze_s": analyzed - started,
            "build_index_s": indexed - analyzed,
            "encrypt_blobs_s": time.perf_counter() - indexed,
        }
        return Outsourcing(secure_index=built.secure_index, blob_store=blobs)


class SeededMaintainer(RemoteIndexMaintainer):
    """An owner-side update client whose blob uploads are SIV-encrypted."""

    def __init__(self, owner: SeededOwner, channel, codec: str):
        super().__init__(owner, channel, owner.update_token, codec=codec)
        self._file_cipher = SivCipher(owner.file_key)


@dataclass
class Deployment:
    """One set-up deployment.

    ``outsourcing`` holds the index and blobs as built, in memory: the
    reference server and the in-process tier start from them.
    ``texts`` maps every document id, inserted ones included, to its
    plaintext.
    """

    owner: SeededOwner
    outsourcing: Outsourcing
    root: Path
    phases: dict[str, float]
    generator: RfcCorpusGenerator
    texts: dict[str, str]
    inserted: list[Document] = field(default_factory=list)
    drawn: int = 0

    def insert_document(self, seq: int) -> Document:
        """The owner's ``seq``-th insert: the next generated document
        whose distinct terms fall in :data:`INSERT_TERMS`."""
        while len(self.inserted) <= seq:
            self.drawn += 1
            document = self.generator.generate_document(DOCS + self.drawn)
            terms = set(self.owner.analyzer.analyze(document.text))
            if len(terms) in INSERT_TERMS:
                self.texts[document.doc_id] = document.text
                self.inserted.append(document)
        return self.inserted[seq]


def build(seed: int, root: Path, store: str) -> Deployment:
    """Corpus, index, blobs and the saved deployment, each phase timed."""
    started = time.perf_counter()
    # generate_corpus(DOCS, seed), keeping the generator for inserts.
    generator = RfcCorpusGenerator(vocabulary_size=VOCABULARY_SIZE, seed=seed)
    corpus = generator.generate(DOCS)
    generated = time.perf_counter()
    owner = SeededOwner(seed)
    outsourcing = owner.setup(corpus)
    saving = time.perf_counter()
    if store == "packed":
        save_sharded_outsourcing(
            root,
            ShardedIndex.from_secure_index(
                outsourcing.secure_index, DEFAULT_NUM_SHARDS
            ),
            outsourcing.blob_store,
            "rsse",
            store="packed",
        )
    else:
        save_outsourcing(root, outsourcing, "rsse", store="json")
    phases = {
        "corpus_s": generated - started + owner.phases["analyze_s"],
        "build_index_s": owner.phases["build_index_s"],
        "encrypt_blobs_s": owner.phases["encrypt_blobs_s"],
        "save_s": time.perf_counter() - saving,
    }
    texts = {document.doc_id: document.text for document in corpus}
    return Deployment(owner, outsourcing, root, phases, generator, texts)


def read_pss_kb(pid: int) -> int:
    """One process's proportional set size, in kB (see PSS_METHOD)."""
    path = Path(f"/proc/{pid}/smaps_rollup")
    if not path.exists():
        path = Path(f"/proc/{pid}/smaps")
    return sum(
        int(line.split()[1])
        for line in path.read_text().splitlines()
        if line.startswith("Pss:")
    )


class ServerProcess:
    """``serve.py`` in a child process.

    The front end's event loop and its workers never share the load
    generator's GIL.  The server stops when :meth:`stop` closes its
    stdin.
    """

    def __init__(self, root: Path, token: bytes, obs: bool = False):
        command = [
            sys.executable,
            str(SERVE_SCRIPT),
            "--deployment",
            str(root),
            "--token",
            token.hex(),
        ]
        if obs:
            command.append("--obs")
        self.spawned = time.perf_counter()
        self._process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self._process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError(f"server for {root} exited before serving")
        ready = json.loads(line)
        self.port: int = ready["port"]
        self.pids: list[int] = ready["pids"]
        self.load_s: float = ready["load_s"]

    def channel(self) -> NetworkChannel:
        return NetworkChannel("127.0.0.1", self.port, timeout_s=60.0)

    def pss_mb(self) -> float:
        """Summed PSS of the front end and its workers."""
        return sum(read_pss_kb(pid) for pid in self.pids) / 1024

    def stop(self) -> None:
        """Close the server's stdin and wait until it (and so every
        worker) has exited."""
        if self._process.poll() is None:
            self._process.stdin.close()
            try:
                self._process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        self._process.stdout.close()


def set_up(seed: int, root: Path, store: str, probe):
    """One full setup: build and save the deployment, start its server
    and wait for the answer to ``probe(owner)``.

    Returns ``(deployment, server, seconds, phases)``; ``phases``
    splits the seconds (``load_s`` is part of ``server_ready_s``).
    """
    started = time.perf_counter()
    deployment = build(seed, root, store)
    server = ServerProcess(root, deployment.owner.update_token)
    try:
        with server.channel() as channel:
            channel.call(probe(deployment.owner))
    except BaseException:
        server.stop()
        raise
    answered = time.perf_counter()
    phases = {
        **deployment.phases,
        "load_s": server.load_s,
        "server_ready_s": answered - server.spawned,
    }
    return deployment, server, answered - started, phases


def copy_blobs(blobs: BlobStore) -> BlobStore:
    """An independent copy of a blob store."""
    copy = BlobStore()
    for doc_id in blobs.ids():
        copy.put(doc_id, blobs.get(doc_id))
    return copy


def delta_log_totals(root: Path) -> tuple[int, int]:
    """Records and bytes appended to a packed deployment's delta logs.

    The packed store fsyncs once per record it appends.
    """
    records = size = 0
    for path in sorted(root.rglob("*.rpk.delta")):
        raw = path.read_bytes()
        cursor = 8  # magic, version, reserved
        while cursor + 4 <= len(raw):
            cursor += 4 + int.from_bytes(raw[cursor : cursor + 4], "big")
            records += 1
        size += max(0, len(raw) - 8)
    return records, size
