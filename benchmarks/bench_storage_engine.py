"""Storage-engine harness — the regression gate for the packed store.

Builds a synthetic packed index through the constant-memory spilling
writer (timed: build throughput), then measures the two load paths in
*separate child processes* so peak resident memory (``ru_maxrss``) is
attributable per path:

Resident memory is compared on **anonymous RSS** (``RssAnon`` from
``/proc/self/status``): the dict path's cost is process-private heap,
while the mmap path's mapped posting blocks are shared, evictable
page-cache pages — the kernel's fault-around maps ~64 KB of cached
file pages per fault even under ``MADV_RANDOM``, so total RSS
overstates the mmap path's memory *pressure* by the size of the
touched file region.  Anonymous RSS is what the OOM killer charges a
process for; ``ru_maxrss`` is reported alongside for transparency.

* **null child** — imports everything, loads nothing: the interpreter
  baseline subtracted from both measurements;
* **dict child** — eagerly materializes the packed file as an
  in-memory :class:`SecureIndex` (``load_packed_index``: plain file
  reads, one ``bytes`` object per entry — the deterministic reference
  memory shape);
* **mmap child** — opens the same file as a lazy
  :class:`PackedStore` (offset table in memory, posting blocks paged
  in per query).

Each loaded child serves the same cold binary-codec query stream
through a real :class:`CloudServer` and reports one JSON line: peak
RSS, load seconds, QPS, p50/p99 latency, and a SHA-256 digest over
every response *and* every raw posting block it looked up — the
dict-vs-mmap digest comparison is the bench's byte-identity guard.

The report lands in ``benchmarks/results/BENCH_storage.json``
(``--smoke`` runs and the pytest entry point write the gitignored
``BENCH_storage.smoke.json`` instead).  Gates:

* machine-independent (``check_gates``): dict and mmap digests equal,
  mmap net RSS <= 25% of dict net RSS, mmap cold p99 <= 2x dict cold
  p99 (both children do identical decrypt work per query, so the
  ratio isolates lookup cost);
* machine-dependent (``--check-baseline``): build entries/sec and
  mmap cold QPS must not regress more than 30% below the committed
  ``benchmarks/results/BENCH_storage_baseline.json`` floor.

The default (full) scale packs ~2.4M encrypted entries across 20k
terms — about 100x the postings of the seed 1000-document corpus.
Run standalone (``python benchmarks/bench_storage_engine.py [--smoke]
[--check-baseline]``) or through pytest (reduced scale, digest + p99
gates).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

if True:  # allow running without PYTHONPATH=src (parent and children)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cloud.protocol import CODEC_BINARY, SearchRequest
from repro.cloud.server import CloudServer
from repro.cloud.storage import BlobStore
from repro.cloud.store import (
    PackedStore,
    SpillingPackWriter,
    load_packed_index,
)
from repro.core.secure_index import EntryLayout
from repro.core.trapdoor import Trapdoor

MAX_MEMORY_RATIO = 0.25
MAX_P99_RATIO = 2.0
BASELINE_TOLERANCE = 0.30
TOP_K = 10

#: The default entry geometry (matches TEST_PARAMETERS-scale scores).
LAYOUT = EntryLayout(zero_pad_bytes=4, file_id_bytes=24, score_bytes=3)

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_storage_baseline.json"
REPORT_PATH = RESULTS_DIR / "BENCH_storage.json"
#: Where ``--smoke`` runs (and the pytest entry point) write instead:
#: gitignored, so a local gate run never overwrites the committed report.
SMOKE_REPORT_PATH = RESULTS_DIR / "BENCH_storage.smoke.json"


def derive_addresses(terms: int, seed: int) -> list[bytes]:
    """Deterministic 20-byte addresses, in derivation (unsorted) order."""
    key = seed.to_bytes(8, "big")
    return [
        hashlib.blake2b(
            b"addr-%d" % i, key=key, digest_size=20
        ).digest()
        for i in range(terms)
    ]


def derive_list_key(address: bytes, seed: int) -> bytes:
    """The per-list trapdoor key a querying user would present."""
    return hashlib.blake2b(
        b"key-" + address, key=seed.to_bytes(8, "big"), digest_size=16
    ).digest()


def list_length(rank: int, terms: int, average: int) -> int:
    """Zipf-flavoured deterministic list length around ``average``."""
    skew = 1.0 + 2.0 * (terms - rank) / terms  # head lists ~3x tail
    return max(4, int(average * skew * 0.5))


def build_packed_fixture(
    path: Path, terms: int, average_entries: int, seed: int
) -> dict:
    """Pack the synthetic index through the spilling writer (timed)."""
    addresses = derive_addresses(terms, seed)
    width = LAYOUT.ciphertext_bytes
    total_target = sum(
        list_length(rank, terms, average_entries)
        for rank in range(terms)
    )
    writer = SpillingPackWriter(
        path,
        LAYOUT,
        run_entries=max(1024, total_target // 6),
        tmp_dir=path.parent,
    )
    started = time.perf_counter()
    entries_written = 0
    for rank, address in enumerate(addresses):
        rng = random.Random(seed * 1000003 + rank)
        count = list_length(rank, terms, average_entries)
        writer.add_list(
            address, [rng.randbytes(width) for _ in range(count)]
        )
        entries_written += count
    runs = writer.runs_spilled
    writer.close()
    elapsed = time.perf_counter() - started
    file_bytes = path.stat().st_size
    return {
        "terms": terms,
        "entries": entries_written,
        "file_bytes": file_bytes,
        "runs_spilled": runs,
        "seconds": elapsed,
        "entries_per_s": entries_written / elapsed,
        "mb_per_s": file_bytes / elapsed / 1e6,
    }


def _anon_rss_kb() -> int | None:
    """Anonymous (process-private) resident KB; None off-Linux."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("RssAnon:"):
            return int(line.split()[1])
    return None


def _percentile(sorted_latencies: list[float], q: float) -> float:
    index = min(
        len(sorted_latencies) - 1,
        int(round(q * (len(sorted_latencies) - 1))),
    )
    return sorted_latencies[index]


def run_child(
    mode: str, path: Path, terms: int, queries: int, seed: int
) -> dict:
    """The child-process body; prints one JSON line on stdout.

    ``null`` reports the interpreter + import baseline.  ``dict`` and
    ``mmap`` load the packed file through their respective paths and
    serve ``queries`` cold binary-codec searches over an evenly-strided
    subset of the sorted address space.
    """
    import resource

    result: dict = {"mode": mode}
    anon_peak = _anon_rss_kb()
    if mode != "null":
        started = time.perf_counter()
        if mode == "dict":
            store = load_packed_index(path)
        else:
            store = PackedStore(path)
        result["load_s"] = time.perf_counter() - started

        addresses = sorted(derive_addresses(terms, seed))
        stride = max(1, len(addresses) // queries)
        queried = [
            addresses[(i * stride) % len(addresses)]
            for i in range(queries)
        ]
        server = CloudServer(
            store, BlobStore(), can_rank=True, cache_searches=False
        )
        requests = [
            SearchRequest(
                trapdoor_bytes=Trapdoor(
                    address=address,
                    list_key=derive_list_key(address, seed),
                ).serialize(),
                top_k=TOP_K,
            ).to_bytes(CODEC_BINARY)
            for address in queried
        ]
        digest = hashlib.sha256()
        latencies = []
        started = time.perf_counter()
        for request_bytes in requests:
            began = time.perf_counter()
            digest.update(server.handle(request_bytes))
            latencies.append(time.perf_counter() - began)
        total = time.perf_counter() - started
        # Raw posting-block bytes: the actual dict-vs-mmap identity
        # proof (responses alone could agree for other reasons).
        for address in queried:
            entries = store.lookup(address)
            assert entries is not None
            for entry in entries:
                digest.update(entry)
        latencies.sort()
        result.update(
            {
                "qps": queries / total,
                "p50_ms": _percentile(latencies, 0.50) * 1e3,
                "p99_ms": _percentile(latencies, 0.99) * 1e3,
                "digest": digest.hexdigest(),
            }
        )
    max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["max_rss_kb"] = max_rss_kb
    final_anon = _anon_rss_kb()
    if anon_peak is not None and final_anon is not None:
        result["anon_rss_kb"] = max(anon_peak, final_anon)
    else:  # non-Linux fallback: total peak RSS
        result["anon_rss_kb"] = max_rss_kb
    print(json.dumps(result))
    return result


def spawn_child(
    mode: str, path: Path, terms: int, queries: int, seed: int
) -> dict:
    """Run one measurement child; returns its parsed JSON report."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--child",
            mode,
            "--path",
            str(path),
            "--terms",
            str(terms),
            "--queries",
            str(queries),
            "--seed",
            str(seed),
        ],
        capture_output=True,
        text=True,
        check=False,
        env={
            **os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
        },
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{mode} child failed:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_benchmark(
    terms: int,
    average_entries: int,
    queries: int,
    seed: int = 2010,
    keep_fixture: Path | None = None,
    report_path: Path = REPORT_PATH,
) -> dict:
    """Build the fixture, run the three children, assemble the report."""
    import tempfile

    if keep_fixture is not None:
        fixture_dir = keep_fixture
        fixture_dir.mkdir(parents=True, exist_ok=True)
        cleanup = None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="bench-storage-")
        fixture_dir = Path(cleanup.name)
    try:
        packed_path = fixture_dir / "bench.rpk"
        build = build_packed_fixture(
            packed_path, terms, average_entries, seed
        )
        children = {
            mode: spawn_child(mode, packed_path, terms, queries, seed)
            for mode in ("null", "dict", "mmap")
        }
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    baseline_kb = children["null"]["anon_rss_kb"]
    dict_net = max(1, children["dict"]["anon_rss_kb"] - baseline_kb)
    mmap_net = max(1, children["mmap"]["anon_rss_kb"] - baseline_kb)
    report = {
        "parameters": {
            "terms": terms,
            "average_entries": average_entries,
            "queries": queries,
            "seed": seed,
            "entry_bytes": LAYOUT.ciphertext_bytes,
            "top_k": TOP_K,
        },
        "build": build,
        "children": children,
        "memory": {
            "interpreter_kb": baseline_kb,
            "dict_net_kb": dict_net,
            "mmap_net_kb": mmap_net,
            "ratio": mmap_net / dict_net,
        },
        "cold": {
            "dict_qps": children["dict"]["qps"],
            "mmap_qps": children["mmap"]["qps"],
            "dict_p99_ms": children["dict"]["p99_ms"],
            "mmap_p99_ms": children["mmap"]["p99_ms"],
            "p99_ratio": (
                children["mmap"]["p99_ms"] / children["dict"]["p99_ms"]
            ),
        },
        "digests_match": (
            children["dict"]["digest"] == children["mmap"]["digest"]
        ),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gates(report: dict) -> list[str]:
    """Machine-independent gates; returns failure messages (empty = ok)."""
    failures = []
    if not report["digests_match"]:
        failures.append(
            "dict and mmap children disagree on response/posting bytes"
        )
    ratio = report["memory"]["ratio"]
    if ratio > MAX_MEMORY_RATIO:
        failures.append(
            f"mmap net RSS is {ratio:.1%} of the dict path "
            f"(required <= {MAX_MEMORY_RATIO:.0%})"
        )
    p99_ratio = report["cold"]["p99_ratio"]
    if p99_ratio > MAX_P99_RATIO:
        failures.append(
            f"mmap cold p99 is {p99_ratio:.2f}x the dict path "
            f"(required <= {MAX_P99_RATIO:.1f}x)"
        )
    return failures


def check_baseline(report: dict) -> list[str]:
    """Machine-dependent gate vs the committed baseline floor."""
    if not BASELINE_PATH.exists():
        return [f"no baseline at {BASELINE_PATH}"]
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    floor = baseline["build"]["entries_per_s"] * (1.0 - BASELINE_TOLERANCE)
    if report["build"]["entries_per_s"] < floor:
        failures.append(
            f"build at {report['build']['entries_per_s']:,.0f} entries/s "
            f"is more than {BASELINE_TOLERANCE:.0%} below the baseline "
            f"floor ({floor:,.0f})"
        )
    floor = baseline["cold"]["mmap_qps"] * (1.0 - BASELINE_TOLERANCE)
    if report["cold"]["mmap_qps"] < floor:
        failures.append(
            f"mmap cold path at {report['cold']['mmap_qps']:,.0f} qps is "
            f"more than {BASELINE_TOLERANCE:.0%} below the baseline "
            f"floor ({floor:,.0f})"
        )
    return failures


def format_report(report: dict) -> str:
    """Human-readable report block."""
    build = report["build"]
    memory = report["memory"]
    cold = report["cold"]
    return "\n".join(
        [
            "Storage engine "
            f"(terms={build['terms']}, entries={build['entries']:,}, "
            f"file={build['file_bytes'] / 1e6:.1f} MB)",
            f"  build : {build['entries_per_s']:>10,.0f} entries/s  "
            f"{build['mb_per_s']:6.1f} MB/s  "
            f"({build['runs_spilled']} spilled runs)",
            f"  memory: dict {memory['dict_net_kb']:>9,} KB   "
            f"mmap {memory['mmap_net_kb']:>9,} KB   "
            f"ratio {memory['ratio']:.1%}",
            f"  cold  : dict {cold['dict_qps']:>9,.0f} qps "
            f"(p99 {cold['dict_p99_ms']:6.3f} ms)   "
            f"mmap {cold['mmap_qps']:>9,.0f} qps "
            f"(p99 {cold['mmap_p99_ms']:6.3f} ms)",
            f"  digests match: {report['digests_match']}",
        ]
    )


def test_storage_engine_gates():
    """Pytest entry point: digest identity + relaxed p99 at tiny scale.

    The memory and absolute-throughput gates need the smoke scale (or
    larger) to rise above interpreter noise; the CI ``storage-smoke``
    job applies them via the CLI.  Here the byte-identity digest and a
    relaxed latency ratio guard the correctness-critical properties on
    every tier-1 run.
    """
    report = run_benchmark(
        terms=600,
        average_entries=40,
        queries=150,
        report_path=SMOKE_REPORT_PATH,
    )
    print(format_report(report))
    assert report["digests_match"], "dict and mmap children disagree"
    assert report["cold"]["p99_ratio"] < 2 * MAX_P99_RATIO, report["cold"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Packed storage engine benchmark and regression gate"
    )
    parser.add_argument("--child", choices=("null", "dict", "mmap"))
    parser.add_argument("--path", type=Path)
    parser.add_argument("--terms", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller workload for a fast CI smoke run",
    )
    parser.add_argument("--average-entries", type=int, default=None)
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail if build or mmap-qps regressed >30%% vs the "
        "committed baseline",
    )
    arguments = parser.parse_args()
    if arguments.child:
        run_child(
            arguments.child,
            arguments.path,
            arguments.terms,
            arguments.queries,
            arguments.seed,
        )
        sys.exit(0)
    terms = arguments.terms or (2000 if arguments.smoke else 20000)
    average = arguments.average_entries or (120 if arguments.smoke else 120)
    queries = arguments.queries or (400 if arguments.smoke else 1000)
    bench_report = run_benchmark(
        terms,
        average,
        queries,
        arguments.seed,
        report_path=SMOKE_REPORT_PATH if arguments.smoke else REPORT_PATH,
    )
    print(format_report(bench_report))
    problems = check_gates(bench_report)
    if arguments.check_baseline:
        problems += check_baseline(bench_report)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        sys.exit(1)
    print("all gates passed")
