"""Query-serving throughput harness — the regression gate for the
serving fast path.

Measures the full byte-in/byte-out query path (``CloudServer.handle``
and ``ClusterServer.handle_many``) across the dimensions the serving
overhaul touches:

* **warm vs. legacy-warm** — the shipped warm path (ranked LRU cache:
  top-k is an O(k) slice of a list pre-sorted at fill time) against an
  in-bench emulation of the pre-overhaul warm path (cached *unranked*
  matches, a full ``rank_all`` whose result was then discarded for a
  second ``top_k`` pass, JSON framing).  Responses are asserted
  byte-identical before anything is timed.
* **cold, JSON vs. binary** — the same fresh-decrypt query served
  through both wire codecs: JSON+hex (the bandwidth-accounting
  reference) and the length-prefixed binary framing.
* **cluster cells** — cold/warm x JSON/binary x 1/4 shards, with QPS
  measured through the grouped batch fan-out
  (``handle_many``) and p50/p99 latency from per-request dispatch.

The report lands in ``benchmarks/results/BENCH_serving.json``
(``--smoke`` runs and the pytest entry point write the gitignored
``BENCH_serving.smoke.json`` instead).  Gates:

* machine-independent (always checked by
  ``test_serving_throughput_gates``): warm throughput >= 3x the legacy
  warm path, and cold throughput with the binary codec >= 1.5x cold
  JSON;
* machine-dependent (``--check-baseline``): warm-binary and
  cold-binary QPS must not regress more than 30% below the committed
  ``benchmarks/results/BENCH_serving_baseline.json`` floor.

Run standalone (``python benchmarks/bench_serving_throughput.py
[--smoke] [--check-baseline]``) or through pytest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cloud.cluster import ClusterServer
from repro.cloud.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    SearchRequest,
    SearchResponse,
    peek_kind,
)
from repro.cloud.server import CloudServer
from repro.cloud.storage import BlobStore
from repro.core import TEST_PARAMETERS, EfficientRSSE
from repro.core.results import ServerMatch
from repro.core.secure_index import decrypt_posting_list
from repro.core.trapdoor import Trapdoor
from repro.corpus.workload import zipf_queries
from repro.ir.inverted_index import InvertedIndex
from repro.ir.topk import rank_all, top_k

MIN_WARM_SPEEDUP = 3.0
MIN_COLD_CODEC_SPEEDUP = 1.5
BASELINE_TOLERANCE = 0.30
TOP_K = 10
BLOB_BYTES = 4096
WARM_KEYWORDS = 8

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_serving_baseline.json"
REPORT_PATH = RESULTS_DIR / "BENCH_serving.json"
#: Where ``--smoke`` runs (and the pytest entry point) write instead:
#: gitignored, so a local gate run never overwrites the committed report.
SMOKE_REPORT_PATH = RESULTS_DIR / "BENCH_serving.smoke.json"


class LegacyWarmServer:
    """The pre-overhaul warm query path, reproduced for comparison.

    Mirrors what ``CloudServer`` did before the serving overhaul: the
    cache stored *unranked* decrypted matches, ``_handle_search`` ran a
    full ``rank_all`` whose result was discarded before a second
    ``top_k`` pass re-decoded every OPM score, and the only wire
    framing was JSON+hex.  Output bytes are identical to the shipped
    path (same tie-breaks, same codec); only the work differs.
    """

    def __init__(self, secure_index, blob_store: BlobStore):
        self._index = secure_index
        self._blobs = blob_store
        self._cache: dict[bytes, list[ServerMatch]] = {}

    def handle(self, request_bytes: bytes) -> bytes:
        peek_kind(request_bytes)  # pre-overhaul: full JSON parse
        request = SearchRequest.from_bytes(request_bytes)
        trapdoor = Trapdoor.deserialize(request.trapdoor_bytes)
        matches = self._cache.get(trapdoor.address)
        if matches is None:
            entries = self._index.lookup(trapdoor.address)
            matches = [
                ServerMatch(file_id=file_id, score_field=score_field)
                for file_id, score_field in decrypt_posting_list(
                    self._index.layout, trapdoor.list_key, entries or []
                )
            ]
            self._cache[trapdoor.address] = matches
        ordered = rank_all(matches, key=lambda match: match.opm_value())
        if request.top_k is not None:
            ordered = top_k(
                matches,
                request.top_k,
                key=lambda match: match.opm_value(),
            )
        returned = []
        payloads = []
        for match in ordered:
            blob = self._blobs.get_optional(match.file_id)
            if blob is None:
                continue
            returned.append(match)
            payloads.append((match.file_id, blob))
        # The curious-server bookkeeping the real path pays too.
        _observation = (
            trapdoor.address,
            tuple(match.file_id for match in matches),
            tuple(match.score_field for match in matches),
            tuple(match.file_id for match in returned),
        )
        response_matches = tuple(
            (match.file_id, match.score_field) for match in returned
        )
        return SearchResponse(
            matches=response_matches, files=tuple(payloads)
        ).to_bytes()


def build_deployment(posting_length: int, cold_keywords: int):
    """An efficient-scheme deployment sized for the serving workload.

    ``WARM_KEYWORDS`` hot keywords each match every document (long
    posting lists: the ranking cost a warm query used to re-pay), and
    ``cold_keywords`` rare keywords each match 10 documents (short
    lists: the cold cells measure framing cost, not decryption cost).
    """
    scheme = EfficientRSSE(TEST_PARAMETERS)
    key = scheme.keygen()
    index = InvertedIndex()
    blobs = BlobStore()
    num_documents = max(posting_length, 10 * cold_keywords)
    for position in range(num_documents):
        doc_id = f"d{position:06d}"
        terms = []
        for hot in range(WARM_KEYWORDS):
            terms.extend([f"hot{hot}"] * (1 + (position + hot) % 7))
        if position < 10 * cold_keywords:
            # Exactly 10 documents per cold keyword at any scale, so
            # the cold cells measure framing cost, not list length.
            terms.extend([f"cold{position // 10}"] * 2)
        index.add_document(doc_id, terms)
        blobs.put(doc_id, (doc_id.encode("utf-8") * BLOB_BYTES)[:BLOB_BYTES])
    built = scheme.build_index(key, index)
    return scheme, key, built.secure_index, blobs


def encode_requests(scheme, key, keywords, codec, repeats, seed=2010):
    """Pre-encode ``repeats`` search requests over a Zipfian draw.

    Uses the shared deterministic workload generator
    (:func:`repro.corpus.workload.zipf_queries`), so the keyword
    popularity skew matches the other serving benches and two runs see
    the identical sequence.
    """
    encoded = {
        keyword: SearchRequest(
            trapdoor_bytes=scheme.trapdoor(key, keyword).serialize(),
            top_k=TOP_K,
        ).to_bytes(codec)
        for keyword in keywords
    }
    return [
        encoded[keyword]
        for keyword in zipf_queries(keywords, repeats, seed=seed)
    ]


def percentile(sorted_latencies: list[float], q: float) -> float:
    index = min(
        len(sorted_latencies) - 1,
        int(round(q * (len(sorted_latencies) - 1))),
    )
    return sorted_latencies[index]


def time_handler(handler, requests) -> dict:
    """Serve every request through ``handler``; QPS + latency summary."""
    latencies = []
    start = time.perf_counter()
    for request_bytes in requests:
        began = time.perf_counter()
        handler(request_bytes)
        latencies.append(time.perf_counter() - began)
    total = time.perf_counter() - start
    latencies.sort()
    return {
        "queries": len(requests),
        "qps": len(requests) / total,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
    }


def time_batches(cluster: ClusterServer, requests, batch_size: int) -> float:
    """QPS through the grouped batch fan-out (``handle_many``)."""
    start = time.perf_counter()
    for begin in range(0, len(requests), batch_size):
        cluster.handle_many(requests[begin : begin + batch_size])
    return len(requests) / (time.perf_counter() - start)


def measure_wire_sizes(scheme, key, secure_index, blobs) -> dict:
    """Measured bytes-on-wire per codec (the docs codec table)."""
    sizes: dict[str, dict[str, int]] = {}
    for codec in (CODEC_JSON, CODEC_BINARY):
        server = CloudServer(secure_index, blobs, can_rank=True)
        request = SearchRequest(
            trapdoor_bytes=scheme.trapdoor(key, "hot0").serialize(),
            top_k=TOP_K,
        ).to_bytes(codec)
        response = server.handle(request)
        sizes[codec] = {
            "search_request_bytes": len(request),
            "search_response_bytes": len(response),
        }
    return sizes


def check_warm_equivalence(secure_index, blobs, requests) -> None:
    """Shipped warm path and legacy emulation must agree byte-for-byte."""
    fast = CloudServer(
        secure_index, blobs, can_rank=True, cache_searches=True
    )
    legacy = LegacyWarmServer(secure_index, blobs)
    for request_bytes in requests:
        if fast.handle(request_bytes) != legacy.handle(request_bytes):
            raise AssertionError(
                "ranked-cache fast path diverged from the legacy path"
            )


def run_benchmark(
    posting_length: int,
    warm_queries: int,
    cold_queries: int,
    cold_keywords: int = 32,
    batch_size: int = 32,
    report_path: Path = REPORT_PATH,
) -> dict:
    scheme, key, secure_index, blobs = build_deployment(
        posting_length, cold_keywords
    )
    hot = [f"hot{i}" for i in range(WARM_KEYWORDS)]
    cold = [f"cold{i}" for i in range(cold_keywords)]
    check_warm_equivalence(
        secure_index,
        blobs,
        encode_requests(scheme, key, hot, CODEC_JSON, 2 * len(hot)),
    )

    server_cells: dict[str, dict] = {"warm": {}, "cold": {}}
    for codec in (CODEC_JSON, CODEC_BINARY):
        warm_requests = encode_requests(
            scheme, key, hot, codec, warm_queries
        )
        server = CloudServer(
            secure_index,
            blobs,
            can_rank=True,
            cache_searches=True,
            log_capacity=256,
        )
        for request_bytes in dict.fromkeys(warm_requests):  # prime
            server.handle(request_bytes)
        server_cells["warm"][codec] = time_handler(
            server.handle, warm_requests
        )

        cold_requests = encode_requests(
            scheme, key, cold, codec, cold_queries
        )
        uncached = CloudServer(
            secure_index,
            blobs,
            can_rank=True,
            cache_searches=False,
            log_capacity=256,
        )
        server_cells["cold"][codec] = time_handler(
            uncached.handle, cold_requests
        )

    legacy = LegacyWarmServer(secure_index, blobs)
    legacy_requests = encode_requests(
        scheme, key, hot, CODEC_JSON, warm_queries
    )
    for request_bytes in dict.fromkeys(legacy_requests):  # prime
        legacy.handle(request_bytes)
    server_cells["warm"]["legacy_json"] = time_handler(
        legacy.handle, legacy_requests
    )

    cluster_cells: dict[str, dict] = {}
    for shards in (1, 4):
        cluster_cells[f"shards{shards}"] = {"warm": {}, "cold": {}}
        for temperature, cached, keywords, queries in (
            ("warm", True, hot, warm_queries),
            ("cold", False, cold, cold_queries),
        ):
            for codec in (CODEC_JSON, CODEC_BINARY):
                requests = encode_requests(
                    scheme, key, keywords, codec, queries
                )
                with ClusterServer(
                    secure_index,
                    blobs,
                    can_rank=True,
                    num_shards=shards,
                    cache_searches=cached,
                    log_capacity=256,
                ) as cluster:
                    if cached:
                        cluster.handle_many(list(dict.fromkeys(requests)))
                    cell = time_handler(cluster.handle, requests)
                    cell["batch_qps"] = time_batches(
                        cluster, requests, batch_size
                    )
                cluster_cells[f"shards{shards}"][temperature][codec] = cell

    warm_speedup = (
        server_cells["warm"][CODEC_BINARY]["qps"]
        / server_cells["warm"]["legacy_json"]["qps"]
    )
    cold_codec_speedup = (
        server_cells["cold"][CODEC_BINARY]["qps"]
        / server_cells["cold"][CODEC_JSON]["qps"]
    )
    report = {
        "parameters": {
            "posting_length": posting_length,
            "warm_queries": warm_queries,
            "cold_queries": cold_queries,
            "cold_keywords": cold_keywords,
            "top_k": TOP_K,
            "blob_bytes": BLOB_BYTES,
            "batch_size": batch_size,
        },
        "server": server_cells,
        "cluster": cluster_cells,
        "wire": measure_wire_sizes(scheme, key, secure_index, blobs),
        "warm_speedup": warm_speedup,
        "cold_codec_speedup": cold_codec_speedup,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gates(report: dict) -> list[str]:
    """Machine-independent gates; returns failure messages (empty = ok)."""
    failures = []
    if report["warm_speedup"] < MIN_WARM_SPEEDUP:
        failures.append(
            f"warm speedup {report['warm_speedup']:.2f}x below required "
            f"{MIN_WARM_SPEEDUP:.1f}x"
        )
    if report["cold_codec_speedup"] < MIN_COLD_CODEC_SPEEDUP:
        failures.append(
            f"cold binary-codec speedup {report['cold_codec_speedup']:.2f}x "
            f"below required {MIN_COLD_CODEC_SPEEDUP:.1f}x"
        )
    return failures


def check_baseline(report: dict) -> list[str]:
    """Machine-dependent gate vs the committed baseline floor."""
    if not BASELINE_PATH.exists():
        return [f"no baseline at {BASELINE_PATH}"]
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    for temperature in ("warm", "cold"):
        floor = baseline["server"][temperature]["binary"]["qps"] * (
            1.0 - BASELINE_TOLERANCE
        )
        measured = report["server"][temperature]["binary"]["qps"]
        if measured < floor:
            failures.append(
                f"{temperature} binary path at {measured:,.0f} qps is more "
                f"than {BASELINE_TOLERANCE:.0%} below the baseline floor "
                f"({floor:,.0f})"
            )
    return failures


def format_report(report: dict) -> str:
    def cell(data: dict) -> str:
        return (
            f"{data['qps']:>9,.0f} qps  p50 {data['p50_ms']:6.3f} ms  "
            f"p99 {data['p99_ms']:6.3f} ms"
        )

    parameters = report["parameters"]
    lines = [
        "Serving throughput "
        f"(postings={parameters['posting_length']}, "
        f"k={parameters['top_k']}, blobs={parameters['blob_bytes']}B)",
        f"  warm  binary: {cell(report['server']['warm']['binary'])}",
        f"  warm  json:   {cell(report['server']['warm']['json'])}",
        f"  warm  legacy: {cell(report['server']['warm']['legacy_json'])}",
        f"  cold  binary: {cell(report['server']['cold']['binary'])}",
        f"  cold  json:   {cell(report['server']['cold']['json'])}",
    ]
    for shards, cells in report["cluster"].items():
        for temperature in ("warm", "cold"):
            for codec in ("binary", "json"):
                data = cells[temperature][codec]
                lines.append(
                    f"  {shards:<7s} {temperature} {codec:<6s}: "
                    f"{cell(data)}  batch {data['batch_qps']:>9,.0f} qps"
                )
    lines.append(
        f"  warm speedup vs legacy: {report['warm_speedup']:.2f}x   "
        f"cold binary vs json: {report['cold_codec_speedup']:.2f}x"
    )
    return "\n".join(lines)


def test_serving_throughput_gates():
    """Pytest entry point at smoke scale (the CI perf-smoke step)."""
    report = run_benchmark(
        posting_length=300,
        warm_queries=300,
        cold_queries=120,
        cold_keywords=16,
        report_path=SMOKE_REPORT_PATH,
    )
    print(format_report(report))
    assert not check_gates(report), check_gates(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Query-serving throughput benchmark and regression gate"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller workload for a fast CI smoke run",
    )
    parser.add_argument("--postings", type=int, default=None)
    parser.add_argument("--warm-queries", type=int, default=None)
    parser.add_argument("--cold-queries", type=int, default=None)
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail if warm/cold binary qps regressed >30%% vs the "
        "committed baseline",
    )
    arguments = parser.parse_args()
    postings = arguments.postings or (300 if arguments.smoke else 1500)
    warm = arguments.warm_queries or (300 if arguments.smoke else 1000)
    cold = arguments.cold_queries or (120 if arguments.smoke else 400)
    bench_report = run_benchmark(
        postings,
        warm,
        cold,
        cold_keywords=16 if arguments.smoke else 32,
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
