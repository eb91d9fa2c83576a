"""Multi-keyword serving: one-round fast path gate + ranking ablation.

Two instruments in one harness:

**Fast-path gate** (``run_benchmark`` / ``test_multi_keyword_fastpath_gates``)
— measures the one-round ``multi-search`` path against the legacy
k-round client-side merge it replaces, through a warm
:class:`ClusterServer` at 1 and 4 shards over the binary codec.
Latency per query is compute wall-clock plus a
:class:`~repro.cloud.network.LinkModel`-priced wire cost (RTTs +
bytes), so the numbers reflect what a real client pays: the legacy
path spends one round trip *per keyword* and hauls full posting lists
plus every matching file back to the client, while the one-round path
spends a single round trip and receives exactly the top-k.  Responses
are asserted rank- and byte-equivalent before anything is timed.
Gates:

* machine-independent (always checked): one-round p50 latency for
  4-term conjunctive queries at 4 shards must beat the legacy path by
  >= 2x;
* machine-dependent (``--check-baseline``): one-round QPS must not
  regress more than 30% below the committed
  ``BENCH_multi_keyword_baseline.json`` floor, and the minimum Kendall
  tau vs the exact equation-1 ranking must stay above the baseline's
  recorded floor.

Run standalone (``python benchmarks/bench_multi_keyword.py [--smoke]
[--check-baseline]``) or through pytest.  The report lands in
``benchmarks/results/BENCH_multi_keyword.json`` (``--smoke`` runs and
the pytest entry point write the gitignored
``BENCH_multi_keyword.smoke.json`` instead).

**Ranking ablation** (``test_multi_keyword_ranking_quality``) — the
Section VIII honesty measurement: Kendall tau and top-k overlap
between the server-side OPM-sum ranking and the true equation-1
ranking as the query grows from 1 to 4 keywords, plus the exact
basic-scheme client that closes the gap at k-round cost.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from repro.cloud.cluster import ClusterServer
from repro.cloud.network import LinkModel
from repro.cloud.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    MODE_CONJUNCTIVE,
    MultiSearchRequest,
    MultiSearchResponse,
    SearchRequest,
    SearchResponse,
    pack_multi_score,
    unpack_multi_score,
)
from repro.cloud.server import CloudServer
from repro.cloud.storage import BlobStore
from repro.core import (
    BasicRankedSSE,
    EfficientRSSE,
    PAPER_PARAMETERS,
    TEST_PARAMETERS,
)
from repro.core.multi_keyword import (
    ExactMultiKeywordClient,
    MultiKeywordSearcher,
    rank_correlation,
    top_k_overlap,
    true_conjunctive_ranking,
)
from repro.core.results import as_ranking
from repro.corpus.workload import zipf_multi_queries
from repro.ir import stem
from repro.ir.inverted_index import InvertedIndex
from repro.ir.topk import intersect_sums, rank_pairs

from conftest import write_result

MIN_ONE_ROUND_P50_SPEEDUP = 2.0
BASELINE_TOLERANCE = 0.30
TOP_K = 10
BLOB_BYTES = 2048
GATE_TERMS = 4
GATE_SHARDS = "shards4"

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_multi_keyword_baseline.json"
REPORT_PATH = RESULTS_DIR / "BENCH_multi_keyword.json"
#: Where ``--smoke`` runs (and the pytest entry point) write instead:
#: gitignored, so a local gate run never overwrites the committed report.
SMOKE_REPORT_PATH = RESULTS_DIR / "BENCH_multi_keyword.smoke.json"

QUERIES = (
    ["network"],
    ["network", "protocol"],
    ["network", "protocol", "packet"],
    ["network", "protocol", "packet", "server"],
)


# ---------------------------------------------------------------------------
# fast-path harness
# ---------------------------------------------------------------------------


class ModeledChannel:
    """In-process channel that *prices* the wire instead of sleeping.

    Every call accumulates the :class:`LinkModel` cost (one RTT plus
    transfer time for request and response bytes) into
    ``modeled_seconds``; the bench adds the per-query delta to the
    measured compute time.  Deterministic — no wall-clock sleeps — yet
    deployment-honest: round trips and bytes are the real ones.
    """

    def __init__(self, handler, link: LinkModel):
        self._handler = handler
        self._link = link
        self.modeled_seconds = 0.0
        self.round_trips = 0
        self.total_bytes = 0

    def call(self, request: bytes) -> bytes:
        response = self._handler(request)
        self.round_trips += 1
        self.total_bytes += len(request) + len(response)
        self.modeled_seconds += (
            self._link.rtt_seconds
            + (len(request) + len(response))
            / self._link.bandwidth_bytes_per_second
        )
        return response


def build_deployment(num_documents: int, vocabulary_size: int, seed: int):
    """A dense synthetic deployment: every term pair co-occurs often."""
    scheme = EfficientRSSE(TEST_PARAMETERS)
    key = scheme.keygen()
    rng = random.Random(seed)
    vocabulary = [f"kw{i:02d}" for i in range(vocabulary_size)]
    index = InvertedIndex()
    blobs = BlobStore()
    for position in range(num_documents):
        doc_id = f"d{position:06d}"
        index.add_document(
            doc_id, [rng.choice(vocabulary) for _ in range(40)]
        )
        blobs.put(
            doc_id, (doc_id.encode("utf-8") * BLOB_BYTES)[:BLOB_BYTES]
        )
    built = scheme.build_index(key, index)
    return scheme, key, index, built.secure_index, blobs, vocabulary


def sample_queries(vocabulary, terms_count: int, count: int, seed: int):
    """Zipf-weighted multi-keyword workloads (shared generator).

    Hot terms co-occur across queries, matching the skew the other
    serving benches use (:mod:`repro.corpus.workload`).
    """
    return [
        list(terms)
        for terms in zipf_multi_queries(
            vocabulary, count, terms_count, seed=seed
        )
    ]


def one_round_query(channel, trapdoors, k) -> MultiSearchResponse:
    request = MultiSearchRequest(
        trapdoors=trapdoors, mode=MODE_CONJUNCTIVE, top_k=k
    ).to_bytes(CODEC_BINARY)
    return MultiSearchResponse.from_bytes(channel.call(request))


def legacy_query(channel, trapdoors, k) -> MultiSearchResponse:
    """The pre-aggregation client: k round trips, merge locally.

    Reassembled into a :class:`MultiSearchResponse` so equivalence with
    the one-round path is a plain equality check.
    """
    per_term: list[dict[str, int]] = []
    blobs: dict[str, bytes] = {}
    for trapdoor_bytes in trapdoors:
        response = SearchResponse.from_bytes(
            channel.call(
                SearchRequest(trapdoor_bytes=trapdoor_bytes).to_bytes(
                    CODEC_BINARY
                )
            )
        )
        per_term.append(
            {
                file_id: int.from_bytes(field, "big")
                for file_id, field in response.matches
            }
        )
        blobs.update(response.files)
    ranked = rank_pairs(intersect_sums(per_term), k)
    return MultiSearchResponse(
        matches=tuple(
            (file_id, pack_multi_score(total)) for file_id, total in ranked
        ),
        files=tuple(
            (file_id, blobs[file_id])
            for file_id, _ in ranked
            if file_id in blobs
        ),
    )


def percentile(sorted_latencies: list[float], q: float) -> float:
    index = min(
        len(sorted_latencies) - 1,
        int(round(q * (len(sorted_latencies) - 1))),
    )
    return sorted_latencies[index]


def time_path(channel, run_one, queries) -> dict:
    """Per-query latency = compute wall-clock + modeled wire delta."""
    latencies = []
    for query in queries:
        wire_before = channel.modeled_seconds
        began = time.perf_counter()
        run_one(query)
        latencies.append(
            (time.perf_counter() - began)
            + (channel.modeled_seconds - wire_before)
        )
    total = sum(latencies)
    latencies.sort()
    return {
        "queries": len(queries),
        "qps": len(queries) / total,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
    }


def check_equivalence(channel, query_trapdoors, k) -> None:
    """One-round and legacy must agree before either is timed."""
    for trapdoors in query_trapdoors:
        one = one_round_query(channel, trapdoors, k)
        legacy = legacy_query(channel, trapdoors, k)
        if one != legacy:
            raise AssertionError(
                "one-round multi-search diverged from the legacy "
                "k-round client-side merge"
            )


def measure_quality(
    scheme, key, index, secure_index, blobs, vocabulary
) -> dict:
    """Kendall tau / top-k overlap of the served ranking vs truth."""
    server = CloudServer(secure_index, blobs, can_rank=True)
    rows = []
    taus = []
    for terms_count in (1, 2, 3, 4):
        for terms in sample_queries(
            vocabulary, terms_count, 3, 11 * terms_count
        ):
            trapdoors = tuple(
                scheme.trapdoor(key, term).serialize() for term in terms
            )
            response = MultiSearchResponse.from_bytes(
                server.handle(
                    MultiSearchRequest(trapdoors=trapdoors).to_bytes()
                )
            )
            if len(response.matches) < 2:
                continue
            approx = as_ranking(
                [
                    (file_id, float(unpack_multi_score(field)))
                    for file_id, field in response.matches
                ]
            )
            truth = true_conjunctive_ranking(index, terms)
            tau = rank_correlation(approx, truth)
            overlap = top_k_overlap(truth, approx, TOP_K)
            rows.append(
                {
                    "terms": terms_count,
                    "matches": len(approx),
                    "kendall_tau": tau,
                    "top_k_overlap": overlap,
                }
            )
            if terms_count > 1:
                taus.append(tau)
    return {
        "rows": rows,
        "kendall_tau_min": min(taus),
        "kendall_tau_mean": sum(taus) / len(taus),
    }


def measure_wire_sizes(scheme, key, vocabulary, secure_index, blobs):
    """Measured bytes-on-wire for a 4-term query (the docs table)."""
    server = CloudServer(secure_index, blobs, can_rank=True)
    trapdoors = tuple(
        scheme.trapdoor(key, term).serialize()
        for term in vocabulary[:GATE_TERMS]
    )
    sizes = {}
    for codec in (CODEC_JSON, CODEC_BINARY):
        request = MultiSearchRequest(
            trapdoors=trapdoors, top_k=TOP_K
        ).to_bytes(codec)
        response = server.handle(request)
        legacy_bytes = 0
        for trapdoor_bytes in trapdoors:
            single = SearchRequest(trapdoor_bytes=trapdoor_bytes).to_bytes(
                codec
            )
            legacy_bytes += len(single) + len(server.handle(single))
        sizes[codec] = {
            "multi_search_request_bytes": len(request),
            "multi_search_response_bytes": len(response),
            "legacy_total_bytes": legacy_bytes,
        }
    return sizes


def run_benchmark(
    num_documents: int,
    queries_per_cell: int,
    vocabulary_size: int = 24,
    seed: int = 2010,
    report_path: Path = REPORT_PATH,
) -> dict:
    scheme, key, index, secure_index, blobs, vocabulary = build_deployment(
        num_documents, vocabulary_size, seed
    )
    link = LinkModel()  # 50 ms RTT, 100 Mbit/s — a WAN client
    query_pool = {
        terms_count: [
            tuple(
                scheme.trapdoor(key, term).serialize() for term in terms
            )
            for terms in sample_queries(
                vocabulary, terms_count, 8, seed + terms_count
            )
        ]
        for terms_count in (2, GATE_TERMS)
    }

    cells: dict[str, dict] = {}
    for shards in (1, 4):
        shard_cells: dict[str, dict] = {}
        with ClusterServer(
            secure_index,
            blobs,
            can_rank=True,
            num_shards=shards,
            cache_searches=True,
            log_capacity=256,
        ) as cluster:
            channel = ModeledChannel(cluster.handle, link)
            for terms_count, pool in query_pool.items():
                # Equivalence first (also warms every posting list).
                check_equivalence(channel, pool, TOP_K)
                queries = [
                    pool[i % len(pool)] for i in range(queries_per_cell)
                ]
                one = time_path(
                    channel,
                    lambda q: one_round_query(channel, q, TOP_K),
                    queries,
                )
                legacy = time_path(
                    channel,
                    lambda q: legacy_query(channel, q, TOP_K),
                    queries,
                )
                shard_cells[f"terms{terms_count}"] = {
                    "one_round": one,
                    "legacy": legacy,
                    "p50_speedup": legacy["p50_ms"] / one["p50_ms"],
                }
        cells[f"shards{shards}"] = shard_cells

    report = {
        "parameters": {
            "num_documents": num_documents,
            "vocabulary_size": vocabulary_size,
            "queries_per_cell": queries_per_cell,
            "top_k": TOP_K,
            "blob_bytes": BLOB_BYTES,
            "link_rtt_ms": link.rtt_seconds * 1e3,
            "link_bandwidth_mbps": link.bandwidth_bytes_per_second
            * 8
            / 1e6,
            "codec": CODEC_BINARY,
        },
        "cells": cells,
        "quality": measure_quality(
            scheme, key, index, secure_index, blobs, vocabulary
        ),
        "wire": measure_wire_sizes(
            scheme, key, vocabulary, secure_index, blobs
        ),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gates(report: dict) -> list[str]:
    """Machine-independent gates; returns failure messages (empty = ok)."""
    failures = []
    speedup = report["cells"][GATE_SHARDS][f"terms{GATE_TERMS}"][
        "p50_speedup"
    ]
    if speedup < MIN_ONE_ROUND_P50_SPEEDUP:
        failures.append(
            f"one-round p50 speedup {speedup:.2f}x for {GATE_TERMS}-term "
            f"conjunctive at 4 shards is below the required "
            f"{MIN_ONE_ROUND_P50_SPEEDUP:.1f}x"
        )
    return failures


def check_baseline(report: dict) -> list[str]:
    """Machine-dependent gate vs the committed baseline floor."""
    if not BASELINE_PATH.exists():
        return [f"no baseline at {BASELINE_PATH}"]
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    for shards, shard_cells in baseline["cells"].items():
        for terms, cell in shard_cells.items():
            floor = cell["one_round"]["qps"] * (1.0 - BASELINE_TOLERANCE)
            measured = report["cells"][shards][terms]["one_round"]["qps"]
            if measured < floor:
                failures.append(
                    f"{shards}/{terms} one-round at {measured:,.1f} qps is "
                    f"more than {BASELINE_TOLERANCE:.0%} below the "
                    f"baseline floor ({floor:,.1f})"
                )
    tau_floor = baseline["quality"]["kendall_tau_floor"]
    measured_tau = report["quality"]["kendall_tau_min"]
    if measured_tau < tau_floor:
        failures.append(
            f"minimum Kendall tau {measured_tau:.3f} fell below the "
            f"baseline floor {tau_floor:.3f}"
        )
    return failures


def format_report(report: dict) -> str:
    def cell(data: dict) -> str:
        return (
            f"{data['qps']:>8,.1f} qps  p50 {data['p50_ms']:8.2f} ms  "
            f"p99 {data['p99_ms']:8.2f} ms"
        )

    parameters = report["parameters"]
    lines = [
        "Multi-keyword serving "
        f"(docs={parameters['num_documents']}, k={parameters['top_k']}, "
        f"rtt={parameters['link_rtt_ms']:.0f}ms, binary codec, warm)",
    ]
    for shards, shard_cells in report["cells"].items():
        for terms, data in shard_cells.items():
            lines.append(
                f"  {shards:<8s}{terms:<7s} one-round: "
                f"{cell(data['one_round'])}"
            )
            lines.append(
                f"  {shards:<8s}{terms:<7s} legacy:    "
                f"{cell(data['legacy'])}  "
                f"(p50 speedup {data['p50_speedup']:.2f}x)"
            )
    quality = report["quality"]
    lines.append(
        f"  ranking quality vs exact eq-1: tau min "
        f"{quality['kendall_tau_min']:.3f}, mean "
        f"{quality['kendall_tau_mean']:.3f} over multi-term queries"
    )
    wire = report["wire"][CODEC_BINARY]
    lines.append(
        f"  wire ({GATE_TERMS} terms, binary): request "
        f"{wire['multi_search_request_bytes']}B, response "
        f"{wire['multi_search_response_bytes']}B, legacy total "
        f"{wire['legacy_total_bytes']}B"
    )
    return "\n".join(lines)


def test_multi_keyword_fastpath_gates():
    """Pytest entry point at smoke scale (the CI multi-keyword step)."""
    report = run_benchmark(
        num_documents=60,
        queries_per_cell=24,
        report_path=SMOKE_REPORT_PATH,
    )
    print(format_report(report))
    assert not check_gates(report), check_gates(report)


# ---------------------------------------------------------------------------
# ranking-quality ablation (Section VIII)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def searchable(bench_index):
    scheme = EfficientRSSE(PAPER_PARAMETERS)
    key = scheme.keygen()
    terms = {stem(word) for query in QUERIES for word in query}
    built = scheme.build_index(key, bench_index, terms=terms)
    return scheme, key, built


def test_multi_keyword_ranking_quality(benchmark, bench_index, searchable):
    scheme, key, built = searchable
    searcher = MultiKeywordSearcher(scheme)

    rows = []
    for query_words in QUERIES:
        terms = [stem(word) for word in query_words]
        query = searcher.make_query(key, terms)
        if len(terms) == 2:
            approx = benchmark.pedantic(
                searcher.search_ranked,
                args=(built.secure_index, query),
                rounds=3,
                iterations=1,
            )
        else:
            approx = searcher.search_ranked(built.secure_index, query)
        truth = true_conjunctive_ranking(bench_index, terms)
        tau = rank_correlation(approx, truth)
        overlap10 = top_k_overlap(truth, approx, 10)
        rows.append((len(terms), len(approx), tau, overlap10))

    lines = [
        "Multi-keyword ranked search: server-side OPM-sum ranking vs "
        "true equation-1 ranking",
        "",
        f"{'terms':>6} {'matches':>8} {'kendall tau':>12} "
        f"{'top-10 overlap':>15}",
    ]
    for terms_count, matches, tau, overlap in rows:
        lines.append(
            f"{terms_count:>6} {matches:>8} {tau:>12.3f} {overlap:>15.2f}"
        )
    # Contrast: the exact client over the basic scheme recovers the
    # true equation-1 order perfectly (at basic-scheme cost).
    basic = BasicRankedSSE(PAPER_PARAMETERS)
    basic_key = basic.keygen()
    two_terms = [stem(word) for word in QUERIES[1]]
    basic_secure = basic.build_index(
        basic_key, bench_index, terms=set(two_terms)
    )
    exact_client = ExactMultiKeywordClient(basic, bench_index.num_files)
    exact = exact_client.search_ranked(basic_key, basic_secure, two_terms)
    exact_truth = true_conjunctive_ranking(bench_index, two_terms)
    exact_tau = rank_correlation(exact, exact_truth)

    lines += [
        "",
        f"exact client (basic scheme, 2 terms): tau = {exact_tau:.3f} "
        "(per-keyword round trips + client-side eq-1 recombination)",
        "",
        "paper: 'new approaches still need to be designed to completely",
        "preserve the order when summing up scores' — the tau < 1 rows",
        "quantify exactly that gap; the exact client shows what it costs",
        "to close it.",
    ]
    write_result("ablation_multi_keyword.txt", "\n".join(lines))

    assert exact_tau == pytest.approx(1.0)

    single_tau = rows[0][2]
    assert single_tau > 0.95  # single keyword: order preserved exactly
    for _, matches, tau, _ in rows[1:]:
        if matches >= 10:
            assert tau > 0.3  # correlated but imperfect: the open problem


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Multi-keyword fast-path benchmark and regression gate"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller workload for a fast CI smoke run",
    )
    parser.add_argument("--docs", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail if one-round qps regressed >30%% vs the committed "
        "baseline or Kendall tau fell below its recorded floor",
    )
    arguments = parser.parse_args()
    documents = arguments.docs or (60 if arguments.smoke else 200)
    per_cell = arguments.queries or (24 if arguments.smoke else 120)
    bench_report = run_benchmark(
        documents,
        per_cell,
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
