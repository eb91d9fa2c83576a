"""Hot-query fast-lane benchmark — the regression gate for the
front-end result cache in ``repro.cloud.netserve``.

A Zipfian query workload (most traffic concentrated on a few hot
keywords — the shape the fast lane is built for) is served twice over
real TCP loopback at 4 shards:

* **warm** — the PR-9 warm path: per-shard search-context caching on
  (``cache_searches=True``), front-end result cache *off*.  Every
  query still crosses the fork-worker pipe and re-encodes its
  response;
* **cached** — the same server with ``result_cache_bytes`` set.  Hot
  queries are answered from the asyncio front end out of the
  pre-encoded frame cache with zero worker IPC.

Before anything is timed, both deployments are asserted byte-identical
on a golden frame set in both codecs (cold *and* hit responses).

Gates (machine-independent):

* hot-set p50 latency with the cache on must be >= 3x faster than the
  warm path (the ISSUE acceptance floor);
* a pipelined burst of identical cold queries on one connection must
  dispatch at most 2 worker round trips — the rest coalesce behind the
  single-flight leader, proven via the cache's ``misses`` counter
  (which counts actual worker dispatches through the cached path).

The report lands in ``benchmarks/results/BENCH_hot_query.json``
(``--smoke`` runs and the pytest entry point write the gitignored
``BENCH_hot_query.smoke.json`` instead);
``--check-baseline`` adds a 30% throughput floor against the committed
``BENCH_hot_query_baseline.json`` (skipped with a note when the core
counts differ — latency on a different machine shape is not
comparable).

Run standalone (``python benchmarks/bench_hot_query_cache.py
[--smoke] [--check-baseline]``) or through pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cloud.netserve import NetServer, NetworkChannel
from repro.cloud.protocol import CODEC_BINARY, CODEC_JSON, SearchRequest
from repro.cloud.storage import BlobStore
from repro.core import TEST_PARAMETERS, EfficientRSSE
from repro.corpus.workload import hot_set, zipf_queries
from repro.ir.inverted_index import InvertedIndex

NUM_SHARDS = 4
TOP_K = 8
BLOB_BYTES = 3072
DOCS_PER_KEYWORD = 20
ZIPF_EXPONENT = 1.1
WORKLOAD_SEED = 2010
HOT_FRACTION = 0.9
RESULT_CACHE_BYTES = 32 << 20
BURST_SIZE = 16
BURST_WORKER_DELAY_S = 0.05
MAX_BURST_DISPATCHES = 2
REQUIRED_HOT_SPEEDUP = 3.0
BASELINE_TOLERANCE = 0.30

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_hot_query_baseline.json"
REPORT_PATH = RESULTS_DIR / "BENCH_hot_query.json"
#: Where ``--smoke`` runs (and the pytest entry point) write instead:
#: gitignored, so a local gate run never overwrites the committed report.
SMOKE_REPORT_PATH = RESULTS_DIR / "BENCH_hot_query.smoke.json"


def available_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def build_deployment(keywords: int):
    """A decryption-heavy deployment: every query decrypts a
    ``DOCS_PER_KEYWORD``-entry posting list and ships ``TOP_K`` blobs.
    """
    scheme = EfficientRSSE(TEST_PARAMETERS)
    key = scheme.keygen()
    index = InvertedIndex()
    blobs = BlobStore()
    for position in range(keywords * DOCS_PER_KEYWORD):
        doc_id = f"d{position:06d}"
        index.add_document(doc_id, [f"kw{position % keywords:03d}"] * 3)
        blobs.put(
            doc_id, (doc_id.encode("utf-8") * BLOB_BYTES)[:BLOB_BYTES]
        )
    built = scheme.build_index(key, index)
    return scheme, key, built.secure_index, blobs


def encode_frames(scheme, key, names, codec) -> dict[str, bytes]:
    """One request frame per keyword — trapdoors are deterministic, so
    repeats of a hot keyword are byte-identical (what the cache keys on).
    """
    return {
        name: SearchRequest(
            trapdoor_bytes=scheme.trapdoor(key, name).serialize(),
            top_k=TOP_K,
        ).to_bytes(codec)
        for name in names
    }


def percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def check_equivalence(secure_index, blobs, scheme, key, names) -> None:
    """Cached responses (cold fill *and* hot hit) must be byte-identical
    to the cache-off server in both codecs before anything is timed.
    """
    golden = {
        codec: encode_frames(scheme, key, names, codec)
        for codec in (CODEC_JSON, CODEC_BINARY)
    }
    with NetServer(
        secure_index,
        blobs,
        can_rank=True,
        num_shards=NUM_SHARDS,
        cache_searches=True,
    ) as plain, NetServer(
        secure_index,
        blobs,
        can_rank=True,
        num_shards=NUM_SHARDS,
        cache_searches=True,
        result_cache_bytes=RESULT_CACHE_BYTES,
    ) as cached, NetworkChannel(
        plain.host, plain.port
    ) as plain_channel, NetworkChannel(
        cached.host, cached.port
    ) as cached_channel:
        for frames in golden.values():
            for frame in frames.values():
                expected = plain_channel.call(frame)
                cold = cached_channel.call(frame)
                hit = cached_channel.call(frame)
                if cold != expected or hit != expected:
                    raise AssertionError(
                        "result cache diverged from the cache-off "
                        "reference"
                    )


def time_workload(
    secure_index, blobs, frames, terms, hot, result_cache_bytes
) -> dict:
    """Per-request latency over the Zipfian workload on one connection.

    A priming pass over the *distinct* frames warms both layers the
    same way (search contexts on the warm server, search contexts plus
    the result cache on the cached server), so the timed cell compares
    steady-state hot traffic rather than first-touch fills.
    """
    with NetServer(
        secure_index,
        blobs,
        can_rank=True,
        num_shards=NUM_SHARDS,
        cache_searches=True,
        result_cache_bytes=result_cache_bytes,
    ) as server, NetworkChannel(server.host, server.port) as channel:
        for frame in frames.values():
            channel.call(frame)
        samples: list[tuple[str, float]] = []
        start = time.perf_counter()
        for term in terms:
            begin = time.perf_counter()
            channel.call(frames[term])
            samples.append((term, time.perf_counter() - begin))
        elapsed = time.perf_counter() - start
        cell = summarize(samples, hot)
        cell["qps"] = len(terms) / elapsed
        if server.result_cache is not None:
            cell["cache"] = server.result_cache.stats()
        return cell


def summarize(samples: list[tuple[str, float]], hot: set[str]) -> dict:
    latencies = sorted(latency for _, latency in samples)
    hot_latencies = sorted(
        latency for term, latency in samples if term in hot
    )
    return {
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "hot_p50_ms": percentile(hot_latencies, 0.50) * 1e3,
        "hot_p99_ms": percentile(hot_latencies, 0.99) * 1e3,
        "hot_queries": len(hot_latencies),
    }


def measure_burst(secure_index, blobs, frame) -> dict:
    """A cold pipelined burst of one frame: single-flight coalescing
    must collapse it to at most ``MAX_BURST_DISPATCHES`` worker round
    trips.  ``worker_delay_s`` holds the leader in the worker long
    enough that every follower arrives while it is still in flight.
    """
    with NetServer(
        secure_index,
        blobs,
        can_rank=True,
        num_shards=NUM_SHARDS,
        cache_searches=True,
        result_cache_bytes=RESULT_CACHE_BYTES,
        worker_delay_s=BURST_WORKER_DELAY_S,
    ) as server, NetworkChannel(server.host, server.port) as channel:
        responses = channel.call_many([frame] * BURST_SIZE)
        if len(set(responses)) != 1:
            raise AssertionError("coalesced burst responses diverged")
        stats = server.result_cache.stats()
        return {
            "burst_size": BURST_SIZE,
            "worker_dispatches": stats["misses"],
            "coalesced": stats["coalesced"],
            "hits": stats["hits"],
        }


def run_benchmark(
    keywords: int, queries: int, report_path: Path = REPORT_PATH
) -> dict:
    scheme, key, secure_index, blobs = build_deployment(keywords)
    names = [f"kw{i:03d}" for i in range(keywords)]
    terms = zipf_queries(
        names, queries, exponent=ZIPF_EXPONENT, seed=WORKLOAD_SEED
    )
    hot = set(hot_set(names, terms, fraction=HOT_FRACTION))
    frames = encode_frames(scheme, key, names, CODEC_BINARY)

    check_equivalence(
        secure_index, blobs, scheme, key, names[: min(8, keywords)]
    )
    warm = time_workload(secure_index, blobs, frames, terms, hot, None)
    cached = time_workload(
        secure_index, blobs, frames, terms, hot, RESULT_CACHE_BYTES
    )
    burst = measure_burst(secure_index, blobs, frames[names[0]])

    report = {
        "parameters": {
            "keywords": keywords,
            "queries": queries,
            "num_shards": NUM_SHARDS,
            "top_k": TOP_K,
            "blob_bytes": BLOB_BYTES,
            "docs_per_keyword": DOCS_PER_KEYWORD,
            "zipf_exponent": ZIPF_EXPONENT,
            "hot_fraction": HOT_FRACTION,
            "hot_set_size": len(hot),
            "result_cache_bytes": RESULT_CACHE_BYTES,
        },
        "cores": available_cores(),
        "warm": warm,
        "cached": cached,
        "hot_p50_speedup": warm["hot_p50_ms"] / cached["hot_p50_ms"],
        "required_hot_speedup": REQUIRED_HOT_SPEEDUP,
        "burst": burst,
        "max_burst_dispatches": MAX_BURST_DISPATCHES,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gates(report: dict) -> list[str]:
    """Machine-independent gates; returns failure messages (empty = ok)."""
    failures = []
    speedup = report["hot_p50_speedup"]
    if speedup < report["required_hot_speedup"]:
        failures.append(
            f"hot-set p50 with the result cache is only {speedup:.2f}x "
            f"the warm path, below the "
            f"{report['required_hot_speedup']:.1f}x gate"
        )
    dispatches = report["burst"]["worker_dispatches"]
    if dispatches > report["max_burst_dispatches"]:
        failures.append(
            f"a {report['burst']['burst_size']}-query identical burst "
            f"dispatched {dispatches} worker round trips "
            f"(gate: <= {report['max_burst_dispatches']})"
        )
    return failures


def check_baseline(report: dict) -> list[str]:
    """30% throughput floor vs the committed baseline (same cores only)."""
    if not BASELINE_PATH.exists():
        return [f"no baseline at {BASELINE_PATH}"]
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline["cores"] != report["cores"]:
        print(
            f"note: baseline recorded on {baseline['cores']} core(s), "
            f"running on {report['cores']} — absolute-QPS floor skipped"
        )
        return []
    failures = []
    for cell in ("warm", "cached"):
        floor = baseline[cell]["qps"] * (1.0 - BASELINE_TOLERANCE)
        measured = report[cell]["qps"]
        if measured < floor:
            failures.append(
                f"{cell} path at {measured:,.0f} qps is more than "
                f"{BASELINE_TOLERANCE:.0%} below the baseline floor "
                f"({floor:,.0f})"
            )
    return failures


def format_report(report: dict) -> str:
    parameters = report["parameters"]
    warm = report["warm"]
    cached = report["cached"]
    burst = report["burst"]
    return "\n".join(
        [
            "Hot-query fast lane "
            f"(keywords={parameters['keywords']}, "
            f"queries={parameters['queries']}, "
            f"shards={parameters['num_shards']}, "
            f"zipf s={parameters['zipf_exponent']}, "
            f"hot set={parameters['hot_set_size']} kw, "
            f"cores={report['cores']})",
            f"  warm   path: {warm['qps']:>9,.0f} qps  "
            f"hot p50 {warm['hot_p50_ms']:7.3f} ms  "
            f"hot p99 {warm['hot_p99_ms']:7.3f} ms",
            f"  cached path: {cached['qps']:>9,.0f} qps  "
            f"hot p50 {cached['hot_p50_ms']:7.3f} ms  "
            f"hot p99 {cached['hot_p99_ms']:7.3f} ms",
            f"  hot p50 speedup: {report['hot_p50_speedup']:.2f}x "
            f"(gate {report['required_hot_speedup']:.1f}x)",
            f"  cache: {cached['cache']['hits']} hit(s), "
            f"{cached['cache']['misses']} dispatch(es), "
            f"{cached['cache']['resident_bytes'] / 1024:,.0f} KiB resident",
            f"  burst: {burst['burst_size']} identical queries -> "
            f"{burst['worker_dispatches']} worker dispatch(es), "
            f"{burst['coalesced']} coalesced "
            f"(gate <= {report['max_burst_dispatches']})",
        ]
    )


def test_hot_query_cache_gates():
    """Pytest entry point at smoke scale (the CI hot-query-smoke step)."""
    report = run_benchmark(
        keywords=12, queries=240, report_path=SMOKE_REPORT_PATH
    )
    print(format_report(report))
    assert not check_gates(report), check_gates(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Hot-query result-cache benchmark and regression gate"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller workload for a fast CI smoke run",
    )
    parser.add_argument("--keywords", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail if qps regressed >30%% vs the committed baseline "
        "(same core count only)",
    )
    arguments = parser.parse_args()
    keyword_count = arguments.keywords or (12 if arguments.smoke else 24)
    query_count = arguments.queries or (240 if arguments.smoke else 1200)
    bench_report = run_benchmark(
        keyword_count,
        query_count,
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
