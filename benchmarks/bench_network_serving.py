"""Loopback network-serving benchmark — the regression gate for
``repro.cloud.netserve``.

Measures the full socket path (frame encode → TCP loopback → asyncio
front end → fork-worker pipe → ``CloudServer.handle`` → back) against
the in-process :class:`~repro.cloud.cluster.ClusterServer` reference
over an identical cold, decryption-heavy workload:

* **inprocess** — ``ClusterServer`` (4 shards, thread fan-out):
  sequential ``handle`` QPS and grouped ``handle_many`` batch QPS;
* **network pipelined** — one :class:`NetworkChannel`, requests
  pushed ``call_many``-deep so every shard worker process stays busy;
* **network threads** — one channel per client thread, sequential
  calls (the many-concurrent-users shape).

Responses are asserted byte-identical to the in-process reference
(both codecs) before anything is timed.

The throughput gate is CPU-aware: worker *processes* can only beat
the in-process thread fan-out when there are cores to run them on.
With >= 4 cores the best network cell must reach 1.5x the best
in-process cell; with 2-3 cores, 1.1x; on a single core the network
path cannot win (every byte crosses the loopback *and* a worker pipe
for zero added parallelism) and the gate becomes an overhead floor:
the socket path must still deliver >= 0.25x in-process throughput.
The core count is recorded in the report so a committed baseline is
never compared across machine shapes.

The report lands in ``benchmarks/results/BENCH_network.json``
(``--smoke`` runs and the pytest entry point write the gitignored
``BENCH_network.smoke.json`` instead);
``--check-baseline`` adds a 30% floor against the committed
``BENCH_network_baseline.json`` (skipped with a warning when the core
counts differ).

Run standalone (``python benchmarks/bench_network_serving.py
[--smoke] [--check-baseline]``) or through pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cloud.cluster import ClusterServer
from repro.cloud.netserve import NetServer, NetworkChannel
from repro.cloud.protocol import CODEC_BINARY, CODEC_JSON, SearchRequest
from repro.cloud.storage import BlobStore
from repro.core import TEST_PARAMETERS, EfficientRSSE
from repro.ir.inverted_index import InvertedIndex
from repro.obs import Obs
from repro.obs.export import load_jsonl, validate_records

NUM_SHARDS = 4
TOP_K = 10
BLOB_BYTES = 2048
DOCS_PER_KEYWORD = 20
BASELINE_TOLERANCE = 0.30
TELEMETRY_QUERIES = 24

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_network_baseline.json"
REPORT_PATH = RESULTS_DIR / "BENCH_network.json"
#: Where ``--smoke`` runs (and the pytest entry point) write instead:
#: gitignored, so a local gate run never overwrites the committed report.
SMOKE_REPORT_PATH = RESULTS_DIR / "BENCH_network.smoke.json"
TELEMETRY_PATH = RESULTS_DIR / "obs_network_cluster.jsonl"


def available_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def required_speedup(cores: int) -> float:
    """The network-vs-inprocess gate for this machine shape."""
    if cores >= 4:
        return 1.5
    if cores >= 2:
        return 1.1
    return 0.25


def build_deployment(keywords: int):
    """A cold, decryption-heavy deployment: every query decrypts a
    ``DOCS_PER_KEYWORD``-entry posting list and ships ``TOP_K`` blobs.
    """
    scheme = EfficientRSSE(TEST_PARAMETERS)
    key = scheme.keygen()
    index = InvertedIndex()
    blobs = BlobStore()
    for position in range(keywords * DOCS_PER_KEYWORD):
        doc_id = f"d{position:06d}"
        index.add_document(
            doc_id, [f"kw{position % keywords:03d}"] * 3
        )
        blobs.put(
            doc_id, (doc_id.encode("utf-8") * BLOB_BYTES)[:BLOB_BYTES]
        )
    built = scheme.build_index(key, index)
    return scheme, key, built.secure_index, blobs


def encode_requests(scheme, key, keywords, codec, repeats):
    encoded = [
        SearchRequest(
            trapdoor_bytes=scheme.trapdoor(key, keyword).serialize(),
            top_k=TOP_K,
        ).to_bytes(codec)
        for keyword in keywords
    ]
    return [encoded[i % len(encoded)] for i in range(repeats)]


def check_equivalence(cluster, channel, requests) -> None:
    """The socket path must be byte-identical to the in-process path."""
    for request_bytes in requests:
        if channel.call(request_bytes) != cluster.handle(request_bytes):
            raise AssertionError(
                "network serving diverged from the in-process reference"
            )


def time_sequential(handler, requests) -> float:
    start = time.perf_counter()
    for request_bytes in requests:
        handler(request_bytes)
    return len(requests) / (time.perf_counter() - start)


def time_batches(handler_many, requests, batch_size: int) -> float:
    start = time.perf_counter()
    for begin in range(0, len(requests), batch_size):
        handler_many(requests[begin : begin + batch_size])
    return len(requests) / (time.perf_counter() - start)


def time_threaded_clients(
    host: str, port: int, requests, num_threads: int
) -> float:
    """Each thread runs its own connection over a slice of the load."""
    slices = [requests[i::num_threads] for i in range(num_threads)]
    barrier = threading.Barrier(num_threads + 1)

    def client(batch):
        with NetworkChannel(host, port) as channel:
            barrier.wait()
            for request_bytes in batch:
                channel.call(request_bytes)

    threads = [
        threading.Thread(target=client, args=(piece,), daemon=True)
        for piece in slices
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return len(requests) / (time.perf_counter() - start)


def dump_cluster_telemetry(secure_index, blobs, workload) -> dict:
    """Post-timing telemetry pass: the merged cluster artifact.

    Served on a *separate*, obs-enabled server so the timed cells
    above keep measuring the obs-free path (the overhead guard for
    obs lives in the test suite, not here).  Dumps the merged
    frontend + per-worker JSONL to ``obs_network_cluster.jsonl`` and
    schema-checks it before returning a summary for the report.
    """
    obs = Obs.enabled()
    with NetServer(
        secure_index, blobs, can_rank=True, num_shards=NUM_SHARDS, obs=obs
    ) as server, NetworkChannel(server.host, server.port) as channel:
        for request_bytes in workload[:TELEMETRY_QUERIES]:
            channel.call(request_bytes)
        artifact = server.export_cluster_jsonl()
    problems = validate_records(artifact)
    if problems:
        raise AssertionError(
            f"merged cluster artifact failed schema check: {problems}"
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    TELEMETRY_PATH.write_text(artifact)
    dump = load_jsonl(artifact)
    workers = sorted(
        {
            str(span.attrs["worker"])
            for span in dump.spans
            if "worker" in span.attrs
        }
    )
    return {
        "path": str(TELEMETRY_PATH.relative_to(RESULTS_DIR.parent)),
        "queries": TELEMETRY_QUERIES,
        "spans": len(dump.spans),
        "metric_points": len(dump.metrics),
        "leakage_events": len(dump.leakage),
        "workers": workers,
    }


def run_benchmark(
    keywords: int,
    queries: int,
    batch_size: int = 32,
    report_path: Path = REPORT_PATH,
) -> dict:
    scheme, key, secure_index, blobs = build_deployment(keywords)
    names = [f"kw{i:03d}" for i in range(keywords)]
    workload = encode_requests(scheme, key, names, CODEC_BINARY, queries)
    golden = encode_requests(
        scheme, key, names[: min(8, keywords)], CODEC_JSON, 8
    ) + encode_requests(
        scheme, key, names[: min(8, keywords)], CODEC_BINARY, 8
    )

    cells: dict[str, float] = {}
    with ClusterServer(
        secure_index,
        blobs,
        can_rank=True,
        num_shards=NUM_SHARDS,
        log_capacity=256,
    ) as cluster:
        with NetServer(
            secure_index, blobs, can_rank=True, num_shards=NUM_SHARDS
        ) as server, NetworkChannel(server.host, server.port) as channel:
            check_equivalence(cluster, channel, golden)
            cells["network_pipelined_qps"] = time_batches(
                channel.call_many, workload, batch_size
            )
            cells["network_threads_qps"] = time_threaded_clients(
                server.host, server.port, workload, NUM_SHARDS
            )
        cells["inprocess_sequential_qps"] = time_sequential(
            cluster.handle, workload
        )
        cells["inprocess_batch_qps"] = time_batches(
            cluster.handle_many, workload, batch_size
        )

    telemetry = dump_cluster_telemetry(secure_index, blobs, workload)

    cores = available_cores()
    network_best = max(
        cells["network_pipelined_qps"], cells["network_threads_qps"]
    )
    inprocess_best = max(
        cells["inprocess_sequential_qps"], cells["inprocess_batch_qps"]
    )
    report = {
        "parameters": {
            "keywords": keywords,
            "queries": queries,
            "batch_size": batch_size,
            "num_shards": NUM_SHARDS,
            "top_k": TOP_K,
            "blob_bytes": BLOB_BYTES,
            "docs_per_keyword": DOCS_PER_KEYWORD,
        },
        "cores": cores,
        "cells": cells,
        "network_best_qps": network_best,
        "inprocess_best_qps": inprocess_best,
        "network_speedup": network_best / inprocess_best,
        "required_speedup": required_speedup(cores),
        "telemetry": telemetry,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gates(report: dict) -> list[str]:
    """CPU-aware throughput gate; returns failure messages (empty = ok)."""
    failures = []
    measured = report["network_speedup"]
    needed = report["required_speedup"]
    if measured < needed:
        failures.append(
            f"network serving at {measured:.2f}x the in-process path is "
            f"below the {needed:.2f}x gate for {report['cores']} core(s)"
        )
    return failures


def check_baseline(report: dict) -> list[str]:
    """30% floor vs the committed baseline (same machine shape only)."""
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
    for cell in ("network_pipelined_qps", "inprocess_batch_qps"):
        floor = baseline["cells"][cell] * (1.0 - BASELINE_TOLERANCE)
        measured = report["cells"][cell]
        if measured < floor:
            failures.append(
                f"{cell} at {measured:,.0f} qps is more than "
                f"{BASELINE_TOLERANCE:.0%} below the baseline floor "
                f"({floor:,.0f})"
            )
    return failures


def format_report(report: dict) -> str:
    parameters = report["parameters"]
    cells = report["cells"]
    return "\n".join(
        [
            "Network serving "
            f"(keywords={parameters['keywords']}, "
            f"queries={parameters['queries']}, "
            f"shards={parameters['num_shards']}, "
            f"cores={report['cores']})",
            "  network  pipelined: "
            f"{cells['network_pipelined_qps']:>9,.0f} qps",
            "  network  threads:   "
            f"{cells['network_threads_qps']:>9,.0f} qps",
            "  inproc   sequential:"
            f"{cells['inprocess_sequential_qps']:>9,.0f} qps",
            "  inproc   batch:     "
            f"{cells['inprocess_batch_qps']:>9,.0f} qps",
            f"  network vs in-process: {report['network_speedup']:.2f}x "
            f"(gate {report['required_speedup']:.2f}x "
            f"at {report['cores']} core(s))",
            "  cluster telemetry:   "
            f"{report['telemetry']['spans']} spans, "
            f"{report['telemetry']['metric_points']} metric points, "
            f"{report['telemetry']['leakage_events']} leakage events "
            f"from workers {report['telemetry']['workers']} "
            f"-> {report['telemetry']['path']}",
        ]
    )


def test_network_serving_gates():
    """Pytest entry point at smoke scale (the CI network-smoke step)."""
    report = run_benchmark(
        keywords=8, queries=160, report_path=SMOKE_REPORT_PATH
    )
    print(format_report(report))
    assert not check_gates(report), check_gates(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Loopback network-serving benchmark and regression gate"
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
    keyword_count = arguments.keywords or (8 if arguments.smoke else 16)
    query_count = arguments.queries or (160 if arguments.smoke else 640)
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
