"""One benchmark run: set up the deployment, drive it, check every
answer and measure.

Untraced runs measure the end-to-end metrics, traced runs the
per-layer split; README.md defines each metric.
"""

from __future__ import annotations

import copy
import gc
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import time

from repro.cloud.cache import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_RESULT_CACHE_BYTES,
)
from repro.cloud.cluster import (
    DEFAULT_NUM_SHARDS,
    DEFAULT_SHARD_SEED,
    ClusterServer,
    ShardedIndex,
    shard_for_address,
)
from repro.cloud.protocol import peek_kind
from repro.cloud.store import PackedStore
from repro.obs import Obs, load_jsonl

import check
import layers
from deployment import (
    PSS_METHOD,
    SeededMaintainer,
    ServerProcess,
    copy_blobs,
    delta_log_totals,
    set_up,
)
from traffic import (
    InsertLane,
    OpFeed,
    ThreadRoute,
    closed_loop,
    replay,
    user_sample,
)
from workload import WORKLOADS, Frames, op_stream, probe_frame, ranked_terms

#: Set-ups per untraced run; ``setup_s`` is their median.  Two, not
#: more: a paper-scale set-up takes ~10 s, and every run must fit the
#: benchmark's time budget.
SETUP_REPEATS = 2
WARMUP_S = 1.5
USER_SAMPLE_READS = 150
#: Ops an untraced run replays through the in-process tier, checked
#: like every other answer.  A fixed count of whole op blocks, so one
#: seed's response digest compares byte for byte across runs.
INPROC_OPS = {"hot_search": 3000, "tail_search": 400, "search_insert": 243}
#: Ops per phase of a traced run (warm-up, then measured), served once
#: untraced and once traced.  The traced server ships every span and
#: leakage event in one admin frame of at most 16 MiB.
TRACE_WARMUP_OPS = {"hot_search": 400, "tail_search": 400, "search_insert": 250}
TRACE_OPS = {"hot_search": 800, "tail_search": 800, "search_insert": 550}


def clients() -> int:
    """Closed-loop connections.  ``DataUser`` blocks on every reply, so
    each keeps one request outstanding."""
    return min(2, len(os.sched_getaffinity(0)))


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "sched_affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pss": PSS_METHOD,
        "clients": clients(),
    }


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 without samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def first_ops(spec, seed: int, terms, count: int) -> list:
    stream = enumerate(op_stream(spec.name, seed, terms))
    return list(itertools.islice(stream, count))


def sample_ops(spec, seed: int, terms) -> list:
    """The stream's first reads, for the ``DataUser`` sample."""
    reads = (
        item
        for item in enumerate(op_stream(spec.name, seed, terms))
        if item[1][0] != "insert"
    )
    return list(itertools.islice(reads, USER_SAMPLE_READS))


def insert_lane(deployment, owner, spec) -> InsertLane | None:
    if not spec.inserts:
        return None
    route = ThreadRoute()
    return InsertLane(
        SeededMaintainer(owner, route, spec.codec),
        route,
        deployment.insert_document,
    )


def replay_inproc(deployment, ops, frames, inserts, obs=None):
    """``ops`` through the in-process tier: ``ClusterServer`` with 4
    shards and the server's cache settings, over the deployment as it
    was set up."""
    cluster = ClusterServer(
        ShardedIndex.from_secure_index(
            deployment.outsourcing.secure_index, DEFAULT_NUM_SHARDS
        ),
        copy_blobs(deployment.outsourcing.blob_store),
        can_rank=True,
        cache_searches=True,
        cache_capacity=DEFAULT_CACHE_CAPACITY * DEFAULT_NUM_SHARDS,
        result_cache_bytes=DEFAULT_RESULT_CACHE_BYTES,
        update_token=deployment.owner.update_token,
        obs=obs,
    )
    try:
        return replay(cluster.handle, ops, frames, inserts)
    finally:
        cluster.close()


def run(workload: str, seed: int, seconds: float, trace: bool, work):
    """Returns ``(metrics, failures, attempted, record)``."""
    spec = WORKLOADS[workload]
    metrics, failures, attempted, record = (traced if trace else untraced)(
        spec, seed, seconds, work
    )
    record["machine"] = machine()
    return metrics, failures, attempted, record


def untraced(spec, seed: int, seconds: float, work):
    def probe(owner):
        return probe_frame(owner, spec.codec)

    setups = []
    deployment = server = None
    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
                shutil.rmtree(deployment.root)
            deployment, server, setup_s, _ = set_up(
                seed, work / f"setup-{repeat}", spec.store, probe
            )
            setups.append(setup_s)
        terms = ranked_terms(deployment.owner)
        frames = Frames(deployment.owner, spec.codec)
        # The set-up's objects live on; keep the load generator's own
        # collector from rescanning them during the loop.
        gc.collect()
        gc.freeze()
        feed = OpFeed(op_stream(spec.name, seed, terms))
        lane = insert_lane(deployment, deployment.owner, spec)
        warm = closed_loop(server, clients(), feed, frames, lane, WARMUP_S)
        timed = closed_loop(server, clients(), feed, frames, lane, seconds)
        pss_mb = server.pss_mb()
        inserts = lane.inserts if lane else []
        sample = user_sample(
            server,
            deployment,
            spec.codec,
            sample_ops(spec, seed, terms),
            len(inserts),
        )
    finally:
        if server is not None:
            server.stop()
    inproc = replay_inproc(
        deployment,
        first_ops(spec, seed, terms, INPROC_OPS[spec.name]),
        frames,
        inserts,
    )
    checking = time.perf_counter()
    phases = (warm, timed, sample, inproc)
    failures = [failure for phase in phases for failure in phase.failures]
    failures += check.answers(
        deployment,
        [read for phase in phases for read in phase.reads],
        inserts,
        frames.addresses,
    )
    check_s = time.perf_counter() - checking
    searches = [r.latency_s for r in timed.reads if r.op[0] == "search"]
    multis = [r.latency_s for r in timed.reads if r.op[0] == "multi"]
    insert_s = [insert.latency_s for insert in timed.inserts]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": timed.ops_per_s,
        "search_p50_ms": percentile(searches, 0.50) * 1e3,
        "search_p95_ms": percentile(searches, 0.95) * 1e3,
        "resp_bytes_per_op": timed.response_bytes / timed.completed,
        "server_pss_mb": pss_mb,
    }
    record = {
        "digest": inproc.digest,
        "user_search_p50_ms": percentile(sample.latencies, 0.50) * 1e3,
        "setup_s_each": setups,
        "check_s": check_s,
        "samples": {
            "search": len(searches),
            "multi": len(multis),
            "insert": len(insert_s),
            "user": len(sample.latencies),
            "inproc": len(inproc.latencies),
        },
    }
    # Latencies of op types only some workloads have: not end-to-end
    # metrics (every workload must report those), so recorded here.
    if multis:
        record["multi_p50_ms"] = percentile(multis, 0.50) * 1e3
        record["multi_p99_ms"] = percentile(multis, 0.99) * 1e3
    if insert_s:
        record["insert_p50_ms"] = percentile(insert_s, 0.50) * 1e3
        record["insert_p95_ms"] = percentile(insert_s, 0.95) * 1e3
    attempted = sum(phase.attempted for phase in phases)
    return metrics, failures, attempted, record


def store_lookup_us(deployment, store: str, frames, ops) -> float:
    """Mean index lookup, on the workload's store, over the addresses
    the ops read."""
    addresses = [
        address
        for _, op in ops
        if op[0] != "insert"
        for address in frames.addresses(op)
    ]
    shards = []
    if store == "packed":
        shards = [
            PackedStore(deployment.root / "shards" / f"shard-{shard}.rpk")
            for shard in range(DEFAULT_NUM_SHARDS)
        ]
        calls = [
            (
                shards[
                    shard_for_address(
                        address, DEFAULT_NUM_SHARDS, DEFAULT_SHARD_SEED
                    )
                ].lookup,
                address,
            )
            for address in addresses
        ]
    else:
        lookup = deployment.outsourcing.secure_index.lookup
        calls = [(lookup, address) for address in addresses]
    try:
        started = time.perf_counter()
        for lookup, address in calls:
            lookup(address)
        return (time.perf_counter() - started) / len(calls) * 1e6
    finally:
        for shard in shards:
            shard.close()


def admin_view(server):
    """The traced server's merged cluster artifact and health section."""
    with server.channel() as channel:
        dump = load_jsonl(channel.admin("jsonl").decode("utf-8"))
        return dump, json.loads(channel.admin("health"))


def encode_s(frames, reads) -> float:
    """Mean time to encode the reads' request frames afresh."""
    times = []
    for read in reads:
        started = time.perf_counter()
        frames.encode(read.op)
        times.append(time.perf_counter() - started)
    return mean(times)


def traced(spec, seed: int, seconds: float, work):
    """Set up once; serve the same op prefix untraced, then on a traced
    copy of the server; split the traced requests into layers."""

    def probe(owner):
        return probe_frame(owner, spec.codec)

    deployment, server_a, _, setup_phases = set_up(
        seed, work / "a", spec.store, probe
    )
    servers = [server_a]
    try:
        owner = deployment.owner
        terms = ranked_terms(owner)
        frames = Frames(owner, spec.codec)
        warm_ops, loop_ops = TRACE_WARMUP_OPS[spec.name], TRACE_OPS[spec.name]
        ops = first_ops(spec, seed, terms, warm_ops + loop_ops)
        lookup_us = store_lookup_us(deployment, spec.store, frames, ops)
        shutil.copytree(deployment.root, work / "b")
        lane_b = insert_lane(deployment, copy.deepcopy(owner), spec)
        server_b = ServerProcess(work / "b", owner.update_token, obs=True)
        servers.append(server_b)

        def drive(server, lane, between=lambda: None):
            feed = OpFeed(op_stream(spec.name, seed, terms))
            feed.limit(warm_ops)
            warm = closed_loop(server, clients(), feed, frames, lane)
            before = between()
            feed.limit(loop_ops)
            loop = closed_loop(server, clients(), feed, frames, lane)
            return warm, loop, before

        lane_a = insert_lane(deployment, owner, spec)
        warm_a, loop_a, _ = drive(server_a, lane_a)
        warm_b, loop_b, (dump0, health0) = drive(
            server_b, lane_b, lambda: admin_view(server_b)
        )
        dump1, health1 = admin_view(server_b)
        inserts = lane_a.inserts if lane_a else []
        sample = user_sample(
            server_a,
            deployment,
            spec.codec,
            sample_ops(spec, seed, terms),
            len(inserts),
        )
        delta_records, delta_bytes = delta_log_totals(deployment.root)
    finally:
        for server in servers:
            server.stop()
    inproc = replay_inproc(deployment, ops, frames, inserts)
    measured = inproc.latencies[warm_ops:]
    obs = Obs.enabled()
    inproc_traced = replay_inproc(deployment, ops, frames, inserts, obs)

    observations, failures = check.leakage(
        dump1, warm_b.reads + loop_b.reads, frames.addresses
    )
    if lane_b and [(i.frames, i.acks) for i in lane_b.inserts] != [
        (i.frames, i.acks) for i in inserts
    ]:
        failures.append("the traced server got other insert frames or acks")
    phases = (warm_a, loop_a, warm_b, loop_b, sample, inproc, inproc_traced)
    failures += [failure for phase in phases for failure in phase.failures]
    failures += check.answers(
        deployment,
        [read for phase in phases for read in phase.reads],
        inserts,
        frames.addresses,
    )

    after = layers.last_request_id(dump0)
    splits = layers.request_splits(dump1, after)
    search, multi = splits["search"], splits["multi-search"]
    update = splits["update-list"]
    searches = [read for read in loop_b.reads if read.op[0] == "search"]
    multis = [read for read in loop_b.reads if read.op[0] == "multi"]
    cache0, cache1 = health0["result_cache"], health1["result_cache"]
    hits = cache1["hits"] - cache0["hits"]
    lookups = hits + cache1["misses"] - cache0["misses"]
    update_s = [
        seconds
        for insert in loop_b.inserts
        for frame, seconds in zip(insert.frames, insert.frame_s)
        if peek_kind(frame) == "update-list"
    ]
    multi_a = [read.latency_s for read in loop_a.reads if read.op[0] == "multi"]
    per_insert = len(inserts) or 1
    metrics = {
        "client.trapdoor_us": mean(frames.trapdoor_s) * 1e6,
        "client.encode_us": encode_s(frames, searches) * 1e6,
        "client.decode_us": mean(read.decode_s for read in searches) * 1e6,
        "client.decrypt_ms": mean(sample.decrypt_s) * 1e3,
        "user_search_p50_ms": percentile(sample.latencies, 0.50) * 1e3,
        "client.cpu_ms_per_op": loop_a.cpu_s / loop_a.completed * 1e3,
        "search.client_us": mean(read.latency_s for read in searches) * 1e6,
        "transport.us": (
            mean(read.call_s for read in searches) - search.net_request
        )
        * 1e6,
        "frontend.self_us": search.frontend_self * 1e6,
        "frontend.hit_us": search.hit_net_request * 1e6,
        "frontend.overload_rejections": health1["overload_rejections"]
        - health0["overload_rejections"],
        "result_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "result_cache.coalesced": cache1["coalesced"] - cache0["coalesced"],
        "result_cache.invalidations": cache1["invalidations"]
        - cache0["invalidations"],
        "result_cache.resident_bytes": cache1["resident_bytes"],
        "server.handle_us": search.worker * 1e6,
        "server.trapdoor_us": search.phases["trapdoor"] * 1e6,
        "server.postings_us": search.phases["postings"] * 1e6,
        "server.rank_us": search.phases["rank"] * 1e6,
        "server.files_us": search.phases["files"] * 1e6,
        "server.cache_us": search.phases["cache"] * 1e6,
        "server.self_us": search.server_self * 1e6,
        "server.ranked_cache_hit_ratio": layers.ranked_cache_hit_ratio(
            dump1, after
        ),
        "multi.client_us": mean(read.latency_s for read in multis) * 1e6,
        "multi.encode_us": encode_s(frames, multis) * 1e6,
        "multi.decode_us": mean(read.decode_s for read in multis) * 1e6,
        "multi.transport_us": (
            mean(read.call_s for read in multis) - multi.net_request
        )
        * 1e6,
        "multi.frontend_self_us": multi.frontend_self * 1e6,
        "multi.server_handle_us": multi.worker * 1e6,
        "multi.server_trapdoor_us": multi.phases["trapdoor"] * 1e6,
        "multi.server_postings_us": multi.phases["postings"] * 1e6,
        "multi.server_aggregate_us": multi.phases["aggregate"] * 1e6,
        "multi.server_files_us": multi.phases["files"] * 1e6,
        "multi.server_self_us": multi.server_self * 1e6,
        "multi_p50_ms": percentile(multi_a, 0.50) * 1e3,
        "multi_p95_ms": percentile(multi_a, 0.95) * 1e3,
        "cluster.coordinator_us": layers.coordinator_self_s(
            obs.tracer.spans, inproc_traced.latencies
        )
        * 1e6,
        "inproc_ops_per_s": len(measured) / sum(measured),
        "inproc_p50_ms": percentile(measured, 0.50) * 1e3,
        "cluster.inproc_p99_ms": percentile(measured, 0.99) * 1e3,
        "net_vs_inproc_ratio": loop_a.ops_per_s * sum(measured) / len(measured),
        "store.lookup_us": lookup_us,
        "store.fsyncs_per_insert": delta_records / per_insert,
        "store.delta_bytes_per_insert": delta_bytes / per_insert,
        "insert_p50_ms": percentile([i.latency_s for i in inserts], 0.50)
        * 1e3,
        "owner.build_ms_per_insert": mean(
            insert.latency_s - sum(insert.frame_s) for insert in inserts
        )
        * 1e3,
        "owner.frames_per_insert": mean(len(i.frames) for i in inserts),
        "owner.update_rtt_us": mean(s for i in inserts for s in i.frame_s)
        * 1e6,
        "update.transport_us": (mean(update_s) - update.net_request) * 1e6,
        "update.frontend_self_us": update.frontend_self * 1e6,
        "update.server_handle_us": update.worker * 1e6,
        **{f"setup.{name}": value for name, value in setup_phases.items()},
        "trace.overhead_frac": 1 - loop_b.ops_per_s / loop_a.ops_per_s,
        "leakage.observations": observations,
    }
    record = {
        "samples": {
            "search": len(searches),
            "multi": len(multis),
            "insert": len(inserts),
            "inproc": len(inproc.latencies),
        },
        "traced_spans": len(dump1.spans),
        "leakage_events": len(dump1.leakage),
    }
    attempted = sum(phase.attempted for phase in phases)
    return metrics, failures, attempted, record
