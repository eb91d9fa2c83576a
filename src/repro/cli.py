"""Command-line interface: ``python -m repro <command>``.

A deployment workflow on disk, mirroring the paper's entities:

* ``gen-corpus``  — write a synthetic RFC-style corpus (or bring your
  own directory of ``.txt`` files);
* ``setup``       — data owner: index, encrypt, and package a corpus
  into a deployment directory, saving user credentials separately;
* ``search``      — user + server: load the deployment, run a ranked
  top-k search, print the results;
* ``stats``       — collection statistics and the Section IV-C range
  recommendation for a corpus.

Example session::

    python -m repro gen-corpus --docs 200 --out /tmp/corpus
    python -m repro setup --corpus /tmp/corpus --out /tmp/cloud \
        --credentials /tmp/user.cred
    python -m repro search --deployment /tmp/cloud \
        --credentials /tmp/user.cred --keyword network -k 5
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.cloud import Channel, CloudServer, DataOwner, DataUser
from repro.cloud.persistence import (
    load_credentials,
    load_outsourcing,
    save_credentials,
    save_outsourcing,
)
from repro.core import BasicRankedSSE, EfficientRSSE, minimal_range_bits
from repro.corpus import generate_corpus, load_directory
from repro.errors import ReproError
from repro.ir import Analyzer, InvertedIndex, ScoreQuantizer
from repro.ir.stats import collection_stats, duplicate_stats


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    documents = generate_corpus(args.docs, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for document in documents:
        (out / f"{document.doc_id}.txt").write_text(document.text)
    print(f"wrote {len(documents)} documents to {out}")
    return 0


def _load_corpus(path: str):
    return load_directory(path, pattern="*.txt")


def _scheme_for(kind: str):
    if kind == "rsse":
        return EfficientRSSE()
    if kind == "basic":
        return BasicRankedSSE()
    raise ReproError(f"unknown scheme kind {kind!r}")


def _cmd_setup(args: argparse.Namespace) -> int:
    documents = _load_corpus(args.corpus)
    scheme = _scheme_for(args.scheme)
    owner = DataOwner(scheme)
    started = time.perf_counter()
    outsourcing = owner.setup(documents)
    elapsed = time.perf_counter() - started
    save_outsourcing(args.out, outsourcing, args.scheme, store=args.store)
    save_credentials(args.credentials, owner.authorize_user())
    print(
        f"indexed {len(documents)} documents in {elapsed:.1f}s: "
        f"{outsourcing.secure_index.num_lists} posting lists, "
        f"{outsourcing.secure_index.size_bytes() // 1024} KB index, "
        f"{outsourcing.blob_store.total_bytes() // 1024} KB encrypted files"
    )
    print(f"deployment: {args.out}")
    print(f"user credentials: {args.credentials}")
    return 0


def _run_search(
    user: DataUser, kind: str, args: argparse.Namespace
) -> list:
    """Dispatch one query: single keyword or one-round multi-keyword."""
    keywords = args.keyword
    if len(keywords) == 1:
        if kind == "rsse":
            return user.search_ranked_topk(keywords[0], args.top_k)
        return user.search_two_round_topk(keywords[0], args.top_k)
    if kind != "rsse":
        raise ReproError(
            "multi-keyword search requires the efficient scheme (rsse)"
        )
    return user.search_multi_topk(keywords, args.top_k, mode=args.mode)


def _query_label(args: argparse.Namespace) -> str:
    if len(args.keyword) == 1:
        return repr(args.keyword[0])
    joiner = " AND " if args.mode == "conjunctive" else " OR "
    return joiner.join(repr(keyword) for keyword in args.keyword)


def _print_hits(hits: list) -> None:
    for hit in hits:
        first_line = next(
            (line.strip() for line in hit.text.splitlines() if line.strip()),
            "",
        )
        print(f"  #{hit.rank:<3} {hit.file_id:<12} {first_line[:60]}")


def _cmd_search(args: argparse.Namespace) -> int:
    outsourcing, kind = load_outsourcing(args.deployment, store=args.store)
    scheme = _scheme_for(kind)
    credentials = load_credentials(args.credentials)
    server = CloudServer(
        outsourcing.secure_index,
        outsourcing.blob_store,
        can_rank=kind == "rsse",
    )
    channel = Channel(server.handle)
    user = DataUser(scheme, credentials, channel, Analyzer())
    label = _query_label(args)
    started = time.perf_counter()
    hits = _run_search(user, kind, args)
    elapsed = time.perf_counter() - started
    if not hits:
        print(f"no files match {label}")
        return 1
    print(
        f"top-{len(hits)} for {label} "
        f"({channel.stats.round_trips} round trip(s), "
        f"{channel.stats.total_bytes // 1024} KB, {elapsed * 1000:.0f} ms):"
    )
    _print_hits(hits)
    return 0


def _load_deployment(root: str, store: str | None = None):
    """Load a deployment directory, sharded or not.

    Returns ``(index, blob_store, scheme kind)`` where ``index`` is a
    :class:`~repro.core.secure_index.SecureIndex`, a lazy packed
    store, or a pre-partitioned
    :class:`~repro.cloud.cluster.ShardedIndex`.  ``store`` picks the
    view (``dict`` / ``mmap``); the default honours the manifest.
    """
    import json

    from repro.cloud.persistence import load_sharded_outsourcing

    try:
        manifest = json.loads(
            (Path(root) / "manifest.json").read_text(encoding="utf-8")
        )
    except (OSError, ValueError) as exc:
        raise ReproError(
            f"{root} is not a deployment directory: {exc}"
        ) from exc
    if manifest.get("sharded"):
        return load_sharded_outsourcing(root, store=store)
    outsourcing, kind = load_outsourcing(root, store=store)
    return outsourcing.secure_index, outsourcing.blob_store, kind


def _cmd_pack(args: argparse.Namespace) -> int:
    """Convert a json-store deployment to the packed mmap store."""
    from repro.cloud.persistence import pack_deployment

    pack_deployment(args.deployment)
    print(f"packed deployment: {args.deployment}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a deployment directory over TCP until interrupted."""
    from repro.cloud import NetServer
    from repro.obs import Obs

    index, blobs, kind = _load_deployment(args.deployment, store=args.store)
    server = NetServer(
        index,
        blobs,
        can_rank=kind == "rsse",
        host=args.host,
        port=args.port,
        num_shards=args.shards,
        cache_searches=not args.no_cache,
        result_cache_bytes=(
            args.result_cache_bytes if args.result_cache else None
        ),
        obs=Obs.enabled() if args.obs else None,
    )
    server.start()
    try:
        print(
            f"serving {args.deployment} ({kind}) on "
            f"{server.host}:{server.port} with {server.num_shards} "
            f"shard worker process(es); Ctrl-C to stop",
            flush=True,
        )
        if args.obs:
            print(
                "observability on: `repro top` for the live view, "
                "`repro query` admin sections prometheus/jsonl/health "
                "for scrapes",
                flush=True,
            )
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """Ranked top-k search against a running ``repro serve``."""
    from repro.cloud import NetworkChannel

    scheme = _scheme_for(args.scheme)
    credentials = load_credentials(args.credentials)
    with NetworkChannel(
        args.host, args.port, timeout_s=args.timeout, codec=args.codec
    ) as channel:
        user = DataUser(
            scheme, credentials, channel, Analyzer(), codec=args.codec
        )
        label = _query_label(args)
        started = time.perf_counter()
        hits = _run_search(user, args.scheme, args)
        elapsed = time.perf_counter() - started
        stats = channel.stats
        if not hits:
            print(f"no files match {label}")
            return 1
        print(
            f"top-{len(hits)} for {label} via "
            f"{args.host}:{args.port} ({stats.round_trips} round "
            f"trip(s), {stats.total_bytes // 1024} KB, "
            f"{elapsed * 1000:.0f} ms):"
        )
        _print_hits(hits)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    documents = _load_corpus(args.corpus)
    analyzer = Analyzer()
    index = InvertedIndex()
    for document in documents:
        index.add_document(document.doc_id, analyzer.analyze(document.text))
    stats = collection_stats(index)
    print(f"files:                {stats.num_files}")
    print(f"distinct keywords:    {stats.vocabulary_size}")
    print(f"total postings:       {stats.total_postings}")
    print(f"max posting length:   {stats.max_posting_length}")
    print(f"avg posting length:   {stats.average_posting_length:.1f}")
    print(f"avg file length:      {stats.average_file_length:.1f} terms")

    from repro.ir.scoring import single_keyword_score

    scores = [
        single_keyword_score(
            posting.term_frequency, index.file_length(posting.file_id)
        )
        for _, postings in index.items()
        for posting in postings
    ]
    quantizer = ScoreQuantizer.fit(scores, levels=args.levels)
    duplicates = duplicate_stats(index, quantizer)
    print(f"score levels M:       {args.levels}")
    print(f"max duplicates:       {duplicates.max_duplicates}")
    print(f"max/lambda ratio:     {duplicates.ratio:.3f}")
    bits = minimal_range_bits(duplicates.ratio, args.levels)
    print(f"recommended |R|:      2^{bits}  (Section IV-C, eq. 4)")
    return 0


def _cmd_obs_demo(args: argparse.Namespace) -> int:
    """Run a small traced cluster workload; write the JSONL artifact.

    The workload is fully seeded: a synthetic corpus, a sharded
    cluster under a deterministic fault plan (drops plus one crash
    window, so the trace always contains retry-attempt spans), and a
    fixed query sequence.  With ``--deterministic`` the tracer runs on
    a fake clock, making the artifact byte-identical across runs —
    what the CI obs-smoke step diffs and schema-checks.
    """
    from repro.cloud.cluster import ClusterServer
    from repro.cloud.faults import FaultPlan
    from repro.cloud.protocol import SearchRequest
    from repro.cloud.retry import RetryPolicy
    from repro.obs import FakeClock, Obs

    vocabulary, scheme, key, built, blobs = _demo_deployment(
        args.seed, args.docs
    )
    obs = Obs.enabled(
        clock=FakeClock() if args.deterministic else None
    )
    plan = FaultPlan(
        seed=args.seed,
        drop_rate=0.3,
        crash_windows={1: ((0, 4),)},
    )
    policy = RetryPolicy(
        max_attempts=8, base_backoff_s=0.0, jitter_seed=args.seed
    )
    with ClusterServer(
        built.secure_index,
        blobs,
        can_rank=True,
        num_shards=2,
        max_workers=1,
        fault_plan=plan,
        retry_policy=policy,
        retry_sleep=lambda _s: None,
        obs=obs,
    ) as cluster:
        for keyword in vocabulary[: args.queries]:
            request = SearchRequest(
                trapdoor_bytes=scheme.trapdoor(key, keyword).serialize(),
                top_k=3,
            ).to_bytes()
            result = cluster.handle_resilient(request)
            if not result.complete:
                print(
                    f"query {keyword!r} degraded: shards "
                    f"{list(result.missing_shards)} missing"
                )
    artifact = obs.export_jsonl()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(artifact)
    print(f"wrote {len(artifact.splitlines())} records to {out}")
    print(obs.report())
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    """Render a previously exported JSONL trace artifact."""
    from repro.obs.export import load_jsonl, render_report

    dump = load_jsonl(Path(args.trace).read_text())
    print(render_report(dump))
    return 0


def _demo_deployment(seed: int, docs: int):
    """Seeded scheme/key/index/blobs shared by the obs demo commands.

    The key is pinned to the seed (not ``keygen()``): leakage digests
    hash the trapdoor addresses, so a random key would break the
    byte-level determinism the CI smoke jobs diff.
    """
    import hashlib
    import random

    from repro.cloud.storage import BlobStore
    from repro.core import TEST_PARAMETERS
    from repro.crypto.keys import SchemeKey
    from repro.ir.inverted_index import InvertedIndex

    vocabulary = [f"term{i:02d}" for i in range(16)]
    scheme = EfficientRSSE(TEST_PARAMETERS)
    seed_tag = f"obs-demo-{seed}".encode()
    key = SchemeKey(
        x=hashlib.blake2b(seed_tag + b"|x", digest_size=16).digest(),
        y=hashlib.blake2b(seed_tag + b"|y", digest_size=16).digest(),
        z=hashlib.blake2b(seed_tag + b"|z", digest_size=16).digest(),
        domain_size=TEST_PARAMETERS.score_levels,
        range_size=TEST_PARAMETERS.range_size,
    )
    index = InvertedIndex()
    rng = random.Random(seed)
    for doc in range(docs):
        index.add_document(
            f"doc{doc}", [rng.choice(vocabulary) for _ in range(30)]
        )
    built = scheme.build_index(key, index)
    blobs = BlobStore()
    for doc in range(docs):
        blobs.put(f"doc{doc}", b"cipher-" + str(doc).encode())
    return vocabulary, scheme, key, built, blobs


def _render_top(health: dict) -> str:
    """``repro top``-style text rendering of one admin health frame."""
    lines = [
        f"repro top — {health['num_shards']} shard(s), "
        f"{health['connections']:.0f} connection(s), "
        f"{health['inflight']} in flight, "
        f"{health['overload_rejections']:.0f} shed"
    ]
    lines.append(
        f"  {'shard':>5}  {'alive':<5}  {'breaker':<9}  {'fails':>5}  "
        f"{'opened':>6}  {'probes':>6}  {'suppressed':>10}"
    )
    for shard in sorted(health["workers"], key=int):
        worker = health["workers"][shard]
        breaker = worker["breaker"]
        lines.append(
            f"  {shard:>5}  {'yes' if worker['alive'] else 'NO':<5}  "
            f"{breaker['state']:<9}  "
            f"{breaker['consecutive_failures']:>5}  "
            f"{breaker['times_opened']:>6}  {breaker['probes']:>6}  "
            f"{breaker['suppressed_calls']:>10}"
        )
    result_cache = health.get("result_cache", {})
    if result_cache.get("enabled"):
        lines.append(
            f"  result cache: {result_cache['hits']} hit(s), "
            f"{result_cache['misses']} miss(es), "
            f"{result_cache['coalesced']} coalesced, "
            f"{result_cache['invalidations']} invalidation(s), "
            f"{result_cache['entries']} entries / "
            f"{result_cache['resident_bytes'] / 1024:.1f} KiB resident"
        )
    slow = health.get("slow_queries", [])
    if slow:
        lines.append("  slow queries (most recent last):")
        for entry in slow:
            phases = " ".join(
                f"{name}={seconds * 1000:.1f}ms"
                for name, seconds in entry["phases"]
            )
            worker = entry.get("worker", "")
            tags = f" worker={worker}" if worker else ""
            tags += " (sampled)" if entry.get("sampled") else ""
            lines.append(
                f"    trace {entry['trace_id']} {entry['kind']} "
                f"{entry['total_s'] * 1000:.1f}ms{tags} [{phases}]"
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live shard/breaker/slow-query view of a running ``repro serve``.

    Polls the admin ``health`` section — served out of band, so the
    view works even while the server sheds load.  ``--once`` prints a
    single frame and exits (what CI captures); the default refreshes
    in place until interrupted.
    """
    import json

    from repro.cloud import NetworkChannel

    with NetworkChannel(
        args.host, args.port, timeout_s=args.timeout
    ) as channel:
        while True:
            health = json.loads(channel.admin("health"))
            frame = _render_top(health)
            if args.once:
                print(frame)
                return 0
            # ANSI clear-screen + home, then the frame: a poor
            # man's ``top`` without a curses dependency.
            print(f"\x1b[2J\x1b[H{frame}", flush=True)
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0


def _cmd_obs_net_demo(args: argparse.Namespace) -> int:
    """Run a deterministic loopback NetServer workload; dump telemetry.

    The distributed twin of ``repro obs demo``: a seeded deployment is
    served by real worker processes with observability on (fake clocks
    everywhere), a fixed query sequence runs over a real socket in the
    binary codec, and the admin endpoint is scraped twice.  Writes
    ``scrape.txt``/``scrape2.txt`` (byte-identical by construction),
    ``cluster.jsonl`` (the merged cluster artifact: one stitched span
    tree per query), and ``top.txt`` (the rendered health frame) into
    ``--out-dir`` — exactly what the CI obs-net-smoke job diffs across
    two full runs.
    """
    import json

    from repro.cloud import NetServer, NetworkChannel
    from repro.cloud.protocol import (
        CODEC_BINARY,
        MultiSearchRequest,
        SearchRequest,
    )
    from repro.obs import FakeClock, Obs, SlowQueryLog, validate_records

    vocabulary, scheme, key, built, blobs = _demo_deployment(
        args.seed, args.docs
    )
    # Threshold 0 turns the slow-query log into a full per-phase
    # latency log — under fake clocks every query is "slow", which is
    # the point of a demo artifact.
    obs = Obs.enabled(
        clock=FakeClock(), slowlog=SlowQueryLog(threshold_s=0.0)
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with NetServer(
        built.secure_index,
        blobs,
        can_rank=True,
        num_shards=args.shards,
        obs=obs,
        deterministic_obs=True,
    ) as server:
        with NetworkChannel(server.host, server.port) as channel:
            for keyword in vocabulary[: args.queries]:
                channel.call(
                    SearchRequest(
                        trapdoor_bytes=scheme.trapdoor(
                            key, keyword
                        ).serialize(),
                        top_k=3,
                    ).to_bytes(CODEC_BINARY)
                )
            channel.call(
                MultiSearchRequest(
                    trapdoors=tuple(
                        scheme.trapdoor(key, keyword).serialize()
                        for keyword in vocabulary[:2]
                    ),
                    mode="disjunctive",
                    top_k=3,
                ).to_bytes(CODEC_BINARY)
            )
            scrape = channel.admin("prometheus").decode("utf-8")
            scrape2 = channel.admin("prometheus").decode("utf-8")
            artifact = channel.admin("jsonl").decode("utf-8")
            health = json.loads(channel.admin("health"))
    validate_records(artifact)
    (out_dir / "scrape.txt").write_text(scrape)
    (out_dir / "scrape2.txt").write_text(scrape2)
    (out_dir / "cluster.jsonl").write_text(artifact)
    top = _render_top(health)
    (out_dir / "top.txt").write_text(top + "\n")
    print(
        f"wrote {len(artifact.splitlines())} merged records and "
        f"{len(scrape.splitlines())} metric lines to {out_dir}"
    )
    print(
        "back-to-back scrapes identical:"
        f" {'yes' if scrape == scrape2 else 'NO'}"
    )
    print(top)
    return 0 if scrape == scrape2 else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure ranked keyword search over encrypted cloud "
        "data (ICDCS 2010 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser(
        "gen-corpus", help="write a synthetic RFC-style corpus"
    )
    gen.add_argument("--docs", type=int, default=200)
    gen.add_argument("--seed", type=int, default=2010)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_gen_corpus)

    setup = commands.add_parser(
        "setup", help="owner: index + encrypt + package a corpus"
    )
    setup.add_argument("--corpus", required=True)
    setup.add_argument("--out", required=True)
    setup.add_argument("--credentials", required=True)
    setup.add_argument(
        "--scheme", choices=("rsse", "basic"), default="rsse"
    )
    setup.add_argument(
        "--store",
        choices=("json", "packed"),
        default="json",
        help="on-disk index format (packed = mmap-ready .rpk file)",
    )
    setup.set_defaults(handler=_cmd_setup)

    search = commands.add_parser(
        "search", help="user: ranked top-k search against a deployment"
    )
    search.add_argument("--deployment", required=True)
    search.add_argument("--credentials", required=True)
    search.add_argument(
        "--keyword",
        required=True,
        nargs="+",
        help="one or more query keywords; several keywords run the "
        "one-round multi-keyword path (rsse only)",
    )
    search.add_argument(
        "--mode",
        choices=("conjunctive", "disjunctive"),
        default="conjunctive",
        help="multi-keyword semantics: AND (conjunctive) or OR "
        "(disjunctive); ignored for a single keyword",
    )
    search.add_argument("-k", "--top-k", type=int, default=10)
    search.add_argument(
        "--store",
        choices=("auto", "dict", "mmap"),
        default="auto",
        help="index view: lazy mmap or eager dict (auto = manifest)",
    )
    search.set_defaults(handler=_cmd_search)

    pack = commands.add_parser(
        "pack",
        help="convert a json-store deployment to the packed mmap store",
    )
    pack.add_argument("deployment")
    pack.set_defaults(handler=_cmd_pack)

    serve = commands.add_parser(
        "serve",
        help="host a deployment over TCP (multi-process shard workers)",
    )
    serve.add_argument("--deployment", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9530)
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="worker process count (default: 4, or the stored shard "
        "count for sharded deployments)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the per-worker ranked search cache",
    )
    serve.add_argument(
        "--result-cache",
        action="store_true",
        help="enable the hot-query fast lane: a front-end cache of "
        "encoded response frames with single-flight coalescing",
    )
    serve.add_argument(
        "--result-cache-bytes",
        type=int,
        default=8 << 20,
        help="byte budget for --result-cache (default: 8 MiB)",
    )
    serve.add_argument(
        "--store",
        choices=("auto", "dict", "mmap"),
        default="auto",
        help="index view: lazy mmap or eager dict (auto = manifest)",
    )
    serve.add_argument(
        "--obs",
        action="store_true",
        help="enable the telemetry plane: traced workers, the admin "
        "scrape endpoint, and `repro top`",
    )
    serve.set_defaults(handler=_cmd_serve)

    top = commands.add_parser(
        "top",
        help="live shard/breaker/slow-query view of a repro serve --obs",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=9530)
    top.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (scriptable / CI)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh period in seconds",
    )
    top.add_argument("--timeout", type=float, default=10.0)
    top.set_defaults(handler=_cmd_top)

    query = commands.add_parser(
        "query", help="user: ranked top-k search against a repro serve"
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=9530)
    query.add_argument("--credentials", required=True)
    query.add_argument(
        "--keyword",
        required=True,
        nargs="+",
        help="one or more query keywords; several keywords run the "
        "one-round multi-keyword path (rsse only)",
    )
    query.add_argument(
        "--mode",
        choices=("conjunctive", "disjunctive"),
        default="conjunctive",
        help="multi-keyword semantics: AND (conjunctive) or OR "
        "(disjunctive); ignored for a single keyword",
    )
    query.add_argument("-k", "--top-k", type=int, default=10)
    query.add_argument(
        "--scheme", choices=("rsse", "basic"), default="rsse"
    )
    query.add_argument(
        "--codec",
        choices=("json", "binary"),
        default="json",
        help="wire codec for every request (responses mirror it)",
    )
    query.add_argument("--timeout", type=float, default=10.0)
    query.set_defaults(handler=_cmd_query)

    stats = commands.add_parser(
        "stats", help="collection statistics + range recommendation"
    )
    stats.add_argument("--corpus", required=True)
    stats.add_argument("--levels", type=int, default=128)
    stats.set_defaults(handler=_cmd_stats)

    obs = commands.add_parser(
        "obs", help="observability: traced demo workloads and reports"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    demo = obs_commands.add_parser(
        "demo",
        help="run a seeded traced cluster workload, write JSONL",
    )
    demo.add_argument("--seed", type=int, default=2010)
    demo.add_argument("--docs", type=int, default=12)
    demo.add_argument("--queries", type=int, default=4)
    demo.add_argument("--out", default="obs_trace.jsonl")
    demo.add_argument(
        "--deterministic",
        action="store_true",
        help="fake clock: byte-identical artifact across runs",
    )
    demo.set_defaults(handler=_cmd_obs_demo)
    net_demo = obs_commands.add_parser(
        "net-demo",
        help="deterministic loopback NetServer workload: merged "
        "cluster telemetry artifacts",
    )
    net_demo.add_argument("--seed", type=int, default=2010)
    net_demo.add_argument("--docs", type=int, default=12)
    net_demo.add_argument("--queries", type=int, default=4)
    net_demo.add_argument("--shards", type=int, default=2)
    net_demo.add_argument(
        "--out-dir",
        default="obs_net_demo",
        help="directory for scrape.txt / scrape2.txt / cluster.jsonl "
        "/ top.txt",
    )
    net_demo.set_defaults(handler=_cmd_obs_net_demo)
    report = obs_commands.add_parser(
        "report", help="render an exported JSONL trace artifact"
    )
    report.add_argument("--trace", required=True)
    report.set_defaults(handler=_cmd_obs_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
