"""Loopback tests for the distributed telemetry plane.

Proves the cluster-wide observability story over real sockets and
real worker processes:

* one *stitched* span tree per query — worker ``server.handle`` spans
  parent under the front end's ``net.request`` root across the
  process boundary, in both codecs, with disjoint id ranges;
* the root span accounts for >=95% of measured wall time;
* worker telemetry (counters, leakage events, slow queries) ships
  over the pipe and lands in the merged Prometheus/JSONL artifacts
  with per-worker labels;
* observability is byte-transparent: responses identical obs on/off
  in both codecs;
* breaker-state gauges track a killed worker; the connection gauge
  returns to zero after a churn burst including abrupt disconnects;
* the admin endpoint is deterministic (scrape-twice byte-identity)
  and keeps working while observability is what it reports on;
* ``repro top --once`` renders a health frame over the wire.
"""

import json
import random
import socket
import time
from collections import Counter

import pytest

from repro.cli import main as cli_main
from repro.cloud.cluster import (
    DEFAULT_SHARD_SEED,
    routing_address,
    shard_for_address,
)
from repro.cloud.netserve import NetServer, NetworkChannel
from repro.cloud.owner import DataOwner
from repro.cloud.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    MultiSearchRequest,
    SearchRequest,
    encode_frame,
)
from repro.cloud.retry import BreakerConfig
from repro.core import EfficientRSSE, TEST_PARAMETERS
from repro.corpus.loader import Document
from repro.errors import ParameterError
from repro.obs import (
    FakeClock,
    MetricsSnapshot,
    Obs,
    SlowQueryLog,
    load_jsonl,
    validate_records,
)

VOCAB = [f"term{i:02d}" for i in range(16)]
NUM_SHARDS = 3


@pytest.fixture(scope="module")
def world():
    """One outsourced deployment shared by every test in this file."""
    scheme = EfficientRSSE(TEST_PARAMETERS)
    owner = DataOwner(scheme)
    rng = random.Random(90)
    documents = [
        Document(
            doc_id=f"doc{i}",
            title=f"doc {i}",
            text=" ".join(rng.choice(VOCAB) for _ in range(40)),
        )
        for i in range(18)
    ]
    outsourcing = owner.setup(documents)
    return scheme, owner, outsourcing


def obs_bundle(**slowlog_kwargs) -> Obs:
    return Obs.enabled(
        clock=FakeClock(),
        slowlog=SlowQueryLog(**slowlog_kwargs) if slowlog_kwargs else None,
    )


def obs_server(world, obs, **kwargs) -> NetServer:
    _, _, outsourcing = world
    return NetServer(
        outsourcing.secure_index,
        outsourcing.blob_store,
        can_rank=True,
        num_shards=NUM_SHARDS,
        obs=obs,
        **kwargs,
    )


def search_bytes(world, keyword: str, codec: str = CODEC_BINARY) -> bytes:
    scheme, owner, _ = world
    term = owner.analyzer.analyze_query(keyword)
    return SearchRequest(
        trapdoor_bytes=scheme.trapdoor(owner.key, term).serialize(),
        top_k=5,
    ).to_bytes(codec)


def multi_bytes(world, keywords, codec: str = CODEC_BINARY) -> bytes:
    scheme, owner, _ = world
    return MultiSearchRequest(
        trapdoors=tuple(
            scheme.trapdoor(
                owner.key, owner.analyzer.analyze_query(keyword)
            ).serialize()
            for keyword in keywords
        ),
        mode="disjunctive",
        top_k=5,
    ).to_bytes(codec)


class TestStitchedTraces:
    @pytest.mark.parametrize("codec", (CODEC_BINARY, CODEC_JSON))
    def test_one_stitched_tree_per_query(self, world, codec):
        obs = obs_bundle()
        queries = VOCAB[:5]
        with obs_server(
            world, obs, deterministic_obs=True
        ) as server, NetworkChannel(server.host, server.port) as channel:
            for keyword in queries:
                channel.call(search_bytes(world, keyword, codec))
            dump = load_jsonl(server.export_cluster_jsonl())
        roots = [span for span in dump.spans if span.name == "net.request"]
        assert len(roots) == len(queries)
        handled = [
            span for span in dump.spans if span.name == "server.handle"
        ]
        assert len(handled) == len(queries)
        root_ids = {root.span_id: root for root in roots}
        for span in handled:
            # The worker span hangs directly off the front end's root
            # and shares its trace id, despite living in another
            # process with a disjoint id range.
            assert span.parent_id in root_ids
            assert span.trace_id == root_ids[span.parent_id].trace_id
            assert span.attrs.get("remote_parent") is True
            assert span.attrs.get("worker") in {
                str(shard) for shard in range(NUM_SHARDS)
            }
            assert span.span_id != span.trace_id  # disjoint ranges
        # One tree per query: every query's trace holds exactly one
        # root and at least one worker-side span.
        assert len({root.trace_id for root in roots}) == len(queries)

    def test_multi_search_fans_out_under_one_root(self, world):
        obs = obs_bundle()
        with obs_server(
            world, obs, deterministic_obs=True
        ) as server, NetworkChannel(server.host, server.port) as channel:
            channel.call(multi_bytes(world, VOCAB[:6]))
            dump = load_jsonl(server.export_cluster_jsonl())
        (root,) = [
            span for span in dump.spans if span.name == "net.request"
        ]
        handled = [
            span for span in dump.spans if span.name == "server.handle"
        ]
        assert len(handled) >= 2  # fanned out to several workers
        assert {span.trace_id for span in handled} == {root.trace_id}
        assert {span.parent_id for span in handled} == {root.span_id}

    def test_root_span_covers_wall_time(self, world):
        """The acceptance gate: >=95% of wall time under the root."""
        best = 0.0
        for _ in range(3):  # deflake: preemption outside the root
            obs = Obs.enabled()  # real clock
            with obs_server(
                world, obs, worker_delay_s=0.05
            ) as server, NetworkChannel(
                server.host, server.port
            ) as channel:
                start = time.perf_counter()
                channel.call(search_bytes(world, VOCAB[0]))
                wall_s = time.perf_counter() - start
            root = next(
                span
                for span in reversed(obs.tracer.spans)
                if span.name == "net.request"
            )
            best = max(best, root.duration_s / wall_s)
            if best >= 0.95:
                break
        assert best >= 0.95, f"root span covers {best:.1%} of wall time"


class TestMergedArtifacts:
    def test_scrape_has_frontend_and_worker_series(self, world):
        obs = obs_bundle()
        with obs_server(
            world, obs, deterministic_obs=True
        ) as server, NetworkChannel(server.host, server.port) as channel:
            for keyword in VOCAB[:4]:
                channel.call(search_bytes(world, keyword))
            text = server.scrape()
        assert 'repro_net_requests_total{kind="search",worker="frontend"}' in text
        assert "repro_net_connections" in text
        # Worker-side serving counters arrive labeled per shard.
        assert any(
            f'repro_server_searches_total{{worker="{shard}"}}' in text
            for shard in range(NUM_SHARDS)
        )
        # Breaker gauges cover every worker, healthy ones at 0.
        for shard in range(NUM_SHARDS):
            assert (
                f'repro_net_breaker_state{{worker="{shard}"}} 0' in text
            )

    def test_jsonl_artifact_validates_and_carries_worker_leakage(
        self, world
    ):
        obs = obs_bundle()
        with obs_server(
            world, obs, deterministic_obs=True
        ) as server, NetworkChannel(server.host, server.port) as channel:
            for keyword in VOCAB[:5]:
                channel.call(search_bytes(world, keyword))
            artifact = server.export_cluster_jsonl()
        assert validate_records(artifact) == []
        dump = load_jsonl(artifact)
        assert len(dump.leakage) == 5
        assert all(
            event.worker in {str(shard) for shard in range(NUM_SHARDS)}
            for event in dump.leakage
        )
        # The leakage stream still carries the search/access pattern.
        assert all(event.trapdoor for event in dump.leakage)

    def test_scrape_twice_is_byte_identical(self, world):
        obs = obs_bundle()
        with obs_server(
            world, obs, deterministic_obs=True
        ) as server, NetworkChannel(server.host, server.port) as channel:
            for keyword in VOCAB[:3]:
                channel.call(search_bytes(world, keyword))
            first = channel.admin("prometheus")
            second = channel.admin("prometheus")
            assert first == second
            assert channel.admin("jsonl") == channel.admin("jsonl")
            assert channel.admin("health") == channel.admin("health")

    def test_admin_sections_well_formed_over_the_wire(self, world):
        obs = obs_bundle()
        with obs_server(
            world, obs, deterministic_obs=True
        ) as server, NetworkChannel(server.host, server.port) as channel:
            channel.call(search_bytes(world, VOCAB[1]))
            prometheus = channel.admin("prometheus").decode("utf-8")
            artifact = channel.admin("jsonl").decode("utf-8")
            health = json.loads(channel.admin("health"))
            assert prometheus == server.scrape()
            assert artifact == server.export_cluster_jsonl()
            assert health == server.health()
        assert prometheus.startswith("# TYPE")
        assert validate_records(artifact) == []
        assert health["num_shards"] == NUM_SHARDS
        assert set(health["workers"]) == {
            str(shard) for shard in range(NUM_SHARDS)
        }

    def test_admin_requires_observability(self, world):
        with obs_server(world, None) as server, NetworkChannel(
            server.host, server.port
        ) as channel:
            with pytest.raises(ParameterError):
                channel.admin("prometheus")
            with pytest.raises(ParameterError):
                server.scrape()
            with pytest.raises(ParameterError):
                server.health()


class TestTransparency:
    @pytest.mark.parametrize("codec", (CODEC_BINARY, CODEC_JSON))
    def test_responses_identical_with_obs_on_and_off(self, world, codec):
        requests = [
            search_bytes(world, keyword, codec) for keyword in VOCAB
        ]
        requests.append(multi_bytes(world, VOCAB[:4], codec))
        with obs_server(world, None) as plain, NetworkChannel(
            plain.host, plain.port
        ) as channel:
            baseline = [channel.call(request) for request in requests]
        with obs_server(
            world, obs_bundle(), deterministic_obs=True
        ) as traced, NetworkChannel(
            traced.host, traced.port
        ) as channel:
            observed = [channel.call(request) for request in requests]
        assert observed == baseline


class TestBreakerGauges:
    def test_killed_worker_shows_open_in_scrape_and_health(self, world):
        obs = obs_bundle()
        breaker = BreakerConfig(failure_threshold=3)
        frames = [search_bytes(world, keyword) for keyword in VOCAB]
        # Placement depends on the owner's fresh keys: kill the shard
        # the most frames route to, so its breaker is sure to see
        # ``failure_threshold`` failures.
        routed = Counter(
            shard_for_address(
                routing_address(frame), NUM_SHARDS, DEFAULT_SHARD_SEED
            )
            for frame in frames
        )
        victim, sent = routed.most_common(1)[0]
        assert sent >= breaker.failure_threshold
        with obs_server(
            world,
            obs,
            deterministic_obs=True,
            breaker=breaker,
        ) as server, NetworkChannel(server.host, server.port) as channel:
            server.kill_worker(victim)
            channel.call_many_resilient(frames)
            assert server.worker_health[victim].state == "open"
            text = server.scrape()
            health = server.health()
        assert f'repro_net_breaker_state{{worker="{victim}"}} 2' in text
        for shard in range(NUM_SHARDS):
            if shard != victim:
                assert (
                    f'repro_net_breaker_state{{worker="{shard}"}} 0'
                    in text
                )
        assert health["workers"][str(victim)]["breaker"]["state"] == "open"
        # The dead worker's snapshot is simply absent from the merged
        # artifact; the scrape itself keeps working.
        assert f'repro_server_searches_total{{worker="{victim}"}}' not in text


class TestConnectionGauge:
    def wait_for_connection_count(self, server, expected: float) -> float:
        deadline = time.time() + 10.0
        while time.time() < deadline:
            value = MetricsSnapshot(
                points=load_jsonl(server.export_cluster_jsonl()).metrics
            ).value("repro_net_connections", worker="frontend")
            if value == expected:
                return value
            time.sleep(0.02)
        return value

    def test_gauge_returns_to_zero_after_churn_burst(self, world):
        """Clean closes, abrupt resets, and poisoned streams all
        decrement: after the burst the gauge reads exactly zero."""
        obs = obs_bundle()
        with obs_server(world, obs, deterministic_obs=True) as server:
            for round_trip in range(4):  # clean request/response pairs
                with NetworkChannel(server.host, server.port) as channel:
                    channel.call(search_bytes(world, VOCAB[round_trip]))
            for _ in range(3):  # connect and vanish without a request
                sock = socket.create_connection(
                    (server.host, server.port), timeout=5.0
                )
                sock.close()
            for _ in range(3):  # abrupt mid-frame disconnect (RST)
                sock = socket.create_connection(
                    (server.host, server.port), timeout=5.0
                )
                frame = encode_frame(search_bytes(world, VOCAB[0]))
                sock.sendall(frame[: len(frame) // 2])
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    b"\x01\x00\x00\x00\x00\x00\x00\x00",
                )
                sock.close()
            for _ in range(2):  # framing violation poisons the stream
                sock = socket.create_connection(
                    (server.host, server.port), timeout=5.0
                )
                sock.sendall(b"\xff\xff\xff\xff garbage")
                sock.close()
            assert self.wait_for_connection_count(server, 0.0) == 0.0


class TestSlowQueryLog:
    def test_phase_attribution_ships_from_workers(self, world):
        obs = obs_bundle(threshold_s=0.0)
        with obs_server(
            world, obs, deterministic_obs=True
        ) as server, NetworkChannel(server.host, server.port) as channel:
            for keyword in VOCAB[:3]:
                channel.call(search_bytes(world, keyword))
            channel.call(multi_bytes(world, VOCAB[:4]))
            dump = load_jsonl(server.export_cluster_jsonl())
        singles = [
            entry for entry in dump.slow if entry.kind == "search"
        ]
        multis = [
            entry for entry in dump.slow if entry.kind == "multi-search"
        ]
        assert len(singles) == 3
        assert multis
        for entry in singles:
            assert [name for name, _ in entry.phases] == [
                "decode",
                "postings",
                "rank",
                "respond",
            ]
            assert entry.total_s == pytest.approx(
                sum(seconds for _, seconds in entry.phases)
            )
            assert entry.worker in {
                str(shard) for shard in range(NUM_SHARDS)
            }
        for entry in multis:
            assert [name for name, _ in entry.phases] == [
                "decode",
                "postings",
                "aggregate",
                "respond",
            ]

    def test_default_thresholds_keep_artifacts_quiet(self, world):
        # Fake-clock phase sums are far below the 0.1s default
        # threshold, so the default-configured slow log stays empty —
        # pre-existing golden artifacts cannot grow new record types.
        obs = obs_bundle()
        with obs_server(
            world, obs, deterministic_obs=True
        ) as server, NetworkChannel(server.host, server.port) as channel:
            for keyword in VOCAB[:4]:
                channel.call(search_bytes(world, keyword))
            dump = load_jsonl(server.export_cluster_jsonl())
        assert dump.slow == ()


class TestTopCli:
    def test_top_once_renders_health_frame(self, world, capsys):
        obs = obs_bundle(threshold_s=0.0)
        with obs_server(
            world, obs, deterministic_obs=True
        ) as server, NetworkChannel(server.host, server.port) as channel:
            channel.call(search_bytes(world, VOCAB[2]))
            code = cli_main(
                [
                    "top",
                    "--once",
                    "--host",
                    server.host,
                    "--port",
                    str(server.port),
                ]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert f"repro top — {NUM_SHARDS} shard(s)" in out
        for shard in range(NUM_SHARDS):
            assert f"\n  {shard:>5}  yes    closed" in out
        assert "slow queries" in out
        assert "decode=" in out
