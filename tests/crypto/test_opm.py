"""Unit and property tests for the one-to-many mapping (Algorithm 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.opm import OneToManyOpm
from repro.crypto.opse import OrderPreservingEncryption
from repro.errors import DomainError, ParameterError, RangeError

KEY = b"opm-test-key-123"


class TestConstruction:
    def test_rejects_empty_key(self):
        with pytest.raises(ParameterError):
            OneToManyOpm(b"", 16, 256)

    def test_rejects_range_below_domain(self):
        with pytest.raises(ParameterError):
            OneToManyOpm(KEY, 128, 64)

    def test_rejects_non_positive_domain(self):
        with pytest.raises(ParameterError):
            OneToManyOpm(KEY, 0, 64)


class TestOneToMany:
    def test_same_score_different_files_different_ciphertexts(self):
        opm = OneToManyOpm(KEY, 128, 1 << 46)
        values = {opm.map_score(64, f"file-{i}") for i in range(50)}
        assert len(values) == 50

    def test_same_score_same_file_deterministic(self):
        opm = OneToManyOpm(KEY, 128, 1 << 40)
        assert opm.map_score(10, "f") == opm.map_score(10, "f")

    def test_accepts_bytes_and_str_file_ids(self):
        opm = OneToManyOpm(KEY, 16, 1 << 20)
        assert opm.map_score(5, "abc") == opm.map_score(5, b"abc")

    def test_values_stay_in_assigned_bucket(self):
        opm = OneToManyOpm(KEY, 32, 1 << 24)
        for score in (1, 7, 16, 32):
            bucket = opm.bucket(score)
            for i in range(20):
                assert opm.map_score(score, f"d{i}") in bucket


class TestOrderPreservation:
    def test_strict_order_across_scores_any_file_pair(self):
        opm = OneToManyOpm(KEY, 64, 1 << 30)
        for low, high in [(1, 2), (10, 11), (30, 60), (63, 64)]:
            for i in range(10):
                assert opm.map_score(low, f"a{i}") < opm.map_score(
                    high, f"b{i}"
                )

    @settings(max_examples=25, deadline=None)
    @given(
        score_a=st.integers(min_value=1, max_value=64),
        score_b=st.integers(min_value=1, max_value=64),
        file_a=st.text(min_size=1, max_size=10),
        file_b=st.text(min_size=1, max_size=10),
    )
    def test_order_preserved_property(self, score_a, score_b, file_a, file_b):
        opm = OneToManyOpm(KEY, 64, 1 << 28)
        value_a = opm.map_score(score_a, file_a)
        value_b = opm.map_score(score_b, file_b)
        if score_a < score_b:
            assert value_a < value_b
        elif score_a > score_b:
            assert value_a > value_b


class TestInversion:
    def test_invert_recovers_score_for_any_file(self):
        opm = OneToManyOpm(KEY, 32, 1 << 24)
        for score in range(1, 33):
            for i in range(3):
                assert opm.invert(opm.map_score(score, f"f{i}")) == score

    def test_invert_rejects_out_of_range(self):
        opm = OneToManyOpm(KEY, 8, 256)
        with pytest.raises(RangeError):
            opm.invert(0)
        with pytest.raises(RangeError):
            opm.invert(257)

    def test_map_rejects_out_of_domain(self):
        opm = OneToManyOpm(KEY, 8, 256)
        with pytest.raises(DomainError):
            opm.map_score(0, "f")
        with pytest.raises(DomainError):
            opm.map_score(9, "f")


class TestBucketsMatchOpse:
    def test_buckets_equal_opse_buckets_under_same_key(self):
        """The OPM inherits OPSE's plaintext-to-bucket mapping unchanged."""
        opm = OneToManyOpm(KEY, 16, 1 << 20)
        opse = OrderPreservingEncryption(KEY, 16, 1 << 20)
        for score in range(1, 17):
            assert opm.bucket(score) == opse.bucket(score)

    def test_bucket_independent_of_file_id(self):
        opm = OneToManyOpm(KEY, 16, 1 << 20)
        bucket = opm.bucket(8)
        for i in range(20):
            assert opm.map_score(8, f"any-{i}") in bucket


class TestBucketCache:
    def test_cached_and_uncached_agree(self):
        cached = OneToManyOpm(KEY, 32, 1 << 24, cache_buckets=True)
        uncached = OneToManyOpm(KEY, 32, 1 << 24, cache_buckets=False)
        for score in (1, 5, 17, 32):
            assert cached.map_score(score, "f") == uncached.map_score(
                score, "f"
            )

    def test_cache_hit_returns_same_bucket(self):
        opm = OneToManyOpm(KEY, 16, 1 << 16)
        first = opm.bucket(3)
        second = opm.bucket(3)
        assert first == second


class TestKeySeparation:
    def test_different_keys_different_layouts(self):
        a = OneToManyOpm(b"a" * 16, 64, 1 << 30)
        b = OneToManyOpm(b"b" * 16, 64, 1 << 30)
        buckets_differ = any(
            a.bucket(score) != b.bucket(score) for score in range(1, 65)
        )
        assert buckets_differ

    def test_rounds_probe(self):
        opm = OneToManyOpm(KEY, 128, 1 << 40)
        rounds = opm.rounds(64)
        assert 7 <= rounds <= 5 * 7 + 12 + 10


class TestStatsCounters:
    def test_split_cache_caps_hgd_draws(self):
        """One full-table build costs ~1.6 M draws, not ~8.3 M."""
        M = 128
        opm = OneToManyOpm(KEY, M, 1 << 46)
        opm.buckets_table()
        table_draws = opm.stats.hgd_draws
        # One draw per split-tree internal node: more than the M - 1
        # pure halving splits (slack chains add some), far below the
        # per-descent total.
        assert M - 1 <= table_draws <= 3 * M
        naive = OneToManyOpm(KEY, M, 1 << 46, cache_buckets=False)
        for score in range(1, M + 1):
            naive.map_score(score, b"f")
        assert naive.stats.hgd_draws >= 5 * table_draws

    def test_batch_is_one_tape_block_per_entry(self):
        opm = OneToManyOpm(KEY, 16, 1 << 20)
        opm.buckets_table()
        opm.reset_stats()
        items = [(1 + (i % 16), b"file-%d" % i) for i in range(200)]
        opm.map_scores(items)
        assert opm.stats.choices == 200
        # One HMAC block per entry plus rare rejection-sampling retries.
        assert 200 <= opm.stats.tape_blocks <= 240
        assert opm.stats.hgd_draws == 0  # table already built

    def test_cached_regime_descends_once_per_score(self):
        opm = OneToManyOpm(KEY, 16, 1 << 20)
        for _ in range(5):
            opm.map_score(7, b"f")
        assert opm.stats.bucket_cache_misses == 1
        assert opm.stats.bucket_cache_hits == 4
        assert opm.stats.descents == 1

    def test_uncached_regime_keeps_no_cross_call_state(self):
        """Fig. 7 honesty: every probe call pays the full descent."""
        opm = OneToManyOpm(KEY, 16, 1 << 20, cache_buckets=False)
        opm.map_score(7, b"f")
        first = opm.stats.hgd_draws
        assert first > 0
        opm.map_score(7, b"f")
        assert opm.stats.hgd_draws == 2 * first
        assert opm.stats.split_cache_hits == 0
        # buckets_table() probing must not leak state either.
        opm.reset_stats()
        opm.buckets_table()
        opm.map_score(7, b"f")
        assert opm.stats.hgd_draws > first

    def test_reset_stats_zeroes_but_keeps_caches(self):
        opm = OneToManyOpm(KEY, 16, 1 << 20)
        opm.map_score(3, b"f")
        opm.reset_stats()
        assert opm.stats.as_dict() == {
            key: 0 for key in opm.stats.as_dict()
        }
        opm.map_score(3, b"g")
        assert opm.stats.bucket_cache_hits == 1
        assert opm.stats.hgd_draws == 0

    def test_batch_stats_match_per_pair_mapping(self):
        """``map_scores`` resolves each level once per batch, yet its
        counters equal those of mapping every pair on its own (a
        repeated level is still one bucket-cache hit per entry)."""
        items = [(1 + (i * 7) % 13, b"file-%d" % i) for i in range(120)]
        batch = OneToManyOpm(KEY, 16, 1 << 20)
        single = OneToManyOpm(KEY, 16, 1 << 20)
        for _ in range(2):
            assert batch.map_scores(items) == [
                single.map_score(score, fid) for score, fid in items
            ]
            assert batch.stats.as_dict() == single.stats.as_dict()

    @pytest.mark.parametrize("cache_buckets", [True, False])
    def test_batch_stats_pinned(self, cache_buckets):
        """Counters of two identical batches, pinned per regime.  The
        uncached regime pays the same descents on every call."""
        items = [(1 + (i * 7) % 13, b"file-%d" % i) for i in range(120)]
        opm = OneToManyOpm(KEY, 16, 1 << 20, cache_buckets=cache_buckets)
        cold = {
            "bucket_cache_hits": 107,
            "bucket_cache_misses": 13,
            "choices": 120,
            "tape_blocks": 120,
            "hgd_draws": 18,
            "descents": 13,
            "split_cache_hits": 46,
        }
        warm = {
            "bucket_cache_hits": 120,
            "bucket_cache_misses": 0,
            "choices": 120,
            "tape_blocks": 120,
            "hgd_draws": 0,
            "descents": 0,
            "split_cache_hits": 0,
        }
        for expected in (cold, warm if cache_buckets else cold):
            opm.map_scores(items)
            assert opm.stats.as_dict() == expected
            opm.reset_stats()
