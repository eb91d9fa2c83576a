"""Unit and property tests for top-k selection and full ranking."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParameterError
from repro.ir.topk import intersect_sums, rank_all, top_k


class TestTopK:
    def test_selects_largest(self):
        items = [("a", 3), ("b", 9), ("c", 1), ("d", 7)]
        best = top_k(items, 2, key=lambda pair: pair[1])
        assert best == [("b", 9), ("d", 7)]

    def test_descending_order(self):
        values = list(range(100))
        best = top_k(values, 10, key=lambda v: v)
        assert best == list(range(99, 89, -1))

    def test_k_larger_than_input(self):
        assert top_k([3, 1, 2], 10, key=lambda v: v) == [3, 2, 1]

    def test_k_equal_input(self):
        assert top_k([3, 1, 2], 3, key=lambda v: v) == [3, 2, 1]

    def test_empty_input(self):
        assert top_k([], 5, key=lambda v: v) == []

    def test_rejects_non_positive_k(self):
        with pytest.raises(ParameterError):
            top_k([1, 2], 0, key=lambda v: v)

    def test_ties_break_toward_earlier_items(self):
        items = [("first", 5), ("second", 5), ("third", 5)]
        assert top_k(items, 2, key=lambda pair: pair[1]) == [
            ("first", 5), ("second", 5),
        ]

    def test_consumes_generator(self):
        best = top_k((v for v in [4, 8, 2]), 1, key=lambda v: v)
        assert best == [8]

    def test_works_with_huge_integer_keys(self):
        # OPM values are ~2**46; ensure no float conversion sneaks in.
        items = [("a", (1 << 46) + 1), ("b", 1 << 46)]
        assert top_k(items, 1, key=lambda pair: pair[1]) == [
            ("a", (1 << 46) + 1)
        ]

    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), max_size=200),
        st.integers(min_value=1, max_value=50),
    )
    def test_matches_sorted_prefix(self, values, k):
        expected = sorted(values, reverse=True)[:k]
        actual = top_k(values, k, key=lambda v: v)
        assert actual == expected


class TestRankAll:
    def test_full_descending_sort(self):
        assert rank_all([2, 9, 4], key=lambda v: v) == [9, 4, 2]

    def test_stable_for_ties(self):
        items = [("x", 1), ("y", 1)]
        assert rank_all(items, key=lambda pair: pair[1]) == items

    def test_agrees_with_topk_when_k_is_n(self):
        values = [5, 3, 8, 8, 1, 9]
        assert rank_all(values, key=lambda v: v) == top_k(
            values, len(values), key=lambda v: v
        )

    def test_empty(self):
        assert rank_all([], key=lambda v: v) == []


class TestIntersectSums:
    def test_repeated_map_object_counts_per_term(self):
        # A warm server hands in the same cached map for a repeated
        # term; a cold one builds two equal maps.  Both must agree.
        scores = {"a": 3, "b": 5}
        assert intersect_sums([scores, scores]) == intersect_sums(
            [dict(scores), dict(scores)]
        ) == [("a", 6), ("b", 10)]
