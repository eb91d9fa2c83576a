"""The coordinator's merge of per-shard multi-search partials.

:func:`repro.cloud.cluster.merge_partial_matches` intersects
conjunctive partials on file ids first and unpacks score fields only
for the files every shard holds.  These tests pin it to the eager
merge it replaced — every score field unpacked up front — which is
kept here as the oracle, in both modes, and check that a malformed
score field still fails the merge even where the intersection would
drop its file.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.cluster import merge_partial_matches
from repro.cloud.protocol import (
    MODE_CONJUNCTIVE,
    MODE_DISJUNCTIVE,
    pack_partial_score,
    unpack_partial_score,
)
from repro.errors import ProtocolError


def eager_merge(partials, mode, total_terms):
    """The merge as it was: decode every field, then combine."""
    per_shard = [
        {
            file_id: unpack_partial_score(score_field)
            for file_id, score_field in matches
        }
        for matches in partials
    ]
    if not per_shard:
        return []
    if mode == MODE_CONJUNCTIVE:
        smallest = min(per_shard, key=len)
        others = [m for m in per_shard if m is not smallest]
        merged = []
        for file_id in sorted(smallest):
            total, count = smallest[file_id]
            for shard_map in others:
                entry = shard_map.get(file_id)
                if entry is None:
                    break
                total += entry[0]
                count += entry[1]
            else:
                if count == total_terms:
                    merged.append((file_id, total, count))
        return merged
    sums = {}
    for shard_map in per_shard:
        for file_id, (total, count) in shard_map.items():
            sum_so_far, count_so_far = sums.get(file_id, (0, 0))
            sums[file_id] = (sum_so_far + total, count_so_far + count)
    return [
        (file_id, total, count)
        for file_id, (total, count) in sorted(sums.items())
    ]


# A small id alphabet so shards overlap and one shard repeats ids.
_match = st.tuples(
    st.sampled_from([f"doc{i}" for i in range(8)]),
    st.builds(
        pack_partial_score,
        st.integers(0, 2**64 - 1),
        st.integers(1, 3),
    ),
)
_partials = st.lists(
    st.lists(_match, max_size=10).map(tuple), min_size=1, max_size=4
)


@settings(max_examples=300)
@given(
    partials=_partials,
    mode=st.sampled_from([MODE_CONJUNCTIVE, MODE_DISJUNCTIVE]),
    total_terms=st.integers(1, 8),
)
def test_merge_equals_eager_merge(partials, mode, total_terms):
    assert merge_partial_matches(
        partials, mode, total_terms
    ) == eager_merge(partials, mode, total_terms)


def test_merge_of_no_partials_is_empty():
    for mode in (MODE_CONJUNCTIVE, MODE_DISJUNCTIVE):
        assert merge_partial_matches([], mode, 2) == []


@pytest.mark.parametrize("mode", [MODE_CONJUNCTIVE, MODE_DISJUNCTIVE])
@pytest.mark.parametrize("duplicate", [False, True])
def test_wrong_length_field_off_the_intersection_raises(mode, duplicate):
    good = pack_partial_score(7, 1)
    # ``doc9`` is in one shard only, so a conjunctive merge drops it;
    # its 8-byte field must still fail the merge, as the eager merge
    # did.  With ``duplicate`` the bad field is shadowed by a later
    # good one for the same id.
    bad = [("doc9", b"\x00" * 8)] + ([("doc9", good)] if duplicate else [])
    partials = [
        (("doc1", good), *bad),
        (("doc1", good),),
    ]
    with pytest.raises(ProtocolError, match="8 bytes"):
        eager_merge(partials, mode, 2)
    with pytest.raises(ProtocolError, match="8 bytes"):
        merge_partial_matches(partials, mode, 2)
