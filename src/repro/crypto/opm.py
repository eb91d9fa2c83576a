"""One-to-many order-preserving mapping (the paper's Algorithm 1).

The deterministic OPSE of :mod:`repro.crypto.opse` leaks the plaintext
*frequency* profile: every occurrence of the same relevance score maps
to the same ciphertext, so a curious server can histogram the encrypted
scores of a posting list and recognize keyword-specific score
distributions (the paper's Fig. 4 attack).

The paper's fix keeps OPSE's random plaintext-to-bucket assignment but
randomizes the final in-bucket choice by adding the (unique) file ID to
the selection seed:

    coin <- TapeGen(K, (D, R, 1 || m, id(F)))
    c    <- bucket, uniformly at random via coin

Equal scores attached to different files now land on *different* points
of the same bucket, flattening the ciphertext distribution while
preserving order (buckets are disjoint and ordered).  The mapping is
still invertible given the key: the binary-search descent by ciphertext
identifies the bucket, hence the score — which is also what makes score
*dynamics* work (new files never perturb previously mapped values).

Fast path
---------
Mapping a posting list is the dominant cost of index construction
(Table I), and almost all of it is redundant: every descent under one
key shares binary-search prefix states, and every in-bucket choice
and split draw would re-key an HMAC that depends only on the key.  Each
instance therefore keys one :class:`~repro.crypto.tape.KeyedTape` and
passes it to every split draw and in-bucket choice.  The cached regime
also shares a **split-tree cache** across descents (each distinct
recursion state pays its HGD draw once — a ~5x reduction for a full
keyword build at paper parameters) and pre-encodes the static
choice-context prefix per score level, so
:meth:`OneToManyOpm.map_scores` resolves each distinct level of a list
once and then spends one seed concatenation and one HMAC block per
entry.  :meth:`OneToManyOpm.buckets_table` and
:meth:`OneToManyOpm.map_scores` expose the batch shape directly.  None
of this changes a single output byte (golden-vector and fast≡naive
property tests pin the equivalence); ``cache_buckets=False`` disables
*every* cross-call cache so Fig. 7 still measures the raw per-mapping
descent cost.
"""

from __future__ import annotations

from typing import Iterable

from repro.crypto.opse import (
    BucketResult,
    Interval,
    SplitCache,
    bucket_for_plaintext,
    bucket_table,
    plaintext_for_ciphertext,
)
from repro.crypto.stats import MappingStats
from repro.crypto.tape import KeyedTape, encode_bytes, encode_context
from repro.errors import ParameterError

_CHOICE_TAG = 1


class OneToManyOpm:
    """The one-to-many order-preserving mapping ``OPM_K``.

    Parameters
    ----------
    key:
        Per-posting-list key; the RSSE scheme derives it as ``f_z(w_i)``
        so identical scores in different posting lists use independent
        bucket layouts.
    domain_size:
        ``M`` — number of quantized score levels (paper: 128).
    range_size:
        ``N`` — ciphertext range size chosen per Section IV-C
        (paper example: ``2**46``).
    cache_buckets:
        Memoize per-score buckets *and* share binary-search splits
        across descents.  Both depend only on ``(key, score)`` /
        ``(key, state)``, so caching is semantically invisible; it
        turns repeated mappings of the same level (ubiquitous when
        OPM-encrypting a posting list) from ``O(log M)`` HGD draws into
        a dict hit, and caps the draws of a full keyword build at one
        per split-tree node (~5x below the per-descent total at paper
        parameters).  Disable to measure raw per-mapping cost (Fig. 7);
        the uncached regime keeps **no** cross-call state, so every
        ``map_score``/``rounds`` call pays the full descent.

    All methods are pure functions of ``(key, arguments)``; the
    :attr:`stats` counters record work done (HGD draws, cache traffic,
    tape blocks) for the perf harness.
    """

    def __init__(
        self,
        key: bytes,
        domain_size: int,
        range_size: int,
        cache_buckets: bool = True,
        stats: MappingStats | None = None,
    ):
        if not key:
            raise ParameterError("OPM key must be non-empty")
        if domain_size < 1:
            raise ParameterError(f"domain size must be >= 1, got {domain_size}")
        if range_size < domain_size:
            raise ParameterError(
                f"range size {range_size} must be >= domain size {domain_size}"
            )
        self._domain = Interval(1, domain_size)
        self._range = Interval(1, range_size)
        self._tape = KeyedTape(key)
        # Observability hook: a build that spans many per-term OPMs can
        # hand every instance one shared MappingStats so the whole
        # build's work counters accumulate in one place (sound only for
        # sequential use — increments are unlocked by design).
        self.stats = stats if stats is not None else MappingStats()
        self._bucket_cache: dict[int, BucketResult] | None = (
            {} if cache_buckets else None
        )
        self._split_cache: SplitCache | None = {} if cache_buckets else None
        self._prefix_cache: dict[int, bytes] | None = (
            {} if cache_buckets else None
        )

    @property
    def domain(self) -> Interval:
        """The plaintext (score-level) domain ``[1, M]``."""
        return self._domain

    @property
    def range(self) -> Interval:
        """The ciphertext range ``[1, N]``."""
        return self._range

    def reset_stats(self) -> None:
        """Zero the work counters (caches are left intact)."""
        self.stats.reset()

    def bucket(self, score: int) -> Interval:
        """Return the bucket interval assigned to score level ``score``.

        The bucket depends only on the key and the score — not on the
        file ID — which is exactly why previously mapped values survive
        later insertions unchanged (score dynamics, Section VII).
        """
        return self._descend(score).bucket

    def _descend(self, score: int) -> BucketResult:
        if self._bucket_cache is not None:
            cached = self._bucket_cache.get(score)
            if cached is not None:
                self.stats.bucket_cache_hits += 1
                return cached
            self.stats.bucket_cache_misses += 1
        result = bucket_for_plaintext(
            self._tape,
            self._domain,
            self._range,
            score,
            self._split_cache,
            self.stats,
        )
        if self._bucket_cache is not None:
            self._bucket_cache[score] = result
        return result

    def _choice_prefix(self, result: BucketResult) -> bytes:
        """Static prefix of the choice seed ``TapeGen(K, (D, R, 1 || m, id))``.

        The context prefix ``(bucket.low, bucket.high, 1, m)`` depends
        only on the score level; the cached regime encodes it once.
        Callers append the file-id part (``encode_context`` concatenates
        per-part encodings, so the spliced seed is byte-identical to
        encoding the full tuple).
        """
        prefix = (
            self._prefix_cache.get(result.plaintext)
            if self._prefix_cache is not None
            else None
        )
        if prefix is None:
            prefix = encode_context(
                (
                    result.bucket.low,
                    result.bucket.high,
                    _CHOICE_TAG,
                    result.plaintext,
                )
            )
            if self._prefix_cache is not None:
                self._prefix_cache[result.plaintext] = prefix
        return prefix

    def map_score(self, score: int, file_id: bytes | str) -> int:
        """Map ``(score, file_id)`` to a range point (Algorithm 1).

        Deterministic in both arguments: re-mapping the same file's
        score reproduces the same ciphertext, while different files
        holding the same score get independent uniform points of the
        shared bucket.
        """
        if isinstance(file_id, str):
            file_id = file_id.encode("utf-8")
        result = self._descend(score)
        seed = self._choice_prefix(result) + encode_bytes(file_id)
        return self._tape.choice(
            seed, result.bucket.low, result.bucket.high, self.stats
        )

    def buckets_table(self) -> dict[int, Interval]:
        """Every score level's bucket in one walk of the split tree.

        Costs one HGD draw per internal node of the recursion tree
        (~= ``1.6 M`` at paper parameters), versus ~= ``8.3 M`` for
        ``M`` independent descents.  In the cached regime the walk populates
        the per-instance caches, so subsequent ``map_score`` calls are
        pure dict hits; in the uncached regime the walk uses ephemeral
        state (nothing leaks into later per-mapping cost probes).
        """
        split_cache = (
            self._split_cache if self._split_cache is not None else {}
        )
        table = bucket_table(
            self._tape, self._domain, self._range, split_cache, self.stats
        )
        if self._bucket_cache is not None:
            self._bucket_cache.update(table)
        return {score: result.bucket for score, result in table.items()}

    def map_scores(
        self, items: Iterable[tuple[int, bytes | str]]
    ) -> list[int]:
        """Batch :meth:`map_score` over ``(score, file_id)`` pairs.

        Each distinct score level of the batch is resolved once — its
        bucket (one shared split tree serves every descent) and its
        choice-seed prefix — so each entry then costs one seed
        concatenation and one pre-keyed HMAC block for its in-bucket
        choice.  Returns the mapped values in input order; output and
        :attr:`stats` are identical to calling :meth:`map_score` per
        pair (a repeated level counts as a bucket-cache hit either way).

        In the uncached regime the shared state is ephemeral to the
        call (a batch is "one tree walk" by definition), keeping the
        per-call :meth:`map_score` cost probe honest.
        """
        split_cache = self._split_cache if self._split_cache is not None else {}
        bucket_cache = (
            self._bucket_cache if self._bucket_cache is not None else {}
        )
        stats = self.stats
        choice = self._tape.choice
        levels: dict[int, tuple[bytes, int, int]] = {}
        values: list[int] = []
        for score, file_id in items:
            if isinstance(file_id, str):
                file_id = file_id.encode("utf-8")
            level = levels.get(score)
            if level is None:
                result = bucket_cache.get(score)
                if result is None:
                    stats.bucket_cache_misses += 1
                    result = bucket_for_plaintext(
                        self._tape,
                        self._domain,
                        self._range,
                        score,
                        split_cache,
                        stats,
                    )
                    bucket_cache[score] = result
                else:
                    stats.bucket_cache_hits += 1
                level = levels[score] = (
                    self._choice_prefix(result),
                    result.bucket.low,
                    result.bucket.high,
                )
            else:
                stats.bucket_cache_hits += 1
            prefix, low, high = level
            values.append(
                choice(
                    prefix + encode_bytes(file_id),
                    low,
                    high,
                    stats,
                )
            )
        return values

    def invert(self, ciphertext: int) -> int:
        """Recover the score level whose bucket contains ``ciphertext``.

        The retrieval protocol never needs this (the server ranks
        ciphertexts directly), but the data owner uses it for index
        maintenance and the test suite uses it to check correctness.
        """
        result = plaintext_for_ciphertext(
            self._tape,
            self._domain,
            self._range,
            ciphertext,
            self._split_cache,
            self.stats,
        )
        return result.plaintext

    def rounds(self, score: int) -> int:
        """Number of binary-search rounds needed to map ``score``.

        The paper bounds the expected count by ``5 log2(M) + 12``; the
        Fig. 7 bench sweeps this cost against ``M`` and ``|R|``.  The
        count is a property of the descent *path* and therefore
        identical in both cache regimes; only ``cache_buckets=False``
        additionally pays every round's HGD draw, which is what the
        uncached cost probe times.
        """
        return self._descend(score).rounds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OneToManyOpm(M={self._domain.size}, N={self._range.size})"
