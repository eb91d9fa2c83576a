"""Order-preserving symmetric encryption (Boldyreva et al., Eurocrypt'09).

This is the deterministic OPSE primitive the paper builds on (Section
IV-A).  A plaintext domain ``D = {1, ..., M}`` is mapped into a range
``R = {1, ..., N}`` (``M <= N``) by a keyed binary search:

1. Split the current range at its midpoint ``y``.
2. Draw ``x ~ HGD(|R|, |D|, y - r)`` from coins bound to the current
   ``(D, R, y)`` state — ``x`` is how many domain points land below
   ``y`` in a *random* order-preserving function.
3. Recurse into the half containing the plaintext, until the domain
   shrinks to a single point; the surviving range interval is that
   plaintext's *bucket*.
4. Pick the ciphertext pseudo-randomly inside the bucket, seeded by the
   plaintext (deterministic: same plaintext, same ciphertext).

Buckets of distinct plaintexts are non-overlapping and ordered, so the
numeric order of ciphertexts equals the order of plaintexts.

The module exposes both the deterministic scheme
(:class:`OrderPreservingEncryption`) and the shared bucket recursion
(:func:`bucket_for_plaintext`, :func:`plaintext_for_ciphertext`) that
the paper's one-to-many mapping (:mod:`repro.crypto.opm`) reuses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hgd import hgd_sample
from repro.crypto.stats import MappingStats
from repro.crypto.tape import KeyedTape, encode_context
from repro.errors import DomainError, ParameterError, RangeError

#: Tag bits distinguishing the two tape uses in Algorithm 1: ``0 || y``
#: during the binary search, ``1 || m`` for the ciphertext choice.
_SEARCH_TAG = 0
_CHOICE_TAG = 1

#: A shared split-tree cache: ``(D.low, D.high, R.low, R.high)`` ->
#: ``(x, y)``.  A split is a pure function of ``(key, D, R)`` and every
#: descent under one key starts from the same root, so all descents
#: share prefix states; the cache must be private to one key (callers
#: own it — see :class:`~repro.crypto.opm.OneToManyOpm`).  With it,
#: each distinct recursion state pays its HGD draw once: a full
#: ``M``-bucket table costs one draw per internal node of the split
#: tree — ``M - 1`` domain-halving splits plus the slack chains where
#: a split leaves every domain point on one side (~= ``1.6 M`` total
#: at the paper's ``M=128, N=2**46``) — instead of re-drawing the
#: shared path prefixes on every descent (~= ``8.3 M`` draws
#: measured for the same table).
SplitCache = dict[tuple[int, int, int, int], tuple[int, int]]


@dataclass(frozen=True)
class Interval:
    """An inclusive integer interval ``[low, high]``."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ParameterError(f"empty interval [{self.low}, {self.high}]")

    @property
    def size(self) -> int:
        """Number of integers in the interval."""
        return self.high - self.low + 1

    def __contains__(self, value: object) -> bool:
        return isinstance(value, int) and self.low <= value <= self.high


@dataclass(frozen=True)
class BucketResult:
    """Outcome of the bucket recursion for one plaintext or ciphertext.

    Attributes
    ----------
    plaintext:
        The domain point the recursion isolated.
    bucket:
        The non-overlapping range interval assigned to that plaintext.
    rounds:
        Number of binary-search rounds executed (each costs one HGD
        draw); the paper bounds its expectation by ``5 log M + 12``.
    """

    plaintext: int
    bucket: Interval
    rounds: int


def _as_tape(key: KeyedTape | bytes) -> KeyedTape:
    """The caller's :class:`KeyedTape`, or one keyed from raw key bytes."""
    return key if isinstance(key, KeyedTape) else KeyedTape(key)


def _split(
    tape: KeyedTape,
    d_low: int,
    d_high: int,
    r_low: int,
    r_high: int,
    split_cache: SplitCache | None = None,
    stats: MappingStats | None = None,
) -> tuple[int, int]:
    """One keyed binary-search round on ``D = [d_low, d_high]``,
    ``R = [r_low, r_high]``; return ``(x, y)``.

    ``y`` is the range midpoint and ``x`` the keyed-pseudo-random count
    of domain points mapped at or below ``y`` (absolute coordinates, as
    in the paper's ``x <- d + HYGEINV(...)``), drawn from the coins
    ``TapeGen(K, (D, R, 0 || y))``.  Bounds travel as plain integers:
    the descents run this once per round, and every round's intervals
    are valid by construction.

    The result is a pure function of ``(key, D, R)``; with a
    ``split_cache`` (owned by the caller, private to the tape's key)
    repeated states skip the HGD draw entirely and return the identical
    pair.
    """
    if split_cache is not None:
        state = (d_low, d_high, r_low, r_high)
        hit = split_cache.get(state)
        if hit is not None:
            if stats is not None:
                stats.split_cache_hits += 1
            return hit
    big_n = r_high - r_low + 1
    y = r_low - 1 + big_n // 2
    coins = tape.stream((d_low, d_high, r_low, r_high, _SEARCH_TAG, y))
    x = d_low - 1 + hgd_sample(
        coins,
        population=big_n,
        successes=d_high - d_low + 1,
        draws=big_n // 2,
    )
    if stats is not None:
        stats.hgd_draws += 1
    if split_cache is not None:
        split_cache[state] = (x, y)
    return x, y


def bucket_for_plaintext(
    key: KeyedTape | bytes,
    domain: Interval,
    range_: Interval,
    plaintext: int,
    split_cache: SplitCache | None = None,
    stats: MappingStats | None = None,
) -> BucketResult:
    """Descend the keyed binary search by plaintext; return its bucket.

    This is the ``while |D| != 1`` loop of Algorithm 1.  ``key`` is the
    caller's :class:`KeyedTape` (keyed once for all its descents) or
    the raw key bytes; the two give identical buckets.
    """
    tape = _as_tape(key)
    if domain.size > range_.size:
        raise ParameterError(
            f"domain size {domain.size} exceeds range size {range_.size}"
        )
    if plaintext not in domain:
        raise DomainError(
            f"plaintext {plaintext} outside domain [{domain.low}, {domain.high}]"
        )
    if stats is not None:
        stats.descents += 1
    d_low, d_high = domain.low, domain.high
    r_low, r_high = range_.low, range_.high
    rounds = 0
    while d_low != d_high:
        x, y = _split(tape, d_low, d_high, r_low, r_high, split_cache, stats)
        rounds += 1
        if plaintext <= x:
            d_high, r_high = x, y
        else:
            d_low, r_low = x + 1, y + 1
    return BucketResult(
        plaintext=d_low, bucket=Interval(r_low, r_high), rounds=rounds
    )


def plaintext_for_ciphertext(
    key: KeyedTape | bytes,
    domain: Interval,
    range_: Interval,
    ciphertext: int,
    split_cache: SplitCache | None = None,
    stats: MappingStats | None = None,
) -> BucketResult:
    """Descend the keyed binary search by ciphertext; return its bucket.

    Because the split coins depend only on the current ``(D, R, y)``
    state, descending by ``c <= y`` reproduces exactly the path that
    :func:`bucket_for_plaintext` takes for the plaintext whose bucket
    contains ``c``.  This works for *any* point of the bucket, which is
    what makes the one-to-many mapping invertible.  ``key`` is a
    :class:`KeyedTape` or raw key bytes, as for
    :func:`bucket_for_plaintext`.
    """
    tape = _as_tape(key)
    if domain.size > range_.size:
        raise ParameterError(
            f"domain size {domain.size} exceeds range size {range_.size}"
        )
    if ciphertext not in range_:
        raise RangeError(
            f"ciphertext {ciphertext} outside range [{range_.low}, {range_.high}]"
        )
    if stats is not None:
        stats.descents += 1
    d_low, d_high = domain.low, domain.high
    r_low, r_high = range_.low, range_.high
    rounds = 0
    while d_low != d_high:
        x, y = _split(tape, d_low, d_high, r_low, r_high, split_cache, stats)
        rounds += 1
        if ciphertext <= y:
            d_high, r_high = x, y
        else:
            d_low, r_low = x + 1, y + 1
        if d_high < d_low:
            # The ciphertext fell into slack range space that no domain
            # point occupies; it is not in any plaintext's bucket.
            raise RangeError(
                f"ciphertext {ciphertext} does not belong to any plaintext bucket"
            )
    return BucketResult(
        plaintext=d_low, bucket=Interval(r_low, r_high), rounds=rounds
    )


def bucket_table(
    key: KeyedTape | bytes,
    domain: Interval,
    range_: Interval,
    split_cache: SplitCache | None = None,
    stats: MappingStats | None = None,
) -> dict[int, BucketResult]:
    """Every plaintext's bucket in one walk of the split tree.

    The per-plaintext descent revisits the prefix of its binary-search
    path for every neighbouring plaintext; walking the whole recursion
    tree instead performs each split exactly once — one HGD draw per
    internal node (``M - 1`` halving splits plus slack chains, ~=
    ``1.6 M`` at paper parameters) for all ``M`` buckets, versus ~=
    ``8.3 M`` draws for ``M`` independent descents.  Each returned
    :attr:`BucketResult.rounds` equals the plaintext's tree depth,
    which is exactly what :func:`bucket_for_plaintext` would report.
    ``key`` is a :class:`KeyedTape` or raw key bytes.
    """
    tape = _as_tape(key)
    if domain.size > range_.size:
        raise ParameterError(
            f"domain size {domain.size} exceeds range size {range_.size}"
        )
    table: dict[int, BucketResult] = {}
    stack = [(domain.low, domain.high, range_.low, range_.high, 0)]
    while stack:
        d_low, d_high, r_low, r_high, depth = stack.pop()
        if d_low == d_high:
            table[d_low] = BucketResult(
                plaintext=d_low, bucket=Interval(r_low, r_high), rounds=depth
            )
            continue
        x, y = _split(tape, d_low, d_high, r_low, r_high, split_cache, stats)
        # A split may push every domain point to one side (the other
        # side is pure range slack, holding no buckets) — only descend
        # into halves that still contain domain points.
        if x >= d_low:
            stack.append((d_low, x, r_low, y, depth + 1))
        if x < d_high:
            stack.append((x + 1, d_high, y + 1, r_high, depth + 1))
    return table


class OrderPreservingEncryption:
    """Deterministic OPSE over ``D = {1..M}``, ``R = {1..N}``.

    Parameters
    ----------
    key:
        Secret key; all pseudo-randomness is derived from it.
    domain_size:
        ``M``, the number of plaintext score levels (the paper encodes
        relevance scores into ``M = 128`` levels).
    range_size:
        ``N >= M``; the paper sizes it via the min-entropy analysis of
        Section IV-C (e.g. ``N = 2**46``).
    cache_splits:
        Share binary-search split results across descents (the results
        depend only on the key and the recursion state, so caching is
        semantically invisible — ciphertexts are byte-identical).
        Disable to measure raw per-operation descent cost.

    Notes
    -----
    For the paper's *security* level the original OPSE guidance is
    ``M = N/2 > 80`` giving more than ``2**80`` order-preserving
    functions; the RSSE scheme instead enlarges ``N`` far beyond that to
    flatten the ciphertext distribution.
    """

    def __init__(
        self,
        key: bytes,
        domain_size: int,
        range_size: int,
        cache_splits: bool = True,
    ):
        if not key:
            raise ParameterError("OPSE key must be non-empty")
        if domain_size < 1:
            raise ParameterError(f"domain size must be >= 1, got {domain_size}")
        if range_size < domain_size:
            raise ParameterError(
                f"range size {range_size} must be >= domain size {domain_size}"
            )
        self._domain = Interval(1, domain_size)
        self._range = Interval(1, range_size)
        self._split_cache: SplitCache | None = {} if cache_splits else None
        self._tape = KeyedTape(key)
        self.stats = MappingStats()

    @property
    def domain(self) -> Interval:
        """The plaintext domain ``[1, M]``."""
        return self._domain

    @property
    def range(self) -> Interval:
        """The ciphertext range ``[1, N]``."""
        return self._range

    def bucket(self, plaintext: int) -> Interval:
        """Return the range interval assigned to ``plaintext``."""
        return bucket_for_plaintext(
            self._tape,
            self._domain,
            self._range,
            plaintext,
            self._split_cache,
            self.stats,
        ).bucket

    def bucket_table(self) -> dict[int, Interval]:
        """Every plaintext's bucket via one walk of the split tree."""
        table = bucket_table(
            self._tape,
            self._domain,
            self._range,
            self._split_cache if self._split_cache is not None else {},
            self.stats,
        )
        return {
            plaintext: result.bucket for plaintext, result in table.items()
        }

    def encrypt(self, plaintext: int) -> int:
        """Deterministically encrypt ``plaintext`` to a range point.

        The ciphertext is drawn uniformly from the plaintext's bucket
        using coins seeded by ``(D, R, 1 || m)`` — the same plaintext
        always selects the same point.
        """
        result = bucket_for_plaintext(
            self._tape,
            self._domain,
            self._range,
            plaintext,
            self._split_cache,
            self.stats,
        )
        seed = encode_context(
            (
                result.bucket.low,
                result.bucket.high,
                _CHOICE_TAG,
                result.plaintext,
            )
        )
        return self._tape.choice(
            seed, result.bucket.low, result.bucket.high, self.stats
        )

    def decrypt(self, ciphertext: int, verify: bool = True) -> int:
        """Recover the plaintext whose bucket contains ``ciphertext``.

        With ``verify=True`` (the default) the ciphertext must be the
        canonical point :meth:`encrypt` would produce; other bucket
        points raise :class:`~repro.errors.RangeError`.  Pass
        ``verify=False`` to accept any bucket point (bucket-inverse
        semantics, used by the one-to-many mapping).
        """
        result = plaintext_for_ciphertext(
            self._tape,
            self._domain,
            self._range,
            ciphertext,
            self._split_cache,
            self.stats,
        )
        if verify and self.encrypt(result.plaintext) != ciphertext:
            raise RangeError(
                f"ciphertext {ciphertext} is in the bucket of plaintext "
                f"{result.plaintext} but is not its canonical encryption"
            )
        return result.plaintext

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OrderPreservingEncryption(M={self._domain.size}, N={self._range.size})"
        )
