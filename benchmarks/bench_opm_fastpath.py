"""OPM fast-path perf harness — the regression gate for this layer.

Measures a full keyword build (map every posting of one posting list)
through two code paths that produce byte-identical output:

* **fast** — the shipped path: shared split-tree cache, batch
  :meth:`~repro.crypto.opm.OneToManyOpm.map_scores`, pre-keyed tape
  (one HMAC block per entry);
* **legacy** — an in-bench emulation of the pre-fast-path cached
  implementation: per-score bucket memoization but *no* shared split
  tree (every bucket miss pays the full descent's HGD draws) and a
  fresh ``CoinStream`` keying per mapped entry.

The report lands in ``benchmarks/results/BENCH_opm.json`` (``--smoke``
runs and the pytest entry point write the gitignored
``BENCH_opm.smoke.json`` instead) with entries/sec for both paths,
HGD draws per keyword build, and wall times.  Two kinds of gates:

* machine-independent (always checked by ``test_opm_fastpath_gates``):
  the fast path must do >= 5x fewer HGD draws per keyword build and
  map >= 2x more entries/sec than the legacy path;
* machine-dependent (``--check-baseline``): fast entries/sec must not
  regress more than 30% below the committed
  ``benchmarks/results/BENCH_opm_baseline.json`` (a deliberately
  conservative floor so CI runners of different speeds all pass while
  a real regression — a lost cache — still trips it).

Run standalone (``python benchmarks/bench_opm_fastpath.py [--smoke]
[--check-baseline]``) or through pytest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.crypto.opm import OneToManyOpm
from repro.crypto.opse import Interval, bucket_for_plaintext
from repro.crypto.stats import MappingStats
from repro.crypto.tape import CoinStream

SEED_KEY = bytes(range(32, 64))
DOMAIN = 128  # M, paper parameterization
RANGE_SIZE = 1 << 46  # |R| = 2**46
MIN_SPEEDUP = 2.0
MIN_DRAW_RATIO = 5.0
BASELINE_TOLERANCE = 0.30

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_opm_baseline.json"
REPORT_PATH = RESULTS_DIR / "BENCH_opm.json"
#: Where ``--smoke`` runs (and the pytest entry point) write instead:
#: gitignored, so a local gate run never overwrites the committed report.
SMOKE_REPORT_PATH = RESULTS_DIR / "BENCH_opm.smoke.json"


def make_workload(num_entries: int) -> list[tuple[int, bytes]]:
    """A posting list's worth of (level, file_id) pairs.

    Walks every level of the domain (stride 37 is coprime with 128, so
    the cycle covers all of them) — a full keyword build touches each
    quantized level, which is what the HGD-draw criterion is about.
    """
    items = []
    for i in range(num_entries):
        level = 1 + (i * 37) % DOMAIN
        items.append((level, b"file-%08d" % i))
    return items


def run_fast(items: list[tuple[int, bytes]]) -> tuple[float, MappingStats]:
    """Time a keyword build through the shipped fast path."""
    opm = OneToManyOpm(SEED_KEY, DOMAIN, RANGE_SIZE)
    start = time.perf_counter()
    values = opm.map_scores(items)
    elapsed = time.perf_counter() - start
    assert len(values) == len(items)
    return elapsed, opm.stats


def run_legacy(items: list[tuple[int, bytes]]) -> tuple[float, MappingStats]:
    """Time the same build through the pre-fast-path implementation.

    Mirrors the old cached ``map_score`` loop: per-score bucket
    memoization, no shared split tree, one fresh ``CoinStream`` keying
    per entry.  Output bytes are identical; only the work differs.
    """
    stats = MappingStats()
    domain = Interval(1, DOMAIN)
    range_ = Interval(1, RANGE_SIZE)
    bucket_cache: dict[int, object] = {}
    start = time.perf_counter()
    values = []
    for level, file_id in items:
        result = bucket_cache.get(level)
        if result is None:
            stats.bucket_cache_misses += 1
            result = bucket_for_plaintext(
                SEED_KEY, domain, range_, level, None, stats
            )
            bucket_cache[level] = result
        else:
            stats.bucket_cache_hits += 1
        coins = CoinStream(
            SEED_KEY,
            (result.bucket.low, result.bucket.high, 1, level, file_id),
        )
        values.append(coins.choice(result.bucket.low, result.bucket.high))
        stats.choices += 1
    elapsed = time.perf_counter() - start
    assert len(values) == len(items)
    return elapsed, stats


def check_equivalence(items: list[tuple[int, bytes]]) -> None:
    """Both paths must produce the same bytes before being timed."""
    opm = OneToManyOpm(SEED_KEY, DOMAIN, RANGE_SIZE)
    fast_values = opm.map_scores(items)
    domain = Interval(1, DOMAIN)
    range_ = Interval(1, RANGE_SIZE)
    for (level, file_id), fast_value in zip(items, fast_values):
        result = bucket_for_plaintext(SEED_KEY, domain, range_, level)
        coins = CoinStream(
            SEED_KEY,
            (result.bucket.low, result.bucket.high, 1, level, file_id),
        )
        legacy_value = coins.choice(result.bucket.low, result.bucket.high)
        if legacy_value != fast_value:
            raise AssertionError(
                f"fast path diverged at ({level}, {file_id!r}): "
                f"{fast_value} != {legacy_value}"
            )


def run_benchmark(
    num_entries: int, repeats: int = 3, report_path: Path = REPORT_PATH
) -> dict:
    items = make_workload(num_entries)
    check_equivalence(items[: min(64, len(items))])

    fast_time = float("inf")
    legacy_time = float("inf")
    fast_stats = legacy_stats = None
    for _ in range(repeats):
        elapsed, stats = run_fast(items)
        if elapsed < fast_time:
            fast_time, fast_stats = elapsed, stats
        elapsed, stats = run_legacy(items)
        if elapsed < legacy_time:
            legacy_time, legacy_stats = elapsed, stats

    report = {
        "parameters": {
            "domain_size": DOMAIN,
            "range_size_log2": RANGE_SIZE.bit_length() - 1,
            "entries": num_entries,
            "repeats": repeats,
        },
        "fast": {
            "build_seconds": fast_time,
            "entries_per_sec": num_entries / fast_time,
            "hgd_draws_per_keyword": fast_stats.hgd_draws,
            "tape_blocks": fast_stats.tape_blocks,
            "stats": fast_stats.as_dict(),
        },
        "legacy": {
            "build_seconds": legacy_time,
            "entries_per_sec": num_entries / legacy_time,
            "hgd_draws_per_keyword": legacy_stats.hgd_draws,
            "stats": legacy_stats.as_dict(),
        },
        "speedup": legacy_time / fast_time,
        "hgd_draw_ratio": (
            legacy_stats.hgd_draws / max(1, fast_stats.hgd_draws)
        ),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gates(report: dict) -> list[str]:
    """Machine-independent gates; returns failure messages (empty = ok)."""
    failures = []
    if report["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"speedup {report['speedup']:.2f}x below required "
            f"{MIN_SPEEDUP:.1f}x"
        )
    if report["hgd_draw_ratio"] < MIN_DRAW_RATIO:
        failures.append(
            f"HGD draw ratio {report['hgd_draw_ratio']:.2f}x below "
            f"required {MIN_DRAW_RATIO:.1f}x"
        )
    return failures


def check_baseline(report: dict) -> list[str]:
    """Machine-dependent gate vs the committed baseline floor."""
    if not BASELINE_PATH.exists():
        return [f"no baseline at {BASELINE_PATH}"]
    baseline = json.loads(BASELINE_PATH.read_text())
    floor = baseline["fast"]["entries_per_sec"] * (1.0 - BASELINE_TOLERANCE)
    measured = report["fast"]["entries_per_sec"]
    if measured < floor:
        return [
            f"fast path at {measured:,.0f} entries/sec is more than "
            f"{BASELINE_TOLERANCE:.0%} below the baseline floor "
            f"({floor:,.0f})"
        ]
    return []


def format_report(report: dict) -> str:
    fast = report["fast"]
    legacy = report["legacy"]
    return "\n".join(
        [
            "OPM fast path — keyword build "
            f"(M={DOMAIN}, |R|=2^{report['parameters']['range_size_log2']}, "
            f"{report['parameters']['entries']} entries)",
            f"  fast:   {fast['entries_per_sec']:>12,.0f} entries/sec  "
            f"({fast['build_seconds'] * 1e3:.1f} ms, "
            f"{fast['hgd_draws_per_keyword']} HGD draws, "
            f"{fast['tape_blocks']} tape blocks)",
            f"  legacy: {legacy['entries_per_sec']:>12,.0f} entries/sec  "
            f"({legacy['build_seconds'] * 1e3:.1f} ms, "
            f"{legacy['hgd_draws_per_keyword']} HGD draws)",
            f"  speedup: {report['speedup']:.2f}x   "
            f"HGD draw ratio: {report['hgd_draw_ratio']:.2f}x",
        ]
    )


def test_opm_fastpath_gates():
    """Pytest entry point at smoke scale (the CI perf-smoke step)."""
    report = run_benchmark(
        num_entries=2000, repeats=2, report_path=SMOKE_REPORT_PATH
    )
    print(format_report(report))
    assert not check_gates(report), check_gates(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="OPM fast-path benchmark and regression gate"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller workload for a fast CI smoke run",
    )
    parser.add_argument("--entries", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail if fast entries/sec regressed >30%% vs the committed "
        "baseline",
    )
    arguments = parser.parse_args()
    entries = arguments.entries or (2000 if arguments.smoke else 10000)
    bench_report = run_benchmark(
        entries,
        arguments.repeats,
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
