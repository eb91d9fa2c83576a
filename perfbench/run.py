"""Serving benchmark: a seeded, paper-scale deployment under three
traffic mixes, over the full client -> TCP -> front end -> worker path.

    python3 perfbench/run.py --workload hot_search --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics (see README.md).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record
(machine, sample counts, first failures, response digest).  Exits 1
when any answer was wrong and 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
SOURCE = CHECKOUT / "src"
WORKLOADS = ("hot_search", "tail_search", "search_insert")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(
            f"error: no repro package under {SOURCE}; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    listed = declared["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SOURCE))
    from serving import run  # needs src/ on the path

    work = CHECKOUT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        metrics, failures, attempted, record = run(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != {metric["name"] for metric in listed}:
        raise RuntimeError("computed metrics differ from BENCHMARK.json")
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        failed_frac=len(failures) / attempted,
        failures=failures[:5],
    )
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            metric["name"]: {
                "value": metrics[metric["name"]],
                "unit": metric["unit"],
            }
            for metric in listed
        },
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
