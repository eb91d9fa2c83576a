"""Server process for the serving benchmark.

Loads a saved deployment and serves it with ``NetServer`` at the
``repro serve --result-cache`` defaults (4 shard worker processes, an
8 MiB front-end result cache, a per-worker ranked LRU of 256 lists),
plus an update token so the owner can insert documents over the wire.

Prints one JSON line once the socket is bound:
``{"port": ..., "pids": [front end, workers...], "load_s": ...}``, then
serves until its standard input closes.  Closing stdin (or the parent
dying) shuts the server and its workers down.

Run: ``python3 perfbench/serve.py --deployment DIR --token HEX [--obs]``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cloud.cache import DEFAULT_RESULT_CACHE_BYTES  # noqa: E402
from repro.cloud.netserve import NetServer  # noqa: E402
from repro.cloud.persistence import (  # noqa: E402
    load_outsourcing,
    load_sharded_outsourcing,
)
from repro.obs import Obs  # noqa: E402

NUM_SHARDS = 4


def load(root: Path):
    """The deployment's index and blob store, in the saved store's view."""
    manifest = json.loads((root / "manifest.json").read_text())
    if manifest.get("sharded"):
        index, blobs, _ = load_sharded_outsourcing(root)
        return index, blobs
    outsourcing, _ = load_outsourcing(root)
    return outsourcing.secure_index, outsourcing.blob_store


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deployment", required=True)
    parser.add_argument("--token", required=True, help="update token, hex")
    parser.add_argument("--obs", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    index, blobs = load(Path(args.deployment))
    load_s = time.perf_counter() - started
    server = NetServer(
        index,
        blobs,
        can_rank=True,
        num_shards=NUM_SHARDS,
        cache_searches=True,
        result_cache_bytes=DEFAULT_RESULT_CACHE_BYTES,
        update_token=bytes.fromhex(args.token),
        obs=Obs.enabled() if args.obs else None,
    )
    server.start()
    try:
        pids = [os.getpid()] + [p.pid for p in server.worker_processes]
        print(
            json.dumps({"port": server.port, "pids": pids, "load_s": load_s}),
            flush=True,
        )
        sys.stdin.read()
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
