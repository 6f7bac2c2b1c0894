"""Benchmark server: a seeded Concealer fleet behind ``ShardServer``.

Usage: ``python3 perfbench/server.py SPEC.json`` with ``src`` on
``PYTHONPATH``.  The spec names the generated records file, the grid,
the fleet shape and where to write the result.  The launcher builds a
``ShardedService`` through the public API, lands the records with the
two-phase coordinator, and serves the repository's JSON-lines protocol
on a free localhost port.

Lifecycle, on stdout:

- ``ready {...}`` once listening, with the fleet sizes;
- SIGUSR1 installs the per-layer timing wrappers (``layers.py``) and
  answers ``traced``;
- SIGTERM drains and checkpoints (the ``--serve`` shutdown path), writes
  the result file (peak RSS, and the span aggregates when traced) and
  answers ``stopped <drained>``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import resource
import signal
import sys

import layers
from workloads import DATA_SEED
from repro import WIFI_SCHEMA, DataProvider, GridSpec
from repro.sharding.coordinator import ingest_epoch_sharded
from repro.sharding.router import AsyncShardRouter
from repro.sharding.server import ShardServer
from repro.sharding.service import ShardedConfig, ShardedService


def seeded_provider(spec: dict) -> DataProvider:
    """A data provider whose keys and randomness are fixed, so every run
    places, bins and pads the data identically."""
    grid = GridSpec(
        dimension_sizes=(spec["access_points"], spec["time_buckets"]),
        cell_id_count=spec["cell_ids"],
        epoch_duration=spec["epoch_seconds"],
    )
    return DataProvider(
        WIFI_SCHEMA, grid, first_epoch_id=spec["epoch_start"],
        master_key=hashlib.sha256(f"perfbench-{DATA_SEED}".encode()).digest(),
        time_granularity=60, rng=random.Random(DATA_SEED),
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def serve(spec: dict) -> None:
    with open(spec["records"]) as handle:
        records = [tuple(record) for record in json.load(handle)]
    config = ShardedConfig(
        shards=spec["shards"], replicas=spec["replicas"], verify=True,
        oblivious=spec["oblivious"],
    )
    sharded = ShardedService.build(
        seeded_provider(spec["dataset"]), config, spec["workdir"],
        retry_rng_seed=f"perfbench-{DATA_SEED}",
    )
    stored = ingest_epoch_sharded(
        sharded, records, epoch_id=spec["dataset"]["epoch_start"]
    )
    server = ShardServer(AsyncShardRouter(sharded))
    port = await server.start()
    server.install_signal_handlers()

    recorder = layers.Recorder()

    def trace_layers() -> None:
        layers.install(recorder)
        print("traced", flush=True)

    asyncio.get_running_loop().add_signal_handler(signal.SIGUSR1, trace_layers)
    ready = {
        "port": port,
        "records": len(records),
        "stored_rows_per_shard": stored,
        "trapdoor_table_slots": (
            0 if config.oblivious else config.trapdoor_table_slots
        ),
    }
    print("ready " + json.dumps(ready), flush=True)
    drained = await server.serve_until_stopped()
    with open(spec["result"], "w") as handle:
        json.dump({"peak_rss_mb": peak_rss_mb(), "spans": recorder.dump()}, handle)
    print(f"stopped {drained}", flush=True)


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    asyncio.run(serve(spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
