"""Exp 13 (beyond the paper) — the sharded service under concurrency.

The paper evaluates one enclave answering one query at a time.  A
deployed Concealer front door multiplexes many analysts over a fleet of
enclaves, so this experiment measures what the sharded asyncio router
buys (and costs):

- **latency vs concurrency** — p50/p99 per-request latency as 1/4/8
  concurrent clients drive a mixed point/range workload through fleets
  of 1, 2, and 4 shards.  Scatter-gather adds per-shard dispatch
  overhead to every range query; per-shard thread pools claw it back as
  concurrency rises because sub-queries overlap across shards.
- **dispatch accounting** — sub-dispatches per range query equal the
  participant count (a pure function of the topology and the routed
  cells, so it is tracked by the CI regression gate via bench_json).
- **degraded mode** — the same workload with one shard down: partial
  answers must not cost more than full ones (the isolated shard is
  skipped at planning time, not timed out).
- **replication overhead** — the same fleet with every shard fronting
  a three-replica group: reads are served by one replica behind
  verify-then-failover, so a healthy replicated fleet should track the
  unreplicated latency rows, not multiply them.

Latencies here are wall-clock and therefore informational; the
JSON artifact feeds EXPERIMENTS.md, not the regression gate.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time

import pytest

from repro import telemetry
from repro.core.queries import PointQuery, RangeQuery
from repro.telemetry import Tracer, tracing

from harness import RESULTS_DIR, paper_row, save_result

CLIENT_COUNTS = (1, 4, 8)
# (shards, replicas): the unreplicated shard axis, plus one replicated
# shape — 2 shards × 3 replicas — sized like the composed chaos corpus.
FLEET_SHAPES = ((1, 1), (2, 1), (4, 1), (2, 3))
REQUESTS_PER_CLIENT = 12


def _percentiles(samples: list[float]) -> tuple[float, float]:
    ordered = sorted(samples)
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, int(round(0.99 * (len(ordered) - 1))))]
    return p50, p99


def _client_mix(records, client_id: int):
    """A deterministic per-client mix: 2 ranges per 10 points."""
    queries = []
    for index in range(REQUESTS_PER_CLIENT):
        record = records[(client_id * 37 + index * 11) % len(records)]
        if index % 6 == 5:
            queries.append(
                RangeQuery(
                    index_values=(tuple(sorted({r[0] for r in records})),),
                    time_start=0,
                    time_end=1799,
                )
            )
        else:
            queries.append(
                PointQuery(index_values=(record[0],), timestamp=record[1])
            )
    return queries


async def _drive(
    router, records, clients: int
) -> tuple[list[tuple[float, str]], float]:
    """``clients`` concurrent loops; per-request ``(latency, trace_id)``
    samples plus the wall-clock seconds the whole timed phase took.

    Every request runs under its own root span, so any latency sample —
    in particular the p99-driving one — links to a full trace tree in
    the run's buffer (the exemplar the results artifact records).
    """
    latencies: list[tuple[float, str]] = []
    # Built before the clock starts: the timed phase is serving only.
    mixes = [_client_mix(records, client_id) for client_id in range(clients)]

    async def client(queries):
        for query in queries:
            kind = "point" if isinstance(query, PointQuery) else "range"
            start = time.perf_counter()
            with telemetry.span("bench.request", kind=kind) as root:
                if isinstance(query, PointQuery):
                    await router.execute_point(query)
                else:
                    await router.execute_range(query)
            latencies.append((time.perf_counter() - start, root.trace_id))

    started = time.perf_counter()
    await asyncio.gather(*(client(queries) for queries in mixes))
    return latencies, time.perf_counter() - started


@pytest.fixture(
    scope="module",
    params=FLEET_SHAPES,
    ids=[f"shards{s}-replicas{r}" for s, r in FLEET_SHAPES],
)
def fleet(request, tmp_path_factory):
    from repro.sharding.server import build_demo_fleet

    shards, replicas = request.param
    workdir = tmp_path_factory.mktemp(f"exp13-{shards}x{replicas}")
    sharded, router, records = build_demo_fleet(
        shards, workdir, replicas=replicas
    )
    yield shards, replicas, sharded, router, records
    router.close()


def _shape_key(shards: int, replicas: int) -> str:
    """Result key: unreplicated keys keep their pre-replication names."""
    if replicas == 1:
        return f"shards_{shards}"
    return f"shards_{shards}_replicas_{replicas}"


def test_exp13_latency_vs_concurrency(fleet):
    shards, replicas, _, router, records = fleet
    rows = {}
    for clients in CLIENT_COUNTS:
        # A run-scoped tracer large enough that no request's trace is
        # evicted before the slowest one is identified.
        with telemetry.scoped_tracer(
            Tracer(capacity=4 * clients * REQUESTS_PER_CLIENT)
        ) as tracer:
            samples, wall_s = asyncio.run(_drive(router, records, clients))
        latencies = [latency for latency, _ in samples]
        p50, p99 = _percentiles(latencies)
        # Completed queries per wall-clock second of the timed phase.
        throughput = len(latencies) / wall_s

        # Exemplar: the slowest request is the one that set p99 — dump
        # its full trace tree next to the results so a regression in
        # this row is diagnosable from the artifact alone.
        slowest_s, slowest_trace = max(samples)
        tree = tracing.find_trace(tracer.traces(), slowest_trace)
        trace_file = (
            f"exp13_trace_{_shape_key(shards, replicas)}"
            f"_clients_{clients}.json"
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / trace_file).write_text(json.dumps(
            {
                "latency_s": round(slowest_s, 6),
                "trace_id": slowest_trace,
                "stage_timings_s": {
                    stage: round(seconds, 6)
                    for stage, seconds in sorted(
                        tracing.stage_timings(tree).items()
                    )
                } if tree is not None else {},
                "tree": tracing.span_to_dict(tree) if tree is not None else None,
            },
            indent=2,
        ))

        rows[f"clients_{clients}"] = {
            "requests": len(latencies),
            "p50_s": round(p50, 6),
            "p99_s": round(p99, 6),
            "throughput_qps": round(throughput, 2),
            "p99_exemplar_trace_id": slowest_trace,
            "p99_exemplar_trace_file": trace_file,
        }
        print(paper_row(
            "exp13",
            f"shards-{shards}-replicas-{replicas}-clients-{clients}",
            p50_s=round(p50, 5), p99_s=round(p99, 5),
            qps=round(throughput, 1), exemplar=slowest_trace,
        ))
    save_result("exp13_service", {_shape_key(shards, replicas): rows})


def test_exp13_dispatch_accounting(fleet):
    """Sub-dispatches per range query == healthy participant count.

    Replication is invisible here by design: a replica group serves
    behind its shard, so the dispatch count stays a function of the
    topology and the routed cells regardless of ``replicas``.
    """
    shards, replicas, sharded, router, records = fleet
    registry = telemetry.get_registry()
    wildcard = (tuple(sorted({r[0] for r in records})),)
    query = RangeQuery(index_values=wildcard, time_start=0, time_end=3599)
    _, _, participants = sharded.plan_range(query)

    before = sum(
        value
        for key, value in registry.label_values(
            "concealer_shard_dispatch_total"
        ).items()
        if key[1] == "range"
    )
    asyncio.run(router.execute_range(query))
    after = sum(
        value
        for key, value in registry.label_values(
            "concealer_shard_dispatch_total"
        ).items()
        if key[1] == "range"
    )
    assert after - before == len(participants)
    save_result("exp13_service", {
        f"{_shape_key(shards, replicas)}_dispatch": {
            "participants": len(participants),
            "dispatches_per_range": after - before,
        }
    })


def test_exp13_degraded_mode_is_not_slower(fleet):
    """One shard down: partials are planned around, never timed out."""
    shards, replicas, sharded, router, records = fleet
    if shards == 1:
        pytest.skip("degraded mode needs a fleet")
    wildcard = (tuple(sorted({r[0] for r in records})),)
    query = RangeQuery(index_values=wildcard, time_start=0, time_end=3599)

    start = time.perf_counter()
    asyncio.run(router.execute_range(query))
    healthy_s = time.perf_counter() - start

    sharded.shards[shards - 1].service.enclave.crash()
    start = time.perf_counter()
    answer, stats = asyncio.run(router.execute_range(query))
    degraded_s = time.perf_counter() - start
    assert stats.missing_shards == (shards - 1,)
    # Generous bound: skipping a dead shard must not add a timeout-like
    # delay (the deadline budget is 30s; 5× a healthy query is noise).
    assert degraded_s < max(1.0, healthy_s * 5)

    sharded.heal()
    print(paper_row(
        "exp13", f"shards-{shards}-replicas-{replicas}-degraded",
        healthy_s=round(healthy_s, 5), degraded_s=round(degraded_s, 5),
    ))
    save_result("exp13_service", {
        f"{_shape_key(shards, replicas)}_degraded": {
            "healthy_s": round(healthy_s, 6),
            "degraded_s": round(degraded_s, 6),
        }
    })


def test_exp13_in_shard_failover_is_absorbed(fleet):
    """Replicated fleets: a dead replica costs failovers, not partials.

    Every shard loses replica 0's epoch table; the fleet-wide range must
    still come back complete (no missing shards), with the replica
    failovers visible only in the public-size counter — and at a latency
    comparable to healthy serving, since failover is one extra storage
    attempt, not a timeout.
    """
    shards, replicas, sharded, router, records = fleet
    if replicas == 1:
        pytest.skip("needs replica groups")
    wildcard = (tuple(sorted({r[0] for r in records})),)
    query = RangeQuery(index_values=wildcard, time_start=0, time_end=3599)

    start = time.perf_counter()
    asyncio.run(router.execute_range(query))
    healthy_s = time.perf_counter() - start

    table = f"epoch_{sharded.ingested_epochs()[0]}"
    for shard in sharded.shards:
        shard.replicated_engine().replicas[0].drop_table(table)

    registry = telemetry.get_registry()
    failovers_before = registry.total("concealer_shard_replica_failovers_total")
    start = time.perf_counter()
    answer, stats = asyncio.run(router.execute_range(query))
    failover_s = time.perf_counter() - start
    failovers = (
        registry.total("concealer_shard_replica_failovers_total")
        - failovers_before
    )
    assert stats.missing_shards == ()
    assert failovers > 0

    sharded.heal()
    print(paper_row(
        "exp13", f"shards-{shards}-replicas-{replicas}-failover",
        healthy_s=round(healthy_s, 5), failover_s=round(failover_s, 5),
        failovers=failovers,
    ))
    save_result("exp13_service", {
        f"{_shape_key(shards, replicas)}_failover": {
            "healthy_s": round(healthy_s, 6),
            "failover_s": round(failover_s, 6),
            "replica_failovers": failovers,
        }
    })
