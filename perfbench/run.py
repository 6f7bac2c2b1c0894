"""Concealer benchmark: four workloads, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload serve-point --seed 1 \
        --seconds 18 --trace 0

Workloads (why each exists: NOTES.md):

- ``serve-point``  BPB point queries, 2 connections, 2 shards x 1 replica
- ``serve-range``  scans + long windows, 1 connection, 2 shards x 3 replicas
- ``ingest``       in-process epoch ingest + readback, 2 shards x 3 replicas
- ``oblivious``    Concealer+ point queries, 1 connection, 1 shard x 1 replica

The serving workloads launch ``server.py`` (a seeded fleet behind the
repository's ``ShardServer``) and drive it over TCP in a closed loop.
Every workload replays a fixed round of requests (ingest: an hour and
its readback queries) until the time is up, and its timing figures
come from each item's fastest answer.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` makes a separate run that also times
every layer (``layers.py``) and reports the per-layer metrics.  Every answer is checked against a plaintext
oracle; a wrong answer exits 1.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import queue
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(ROOT / "src"))
try:
    import layers
    from repro import telemetry
    from repro.core.queries import Aggregate, PointQuery, RangeQuery
    from repro.exceptions import ConcealerError
    from repro.sharding import coordinator
    from repro.sharding.results import PartialResult
    from repro.sharding.service import ShardedConfig, ShardedService
    from repro.telemetry import tracing
    from repro.workloads import generate_wifi_trace
    from server import seeded_provider
    from workloads import (
        DATA_SEED,
        SCAN_SHAPES,
        Truth,
        encode,
        ingest_config,
        ingest_epoch_starts,
        is_scan,
        normalise,
        oblivious_dataset,
        point_queries,
        range_cycle,
        readback_queries,
        serve_dataset,
    )
except ImportError as missing:
    sys.exit(f"perfbench: the repository's package is not importable ({missing})")

# Each setup is repeated and its median reported, so that set-up time
# is steady enough to gate; the expensive fleets repeat less often to
# keep a run inside its time budget.
SETUP_REPEATS = {"serve-point": 2, "serve-range": 2, "ingest": 3, "oblivious": 3}

# Requests in one round of a point workload; a serve-range round is one
# scan cycle of 21 requests per entry of SCAN_SHAPES.  The timed phase
# replays the round until the time is up, eight times over or more at
# the benchmark's 18 seconds, so every request has several answers to
# take the fastest of.
ROUND = {"serve-point": 100, "oblivious": 24}

# Count-type layer metrics are read over the first COUNT_WINDOW requests
# (ingest: landings) of the timed phase, so with one client two runs of
# one seed do exactly the same work inside the window.
COUNT_WINDOW = {"serve-point": 200, "serve-range": 63, "ingest": 2, "oblivious": 20}

# Ingest sets up with one hour, then cycles through INGEST_CYCLE more.
# Each landing leaves INGEST_RETENTION hours landed: older ones are
# evicted first, so memory stays level and every landing of an hour
# meets the same fleet state.
INGEST_CYCLE = 1
INGEST_RETENTION = 1

END_TO_END = (
    ("setup_s", "s"),
    ("best_rate_per_s", "1/s"),
    ("best_p50_ms", "ms"),
    ("best_p90_ms", "ms"),
    ("answered_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

KERNELS = ("det_encrypt", "det_decrypt", "nd_encrypt", "nd_decrypt", "chain_extend")
PLANNER_METHODS = ("tree", "ebpb", "multipoint", "winsecrange")

PER_LAYER = (
    ("wire.ms_per_query", "ms"),
    ("wire.bytes_per_query", "bytes"),
    ("router.plan_ms_per_query", "ms"),
    ("router.dispatch_wait_ms_per_query", "ms"),
    ("router.subqueries_per_query", "count"),
    ("router.shed", "count"),
    ("service.self_ms_per_query", "ms"),
    *((f"planner.share.{method}", "ratio") for method in PLANNER_METHODS),
    ("enclave.trapdoor_ms_per_query", "ms"),
    ("enclave.fetch_ms_per_query", "ms"),
    ("enclave.verify_ms_per_query", "ms"),
    ("enclave.filter_ms_per_query", "ms"),
    ("enclave.decrypt_ms_per_query", "ms"),
    ("enclave.tree_ms_per_query", "ms"),
    ("enclave.packed_share", "ratio"),
    ("enclave.rows_fetched_per_query", "count"),
    ("enclave.rows_decrypted_per_query", "count"),
    ("trapdoor.hit_ratio", "ratio"),
    ("tree.nodes_per_query", "count"),
    ("storage.read_ms_per_query", "ms"),
    ("storage.rows_read_per_query", "count"),
    ("storage.index_lookups_per_query", "count"),
    ("storage.insert_ms_per_row", "ms"),
    ("storage.rows_written_per_row", "count"),
    ("replication.read_self_ms_per_query", "ms"),
    ("replication.write_self_ms_per_row", "ms"),
    ("replication.failovers", "count"),
    ("kernels.decrypt_ms_per_query", "ms"),
    ("kernels.decrypt_calls_per_query", "count"),
    ("kernels.encrypt_ms_per_row", "ms"),
    *((f"kernels.ops_per_query.{kernel}", "count") for kernel in KERNELS),
    *((f"kernels.ops_per_row.{kernel}", "count") for kernel in KERNELS),
    ("encrypt.ms_per_row", "ms"),
    ("aggtree.build_ms_per_epoch", "ms"),
    ("ingest.land_ms_per_row", "ms"),
    ("coordinator.self_ms_per_epoch", "ms"),
    ("oblivious.sort_ms_per_query", "ms"),
    ("oblivious.ops_per_query", "count"),
    ("unattributed_share", "ratio"),
    ("tracing_overhead", "ratio"),
)


class BenchmarkError(RuntimeError):
    """The benchmark could not run a workload to completion."""


# ------------------------------------------------------------------ numbers


def percentile(samples, fraction: float) -> float:
    """Inclusive-method percentile at a whole-percent ``fraction``."""
    if len(samples) < 2:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def tail_supported(count: int, fraction: float) -> bool:
    """At least ten samples lie beyond the percentile."""
    return count * (1.0 - fraction) >= 10


def counter_delta(before: dict, after: dict, name: str, **labels) -> float:
    """Sum of a counter family's growth over samples matching ``labels``."""

    def total(snapshot):
        family = snapshot.get(name, {"samples": []})
        return sum(
            sample["value"]
            for sample in family["samples"]
            if all(str(sample["labels"].get(k)) == str(v) for k, v in labels.items())
        )

    return total(after) - total(before)


# ------------------------------------------------------------------- wire


class Connection:
    """One blocking JSON-lines connection to the server."""

    def __init__(self, port: int):
        self._socket = socket.create_connection(("127.0.0.1", port), timeout=120)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._socket.makefile("rwb")

    def call(self, line: bytes) -> bytes:
        self._stream.write(line)
        self._stream.flush()
        reply = self._stream.readline()
        if not reply:
            raise BenchmarkError("server closed the connection")
        return reply

    def request(self, payload: dict) -> dict:
        return json.loads(self.call(json.dumps(payload).encode() + b"\n"))

    def metrics(self) -> dict:
        reply = self.request({"op": "metrics", "format": "json"})
        if not reply.get("ok"):
            raise BenchmarkError(f"metrics op failed: {reply}")
        return reply["metrics"]

    def close(self) -> None:
        self._stream.close()
        self._socket.close()


class ServerProcess:
    """``server.py`` as a child process, with line-based handshakes."""

    def __init__(self, spec_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(spec_path)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self._process.stdout:
            self._lines.put(line.decode().rstrip("\n"))
        self._lines.put(None)

    def expect(self, prefix: str, timeout: float = 150.0) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchmarkError(f"server sent no {prefix!r} line") from None
            if line is None:
                raise BenchmarkError(
                    f"server exited ({self._process.wait()}) before {prefix!r}"
                )
            if line.startswith(prefix):
                return line[len(prefix):].strip()

    def signal(self, signum: int) -> None:
        self._process.send_signal(signum)

    def stop(self) -> str:
        """SIGTERM: drain + checkpoint; returns the drain verdict."""
        self.signal(signal.SIGTERM)
        verdict = self.expect("stopped", timeout=60)
        self._process.wait(timeout=60)
        self._reader.join(timeout=10)
        return verdict

    def kill(self) -> None:
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait()
        self._reader.join(timeout=10)


# ---------------------------------------------------------------- serving


class Sample(NamedTuple):
    """One answered request, as the client saw it."""

    index: int        # position in the request list
    sequence: int     # per-connection request number
    trace: str        # the trace id sent in the traceparent
    latency: float    # seconds from write until the response line
    wire_bytes: int   # request plus response bytes
    reply: bytes
    done: float       # completion, in seconds since the phase started


class Phase:
    """One closed-loop phase: every connection sends its next request
    only after the previous answer arrived, until the time is up."""

    def __init__(self, port, lines, connections, seconds, tag, control=None,
                 window=0):
        self.port = port
        self.lines = lines
        self.connections = connections
        self.seconds = seconds
        self.tag = tag
        self.control = control
        self.window = window
        self.samples: list[list[Sample]] = [[] for _ in range(connections)]
        self.window_snapshot = None
        self.wall = 0.0
        self._completed = 0
        self._lock = threading.Lock()
        self._errors: list[BaseException] = []

    def _send(self, connection, lane: int, started: float, deadline: float) -> None:
        position, sequence = lane, 0
        while time.perf_counter() < deadline:
            index = position % len(self.lines)
            trace = f"{self.tag:04x}{lane:04x}{sequence + 1:024x}"
            line = (
                self.lines[index]
                + f', "traceparent": "00-{trace}-{sequence + 1:016x}-01"}}\n'.encode()
            )
            sent = time.perf_counter()
            reply = connection.call(line)
            done = time.perf_counter()
            self.samples[lane].append(Sample(
                index, sequence, trace, done - sent, len(line) + len(reply),
                reply, done - started,
            ))
            position += self.connections
            sequence += 1
            if self.window:
                with self._lock:
                    self._completed += 1
                    reached = self._completed == self.window
                if reached:
                    self.window_snapshot = self.control.metrics()

    def _lane(self, connection, lane, started, deadline) -> None:
        try:
            self._send(connection, lane, started, deadline)
        except BaseException as error:  # re-raised by run() on the main thread
            self._errors.append(error)

    def run(self) -> "Phase":
        lanes = [Connection(self.port) for _ in range(self.connections)]
        try:
            started = time.perf_counter()
            deadline = started + self.seconds
            threads = [
                threading.Thread(
                    target=self._lane, args=(conn, lane, started, deadline)
                )
                for lane, conn in enumerate(lanes)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            self.wall = time.perf_counter() - started
        finally:
            for conn in lanes:
                conn.close()
        if self._errors:
            raise self._errors[0]
        return self

    def all_samples(self) -> list[Sample]:
        return [sample for lane in self.samples for sample in lane]


class Checked:
    """Answers of one phase checked against the oracle."""

    def __init__(self, phase: Phase, requests, expected):
        self.phase = phase
        self.correct: list[Sample] = []
        self.failed = Counter()
        self.mismatches: list[str] = []
        self.attempted = 0
        for sample in phase.all_samples():
            index, reply = sample.index, json.loads(sample.reply)
            self.attempted += 1
            if not reply.get("ok") or reply.get("partial"):
                self.failed[reply.get("error", "PartialResult")] += 1
                continue
            request = requests[index]
            answer = normalise(request, reply["answer"])
            if answer != expected[index]:
                self.mismatches.append(
                    f"{json.dumps(request)} -> {reply['answer']!r}, "
                    f"expected {expected[index]!r}"
                )
                continue
            self.correct.append(sample)

    @property
    def throughput(self) -> float:
        return len(self.correct) / self.phase.wall

    def best(self) -> dict[int, float]:
        """Each request's fastest correct answer over the rounds."""
        fastest: dict[int, float] = {}
        for sample in self.correct:
            fastest[sample.index] = min(
                sample.latency, fastest.get(sample.index, sample.latency)
            )
        return fastest

    def rounds(self) -> tuple[int, int]:
        """Fewest and most times one request was sent in the phase."""
        sent = Counter(sample.index for sample in self.phase.all_samples())
        return min(sent.values()), max(sent.values())


def warm_up(port: int, lines, requests, expected, count: int) -> None:
    """Build the lazy epoch contexts before timing; answers are checked."""
    connection = Connection(port)
    try:
        for index in range(count):
            reply = json.loads(connection.call(lines[index] + b"}\n"))
            if not reply.get("ok") or normalise(
                requests[index], reply["answer"]
            ) != expected[index]:
                raise BenchmarkError(
                    f"warm-up query {json.dumps(requests[index])} answered {reply}"
                )
    finally:
        connection.close()


SERVING = {
    # name: (dataset, shards, replicas, oblivious, connections, warm-up)
    "serve-point": ("serve", 2, 1, False, 2, 8),
    "serve-range": ("serve", 2, 3, False, 1, 21),
    "oblivious": ("oblivious", 1, 1, True, 1, 4),
}


def serving_inputs(workload: str, seed: int):
    """Records, request list and expected answers, before any timing."""
    rng = random.Random(f"perfbench-{workload}-{seed}")
    dataset = (
        serve_dataset() if SERVING[workload][0] == "serve"
        else oblivious_dataset()
    )
    records = dataset.records()
    if workload == "serve-range":
        requests = [
            q for shape in SCAN_SHAPES
            for q in range_cycle(dataset, records, rng, shape)
        ]
    else:
        requests = point_queries(
            records, rng, ROUND[workload], collect=workload == "serve-point"
        )
    truth = Truth(records)
    expected = [truth.answer(request) for request in requests]
    return dataset, records, requests, expected


def run_serving(workload: str, args, run_dir: Path) -> dict:
    _, shards, replicas, oblivious, connections, warm = SERVING[workload]
    dataset, records, requests, expected = serving_inputs(workload, args.seed)
    lines = [encode(request) for request in requests]
    records_path = run_dir / "records.json"
    records_path.write_text(json.dumps(records))
    spec = {
        "records": str(records_path), "dataset": dataset.server_spec(),
        "shards": shards, "replicas": replicas, "oblivious": oblivious,
        "workdir": str(run_dir / "fleet"),
        "result": str(run_dir / "server-result.json"),
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))

    setups, server, ready = [], None, None
    repeats = 1 if args.trace else SETUP_REPEATS[workload]
    try:
        for attempt in range(repeats):
            shutil.rmtree(run_dir / "fleet", ignore_errors=True)
            started = time.perf_counter()
            server = ServerProcess(spec_path)
            ready = json.loads(server.expect("ready"))
            warm_up(ready["port"], lines, requests, expected, warm)
            setups.append(time.perf_counter() - started)
            if attempt < repeats - 1:
                server.kill()
                server = None
        print(
            f"sizes: {ready['records']} records; stored rows per shard "
            f"{ready['stored_rows_per_shard']}; trapdoor-table slots per "
            f"shard {ready['trapdoor_table_slots']}; {len(requests)} "
            f"generated requests; {connections} connection(s)"
        )
        port = ready["port"]
        control = Connection(port)
        try:
            before = control.metrics()
            half = args.seconds / 2 if args.trace else args.seconds
            untraced = Phase(
                port, lines, connections, half, tag=1, control=control,
                window=COUNT_WINDOW[workload],
            ).run()
            after = control.metrics()
            traced = None
            if args.trace:
                server.signal(signal.SIGUSR1)
                server.expect("traced")
                traced = Phase(port, lines, connections, half, tag=2).run()
        finally:
            control.close()
        drained = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
    if drained != "True":
        raise BenchmarkError("server did not drain cleanly at shutdown")
    result = json.loads(Path(spec["result"]).read_text())

    checked = Checked(untraced, requests, expected)
    outcome = {
        "correct": not checked.mismatches,
        "attempted": checked.attempted,
        "failed": sum(checked.failed.values()),
        "mismatches": checked.mismatches,
        "errors": dict(checked.failed),
    }
    if not args.trace:
        outcome["metrics"], outcome["report"] = serving_end_to_end(
            workload, checked, requests, setups, result["peak_rss_mb"]
        )
        return outcome
    traced_checked = Checked(traced, requests, expected)
    outcome["correct"] = outcome["correct"] and not traced_checked.mismatches
    outcome["mismatches"] += traced_checked.mismatches
    outcome["attempted"] += traced_checked.attempted
    outcome["failed"] += sum(traced_checked.failed.values())
    window_end, window_queries = untraced.window_snapshot, COUNT_WINDOW[workload]
    if window_end is None:
        print("note: the untraced half ended inside the count window; counts "
              "cover the whole half and need not repeat across runs")
        window_end, window_queries = after, checked.attempted
    attribution = layers.Attribution(result["spans"])
    for sample in traced.all_samples():
        attribution.add_request(sample.trace, sample.latency)
    calls_window = layers.Attribution(result["spans"])
    per_lane = COUNT_WINDOW[workload] // connections
    for sample in traced.all_samples():
        if sample.sequence < per_lane:
            calls_window.add_request(sample.trace, sample.latency)
    outcome["metrics"] = layer_metrics(
        attribution=attribution,
        calls=calls_window,
        counts=(before, window_end, window_queries, 0),
        phase_counts=(before, after),
        wire_bytes=sum(s.wire_bytes for s in traced.all_samples()),
        overhead=1.0 - traced_checked.throughput / checked.throughput,
        rows=0, epochs=0,
    )
    return outcome


def serving_end_to_end(workload, checked, requests, setups, peak_rss):
    """The end-to-end metrics and the per-class latency lines.

    The timed phase replays the request list in rounds, and each request
    keeps its fastest correct answer.  The gated figures come from these
    best times: their median and p90 over the requests, and the closed
    loop's rate at them (connections over their mean, Little's law).
    The host's slow periods last seconds and move a raw median by about
    a fifth from run to run; a request's fastest of eight or more
    answers, seconds apart, escapes most of them (NOTES.md, "Run-to-run
    spread").
    The report lines give the raw whole-phase figures of every class.
    """
    # (class, predicate, raw tail percentiles), for the report lines.
    classes = {
        "serve-point": [
            ("point", lambda r: True, (0.90, 0.99)),
            ("point-count", lambda r: r["aggregate"] == "count", (0.90,)),
            ("point-collect", lambda r: r["aggregate"] == "collect", (0.90,)),
        ],
        "serve-range": [
            ("longwindow", lambda r: not is_scan(r), (0.90, 0.99)),
            ("scan", is_scan, (0.60,)),
        ],
        "oblivious": [("oblivious", lambda r: True, (0.90,))],
    }[workload]
    best = checked.best()
    if not best:
        raise BenchmarkError("the timed phase answered no request correctly")
    fewest, most = checked.rounds()

    report = []
    for name, predicate, tails in classes:
        samples = [
            s.latency for s in checked.correct if predicate(requests[s.index])
        ]
        if not samples:
            raise BenchmarkError(f"no correctly answered {name} queries")
        fastest = [t for i, t in best.items() if predicate(requests[i])]
        report.append(
            f"{name}: raw p50 {statistics.median(samples) * 1000:.3f} ms"
            + "".join(
                f", p{round(tail * 100)} {percentile(samples, tail) * 1000:.3f} ms"
                + ("" if tail_supported(len(samples), tail)
                   else " (fewer than 10 samples beyond)")
                for tail in tails
            )
            + f" (n={len(samples)}); best p50 "
            f"{statistics.median(fastest) * 1000:.3f} ms over {len(fastest)} requests"
        )
    times = list(best.values())
    connections = SERVING[workload][4]
    metrics = {
        "setup_s": statistics.median(setups),
        "best_rate_per_s": connections / statistics.fmean(times),
        "best_p50_ms": statistics.median(times) * 1000,
        "best_p90_ms": percentile(times, 0.90) * 1000,
        "answered_share": len(checked.correct) / checked.attempted,
        "peak_rss_mb": peak_rss,
    }
    report.append(
        f"setup repeats {len(setups)}: "
        + ", ".join(f"{value:.3f}" for value in setups) + " s; timed phase "
        f"{checked.phase.wall:.3f} s, {checked.attempted} attempted, "
        f"{checked.throughput:.3f} correct/s raw; each of the "
        f"{len(requests)} requests sent {fewest}-{most} times"
        + ("" if len(best) == len(requests)
           else f"; only {len(best)} answered correctly")
        + ("" if tail_supported(len(times), 0.90)
           else "; fewer than 10 requests beyond the best p90")
    )
    return metrics, report


# ----------------------------------------------------------------- ingest


def to_query(request: dict):
    """A wire-shaped request as the in-process query object."""
    index_values = tuple(
        tuple(slot) if isinstance(slot, list) else slot
        for slot in request["index_values"]
    )
    aggregate = Aggregate(request.get("aggregate", "count"))
    if request["op"] == "point":
        return PointQuery(
            index_values=index_values, timestamp=request["timestamp"],
            aggregate=aggregate,
        )
    return RangeQuery(
        index_values=index_values, time_start=request["time_start"],
        time_end=request["time_end"], aggregate=aggregate,
        target=request.get("target"),
    )


class IngestLoop:
    """One writer: land an hour, read it back, land the next.

    After the set-up hour (position 0) the writer cycles through
    positions 1..INGEST_CYCLE, so every landing and every readback
    query repeats across rounds.  Before an hour lands, landed hours
    beyond the newest INGEST_RETENTION - 1 are evicted from each shard
    and un-shipped at the provider, which lets the same hour land again.
    """

    def __init__(self, sharded, epochs, outcome):
        self.sharded = sharded
        self.epochs = epochs
        self.outcome = outcome
        self.iterations = 0
        self.landed: list[int] = []
        self.stored_rows: dict[int, int] = {}

    def land(self, position: int) -> float:
        while len(self.landed) > INGEST_RETENTION - 1:
            oldest = self.landed.pop(0)
            for shard in self.sharded.shards:
                shard.service.evict_epoch(oldest)
            self.sharded.provider.unship_epoch(oldest)
        start, records, _, _ = self.epochs[position]
        began = time.perf_counter()
        self.stored_rows = coordinator.ingest_epoch_sharded(
            self.sharded, records, epoch_id=start
        )
        self.landed.append(start)
        return time.perf_counter() - began

    def iteration(self, tag: int, stats: dict) -> None:
        position = 1 + self.iterations % INGEST_CYCLE
        self.iterations += 1
        trace = f"{tag:04x}{self.iterations:028x}"
        began = time.perf_counter()
        with tracing.activate(tracing.SpanContext(trace, f"{self.iterations:016x}")):
            seconds = self.land(position)
            requests, answers = self.epochs[position][2:]
            for number, (request, expected) in enumerate(zip(requests, answers)):
                self.outcome["attempted"] += 1
                stats["queries"] += 1
                query = to_query(request)
                started = time.perf_counter()
                try:
                    if request["op"] == "point":
                        answer, _ = self.sharded.execute_point(query)
                    else:
                        answer, _ = self.sharded.execute_range(
                            query, method=request["method"]
                        )
                except ConcealerError as error:
                    self.outcome["errors"][type(error).__name__] += 1
                    continue
                latency = time.perf_counter() - started
                if isinstance(answer, PartialResult):
                    self.outcome["errors"]["PartialResult"] += 1
                elif normalise(request, answer) != expected:
                    self.outcome["mismatches"].append(
                        f"{json.dumps(request)} -> {answer!r}, expected {expected!r}"
                    )
                else:
                    stats["readback"].append((position, number, latency))
        stats["iterations"].append((trace, time.perf_counter() - began))
        stats["landings"].append((position, seconds))
        stats["rows"] += len(self.epochs[position][1])
        stats["ingest_seconds"] += seconds

    def phase(self, seconds: float, tag: int, window: int = 0) -> dict:
        stats = {"readback": [], "iterations": [], "landings": [], "rows": 0,
                 "queries": 0, "ingest_seconds": 0.0, "window": None}
        registry = telemetry.get_registry()
        before = registry.snapshot()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.iteration(tag, stats)
            if len(stats["iterations"]) == window:
                stats["window"] = (
                    before, registry.snapshot(), stats["queries"], stats["rows"]
                )
        stats["before"], stats["after"] = before, registry.snapshot()
        return stats


def build_ingest_fleet(run_dir: Path, first_epoch: int):
    spec = {
        "access_points": 32, "time_buckets": 60, "cell_ids": 256,
        "epoch_seconds": 3600, "epoch_start": first_epoch,
    }
    shutil.rmtree(run_dir / "fleet", ignore_errors=True)
    return ShardedService.build(
        seeded_provider(spec),
        ShardedConfig(shards=2, replicas=3, verify=True),
        run_dir / "fleet", retry_rng_seed=f"perfbench-{DATA_SEED}",
    )


def ingest_end_to_end(epochs, stats, setups) -> tuple[dict, list[str]]:
    """Ingest's end-to-end metrics, from each item's fastest round.

    ``best_rate_per_s`` is the cycled hours' rows over the sum of each
    hour's fastest landing (encrypt and land, DP and SP side); the
    latency figures are the median and p90 over the readback queries of
    each one's fastest answer.  Points are two thirds of the readback
    and the median falls among them; scans are its slowest quarter, and
    the p90 falls among them.
    """
    landing: dict[int, float] = {}
    for position, seconds in stats["landings"]:
        landing[position] = min(seconds, landing.get(position, seconds))
    fastest: dict[tuple[int, int], float] = {}
    for position, number, latency in stats["readback"]:
        key = (position, number)
        fastest[key] = min(latency, fastest.get(key, latency))
    rows = sum(len(epochs[position][1]) for position in landing)
    times = list(fastest.values())
    readback = [latency for _, _, latency in stats["readback"]]
    rounds = Counter(position for position, _ in stats["landings"])
    metrics = {
        "setup_s": statistics.median(setups),
        "best_rate_per_s": rows / sum(landing.values()),
        "best_p50_ms": statistics.median(times) * 1000,
        "best_p90_ms": percentile(times, 0.90) * 1000,
    }
    report = [
        f"ingest: raw {stats['rows'] / stats['ingest_seconds']:.1f} rows/s over "
        f"{len(stats['landings'])} landings; best {metrics['best_rate_per_s']:.1f} "
        f"rows/s over {len(landing)} hours landed "
        f"{min(rounds.values())}-{max(rounds.values())} times each",
        f"readback: raw p50 {statistics.median(readback) * 1000:.3f} ms, p90 "
        f"{percentile(readback, 0.90) * 1000:.3f} ms (n={len(readback)}); best "
        f"over {len(times)} queries"
        + ("" if tail_supported(len(times), 0.90)
           else "; fewer than 10 queries beyond the best p90"),
        "setup repeats: " + ", ".join(f"{s:.3f}" for s in setups) + " s",
    ]
    return metrics, report


def run_ingest(args, run_dir: Path) -> dict:
    config = ingest_config()
    rng = random.Random(f"perfbench-ingest-{args.seed}")
    epochs = []
    for start in ingest_epoch_starts(1 + INGEST_CYCLE):
        records = generate_wifi_trace(config, 1, 3600, first_epoch_id=start)[0][1]
        epochs.append([start, records, [], Truth(records)])
    outcome = {"attempted": 0, "errors": Counter(), "mismatches": []}
    setups = []
    repeats = 1 if args.trace else SETUP_REPEATS["ingest"]
    for _ in range(repeats):
        began = time.perf_counter()
        loop = IngestLoop(
            build_ingest_fleet(run_dir, epochs[0][0]), epochs, outcome
        )
        loop.land(0)
        setups.append(time.perf_counter() - began)
    first_stored = loop.stored_rows
    # Untimed: land each cycled hour once, so that the fleet's planner
    # can place the readback points, and draw the checked readback.
    sharded = loop.sharded
    for position in range(1, 1 + INGEST_CYCLE):
        start, records, _, truth = epochs[position]
        loop.land(position)
        requests = readback_queries(
            records, start, rng,
            lambda query: sharded.plan_point(to_query(query), epoch_id=start)[2],
            sharded.config.shards,
        )
        epochs[position][2:] = [requests, [truth.answer(q) for q in requests]]
    print(
        f"sizes: set-up hour of {len(epochs[0][1])} records, then "
        f"{INGEST_CYCLE} hours cycled ("
        + ", ".join(str(len(e[1])) for e in epochs[1:])
        + f" records, {len(epochs[1][2])} readback queries each); stored rows "
        f"per shard of the set-up hour {first_stored}; "
        f"trapdoor-table slots per shard {sharded.config.trapdoor_table_slots}; "
        f"retention {INGEST_RETENTION} hours"
    )
    half = args.seconds / 2 if args.trace else args.seconds
    untraced = loop.phase(half, tag=1, window=COUNT_WINDOW["ingest"])
    traced = None
    if args.trace:
        recorder = layers.Recorder()
        uninstall = layers.install(recorder)
        try:
            traced = loop.phase(half, tag=2)
        finally:
            uninstall()
    result = {
        "correct": not outcome["mismatches"],
        "attempted": outcome["attempted"],
        "failed": sum(outcome["errors"].values()),
        "mismatches": outcome["mismatches"],
        "errors": dict(outcome["errors"]),
    }
    if not untraced["iterations"] or not untraced["readback"]:
        raise BenchmarkError("the timed phase completed no ingest iteration")
    if not args.trace:
        result["metrics"], result["report"] = ingest_end_to_end(
            epochs, untraced, setups
        )
        result["metrics"].update(
            answered_share=1 - result["failed"] / result["attempted"],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        return result
    if untraced["window"] is None:
        raise BenchmarkError("the untraced phase ended inside the count window")
    window_before, window_after, window_queries, window_rows = untraced["window"]
    attribution = layers.Attribution(recorder.dump())
    for trace, seconds in traced["iterations"]:
        attribution.add_unit(trace, seconds)
    attribution.requests = traced["queries"]
    result["metrics"] = layer_metrics(
        attribution=attribution,
        calls=attribution,
        counts=(window_before, window_after, window_queries, window_rows),
        phase_counts=(untraced["before"], untraced["after"]),
        wire_bytes=0,
        overhead=1.0 - (traced["rows"] / traced["ingest_seconds"])
        / (untraced["rows"] / untraced["ingest_seconds"]),
        rows=traced["rows"], epochs=len(traced["iterations"]),
    )
    return result


# --------------------------------------------------------------- layers


def layer_metrics(attribution, calls, counts, phase_counts, wire_bytes,
                  overhead, rows, epochs) -> dict:
    """Every per-layer metric (0 where a layer is idle on the workload).

    Times are self times from the traced phase, per query (or per row /
    per epoch of ingest).  Counts are ops-plane counter deltas over the
    count window, so they repeat exactly across runs of one seed.
    """
    before, after, queries, window_rows = counts
    queries_traced = max(attribution.requests, 1)

    def ms(layer, per=None):
        denominator = queries_traced if per is None else per
        return attribution.seconds[layer] * 1000 / denominator if denominator else 0.0

    def delta(name, **labels):
        return counter_delta(before, after, name, **labels)

    def per_query(name, **labels):
        return delta(name, **labels) / queries if queries else 0.0

    decisions = delta("concealer_planner_decisions_total")
    hits = delta("concealer_trapdoor_table_hits_total")
    misses = delta("concealer_trapdoor_table_misses_total")
    fetches = calls.calls["enclave.fetch"] + calls.calls["enclave.fetch_packed"]
    calls_requests = max(calls.requests, 1)
    values = {
        "wire.ms_per_query": ms("wire"),
        "wire.bytes_per_query": wire_bytes / queries_traced,
        "router.plan_ms_per_query": ms("plan"),
        "router.dispatch_wait_ms_per_query": ms("dispatch_wait"),
        "router.subqueries_per_query": per_query("concealer_shard_dispatch_total"),
        "router.shed": counter_delta(*phase_counts, "concealer_router_shed_total"),
        "service.self_ms_per_query": ms("service"),
        "enclave.trapdoor_ms_per_query": ms("enclave.trapdoor"),
        "enclave.fetch_ms_per_query": ms("enclave.fetch") + ms("enclave.fetch_packed"),
        "enclave.verify_ms_per_query": ms("enclave.verify"),
        "enclave.filter_ms_per_query": ms("enclave.filter"),
        "enclave.decrypt_ms_per_query": ms("enclave.decrypt"),
        "enclave.tree_ms_per_query": ms("enclave.tree"),
        "enclave.packed_share": (
            calls.calls["enclave.fetch_packed"] / fetches if fetches else 0.0
        ),
        "enclave.rows_fetched_per_query": per_query("concealer_rows_fetched_total"),
        "enclave.rows_decrypted_per_query": per_query("concealer_rows_decrypted_total"),
        "trapdoor.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "tree.nodes_per_query": per_query("concealer_tree_nodes_fetched_total"),
        "storage.read_ms_per_query": ms("storage.read"),
        "storage.rows_read_per_query": per_query("concealer_storage_rows_read_total"),
        "storage.index_lookups_per_query": per_query("concealer_index_lookups_total"),
        "storage.insert_ms_per_row": ms("storage.insert", rows),
        "storage.rows_written_per_row": (
            delta("concealer_storage_rows_written_total") / window_rows
            if window_rows else 0.0
        ),
        "replication.read_self_ms_per_query": ms("replication.read"),
        "replication.write_self_ms_per_row": ms("replication.write", rows),
        "replication.failovers": counter_delta(
            *phase_counts, "concealer_replica_failovers_total"
        ),
        "kernels.decrypt_ms_per_query": ms("kernels.decrypt"),
        "kernels.decrypt_calls_per_query": calls.calls["kernels.decrypt"] / calls_requests,
        "kernels.encrypt_ms_per_row": ms("kernels.encrypt", rows),
        "encrypt.ms_per_row": ms("encrypt", rows),
        "aggtree.build_ms_per_epoch": ms("aggtree.build", epochs),
        "ingest.land_ms_per_row": ms("ingest.land", rows),
        "coordinator.self_ms_per_epoch": ms("coordinator", epochs),
        "oblivious.sort_ms_per_query": ms("oblivious.sort"),
        "oblivious.ops_per_query": per_query("concealer_oblivious_ops_total"),
        "unattributed_share": attribution.unattributed_share(),
        "tracing_overhead": overhead,
    }
    for method in PLANNER_METHODS:
        values[f"planner.share.{method}"] = (
            delta("concealer_planner_decisions_total", method=method) / decisions
            if decisions else 0.0
        )
    for kernel in KERNELS:
        ops = delta("concealer_crypto_kernel_ops_total", kernel=kernel)
        # Ingest's kernel work is encryption of the landed rows; the
        # serving workloads' is per query.
        values[f"kernels.ops_per_query.{kernel}"] = (
            0.0 if window_rows else (ops / queries if queries else 0.0)
        )
        values[f"kernels.ops_per_row.{kernel}"] = (
            ops / window_rows if window_rows else 0.0
        )
    return values


# ------------------------------------------------------------------- main


def emit(outcome: dict, units: dict) -> None:
    for line in outcome.get("report", []):
        print(line)
    for name, unit in units.items():
        print(f"{name:40s} {outcome['metrics'][name]:14.6f} {unit}")
    for mismatch in outcome["mismatches"][:20]:
        print(f"MISMATCH {mismatch}")
    if outcome["errors"]:
        print(f"typed failures: {outcome['errors']}")
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("serve-point", "serve-range", "ingest", "oblivious"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if args.workload == "ingest":
            outcome = run_ingest(args, run_dir)
        else:
            outcome = run_serving(args.workload, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()  # only once no other run is using it
    units = dict(PER_LAYER if args.trace else END_TO_END)
    if set(outcome["metrics"]) != set(units):
        raise BenchmarkError(
            f"metric set mismatch: {sorted(set(units) ^ set(outcome['metrics']))}"
        )
    emit(outcome, units)
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
