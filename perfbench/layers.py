"""Per-layer self time, recorded from outside the program.

The benchmark never edits the repository's code to trace it.  Instead
:func:`install` replaces the public entry points of each layer with
timing wrappers: class attributes for methods, and the *importing*
module's name for functions pulled in with ``from ... import`` (the
aggregate-tree builder inside the encryptor, the oblivious sorts inside
the epoch context).  Each wrapped call is tagged with the request's
trace id, which the repository's own tracing already carries from the
wire onto router and shard threads.

A call's *self* time is its duration minus the time its wrapped
children cover.  Children run on the caller's thread (the layers below
the router are synchronous), so a per-thread stack is enough: the one
layer that spans threads, the asyncio router, is attributed at analysis
time as the part of its span no planning, merging or shard execution
covers (the dispatch wait).

Spans are aggregated in memory per (trace, root call, layer) and
written out once, at shutdown.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

from repro.telemetry import tracing

# (layer, module, attribute path).  Layer names match the per-layer
# metric families in BENCHMARK.json.
SYNC_TARGETS = (
    ("plan", "repro.sharding.service", "ShardedService.plan_point"),
    ("plan", "repro.sharding.service", "ShardedService.plan_range"),
    ("plan", "repro.sharding.service", "ShardedService.finish_range"),
    ("service", "repro.core.service", "ServiceProvider.execute_point"),
    ("service", "repro.core.service", "ServiceProvider.execute_range"),
    ("enclave.trapdoor", "repro.core.context", "EpochContext.trapdoors_for_cell_ids"),
    ("enclave.trapdoor", "repro.core.context", "EpochContext.oblivious_trapdoors_for_bin"),
    ("enclave.fetch", "repro.core.context", "EpochContext.fetch"),
    ("enclave.fetch_packed", "repro.core.context", "EpochContext.fetch_packed"),
    ("enclave.verify", "repro.core.context", "EpochContext.verify_rows"),
    ("enclave.verify", "repro.core.context", "EpochContext.verify_packed"),
    ("enclave.filter", "repro.core.context", "EpochContext.match_rows"),
    ("enclave.filter", "repro.core.context", "EpochContext.match_packed"),
    ("enclave.filter", "repro.core.context", "EpochContext.match_rows_oblivious"),
    ("enclave.decrypt", "repro.core.context", "EpochContext.decrypt_records"),
    ("enclave.decrypt", "repro.core.context", "EpochContext.decrypt_packed_records"),
    ("enclave.tree", "repro.core.context", "EpochContext.fetch_tree_nodes"),
    ("enclave.tree", "repro.core.context", "EpochContext.decode_tree_nodes"),
    ("storage.read", "repro.storage.engine", "StorageEngine.lookup_many"),
    ("storage.read", "repro.storage.engine", "StorageEngine.fetch_packed_bin"),
    ("storage.read", "repro.storage.engine", "StorageEngine.fetch_tree_nodes"),
    ("storage.insert", "repro.storage.engine", "StorageEngine.insert"),
    ("replication.read", "repro.replication.engine", "ReplicatedStorageEngine.lookup_many"),
    ("replication.read", "repro.replication.engine", "ReplicatedStorageEngine.fetch_packed_bin"),
    ("replication.read", "repro.replication.engine", "ReplicatedStorageEngine.fetch_tree_nodes"),
    ("replication.write", "repro.replication.engine", "ReplicatedStorageEngine.insert"),
    ("kernels.decrypt", "repro.crypto.kernels", "DetKernel.decrypt_many"),
    ("kernels.decrypt", "repro.crypto.kernels", "NdKernel.decrypt_many"),
    ("kernels.encrypt", "repro.crypto.kernels", "DetKernel.encrypt_many"),
    ("kernels.encrypt", "repro.crypto.kernels", "NdKernel.encrypt_many"),
    ("encrypt", "repro.core.provider", "DataProvider.encrypt_epoch_sharded"),
    ("aggtree.build", "repro.core.encryptor", "build_agg_tree"),
    ("ingest.land", "repro.core.service", "ServiceProvider.ingest_epoch"),
    ("coordinator", "repro.sharding.coordinator", "ingest_epoch_sharded"),
    # The oblivious sorts, as EpochContext._oblivious_sort resolves
    # them: two module-level imports plus one lazy import.
    ("oblivious.sort", "repro.core.context", "bitonic_sort"),
    ("oblivious.sort", "repro.core.context", "column_sort"),
    ("oblivious.sort", "repro.enclave.sort_np", "bitonic_sort_np"),
)

ASYNC_TARGETS = (
    ("router", "repro.sharding.router", "AsyncShardRouter.execute_point"),
    ("router", "repro.sharding.router", "AsyncShardRouter.execute_range"),
)


class Recorder:
    """In-memory span aggregates, one buffer per thread."""

    def __init__(self):
        self._local = threading.local()
        self._buffers: list[dict] = []
        self._lock = threading.Lock()
        self._root_ids = itertools.count()

    def _buffer(self) -> dict:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = {
                "stack": [],
                "selfs": defaultdict(lambda: [0.0, 0]),
                "roots": [],
                "routers": {},
            }
            self._local.buffer = buffer
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def wrap_sync(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buffer = self._buffer()
            stack = buffer["stack"]
            if stack:
                trace, root = stack[0][1], stack[0][2]
            else:
                trace, root = tracing.current_trace_id(), next(self._root_ids)
            frame = [0.0, trace, root]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                duration = ended - started
                entry = buffer["selfs"][(trace, root, layer)]
                entry[0] += duration - frame[0]
                entry[1] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    buffer["roots"].append((trace, root, layer, started, ended))

        return traced

    def wrap_async(self, layer: str, fn):
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            started = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                self._buffer()["routers"][tracing.current_trace_id()] = (
                    started, ended,
                )

        return traced

    def dump(self) -> dict:
        """Every thread's aggregates as one JSON-ready document."""
        selfs, roots, routers = [], [], {}
        with self._lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            for (trace, root, layer), (seconds, calls) in list(
                buffer["selfs"].items()
            ):
                selfs.append([trace, root, layer, seconds, calls])
            roots.extend(list(buffer["roots"]))
            routers.update(buffer["routers"])
        return {"selfs": selfs, "roots": roots, "routers": routers}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def install(recorder: Recorder):
    """Wrap every layer entry point; returns a callable that undoes it."""
    originals = []
    for targets, wrap in (
        (SYNC_TARGETS, recorder.wrap_sync),
        (ASYNC_TARGETS, recorder.wrap_async),
    ):
        for layer, module_name, path in targets:
            owner, name = _resolve(module_name, path)
            original = owner.__dict__[name]
            originals.append((owner, name, original))
            setattr(owner, name, wrap(layer, original))

    def uninstall():
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)

    return uninstall


# ----------------------------------------------------------------- analysis


def _covered(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total, reach = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


class Attribution:
    """Per-layer self time summed over a set of requests."""

    def __init__(self, dump: dict):
        self._selfs = defaultdict(list)
        for trace, root, layer, seconds, calls in dump["selfs"]:
            self._selfs[(trace, root)].append((layer, seconds, calls))
        self._roots = defaultdict(list)
        for trace, root, layer, started, ended in dump["roots"]:
            self._roots[trace].append((root, layer, started, ended))
        self._routers = dump["routers"]
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.requests = 0
        self.latency = 0.0

    def add_request(self, trace: str, latency: float) -> None:
        """One wire request: client latency split across the layers.

        Shard sub-queries of one range request run concurrently, so only
        the one that finished last — the critical path the client waited
        for — contributes its layers; the router's dispatch wait is the
        part of its span that no planning, merging or shard execution
        covers.
        """
        roots = self._roots.get(trace, [])
        service = [root for root in roots if root[1] == "service"]
        critical = max(service, key=lambda root: root[3], default=None)
        kept = [root for root in roots if root[1] != "service"]
        if critical is not None:
            kept.append(critical)
        router = self._routers.get(trace)
        if router is not None:
            low, high = router
            self.seconds["wire"] += latency - (high - low)
            self.seconds["dispatch_wait"] += (high - low) - _covered(
                [(root[2], root[3]) for root in roots], low, high
            )
        self._add_roots(trace, kept)
        self.requests += 1
        self.latency += latency

    def add_unit(self, trace: str, seconds: float) -> None:
        """One in-process unit of work (an ingest iteration)."""
        self._add_roots(trace, self._roots.get(trace, []))
        self.requests += 1
        self.latency += seconds

    def _add_roots(self, trace: str, roots) -> None:
        for root, *_ in roots:
            for layer, seconds, calls in self._selfs.get((trace, root), []):
                self.seconds[layer] += seconds
                self.calls[layer] += calls

    def unattributed_share(self) -> float:
        if self.latency <= 0:
            return 0.0
        return 1.0 - sum(self.seconds.values()) / self.latency
