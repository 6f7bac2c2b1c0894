"""The shared whole-bin fetch path: overlay → cache → storage.

Both the BPB point executor and the multipoint range executor retrieve
*whole bins* (Theorem 4.1's fixed-size public retrieval unit) through
the :class:`BinFetcher`, so a bin fetched once can be reused — within a
batch (the :class:`BatchOverlay`) and across requests (the
:class:`~repro.batching.cache.BinCache`) — without any caller-visible
change in answers.  A bin arrives as a
:class:`~repro.core.packed.PackedBin` when the fetcher is packed and the
engine holds a columnar sidecar for it, and as a tuple of rows
otherwise; the executors' shared STEP 4 takes either.

Verification invariant: whenever a fetched bin may be *reused* (an
overlay or cache is active) and the service verifies, the bin's hash
chains are checked **before** it becomes reusable.  A later consumer
of the cached bin therefore never needs to re-verify, and a tampered
batch is rejected before it can poison the cache.  With neither
overlay nor cache in play verification runs once, at the end of the
query, over the combined rows.
"""

from __future__ import annotations

import threading

from repro import telemetry
from repro.core.queries import QueryStats


def _bin_reuses():
    return telemetry.counter(
        "concealer_batch_bin_reuses_total",
        "whole-bin fetches served from the in-batch overlay",
        secrecy=telemetry.PUBLIC_SIZE,
    )


class BatchOverlay:
    """Per-batch map of already-fetched bins: (table, bin_index) → bin.

    Entries hold whatever the fetcher produced — a tuple of rows or a
    packed bin (the columnar path shares bins in packed form so reuse
    keeps the vectorized STEP 4).  Lives only for one ``execute_batch``
    call, so it needs no fencing — a rewrite cannot interleave with the
    read-only batch that owns it.  Thread-safe because the parallel
    prefetch fills it concurrently.
    """

    def __init__(self):
        self._entries: dict[tuple[str, int], tuple[object, bool]] = {}
        self._lock = threading.Lock()

    def get(self, key: tuple[str, int]) -> tuple[object, bool] | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: tuple[str, int], payload, verified: bool) -> None:
        with self._lock:
            self._entries[key] = (payload, verified)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._entries


class _CachedTreeNode:
    """One resident aggregate-tree node ciphertext.

    Wraps the node so the bin cache charges its *exact* byte size
    (``nbytes``) instead of the per-row EPC estimate, and counts it as
    one resident unit (``__len__``) in the rows-from-cache accounting.
    """

    __slots__ = ("node",)

    def __init__(self, node: bytes):
        self.node = node

    @property
    def nbytes(self) -> int:
        return len(self.node)

    def __len__(self) -> int:
        return 1


class BinFetcher:
    """Fetches whole bins for the executors, sharing where it is sound.

    ``cache`` is optional; without it (and without an overlay) every
    bin comes from storage.  Oblivious (§4.3) execution bypasses both
    overlay and cache: Concealer+'s guarantee is an *identical
    in-enclave event trace* for every query, and serving from a cache
    would make the trace depend on the access history.
    """

    def __init__(self, engine, oblivious=False, verify=False, cache=None, packed=True):
        self.engine = engine
        self.oblivious = oblivious
        self.verify = verify
        self.cache = cache
        # Whole-bin columnar fetches (the vectorized hot path).  Forced
        # off under oblivious execution: Concealer+'s guarantee is a
        # per-query-identical in-enclave trace, which only the scalar
        # trapdoor schedule provides.
        self.packed = packed and not oblivious
        # Engines (and their access logs / breakers) are not reentrant;
        # concurrent prefetch workers serialise the storage round-trip
        # and parallelise what surrounds it (trapdoor generation,
        # verification — the in-enclave compute).
        self._engine_lock = threading.Lock()

    # ------------------------------------------------------------ query path

    def fetch_bin(
        self, context, fetch_bin, stats: QueryStats, deadline=None, overlay=None
    ):
        """Retrieve one whole bin for an executor: overlay, then cache,
        then storage.  Returns a packed bin or a tuple of rows."""
        key = (context.table_name, fetch_bin.index)
        if overlay is not None:
            shared = overlay.get(key)
            if shared is not None:
                payload, verified = shared
                _bin_reuses().inc()
                self._count_hit(stats, payload, verified)
                return payload
        payload, verified = self.fetch_entry(
            context, fetch_bin, stats, deadline=deadline,
            ensure_verified=overlay is not None or self._cache_active(),
        )
        if overlay is not None:
            overlay.put(key, payload, verified)
        return payload

    def fetch_entry(
        self, context, fetch_bin, stats: QueryStats, deadline=None,
        ensure_verified=False,
    ) -> tuple[object, bool]:
        """Cache-then-storage retrieval; returns ``(payload, verified)``."""
        if self._cache_active():
            entry = self.cache.lookup(
                context.table_name, fetch_bin.index, require_verified=self.verify
            )
            if entry is not None:
                self._count_hit(stats, entry.rows, entry.verified)
                return entry.rows, entry.verified
            stats.cache_misses += 1
        return self._fetch_from_storage(
            context, fetch_bin, stats, deadline=deadline,
            ensure_verified=ensure_verified,
        )

    def fetch_tree_nodes(
        self, context, meta, coords, stats: QueryStats, deadline=None
    ):
        """Assemble aggregate-tree node ciphertexts for a range cover.

        Each node is its own fixed-size public retrieval unit, so the
        cache is consulted per node — misses are filled in a single
        storage round-trip.  Returns ciphertexts aligned with
        ``coords``, or ``None`` when the engine holds no tree sidecar
        (the caller falls back to the bin path).

        Cache entries are admitted as verified: unlike scalar rows, a
        tree node is *self-verifying* — every consumer authenticates it
        via E_d decryption plus the position header — so reuse can
        never serve a byte no check will cover.
        """
        table = context.table_name
        nodes: list = [None] * len(coords)
        missing = list(range(len(coords)))
        if self._cache_active():
            missing = []
            for position, coord in enumerate(coords):
                entry = self.cache.lookup(table, ("tree",) + tuple(coord))
                if entry is None:
                    stats.cache_misses += 1
                    missing.append(position)
                else:
                    self._count_hit(stats, entry.rows, entry.verified)
                    nodes[position] = entry.rows.node
        if not missing:
            return nodes
        # Fence stamp before the read, exactly like bins: nodes racing
        # a rewrite must not be cached under the post-rewrite generation.
        generation = getattr(self.engine, "rewrite_generation", 0)
        with self._engine_lock:
            fetched = context.fetch_tree_nodes(
                self.engine, meta, [coords[i] for i in missing], stats,
                deadline=deadline, verify=self.verify,
            )
        if fetched is None:
            return None
        for position, node in zip(missing, fetched):
            nodes[position] = node
            if self._cache_active():
                self.cache.insert(
                    table,
                    ("tree",) + tuple(coords[position]),
                    _CachedTreeNode(node),
                    True,
                    generation,
                )
        return nodes

    # ---------------------------------------------------------- storage path

    def _fetch_from_storage(
        self, context, fetch_bin, stats: QueryStats, deadline=None,
        ensure_verified=False,
    ) -> tuple[object, bool]:
        """One whole-bin storage read: the packed sidecar when this
        fetcher is packed and the engine serves one, else the trapdoor
        row fetch (which is authoritative for errors)."""
        engine = self.engine
        # Fence stamp *before* the read: bins racing a rewrite must not
        # be cached under the post-rewrite generation.
        generation = getattr(engine, "rewrite_generation", 0)
        # Against a replicated engine verification moves *into* the
        # read: each replica's answer is checked before acceptance.
        verified = self.verify and getattr(engine, "supports_replicated_reads", False)
        payload = None
        if self.packed:
            verifier = None
            if verified:
                verifier = lambda packed, cells: context.verify_packed([packed], cells)
            with self._engine_lock:
                payload = context.fetch_packed(
                    engine, fetch_bin, stats, deadline=deadline, verifier=verifier
                )
        if payload is None:
            if self.oblivious:
                trapdoors = context.oblivious_trapdoors_for_bin(fetch_bin)
            else:
                trapdoors = context.trapdoors_for_bin(fetch_bin)
            with self._engine_lock:
                payload = tuple(
                    context.fetch(
                        engine,
                        trapdoors,
                        stats,
                        deadline=deadline,
                        verifier=context.verify_rows if verified else None,
                        cells=fetch_bin.cell_ids,
                    )
                )
        if self.verify and ensure_verified and not verified:
            # The bin becomes reusable, so it must be checked *now*:
            # a later overlay/cache consumer will trust it as-is.
            if isinstance(payload, tuple):
                context.verify_rows(payload, fetch_bin.cell_ids)
            else:
                context.verify_packed([payload], fetch_bin.cell_ids)
            verified = True
            stats.verified = True
        if self._cache_active():
            self.cache.insert(
                context.table_name, fetch_bin.index, payload, verified, generation
            )
        return payload, verified

    # ------------------------------------------------------------ accounting

    def _cache_active(self) -> bool:
        return self.cache is not None and not self.oblivious

    def _count_hit(self, stats: QueryStats, payload, verified: bool) -> None:
        stats.cache_hits += 1
        stats.rows_from_cache += len(payload)
        if self.verify and verified:
            stats.verified = True
