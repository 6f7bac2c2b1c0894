"""Enclave-resident per-epoch state and shared query machinery.

When the first query touches an epoch, the enclave decrypts that
epoch's metadata vectors (``cell_id[]``, ``c_tuple[]``, per-cell
counts), rebuilds the grid from the sealed master key, and runs the
deterministic bin packing (STEP 0 of Algorithm 2).  All of that is
cached here as an :class:`EpochContext`, charged against the simulated
EPC budget.

The context also provides the building blocks every executor shares:

- trapdoor generation for a set of cell-ids + fake ids (STEP 3),
- DET filter generation for predicates over timestamp sets,
- hash-chain verification of fetched rows against the verifiable tags,
- plain and oblivious row filtering (STEP 4 and §4.3).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro import telemetry
from repro.core.binning import Bin, BinLayout, pack_bins
from repro.core.epoch import (
    EpochPackage,
    fake_index_plaintext,
    index_plaintext,
)
from repro.core.grid import Grid
from repro.core.queries import Predicate, QueryStats
from repro.core.schema import DatasetSchema
from repro.crypto.det import DeterministicCipher
from repro.crypto.kernels import CHAIN_INIT, DetKernel, batch_chain_extend
from repro.crypto.keys import derive_epoch_key
from repro.crypto.nondet import RandomizedCipher
from repro.enclave.enclave import Enclave
from repro.enclave.sort import bitonic_sort, column_sort
from repro.exceptions import (
    DecryptionError,
    EpochError,
    IntegrityViolation,
    QueryError,
)
from repro.storage.engine import StorageEngine
from repro.storage.table import Row


# Rough per-item resident estimate for the footnote-5 sorter choice
# (a (flag, ciphertext/row) pair with framing).
_ROW_ESTIMATE_BYTES = 512

# Batches at least this large route through the vectorised bitonic
# network; below it the pure-Python reference is faster than the numpy
# setup cost.
_VECTOR_SORT_THRESHOLD = 512


def _count_tuples(real: int, fake: int) -> None:
    """Record the real/fake split of a trapdoor batch.

    The *total* is public-size (it is the bin size), but the split is
    the very thing volume hiding conceals from the host — only the
    enclave, which generated the trapdoors, can account for it, and the
    family is tagged data-dependent so the leakage auditor never
    requires it to match across datasets.
    """
    tuples = telemetry.counter(
        "concealer_tuples_fetched_total",
        "tuples requested via trapdoors, split real vs. fake (enclave-"
        "private knowledge; the host sees only the public total)",
        labels=("kind",),
    )
    tuples.labels(kind="real").inc(real)
    tuples.labels(kind="fake").inc(fake)


class EpochContext:
    """Decrypted, enclave-private view of one outsourced epoch."""

    def __init__(
        self,
        enclave: Enclave,
        package: EpochPackage,
        schema: DatasetSchema,
        table_name: str | None = None,
        trapdoor_table=None,
    ):
        enclave.require_provisioned()
        self.enclave = enclave
        self.schema = schema
        self.package = package
        self.epoch_id = package.epoch_id
        self.table_name = table_name or f"epoch_{package.epoch_id}"
        # Optional service-wide TrapdoorTable (rotation-fenced LRU memo
        # of derived trapdoors); None on the oblivious path, where a
        # memo hit would break Concealer+'s trace-identity guarantee.
        self.trapdoor_table = trapdoor_table

        epoch_key = derive_epoch_key(enclave.master_key, package.epoch_id)
        # Kept for lazily-derived subkeys (the aggregate-tree keys);
        # enclave-private like every other derived key here.
        self._epoch_key = epoch_key
        self.det = DeterministicCipher(epoch_key)
        self.det_kernel = DetKernel(epoch_key)
        self.nd = RandomizedCipher(epoch_key)
        grid_key = (
            self.nd.decrypt(package.enc_grid_key)
            if package.enc_grid_key
            else None
        )
        self.grid = Grid(
            package.grid_spec, schema, enclave.master_key, package.epoch_id,
            grid_key=grid_key,
        )

        with enclave.trace.disabled():
            self.cell_id_vector = package.decrypt_cell_id_vector(self.nd)
            self.c_tuple = package.decrypt_c_tuple_vector(self.nd)
            self.cell_counts = package.decrypt_cell_counts(self.nd)
        # The §9.1 observation that the vectors are small enough for the
        # enclave: charge them against the EPC budget (8 bytes/int).
        self._metadata_charge = 8 * (
            len(self.cell_id_vector) + len(self.c_tuple) + len(self.cell_counts)
        )
        enclave.charge_memory(self._metadata_charge)
        try:
            self.layout: BinLayout = pack_bins(
                self.c_tuple,
                bin_size=package.bin_size,
                max_cells_per_bin=package.max_cells_per_bin,
            )
        except BaseException:
            # A half-built context holds no EPC: a packing failure (or an
            # injected fault) must not leak the metadata charge forever.
            enclave.release_memory(self._metadata_charge)
            raise
        self.fake_pool_size = package.fake_count
        self._super_layouts: dict[int, object] = {}
        # Aggregate-tree state, decrypted lazily on first tree-path
        # query: (engine generation, (meta, directory) | None).
        self._tree_state: tuple[int, object] | None = None
        self._tree_key_pair: tuple[bytes, bytes] | None = None
        self._tree_det: DetKernel | None = None

    def super_layout(self, super_bin_count: int):
        """The §8 super-bin grouping of this epoch's bins, cached per f.

        ``super_bin_count`` is the requested number of super-bins; the
        largest divisor of the bin count not exceeding it is used (§8
        requires f to divide the bin count evenly).  Bin "uniqueness" is
        proxied by its number of cell-ids — the quantity that drives
        retrieval frequency under a uniform per-cell-id workload.
        """
        from repro.core.superbin import build_super_bins

        if super_bin_count not in self._super_layouts:
            bin_count = len(self.layout.bins)
            f = max(
                d for d in range(1, min(super_bin_count, bin_count) + 1)
                if bin_count % d == 0
            )
            uniques = [len(b.cell_ids) for b in self.layout.bins]
            self._super_layouts[super_bin_count] = build_super_bins(uniques, f)
        return self._super_layouts[super_bin_count]

    def release(self) -> None:
        """Return this context's EPC charge (drop the cached metadata)."""
        self.enclave.release_memory(self._metadata_charge)

    # --------------------------------------------------------------- filters

    def filter_group_position(self, group: tuple[str, ...]) -> int:
        """Which stored filter column corresponds to a predicate group."""
        try:
            return self.schema.filter_groups.index(group)
        except ValueError:
            raise QueryError(
                f"schema {self.schema.name!r} has no filter group {group}"
            ) from None

    def filters_for(
        self, predicate: Predicate, timestamps: Iterable[int]
    ) -> list[bytes]:
        """DET filter ciphertexts for (predicate values × timestamps).

        Table 4's "SM using the filters E_k(l|t_1) ... E_k(l|t_x)".
        """
        return self.det_kernel.encrypt_many(
            [
                self.schema.filter_plaintext_for_values(
                    predicate.group, predicate.values, t
                )
                for t in timestamps
            ]
        )

    def query_timestamps(self, start: int, end: int) -> list[int]:
        """Enumerate the discrete reading timestamps in ``[start, end]``."""
        step = self.package.time_granularity
        first = start + (-start) % step if start % step else start
        return list(range(first, end + 1, step))

    # ------------------------------------------------------------- trapdoors

    def trapdoors_for_cell_ids(
        self, cell_ids: Sequence[int], fake_ids: Sequence[int] = ()
    ) -> list[bytes]:
        """STEP 3: index-key ciphertexts for whole cell-ids plus fakes.

        Slots are deduplicated within the request (fake ids cycle when
        a range query needs more fakes than the pool holds, so one
        query can name the same fake many times), looked up in the
        service's :class:`~repro.core.trapdoor_table.TrapdoorTable`
        when one is wired, and only the remaining misses hit the DET
        kernel — in one batch.
        """
        slots: list[tuple] = [
            ("real", cid, j)
            for cid in cell_ids
            for j in range(1, self.c_tuple[cid] + 1)
        ]
        real = len(slots)
        slots.extend(("fake", fid, 0) for fid in fake_ids)
        _count_tuples(real, len(slots) - real)

        table = self.trapdoor_table
        resolved: dict[tuple, bytes] = {}
        pending: dict[tuple, None] = {}
        for slot in slots:
            if slot in resolved or slot in pending:
                continue
            if table is not None:
                cached = table.lookup((self.epoch_id, self.table_name) + slot)
                if cached is not None:
                    resolved[slot] = cached
                    continue
            pending[slot] = None
        miss_order = list(pending)
        if miss_order:
            derived = self.det_kernel.encrypt_many(
                [
                    index_plaintext(slot[1], slot[2])
                    if slot[0] == "real"
                    else fake_index_plaintext(slot[1])
                    for slot in miss_order
                ]
            )
            for slot, trapdoor in zip(miss_order, derived):
                resolved[slot] = trapdoor
                if table is not None:
                    table.insert((self.epoch_id, self.table_name) + slot, trapdoor)
        return [resolved[slot] for slot in slots]

    def trapdoors_for_bin(self, chosen: Bin) -> list[bytes]:
        """All trapdoors retrieving one point-query bin (|b| rows)."""
        return self.trapdoors_for_cell_ids(chosen.cell_ids, chosen.fake_ids())

    def oblivious_trapdoors_for_bin(self, chosen: Bin) -> list[bytes]:
        """§4.3 STEP 3: same trapdoors, via a data-independent schedule.

        Generates ``#Cmax × #max`` candidate slots plus ``#fmax`` fake
        slots for *every* bin, flags each with v ∈ {0,1} using oblivious
        comparisons, bitonic-sorts by v, and returns the v=1 prefix —
        exactly ``bin_size`` trapdoors for any bin, with an identical
        in-enclave event trace for all bins.
        """
        trace = self.enclave.trace
        cells_max = max(len(b.cell_ids) for b in self.layout.bins)
        tuples_max = max(self.c_tuple) if self.c_tuple else 0
        fakes_max = max(b.fake_count for b in self.layout.bins)
        # One event summarises the whole schedule: the slot iteration
        # order below is a fixed function of these three public maxima,
        # and each slot's flag is computed branch-free.
        trace.emit(
            "oblivious_trapdoor_schedule", cells_max, tuples_max, fakes_max
        )

        # The memoizing TrapdoorTable is deliberately bypassed here: the
        # kernel derives every candidate slot unconditionally, so the
        # schedule's memory-touch sequence stays bin-independent.  The
        # primed-HMAC amortization is trace-neutral (same per-slot work).
        slots: list[tuple[int, bytes]] = []
        cell_list = list(chosen.cell_ids) + [0] * (cells_max - len(chosen.cell_ids))
        in_bin_count = len(chosen.cell_ids)
        encrypt = self.det_kernel.encrypt
        for position in range(cells_max):
            cid = cell_list[position]
            in_bin = ((position - in_bin_count) >> 63) & 1  # 1 iff slot is used
            population = self.c_tuple[cid]
            for j in range(1, tuples_max + 1):
                within = ((population - j) >> 63) & 1 ^ 1  # 1 iff j <= population
                slots.append((in_bin & within, encrypt(index_plaintext(cid, j))))
        fake_ids = chosen.fake_ids()
        fake_count = len(fake_ids)
        for j in range(1, fakes_max + 1):
            v = ((fake_count - j) >> 63) & 1 ^ 1  # 1 iff j <= fake_count
            fid = fake_ids[j - 1] if j <= fake_count else 0
            slots.append((v, encrypt(fake_index_plaintext(fid))))

        real = sum(v for v, _ in slots[: cells_max * tuples_max])
        fake = sum(v for v, _ in slots[cells_max * tuples_max:])
        _count_tuples(real, fake)
        ordered = self._oblivious_sort(slots, key=lambda s: -s[0])
        return [ct for v, ct in ordered[: self.layout.bin_size]]

    def _oblivious_sort(self, items, key):
        """Footnote 5 of §4.3: bitonic in-EPC, column sort beyond it.

        The batch's resident footprint is estimated against the free
        EPC budget; batches that would not fit are sorted with
        Leighton's column sort, which only ever holds one column of
        the matrix resident.  In-EPC batches above a small threshold
        use the vectorised bitonic network (same compare-exchange
        sequence, numpy-applied).
        """
        estimated_bytes = _ROW_ESTIMATE_BYTES * len(items)
        available = self.enclave.config.epc_bytes - self.enclave.epc_used
        if estimated_bytes > available and len(items) > 1:
            return column_sort(items, key=key, recorder=self.enclave.trace)
        if len(items) >= _VECTOR_SORT_THRESHOLD:
            from repro.enclave.sort_np import bitonic_sort_np

            return bitonic_sort_np(items, key=key, recorder=self.enclave.trace)
        return bitonic_sort(items, key=key, recorder=self.enclave.trace)

    # ------------------------------------------------------------------ fetch

    def _storage_read(
        self, engine, read, stats: QueryStats, epc_bytes: int, deadline=None,
        check=None, cells=None, **span,
    ):
        """The one storage round-trip under every enclave fetch.

        ``read`` is the engine call; against a replicated engine
        (``supports_replicated_reads``) it also receives the request-
        bound ``check`` and the ``deadline``, so every replica attempt is
        verified *before* acceptance and failover happens at whole-unit
        granularity.  The unit transits the EPC whole, so ``epc_bytes``
        is reserved while pulling: oversized units feel the budget here
        rather than succeeding silently.  A ``None`` payload (no sidecar)
        leaves ``stats`` untouched for the fallback path to account.
        """
        with telemetry.span("enclave.fetch", epoch=self.epoch_id, **span):
            self.enclave.kill_point("enclave.kill.query")
            if deadline is not None:
                deadline.check("enclave.fetch")
            with self.enclave.memory(epc_bytes):
                if not getattr(engine, "supports_replicated_reads", False):
                    return read()
                payload = read(verifier=check, deadline=deadline, cells=cells)
                if payload is not None:
                    stats.failovers += engine.last_read_failovers
                    stats.degraded = stats.degraded or engine.degraded
                    stats.verified = stats.verified or check is not None
                return payload

    def fetch(
        self,
        engine: StorageEngine,
        trapdoors: Sequence[bytes],
        stats: QueryStats,
        deadline=None,
        verifier=None,
        cells: Sequence[int] | None = None,
    ) -> list[Row]:
        """Submit trapdoors to the DBMS and pull the rows.

        ``verifier`` (``verify_rows``) is bound to ``cells`` when both
        are given: a replica substituting a different (valid) batch must
        fail verification, not just a different chain.
        """
        check = verifier
        if verifier is not None and cells is not None:
            expected = list(cells)
            check = lambda batch: verifier(batch, expected)
        keys = list(trapdoors)
        rows = self._storage_read(
            engine,
            lambda **replicated: engine.lookup_many(
                self.table_name, "index_key", keys, **replicated
            ),
            stats,
            256 * len(keys),
            deadline=deadline,
            check=check,
            cells=cells,
            stage="fetch",
            trapdoors=len(keys),
        )
        stats.trapdoors_generated += len(keys)
        stats.rows_fetched += len(rows)
        return rows

    def fetch_packed(
        self,
        engine,
        chosen: Bin,
        stats: QueryStats,
        deadline=None,
        verifier=None,
    ):
        """Whole-bin columnar fetch of ``chosen`` — the vectorized STEP 3.

        Returns the engine's :class:`~repro.core.packed.PackedBin`, or
        ``None`` when no packed sidecar serves this bin (after a dynamic
        insert, a repair, or an exhausted replica group) — the caller
        then falls back to the scalar trapdoor fetch, which is
        authoritative for errors.  ``verifier`` takes
        ``(packed, expected_cells)`` and is bound to the bin's cell-ids.
        """
        check = None
        if verifier is not None:
            expected = list(chosen.cell_ids)
            check = lambda packed: verifier(packed, expected)
        packed = self._storage_read(
            engine,
            lambda **replicated: engine.fetch_packed_bin(
                self.table_name, chosen.index, **replicated
            ),
            stats,
            256 * chosen.total_tuples,
            deadline=deadline,
            check=check,
            cells=chosen.cell_ids,
            stage="fetch",
            trapdoors=chosen.total_tuples,
        )
        if packed is None:
            return None
        stats.trapdoors_generated += chosen.total_tuples
        _count_tuples(chosen.real_tuples, chosen.fake_count)
        stats.rows_fetched += packed.row_count
        return packed

    # -------------------------------------------------------- aggregate tree

    def _tree_keys(self) -> tuple[bytes, bytes]:
        """(encryption key, MAC key) of this epoch's tree, derived once."""
        if self._tree_key_pair is None:
            from repro.core.aggtree import derive_tree_keys

            self._tree_key_pair = derive_tree_keys(self._epoch_key)
        return self._tree_key_pair

    def tree_state(self, engine):
        """``(meta, directory)`` of the engine's tree sidecar, or ``None``.

        The sealed directory is decrypted inside the enclave on first
        use and fenced on the engine's ``rewrite_generation`` exactly
        like cached bins: a rewrite (key rotation, §6 bin rewrite)
        drops the decrypted state so a stale tree can never answer
        post-rewrite queries.  ``None`` means no sidecar is available
        (un-sealed epoch, post-mutation) — callers fall back to the bin
        path.
        """
        if getattr(engine, "rewrite_in_progress", False):
            return None
        generation = getattr(engine, "rewrite_generation", 0)
        if self._tree_state is not None and self._tree_state[0] == generation:
            return self._tree_state[1]
        meta = engine.fetch_agg_tree_meta(self.table_name)
        if meta is None:
            self._tree_state = (generation, None)
            return None
        from repro.core.aggtree import decode_directory

        try:
            directory = decode_directory(
                self.nd.decrypt(meta.enc_directory), meta.entity_count
            )
        except (DecryptionError, EpochError) as error:
            raise IntegrityViolation(
                f"tree directory fails authenticated decryption: {error}",
                epoch_id=self.epoch_id,
                table=self.table_name,
                kind="undecryptable",
            ) from error
        state = (meta, directory)
        self._tree_state = (generation, state)
        return state

    def tree_entity_for(self, meta, directory, index_values) -> tuple[int, bool]:
        """``(entity, present)`` for one index-value combination.

        An absent combination resolves — inside the enclave — to a
        decoy entity whose nodes are fetched exactly like a real
        entity's (the host-visible access is a uniform entity index
        either way); ``present=False`` tells the executor to discard
        the decoy's decoded values and answer "no matching records".
        """
        from repro.core.aggtree import combo_digest, decoy_entity

        _, mac_key = self._tree_keys()
        digest = combo_digest(mac_key, tuple(index_values))
        entity = directory.get(digest[:16])
        if entity is not None:
            return entity, True
        return decoy_entity(digest, meta.entity_count), False

    def fetch_tree_nodes(
        self, engine, meta, coords, stats: QueryStats, deadline=None,
        verify: bool = False,
    ):
        """Pull encrypted tree nodes by coordinate; ``None`` = fall back.

        With ``verify`` the node check (authenticated decode bound to
        the requested coordinates) runs on every replica attempt before
        acceptance, so a tampered replica costs a failover, not the
        query.  Node count rides on the span and the stats — it is a
        pure function of the public range decomposition.
        """
        check = None
        if verify:
            check = lambda nodes: self.decode_tree_nodes(meta, coords, nodes)
        nodes = self._storage_read(
            engine,
            lambda **replicated: engine.fetch_tree_nodes(
                self.table_name, coords, **replicated
            ),
            stats,
            meta.node_width * len(coords),
            deadline=deadline,
            check=check,
            stage="tree_fetch",
            nodes=len(coords),
        )
        if nodes is not None:
            stats.rows_fetched += len(coords)
        return nodes

    def decode_tree_nodes(self, meta, coords, nodes):
        """Authenticate and decode fetched tree nodes.

        Returns ``[(count, [(sum, min, max), ...]), ...]`` aligned with
        ``coords``.  Every failure mode — flipped ciphertext byte (SIV
        authentication), substituted node (position header), dropped or
        duplicated node (batch length), cross-epoch replay (fresh tree
        key) — raises a structured :class:`IntegrityViolation`; the
        tree path never returns silently wrong aggregates.
        """
        return self._checked(
            lambda: self._decode_tree_nodes(meta, coords, nodes),
            stage="tree_verify",
            nodes=len(coords),
        )

    def _decode_tree_nodes(self, meta, coords, nodes):
        from repro.core.aggtree import decode_node

        if len(nodes) != len(coords):
            raise IntegrityViolation(
                f"tree node batch has {len(nodes)} nodes, "
                f"{len(coords)} were requested (dropped or duplicated)",
                epoch_id=self.epoch_id,
                table=self.table_name,
                kind="missing-node",
            )
        enc_key, mac_key = self._tree_keys()
        if self._tree_det is None:
            self._tree_det = DetKernel(enc_key)
        plaintexts = self._tree_det.decrypt_many(list(nodes), errors="none")
        decoded = []
        for (entity, level, index), plaintext in zip(coords, plaintexts):
            if plaintext is None:
                raise IntegrityViolation(
                    f"tree node ({entity},{level},{index}) fails "
                    "authenticated decryption — the stored node was "
                    "tampered with or replayed across epochs",
                    epoch_id=self.epoch_id,
                    table=self.table_name,
                    kind="undecryptable",
                )
            try:
                decoded.append(
                    decode_node(
                        mac_key, plaintext, entity, level, index,
                        len(meta.targets),
                    )
                )
            except ValueError as error:
                raise IntegrityViolation(
                    f"tree node ({entity},{level},{index}): {error}",
                    epoch_id=self.epoch_id,
                    table=self.table_name,
                    kind="tree-node",
                ) from error
        return decoded

    # ----------------------------------------------------------- verification

    def _checked(self, check, **span):
        """Run one integrity check under the ``enclave.verify`` span.

        Every check — row chains, packed chains, tree nodes — counts its
        outcome in ``concealer_hashchain_verifications_total`` and each
        structured violation by kind, then re-raises it.
        """
        verifications = telemetry.counter(
            "concealer_hashchain_verifications_total",
            "hash-chain verifications of fetched row batches, by outcome",
            labels=("result",),
        )
        with telemetry.span("enclave.verify", epoch=self.epoch_id, **span):
            try:
                result = check()
            except IntegrityViolation as violation:
                verifications.labels(result="violation").inc()
                telemetry.counter(
                    "concealer_integrity_violations_total",
                    "structured integrity-verification failures, by kind",
                    labels=("kind",),
                ).labels(kind=violation.kind).inc()
                raise
            verifications.labels(result="ok").inc()
            return result

    def verify_rows(
        self, rows: Sequence[Row], expected_cells: Sequence[int] | None = None
    ) -> None:
        """STEP 4 (optional): hash-chain verification of fetched rows.

        The enclave decrypts each real row's index key to recover
        ``(cid, counter)``, orders rows per cell-id by counter, rebuilds
        the per-column chains and compares against the sealed tags.
        Raises a structured :class:`IntegrityViolation` (an
        :class:`~repro.exceptions.IntegrityError` subclass carrying the
        epoch, table, cell-id, and violation kind) on any inconsistency.

        ``expected_cells`` binds the response to the *request*: every
        named cell-id with a non-zero population must appear in the
        batch.  Without it, a Byzantine replica replaying a different
        bin's (internally consistent) batch would verify cleanly while
        silently under-counting — per-cell chains prove each present
        cell is whole, not that the right cells are present.
        """
        # Row count here is the *fetched* volume — public-size by the
        # volume-hiding argument — so it may ride on the span.
        self._checked(
            lambda: self._verify_chains(
                rows,
                [row[-1] for row in rows],
                lambda row: row.row_id,
                lambda batch, position: [row[position] for row in batch],
                expected_cells,
            ),
            stage="verify",
            rows=len(rows),
        )

    def verify_packed(
        self,
        packed_bins: Sequence,
        expected_cells: Sequence[int] | None = None,
        keep=None,
    ) -> None:
        """Hash-chain verification of packed bins: :meth:`verify_rows`
        over columnar cells, same counters, same violation taxonomy.

        ``keep`` is an optional boolean mask over the concatenated rows
        (range queries dedup *before* verifying, exactly like the row
        path tolerates tamper-duplicates at that stage).
        """
        # One flat batch of (kept) index keys across all bins.  Cells
        # are materialised by plain slicing, never through numpy element
        # access (S-dtype strips trailing NULs from ciphertext bytes).
        refs: list[tuple[object, int]] = []
        index_keys: list[bytes] = []
        offset = 0
        for pb in packed_bins:
            keys = pb.column_cells(len(pb.columns) - 1)
            for j in range(pb.row_count):
                if keep is None or keep[offset + j]:
                    refs.append((pb, j))
                    index_keys.append(keys[j])
            offset += pb.row_count
        self._checked(
            lambda: self._verify_chains(
                refs,
                index_keys,
                lambda ref: ref[0].row_ids[ref[1]],
                lambda batch, position: [pb.cell(j, position) for pb, j in batch],
                expected_cells,
            ),
            stage="verify",
            rows=len(refs),
        )

    def _verify_chains(
        self, refs, index_keys, row_id, cells, expected_cells=None
    ) -> None:
        """The hash-chain check over any row representation.

        ``refs`` name the fetched rows and ``index_keys`` are their
        index-key ciphertexts; ``row_id(ref)`` reads a row's id and
        ``cells(refs, column)`` one stored column of several rows.
        """
        from repro.core.schema import unpad_plaintext

        column_count = len(self.schema.filter_groups) + 1
        per_cid: dict[int, list[tuple[int, object]]] = {}
        # Index keys are decoded in one kernel batch (the count is the
        # public fetched volume); a None marks a row whose index key did
        # not authenticate — tampering, reported per offending row.
        plaintexts = self.det_kernel.decrypt_many(index_keys, errors="none")
        for ref, plaintext in zip(refs, plaintexts):
            if plaintext is None:
                raise IntegrityViolation(
                    f"row {row_id(ref)}: index key fails decryption — the "
                    "stored ciphertext was tampered with",
                    epoch_id=self.epoch_id,
                    table=self.table_name,
                    kind="undecryptable",
                )
            parts = unpad_plaintext(plaintext).split(b"\x1f")
            if parts[0] != b"idx":
                continue  # fake rows are not covered by per-cid tags
            per_cid.setdefault(int(parts[1]), []).append((int(parts[2]), ref))

        if expected_cells is not None:
            for cid in expected_cells:
                if self.c_tuple[cid] > 0 and cid not in per_cid:
                    raise IntegrityViolation(
                        f"cell {cid}: requested but absent from the response "
                        "batch (a substituted or replayed answer)",
                        epoch_id=self.epoch_id,
                        cell_id=cid,
                        table=self.table_name,
                        kind="missing-cell",
                    )

        for cid, numbered in per_cid.items():
            numbered.sort(key=lambda pair: pair[0])
            counters = [c for c, _ in numbered]
            if counters != list(range(1, self.c_tuple[cid] + 1)):
                raise IntegrityViolation(
                    f"cell {cid}: expected counters 1..{self.c_tuple[cid]}, "
                    f"observed {counters[:5]}... (rows dropped, duplicated, "
                    "or replayed)",
                    epoch_id=self.epoch_id,
                    cell_id=cid,
                    table=self.table_name,
                    kind="counter-gap",
                )
            # Per-column chains fold in one kernel batch.  Uncounted:
            # the fold count is the *real*-row volume, which is exactly
            # what volume hiding keeps from the host.
            ordered = [ref for _, ref in numbered]
            chains = batch_chain_extend(
                [CHAIN_INIT] * column_count,
                [cells(ordered, position) for position in range(column_count)],
                counted=False,
            )
            tag = self.package.enc_tags.get(cid)
            if tag is None:
                raise IntegrityViolation(
                    f"cell {cid}: no verifiable tag shipped",
                    epoch_id=self.epoch_id,
                    cell_id=cid,
                    table=self.table_name,
                    kind="missing-tag",
                )
            for position, sealed in enumerate(tag):
                expected = self.nd.decrypt(sealed)
                if expected != chains[position]:
                    raise IntegrityViolation(
                        f"cell {cid}: column {position} hash chain mismatch",
                        epoch_id=self.epoch_id,
                        cell_id=cid,
                        table=self.table_name,
                        kind="chain-mismatch",
                    )

    def _decode_index_key(self, row: Row) -> tuple[int, int] | None:
        """Recover (cid, counter) from a row's index key; None for fakes."""
        from repro.core.schema import unpad_plaintext

        plaintext = unpad_plaintext(self.det_kernel.decrypt(row[-1]))
        parts = plaintext.split(b"\x1f")
        if parts[0] == b"idx":
            return int(parts[1]), int(parts[2])
        return None

    def is_fake_row(self, row: Row) -> bool:
        """Whether a fetched row is one of the provider's fakes."""
        return self._decode_index_key(row) is None

    # ------------------------------------------------------------- filtering

    def match_rows(
        self,
        rows: Sequence[Row],
        filters: Sequence[bytes],
        group: tuple[str, ...],
        stats: QueryStats,
    ) -> list[Row]:
        """Plain (Concealer) string-matching of rows against filters."""
        position = self.filter_group_position(group)
        filter_set = set(filters)
        matched = [row for row in rows if row[position] in filter_set]
        stats.rows_matched += len(matched)
        return matched

    def packed_dedup_keep(self, packed_bins: Sequence):
        """First-occurrence keep mask over concatenated packed rows.

        Deduplicates by index-key ciphertext — the columnar twin of the
        multipoint path's pre-verification dedup.  Fixed-width S-dtype
        equality is exact here: two distinct ``w``-byte strings cannot
        compare equal under trailing-NUL stripping at width ``w``.
        """
        import numpy as np

        keys = self._packed_column_array(packed_bins, -1)
        _, first = np.unique(keys, return_index=True)
        kept = np.zeros(len(keys), dtype=bool)
        kept[first] = True
        return kept

    def match_packed(
        self,
        packed_bins: Sequence,
        filters: Sequence[bytes],
        group: tuple[str, ...],
        stats: QueryStats,
        keep=None,
    ):
        """Vectorized STEP 4 over packed bins: one ``np.isin`` instead of
        a per-row set probe.  Returns the boolean match mask over the
        concatenated rows (ANDed with ``keep`` when given)."""
        import numpy as np

        position = self.filter_group_position(group)
        cells = self._packed_column_array(packed_bins, position)
        # A filter of a different byte-length can never equal a stored
        # cell; drop such filters rather than let S-dtype truncate them
        # into spurious matches.
        width = cells.dtype.itemsize
        usable = [f for f in filters if len(f) == width]
        if usable:
            mask = np.isin(cells, np.array(usable, dtype=cells.dtype))
        else:
            mask = np.zeros(len(cells), dtype=bool)
        if keep is not None:
            mask &= keep
        stats.rows_matched += int(mask.sum())
        return mask

    def _packed_column_array(self, packed_bins: Sequence, column: int):
        """One column of every bin as a flat fixed-width numpy array.

        Used for *equality only* (isin/unique); byte materialisation
        always goes through :meth:`PackedBin.cell` slicing because
        S-dtype element access strips trailing NULs.
        """
        import numpy as np

        arrays = [
            np.frombuffer(
                pb.columns[column], dtype=f"S{pb.column_widths[column]}"
            )
            for pb in packed_bins
        ]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def match_rows_oblivious(
        self,
        rows: Sequence[Row],
        filters: Sequence[bytes],
        group: tuple[str, ...],
        stats: QueryStats,
    ) -> list[Row]:
        """§4.3 STEP 4: oblivious filtering.

        Every row is compared against *every* filter; the match flag is
        folded branch-free so the trace never reveals which filter
        hit.  Rows are then bitonic-sorted by flag (matches first) and
        the matched prefix is returned.  The in-enclave event trace
        depends only on ``(len(rows), len(filters))``.
        """
        trace = self.enclave.trace
        position = self.filter_group_position(group)
        trace.emit("oblivious_filter", len(rows), len(filters))
        # Pre-decode filters once; per (row, filter) the comparison is a
        # single full-width big-integer XOR (branch-free), and the flag
        # folds in with bitwise OR.
        filter_ints = [int.from_bytes(f, "big") for f in filters]
        max_width = max((len(f) for f in filters), default=0)
        if rows:
            max_width = max(max_width, len(rows[0][position]))
        shift = 8 * max_width + 8
        flagged: list[tuple[int, Row]] = []
        for row in rows:
            cell = int.from_bytes(row[position], "big")
            v = 0
            for filter_int in filter_ints:
                diff = cell ^ filter_int
                v |= ((-diff) >> shift) & 1 ^ 1  # 1 iff diff == 0
            flagged.append((v, row))
        ordered = self._oblivious_sort(flagged, key=lambda fr: -fr[0])
        matched_count = sum(v for v, _ in flagged)
        stats.rows_matched += matched_count
        return [row for _, row in ordered[:matched_count]]

    # ------------------------------------------------------------ decryption

    def decrypt_records(self, rows: Sequence[Row], stats: QueryStats) -> list[tuple]:
        """Decrypt payloads (skipping any fake rows defensively)."""
        position = len(self.schema.filter_groups)
        return self._decrypt_payloads([row[position] for row in rows], stats)

    def decrypt_packed_records(
        self, packed_bins: Sequence, mask, stats: QueryStats
    ) -> list[tuple]:
        """Decrypt the mask-selected payload cells of packed bins.

        Row order is the concatenated bin order — identical to the
        row path's fetched-row order, so answers stay byte-for-byte
        comparable.
        """
        import numpy as np

        position = len(self.schema.filter_groups)
        selected = np.nonzero(mask)[0]
        payloads: list[bytes] = []
        offset = 0
        for pb in packed_bins:
            width = pb.column_widths[position]
            blob = pb.columns[position]
            end = offset + pb.row_count
            local = selected[(selected >= offset) & (selected < end)] - offset
            payloads.extend(blob[j * width : (j + 1) * width] for j in local.tolist())
            offset = end
        return self._decrypt_payloads(payloads, stats)

    def _decrypt_payloads(
        self, payloads: Sequence[bytes], stats: QueryStats
    ) -> list[tuple]:
        """Decrypt and decode payload cells into record tuples.

        Batched through the DET kernel with ``counted=False``: the
        number of matched-and-decrypted rows is data-dependent, so it
        must not feed a public-size kernel counter.
        """
        # No row count on this span: matched-row volume is the answer
        # volume (data-dependent).  The span itself is fine — every query
        # has exactly one decrypt stage, a public fact.
        with telemetry.span("enclave.decrypt", stage="decrypt", epoch=self.epoch_id):
            plaintexts = self.det_kernel.decrypt_many(
                payloads, errors="none", counted=False
            )
            records = [
                self.schema.decode_payload(plaintext)
                for plaintext in plaintexts
                if plaintext is not None  # a fake that slipped through matching
            ]
            stats.rows_decrypted += len(records)
            return records
