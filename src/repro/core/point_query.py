"""Algorithm 2: bin-packing-based (BPB) point-query execution.

The four steps, run inside the enclave:

- **STEP 0** bins exist (built once per epoch by the
  :class:`~repro.core.context.EpochContext`);
- **STEP 1** hash the query's index values and timestamp to a grid
  cell and read its cell-id from ``cell_id[]``;
- **STEP 2** find the bin containing that cell-id;
- **STEP 3** formulate one DET trapdoor per (cell-id, counter) of the
  bin plus the bin's fake-tuple trapdoors — exactly ``|b|`` trapdoors
  no matter which bin, which is the volume-hiding guarantee;
- **STEP 4** optionally verify hash chains, string-match the fetched
  rows against the query filters, decrypt only what the aggregate
  needs, and aggregate.

STEP 4 is :func:`finish_query`, shared with the multipoint, eBPB and
winSecRange range methods.

``oblivious=True`` selects the §4.3 Concealer+ variant: trapdoor
generation and filtering run on the data-independent code paths
(oblivious comparisons + bitonic sort), which the trace recorder can
certify produce identical event streams across queries.
"""

from __future__ import annotations

from repro import telemetry
from repro.core.aggregation import evaluate_aggregate, needs_decryption
from repro.core.context import EpochContext
from repro.core.packed import PackedBin
from repro.core.queries import (
    Aggregate,
    PointQuery,
    QueryStats,
    resolve_predicate,
)
from repro.exceptions import QueryError


def finish_query(
    query,
    context: EpochContext,
    payloads: list,
    stats: QueryStats,
    expected_cells,
    build_filters,
    *,
    verify: bool,
    oblivious: bool = False,
    dedup: bool = False,
) -> tuple[object, QueryStats]:
    """STEP 4, shared by the BPB and range executors: verify, filter,
    decrypt, aggregate.

    ``payloads`` are the fetched units — packed bins or row sequences.
    When every unit came packed the columnar path runs (batched verify,
    one vectorized ``np.isin`` filter, only matched payloads decrypted);
    otherwise the units are unpacked and concatenated into rows, in
    fetch order, so answers are byte-identical either way.

    ``dedup`` drops repeated index-key ciphertexts *before*
    verification: winSecRange windows, eBPB cell-id unions and
    overlapping multipoint bins can fetch the same logical row twice.
    The index key is the logical identity — byte-identical on every
    replica, unlike the replica-local physical row id.

    ``expected_cells`` binds verification to the cell-ids the query
    *requested*: a per-cell hash chain only proves the cells present in
    the batch are whole, so a host dropping every row of a population-1
    cell would otherwise leave no counter gap to find.

    ``build_filters()`` returns ``(group, filters)``; it runs after
    verification.
    """
    packed = [p for p in payloads if isinstance(p, PackedBin)]
    if packed and len(packed) == len(payloads):
        keep = context.packed_dedup_keep(packed) if dedup else None
        if verify and not stats.verified:
            context.verify_packed(packed, expected_cells, keep=keep)
            stats.verified = True
    else:
        packed = None
        rows = []
        for payload in payloads:
            rows.extend(
                payload.unpack() if isinstance(payload, PackedBin) else payload
            )
        if dedup:
            unique: dict[bytes, object] = {}
            for row in rows:
                unique.setdefault(row[-1], row)
            rows = list(unique.values())
        if verify and not stats.verified:
            context.verify_rows(rows, expected_cells)
            stats.verified = True

    group, filters = build_filters()
    with telemetry.span(
        "enclave.aggregate",
        stage="aggregate",
        epoch=context.epoch_id,
        filters=len(filters),
    ):
        if packed is not None:
            mask = context.match_packed(packed, filters, group, stats, keep=keep)
            matched_count = int(mask.sum())
        else:
            match = context.match_rows_oblivious if oblivious else context.match_rows
            matched = match(rows, filters, group, stats)
            matched_count = len(matched)

        if query.aggregate is Aggregate.COUNT:
            return matched_count, stats
        if not needs_decryption(query.aggregate):
            raise QueryError(f"unhandled match-only aggregate {query.aggregate}")
        if packed is not None:
            records = context.decrypt_packed_records(packed, mask, stats)
        else:
            records = context.decrypt_records(matched, stats)
        answer = evaluate_aggregate(
            query.aggregate, records, context.schema, query.target, query.k
        )
        return answer, stats


class BPBExecutor:
    """Executes point queries against one loaded epoch."""

    def __init__(
        self,
        fetcher,
        oblivious: bool = False,
        verify: bool = False,
        super_bin_count: int | None = None,
        quarantine=None,
    ):
        # The shared whole-bin fetch path (repro.batching): STEP 3 runs
        # through its overlay → cache → storage chain.
        self.fetcher = fetcher
        self.oblivious = oblivious
        self.verify = verify
        # §8: when set, a query fetches its bin's whole super-bin so
        # that retrieval frequencies stay uniform under uniform query
        # workloads (at f-fold fetch cost).
        self.super_bin_count = super_bin_count
        # Optional QuarantineLog: cells with standing integrity
        # violations fail fast instead of serving suspect answers.
        self.quarantine = quarantine

    def bins_for(
        self, query: PointQuery, context: EpochContext, cell_id: int | None = None
    ) -> list:
        """STEP 2 as a pure function: the bins this query will fetch.

        Shared with the batch planner so a plan can never disagree with
        what execution retrieves.
        """
        if cell_id is None:
            cell_id = context.grid.place_values(
                query.index_values, query.timestamp
            )
        chosen = context.layout.bin_of_cell_id(cell_id)
        if self.super_bin_count is None:
            return [chosen]
        layout = context.super_layout(self.super_bin_count)
        return [
            context.layout.bins[index]
            for index in layout.bins_to_fetch(chosen.index)
        ]

    def execute(
        self, query: PointQuery, context: EpochContext, deadline=None, overlay=None
    ) -> tuple[object, QueryStats]:
        """Run Algorithm 2; returns ``(answer, stats)``.

        ``deadline`` (a :class:`~repro.replication.deadline.Deadline`)
        bounds the whole execution; it is checked at every fetch and at
        every replica failover decision below.  ``overlay`` (a
        :class:`~repro.batching.fetcher.BatchOverlay`) serves bins the
        owning batch already fetched and verified.
        """
        stats = QueryStats(oblivious=self.oblivious)
        predicate = resolve_predicate(query, context.schema)

        with telemetry.span(
            "enclave.point_query", epoch=context.epoch_id
        ) as query_span:
            # STEP 1: cell identification.
            cell_id = context.grid.place_values(
                query.index_values, query.timestamp
            )
            if self.quarantine is not None:
                self.quarantine.check(context.epoch_id, cell_id)

            # STEP 2: bin identification (plus §8 super-bin expansion).
            bins = self.bins_for(query, context, cell_id=cell_id)
            stats.bins_fetched = len(bins)
            query_span.set(bins=len(bins))

            # STEP 3: trapdoor formulation and retrieval, one whole bin
            # at a time (packed when a columnar sidecar serves it).
            payloads = [
                self.fetcher.fetch_bin(
                    context, fetch_bin, stats, deadline=deadline, overlay=overlay
                )
                for fetch_bin in bins
            ]
            # STEP 4: verification, filtering, aggregation.
            return finish_query(
                query,
                context,
                payloads,
                stats,
                [cid for b in bins for cid in b.cell_ids],
                lambda: (
                    predicate.group,
                    context.filters_for(predicate, [query.timestamp]),
                ),
                verify=self.verify,
                oblivious=self.oblivious,
            )
