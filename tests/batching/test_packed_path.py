"""The packed (columnar) hot path: parity, fallback, and caching.

Three contracts:

1. **Bit-identical answers** — packed and scalar stacks built from the
   same seeded records return byte-identical answers (and identical
   public stats) for points, multipoint ranges, match-only COUNTs and
   decrypting DISTINCT_COUNTs, verify on and off.
2. **Fallback is invisible** — any row mutation on the underlying
   table (including tampering that bypasses the engine wrappers)
   drops the derived packed sidecar, and the scalar fallback still
   answers correctly / still detects the tamper.
3. **The cache holds packed bins** — a warm hit serves the columnar
   form, charged at its actual byte size, with answers unchanged.
"""

from __future__ import annotations

import pytest

from repro import GridSpec
from repro.core.packed import PackedBin
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.exceptions import IntegrityViolation
from tests.conftest import make_stack

EPOCH_DURATION = 600
SPEC = GridSpec(
    dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=EPOCH_DURATION
)


def _records(seed: int):
    """Deterministic per-seed dataset (same shape, different content)."""
    return [
        (f"ap{(t // 60 + d * seed) % 4}", t, f"dev{seed}-{d}")
        for t in range(0, EPOCH_DURATION, 60)
        for d in range(8)
    ]


def _query_mix(records):
    location, timestamp, _ = records[0]
    other = records[len(records) // 2][0]
    return [
        PointQuery(index_values=(location,), timestamp=timestamp),
        PointQuery(
            index_values=(location,),
            timestamp=timestamp,
            aggregate=Aggregate.DISTINCT_COUNT,
            target="observation",
        ),
        RangeQuery(index_values=(other,), time_start=0, time_end=300),
        RangeQuery(
            index_values=(other,),
            time_start=60,
            time_end=240,
            aggregate=Aggregate.COLLECT,
        ),
    ]


def _answers(service, queries):
    out = []
    for query in queries:
        if isinstance(query, PointQuery):
            out.append(service.execute_point(query)[0])
        else:
            out.append(service.execute_range(query, method="multipoint")[0])
    return out


class TestPackedScalarParity:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    @pytest.mark.parametrize("verify", [False, True])
    def test_answers_identical_across_paths(self, seed, verify):
        records = _records(seed)
        queries = _query_mix(records)
        _, packed = make_stack(SPEC, records, verify=verify, packed_bins=True)
        _, scalar = make_stack(SPEC, records, verify=verify, packed_bins=False)
        assert _answers(packed, queries) == _answers(scalar, queries)

    def test_batch_answers_identical_across_paths(self):
        records = _records(3)
        queries = [
            PointQuery(index_values=(location,), timestamp=timestamp)
            for location, timestamp, _ in records[::7]
        ]
        _, packed = make_stack(SPEC, records, verify=True, packed_bins=True)
        _, scalar = make_stack(SPEC, records, verify=True, packed_bins=False)
        assert packed.execute_batch(queries) == scalar.execute_batch(queries)

    def test_packed_stack_actually_serves_packed_bins(self):
        _, service = make_stack(SPEC, _records(1), verify=True)
        table = next(iter(service.engine._tables.values()))
        assert table.packed_bins, "ingest must store the packed sidecar"

    def test_oblivious_mode_forces_scalar(self):
        # The oblivious schedule is a different security contract; the
        # packed fast path must never engage under it.
        _, service = make_stack(
            SPEC, _records(1), oblivious=True, packed_bins=True
        )
        assert not service._fetcher.packed


class TestFallback:
    def test_any_table_mutation_drops_the_sidecar(self):
        _, service = make_stack(SPEC, _records(1), verify=True)
        table = next(iter(service.engine._tables.values()))
        assert table.packed_bins is not None
        row = next(iter(table.scan()))
        table.overwrite(row.row_id, list(row.columns))
        assert table.packed_bins is None

    def test_tamper_behind_the_engine_is_still_detected(self):
        records = _records(1)
        _, service = make_stack(SPEC, records, verify=True)
        table = next(iter(service.engine._tables.values()))
        for row in list(table.scan()):
            columns = list(row.columns)
            columns[0] = b"\x00" * len(columns[0])
            table.overwrite(row.row_id, columns)
        with pytest.raises(IntegrityViolation):
            for location, timestamp, _ in records[::10]:
                service.execute_point(
                    PointQuery(index_values=(location,), timestamp=timestamp)
                )

    def test_scalar_fallback_after_invalidation_answers_correctly(self):
        records = _records(1)
        queries = _query_mix(records)
        _, service = make_stack(SPEC, records, verify=True)
        before = _answers(service, queries)
        # A benign no-op rewrite of one row: sidecar gone, answers not.
        table = next(iter(service.engine._tables.values()))
        row = next(iter(table.scan()))
        table.overwrite(row.row_id, list(row.columns))
        assert table.packed_bins is None
        assert _answers(service, queries) == before


class TestPackedCache:
    def test_warm_hits_serve_packed_entries(self):
        records = _records(1)
        _, service = make_stack(
            SPEC, records, verify=True, bin_cache_bins=16
        )
        query = PointQuery(
            index_values=(records[0][0],), timestamp=records[0][1]
        )
        cold = service.execute_point(query)[0]
        cache = service._fetcher.cache
        assert len(cache) > 0
        entry = next(iter(cache._entries.values()))
        assert isinstance(entry.rows, PackedBin)
        assert service.execute_point(query)[0] == cold

    def test_cache_charge_is_the_packed_byte_length(self):
        # Regression: the EPC charge for a packed entry must be its
        # actual byte size (column blobs + row ids), not the scalar
        # per-row estimate.
        records = _records(1)
        _, service = make_stack(
            SPEC, records, verify=True, bin_cache_bins=16
        )
        service.execute_point(
            PointQuery(index_values=(records[0][0],), timestamp=records[0][1])
        )
        cache = service._fetcher.cache
        charged = sum(
            entry.charged_bytes for entry in cache._entries.values()
        )
        packed_len = sum(
            entry.rows.nbytes for entry in cache._entries.values()
        )
        assert charged == packed_len > 0


def _serve_even_bins_packed(service) -> list[int]:
    """Make the engine's packed sidecar answer only even bin indices.

    Odd bins then fall back to the trapdoor row fetch, so one query's
    bins arrive partly packed and partly as rows.  Returns the list of
    bin indices the packed read was asked for.
    """
    engine = service.engine
    original = engine.fetch_packed_bin
    requested: list[int] = []

    def fetch_packed_bin(table, bin_index, **kwargs):
        requested.append(bin_index)
        if bin_index % 2:
            return None
        return original(table, bin_index, **kwargs)

    engine.fetch_packed_bin = fetch_packed_bin
    return requested


class TestMixedPayloads:
    """STEP 4 over a query whose bins arrive partly packed, partly rows."""

    def test_multipoint_range_over_mixed_bins(self):
        records = _records(5)
        locations = tuple(sorted({location for location, _, _ in records}))
        query = RangeQuery(
            index_values=(locations,),
            time_start=60,
            time_end=420,
            aggregate=Aggregate.COLLECT,
        )
        _, mixed = make_stack(SPEC, records, verify=True)
        _, scalar = make_stack(SPEC, records, verify=True, packed_bins=False)
        requested = _serve_even_bins_packed(mixed)

        answer, stats = mixed.execute_range(query, method="multipoint")

        assert stats.bins_fetched >= 2 and stats.verified
        assert {index % 2 for index in requested} == {0, 1}
        assert answer == scalar.execute_range(query, method="multipoint")[0]
        truth = [r for r in records if 60 <= r[1] <= 420]
        assert sorted(answer) == sorted(truth)

    def test_super_bin_point_over_mixed_bins(self):
        records = _records(5)
        location, timestamp, _ = records[0]
        query = PointQuery(index_values=(location,), timestamp=timestamp)
        _, mixed = make_stack(SPEC, records, verify=True, super_bin_count=2)
        _, scalar = make_stack(
            SPEC, records, verify=True, super_bin_count=2, packed_bins=False
        )
        requested = _serve_even_bins_packed(mixed)

        answer, stats = mixed.execute_point(query)

        assert stats.bins_fetched >= 2 and stats.verified
        assert {index % 2 for index in requested} == {0, 1}
        assert answer == scalar.execute_point(query)[0]
        assert answer == sum(
            1 for r in records if r[0] == location and r[1] == timestamp
        )
