"""Tests for §6 dynamic insertion and cross-round query execution."""

import random

import pytest

from repro import (
    DataProvider,
    DynamicConcealer,
    GridSpec,
    ServiceProvider,
    WIFI_SCHEMA,
)
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.core.schema import DatasetSchema
from repro.exceptions import QueryError

KEY = b"\x21" * 32
ROUND = 600


@pytest.fixture
def dynamic_setup():
    rng = random.Random(17)
    spec = GridSpec(dimension_sizes=(6, 8), cell_id_count=24, epoch_duration=ROUND)
    provider = DataProvider(
        WIFI_SCHEMA, spec, first_epoch_id=0, master_key=KEY,
        time_granularity=60, rng=rng,
    )
    service = ServiceProvider(WIFI_SCHEMA)
    provider.provision_enclave(service.enclave)
    dynamic = DynamicConcealer(service, rng=random.Random(18))

    locations = [f"ap{i}" for i in range(6)]
    devices = [f"dev{i}" for i in range(10)]
    all_records = []
    for round_index in range(4):
        epoch_id = round_index * ROUND
        records = [
            (locations[rng.randrange(6)], t, device)
            for t in range(epoch_id, epoch_id + ROUND, 60)
            for device in devices
        ]
        all_records.extend(records)
        dynamic.ingest_round(provider.encrypt_epoch(records, epoch_id))
    return dynamic, all_records


def truth(records, location, t0, t1):
    return sum(1 for r in records if r[0] == location and t0 <= r[1] <= t1)


class TestCrossRoundQueries:
    def test_span_two_rounds(self, dynamic_setup):
        dynamic, records = dynamic_setup
        query = RangeQuery(index_values=("ap1",), time_start=300, time_end=900)
        answer, _ = dynamic.execute_range(query)
        assert answer == truth(records, "ap1", 300, 900)

    def test_span_all_rounds(self, dynamic_setup):
        dynamic, records = dynamic_setup
        query = RangeQuery(index_values=("ap2",), time_start=0, time_end=2399)
        answer, _ = dynamic.execute_range(query)
        assert answer == truth(records, "ap2", 0, 2399)

    def test_single_round_query(self, dynamic_setup):
        dynamic, records = dynamic_setup
        query = RangeQuery(index_values=("ap0",), time_start=600, time_end=1199)
        answer, _ = dynamic.execute_range(query)
        assert answer == truth(records, "ap0", 600, 1199)

    def test_no_round_covered_rejected(self, dynamic_setup):
        dynamic, _ = dynamic_setup
        query = RangeQuery(index_values=("ap1",), time_start=10_000, time_end=10_100)
        with pytest.raises(QueryError):
            dynamic.execute_range(query)

    def test_collect_across_rounds(self, dynamic_setup):
        dynamic, records = dynamic_setup
        query = RangeQuery(
            index_values=("ap3",),
            time_start=500,
            time_end=1500,
            aggregate=Aggregate.COLLECT,
        )
        answer, _ = dynamic.execute_range(query)
        expected = sorted(r for r in records if r[0] == "ap3" and 500 <= r[1] <= 1500)
        assert sorted(answer) == expected


class TestRewrites:
    def test_queries_remain_correct_after_many_rewrites(self, dynamic_setup):
        dynamic, records = dynamic_setup
        query = RangeQuery(index_values=("ap1",), time_start=0, time_end=2399)
        expected = truth(records, "ap1", 0, 2399)
        for _ in range(4):
            answer, _ = dynamic.execute_range(query)
            assert answer == expected

    def test_generations_advance(self, dynamic_setup):
        dynamic, _ = dynamic_setup
        query = RangeQuery(index_values=("ap1",), time_start=0, time_end=599)
        dynamic.execute_range(query)
        generations = [
            dynamic.generation(0, b.index)
            for b in dynamic.service.context_for(0).layout.bins
        ]
        assert any(g > 0 for g in generations)

    def test_rewrite_changes_stored_ciphertexts(self, dynamic_setup):
        dynamic, _ = dynamic_setup
        engine = dynamic.service.engine
        before = {
            row.row_id: row.columns for row in engine._tables["epoch_0"].scan()
        }
        query = RangeQuery(index_values=("ap1",), time_start=0, time_end=599)
        dynamic.execute_range(query)
        after = {
            row.row_id: row.columns for row in engine._tables["epoch_0"].scan()
        }
        changed = sum(1 for rid in before if before[rid] != after[rid])
        assert changed > 0

    def test_forward_privacy_old_trapdoors_dead(self, dynamic_setup):
        """After a rewrite, generation-0 trapdoors match nothing."""
        dynamic, _ = dynamic_setup
        service = dynamic.service
        context = service.context_for(0)
        chosen = context.layout.bins[0]
        old_trapdoors = context.trapdoors_for_bin(chosen)
        # sanity: they match now
        rows = service.engine.lookup_many("epoch_0", "index_key", old_trapdoors)
        assert rows
        # force a rewrite of every bin in round 0
        query = RangeQuery(index_values=(tuple(f"ap{i}" for i in range(6)),),
                           time_start=0, time_end=599)
        dynamic.execute_range(query)
        if dynamic.generation(0, chosen.index) > 0:
            stale = service.engine.lookup_many("epoch_0", "index_key", old_trapdoors)
            assert stale == []


class TestDecoys:
    def test_rounds_without_matches_still_fetch_bins(self, dynamic_setup):
        """§6 step ii: a covered round with no matching bin still fetches
        log|Bin| decoys, hiding which rounds satisfy the query."""
        dynamic, _ = dynamic_setup
        import math

        query = RangeQuery(index_values=("ap1",), time_start=0, time_end=2399)
        _, stats = dynamic.execute_range(query)
        total_bins = len(dynamic.service.context_for(0).layout.bins)
        floor = math.ceil(math.log2(max(total_bins, 2)))
        # 4 rounds, each fetching at least the floor
        assert stats.bins_fetched >= 4 * min(floor, total_bins)


class TestUnresolvablePredicate:
    """A schema whose first filter group names a non-index attribute has
    no default predicate: every executor must refuse with QueryError,
    and the §6 executor must refuse before it rewrites any bin."""

    SCHEMA = DatasetSchema(
        name="observation-filtered",
        attributes=("location", "time", "observation"),
        time_attribute="time",
        index_attributes=("location",),
        filter_groups=(("observation",),),
    )

    def _dynamic(self):
        rng = random.Random(5)
        spec = GridSpec(dimension_sizes=(6, 8), cell_id_count=24, epoch_duration=ROUND)
        provider = DataProvider(
            self.SCHEMA, spec, first_epoch_id=0, master_key=KEY,
            time_granularity=60, rng=rng,
        )
        service = ServiceProvider(self.SCHEMA)
        provider.provision_enclave(service.enclave)
        dynamic = DynamicConcealer(service, rng=random.Random(6))
        for epoch_id in (0, ROUND):
            records = [
                (f"ap{rng.randrange(6)}", t, f"dev{d}")
                for t in range(epoch_id, epoch_id + ROUND, 60)
                for d in range(4)
            ]
            dynamic.ingest_round(provider.encrypt_epoch(records, epoch_id))
        return dynamic

    def _generations(self, dynamic):
        return {
            (epoch_id, chosen.index): dynamic.generation(epoch_id, chosen.index)
            for epoch_id in dynamic.rounds()
            for chosen in dynamic.service.context_for(epoch_id).layout.bins
        }

    def test_dynamic_range_raises_query_error_before_any_rewrite(self):
        dynamic = self._dynamic()
        before = self._generations(dynamic)
        query = RangeQuery(index_values=("ap1",), time_start=0, time_end=2 * ROUND - 1)
        with pytest.raises(QueryError, match="default predicate"):
            dynamic.execute_range(query)
        assert self._generations(dynamic) == before

    def test_service_executors_raise_query_error(self):
        service = self._dynamic().service
        with pytest.raises(QueryError, match="default predicate"):
            service.execute_point(PointQuery(index_values=("ap1",), timestamp=60))
        with pytest.raises(QueryError, match="default predicate"):
            service.execute_range(
                RangeQuery(index_values=("ap1",), time_start=0, time_end=ROUND - 1)
            )
