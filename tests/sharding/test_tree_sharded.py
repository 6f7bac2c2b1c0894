"""Cross-shard differential tests for the aggregate-tree range method.

Each shard seals its own tree over its record partition; a scattered
tree query must merge to exactly the bin path's answer at every fleet
width.  A shard owning none of a combination's records answers through
its decoy entity (contribution zero), so the merge needs no special
casing — that is asserted here, not assumed.
"""

from __future__ import annotations

import random

import pytest

from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.exceptions import QueryError
from repro.workloads.queries import build_q1

from tests.sharding.conftest import EPOCH_DURATION, LOCATIONS, make_fleet, truth

TREE_AGGREGATES = [Aggregate.COUNT, Aggregate.SUM, Aggregate.MIN, Aggregate.MAX]


@pytest.mark.parametrize("shards", [1, 2, 4])
class TestShardedTreeDifferential:
    def test_tree_merges_identically_to_bin_path(self, tmp_path, shards):
        _, sharded, records = make_fleet(tmp_path, shards=shards)
        rng = random.Random(shards)
        for _ in range(10):
            t0 = rng.randrange(EPOCH_DURATION)
            t1 = rng.randrange(t0, EPOCH_DURATION)
            location = rng.choice(LOCATIONS + ("ap-absent",))
            for aggregate in TREE_AGGREGATES:
                query = RangeQuery(
                    index_values=(location,),
                    time_start=t0,
                    time_end=t1,
                    aggregate=aggregate,
                    target=None if aggregate is Aggregate.COUNT else "time",
                )
                a_tree, _ = sharded.execute_range(query, method="tree")
                a_bin, _ = sharded.execute_range(query, method="multipoint")
                assert a_tree == a_bin, (shards, aggregate, location, t0, t1)

    def test_count_matches_ground_truth(self, tmp_path, shards):
        _, sharded, records = make_fleet(tmp_path, shards=shards)
        for location in LOCATIONS:
            query = build_q1(location, 0, EPOCH_DURATION - 1)
            answer, _ = sharded.execute_range(query, method="tree")
            assert answer == truth(records, location, 0, EPOCH_DURATION - 1)


def tree_nodes_fetched(stats) -> int:
    return sum(
        shard.extra.get("tree_nodes_fetched", 0)
        for shard in stats.per_shard.values()
    )


@pytest.mark.parametrize("shards", [1, 2])
def test_one_element_wildcard_answers_like_the_bare_value(tmp_path, shards):
    """``[["ap1"]]`` (a one-candidate wildcard, as JSON sends it) is the
    same single combination as ``["ap1"]``: same answer, same nodes."""
    _, sharded, records = make_fleet(tmp_path, shards=shards)
    served = []
    for slot in ("ap1", ["ap1"]):
        query = RangeQuery(
            index_values=(slot,), time_start=0, time_end=EPOCH_DURATION - 1
        )
        answer, stats = sharded.execute_range(query, method="tree")
        served.append((answer, tree_nodes_fetched(stats)))
    assert served[0] == served[1]
    assert served[0][0] == truth(records, "ap1", 0, EPOCH_DURATION - 1)
    assert served[0][1] > 0  # the tree answered, not the bin fallback


@pytest.mark.parametrize(
    "oblivious, aggregate",
    [(False, Aggregate.COLLECT), (True, Aggregate.COUNT)],
    ids=["collect", "oblivious"],
)
def test_tree_shape_errors_open_no_shard_breaker(tmp_path, oblivious, aggregate):
    """A caller asking for the tree on a query it cannot serve gets a
    QueryError at planning; no shard is charged for it."""
    _, sharded, records = make_fleet(tmp_path, shards=2, oblivious=oblivious)
    location, timestamp, _ = records[0]
    point = PointQuery(index_values=(location,), timestamp=timestamp)
    expected, _ = sharded.execute_point(point)
    bad = RangeQuery(
        index_values=("ap1",),
        time_start=0,
        time_end=EPOCH_DURATION - 1,
        aggregate=aggregate,
    )
    for _ in range(2):  # breaker_threshold strikes would open a breaker
        with pytest.raises(QueryError):
            sharded.execute_range(bad, method="tree")
    answer, _ = sharded.execute_point(point)
    assert answer == expected
    assert [shard.breaker.state for shard in sharded.shards] == ["closed"] * 2
