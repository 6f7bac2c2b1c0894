"""Unit tests for the replicated read/write paths.

Failover, verify-then-failover quarantine, circuit breakers, deadline
budgets, hedged ordering, degraded-mode flagging, write-divergence
handling, and admission control — all on raw engines with small
adversarial wrappers, no full query stack.  The read-path contract is
pinned for all three replicated reads: rows, packed bins, tree nodes.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.core.packed import PackedBin
from repro.exceptions import (
    DeadlineExceeded,
    IntegrityViolation,
    NoHealthyReplica,
    ReplicaTimeout,
    ServiceOverloaded,
    TransientError,
    TransientStorageError,
)
from repro.faults.clock import VirtualClock
from repro.replication import (
    AdmissionController,
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    ReplicatedStorageEngine,
    ReplicationPolicy,
)
from repro.storage.engine import StorageEngine
from repro.storage.table import Row

TABLE = "t"
POISON = b"TAMPERED!"  # as wide as a payload, so a packed bin can carry it
# Tree-node coordinates the sidecar read asks for: (entity, level, index).
COORDS = [(0, 0, 1), (0, 1, 0)]


class NodeTable:
    """A stand-in aggregate-tree sidecar: one opaque blob per node."""

    def node_at(self, entity, level, index):
        return b"node-%d-%d-%d" % (entity, level, index)


class ReadInterceptor:
    """A replica whose three read responses pass through :meth:`answer`.

    Rows, packed bins and tree nodes are all intercepted, so every
    replicated read path sees the same adversary.
    """

    def __init__(self, inner=None):
        self.inner = inner or StorageEngine()

    def lookup_many(self, table, column, keys):
        return self.answer(self.inner.lookup_many, table, column, keys)

    def fetch_packed_bin(self, table, bin_index):
        return self.answer(self.inner.fetch_packed_bin, table, bin_index)

    def fetch_tree_nodes(self, table, coords):
        return self.answer(self.inner.fetch_tree_nodes, table, coords)

    def answer(self, read, *args):
        return read(*args)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class FlakyReplica(ReadInterceptor):
    """Reads fail transiently while ``fail_reads`` is positive."""

    def __init__(self, inner=None):
        super().__init__(inner)
        self.fail_reads = 0

    def answer(self, read, *args):
        if self.fail_reads:
            self.fail_reads -= 1
            raise TransientStorageError("injected transient read fault")
        return read(*args)


class LyingReplica(ReadInterceptor):
    """Serves answers carrying the POISON payload."""

    def answer(self, read, *args):
        answer = read(*args)
        if isinstance(answer, PackedBin):
            return answer.with_corrupted_cell(0, 0, lambda cell: POISON)
        return [
            Row(row_id=r.row_id, columns=(POISON,) + tuple(r.columns[1:]))
            if isinstance(r, Row)
            else POISON
            for r in answer
        ]


class SlowReplica(ReadInterceptor):
    """Stalls the injectable clock before answering."""

    def __init__(self, clock, stall=5.0, inner=None):
        super().__init__(inner)
        self.clock = clock
        self.stall = stall

    def answer(self, read, *args):
        self.clock.sleep(self.stall)
        return read(*args)


class DivergentWriteReplica:
    """Inserts fail while ``fail_writes`` is positive (reads are fine)."""

    def __init__(self, inner=None):
        self.inner = inner or StorageEngine()
        self.fail_writes = 0

    def insert(self, table, columns):
        if self.fail_writes:
            self.fail_writes -= 1
            raise TransientStorageError("injected write fault")
        return self.inner.insert(table, columns)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def payloads(answer):
    """The payload bytes of a rows, packed-bin or tree-node answer."""
    if isinstance(answer, PackedBin):
        width = answer.column_widths[0]
        blob = answer.columns[0]
        return [
            blob[i * width : (i + 1) * width] for i in range(answer.row_count)
        ]
    return [item.columns[0] if isinstance(item, Row) else item for item in answer]


def reject_poison(answer):
    """Stand-in for the enclave's hash-chain / node-MAC check."""
    if POISON in payloads(answer):
        raise IntegrityViolation("poisoned payload", cell_id=7, table=TABLE)


def build(replicas, policy=None, clock=None, rows=4):
    """A replicated engine over ``replicas`` with one indexed table.

    The table also carries both sidecars: every row packed as bin 0,
    and a :class:`NodeTable` aggregate tree.
    """
    clock = clock or VirtualClock()
    engine = ReplicatedStorageEngine(list(replicas), clock=clock, policy=policy)
    engine.create_table(TABLE, ["payload", "k"])
    engine.create_index(TABLE, "k")
    for i in range(rows):
        engine.insert(TABLE, [b"payload-%d" % i, b"k%d" % i])
    packed = PackedBin.pack(0, engine.snapshot_rows(TABLE))
    engine.store_packed_bins(TABLE, [packed])
    engine.store_agg_tree(TABLE, NodeTable())
    return engine, clock


class TestWritePath:
    def test_writes_fan_out_to_every_replica(self):
        engine, _ = build([StorageEngine() for _ in range(3)])
        assert [r.row_count(TABLE) for r in engine.replicas] == [4, 4, 4]

    def test_write_divergence_quarantines_the_straggler(self):
        divergent = DivergentWriteReplica()
        engine, _ = build([StorageEngine(), divergent])
        divergent.fail_writes = 1
        engine.insert(TABLE, [b"payload-9", b"k9"])
        assert engine.replicas[0].row_count(TABLE) == 5
        assert divergent.row_count(TABLE) == 4
        assert engine.quarantine.blocks(1, TABLE)
        assert engine.tables_needing_repair() == [(1, TABLE)]

    def test_write_fails_loudly_when_no_replica_applies(self):
        first, second = DivergentWriteReplica(), DivergentWriteReplica()
        engine, _ = build([first, second])
        first.fail_writes = second.fail_writes = 1
        with pytest.raises(TransientStorageError):
            engine.insert(TABLE, [b"payload-9", b"k9"])
        # Nothing changed anywhere: safe to retry, nothing to repair.
        assert len(engine.quarantine) == 0


class TestReadFailover:
    def test_transient_fault_fails_over_transparently(self):
        flaky = FlakyReplica()
        engine, _ = build([flaky, StorageEngine()])
        flaky.fail_reads = 1
        rows = engine.lookup_many(TABLE, "k", [b"k1"])
        assert [r.columns[0] for r in rows] == [b"payload-1"]
        assert engine.last_read_failovers == 1
        assert engine.breakers[0].state == "closed"  # 1 failure < threshold

    def test_tampered_answer_is_quarantined_and_failed_over(self):
        engine, _ = build([LyingReplica(), StorageEngine()])
        rows = engine.lookup_many(
            TABLE, "k", [b"k2"], verifier=reject_poison, cells=[7]
        )
        assert rows[0].columns[0] == b"payload-2"
        assert engine.last_read_failovers == 1
        # Quarantine is scoped to the bad cell-id…
        assert engine.quarantine.blocks(0, TABLE, [7])
        assert not engine.quarantine.blocks(0, TABLE, [8])
        # …but conservatively blocks unhinted reads for the table.
        assert engine.quarantine.blocks(0, TABLE)
        assert engine.candidate_replicas(TABLE, [7]) == [1]

    def test_all_replicas_tampered_raises_integrity_violation(self):
        engine, _ = build([LyingReplica(), LyingReplica()])
        with pytest.raises(IntegrityViolation):
            engine.lookup_many(
                TABLE, "k", [b"k0"], verifier=reject_poison, cells=[7]
            )

    def test_slow_replica_converts_to_timeout_and_fails_over(self):
        clock = VirtualClock()
        engine, _ = build(
            [SlowReplica(clock), StorageEngine()],
            policy=ReplicationPolicy(attempt_timeout=2.0),
            clock=clock,
        )
        rows = engine.lookup_many(TABLE, "k", [b"k3"])
        assert rows[0].columns[0] == b"payload-3"
        assert engine.last_read_failovers == 1

    def test_lone_slow_replica_surfaces_the_timeout(self):
        clock = VirtualClock()
        engine, _ = build(
            [SlowReplica(clock)],
            policy=ReplicationPolicy(attempt_timeout=2.0),
            clock=clock,
        )
        with pytest.raises(NoHealthyReplica) as excinfo:
            engine.lookup_many(TABLE, "k", [b"k0"])
        assert isinstance(excinfo.value.__cause__, ReplicaTimeout)

    def test_exhausted_replicas_raise_a_retryable_error(self):
        flaky = FlakyReplica()
        engine, _ = build([flaky])
        flaky.fail_reads = 99
        with pytest.raises(NoHealthyReplica) as excinfo:
            engine.lookup_many(TABLE, "k", [b"k0"])
        # NoHealthyReplica is the one replication error the service's
        # retry policy targets: backoff lets breakers reach half-open.
        assert isinstance(excinfo.value, TransientStorageError)


READS = ("rows", "packed", "tree")
# What each read answers from a healthy replica.
HEALTHY = {
    "rows": [b"payload-1"],
    "packed": [b"payload-%d" % i for i in range(4)],
    "tree": [NodeTable().node_at(*coord) for coord in COORDS],
}
# How the replication.lookup span sizes each read's request.
SPAN_SIZE = {"rows": {"keys": 1}, "packed": {"bin": 0}, "tree": {"keys": len(COORDS)}}
# Failure class of replica 0 -> the quarantine it leaves behind, as
# (replica, table, cell-id): integrity faults quarantine the cell,
# storage errors the whole table, transient faults and timeouts nothing.
FAILOVERS = {
    "transient": [],
    "timeout": [],
    "integrity": [(0, TABLE, 7)],
    "storage-error": [(0, TABLE, None)],
}

each_read = pytest.mark.parametrize("kind", READS)
each_sidecar = pytest.mark.parametrize("kind", ("packed", "tree"))


def read(engine, kind, **kwargs):
    """One replicated read of ``kind``: rows, a packed bin, or tree nodes."""
    if kind == "rows":
        return engine.lookup_many(TABLE, "k", [b"k1"], **kwargs)
    if kind == "packed":
        return engine.fetch_packed_bin(TABLE, 0, **kwargs)
    return engine.fetch_tree_nodes(TABLE, COORDS, **kwargs)


class TestEveryReadPath:
    """Rows, packed bins and tree nodes share one verify-then-failover
    contract; each behaviour is pinned for all three reads."""

    @each_read
    @pytest.mark.parametrize("fault", sorted(FAILOVERS))
    def test_failover_reason_and_quarantine_scope(self, kind, fault):
        clock = VirtualClock()
        first = {
            "transient": FlakyReplica,
            "timeout": lambda: SlowReplica(clock),
            "integrity": LyingReplica,
            "storage-error": StorageEngine,
        }[fault]()
        engine, _ = build([first, StorageEngine()], clock=clock)
        if fault == "transient":
            first.fail_reads = 1
        if fault == "storage-error":
            first.drop_table(TABLE)  # a host that lost its disk
        with telemetry.scoped_registry() as registry:
            answer = read(engine, kind, verifier=reject_poison, cells=[7])
        assert payloads(answer) == HEALTHY[kind]
        assert engine.last_read_failovers == 1
        failovers = "concealer_replica_failovers_total"
        assert registry.value(failovers, reason=fault) == 1
        assert registry.total(failovers) == 1
        assert [
            (entry.replica_id, entry.table, entry.cell_id)
            for entry in engine.quarantine.entries
        ] == FAILOVERS[fault]

    @each_read
    def test_quarantined_replica_serves_a_verified_last_resort(self, kind):
        engine, _ = build([StorageEngine(), LyingReplica()])
        engine.quarantine.record(0, TABLE, None, "test")
        with telemetry.scoped_registry() as registry:
            answer = read(engine, kind, verifier=reject_poison)
        assert payloads(answer) == HEALTHY[kind]
        assert engine.last_read_failovers == 1
        assert registry.value("concealer_replica_last_resort_reads_total") == 1

    @each_read
    @pytest.mark.parametrize("fault", ["transient", "integrity"])
    def test_exhaustion_raises_for_rows_and_falls_back_for_sidecars(
        self, kind, fault
    ):
        if fault == "transient":
            replicas = [FlakyReplica(), FlakyReplica()]
            for replica in replicas:
                replica.fail_reads = 99
            error = NoHealthyReplica
        else:
            replicas = [LyingReplica(), LyingReplica()]
            error = IntegrityViolation
        engine, _ = build(replicas)
        if kind == "rows":
            with pytest.raises(error):
                read(engine, kind, verifier=reject_poison)
        else:
            # The caller falls back to the row path, which raises the
            # authoritative error.
            assert read(engine, kind, verifier=reject_poison) is None
        assert engine.last_read_failovers == 2

    @each_sidecar
    def test_missing_sidecar_answers_none_without_a_breaker_strike(self, kind):
        flaky = FlakyReplica()
        engine, _ = build(
            [flaky, StorageEngine()],
            policy=ReplicationPolicy(breaker=BreakerConfig(failure_threshold=1)),
        )
        # Rewriting a row in place discards replica 1's sidecars only.
        row = engine.replicas[1].snapshot_rows(TABLE)[0]
        engine.replicas[1].overwrite(TABLE, row.row_id, row.columns)
        flaky.fail_reads = 1
        assert read(engine, kind, verifier=reject_poison) is None
        assert engine.last_read_failovers == 1
        assert engine.breakers[0].state == "open"  # the fault struck
        assert engine.breakers[1].state == "closed"  # the None did not

    @each_read
    def test_expired_deadline_stops_before_any_attempt(self, kind):
        engine, clock = build([StorageEngine()])
        deadline = Deadline.after(clock, 1.0)
        clock.sleep(2.0)
        with pytest.raises(DeadlineExceeded):
            read(engine, kind, deadline=deadline)

    @each_read
    def test_lookup_span_attributes(self, kind):
        engine, clock = build([StorageEngine(), StorageEngine()])
        with telemetry.scoped_tracer(clock=clock) as tracer:
            read(engine, kind)
        (root,) = tracer.traces()
        assert root.name == "replication.lookup"
        assert root.attributes == {
            "table": TABLE,
            "candidates": 2,
            **SPAN_SIZE[kind],
        }


class TestCircuitBreakers:
    def test_breaker_opens_after_consecutive_failures_then_recovers(self):
        flaky = FlakyReplica()
        flaky.fail_reads = 99
        policy = ReplicationPolicy(
            breaker=BreakerConfig(failure_threshold=3, reset_timeout=30.0)
        )
        engine, clock = build([flaky], policy=policy)
        for _ in range(3):
            with pytest.raises(NoHealthyReplica):
                engine.lookup_many(TABLE, "k", [b"k0"])
        assert engine.breakers[0].state == "open"
        # Inside the cool-down no attempt reaches the replica at all.
        with pytest.raises(NoHealthyReplica):
            engine.lookup_many(TABLE, "k", [b"k0"])
        assert engine.last_read_failovers == 0
        # Past the cool-down one half-open probe is admitted; a healthy
        # answer closes the breaker again.
        clock.sleep(30.0)
        flaky.fail_reads = 0
        rows = engine.lookup_many(TABLE, "k", [b"k1"])
        assert rows
        assert engine.breakers[0].state == "closed"

    def test_half_open_admits_exactly_one_probe_and_reopens_on_failure(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(clock, failure_threshold=1, reset_timeout=5.0)
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.sleep(5.0)
        assert breaker.allow()
        assert breaker.state == "half-open"
        assert not breaker.allow()  # the probe is outstanding
        breaker.record_failure()
        assert breaker.state == "open"


class TestDeadlines:
    def test_expired_deadline_raises_before_any_attempt(self):
        engine, clock = build([StorageEngine()])
        deadline = Deadline.after(clock, 1.0)
        clock.sleep(2.0)
        with pytest.raises(DeadlineExceeded):
            engine.lookup_many(TABLE, "k", [b"k0"], deadline=deadline)

    def test_slow_failovers_burn_the_budget(self):
        clock = VirtualClock()
        engine, _ = build(
            [SlowReplica(clock), SlowReplica(clock)],
            policy=ReplicationPolicy(attempt_timeout=2.0),
            clock=clock,
        )
        # First attempt stalls 5s; the second attempt's gate finds the
        # 4s budget already spent.
        deadline = Deadline.after(clock, 4.0)
        with pytest.raises(DeadlineExceeded):
            engine.lookup_many(TABLE, "k", [b"k0"], deadline=deadline)

    def test_deadline_is_transient_but_not_a_storage_retry_target(self):
        assert issubclass(DeadlineExceeded, TransientError)
        assert not issubclass(DeadlineExceeded, TransientStorageError)


class TestHedging:
    def test_known_straggler_is_demoted_in_read_order(self):
        policy = ReplicationPolicy(hedge=True, hedge_threshold=0.5)
        engine, _ = build([StorageEngine() for _ in range(3)], policy=policy)
        engine._latency[0] = 2.0
        assert engine.candidate_replicas(TABLE) == [1, 2, 0]
        rows = engine.lookup_many(TABLE, "k", [b"k1"])
        assert rows[0].columns[0] == b"payload-1"
        assert engine.last_read_failovers == 0  # straggler never asked

    def test_latency_ewma_learns_from_timed_attempts(self):
        clock = VirtualClock()
        engine, _ = build(
            [SlowReplica(clock), StorageEngine()],
            policy=ReplicationPolicy(
                attempt_timeout=2.0, hedge=True, hedge_threshold=1.0
            ),
            clock=clock,
        )
        engine.lookup_many(TABLE, "k", [b"k0"])
        assert engine._latency[0] >= 5.0
        assert engine.candidate_replicas(TABLE) == [1, 0]


class TestDegradedMode:
    def test_reads_below_min_healthy_are_flagged_degraded(self):
        engine, _ = build([StorageEngine() for _ in range(3)])
        engine.quarantine.record(0, TABLE, None, "test")
        engine.lookup_many(TABLE, "k", [b"k0"])
        assert engine.degraded  # 2 healthy < default min_healthy = 3

    def test_min_healthy_policy_relaxes_the_flag(self):
        engine, _ = build(
            [StorageEngine() for _ in range(3)],
            policy=ReplicationPolicy(min_healthy=2),
        )
        engine.quarantine.record(0, TABLE, None, "test")
        engine.lookup_many(TABLE, "k", [b"k0"])
        assert not engine.degraded

    def test_maintenance_reads_avoid_a_quarantined_primary(self):
        engine, _ = build([StorageEngine(), StorageEngine()])
        engine.quarantine.record(0, TABLE, None, "test")
        assert engine._primary(TABLE) is engine.replicas[1]

    def test_healthy_count_reflects_breakers_and_quarantine(self):
        engine, _ = build([StorageEngine() for _ in range(3)])
        assert engine.healthy_replica_count() == 3
        engine.quarantine.record(1, TABLE, None, "test")
        for _ in range(3):
            engine.breakers[2].record_failure()
        assert engine.healthy_replica_count() == 1


class TestAdmissionControl:
    def test_sheds_beyond_capacity_with_a_typed_error(self):
        controller = AdmissionController(max_inflight=1, max_queue=1)
        with controller.admit("point"):
            with controller.admit("point"):  # spills into the queue
                with pytest.raises(ServiceOverloaded):
                    with controller.admit("point"):
                        pass
        assert controller.shed == 1
        assert controller.inflight == 0
        assert controller.queued == 0

    def test_shed_requests_are_retryable_but_touch_no_storage(self):
        assert issubclass(ServiceOverloaded, TransientError)
        assert not issubclass(ServiceOverloaded, TransientStorageError)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)


class TestPolicyValidation:
    def test_rejects_bad_tunables(self):
        with pytest.raises(ValueError):
            ReplicationPolicy(min_healthy=0)
        with pytest.raises(ValueError):
            ReplicationPolicy(attempt_timeout=0.0)
        with pytest.raises(ValueError):
            ReplicationPolicy(hedge_threshold=0.0)
        with pytest.raises(ValueError):
            ReplicatedStorageEngine([])
