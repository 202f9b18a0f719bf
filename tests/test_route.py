"""Routing: one Route per transaction, one local slice per participant.

The reference rules below restate, key by key, how participants, the
active set, the reply partition and each participant's lock requests
are derived; ``Catalog.route`` and scheduler admission must agree with
them on any footprint.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterAdmin,
    ClusterConfig,
    ConfigError,
    Microbenchmark,
)
from repro.errors import SchedulerError
from repro.net.messages import SubBatch
from repro.partition.catalog import MIGRATION_PROC
from repro.partition.partitioner import sort_token, stable_hash
from repro.txn.transaction import SequencedTxn, Transaction
from tests.conftest import BankWorkload

PARTITIONS = 4

_keys = st.sets(
    st.tuples(st.just("acct"), st.integers(0, PARTITIONS - 1), st.integers(0, 5)),
    max_size=6,
)
_footprints = st.tuples(_keys, _keys).filter(lambda rw: rw[0] or rw[1])


def _bank_cluster(shards=1, **overrides):
    config = ClusterConfig(
        num_partitions=PARTITIONS, lock_manager_shards=shards, seed=2012, **overrides
    )
    return CalvinCluster(config, workload=BankWorkload())


def _txn(reads, writes, txn_id=1, procedure="transfer", args=None):
    return Transaction.create(txn_id, procedure, args, reads, writes)


def _reference_route(reads, writes):
    participants = {key[1] for key in reads | writes}
    active = {key[1] for key in writes} or {min(participants)}
    return participants, active, min(active), {key[1] for key in reads}


def _reference_requests(reads, writes, partition, shards):
    """Per-shard ``(units, (write keys, read-only keys))`` for one
    participant: the raw local footprint split by shard, each half in
    sort-token order with a key both read and written locked once."""
    local_reads = [key for key in reads if key[1] == partition]
    local_writes = [key for key in writes if key[1] == partition]
    by_shard = {}
    for key in local_reads:
        by_shard.setdefault(stable_hash(key) % shards, ([], []))[0].append(key)
    for key in local_writes:
        by_shard.setdefault(stable_hash(key) % shards, ([], []))[1].append(key)
    return {
        index: (
            len(shard_reads) + len(shard_writes),
            (
                tuple(sorted(shard_writes, key=sort_token)),
                tuple(sorted(set(shard_reads) - set(shard_writes), key=sort_token)),
            ),
        )
        for index, (shard_reads, shard_writes) in by_shard.items()
    }


def _admit(cluster, stxn, partition, origin=0):
    """Deliver epochs up to ``stxn.seq[0]`` to one scheduler, ``stxn``
    in ``origin``'s last sub-batch; admission queues lock requests at
    once (the shard loops only start when the simulator runs)."""
    scheduler = cluster.node(0, partition).scheduler
    last = stxn.seq[0]
    for epoch in range(last + 1):
        for source in cluster.catalog.origins_at(epoch):
            txns = (stxn,) if (epoch, source) == (last, origin) else ()
            scheduler.receive_subbatch(SubBatch(epoch, source, txns))
    return scheduler


class TestRouteRules:
    @settings(max_examples=60, deadline=None)
    @given(_footprints)
    def test_route_matches_reference_rules(self, footprint):
        reads, writes = footprint
        catalog = _bank_cluster().catalog
        route = catalog.route(_txn(reads, writes), 0)
        assert (
            route.participants, route.active, route.reply, route.read_sources
        ) == _reference_route(reads, writes)

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_footprints, st.sampled_from([1, 3]))
    def test_slice_matches_reference_lock_requests(self, footprint, shards):
        reads, writes = footprint
        cluster = _bank_cluster(shards=shards)
        stxn = SequencedTxn((0, 0, 0), _txn(reads, writes))
        for partition in sorted(_reference_route(reads, writes)[0]):
            scheduler = _admit(cluster, stxn, partition)
            local = scheduler.slices[stxn.seq]
            assert local.reads == tuple(
                sorted((k for k in reads if k[1] == partition), key=sort_token)
            )
            assert set(local.writes) == {k for k in writes if k[1] == partition}
            queued = {
                index: (units, plan)
                for index, queue in enumerate(scheduler._shard_queues)
                for queued_stxn, units, plan in queue
                if queued_stxn is stxn
            }
            assert queued == _reference_requests(reads, writes, partition, shards)
            assert tuple(local.shards) == tuple(sorted(queued))

    def test_route_is_memoised_and_interned(self):
        catalog = _bank_cluster().catalog
        first = _txn({("acct", 0, 1)}, {("acct", 1, 1)}, txn_id=1)
        second = _txn({("acct", 0, 2)}, {("acct", 1, 2)}, txn_id=2)
        route = catalog.route(first, 0)
        assert catalog.route(first, 5) is route
        assert catalog.route(second, 0) is route
        assert first.participants(catalog) is route.participants
        assert catalog.reply_partition_at(first, 0) == first.reply_partition(catalog) == 1

    def test_empty_footprint_raises(self):
        catalog = _bank_cluster().catalog
        with pytest.raises(ConfigError, match="empty footprint"):
            catalog.route(_txn(set(), set()), 0)

    def test_non_participant_dispatch_raises(self):
        cluster = _bank_cluster()
        stxn = SequencedTxn((0, 0, 0), _txn({("acct", 1, 0)}, {("acct", 1, 0)}))
        with pytest.raises(SchedulerError, match="non-participant"):
            _admit(cluster, stxn, 0)


class TestRouteUnderReconfiguration:
    def _cluster(self):
        config = ClusterConfig(num_partitions=PARTITIONS, active_partitions=2, seed=2012)
        return CalvinCluster(config, workload=BankWorkload())

    def test_override_flips_route_at_its_epoch(self):
        cluster = self._cluster()
        catalog = cluster.catalog
        moved = ("acct", 0, 3)
        txn = _txn({moved, ("acct", 1, 0)}, {moved})
        before = catalog.route(txn, 4)
        assert (before.participants, before.active, before.read_sources) == (
            {0, 1}, {0}, {0, 1},
        )
        catalog.arm_override(5, {moved: 2})
        # Earlier epochs keep the old routing; the flip epoch moves the key.
        assert catalog.route(txn, 4) == before
        after = catalog.route(txn, 5)
        assert (after.participants, after.active, after.reply, after.read_sources) == (
            {1, 2}, {2}, 2, {1, 2},
        )
        assert catalog.participants_at(txn, 9) == {1, 2}
        assert catalog.active_participants_at(txn, 4) == {0}

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        footprint=_footprints,
        moves=st.dictionaries(
            st.tuples(st.just("acct"), st.integers(0, PARTITIONS - 1), st.integers(0, 5)),
            st.integers(0, PARTITIONS - 1),
            min_size=1,
            max_size=4,
        ),
    )
    def test_every_query_agrees_with_per_key_routing(self, footprint, moves):
        reads, writes = footprint
        catalog = self._cluster().catalog
        catalog.arm_override(3, moves)
        for epoch in (2, 3, 8):
            def home(key):
                return moves[key] if epoch >= 3 and key in moves else key[1]

            for key in reads | writes:
                assert catalog.partition_of_at(key, epoch) == home(key)
            assert catalog.partitions_of_at(reads, epoch) == {home(k) for k in reads}
            participants = {home(key) for key in reads | writes}
            active = {home(key) for key in writes} or {min(participants)}
            route = catalog.route(_txn(reads, writes), epoch)
            assert (route.participants, route.active, route.reply, route.read_sources) == (
                participants, active, min(active), {home(key) for key in reads},
            )
            ordered = sorted(reads | writes, key=sort_token)
            for partition in range(PARTITIONS):
                assert catalog.keys_on(ordered, partition, epoch) == tuple(
                    key for key in ordered if home(key) == partition
                )

    def test_migration_route_is_pinned_and_locks_full_range(self):
        cluster = self._cluster()
        catalog = cluster.catalog
        keys = frozenset({("acct", 0, 1), ("acct", 0, 2), ("acct", 0, 3)})
        catalog.arm_override(1, {key: 2 for key in keys})
        migration = Transaction.create(-1, MIGRATION_PROC, (7, 0, 2), keys, keys)
        for epoch in (0, 1, 4):
            route = catalog.route(migration, epoch)
            assert route.participants == route.active == {0, 2}
            assert route.reply == 0
        stxn = SequencedTxn((1, 0, 0), migration)
        expected = (len(keys), (tuple(sorted(keys, key=sort_token)), ()))
        for partition in (0, 2):
            scheduler = _admit(cluster, stxn, partition)
            queued = [
                (units, plan)
                for stxn_, units, plan in scheduler._shard_queues[0]
                if stxn_ is stxn
            ]
            assert queued == [expected]


def _assert_no_slices(cluster):
    leaked = {
        node_id: len(node.scheduler.slices)
        for node_id, node in cluster.nodes.items()
        if node.scheduler.slices
    }
    assert not leaked


class TestSlicesAreDropped:
    def _run(self, cluster, duration=0.3):
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=duration)
        cluster.quiesce()
        assert cluster.metrics.committed > 0
        return cluster

    def _workload(self):
        return Microbenchmark(mp_fraction=0.5, hot_set_size=10, cold_set_size=100)

    def test_core(self):
        config = ClusterConfig(num_partitions=2, lock_manager_shards=2, seed=3)
        _assert_no_slices(self._run(CalvinCluster(config, workload=self._workload())))

    def test_star(self):
        from repro.engines import build_cluster

        config = ClusterConfig(num_partitions=2, seed=3, engine="star")
        _assert_no_slices(self._run(build_cluster(config, workload=self._workload())))

    def test_live_split(self):
        config = ClusterConfig(num_partitions=4, active_partitions=2, seed=3)
        cluster = CalvinCluster(config, workload=self._workload())
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        ClusterAdmin(cluster).split(0, fraction=0.5)
        cluster.run(duration=0.4)
        cluster.quiesce()
        _assert_no_slices(cluster)

    def test_crash_restart_chaos(self):
        config = ClusterConfig(
            num_partitions=2,
            num_replicas=2,
            replication_mode="paxos",
            seed=7,
            fault_profile="chaos-mix",
            fault_horizon=0.4,
        )
        cluster = self._run(CalvinCluster(config, workload=self._workload()), 0.5)
        assert any(entry[1] == "crash" for entry in cluster.fault_injector.trace)
        _assert_no_slices(cluster)
