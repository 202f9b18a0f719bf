"""Tests for the System R*-style 2PL + 2PC baseline."""

import pytest

from repro import ClientProfile, ClusterConfig, Microbenchmark
from repro.baseline import BaselineCluster, GroupCommitLog, TwoPhaseLockTable
from repro.baseline.locks import DIED, GRANTED
from repro.errors import ConfigError
from repro.scheduler.lockmanager import LockMode
from repro.sim import Simulator
from tests.conftest import BankWorkload


class TestWaitDieLockTable:
    @pytest.fixture
    def table(self):
        return Simulator(), TwoPhaseLockTable(Simulator())

    def test_uncontended_grant(self):
        table = TwoPhaseLockTable(Simulator())
        event = table.acquire(1, "k", LockMode.WRITE)
        assert event.value == GRANTED
        assert table.held_by(1) == ["k"]

    def test_readers_share(self):
        table = TwoPhaseLockTable(Simulator())
        assert table.acquire(1, "k", LockMode.READ).value == GRANTED
        assert table.acquire(2, "k", LockMode.READ).value == GRANTED

    def test_older_waits_for_younger(self):
        table = TwoPhaseLockTable(Simulator())
        table.acquire(5, "k", LockMode.WRITE)
        event = table.acquire(3, "k", LockMode.WRITE)  # older (smaller ts)
        assert not event.triggered  # waiting
        table.release_all(5)
        assert event.value == GRANTED

    def test_younger_dies(self):
        table = TwoPhaseLockTable(Simulator())
        table.acquire(3, "k", LockMode.WRITE)
        event = table.acquire(5, "k", LockMode.WRITE)  # younger
        assert event.value == DIED
        assert table.deaths == 1

    def test_younger_reader_dies_on_writer(self):
        table = TwoPhaseLockTable(Simulator())
        table.acquire(1, "k", LockMode.WRITE)
        assert table.acquire(2, "k", LockMode.READ).value == DIED

    def test_reader_does_not_jump_queued_writer(self):
        table = TwoPhaseLockTable(Simulator())
        table.acquire(10, "k", LockMode.READ)
        writer = table.acquire(5, "k", LockMode.WRITE)  # older writer waits
        reader = table.acquire(3, "k", LockMode.READ)   # must queue behind
        assert not writer.triggered and not reader.triggered
        table.release_all(10)
        assert writer.value == GRANTED
        assert not reader.triggered
        table.release_all(5)
        assert reader.value == GRANTED

    def test_promote_reapplies_wait_die(self):
        table = TwoPhaseLockTable(Simulator())
        table.acquire(10, "k", LockMode.WRITE)
        older = table.acquire(2, "k", LockMode.WRITE)
        middle = table.acquire(5, "k", LockMode.WRITE)
        table.release_all(10)
        # ts=2 becomes holder; ts=5 is now younger than the holder -> dies.
        assert older.value == GRANTED
        assert middle.value == DIED

    def test_release_all_multiple_keys(self):
        table = TwoPhaseLockTable(Simulator())
        table.acquire(1, "a", LockMode.WRITE)
        table.acquire(1, "b", LockMode.READ)
        table.release_all(1)
        assert table.active_locks == 0

    def test_release_unknown_is_noop(self):
        table = TwoPhaseLockTable(Simulator())
        table.release_all(99)  # must not raise


class TestGroupCommitLog:
    def test_single_force_takes_latency(self):
        sim = Simulator()
        log = GroupCommitLog(sim, 0.001)
        event = log.force()
        sim.run()
        assert event.triggered
        assert sim.now == pytest.approx(0.001)

    def test_concurrent_forces_batch(self):
        sim = Simulator()
        log = GroupCommitLog(sim, 0.001)
        first = log.force()
        sim.schedule(0.0005, log.force)   # joins the next flush
        sim.run()
        assert first.triggered
        assert log.flushes == 2
        assert sim.now == pytest.approx(0.002)

    def test_batch_amortization(self):
        sim = Simulator()
        log = GroupCommitLog(sim, 0.001)
        log.force()
        for delay in (0.0001, 0.0002, 0.0003):
            sim.schedule(delay, log.force)
        sim.run()
        assert log.forces == 4
        assert log.flushes == 2
        assert log.average_batch_size == 2.0

    def test_zero_latency_immediate(self):
        log = GroupCommitLog(Simulator(), 0.0)
        assert log.force().triggered


class TestBaselineCluster:
    def run_bank(self, partitions=2, seed=5, max_txns=25):
        workload = BankWorkload(accounts_per_partition=30)
        cluster = BaselineCluster(
            ClusterConfig(num_partitions=partitions, seed=seed), workload=workload
        )
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=6, max_txns=max_txns))
        cluster.run(duration=0.3)
        cluster.quiesce()
        return cluster

    def test_money_conserved(self):
        cluster = self.run_bank()
        total = sum(cluster.final_state().values())
        assert total == 2 * 30 * 100

    def test_commits_happen(self):
        cluster = self.run_bank()
        assert cluster.metrics.committed > 0

    def test_micro_sum_invariant(self):
        workload = Microbenchmark(mp_fraction=0.4, hot_set_size=5, cold_set_size=60)
        cluster = BaselineCluster(ClusterConfig(num_partitions=3, seed=2), workload=workload)
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=5, max_txns=20))
        cluster.run(duration=0.3)
        cluster.quiesce()
        total = sum(cluster.final_state().values())
        assert total == 10 * cluster.metrics.committed

    def test_wait_die_restarts_counted(self):
        workload = Microbenchmark(mp_fraction=0.3, hot_set_size=1, cold_set_size=60)
        cluster = BaselineCluster(ClusterConfig(num_partitions=2, seed=4), workload=workload)
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=10, max_txns=10))
        cluster.run(duration=0.5)
        cluster.quiesce()
        assert cluster.metrics.restarts > 0  # contention causes deaths

    def test_rejects_multiple_replicas(self):
        config = ClusterConfig(num_partitions=2, num_replicas=2, replication_mode="async")
        with pytest.raises(ConfigError):
            BaselineCluster(config, workload=BankWorkload())

    def test_rejects_admission_policy(self):
        # The baseline has no sequencer front-end to admit or shed at;
        # accepting the flag would silently run unthrottled.
        config = ClusterConfig(
            num_partitions=2, admission_policy="shed", admission_epoch_budget=2
        )
        with pytest.raises(ConfigError, match="admission_policy.*baseline"):
            BaselineCluster(config, workload=BankWorkload())

    def test_rejects_footprint_auditing(self):
        config = ClusterConfig(num_partitions=2, audit_footprints=True)
        with pytest.raises(ConfigError, match="audit_footprints.*baseline"):
            BaselineCluster(config, workload=BankWorkload())

    def test_engine_seam_rejects_ignored_flags(self):
        from repro.engines import build_cluster

        config = ClusterConfig(
            num_partitions=2, engine="baseline", audit_footprints=True
        )
        with pytest.raises(ConfigError, match="audit_footprints"):
            build_cluster(config, workload=BankWorkload())

    def test_deterministic_abort_not_retried(self):
        # Transfers that exceed balances abort deterministically and are
        # reported ABORTED (not RESTART) -> no retry storm.
        workload = BankWorkload(accounts_per_partition=5, initial_balance=1)
        cluster = BaselineCluster(ClusterConfig(num_partitions=1, seed=6), workload=workload)
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=3, max_txns=10))
        cluster.run(duration=0.3)
        cluster.quiesce()
        assert cluster.metrics.aborted > 0
