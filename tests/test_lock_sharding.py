"""Correctness of the sharded lock manager (extension feature).

Sharding must preserve exactly the guarantees of the single-thread
design: per-key grant order equals the global sequence order, so every
conflict pair executes in sequence order and runs stay serializable and
deterministic.
"""

import pytest

from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterConfig,
    ConfigError,
    Microbenchmark,
    check_serializability,
)
from tests.conftest import run_bounded_cluster


class TestShardedCorrectness:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_serializable_under_contention(self, shards):
        workload = Microbenchmark(mp_fraction=0.3, hot_set_size=5, cold_set_size=60)
        config = ClusterConfig(num_partitions=2, seed=8, lock_manager_shards=shards)
        cluster = run_bounded_cluster(workload, config)
        assert check_serializability(cluster) > 0

    def test_sharded_equals_single_shard_state(self):
        """Same seed/workload: 1-shard and 4-shard clusters must commit
        the same transactions to the same final state (determinism does
        not depend on the shard count)."""
        def run(shards):
            workload = Microbenchmark(
                mp_fraction=0.2, hot_set_size=10, cold_set_size=100
            )
            config = ClusterConfig(
                num_partitions=2, seed=12, lock_manager_shards=shards
            )
            return run_bounded_cluster(workload, config).final_state()

        assert run(1) == run(4)

    def test_sharded_replay_reproduces(self):
        workload = Microbenchmark(mp_fraction=0.3, hot_set_size=8, cold_set_size=80)
        config = ClusterConfig(num_partitions=2, seed=4, lock_manager_shards=3)
        cluster = run_bounded_cluster(workload, config)
        replayed = CalvinCluster.replay(
            cluster.config, cluster.registry, cluster.catalog.partitioner,
            cluster.initial_data, cluster.merged_log(),
        )
        assert replayed.final_state() == cluster.final_state()

    def test_checkpoint_with_shards(self):
        workload = Microbenchmark(mp_fraction=0.2, hot_set_size=10, cold_set_size=100)
        config = ClusterConfig(num_partitions=2, seed=9, lock_manager_shards=4)
        cluster = CalvinCluster(config, workload=workload, record_history=False)
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=6, max_txns=30))
        done = cluster.schedule_checkpoint(at_time=0.1, mode="zigzag")
        cluster.run(duration=0.5)
        cluster.quiesce()
        assert done.triggered

    def test_shard_count_validated(self):
        with pytest.raises(ConfigError):
            ClusterConfig(lock_manager_shards=0).validate()

    def test_backlog_property(self):
        workload = Microbenchmark()
        config = ClusterConfig(num_partitions=1, lock_manager_shards=2)
        cluster = CalvinCluster(config, workload=workload)
        assert cluster.node(0, 0).scheduler.admission_backlog == 0
