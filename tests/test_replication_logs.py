"""Replication-strategy behaviour observed through the input logs."""

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark


def run_replicated(mode, replicas, seed=15, partitions=2):
    workload = Microbenchmark(mp_fraction=0.2, hot_set_size=10, cold_set_size=100)
    config = ClusterConfig(
        num_partitions=partitions,
        num_replicas=replicas,
        replication_mode=mode,
        seed=seed,
    )
    cluster = CalvinCluster(config, workload=workload)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=5, max_txns=15))
    cluster.run(duration=0.2)
    cluster.quiesce()
    return cluster


class TestAsyncReplication:
    def test_peer_logs_match_origin(self):
        cluster = run_replicated("async", 2)
        for partition in range(2):
            origin_log = list(cluster.node(0, partition).input_log)
            peer_log = list(cluster.node(1, partition).input_log)
            # The peer may be a few epochs behind; what it has must be a
            # prefix-equal copy of the origin's log.
            assert peer_log == origin_log[: len(peer_log)]
            # The WAN adds ~50ms = ~5 epochs of shipping lag.
            assert len(peer_log) >= len(origin_log) - 10

    def test_peer_sequencers_never_tick(self):
        cluster = run_replicated("async", 2)
        assert cluster.node(1, 0).sequencer.txns_sequenced == 0

    def test_all_txns_in_origin_log(self):
        cluster = run_replicated("async", 2)
        logged = sum(
            entry_count
            for entry_count in (
                cluster.node(0, p).input_log.total_transactions() for p in range(2)
            )
        )
        # Every client transaction (committed, aborted or restarted)
        # passed through the sequencers exactly once per attempt.
        total_results = (
            cluster.metrics.committed
            + cluster.metrics.aborted
            + cluster.metrics.restarts
        )
        assert logged == total_results


class TestPaxosReplication:
    def test_all_replicas_identical_logs(self):
        cluster = run_replicated("paxos", 3)
        for partition in range(2):
            logs = [
                list(cluster.node(replica, partition).input_log)
                for replica in range(3)
            ]
            shortest = min(len(log) for log in logs)
            assert shortest > 0
            assert logs[0][:shortest] == logs[1][:shortest] == logs[2][:shortest]

    def test_origin_waits_for_agreement(self):
        # In paxos mode even replica 0 dispatches only decided batches:
        # its first dispatch cannot precede one WAN round trip.
        workload = Microbenchmark(hot_set_size=10, cold_set_size=100)
        config = ClusterConfig(
            num_partitions=1, num_replicas=3, replication_mode="paxos",
            seed=1, wan_latency=0.04,
        )
        cluster = CalvinCluster(config, workload=workload)
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=2, max_txns=3))
        cluster.start()
        for client in cluster.clients:
            client.start()
        # After half a WAN round trip nothing can have been dispatched.
        cluster.sim.run(until=0.03)
        assert cluster.node(0, 0).sequencer.batches_dispatched == 0
        cluster.quiesce()
        assert cluster.node(0, 0).sequencer.batches_dispatched > 0

    def test_no_replication_mode_has_no_peers(self):
        cluster = run_replicated("none", 1)
        assert cluster.node(0, 0).sequencer.peer_replica_nodes() == []


class TestInputLogDurability:
    def test_forced_input_log_adds_latency_not_throughput_loss(self):
        def run(force):
            workload = Microbenchmark(mp_fraction=0.0, hot_set_size=10,
                                      cold_set_size=100)
            config = ClusterConfig(num_partitions=1, seed=21,
                                   force_input_log=force)
            cluster = CalvinCluster(config, workload=workload,
                                    record_history=False)
            cluster.load_workload_data()
            cluster.add_clients(ClientProfile(per_partition=50))
            return cluster.run(duration=0.3, warmup=0.2)

        plain = run(False)
        durable = run(True)
        # One group-committed force (~1ms) of extra latency...
        assert durable.latency_p50 > plain.latency_p50 + 0.0005
        assert durable.latency_p50 < plain.latency_p50 + 0.005
        # ...and essentially no throughput cost (clients unsaturated).
        assert durable.throughput > 0.85 * plain.throughput

    def test_forced_log_keeps_epoch_order(self):
        workload = Microbenchmark(mp_fraction=0.3, hot_set_size=10,
                                  cold_set_size=100)
        config = ClusterConfig(num_partitions=2, seed=22, force_input_log=True)
        cluster = CalvinCluster(config, workload=workload)
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=5, max_txns=15))
        cluster.run(duration=0.2)
        cluster.quiesce()
        from repro import check_serializability
        check_serializability(cluster)
        epochs = [entry.epoch for entry in cluster.node(0, 0).input_log]
        assert epochs == sorted(epochs)

    def test_force_ignored_with_replication(self):
        workload = Microbenchmark(hot_set_size=10, cold_set_size=100)
        config = ClusterConfig(num_partitions=1, num_replicas=2,
                               replication_mode="async",
                               force_input_log=True, seed=23)
        cluster = CalvinCluster(config, workload=workload)
        assert cluster.node(0, 0).sequencer._force_log is None
