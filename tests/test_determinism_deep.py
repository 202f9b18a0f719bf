"""Deep determinism: identical runs are identical at the event level."""

from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterConfig,
    FaultPlan,
    Microbenchmark,
    TpccWorkload,
)


def build_and_run(seed=33, workload_factory=None):
    factory = workload_factory or (
        lambda: Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100)
    )
    cluster = CalvinCluster(
        ClusterConfig(num_partitions=2, seed=seed), workload=factory()
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=6, max_txns=15))
    cluster.run(duration=0.2)
    cluster.quiesce()
    return cluster


class TestEventLevelDeterminism:
    def test_event_counts_identical(self):
        a, b = build_and_run(), build_and_run()
        assert a.sim.events_executed == b.sim.events_executed
        assert a.sim.now == b.sim.now

    def test_network_traffic_identical(self):
        a, b = build_and_run(), build_and_run()
        assert a.network.messages_sent == b.network.messages_sent
        assert a.network.bytes_sent == b.network.bytes_sent

    def test_metrics_identical(self):
        a, b = build_and_run(), build_and_run()
        assert a.metrics.committed == b.metrics.committed
        assert a.metrics.latency.mean == b.metrics.latency.mean
        assert a.metrics.throughput.total == b.metrics.throughput.total

    def test_input_logs_identical(self):
        a, b = build_and_run(), build_and_run()
        assert a.merged_log() == b.merged_log()

    def test_tpcc_runs_identical(self):
        def factory():
            return TpccWorkload()

        a = build_and_run(seed=44, workload_factory=factory)
        b = build_and_run(seed=44, workload_factory=factory)
        assert a.final_state() == b.final_state()
        assert a.metrics.restarts == b.metrics.restarts

    def test_node_stats_identical(self):
        a, b = build_and_run(), build_and_run()
        assert a.node_stats() == b.node_stats()


def build_and_run_replicated(seed=55, fault_plan=None):
    cluster = CalvinCluster(
        ClusterConfig(
            num_partitions=2, num_replicas=2, replication_mode="paxos", seed=seed
        ),
        workload=Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100),
        fault_plan=fault_plan,
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=12))
    cluster.run(duration=0.6)
    cluster.quiesce()
    return cluster


def healed_plan():
    """Crash replica 1 then restart it, plus a buffered cut — every
    fault heals, so after quiesce the cluster has fully recovered."""
    plan = FaultPlan(name="healed")
    plan.crash(at=0.12, replica=1, until=0.28, resync=True)
    plan.partition_sites(at=0.34, group_a=[0], group_b=[1], until=0.44, mode="buffer")
    return plan


class TestFaultedRunEquivalence:
    """A faulted-then-healed run converges to a fault-free-equivalent state."""

    def test_faulted_replicas_converge(self):
        faulted = build_and_run_replicated(fault_plan=healed_plan())
        fingerprints = faulted.replica_fingerprints()
        assert fingerprints[0] == fingerprints[1]

    def test_faulted_run_is_reproducible(self):
        a = build_and_run_replicated(fault_plan=healed_plan())
        b = build_and_run_replicated(fault_plan=healed_plan())
        assert a.replica_fingerprints() == b.replica_fingerprints()
        assert a.merged_log() == b.merged_log()
        assert a.fault_injector.trace == b.fault_injector.trace

    def test_faulted_state_matches_log_replay(self):
        """The committed state of a faulted run equals a deterministic
        replay of its own input log on a pristine cluster — faults may
        reshape the log (timing), never the state it determines."""
        faulted = build_and_run_replicated(fault_plan=healed_plan())
        replayed = CalvinCluster.replay(
            faulted.config,
            faulted.registry,
            faulted.catalog.partitioner,
            faulted.initial_data,
            faulted.merged_log(),
        )
        assert replayed.final_state() == faulted.final_state()

    def test_fault_free_run_unaffected_by_injector_availability(self):
        """Wiring the fault subsystem in must not perturb a fault-free
        run: an empty plan produces the same history as no plan."""
        clean = build_and_run_replicated()
        empty = build_and_run_replicated(fault_plan=FaultPlan(name="empty"))
        assert clean.replica_fingerprints() == empty.replica_fingerprints()
        assert clean.merged_log() == empty.merged_log()
