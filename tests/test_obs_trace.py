"""Integration tests: span coverage, trace determinism, zero overhead."""

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark
from repro.baseline.cluster import BaselineCluster
from repro.obs import CAT_DEVICE, CAT_NODE, CAT_TXN, SpanKind, TraceRecorder


def traced_calvin(seed=9, mp_fraction=0.3, replicas=1, fault_profile=None,
                  tracer="live", duration=0.3, **config_kwargs):
    recorder = TraceRecorder() if tracer == "live" else None
    config = ClusterConfig(
        num_partitions=2,
        num_replicas=replicas,
        replication_mode="paxos" if replicas > 1 else "none",
        seed=seed,
        fault_profile=fault_profile,
        fault_horizon=duration * 0.85,
        **config_kwargs,
    )
    workload = Microbenchmark(mp_fraction=mp_fraction, hot_set_size=10,
                              cold_set_size=100)
    cluster = CalvinCluster(config, workload=workload, tracer=recorder)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
    cluster.run(duration=duration)
    cluster.quiesce()
    return cluster, recorder


def traced_baseline(seed=9, mp_fraction=0.3):
    recorder = TraceRecorder()
    config = ClusterConfig(num_partitions=2, seed=seed)
    workload = Microbenchmark(mp_fraction=mp_fraction, hot_set_size=10,
                              cold_set_size=100)
    cluster = BaselineCluster(config, workload=workload, tracer=recorder)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
    cluster.run(duration=0.3)
    cluster.quiesce()
    return cluster, recorder


class TestSpanCoverage:
    def test_calvin_covers_the_pipeline(self):
        cluster, tracer = traced_calvin()
        kinds = {span.kind for span in tracer.spans}
        assert {
            SpanKind.SEQUENCE,
            SpanKind.REPLICATE,
            SpanKind.DISPATCH,
            SpanKind.LOCK_WAIT,
            SpanKind.REMOTE_READ_WAIT,
            SpanKind.EXECUTE,
            SpanKind.APPLY,
        } <= kinds
        assert all(span.end >= span.start for span in tracer.spans)
        # Per-txn spans carry attribution; every committed txn traced.
        lock_waits = tracer.spans_of(SpanKind.LOCK_WAIT)
        assert all(s.txn_id is not None and s.seq is not None for s in lock_waits)
        assert len({s.txn_id for s in lock_waits}) >= cluster.metrics.committed

    def test_baseline_covers_six_phase_types(self):
        cluster, tracer = traced_baseline()
        kinds = {span.kind for span in tracer.spans}
        assert {
            SpanKind.REPLICATE,         # 2PC prepare round
            SpanKind.LOCK_WAIT,
            SpanKind.REMOTE_READ_WAIT,  # coordinator awaiting exec replies
            SpanKind.EXECUTE,
            SpanKind.DISK,              # forced log writes
            SpanKind.APPLY,
        } <= kinds
        assert cluster.metrics.committed > 0

    def test_disk_spans_device_and_stall_attribution(self):
        workload = Microbenchmark(mp_fraction=0.0, hot_set_size=10,
                                  cold_set_size=100, archive_fraction=1.0,
                                  archive_set_size=500)
        tracer = TraceRecorder()
        cluster = CalvinCluster(
            ClusterConfig(num_partitions=1, seed=5, disk_enabled=True),
            workload=workload, tracer=tracer,
        )
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=0.3)
        cluster.quiesce()
        disk_spans = tracer.spans_of(SpanKind.DISK)
        device = [s for s in disk_spans if s.cat == CAT_DEVICE]
        deferrals = [s for s in disk_spans
                     if s.cat == CAT_TXN and s.detail == "prefetch-defer"]
        assert len(device) == cluster.node(0, 0).engine.disk.fetches
        assert deferrals and all(s.txn_id is not None for s in deferrals)

    def test_checkpoint_spans_record_mode(self):
        for mode in ("naive", "zigzag"):
            tracer = TraceRecorder()
            workload = Microbenchmark(mp_fraction=0.2, hot_set_size=20,
                                      cold_set_size=300)
            cluster = CalvinCluster(
                ClusterConfig(num_partitions=2, seed=17), workload=workload,
                record_history=False, tracer=tracer,
            )
            cluster.load_workload_data()
            cluster.add_clients(ClientProfile(per_partition=8, max_txns=30))
            done = cluster.schedule_checkpoint(at_time=0.12, mode=mode)
            cluster.run(duration=0.6)
            cluster.quiesce()
            assert done.triggered
            spans = tracer.spans_of(SpanKind.CHECKPOINT)
            assert {s.partition for s in spans} == {0, 1}
            assert all(s.cat == CAT_NODE and s.detail == mode for s in spans)
            assert all(s.duration > 0 for s in spans)


class TestTraceDeterminism:
    def test_same_seed_same_digest(self):
        _, a = traced_calvin(seed=21)
        _, b = traced_calvin(seed=21)
        assert len(a) == len(b) > 0
        assert a.digest() == b.digest()

    def test_different_seed_different_digest(self):
        _, a = traced_calvin(seed=21)
        _, b = traced_calvin(seed=22)
        assert a.digest() != b.digest()

    def test_same_seed_same_digest_under_faults(self):
        _, a = traced_calvin(seed=33, replicas=2, fault_profile="chaos-mix",
                             duration=0.5)
        _, b = traced_calvin(seed=33, replicas=2, fault_profile="chaos-mix",
                             duration=0.5)
        assert len(a) == len(b) > 0
        assert a.digest() == b.digest()

    def test_baseline_same_seed_same_digest(self):
        _, a = traced_baseline(seed=44)
        _, b = traced_baseline(seed=44)
        assert a.digest() == b.digest()


class TestZeroOverhead:
    def test_tracing_does_not_perturb_the_simulation(self):
        on_cluster, tracer = traced_calvin(seed=55)
        off_cluster, none = traced_calvin(seed=55, tracer=None)
        assert none is None
        assert len(tracer) > 0
        # Identical event counts: recording scheduled no sim events.
        assert on_cluster.sim.events_executed == off_cluster.sim.events_executed
        assert on_cluster.sim.now == off_cluster.sim.now
        assert on_cluster.metrics.committed == off_cluster.metrics.committed
        assert on_cluster.replica_fingerprints() == off_cluster.replica_fingerprints()

    def test_metrics_registry_snapshot_covers_components(self):
        cluster, _ = traced_calvin(seed=9)
        snap = cluster.metrics_registry.snapshot()
        assert snap["net.messages_sent"] == cluster.network.messages_sent
        assert snap["sim.events_executed"] == cluster.sim.events_executed
        assert snap["txn.committed"] == cluster.metrics.committed
        assert snap["node.r0p0.seq.txns_sequenced"] == \
            cluster.node(0, 0).sequencer.txns_sequenced
        assert snap["node.r0p0.sched.completed"] == \
            cluster.node(0, 0).scheduler.completed

    def test_paxos_metrics_registered_with_replication(self):
        cluster, _ = traced_calvin(seed=9, replicas=2)
        snap = cluster.metrics_registry.snapshot()
        assert snap["node.r0p0.paxos.decided"] > 0
        assert snap["node.r0p0.paxos.leading"] == 1.0

    def test_baseline_registry_covers_nodes(self):
        cluster, _ = traced_baseline(seed=9)
        snap = cluster.metrics_registry.snapshot()
        assert snap["node.p0.committed"] == cluster.node(0).committed
        assert snap["net.messages_sent"] == cluster.network.messages_sent
