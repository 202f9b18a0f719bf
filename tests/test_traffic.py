"""Tests for open-loop traffic: profiles, arrivals, admission control."""

import warnings

import pytest

from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterConfig,
    ConfigError,
    Microbenchmark,
    TxnStatus,
)
from repro.baseline.cluster import BaselineCluster
from repro.core import clients as clients_mod
from repro.core.traffic import AdmissionController
from repro.obs import TraceRecorder
from repro.partition.catalog import NodeId
from repro.txn.transaction import Transaction


class TestClientProfile:
    def test_defaults_valid(self):
        ClientProfile().validate()
        ClientProfile(mode="open", rate=50.0).validate()

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            ClientProfile(per_partition=-1).validate()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            ClientProfile(mode="ajar").validate()

    def test_negative_think_time_rejected(self):
        with pytest.raises(ConfigError):
            ClientProfile(think_time=-0.1).validate()

    def test_open_needs_positive_rate(self):
        with pytest.raises(ConfigError):
            ClientProfile(mode="open", rate=0).validate()

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ConfigError):
            ClientProfile(mode="open", arrival="fractal").validate()

    def test_burst_size_floor(self):
        with pytest.raises(ConfigError):
            ClientProfile(mode="open", arrival="burst", burst_size=0).validate()

    def test_burst_period_positive(self):
        with pytest.raises(ConfigError):
            ClientProfile(mode="open", arrival="burst", burst_period=0.0).validate()

    def test_closed_ignores_open_knobs(self):
        # A closed profile with nonsense open-loop knobs still validates:
        # they are simply unused.
        ClientProfile(mode="closed", rate=-5, arrival="fractal").validate()

    def test_effective_burst_period_preserves_rate(self):
        profile = ClientProfile(mode="open", arrival="burst", rate=100.0, burst_size=10)
        assert profile.effective_burst_period() == pytest.approx(0.1)
        explicit = ClientProfile(
            mode="open", arrival="burst", rate=100.0, burst_period=0.5
        )
        assert explicit.effective_burst_period() == 0.5


def _open_cluster(profile: ClientProfile, **config_kwargs) -> CalvinCluster:
    config = ClusterConfig(num_partitions=2, seed=7, **config_kwargs)
    cluster = CalvinCluster(
        config,
        workload=Microbenchmark(mp_fraction=0.1, hot_set_size=1000),
        record_history=False,
    )
    cluster.load_workload_data()
    cluster.add_clients(profile)
    return cluster


class TestArrivalProcesses:
    def test_uniform_gap_is_inverse_rate(self):
        cluster = _open_cluster(
            ClientProfile(per_partition=1, mode="open", arrival="uniform", rate=200.0)
        )
        client = cluster.clients[0]
        assert client._next_gap() == pytest.approx(1 / 200.0)

    def test_burst_gaps_are_zero_within_burst(self):
        cluster = _open_cluster(
            ClientProfile(
                per_partition=1, mode="open", arrival="burst",
                rate=100.0, burst_size=4,
            )
        )
        client = cluster.clients[0]
        gaps = [client._next_gap() for _ in range(8)]
        # Three zero-gaps inside each burst, then the long inter-burst gap.
        assert gaps[:3] == [0.0, 0.0, 0.0]
        assert gaps[3] == pytest.approx(4 / 100.0)
        assert gaps[4:7] == [0.0, 0.0, 0.0]

    def test_poisson_gaps_reproducible_across_builds(self):
        def gaps():
            cluster = _open_cluster(
                ClientProfile(per_partition=1, mode="open", rate=500.0)
            )
            return [cluster.clients[0]._next_gap() for _ in range(20)]

        assert gaps() == gaps()

    def test_open_clients_generate_offered_load(self):
        cluster = _open_cluster(
            ClientProfile(per_partition=2, mode="open", rate=300.0)
        )
        cluster.run(duration=0.3)
        arrivals = sum(c.arrivals for c in cluster.clients)
        # 4 clients x 300/s x 0.3s = 360 expected arrivals.
        assert 250 < arrivals < 480
        assert sum(c.completed for c in cluster.clients) > 0

    def test_max_txns_bounds_arrivals(self):
        cluster = _open_cluster(
            ClientProfile(per_partition=1, mode="open", rate=1000.0, max_txns=25)
        )
        cluster.run(duration=0.5)
        cluster.quiesce()
        for client in cluster.clients:
            assert client.arrivals == 25
            assert client.idle


class _StubSim:
    now = 0.0


class _StubSequencer:
    def __init__(self):
        self.accepted = []

    def accept(self, txn):
        self.accepted.append(txn)


def _txn(txn_id: int) -> Transaction:
    return Transaction.create(
        txn_id=txn_id,
        procedure="noop",
        args=None,
        read_set=frozenset({"k"}),
        write_set=frozenset({"k"}),
        origin_partition=0,
        client=("client", 0, 0),
        submit_time=0.0,
    )


def _controller(policy: str, budget: int = 2, capacity: int = 3):
    config = ClusterConfig(
        admission_policy=policy,
        admission_epoch_budget=budget,
        admission_queue_capacity=capacity,
    )
    sequencer = _StubSequencer()
    replies = []
    controller = AdmissionController(
        _StubSim(), NodeId(0, 0), config, sequencer,
        lambda dst, message, size: replies.append((dst, message)),
    )
    return controller, sequencer, replies


class TestAdmissionController:
    def test_admits_up_to_budget_then_queues(self):
        controller, sequencer, _ = _controller("shed", budget=2, capacity=3)
        for i in range(5):
            controller.offer(_txn(i))
        assert [t.txn_id for t in sequencer.accepted] == [0, 1]
        assert controller.queue_depth == 3
        assert controller.peak_queue_depth == 3

    def test_queue_policy_drops_silently(self):
        controller, _, replies = _controller("queue", budget=1, capacity=1)
        for i in range(4):
            controller.offer(_txn(i))
        assert controller.dropped == 2
        assert replies == []  # the client hears nothing

    def test_shed_policy_rejects_immediately(self):
        controller, _, replies = _controller("shed", budget=1, capacity=1)
        for i in range(3):
            controller.offer(_txn(i))
        assert controller.shed == 1
        ((_, reply),) = replies
        assert reply.result.status is TxnStatus.REJECTED
        assert reply.result.retry_after == 0.0

    def test_backpressure_hints_deterministic_retry_after(self):
        controller, _, replies = _controller("backpressure", budget=2, capacity=4)
        for i in range(8):
            controller.offer(_txn(i))
        assert controller.backpressured == 2
        epoch = controller.epoch_duration
        for _, reply in replies:
            assert reply.result.status is TxnStatus.REJECTED
            # 4 queued over a budget of 2: three epochs until drained.
            assert reply.result.retry_after == pytest.approx(epoch * 3)

    def test_epoch_tick_drains_fifo_within_budget(self):
        controller, sequencer, _ = _controller("shed", budget=2, capacity=5)
        for i in range(6):
            controller.offer(_txn(i))
        assert controller.queue_depth == 4
        controller.on_epoch_tick()
        assert [t.txn_id for t in sequencer.accepted] == [0, 1, 2, 3]
        assert controller.queue_depth == 2
        controller.on_epoch_tick()
        assert [t.txn_id for t in sequencer.accepted] == [0, 1, 2, 3, 4, 5]
        assert controller.queue_depth == 0

    def test_arrivals_behind_queue_do_not_jump_it(self):
        controller, sequencer, _ = _controller("shed", budget=2, capacity=5)
        for i in range(3):
            controller.offer(_txn(i))
        controller.on_epoch_tick()  # drains txn 2, consuming one budget slot
        controller.offer(_txn(3))   # queue empty: takes the last slot
        controller.offer(_txn(4))   # budget exhausted: queues
        assert [t.txn_id for t in sequencer.accepted] == [0, 1, 2, 3]
        assert controller.queue_depth == 1
        controller.offer(_txn(5))
        controller.on_epoch_tick()  # FIFO: 4 before 5
        assert [t.txn_id for t in sequencer.accepted] == [0, 1, 2, 3, 4, 5]


class TestAdmissionConfig:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(admission_policy="vibes").validate()

    def test_policy_requires_budget(self):
        with pytest.raises(ConfigError):
            ClusterConfig(admission_policy="shed").validate()

    def test_capacity_floor(self):
        with pytest.raises(ConfigError):
            ClusterConfig(
                admission_policy="shed",
                admission_epoch_budget=10,
                admission_queue_capacity=0,
            ).validate()

    def test_default_config_has_no_admission(self):
        cluster = _open_cluster(ClientProfile(per_partition=1, max_txns=1))
        for node in cluster.nodes.values():
            assert node.sequencer.admission is None


class TestOverload:
    def overloaded(self, policy: str, seed: int = 11) -> CalvinCluster:
        config = ClusterConfig(
            num_partitions=2,
            seed=seed,
            admission_policy=policy,
            admission_epoch_budget=10,
            admission_queue_capacity=20,
        )
        cluster = CalvinCluster(
            config,
            workload=Microbenchmark(mp_fraction=0.1, hot_set_size=1000),
            record_history=False,
            tracer=TraceRecorder(),
        )
        cluster.load_workload_data()
        # ~3x the 1,000 txn/s/node admission capacity.
        cluster.add_clients(
            ClientProfile(per_partition=4, mode="open", rate=750.0)
        )
        cluster.run(duration=0.4)
        return cluster

    @pytest.mark.parametrize("policy", ["queue", "shed", "backpressure"])
    def test_committed_throughput_plateaus_at_capacity(self, policy):
        cluster = self.overloaded(policy)
        stats = cluster.admission_stats()
        assert stats["offered"] > stats["admitted"]
        # Budget caps intake: 10/epoch x 2 nodes x ~40 epochs.
        epochs = 0.4 / cluster.config.epoch_duration
        assert stats["admitted"] <= 10 * 2 * (epochs + 2)
        assert stats["peak_queue_depth"] <= 20
        if policy == "queue":
            assert stats["dropped"] > 0 and stats["shed"] == 0
        elif policy == "shed":
            assert stats["shed"] > 0 and stats["dropped"] == 0
        else:
            assert stats["backpressured"] > 0 and stats["dropped"] == 0

    @pytest.mark.parametrize("policy", ["queue", "shed", "backpressure"])
    def test_overload_deterministic(self, policy):
        first = self.overloaded(policy)
        second = self.overloaded(policy)
        assert first.admission_stats() == second.admission_stats()
        assert first.metrics.committed == second.metrics.committed
        assert [c.arrivals for c in first.clients] == [
            c.arrivals for c in second.clients
        ]
        assert first.tracer.digest() == second.tracer.digest()

    def test_shed_rejections_reach_clients(self):
        cluster = self.overloaded("shed")
        assert sum(c.rejected for c in cluster.clients) > 0

    def test_backpressure_clients_retry(self):
        cluster = self.overloaded("backpressure")
        assert sum(c.retried for c in cluster.clients) > 0

    def test_per_client_latency_histograms(self):
        cluster = self.overloaded("shed")
        stats = cluster.clients[0].latency_stats()
        assert stats["count"] > 0
        assert 0 < stats["p50"] <= stats["p95"] <= stats["p99"]

    def test_overload_and_faults_compose(self):
        config = ClusterConfig(
            num_partitions=2,
            num_replicas=2,
            replication_mode="paxos",
            seed=5,
            fault_profile="chaos-mix",
            fault_horizon=0.3,
            admission_policy="backpressure",
            admission_epoch_budget=10,
            admission_queue_capacity=20,
        )
        cluster = CalvinCluster(
            config,
            workload=Microbenchmark(mp_fraction=0.2, hot_set_size=100),
        )
        cluster.load_workload_data()
        cluster.add_clients(
            ClientProfile(per_partition=2, mode="open", rate=600.0, max_txns=120)
        )
        cluster.run(duration=0.4)
        cluster.quiesce()
        from repro.core import checkers

        checkers.check_serializability(cluster)
        checkers.check_replica_consistency(cluster)
        assert cluster.metrics.committed > 0


class TestAddClientsShim:
    """``add_clients`` takes a :class:`ClientProfile` and nothing else."""

    def test_profile_form_does_not_warn(self, bank_workload):
        config = ClusterConfig(num_partitions=2, seed=3)
        cluster = CalvinCluster(config, workload=bank_workload, record_history=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            created = cluster.add_clients(ClientProfile(per_partition=2, max_txns=5))
        assert len(created) == 4
        assert all(isinstance(c, clients_mod.ClosedLoopClient) for c in created)

    def test_garbage_argument_rejected(self, bank_workload):
        config = ClusterConfig(num_partitions=2, seed=3)
        cluster = CalvinCluster(config, workload=bank_workload, record_history=False)
        baseline = BaselineCluster(config, workload=bank_workload)
        for target in (cluster, baseline):
            for garbage in ("lots", 4, None):
                with pytest.raises(ConfigError, match="needs a ClientProfile"):
                    target.add_clients(garbage)
            with pytest.raises(TypeError):
                target.add_clients(4, max_txns=5)
        assert cluster.clients == [] and baseline.clients == []

    def test_baseline_rejects_open_profiles(self, bank_workload):
        config = ClusterConfig(num_partitions=2, seed=3)
        cluster = BaselineCluster(config, workload=bank_workload)
        with pytest.raises(ConfigError):
            cluster.add_clients(ClientProfile(per_partition=1, mode="open"))

    def test_baseline_accepts_profile(self, bank_workload):
        config = ClusterConfig(num_partitions=2, seed=3)
        cluster = BaselineCluster(config, workload=bank_workload)
        created = cluster.add_clients(ClientProfile(per_partition=3, max_txns=2))
        assert len(created) == 6
