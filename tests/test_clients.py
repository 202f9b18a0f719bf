"""Closed-loop client behaviour: pacing, bounds, retries."""

import pytest

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark


def make_cluster(**client_kwargs):
    workload = Microbenchmark(mp_fraction=0.0, hot_set_size=5, cold_set_size=50)
    cluster = CalvinCluster(
        ClusterConfig(num_partitions=1, seed=2), workload=workload
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=1, **client_kwargs))
    return cluster


class TestPacing:
    def test_max_txns_bounds_submissions(self):
        cluster = make_cluster(max_txns=7)
        cluster.run(duration=0.5)
        cluster.quiesce()
        client = cluster.clients[0]
        assert client.completed == 7
        assert client.finished and client.idle
        assert cluster.metrics.committed == 7

    def test_unbounded_client_keeps_going(self):
        cluster = make_cluster()
        cluster.run(duration=0.3)
        client = cluster.clients[0]
        assert client.completed > 10
        assert not client.finished

    def test_think_time_throttles(self):
        fast = make_cluster(max_txns=50)
        fast.run(duration=0.5)
        slow = make_cluster(think_time=0.05, max_txns=50)
        slow.run(duration=0.5)
        assert slow.clients[0].completed < fast.clients[0].completed

    def test_one_outstanding_at_a_time(self):
        cluster = make_cluster(max_txns=5)
        cluster.run(duration=0.5)
        cluster.quiesce()
        client = cluster.clients[0]
        # submissions == completions when everything drained.
        assert client.submitted == client.completed

    def test_quiesce_rejects_unbounded(self):
        from repro.errors import ConfigError

        cluster = make_cluster()
        cluster.run(duration=0.05)
        with pytest.raises(ConfigError):
            cluster.quiesce(timeout=0.2)

    def test_latency_only_recorded_in_window(self):
        cluster = make_cluster(max_txns=30)
        cluster.run(duration=0.2, warmup=0.1)
        # Samples exist but fewer than total completions (warm-up excluded).
        assert 0 < cluster.metrics.latency.count <= cluster.clients[0].completed
