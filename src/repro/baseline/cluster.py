"""Baseline cluster assembly — mirrors :class:`repro.core.cluster.CalvinCluster`
closely enough that the same closed-loop clients and benchmark harness
drive both systems."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.baseline.node import BaselineNode
from repro.config import BaselineConfig, ClusterConfig
from repro.core.clients import ClosedLoopClient
from repro.core.metrics import Metrics, RunReport
from repro.core.traffic import ClientProfile
from repro.errors import ConfigError
from repro.obs import MetricsRegistry, NULL_RECORDER, TraceRecorder
from repro.partition.catalog import Catalog
from repro.partition.partitioner import Key, Partitioner
from repro.sim.kernel import Simulator
from repro.sim.network import Network, lan_topology
from repro.sim.rng import RngStreams
from repro.txn.procedures import ProcedureRegistry
from repro.txn.result import TransactionResult
from repro.txn.transaction import Transaction
from repro.workloads.base import Workload


class BaselineCluster:
    """A simulated conventional (2PL + 2PC) distributed database."""

    def __init__(
        self,
        config: ClusterConfig,
        baseline: Optional[BaselineConfig] = None,
        workload: Optional[Workload] = None,
        registry: Optional[ProcedureRegistry] = None,
        partitioner: Optional[Partitioner] = None,
        tracer: Optional[TraceRecorder] = None,
        record_history: bool = False,
    ):
        config.validate()
        if config.num_replicas != 1:
            raise ConfigError("the baseline system models a single replica")
        # Both flags act on the sequencer or the replica-0 schedulers,
        # which the baseline does not have.
        if config.admission_policy != "none":
            raise ConfigError(
                "admission_policy is not supported by the baseline engine "
                f"(got {config.admission_policy!r})"
            )
        if config.audit_footprints:
            raise ConfigError("audit_footprints is not supported by the baseline engine")
        self.config = config
        self.baseline = baseline or BaselineConfig()
        self.baseline.validate()
        self.workload = workload

        if workload is not None:
            if registry is None:
                registry = ProcedureRegistry()
                workload.register(registry)
            if partitioner is None:
                partitioner = workload.build_partitioner(config.num_partitions)
        if registry is None or partitioner is None:
            raise ConfigError("cluster needs a workload, or registry + partitioner")
        self.registry = registry
        self.catalog = Catalog(config, partitioner)

        self.sim = Simulator(sanitize=config.sanitize)
        self.rngs = RngStreams(config.seed)
        self.network = Network(
            self.sim, lan_topology(config.lan_latency, config.lan_bandwidth)
        )
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        self.metrics_registry = MetricsRegistry()
        self.sim.register_metrics(self.metrics_registry)
        self.network.register_metrics(self.metrics_registry)
        self.metrics = Metrics(registry=self.metrics_registry)

        self.nodes: Dict[int, BaselineNode] = {
            partition: BaselineNode(
                self.sim,
                self.network,
                partition,
                self.catalog,
                config,
                self.baseline,
                self.registry,
                on_complete=self._completion_hook,
                tracer=self.tracer,
            )
            for partition in range(config.num_partitions)
        }
        for partition, node in self.nodes.items():
            node.register_metrics(self.metrics_registry, f"node.p{partition}")
        self.clients: List[ClosedLoopClient] = []
        self._txn_counter = 0
        # Optional completion history: (completion index, txn, status) in
        # commit order. Under strict 2PL + 2PC the commit point precedes
        # lock release, so completion order is a valid serialization
        # order — the equivalence oracle replays it serially.
        self.record_history = record_history
        self.history: List[Any] = []
        self._initial_data: Dict[Key, Any] = {}

    # -- the subset of the CalvinCluster surface the clients need --------------

    def _completion_hook(self, txn: Transaction, result: TransactionResult) -> None:
        self.metrics.record_completion(txn.procedure, result, self.sim.now)
        if self.record_history:
            self.history.append((len(self.history), txn, result.status))

    def next_txn_id(self) -> int:
        self._txn_counter += 1
        return self._txn_counter

    def analytics_read(self, key: Key) -> Any:
        return self.nodes[self.catalog.partition_of(key)].store.get(key)

    def node(self, partition: int) -> BaselineNode:
        return self.nodes[partition]

    def load(self, data: Dict[Key, Any]) -> None:
        per_partition: Dict[int, Dict[Key, Any]] = {}
        for key, value in data.items():
            per_partition.setdefault(self.catalog.partition_of(key), {})[key] = value
        for partition, chunk in per_partition.items():
            self.nodes[partition].store.load_bulk(chunk)
        self._initial_data.update(data)

    @property
    def initial_data(self) -> Dict[Key, Any]:
        return dict(self._initial_data)

    def sorted_history(self) -> List[Any]:
        return sorted(self.history, key=lambda entry: entry[0])

    def load_workload_data(self) -> None:
        if self.workload is None:
            raise ConfigError("cluster has no workload to load data from")
        self.load(self.workload.initial_data(self.catalog))

    def add_clients(self, profile: ClientProfile) -> List[ClosedLoopClient]:
        """Create clients from a :class:`ClientProfile` (closed-loop only;
        the baseline has no admission front-end to absorb open-loop
        overload)."""
        if not isinstance(profile, ClientProfile):
            raise ConfigError(
                f"add_clients needs a ClientProfile, got {type(profile).__name__}"
            )
        profile.validate()
        if profile.mode != "closed":
            raise ConfigError("the baseline system supports closed-loop clients only")
        workload = profile.workload or self.workload
        if workload is None:
            raise ConfigError("no workload for clients")
        created = []
        for partition in range(self.config.num_partitions):
            for _ in range(profile.per_partition):
                client = ClosedLoopClient(
                    self,
                    partition,
                    len(self.clients),
                    workload,
                    profile.think_time,
                    profile.max_txns,
                    retry_backoff=self.baseline.retry_backoff,
                    max_restarts=self.baseline.max_retries,
                )
                self.clients.append(client)
                created.append(client)
        return created

    def run(self, duration: float, warmup: float = 0.0) -> RunReport:
        for client in self.clients:
            if client.submitted == 0:
                client.start()
        if warmup > 0:
            self.sim.run(until=self.sim.now + warmup)
        self.metrics.begin_window(self.sim.now)
        self.sim.run(until=self.sim.now + duration)
        return self.metrics.report(self.sim.now)

    def final_state(self) -> Dict[Key, Any]:
        state: Dict[Key, Any] = {}
        for node in self.nodes.values():
            state.update(node.store.snapshot())
        return state

    def quiesce(self, timeout: float = 300.0, step: float = 0.05) -> None:
        """Drain bounded clients (requires ``max_txns``)."""
        if any(client.max_txns is None for client in self.clients):
            raise ConfigError("quiesce requires max_txns-bounded clients")
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            self.sim.run(until=self.sim.now + step)
            if all(client.idle for client in self.clients) and not any(
                node._coord for node in self.nodes.values()
            ):
                return
        raise ConfigError(f"baseline cluster failed to quiesce within {timeout}s")
