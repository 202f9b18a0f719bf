"""Cluster orchestration: build, load, drive, checkpoint, replay.

:class:`CalvinCluster` owns the simulator, the network, all nodes and
clients, the metrics, and the committed-transaction history that the
correctness checkers consume. It is the main entry point for benchmarks;
examples usually go through the friendlier :class:`repro.core.api.CalvinDB`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, TYPE_CHECKING, Tuple, Union

from repro.analysis.auditor import FootprintAuditor, adopt_auditor, audit_armed
from repro.config import ClusterConfig
from repro.core.clients import ClosedLoopClient
from repro.core.metrics import Metrics, RunReport
from repro.core.node import CalvinNode
from repro.core.traffic import ClientProfile, OpenLoopClient
from repro.errors import ConfigError, RecoveryError
from repro.obs import MetricsRegistry, NULL_RECORDER, TraceRecorder
from repro.partition.catalog import (
    Catalog,
    MIGRATION_PROC,
    NodeId,
    is_migration_txn,
    migration_route,
)
from repro.partition.partitioner import Key, Partitioner, warm_sort_tokens
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.network import Network, lan_topology, wan_topology
from repro.sim.rng import RngStreams
from repro.storage.checkpoint import CheckpointSnapshot
from repro.storage.inputlog import LogEntry
from repro.txn.procedures import ProcedureRegistry
from repro.txn.result import TxnStatus
from repro.txn.transaction import GlobalSeq, SequencedTxn, Transaction
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

# (seq, txn, status) per terminal execution, in arbitrary append order;
# sort by seq to obtain the agreed serial history.
HistoryEntry = Tuple[GlobalSeq, Transaction, TxnStatus]

AnyClient = Union[ClosedLoopClient, OpenLoopClient]

class CalvinCluster:
    """A fully assembled simulated Calvin deployment."""

    def __init__(
        self,
        config: ClusterConfig,
        workload: Optional[Workload] = None,
        registry: Optional[ProcedureRegistry] = None,
        partitioner: Optional[Partitioner] = None,
        record_history: bool = True,
        fault_plan: Optional["FaultPlan"] = None,
        monitor_interval: Optional[float] = None,
        tracer: Optional[TraceRecorder] = None,
    ):
        config.validate()
        self.config = config
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
        # The serial reference checker must be able to execute any
        # procedure appearing in the history, including control-plane
        # migrations; the identity-copy reference logic is inert unless
        # a migration is actually sequenced.
        if MIGRATION_PROC not in registry:
            from repro.reconfig.procedure import migration_procedure

            registry.register(migration_procedure())
        self.catalog = Catalog(config, partitioner)

        self.sim = Simulator(sanitize=config.sanitize)
        self.rngs = RngStreams(config.seed)
        # Observability: a no-op recorder unless the caller wants spans
        # (zero overhead when off), and one registry for every component's
        # tallies plus the transaction-outcome instruments. Resolved
        # before the network, which records HOP spans on geo topologies.
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        self.network = self._build_network()
        # The geo topology, when one is configured (None on the flat
        # point-to-point network).
        self.geo = getattr(self.network, "geo", None)
        self.metrics_registry = MetricsRegistry()
        self.sim.register_metrics(self.metrics_registry)
        self.network.register_metrics(self.metrics_registry)
        self.metrics = Metrics(registry=self.metrics_registry)
        self.record_history = record_history
        self.history: List[HistoryEntry] = []

        cold = None
        if config.disk_enabled and workload is not None:
            cold = workload.cold_predicate()

        self.nodes: Dict[NodeId, CalvinNode] = {}
        for node_id in self.catalog.nodes():
            on_complete = self._completion_hook if node_id.replica == 0 else None
            self.nodes[node_id] = self._make_node(node_id, on_complete, cold)
        for node_id, node in self.nodes.items():
            prefix = f"node.r{node_id.replica}p{node_id.partition}"
            node.sequencer.register_metrics(self.metrics_registry, prefix)
            node.scheduler.register_metrics(self.metrics_registry, prefix)
            if node.engine.disk is not None:
                node.engine.disk.register_metrics(self.metrics_registry, f"{prefix}.disk")
            participant = getattr(node.sequencer.replication, "participant", None)
            if participant is not None:
                participant.register_metrics(self.metrics_registry, f"{prefix}.paxos")
            if node.sequencer.admission is not None:
                node.sequencer.admission.register_metrics(self.metrics_registry, prefix)

        # Opt-in footprint auditing (repro.analysis.auditor): one auditor
        # per cluster on replica-0 schedulers — replicas re-execute the
        # same deterministic accesses, so auditing them would only double
        # count. Armed by config or by an enclosing audit_scope().
        self.auditor = None
        if config.audit_footprints or audit_armed():
            self.auditor = FootprintAuditor()
            self.auditor.register_metrics(self.metrics_registry)
            for node_id, node in self.nodes.items():
                if node_id.replica == 0:
                    node.scheduler.auditor = self.auditor
            adopt_auditor(self.auditor)

        # Elastic reconfiguration: spare partitions exist from the
        # start but their sequencers stay dormant until the control
        # plane activates them (repro.reconfig.ClusterAdmin.add_node).
        self.reconfig_admin: Optional[Any] = None
        active = self.catalog.initial_origins
        for node_id, node in self.nodes.items():
            if node_id.partition not in active:
                node.sequencer.dormant = True

        self.clients: List[AnyClient] = []
        self.checkpoints: Dict[int, CheckpointSnapshot] = {}
        self._txn_counter = 0
        self._started = False
        self._initial_data: Dict[Key, Any] = {}

        # Fault injection: an explicit plan wins; otherwise a profile
        # named in the config is instantiated over a default horizon.
        self.fault_injector: Optional["FaultInjector"] = None
        if fault_plan is None and config.fault_profile is not None:
            from repro.faults.profiles import build_profile

            fault_plan = build_profile(
                config.fault_profile, config, config.fault_horizon
            )
        if fault_plan is not None:
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(
                self, fault_plan, monitor_interval=monitor_interval
            ).install()
            for node in self.nodes.values():
                node.scheduler.retain_remote_reads = True

    # -- construction helpers ------------------------------------------------

    def _make_node(self, node_id: NodeId, on_complete, cold) -> CalvinNode:
        """Build one node. Engine subclasses override to swap the node
        (and with it the scheduler) implementation; the hook must stay
        behaviour-identical for the core engine."""
        return CalvinNode(
            self.sim,
            self.network,
            node_id,
            self.catalog,
            self.config,
            self.registry,
            self.rngs,
            cold_predicate=cold,
            on_complete=on_complete,
            # Traces on every replica: the live fault checkers compare
            # peer replicas' executed prefixes against replica 0's.
            record_trace=self.record_history,
            tracer=self.tracer,
        )

    def _build_network(self):
        """Build the transport: the flat point-to-point network unless a
        geo topology preset is configured (the backward-compatible seam —
        flat configs never touch the geo code paths)."""
        config = self.config
        if config.topology is None:
            return Network(self.sim, self._build_topology())
        # Imported lazily: the flat path must not pay for (or depend on)
        # the geo subsystem.
        from repro.geo.network import GeoNetwork
        from repro.geo.presets import build_geo_topology

        geo = build_geo_topology(config)
        network = GeoNetwork(self.sim, geo, tracer=self.tracer)
        num_dcs = geo.num_datacenters
        for node_id in self.catalog.nodes():
            network.place(
                ("node", node_id.replica, node_id.partition),
                node_id.replica % num_dcs,
            )
        # Clients sit in datacenter 0 (the input site) unless
        # client_placement="spread" moves them (see _place_client).
        return network

    def _build_topology(self):
        config = self.config
        if config.num_replicas > 1:
            topology = wan_topology(
                lan_latency=config.lan_latency,
                wan_latency=config.wan_latency,
                lan_bandwidth=config.lan_bandwidth,
                wan_bandwidth=config.wan_bandwidth,
            )
        else:
            topology = lan_topology(config.lan_latency, config.lan_bandwidth)
        for replica in range(config.num_replicas):
            for partition in range(config.num_partitions):
                topology.place(("node", replica, partition), site=replica)
        # Clients sit in the input replica's datacenter (site 0, the default).
        return topology

    def _completion_hook(self, stxn: SequencedTxn, result) -> None:
        self.metrics.record_completion(stxn.txn.procedure, result, self.sim.now)
        if self.record_history:
            self.history.append((stxn.seq, stxn.txn, result.status))

    # -- basic accessors ---------------------------------------------------------

    def node(self, replica: int, partition: int) -> CalvinNode:
        return self.nodes[NodeId(replica, partition)]

    def next_txn_id(self) -> int:
        self._txn_counter += 1
        return self._txn_counter

    def current_epoch(self) -> int:
        """The sequencing epoch covering the present instant."""
        return int(self.sim.now / self.config.epoch_duration)

    def analytics_read(self, key: Key) -> Any:
        """Unsequenced snapshot read (OLLP reconnaissance path)."""
        partition = self.catalog.partition_of_at(key, self.current_epoch())
        return self.node(0, partition).store.get(key)

    # -- data loading -----------------------------------------------------------

    def load(self, data: Dict[Key, Any]) -> None:
        """Bulk-load initial records into every replica."""
        # Hot paths sort key collections by cached sort token; warming
        # the whole key universe here keeps those sorts on the C-level
        # cache-hit path from the first epoch on.
        warm_sort_tokens(data)
        per_partition: Dict[int, Dict[Key, Any]] = {}
        for key, value in data.items():
            per_partition.setdefault(self.catalog.partition_of(key), {})[key] = value
        for partition, chunk in per_partition.items():
            for node_id in self.catalog.replicas_of_partition(partition):
                self.nodes[node_id].store.load_bulk(chunk)
        self._initial_data.update(data)

    def load_workload_data(self) -> None:
        """Load ``workload.initial_data`` (requires a workload)."""
        if self.workload is None:
            raise ConfigError("cluster has no workload to load data from")
        self.load(self.workload.initial_data(self.catalog))

    @property
    def initial_data(self) -> Dict[Key, Any]:
        return dict(self._initial_data)

    # -- running ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            node.start()

    def add_clients(self, profile: ClientProfile) -> List[AnyClient]:
        """Create one client population described by a :class:`ClientProfile`."""
        if not isinstance(profile, ClientProfile):
            raise ConfigError(
                f"add_clients needs a ClientProfile, got {type(profile).__name__}"
            )
        profile.validate()
        workload = profile.workload or self.workload
        if workload is None:
            raise ConfigError("no workload for clients")
        created: List[AnyClient] = []
        # Only active origins accept input; spares get their clients
        # when the control plane (or the autoscaler) redirects traffic
        # to them.
        for partition in self.catalog.initial_origins:
            for _ in range(profile.per_partition):
                index = len(self.clients)
                client: AnyClient
                if profile.mode == "open":
                    client = OpenLoopClient(self, partition, index, profile, workload)
                else:
                    client = ClosedLoopClient(
                        self,
                        partition,
                        index,
                        workload,
                        profile.think_time,
                        profile.max_txns,
                    )
                self.clients.append(client)
                created.append(client)
                self._place_client(client, index)
        return created

    def _place_client(self, client: Any, index: int) -> None:
        """Geo-aware client placement: on a geo topology with
        ``client_placement="spread"``, client ``i`` lives in datacenter
        ``i % num_datacenters`` (its traffic to the input site crosses
        the WAN). Default placement keeps every client in datacenter 0."""
        if self.geo is None or self.config.client_placement != "spread":
            return
        self.network.place(client.address, index % self.geo.num_datacenters)

    def quiesce(self, timeout: float = 300.0, step: float = 0.05) -> None:
        """Run until all clients are done and all in-flight work drained.

        Only meaningful with ``max_txns``-bounded clients; raises
        :class:`ConfigError` on unbounded ones (they never finish).
        """
        if any(client.max_txns is None for client in self.clients):
            raise ConfigError("quiesce requires max_txns-bounded clients")
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            self.sim.run(until=self.sim.now + step)
            clients_idle = all(client.idle for client in self.clients)
            nodes_idle = all(
                node.scheduler.outstanding == 0
                and node.scheduler.admission_backlog == 0
                and not node.sequencer._buffer
                and not node.sequencer.pending_config_txns
                and (
                    node.sequencer.admission is None
                    or node.sequencer.admission.queue_depth == 0
                )
                and not any(
                    batch.txns
                    for per_epoch in node.scheduler._arrived.values()
                    for batch in per_epoch.values()
                )
                for node in self.nodes.values()
            )
            # Peer replicas must have re-executed (or applied) everything
            # replica 0 finished (batches may still be crossing the WAN).
            # Under partial replication only hosted partitions compare.
            replicas_aligned = all(
                self.nodes[node_id].scheduler.completed
                == self.node(0, node_id.partition).scheduler.completed
                for node_id in self.catalog.nodes()
                if node_id.replica != 0
            )
            # In-flight control-plane actions (armed-but-unsequenced
            # migrations, pending joins/leaves) must land before the
            # cluster counts as drained.
            reconfig_idle = (
                self.reconfig_admin is None or self.reconfig_admin.quiesced
            )
            if clients_idle and nodes_idle and replicas_aligned and reconfig_idle:
                return
        raise ConfigError(f"cluster failed to quiesce within {timeout}s")

    def run(self, duration: float, warmup: float = 0.0) -> RunReport:
        """Start everything, warm up, measure for ``duration``; report."""
        self.start()
        for client in self.clients:
            if client.submitted == 0:
                client.start()
        if warmup > 0:
            self.sim.run(until=self.sim.now + warmup)
        self.metrics.begin_window(self.sim.now)
        self.sim.run(until=self.sim.now + duration)
        return self.metrics.report(self.sim.now)

    def run_until_idle(self, max_events: Optional[int] = None) -> None:
        """Drain the event queue completely (replay clusters: no epoch
        ticking, so the queue empties when all injected work is done)."""
        self.sim.run(max_events=max_events)
        for node in self.nodes.values():
            scheduler = node.scheduler
            if scheduler.outstanding or scheduler.admission_backlog:
                raise RecoveryError(
                    f"replay stalled at {node.node_id}: "
                    f"{scheduler.outstanding} running, "
                    f"{scheduler.admission_backlog} queued"
                )

    # -- checkpointing --------------------------------------------------------------

    def schedule_checkpoint(self, at_time: float, mode: Optional[str] = None) -> Event:
        """Checkpoint replica 0 at the first epoch boundary after ``at_time``.

        Returns an event triggering with the list of per-partition
        snapshots (also stored in :attr:`checkpoints`).
        """
        mode = mode or self.config.checkpoint_mode
        if mode not in ("naive", "zigzag"):
            raise ConfigError(f"cannot checkpoint with mode {mode!r}")
        done = Event(self.sim)
        self.sim.schedule_at(at_time, self._start_checkpoint, mode, done)
        return done

    def _start_checkpoint(self, mode: str, done: Event) -> None:
        replica_nodes = [self.node(0, p) for p in range(self.config.num_partitions)]
        # A safe epoch boundary strictly in the future of every scheduler.
        epoch = max(n.scheduler._next_epoch for n in replica_nodes) + 2
        events = [node.begin_checkpoint(mode, epoch) for node in replica_nodes]
        combined = self.sim.all_of(events)

        def record(event: Event) -> None:
            snapshots = event.value
            for snapshot in snapshots:
                self.checkpoints[snapshot.partition] = snapshot
            done.succeed(snapshots)

        combined.add_callback(record)

    # -- failures -------------------------------------------------------------------

    def crash_node(self, replica: int, partition: int) -> None:
        """Fail-stop a node: deaf (traffic to it is dropped), frozen
        (its timers park in the kernel), sends held until restart.

        With Paxos input replication, a crashed *non-input* replica node
        costs nothing: agreement needs only a majority, and surviving
        replicas keep executing the agreed log — the paper's
        no-single-point-of-failure claim, exercised by experiment E8.
        """
        self.node(replica, partition).crash()

    def restart_node(self, replica: int, partition: int, resync: bool = True) -> None:
        """Bring a crashed node back; with ``resync``, re-learn what it
        missed from healthy peers (paper Section 2's recovery story)."""
        node = self.node(replica, partition)
        if not node.crashed:
            return
        node.restart()
        if resync:
            self.resync_node(replica, partition)

    def resync_node(self, replica: int, partition: int) -> None:
        """Catch a rejoined node up on everything it was deaf to.

        Three classes of messages were dropped while the node's address
        was unregistered, each repaired from a healthy peer's durable or
        retained state:

        1. *Input-log entries* — paxos: every healthy same-partition
           peer retransmits its protocol state (chosen values as Learns;
           the leader additionally re-solicits stalled Accepts, without
           which a group whose majority needs the rejoined member would
           stay wedged forever); async: re-feed the origin replica's
           logged batches through the epoch-ordered intake.
        2. *Sub-batches* from same-replica sequencers of other
           partitions — each peer re-derives them from its input log
           (:meth:`Sequencer.resend_to`); scheduler intake is idempotent.
        3. *Remote reads* peers served while the node was down — peers
           retain served reads and re-send the relevant ones
           (:meth:`Scheduler.reserve_reads_to`).
        """
        node = self.node(replica, partition)
        mode = self.config.replication_mode
        if mode == "paxos":
            for peer_replica in range(self.config.num_replicas):
                if peer_replica == replica:
                    continue
                donor = self.node(peer_replica, partition)
                if not donor.crashed:
                    donor.sequencer.replication.participant.retransmit_to(replica)
        elif mode == "async" and replica != 0:
            origin = self.node(0, partition)
            from repro.net.messages import ReplicaBatch

            for entry in origin.input_log:
                node.sequencer.handle_replica_batch(
                    ReplicaBatch(entry.epoch, entry.origin_partition, entry.txns)
                )
        for peer_partition in range(self.config.num_partitions):
            if peer_partition == partition:
                continue
            peer = self.node(replica, peer_partition)
            if peer.crashed:
                continue
            peer.sequencer.resend_to(partition, from_epoch=node.scheduler.next_epoch)
            peer.scheduler.reserve_reads_to(node.scheduler)

    def snapshot_read(self, key: Key, replica: int = 0) -> Any:
        """A low-consistency read served by any replica (possibly stale —
        the "multiple consistency levels" the abstract mentions)."""
        partition = self.catalog.partition_of_at(key, self.current_epoch())
        return self.node(replica, partition).store.get(key)

    def admission_stats(self) -> Dict[str, int]:
        """Aggregate admission-controller tallies across input nodes.

        All zeros when no admission policy is configured (there are no
        controllers to sum over).
        """
        totals = {
            "offered": 0,
            "admitted": 0,
            "queued": 0,
            "shed": 0,
            "dropped": 0,
            "backpressured": 0,
            "queue_depth": 0,
            "peak_queue_depth": 0,
        }
        for node in self.nodes.values():
            admission = node.sequencer.admission
            if admission is None:
                continue
            totals["offered"] += admission.offered
            totals["admitted"] += admission.admitted
            totals["queued"] += admission.queued
            totals["shed"] += admission.shed
            totals["dropped"] += admission.dropped
            totals["backpressured"] += admission.backpressured
            totals["queue_depth"] += admission.queue_depth
            totals["peak_queue_depth"] = max(
                totals["peak_queue_depth"], admission.peak_queue_depth
            )
        return totals

    def node_stats(self) -> Dict[NodeId, Dict[str, float]]:
        """Per-node health numbers for debugging and tests."""
        now = self.sim.now
        stats = {}
        for node_id, node in self.nodes.items():
            scheduler = node.scheduler
            stats[node_id] = {
                "admitted": scheduler.admitted,
                "completed": scheduler.completed,
                "outstanding": scheduler.outstanding,
                "worker_utilization": scheduler.workers.utilization(now) if now else 0.0,
                "lock_grants": scheduler.locks.grants,
                "immediate_grant_fraction": (
                    scheduler.locks.immediate_grants / scheduler.locks.grants
                    if scheduler.locks.grants
                    else 1.0
                ),
                "sequenced": node.sequencer.txns_sequenced,
                "deferred": node.sequencer.txns_deferred,
            }
        return stats

    # -- state inspection ---------------------------------------------------------

    def replica_fingerprints(self) -> Dict[int, Tuple[int, ...]]:
        """Per-replica tuple of *hosted* partition-store fingerprints."""
        return {
            replica: tuple(
                self.node(replica, p).store.fingerprint()
                for p in self.catalog.hosted_partitions(replica)
            )
            for replica in range(self.config.num_replicas)
        }

    def final_state(self, replica: int = 0) -> Dict[Key, Any]:
        """Union of the replica's hosted partition stores."""
        state: Dict[Key, Any] = {}
        for partition in self.catalog.hosted_partitions(replica):
            state.update(self.node(replica, partition).store.snapshot())
        return state

    def merged_log(self, replica: int = 0) -> List[LogEntry]:
        """The replica's input log (hosted origins), merged, global order."""
        entries: List[LogEntry] = []
        for partition in self.catalog.hosted_partitions(replica):
            entries.extend(self.node(replica, partition).input_log)
        entries.sort()
        return entries

    def sorted_history(self) -> List[HistoryEntry]:
        return sorted(self.history, key=lambda entry: entry[0])

    # -- recovery / deterministic replay ----------------------------------------------

    @classmethod
    def replay(
        cls,
        config: ClusterConfig,
        registry: ProcedureRegistry,
        partitioner: Partitioner,
        initial_data: Dict[Key, Any],
        entries: Iterable[LogEntry],
        start_epoch: int = 0,
    ) -> "CalvinCluster":
        """Rebuild state by deterministic replay of an input log.

        ``initial_data`` is either the original load (full replay) or a
        checkpoint image (recovery), in which case ``start_epoch`` is the
        checkpoint's epoch watermark.
        """
        replay_config = config.with_changes(
            num_replicas=1,
            replication_mode="none",
            disk_enabled=False,
            checkpoint_mode="none",
        )
        cluster = cls(
            replay_config,
            registry=registry,
            partitioner=partitioner,
            record_history=False,
        )
        cluster.load(initial_data)
        for partition in range(replay_config.num_partitions):
            cluster.node(0, partition).scheduler.fast_forward(start_epoch)

        ordered = sorted(entries)
        if ordered and ordered[0].epoch < start_epoch:
            raise RecoveryError(
                f"log entry epoch {ordered[0].epoch} precedes checkpoint "
                f"epoch {start_epoch}"
            )
        cluster._rearm_reconfig(ordered)
        for entry in ordered:
            node = cluster.node(0, entry.origin_partition)
            node.sequencer.dispatch(entry.epoch, entry.txns)
        cluster.run_until_idle()
        return cluster

    def _rearm_reconfig(self, ordered: List[LogEntry]) -> None:
        """Reconstruct the epoch-keyed routing and origin timeline from
        a log containing control-plane activity (replay path).

        Both are derivable from the log alone: each migration carries
        its (source, dest) route and moving keys in the sequenced
        transaction, and every active sequencer logs one entry per
        epoch (empty batches included), so the per-epoch origin sets
        fall out of the entries themselves. A log with no migrations
        and a constant origin set leaves the catalog untouched — the
        static replay path stays byte-identical.
        """
        catalog = self.catalog
        per_epoch: Dict[int, set] = {}
        migrations: List[Tuple[int, Transaction]] = []
        for entry in ordered:
            per_epoch.setdefault(entry.epoch, set()).add(entry.origin_partition)
            for txn in entry.txns:
                if is_migration_txn(txn):
                    migrations.append((entry.epoch, txn))
        initial = set(catalog.initial_origins)
        if not migrations and all(
            origins == initial for origins in per_epoch.values()
        ):
            return
        for epoch, txn in migrations:  # entry order == epoch order
            dest = migration_route(txn)[1]
            catalog.arm_override(epoch, {key: dest for key in txn.write_set})
        current = initial
        for epoch in sorted(per_epoch):
            origins = per_epoch[epoch]
            if origins != current:
                catalog.arm_origin_change(epoch, origins)
                current = origins
