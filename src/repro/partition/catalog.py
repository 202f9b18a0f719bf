"""Cluster catalog: node identity, addressing and layout.

A node is identified by ``NodeId(replica, partition)``. Network
addresses are small tuples so they stay hashable and debuggable.

Partial replication (``ClusterConfig.partial_hosting``) makes the
layout *sparse*: a replica may host only a subset of partitions, so
``nodes()``, ``replicas_of_partition()`` and friends all consult the
hosting map. Under full replication (the default) every hosting query
degenerates to the dense ``range`` answer, byte for byte.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.partition.partitioner import Key, Partitioner

# Procedure name of the control-plane migration transaction (see
# repro.reconfig): a MigrationTxn copies a key range from its source to
# its destination partition *through* the sequenced log. It lives here
# (not in repro.reconfig) so the routing layer and the data plane can
# recognise it without importing the control plane.
MIGRATION_PROC = "__migration__"


def is_migration_txn(txn) -> bool:
    """True when ``txn`` is a control-plane key-range migration."""
    return txn.procedure == MIGRATION_PROC


def migration_route(txn) -> Tuple[int, int]:
    """(source, dest) partitions of a migration transaction."""
    return txn.args[1], txn.args[2]


class Route(NamedTuple):
    """Where one transaction runs under one routing version.

    Computed once per (transaction, routing version) by
    :meth:`Catalog.route` and shared: equal routes are interned per
    catalog, so the input log's transactions all point at a handful of
    route objects instead of each holding its own partition sets.
    """

    # Partitions holding any key the transaction touches.
    participants: FrozenSet[int]
    # Partitions that execute the logic and apply writes: the write-set
    # partitions, or the lowest participant of a read-only transaction.
    active: FrozenSet[int]
    # The active participant that reports the result to the client.
    reply: int
    # Partitions holding read-set keys (they serve remote reads).
    read_sources: FrozenSet[int]


@dataclass(frozen=True, order=True)
class NodeId:
    """Identity of one node: which replica it belongs to, which partition it hosts."""

    replica: int
    partition: int


def node_address(node: NodeId) -> Tuple[str, int, int]:
    """Network address of a node."""
    return ("node", node.replica, node.partition)


def client_address(replica: int, client_index: int) -> Tuple[str, int, int]:
    """Network address of a client."""
    return ("client", replica, client_index)


class Catalog:
    """Owns cluster layout: replicas × partitions, plus the partitioner."""

    def __init__(self, config: ClusterConfig, partitioner: Partitioner):
        config.validate()
        if partitioner.num_partitions != config.num_partitions:
            raise ConfigError(
                "partitioner partition count "
                f"({partitioner.num_partitions}) does not match config "
                f"({config.num_partitions})"
            )
        self.config = config
        self.partitioner = partitioner
        # partition_of dominates profiles (CRC32 over repr per call);
        # workloads draw from bounded key sets, so memoise per catalog.
        self._partition_cache: Dict[Key, int] = {}
        # Partial replication: per-replica hosted-partition sets (None =
        # full replication). Frozensets answer membership, the sorted
        # tuples answer deterministic iteration.
        if config.partial_hosting is None:
            self._hosting: Optional[Tuple[FrozenSet[int], ...]] = None
            self._hosted_sorted: Optional[Tuple[Tuple[int, ...], ...]] = None
        else:
            self._hosting = tuple(
                frozenset(hosted) for hosted in config.partial_hosting
            )
            self._hosted_sorted = tuple(
                tuple(hosted) for hosted in config.partial_hosting
            )
        # -- elastic reconfiguration (repro.reconfig) --------------------
        # Epoch-keyed routing overrides and origin membership, both
        # versioned: entry i covers every epoch >= its effective epoch.
        # A static cluster is routing version 0 with one origin set.
        active = config.active_partitions
        initial = config.num_partitions if active is None else active
        self._origin_epochs: List[int] = [0]
        self._origin_sets: List[Tuple[int, ...]] = [tuple(range(initial))]
        # Routing version v (v >= 1) starts at _override_epochs[v - 1];
        # _override_maps[v] holds every key it moves. Version 0 is the
        # static layout: it moves nothing.
        self._override_epochs: List[int] = []
        self._override_maps: List[Dict[Key, int]] = [{}]
        # Interned routes (see Route).
        self._routes: Dict[Route, Route] = {}

    @property
    def num_partitions(self) -> int:
        return self.config.num_partitions

    @property
    def num_replicas(self) -> int:
        return self.config.num_replicas

    @property
    def partial(self) -> bool:
        """True when some replica hosts only a subset of partitions."""
        return self._hosting is not None

    def hosting_of(self, replica: int) -> Optional[FrozenSet[int]]:
        """The partitions ``replica`` hosts, or None for "all of them"."""
        if self._hosting is None:
            return None
        return self._hosting[replica]

    def hosted_partitions(self, replica: int) -> Sequence[int]:
        """Sorted partitions hosted by ``replica`` (a ``range`` when full)."""
        if self._hosted_sorted is None:
            return range(self.num_partitions)
        return self._hosted_sorted[replica]

    def is_hosted(self, replica: int, partition: int) -> bool:
        if self._hosting is None:
            return True
        return partition in self._hosting[replica]

    def nodes(self) -> Iterator[NodeId]:
        """All *existing* nodes, replica-major (replica 0 first)."""
        for replica in range(self.num_replicas):
            for partition in self.hosted_partitions(replica):
                yield NodeId(replica, partition)

    def nodes_of_replica(self, replica: int) -> List[NodeId]:
        return [NodeId(replica, p) for p in self.hosted_partitions(replica)]

    def replicas_of_partition(self, partition: int) -> List[NodeId]:
        """The same partition across every replica *hosting* it (a Paxos
        group; under partial replication the group shrinks to hosts)."""
        return [
            NodeId(r, partition)
            for r in range(self.num_replicas)
            if self.is_hosted(r, partition)
        ]

    def writeset_targets(self, partition: int, participants) -> Tuple[int, ...]:
        """Peer replicas that need a shipped writeset for ``partition``.

        A replica re-executes a multipartition transaction only when it
        hosts *all* participants; a replica hosting ``partition`` but
        missing some participant cannot re-execute (it lacks the remote
        reads) and instead applies the writeset shipped by replica 0.
        Empty under full replication.
        """
        if self._hosting is None:
            return ()
        return tuple(
            replica
            for replica in range(1, self.num_replicas)
            if partition in self._hosting[replica]
            and not participants <= self._hosting[replica]
        )

    def partition_of(self, key: Key) -> int:
        cache = self._partition_cache
        partition = cache.get(key)
        if partition is None:
            partition = cache[key] = self.partitioner.partition_of(key)
        return partition

    def partitions_of(self, keys) -> Set[int]:
        """The set of partitions covering ``keys``.

        ``keys`` must be re-iterable (a set or sequence, not a
        generator): the miss fallback walks it a second time.
        """
        # Hot: every routing decision funnels through here. The cache is
        # warm for the whole key universe after the initial data load,
        # so subscript directly and fall back to the method on a miss.
        cache = self._partition_cache
        out = set()
        add = out.add
        try:
            for key in keys:
                add(cache[key])
        except KeyError:
            partition_of = self.partition_of
            for key in keys:
                add(partition_of(key))
        return out

    # -- elastic reconfiguration (repro.reconfig) -------------------------

    @property
    def initial_origins(self) -> Tuple[int, ...]:
        """Active input partitions at epoch 0."""
        return self._origin_sets[0]

    def origins_at(self, epoch: int) -> Tuple[int, ...]:
        """Sorted active input partitions (origins) covering ``epoch``."""
        idx = bisect_right(self._origin_epochs, epoch) - 1
        return self._origin_sets[idx]

    def arm_origin_change(self, effective_epoch: int, origins) -> None:
        """Change the active-origin set from ``effective_epoch`` on.

        Every scheduler's epoch barrier consults :meth:`origins_at`, so
        arming the same change on every replica (which the control plane
        does deterministically) makes all of them flip identically.
        """
        origins = tuple(sorted(set(origins)))
        if not origins:
            raise ConfigError("origin set cannot be empty")
        for origin in origins:
            if not 0 <= origin < self.num_partitions:
                raise ConfigError(f"unknown origin partition {origin}")
        last = self._origin_epochs[-1]
        if effective_epoch < last:
            raise ConfigError(
                "origin changes must be armed in epoch order "
                f"(got {effective_epoch} after {last})"
            )
        if effective_epoch == last:
            self._origin_sets[-1] = origins
        else:
            self._origin_epochs.append(effective_epoch)
            self._origin_sets.append(origins)

    def arm_override(self, effective_epoch: int, moves: Dict[Key, int]) -> None:
        """Route each key in ``moves`` to a new partition from
        ``effective_epoch`` on (cumulative over earlier overrides).

        The data copy itself is a sequenced :data:`MIGRATION_PROC`
        transaction ordered first within ``effective_epoch``; arming the
        override only changes *routing*, which every replica derives
        from the same epoch number.
        """
        if not moves:
            raise ConfigError("routing override moves no keys")
        for key, dest in moves.items():
            if not 0 <= dest < self.num_partitions:
                raise ConfigError(
                    f"override routes {key!r} to unknown partition {dest}"
                )
        if self._override_epochs and effective_epoch < self._override_epochs[-1]:
            raise ConfigError(
                "routing overrides must be armed in epoch order "
                f"(got {effective_epoch} after {self._override_epochs[-1]})"
            )
        if self._override_epochs and effective_epoch == self._override_epochs[-1]:
            self._override_maps[-1] = {**self._override_maps[-1], **moves}
        else:
            self._override_epochs.append(effective_epoch)
            self._override_maps.append({**self._override_maps[-1], **moves})

    def routing_version_at(self, epoch: int) -> int:
        """Index of the routing version covering ``epoch`` (0 = static)."""
        return bisect_right(self._override_epochs, epoch)

    def _moves_at(self, epoch: int) -> Dict[Key, int]:
        """Every key moved off its static partition at ``epoch``."""
        return self._override_maps[bisect_right(self._override_epochs, epoch)]

    def _partitions_under(self, keys: FrozenSet[Key], moves: Dict[Key, int]) -> Set[int]:
        """The partitions covering ``keys`` when ``moves`` is in force:
        the static partitions of the keys not moved, through the cached
        :meth:`partitions_of`, plus the destinations of those moved."""
        out = self.partitions_of(keys - moves.keys())
        out.update(moves[key] for key in moves.keys() & keys)
        return out

    def keys_on(self, keys, partition: int, epoch: int) -> Tuple[Key, ...]:
        """The keys of ``keys`` held by ``partition`` at ``epoch``, in
        their given order (a participant's slice of a footprint)."""
        moves = self._moves_at(epoch)
        partition_of = self.partition_of
        return tuple(k for k in keys if moves.get(k, partition_of(k)) == partition)

    def partition_of_at(self, key: Key, epoch: int) -> int:
        """Partition holding ``key`` under the routing of ``epoch``."""
        return self._moves_at(epoch).get(key, self.partition_of(key))

    def partitions_of_at(self, keys, epoch: int) -> Set[int]:
        """The set of partitions covering ``keys`` at ``epoch``."""
        return self._partitions_under(keys, self._moves_at(epoch))

    def route(self, txn, epoch: int) -> Route:
        """The :class:`Route` of ``txn`` sequenced in ``epoch``.

        Memoised on the transaction per routing version, so the
        sequencer, every participant's scheduler and the executor share
        one derivation. A migration transaction is pinned to its
        (source, dest) pair: at its own epoch the moving keys already
        route to the destination, yet the data still lives on the
        source, so both sides take part and both are active.
        """
        version = bisect_right(self._override_epochs, epoch)
        memo = txn._route
        if memo is not None and memo[0] is self and memo[1] == version:
            return memo[2]
        if txn.procedure == MIGRATION_PROC:
            source, dest = migration_route(txn)
            pair = frozenset((source, dest))
            route = Route(pair, pair, min(pair), frozenset((source,)))
        else:
            moves = self._override_maps[version]
            read_set, write_set = txn.read_set, txn.write_set
            reads = frozenset(self._partitions_under(read_set, moves))
            # One lookup serves both sets of a read-modify-write footprint.
            writes = (
                reads if write_set == read_set
                else frozenset(self._partitions_under(write_set, moves))
            )
            participants = reads if writes is reads else reads | writes
            if not participants:
                raise ConfigError(f"transaction {txn.txn_id} has an empty footprint")
            active = writes or frozenset((min(participants),))
            route = Route(participants, active, min(active), reads)
        route = self._routes.setdefault(route, route)
        object.__setattr__(txn, "_route", (self, version, route))
        return route

    # One-line views over route(). Nothing in the package calls them;
    # they stay because the benchmark's host-time ledger
    # (simbench/ledger.py) wraps each Catalog routing method by name
    # and fails to install when one is missing.

    def participants_at(self, txn, epoch: int) -> FrozenSet[int]:
        """Epoch-aware :meth:`Transaction.participants`."""
        return self.route(txn, epoch).participants

    def active_participants_at(self, txn, epoch: int) -> FrozenSet[int]:
        """Epoch-aware :meth:`Transaction.active_participants`."""
        return self.route(txn, epoch).active

    def reply_partition_at(self, txn, epoch: int) -> int:
        """Epoch-aware :meth:`Transaction.reply_partition`."""
        return self.route(txn, epoch).reply
