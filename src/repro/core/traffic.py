"""Open-loop traffic: client profiles, arrival processes, admission control.

The paper's headline numbers are statements about a system *under
offered load*: throughput scales until the hardware saturates, then
admission at the sequencer front-end decides what happens to the excess.
Closed-loop clients (one outstanding request each) can only approach
saturation asymptotically; this module adds the other half of the
methodology:

- :class:`ClientProfile` — one typed description of a client population,
  shared by closed-loop and open-loop clients, the benchmark harness and
  the CLI flags.
- :class:`OpenLoopClient` — submits transactions on an *arrival process*
  (Poisson, uniform or bursty, driven by the deterministic sim RNG)
  regardless of how many are still outstanding, so offered load is an
  independent variable.
- :class:`AdmissionController` — a bounded intake queue in front of each
  input sequencer, drained at a fixed per-epoch budget, with a
  configurable overflow policy (``queue`` | ``shed`` | ``backpressure``).

Everything is deterministic: arrivals come from named RNG streams,
admission decisions are pure functions of queue state, and the
backpressure retry-after hint is computed from the backlog — the same
seed reproduces the same shed/queue decisions and the same trace digest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, TYPE_CHECKING, Tuple

from repro.errors import ConfigError
from repro.net.messages import ClientSubmit, TxnReply
from repro.partition.catalog import NodeId, client_address, node_address
from repro.txn.ollp import reconnoiter
from repro.txn.result import TransactionResult, TxnStatus
from repro.txn.transaction import Transaction
from repro.workloads.base import TxnSpec, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ClusterConfig
    from repro.core.cluster import CalvinCluster
    from repro.sequencer.sequencer import Sequencer
    from repro.sim.kernel import Simulator

_ARRIVALS = ("poisson", "uniform", "burst")
_MODES = ("closed", "open")
_MAX_OLLP_RESTARTS = 10


@dataclass(frozen=True)
class ClientProfile:
    """A typed description of one client population.

    ``mode="closed"`` clients keep one transaction outstanding each
    (``think_time`` pacing, ``max_txns`` bound) — the original
    behaviour. ``mode="open"`` clients submit on an arrival process at
    ``rate`` transactions per second per client, independent of
    completions; ``max_txns`` then bounds *arrivals*.
    """

    per_partition: int = 1
    mode: str = "closed"
    workload: Optional[Workload] = None
    think_time: float = 0.0
    max_txns: Optional[int] = None
    # Open-loop knobs.
    arrival: str = "poisson"       # poisson | uniform | burst
    rate: float = 100.0            # offered txns/sec per client
    burst_size: int = 8            # arrivals per burst (arrival="burst")
    burst_period: Optional[float] = None  # default: burst_size / rate
    # Resubmit after a backpressure rejection's retry-after hint.
    retry_rejected: bool = True

    def validate(self) -> None:
        if self.per_partition < 0:
            raise ConfigError("per_partition must be >= 0")
        if self.mode not in _MODES:
            raise ConfigError(f"unknown client mode {self.mode!r}; use {_MODES}")
        if self.think_time < 0:
            raise ConfigError("think_time must be >= 0")
        if self.max_txns is not None and self.max_txns < 0:
            raise ConfigError("max_txns must be >= 0")
        if self.mode == "open":
            if self.arrival not in _ARRIVALS:
                raise ConfigError(
                    f"unknown arrival process {self.arrival!r}; use {_ARRIVALS}"
                )
            if self.rate <= 0:
                raise ConfigError("open-loop clients need rate > 0")
            if self.arrival == "burst" and self.burst_size < 1:
                raise ConfigError("burst_size must be >= 1")
            if self.burst_period is not None and self.burst_period <= 0:
                raise ConfigError("burst_period must be positive")

    def effective_burst_period(self) -> float:
        """Burst spacing preserving the configured mean ``rate``."""
        if self.burst_period is not None:
            return self.burst_period
        return self.burst_size / self.rate


class OpenLoopClient:
    """Submits transactions on an arrival process, completions be damned.

    Offered load is an independent variable: the client schedules its
    next arrival from its RNG stream whether or not earlier requests
    have completed (or were shed). Latency is recorded per client into
    the cluster's metrics registry, so p50/p95/p99 histograms are
    available per client and in aggregate.
    """

    def __init__(
        self,
        cluster: "CalvinCluster",
        partition: int,
        index: int,
        profile: ClientProfile,
        workload: Workload,
    ):
        self.cluster = cluster
        self.partition = partition
        self.index = index
        self.profile = profile
        self.workload = workload
        self.max_txns = profile.max_txns
        self.address = client_address(0, index)
        # A dedicated stream family: open-loop arrivals must never
        # perturb the draws existing closed-loop clients see.
        self.rng = cluster.rngs.stream("openloop", index)
        self._target = node_address(NodeId(0, partition))
        self._inflight: Dict[int, Tuple[TxnSpec, int]] = {}
        self._burst_position = 0
        self._pending_retries = 0
        self._started = False
        self._stopped = False
        # Tallies (offered = arrivals generated, incl. retries).
        self.arrivals = 0
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.retried = 0
        self.stale_replies = 0
        self.latency = cluster.metrics_registry.histogram(
            f"client.open{index}.latency"
        )
        cluster.network.register(self.address, self._on_message)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._started or self._stopped:
            return
        self._started = True
        self.cluster.sim.schedule(self._next_gap(), self._arrive)

    def stop(self) -> None:
        """Stop generating new arrivals (outstanding requests drain)."""
        self._stopped = True

    def redirect(self, partition: int) -> None:
        """Re-home this client onto another origin partition.

        The control plane schedules the redirect at the retiring
        origin's hand-off time, so every same-seed run moves the same
        clients at the same instant. Replies for in-flight requests
        still arrive (the reply path uses the client address).
        """
        self.partition = partition
        self._target = node_address(NodeId(0, partition))

    @property
    def finished(self) -> bool:
        """All bounded arrivals generated (never True when unbounded)."""
        if self._stopped:
            return True
        return self.max_txns is not None and self.arrivals >= self.max_txns

    @property
    def idle(self) -> bool:
        """Nothing outstanding, no retries pending, no arrivals to come."""
        return self.finished and not self._inflight and self._pending_retries == 0

    # -- arrival process ---------------------------------------------------

    def _next_gap(self) -> float:
        profile = self.profile
        if profile.arrival == "poisson":
            return self.rng.expovariate(profile.rate)
        if profile.arrival == "uniform":
            return 1.0 / profile.rate
        # burst: burst_size arrivals back-to-back, then one long gap.
        self._burst_position += 1
        if self._burst_position % profile.burst_size == 0:
            return profile.effective_burst_period()
        return 0.0

    def _arrive(self) -> None:
        if self._stopped or (
            self.max_txns is not None and self.arrivals >= self.max_txns
        ):
            return
        self.arrivals += 1
        spec = self.workload.generate(self.rng, self.partition, self.cluster.catalog)
        self._submit(spec, restarts=0)
        if self.max_txns is None or self.arrivals < self.max_txns:
            self.cluster.sim.schedule(self._next_gap(), self._arrive)

    # -- submission --------------------------------------------------------

    def _submit(self, spec: TxnSpec, restarts: int) -> None:
        cluster = self.cluster
        read_set, write_set, token = spec.read_set, spec.write_set, None
        if spec.dependent:
            procedure = cluster.registry.get(spec.procedure)
            footprint = reconnoiter(procedure, cluster.analytics_read, spec.args)
            read_set = spec.read_set | footprint.read_set
            write_set = spec.write_set | footprint.write_set
            token = footprint.token
        txn = Transaction.create(
            txn_id=cluster.next_txn_id(),
            procedure=spec.procedure,
            args=spec.args,
            read_set=read_set,
            write_set=write_set,
            origin_partition=self.partition,
            client=self.address,
            dependent=spec.dependent,
            footprint_token=token,
            submit_time=cluster.sim.now,
            restarts=restarts,
        )
        self._inflight[txn.txn_id] = (spec, restarts)
        self.submitted += 1
        message = ClientSubmit(txn)
        cluster.network.send(self.address, self._target, message, message.size_estimate())

    def _resubmit(self, spec: TxnSpec, restarts: int) -> None:
        self._pending_retries -= 1
        self._submit(spec, restarts)

    # -- replies -----------------------------------------------------------

    def _on_message(self, src: Any, message: Any) -> None:
        assert isinstance(message, TxnReply), f"open-loop client got {message!r}"
        result = message.result
        entry = self._inflight.pop(result.txn_id, None)
        if entry is None:
            # Duplicate/reordered delivery from a faulty network.
            self.stale_replies += 1
            return
        spec, restarts = entry
        cluster = self.cluster
        if result.status is TxnStatus.REJECTED:
            retry_after = result.retry_after
            if retry_after > 0 and self.profile.retry_rejected and not self._stopped:
                self.retried += 1
                self._pending_retries += 1
                cluster.sim.schedule(retry_after, self._resubmit, spec, restarts)
            else:
                self.rejected += 1
            return
        if result.status is TxnStatus.RESTART and restarts < _MAX_OLLP_RESTARTS:
            # Stale OLLP footprint: reconnoiter again and resubmit.
            self._pending_retries += 1
            cluster.sim.schedule(0.0, self._resubmit, spec, restarts + 1)
            return
        self.completed += 1
        if cluster.sim.now >= cluster.metrics.window_start:
            latency = result.latency
            cluster.metrics.record_latency(latency)
            self.latency.add(latency)

    # -- introspection -----------------------------------------------------

    def latency_stats(self) -> Dict[str, float]:
        """Per-client latency percentiles (measurement window only)."""
        return {
            "count": self.latency.count,
            "p50": self.latency.percentile(50),
            "p95": self.latency.percentile(95),
            "p99": self.latency.percentile(99),
        }


class AdmissionController:
    """A bounded intake queue in front of one input sequencer.

    The controller admits at most ``admission_epoch_budget`` transactions
    into each sequencing epoch. Arrivals beyond the budget wait in a
    FIFO queue of ``admission_queue_capacity``; the queue drains (budget
    per epoch) at every epoch tick. What happens to an arrival while the
    queue is full is the *policy*:

    - ``queue``: tail-drop silently — the request is lost and the client
      learns nothing (a router dropping packets).
    - ``shed``: reject immediately with a ``TxnStatus.REJECTED`` reply.
    - ``backpressure``: reject with a deterministic retry-after hint,
      ``epoch_duration * (1 + depth // budget)`` — the time by which the
      present backlog will have drained.

    All decisions are pure functions of (policy, queue depth, epoch
    budget), so the same seed reproduces the same admit/shed sequence.
    """

    def __init__(
        self,
        sim: "Simulator",
        node_id: NodeId,
        config: "ClusterConfig",
        sequencer: "Sequencer",
        send,
    ):
        if config.admission_policy == "none":  # pragma: no cover - guarded by caller
            raise ConfigError("AdmissionController requires a non-none policy")
        self.sim = sim
        self.node_id = node_id
        self.policy = config.admission_policy
        self.capacity = config.admission_queue_capacity
        self.budget = int(config.admission_epoch_budget or 0)
        self.epoch_duration = config.epoch_duration
        self.sequencer = sequencer
        self.send = send
        self._queue: Deque[Transaction] = deque()
        self._admitted_this_epoch = 0
        # Tallies (plain ints on the hot path; gauges read them lazily).
        self.offered = 0
        self.admitted = 0
        self.queued = 0
        self.shed = 0
        self.dropped = 0
        self.backpressured = 0
        self.peak_queue_depth = 0

    # -- intake ------------------------------------------------------------

    def offer(self, txn: Transaction) -> None:
        """Admission decision for one deduplicated client request."""
        self.offered += 1
        if self._admitted_this_epoch < self.budget and not self._queue:
            self._admit(txn)
            return
        if len(self._queue) < self.capacity:
            self._queue.append(txn)
            self.queued += 1
            depth = len(self._queue)
            if depth > self.peak_queue_depth:
                self.peak_queue_depth = depth
            return
        # Queue full: overflow per policy.
        if self.policy == "queue":
            self.dropped += 1
        elif self.policy == "shed":
            self.shed += 1
            self._reject(txn, retry_after=None)
        else:  # backpressure
            self.backpressured += 1
            self._reject(txn, retry_after=self.retry_after())

    def retry_after(self) -> float:
        """Deterministic backpressure hint: when the backlog has drained."""
        backlog_epochs = 1 + len(self._queue) // max(1, self.budget)
        return self.epoch_duration * backlog_epochs

    def _admit(self, txn: Transaction) -> None:
        self.admitted += 1
        self._admitted_this_epoch += 1
        self.sequencer.accept(txn)

    def _reject(self, txn: Transaction, retry_after: Optional[float]) -> None:
        result = TransactionResult(
            txn_id=txn.txn_id,
            status=TxnStatus.REJECTED,
            value=retry_after if retry_after is not None else "admission shed",
            submit_time=txn.submit_time,
            complete_time=self.sim.now,
            restarts=txn.restarts,
        )
        message = TxnReply(result)
        self.send(txn.client, message, message.size_estimate())

    # -- epoch hook (called by the sequencer after it cuts each batch) -----

    def on_epoch_tick(self) -> None:
        """Reset the per-epoch budget and drain the queue into it."""
        self._admitted_this_epoch = 0
        queue = self._queue
        while queue and self._admitted_this_epoch < self.budget:
            self._admit(queue.popleft())

    def drain(self) -> Tuple[Transaction, ...]:
        """Empty the queue and return its contents in FIFO order.

        Used by a retiring sequencer's hand-off: queued-but-unadmitted
        transactions are forwarded to the successor origin instead of
        being stranded on a partition that no longer sequences input.
        """
        leftovers = tuple(self._queue)
        self._queue.clear()
        return leftovers

    # -- observability -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose intake tallies as gauges in ``registry``."""
        registry.gauge(f"{prefix}.admission.offered", lambda: self.offered)
        registry.gauge(f"{prefix}.admission.admitted", lambda: self.admitted)
        registry.gauge(f"{prefix}.admission.queued", lambda: self.queued)
        registry.gauge(f"{prefix}.admission.shed", lambda: self.shed)
        registry.gauge(f"{prefix}.admission.dropped", lambda: self.dropped)
        registry.gauge(
            f"{prefix}.admission.backpressured", lambda: self.backpressured
        )
        registry.gauge(f"{prefix}.admission.queue_depth", lambda: self.queue_depth)
        registry.gauge(
            f"{prefix}.admission.peak_queue_depth", lambda: self.peak_queue_depth
        )
