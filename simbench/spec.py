"""What the benchmark runs and what each of its numbers means.

``BENCHMARK.json`` at the repository root holds the metric names, units,
directions and bounds that the runner reports. This module holds the rest
of the record: the seeds, why each workload was chosen, which metrics are
exact virtual-time counts and which are host times, and which end-to-end
metric each per-layer metric should move on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

# The seed the repository's canned configs use, and a held-out seed that
# was not used while the benchmark was written; both must pass the same
# correctness checks.
DEFAULT_SEED = 2012
HELD_OUT_SEED = 7919

# Virtual seconds of warm-up, then of the default measured window
# (50 epochs).
WARMUP = 0.05
WINDOW = 0.5


@dataclass(frozen=True)
class WorkloadSpec:
    """One closed-loop workload: every client waits for each reply."""

    name: str
    why: str
    build: Callable[[int], tuple]  # seed -> (Workload, ClusterConfig)
    clients_per_partition: int = 100
    # Virtual seconds of the measured window.
    window: float = WINDOW
    # Host seconds one window takes on the reference machine (2-core
    # x86-64, CPython 3.11, pure-Python kernel); sets the repetitions.
    window_host_s: float = 5.0
    # Ledger boundaries and tallies that must be non-zero in a traced run.
    must_fire: Tuple[str, ...] = ()
    # Tallies that must stay zero in a traced run.
    must_not_fire: Tuple[str, ...] = ()
    # Abort reasons the workload's specification requires.
    expected_aborts: Tuple[str, ...] = ()


def _tpcc(seed: int):
    from repro.config import ClusterConfig
    from repro.workloads.tpcc import TpccWorkload

    return (
        TpccWorkload(remote_fraction=0.10, remote_payment_fraction=0.15),
        ClusterConfig(num_partitions=4, seed=seed),
    )


def _micro_mp(seed: int):
    from repro.config import ClusterConfig
    from repro.workloads.microbenchmark import Microbenchmark

    return (
        Microbenchmark(mp_fraction=1.0, hot_set_size=100, cold_set_size=10000),
        ClusterConfig(num_partitions=4, seed=seed),
    )


def _micro_local(seed: int):
    from repro.config import ClusterConfig
    from repro.workloads.microbenchmark import Microbenchmark

    return (
        Microbenchmark(mp_fraction=0.0, hot_set_size=10000, cold_set_size=10000),
        ClusterConfig(num_partitions=2, seed=seed),
    )


# Boundaries every workload exercises: kernel, network, routing, sequencer,
# scheduler, lock requests, executor, clients, generation, logic, context
# and storage.
_COMMON = (
    "Simulator.run",
    "Network.send",
    "Network._deliver_batch",
    "Catalog.partitions_of",
    "Sequencer.submit",
    "Sequencer.dispatch",
    "Scheduler.receive_subbatch",
    "lock_requests",
    "run_transaction",
    "ClosedLoopClient._on_message",
    "procedure.logic",
    "TxnContext.read",
    "TxnContext.write",
    "KVStore.get_many",
    "KVStore.apply_writes",
)

WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="tpcc",
            why=(
                "Full TPC-C mix on 4 partitions: the most procedure logic, routing and "
                "storage work, OLLP restarts, shared locks and the largest working set."
            ),
            build=_tpcc,
            clients_per_partition=50,
            # TPC-C's commit rate swings over tenths of a virtual second, so
            # virt_txns_per_s spreads about 6% from seed to seed over a
            # 0.5 s window and 2-4% over 1 s.
            window=1.0,
            window_host_s=12.0,
            must_fire=_COMMON + (
                "TpccWorkload.generate", "reconnoiter", "ollp_restarts", "shared_lock_requests",
            ),
            expected_aborts=("invalid item id",),
        ),
        WorkloadSpec(
            name="micro-mp",
            why=(
                "Microbenchmark, every txn spans 2 of 4 partitions, hot set 100: deep lock "
                "queues and remote reads over the network, trivial logic."
            ),
            build=_micro_mp,
            window_host_s=4.0,
            must_fire=_COMMON + (
                "Microbenchmark.generate", "remote_read_sends", "Scheduler.receive_remote_read",
            ),
        ),
        WorkloadSpec(
            name="micro-local",
            why=(
                "Microbenchmark, single-partition txns on 2 partitions, hot set 10000: no lock "
                "waits or remote reads, highest commit rate; routing and lock changes predict flat."
            ),
            build=_micro_local,
            window_host_s=1.7,
            must_fire=_COMMON + ("Microbenchmark.generate",),
            must_not_fire=("remote_read_sends",),
        ),
    )
}

HOST = "host"    # host time: varies run to run, bounded by BENCHMARK.json
EXACT = "exact"  # virtual-time result or exact count: identical for one seed

# kind of every end-to-end metric.
END_TO_END: Dict[str, str] = {
    "txns_per_host_s": HOST,
    "events_per_host_s": HOST,
    "epoch_host_ms_p50": HOST,
    "epoch_host_ms_p90": HOST,
    "setup_s": HOST,
    "peak_rss_mb": HOST,
    "virt_txns_per_s": EXACT,
    "virt_latency_ms_p50": EXACT,
    "virt_latency_ms_p99": EXACT,
    "commit_ratio": EXACT,
}

# (end-to-end metric, workload) pairs that per-layer metrics should move.
_TPS_TPCC = ("txns_per_host_s", "tpcc")
_TPS_MP = ("txns_per_host_s", "micro-mp")
_TPS_LOCAL = ("txns_per_host_s", "micro-local")
_EPS_LOCAL = ("events_per_host_s", "micro-local")
_P90_MP = ("epoch_host_ms_p90", "micro-mp")
_VIRT_MP = (("virt_latency_ms_p50", "micro-mp"), ("virt_latency_ms_p99", "micro-mp"))

# kind of every per-layer metric, and what it should move.
PER_LAYER: Dict[str, Tuple[str, Tuple[Tuple[str, str], ...]]] = {
    "sim.kernel.self_us_per_txn": (HOST, (_EPS_LOCAL,)),
    "sim.kernel.events_per_txn": (EXACT, (_EPS_LOCAL,)),
    "sim.network.self_us_per_txn": (HOST, (_TPS_MP,)),
    "sim.network.msgs_per_txn": (EXACT, (_TPS_MP,)),
    "sim.network.bytes_per_txn": (EXACT, (_TPS_MP,)),
    # Routing: predicted flat on micro-local.
    "partition.self_us_per_txn": (HOST, (_TPS_TPCC, _TPS_MP)),
    "partition.calls_per_txn": (EXACT, (_TPS_TPCC, _TPS_MP)),
    "scheduler.self_us_per_txn": (HOST, (_TPS_MP, _P90_MP)),
    "scheduler.lockmanager.self_us_per_txn": (HOST, (_TPS_MP, _P90_MP)),
    "scheduler.lockmanager.requests_per_txn": (EXACT, (_TPS_MP, _P90_MP)),
    "scheduler.executor.self_us_per_txn": (HOST, (_TPS_MP,)),
    "scheduler.executor.resumes_per_txn": (EXACT, (_TPS_MP,)),
    "sequencer.self_us_per_txn": (HOST, (_TPS_LOCAL,)),
    "sequencer.txns_per_batch": (EXACT, (_TPS_LOCAL,)),
    "core.clients.self_us_per_txn": (HOST, (_TPS_LOCAL,)),
    "workloads.generate_us_per_txn": (HOST, (_TPS_TPCC,)),
    "workloads.logic_us_per_txn": (HOST, (_TPS_TPCC,)),
    "txn.self_us_per_txn": (HOST, (_TPS_TPCC,)),
    "txn.ctx_ops_per_txn": (EXACT, (_TPS_TPCC,)),
    "storage.self_us_per_txn": (HOST, (_TPS_TPCC, ("setup_s", "tpcc"), ("peak_rss_mb", "tpcc"))),
    "storage.ops_per_txn": (EXACT, (_TPS_TPCC,)),
    # Wasted work: restarted OLLP attempts.
    "txn.ollp.useful_ratio": (EXACT, (_TPS_TPCC, ("virt_latency_ms_p99", "tpcc"))),
    # Virtual waits: a speed-only change must leave them unchanged.
    "scheduler.lock_wait_ms_mean": (EXACT, _VIRT_MP),
    "scheduler.executor.exec_ms_mean": (EXACT, _VIRT_MP),
    "scheduler.lockmanager.queued_mean": (EXACT, _VIRT_MP),
    "unattributed_share": (HOST, ()),
    "trace.overhead_ratio": (HOST, ()),
}
