"""Simulator benchmark: host speed and virtual fidelity on three workloads.

Run from the root of a repository checkout::

    python3 simbench/run.py --workload tpcc --seed 2012 --seconds 20 --trace 0

Each run builds the workload's cluster from ``src/`` afresh several times
in one single-threaded process. Every repetition times its set-up (build,
data load, warm-up) and then a fixed virtual-time window, one 10 ms epoch
at a time. The number of repetitions fills ``--seconds`` of measured host
time on the reference machine (see ``repetitions``). Host-time metrics
are medians over repetitions (epoch times are pooled); virtual metrics
are exact for a seed.

After the timed repetitions, one untimed verification run with history
recording passes the serializability, conflict-order, double-apply and
epoch-contiguity checkers, and every repetition must reproduce its final
state digest, counts and virtual latencies exactly.

``--trace 1`` alternates untraced repetitions with traced ones, which
wrap each module boundary (see ``ledger.py``), and reports the per-layer
ledger instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
stamped with the environment, goes to ``simbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from ledger import (
    CATALOG_CALLS, CONTEXT_OPS, EXECUTOR_GENERATORS, STORAGE_OPS, Ledger, LedgerError,
)
from spec import DEFAULT_SEED, END_TO_END, PER_LAYER, WARMUP, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Minimum repetitions per run, whatever --seconds says: a median needs three.
MIN_REPS = 3
# Minimum (untraced, traced) pairs in a traced run.
MIN_TRACED_PAIRS = 1
# Epochs at the start of the first traced window whose spans are kept
# for the Chrome trace (the ledger aggregates the whole window).
TRACE_EPOCHS = 3


class CheckFailed(Exception):
    """The program's output or the benchmark's own self-check is wrong."""


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


# -- one repetition ----------------------------------------------------------


def build_and_warm(spec, seed: int, record_history: bool = False, before_start=None):
    """Build, load and warm up a cluster; return it (the set-up phase)."""
    from repro.core.cluster import CalvinCluster
    from repro.core.traffic import ClientProfile

    workload, config = spec.build(seed)
    cluster = CalvinCluster(config, workload=workload, record_history=record_history)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=spec.clients_per_partition))
    if before_start is not None:
        before_start(cluster)
    cluster.start()
    for client in cluster.clients:
        client.start()
    cluster.sim.run(until=WARMUP)
    return cluster


def measure_window(cluster, spec, ledger=None) -> Dict[str, Any]:
    """Run the fixed virtual window epoch by epoch; return its results.

    Returns host samples (``window_s``, ``epoch_s``) and the ``virtual``
    outcome, which must be identical on every run of one seed.
    """
    sim = cluster.sim
    metrics = cluster.metrics
    network = cluster.network
    epoch = cluster.config.epoch_duration
    epochs = round(spec.window / epoch)
    schedulers = [node.scheduler for node_id, node in sorted(cluster.nodes.items())
                  if node_id.replica == 0]
    start = sim.now
    metrics.begin_window(start)
    before = (
        sim.events_executed, metrics.committed, metrics.aborted, metrics.restarts,
        sum(client.rejected for client in cluster.clients),
        network.messages_sent, network.bytes_sent,
        metrics.sequencing.count, metrics.execution.count, metrics.latency.count,
    )
    epoch_s: List[float] = []
    queued = 0
    if ledger is not None:
        ledger.begin_window()
    for index in range(1, epochs + 1):
        if ledger is not None:
            ledger.recording = ledger.keep_spans and index <= TRACE_EPOCHS
            ledger.resume()
        began = perf_counter()
        sim.run(until=start + index * epoch)
        epoch_s.append(perf_counter() - began)
        if ledger is not None:
            ledger.pause()
        # Lock-queue depth at replica 0, sampled once per epoch.
        queued += sum(scheduler.lock_occupancy()[1] for scheduler in schedulers)
    window_ns = ledger.end_window() if ledger is not None else None
    events, committed, aborted, restarts, rejected, messages, nbytes = (
        now - then for now, then in zip((
            sim.events_executed, metrics.committed, metrics.aborted, metrics.restarts,
            sum(client.rejected for client in cluster.clients),
            network.messages_sent, network.bytes_sent,
        ), before)
    )
    latencies = metrics.latency.values()[before[9]:]
    waits = metrics.sequencing.values()[before[7]:]
    execs = metrics.execution.values()[before[8]:]
    if committed < 1 or not latencies:
        raise CheckFailed(f"no transaction committed in the {spec.window} s window")
    fingerprints = cluster.replica_fingerprints()
    virtual = {
        "committed": committed,
        "aborted": aborted,
        "restarts": restarts,
        "rejected": rejected,
        "events": events,
        "messages": messages,
        "bytes": nbytes,
        "digest": hashlib.sha256(repr(sorted(fingerprints.items())).encode()).hexdigest(),
        "latency_p50": percentile(latencies, 50),
        "latency_p99": percentile(latencies, 99),
        "lock_wait_mean": statistics.fmean(waits),
        "exec_mean": statistics.fmean(execs),
        "queued_mean": queued / epochs,
        "duration": sim.now - start,
    }
    return {"window_s": sum(epoch_s), "epoch_s": epoch_s, "window_ns": window_ns,
            "virtual": virtual}


def timed_rep(spec, seed: int, ledger=None) -> Dict[str, Any]:
    """One repetition: timed set-up, then the measured window."""
    gc.collect()
    if ledger is not None:
        ledger.install()
    try:
        began = perf_counter()
        cluster = build_and_warm(spec, seed)
        setup_s = perf_counter() - began
        result = measure_window(cluster, spec, ledger)
    finally:
        if ledger is not None:
            ledger.uninstall()
    result["setup_s"] = setup_s
    return result


# -- verification ------------------------------------------------------------


def verification_run(spec, seed: int) -> Dict[str, Any]:
    """Untimed run with history: the outputs every timed run must match.

    After the window the clients stop submitting and the cluster drains,
    so the checkers see a quiesced state. Returns the window's virtual
    outcome plus the count of failures the workload does not expect.
    """
    from repro.core.checkers import (
        check_conflict_order,
        check_epoch_contiguity,
        check_no_double_apply,
        check_serializability,
    )
    from repro.errors import ConsistencyError
    from repro.txn.result import TxnStatus

    window_open = [False]
    abort_reasons: Dict[str, int] = {}

    def observe_aborts(cluster) -> None:
        for node_id, node in cluster.nodes.items():
            scheduler = node.scheduler
            if node_id.replica != 0 or scheduler.on_complete is None:
                continue

            def hook(stxn, result, forward=scheduler.on_complete):
                if window_open[0] and result.status is TxnStatus.ABORTED:
                    abort_reasons[result.value] = abort_reasons.get(result.value, 0) + 1
                forward(stxn, result)

            scheduler.on_complete = hook

    gc.collect()
    cluster = build_and_warm(spec, seed, record_history=True, before_start=observe_aborts)
    window_open[0] = True
    result = measure_window(cluster, spec)
    window_open[0] = False
    virtual = result["virtual"]
    if sum(abort_reasons.values()) != virtual["aborted"]:
        raise CheckFailed(f"abort count {virtual['aborted']} != reasons seen {abort_reasons}")
    unexpected = sum(n for reason, n in abort_reasons.items()
                     if reason not in spec.expected_aborts)
    for client in cluster.clients:
        client.max_txns = client.completed
    cluster.quiesce()
    try:
        checked = {
            "serializability": check_serializability(cluster),
            "conflict_order": check_conflict_order(cluster),
            "no_double_apply": check_no_double_apply(cluster),
            "epoch_contiguity": check_epoch_contiguity(cluster),
        }
    except ConsistencyError as error:
        raise CheckFailed(f"verification run failed a checker: {error}") from error
    return {"virtual": virtual, "checked": checked, "abort_reasons": abort_reasons,
            "unexpected_failures": unexpected + virtual["rejected"]}


def require_match(reference: Dict[str, Any], reps: List[Dict[str, Any]], what: str) -> None:
    for index, rep in enumerate(reps):
        if rep["virtual"] != reference:
            diff = {key: (reference[key], rep["virtual"][key]) for key in reference
                    if rep["virtual"][key] != reference[key]}
            raise CheckFailed(
                f"{what} repetition {index} differs from the verification run: {diff}")


# -- metrics -----------------------------------------------------------------


def end_to_end_metrics(virtual: Dict[str, Any], reps: List[Dict[str, Any]],
                       peak_rss_mb: float) -> Dict[str, float]:
    window_s = statistics.median(rep["window_s"] for rep in reps)
    epoch_ms = [1e3 * sample for rep in reps for sample in rep["epoch_s"]]
    finished = virtual["committed"] + virtual["aborted"] + virtual["rejected"]
    return {
        "txns_per_host_s": virtual["committed"] / window_s,
        "events_per_host_s": virtual["events"] / window_s,
        "epoch_host_ms_p50": percentile(epoch_ms, 50),
        "epoch_host_ms_p90": percentile(epoch_ms, 90),
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "peak_rss_mb": peak_rss_mb,
        "virt_txns_per_s": virtual["committed"] / virtual["duration"],
        "virt_latency_ms_p50": 1e3 * virtual["latency_p50"],
        "virt_latency_ms_p99": 1e3 * virtual["latency_p99"],
        "commit_ratio": virtual["committed"] / finished,
    }


def layer_metrics(virtual: Dict[str, Any], traced: List[Dict[str, Any]],
                  untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics: host times are medians over traced repetitions."""
    commits = virtual["committed"]

    def self_us(layer: str) -> float:
        return statistics.median(rep["ledger"]["self_ns"][layer] for rep in traced) / 1e3 / commits

    ledger = traced[0]["ledger"]
    calls, counts, resumes = ledger["calls"], ledger["counts"], ledger["resumes"]
    return {
        "sim.kernel.self_us_per_txn": self_us("sim.kernel"),
        "sim.kernel.events_per_txn": virtual["events"] / commits,
        "sim.network.self_us_per_txn": self_us("sim.network"),
        "sim.network.msgs_per_txn": calls["Network.send"] / commits,
        "sim.network.bytes_per_txn": counts["bytes_sent"] / commits,
        "partition.self_us_per_txn": self_us("partition"),
        "partition.calls_per_txn": sum(calls.get(name, 0) for name in CATALOG_CALLS) / commits,
        "scheduler.self_us_per_txn": self_us("scheduler"),
        "scheduler.lockmanager.self_us_per_txn": self_us("scheduler.lockmanager"),
        "scheduler.lockmanager.requests_per_txn": counts["lock_requests"] / commits,
        "scheduler.executor.self_us_per_txn": self_us("scheduler.executor"),
        "scheduler.executor.resumes_per_txn": (
            sum(resumes[name] for name in EXECUTOR_GENERATORS) / commits),
        "sequencer.self_us_per_txn": self_us("sequencer"),
        "sequencer.txns_per_batch": counts["batched_txns"] / counts["batches"],
        "core.clients.self_us_per_txn": self_us("core.clients"),
        "workloads.generate_us_per_txn": self_us("workloads.generate"),
        "workloads.logic_us_per_txn": self_us("workloads.logic"),
        "txn.self_us_per_txn": self_us("txn"),
        "txn.ctx_ops_per_txn": sum(calls[name] for name in CONTEXT_OPS) / commits,
        "storage.self_us_per_txn": self_us("storage"),
        "storage.ops_per_txn": sum(calls[name] for name in STORAGE_OPS) / commits,
        "txn.ollp.useful_ratio": commits / (commits + virtual["restarts"]),
        "scheduler.lock_wait_ms_mean": 1e3 * virtual["lock_wait_mean"],
        "scheduler.executor.exec_ms_mean": 1e3 * virtual["exec_mean"],
        "scheduler.lockmanager.queued_mean": virtual["queued_mean"],
        "unattributed_share": statistics.median(
            rep["ledger"]["self_ns"]["unattributed"] / rep["window_ns"] for rep in traced),
        "trace.overhead_ratio": (
            statistics.median(rep["window_s"] for rep in traced)
            / statistics.median(rep["window_s"] for rep in untraced)),
    }


def check_traced(spec, virtual: Dict[str, Any], traced: List[Dict[str, Any]]) -> None:
    """Every boundary the workload must use fired; the wrappers saw all sends."""
    for rep in traced:
        ledger = rep["ledger"]
        seen = dict(ledger["calls"], **ledger["counts"], ollp_restarts=virtual["restarts"])
        for name in spec.must_fire:
            if name not in seen:
                raise CheckFailed(f"boundary {name!r} is not instrumented")
            if seen[name] == 0:
                raise CheckFailed(f"boundary {name!r} registered zero calls on {spec.name}")
        for name in spec.must_not_fire:
            if seen.get(name, 0) != 0:
                raise CheckFailed(f"boundary {name!r} fired {seen[name]} times on {spec.name}")
        if (seen["Network.send"] != virtual["messages"]
                or ledger["counts"]["bytes_sent"] != virtual["bytes"]):
            raise CheckFailed("Network.send wrapper missed messages the network counted")
    for key in ("calls", "counts", "resumes"):
        if any(rep["ledger"][key] != traced[0]["ledger"][key] for rep in traced):
            raise CheckFailed(f"traced repetitions disagree on exact {key}")


# -- environment -------------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp() -> Dict[str, Any]:
    from repro.accel import accel_active

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "accel": accel_active(),
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
    }


# -- main ----------------------------------------------------------------------


def repetitions(spec, seconds: float, trace: bool) -> int:
    """Timed repetitions (pairs when tracing) that fill ``seconds`` on the
    reference machine. Fixed per workload and ``seconds``, so a slower or
    faster host measures the same repetitions rather than a different mix."""
    if trace:
        # A pair costs about one untraced plus two untraced windows' time.
        return max(MIN_TRACED_PAIRS, round(seconds / (3 * spec.window_host_s)))
    return max(MIN_REPS, round(seconds / spec.window_host_s))


def run(spec, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    first_ledger: Optional[Any] = None
    # Import the cluster and workload modules outside the timed set-up.
    import repro.core.cluster  # noqa: F401
    spec.build(seed)
    for _ in range(repetitions(spec, seconds, trace)):
        # Untraced first: it also imports every lazily imported module, so
        # the ledger sees (and later restores) every name it patches.
        untraced.append(timed_rep(spec, seed))
        if trace:
            ledger = Ledger()
            ledger.keep_spans = first_ledger is None
            rep = timed_rep(spec, seed, ledger)
            rep["ledger"] = {"self_ns": dict(ledger.self_ns), "calls": dict(ledger.calls),
                             "total_ns": dict(ledger.total_ns), "counts": dict(ledger.counts),
                             "resumes": dict(ledger.resumes)}
            traced.append(rep)
            first_ledger = first_ledger or ledger
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verified = verification_run(spec, seed)
    virtual = verified["virtual"]
    require_match(virtual, untraced, "untraced")
    require_match(virtual, traced, "traced")
    record: Dict[str, Any] = {"verification": verified, "untraced": untraced}
    if trace:
        check_traced(spec, virtual, traced)
        metrics = layer_metrics(virtual, traced, untraced)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"{spec.name}-seed{seed}.trace.json"
        first_ledger.write_chrome_trace(str(trace_path), f"simbench {spec.name} seed {seed}")
        record["traced"] = traced
        record["chrome_trace"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = end_to_end_metrics(virtual, untraced, peak_rss_mb)
    reps = len(untraced) + len(traced)
    finished = virtual["committed"] + virtual["aborted"] + virtual["rejected"]
    record.update(metrics=metrics, attempted=finished * reps,
                  failed=verified["unexpected_failures"] * reps)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"simbench: no simulator sources under {ROOT / 'src'}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"]
             for metric in declared["end_to_end"] + declared["per_layer"]}
    if ({m["name"] for m in declared["end_to_end"]} != set(END_TO_END)
            or {m["name"] for m in declared["per_layer"]} != set(PER_LAYER)):
        print("simbench: BENCHMARK.json and simbench/spec.py list different metrics",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"simbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed

    stamp = environment_stamp()
    try:
        record = run(spec, seed, args.seconds, bool(args.trace))
    except (CheckFailed, LedgerError) as failure:
        print(f"simbench: CHECK FAILED: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    record.update(stamp=stamp, workload=spec.name, seed=seed, seconds=args.seconds,
                  trace=args.trace)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{spec.name}-seed{seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    metrics = record["metrics"]
    for name in sorted(metrics):
        print(f"  {name:42s} {metrics[name]:14.6g} {units[name]}", file=sys.stderr)
    print(f"simbench: {spec.name} seed {seed} stamp {json.dumps(stamp, sort_keys=True)} "
          f"record {out_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
