"""Host-time ledger for a traced run, measured from outside the program.

The ledger wraps the public functions at each module boundary of the
simulator (see ``BOUNDARIES``) and keeps a stack of open spans. When a
span closes, its duration minus the time its child spans covered is the
*self time* of its layer. The stack's base frame is the traced window,
so the self times of all layers plus the window's own self time (the
``unattributed`` share) add up exactly to the window's host time.

Every boundary counts its calls and the host time spent inside it. A few boundaries also tally exact
quantities from their arguments (lock requests, message bytes, batch
sizes). The hottest leaf boundaries (``Catalog`` lookups, ``KVStore``
access, ``TxnContext`` reads and writes) are only aggregated as count
plus total time; the other boundaries are also kept as individual spans
while ``recording`` is set, for the Chrome ``trace_event`` export.

Wrappers are installed on the classes and module globals before a
cluster is built, so bound methods that components capture at
construction are the wrapped ones, and removed again afterwards.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import sys
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

UNATTRIBUTED = "unattributed"

# Layers whose self times the ledger reports, named after their modules.
LAYERS = (
    "sim.kernel",
    "sim.network",
    "partition",
    "scheduler",
    "scheduler.lockmanager",
    "scheduler.executor",
    "sequencer",
    "core.clients",
    "workloads.generate",
    "workloads.logic",
    "txn",
    "storage",
)

ALL = "*"
# Methods never wrapped by ALL: the probe the benchmark itself calls
# between epochs.
_SKIP = {"lock_occupancy"}

_CATALOG_ROUTING = (
    "partition_of",
    "partitions_of",
    "partition_of_at",
    "partitions_of_at",
    "participants_at",
    "active_participants_at",
    "reply_partition_at",
    "routing_version_at",
    "origins_at",
    "writeset_targets",
    "hosting_of",
)

EXECUTOR_GENERATORS = ("run_transaction", "run_migration", "apply_replicated")

# (module, class or None for module functions, names, layer, record spans)
BOUNDARIES: Tuple[Tuple[str, Optional[str], Any, str, bool], ...] = (
    ("repro.sim.kernel", "Simulator", ("run",), "sim.kernel", True),
    ("repro.sim.network", "Network", ("send", "_deliver_batch", "_deliver"), "sim.network", True),
    ("repro.partition.catalog", "Catalog", _CATALOG_ROUTING, "partition", False),
    ("repro.scheduler.scheduler", "Scheduler", ALL, "scheduler", True),
    ("repro.scheduler.lockmanager", "DeterministicLockManager", ALL, "scheduler.lockmanager", True),
    ("repro.scheduler.executor", None, EXECUTOR_GENERATORS, "scheduler.executor", True),
    ("repro.sequencer.sequencer", "Sequencer", ALL, "sequencer", True),
    ("repro.sequencer.replication", "NoReplication", ALL, "sequencer", True),
    ("repro.core.clients", "ClosedLoopClient", ALL, "core.clients", True),
    ("repro.txn.ollp", None, ("reconnoiter",), "txn", True),
    ("repro.txn.context", "TxnContext", ("__init__", "read", "write", "delete"), "txn", False),
    ("repro.txn.transaction", "Transaction",
     ("create", "sorted_reads", "sorted_writes", "participants", "active_participants",
      "reply_partition", "is_multipartition", "all_keys"), "txn", False),
    ("repro.storage.kvstore", "KVStore", ("get", "get_many", "put", "delete", "apply_writes"),
     "storage", False),
    ("repro.storage.engine", "StorageEngine", ("cold_keys_of", "is_cold", "read", "read_many"),
     "storage", False),
    ("repro.workloads.tpcc.workload", "TpccWorkload", ("generate",), "workloads.generate", True),
    ("repro.workloads.microbenchmark", "Microbenchmark", ("generate",), "workloads.generate", True),
    # Dispatch and bookkeeping code outside the named layers: its time is
    # reported as unattributed instead of inflating the caller's layer.
    ("repro.core.node", "CalvinNode", ("handle_message", "send"), UNATTRIBUTED, False),
    ("repro.core.cluster", "CalvinCluster", ("_completion_hook", "analytics_read"),
     UNATTRIBUTED, False),
    ("repro.core.metrics", "Metrics", ("record_completion", "record_latency"), UNATTRIBUTED, False),
)

# Boundaries whose calls are counted as one operation of their layer.
CATALOG_CALLS = tuple(f"Catalog.{name}" for name in _CATALOG_ROUTING)
STORAGE_OPS = tuple(
    f"KVStore.{name}" for name in ("get", "get_many", "put", "delete", "apply_writes"))
CONTEXT_OPS = ("TxnContext.read", "TxnContext.write", "TxnContext.delete")
LOGIC = "procedure.logic"


def _tally_lock_requests(counts, args, kwargs) -> None:
    """DeterministicLockManager.acquire(self, stxn, read_keys, write_keys)."""
    writes = set(args[3])
    reads = set(args[2]) - writes
    counts["lock_requests"] += len(writes) + len(reads)
    counts["shared_lock_requests"] += len(reads)


def _tally_lock_plan(counts, args, kwargs) -> None:
    """DeterministicLockManager.acquire_plan(self, stxn, (writes, reads))."""
    writes, reads = args[2]
    counts["lock_requests"] += len(writes) + len(reads)
    counts["shared_lock_requests"] += len(reads)


def _tally_send(counts, args, kwargs) -> None:
    """Network.send(self, src, dst, message, size=256)."""
    size = args[4] if len(args) > 4 else kwargs.get("size", 256)
    counts["bytes_sent"] += size
    if type(args[3]).__name__ == "RemoteRead":
        counts["remote_read_sends"] += 1


def _tally_dispatch(counts, args, kwargs) -> None:
    """Sequencer.dispatch(self, epoch, txns)."""
    counts["batches"] += 1
    counts["batched_txns"] += len(args[2])


TALLIES: Dict[str, Callable] = {
    "DeterministicLockManager.acquire": _tally_lock_requests,
    "DeterministicLockManager.acquire_plan": _tally_lock_plan,
    "Network.send": _tally_send,
    "Sequencer.dispatch": _tally_dispatch,
}
COUNTS = (
    "lock_requests", "shared_lock_requests", "bytes_sent", "remote_read_sends",
    "batches", "batched_txns",
)


class LedgerError(Exception):
    """The ledger's own accounting does not add up."""


def _txn_id(args) -> Optional[int]:
    """The transaction a call works on, when an argument names one: a
    transaction, a sequenced transaction, a context or a message carrying
    one of those or a result."""
    for arg in args:
        for attr in ("txn", "result"):
            inner = getattr(arg, attr, None)
            if inner is not None:
                arg = inner
                break
        txn_id = getattr(arg, "txn_id", None)
        if isinstance(txn_id, int):
            return txn_id
    return None


class Ledger:
    """Self time per layer, calls per boundary and exact tallies."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS + (UNATTRIBUTED,)}
        self.calls: Dict[str, int] = {}
        # Host time inside each boundary, children included.
        self.total_ns: Dict[str, int] = {}
        # Generator boundaries: resumes of the generators each call spawned.
        self.resumes: Dict[str, int] = {}
        self.counts: Dict[str, int] = {name: 0 for name in COUNTS}
        # (boundary, layer, start_ns, duration_ns, txn_id) while recording.
        self.spans: List[Tuple[str, str, int, int, Optional[int]]] = []
        self.recording = False
        # Whether this ledger keeps spans at all (the runner keeps one
        # traced repetition's worth for the Chrome trace).
        self.keep_spans = False
        # Child-time accumulator per open span; index 0 is the window.
        self._stack: List[int] = [0]
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._window_start = 0
        self._paused_at = 0
        # Where span timestamps count from (the window start, unpaused).
        self._trace_origin = 0

    # -- window ----------------------------------------------------------------

    def begin_window(self) -> None:
        """Zero every tally and open the window frame (no span may be open)."""
        if len(self._stack) != 1:
            raise LedgerError(f"ledger stack not empty at window start: {self._stack}")
        for table in (self.self_ns, self.calls, self.total_ns, self.resumes, self.counts):
            for name in table:
                table[name] = 0
        self.spans.clear()
        self._stack[0] = 0
        self._window_start = self._trace_origin = perf_counter_ns()

    def pause(self) -> None:
        """Stop the window clock (between epochs, while no span is open)."""
        self._paused_at = perf_counter_ns()

    def resume(self) -> None:
        """Restart the window clock; paused time is left out of the window."""
        if self._paused_at:
            self._window_start += perf_counter_ns() - self._paused_at
            self._paused_at = 0

    def end_window(self) -> int:
        """Close the window frame; return its host time in ns.

        Raises unless every span closed and the layer self times plus the
        unattributed time add up exactly to the window.
        """
        window_ns = perf_counter_ns() - self._window_start
        if len(self._stack) != 1:
            raise LedgerError(f"ledger stack not empty at window end: {self._stack}")
        self.self_ns[UNATTRIBUTED] += window_ns - self._stack[0]
        total = sum(self.self_ns.values())
        if total != window_ns:
            raise LedgerError(f"layer self times sum to {total} ns, window is {window_ns} ns")
        negative = [layer for layer, ns in self.self_ns.items() if ns < 0]
        if negative:
            raise LedgerError(f"negative self time in layers {negative}")
        return window_ns

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn: Callable, boundary: str, layer: str, record: bool) -> Callable:
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        total_ns = self.total_ns
        counts = self.counts
        tally = TALLIES.get(boundary)
        ledger = self
        calls.setdefault(boundary, 0)
        total_ns.setdefault(boundary, 0)

        def wrapper(*args, **kwargs):
            calls[boundary] += 1
            if tally is not None:
                tally(counts, args, kwargs)
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self_ns[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                total_ns[boundary] += elapsed
                if record and ledger.recording:
                    ledger.spans.append((boundary, layer, start, elapsed, _txn_id(args)))

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn: Callable, boundary: str, layer: str) -> Callable:
        """Wrap a generator function so each resume is one span."""
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        total_ns = self.total_ns
        resumes = self.resumes
        ledger = self
        calls.setdefault(boundary, 0)
        total_ns.setdefault(boundary, 0)
        resumes.setdefault(boundary, 0)

        def traced(gen, txn_id):
            value, error = None, None
            while True:
                resumes[boundary] += 1
                stack.append(0)
                start = perf_counter_ns()
                try:
                    target = gen.send(value) if error is None else gen.throw(error)
                    done = None
                except StopIteration as stop:
                    done = stop
                finally:
                    elapsed = perf_counter_ns() - start
                    self_ns[layer] += elapsed - stack.pop()
                    stack[-1] += elapsed
                    total_ns[boundary] += elapsed
                    if ledger.recording:
                        ledger.spans.append((boundary, layer, start, elapsed, txn_id))
                if done is not None:
                    return done.value
                try:
                    value, error = (yield target), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # delivered into the wrapped generator
                    value, error = None, exc

        def wrapper(*args, **kwargs):
            calls[boundary] += 1
            return traced(fn(*args, **kwargs), _txn_id(args))

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_procedure_register(self, original: Callable) -> Callable:
        """Wrap each registered procedure's logic, recheck and reconnoiter."""
        ledger = self

        def register(registry, procedure):
            changes = {
                field: ledger._wrap(getattr(procedure, field), LOGIC, "workloads.logic", True)
                for field in ("logic", "recheck", "reconnoiter")
                if getattr(procedure, field) is not None
            }
            return original(registry, dataclasses.replace(procedure, **changes))

        return register

    # -- install / uninstall -----------------------------------------------------

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        had_own = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), had_own))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every boundary; call before the cluster is built."""
        if self._patches:
            raise RuntimeError("ledger already installed")
        for module_name, class_name, names, layer, record in BOUNDARIES:
            module = importlib.import_module(module_name)
            if class_name is None:
                for name in names:
                    original = getattr(module, name)
                    wrapped = self._wrap_function(original, name, layer, record)
                    # Also every module that imported the function by name.
                    for other in list(sys.modules.values()):
                        if (getattr(other, "__name__", "").startswith("repro")
                                and getattr(other, name, None) is original):
                            self._patch(other, name, wrapped)
                continue
            cls = getattr(module, class_name)
            if names == ALL:
                names = [
                    name for name, value in vars(cls).items()
                    if inspect.isfunction(value) and name not in _SKIP
                    and not (name.startswith("__") and name.endswith("__"))
                ]
            for name in names:
                raw = vars(cls)[name]
                boundary = f"{class_name}.{name}"
                if isinstance(raw, staticmethod):
                    fn = raw.__func__
                    self._patch(cls, name, staticmethod(
                        self._wrap_function(fn, boundary, layer, record)))
                else:
                    self._patch(cls, name, self._wrap_function(raw, boundary, layer, record))
        from repro.txn.procedures import ProcedureRegistry

        self._patch(ProcedureRegistry, "register",
                    self._wrap_procedure_register(ProcedureRegistry.register))

    def _wrap_function(self, fn: Callable, boundary: str, layer: str, record: bool) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, boundary, layer)
        return self._wrap(fn, boundary, layer, record)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- export ------------------------------------------------------------------

    def write_chrome_trace(self, path: str, label: str) -> int:
        """Write the recorded spans as Chrome ``trace_event`` JSON.

        One process per run, one thread per transaction (thread 0 for
        spans that carry none); times are host microseconds from the
        window start, pauses included. Returns the number of spans written.
        """
        origin = self._trace_origin
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": label}}
        ]
        for boundary, layer, start, elapsed, txn_id in self.spans:
            event = {
                "name": boundary,
                "cat": layer,
                "ph": "X",
                "pid": 1,
                "tid": txn_id or 0,
                "ts": (start - origin) / 1e3,
                "dur": elapsed / 1e3,
            }
            if txn_id is not None:
                event["args"] = {"txn_id": txn_id}
            events.append(event)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(self.spans)
