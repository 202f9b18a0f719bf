"""The discrete-event simulation loop.

:class:`Simulator` keeps a binary heap of ``(time, sequence, fn, args,
owner)`` entries. Equal-time entries run in scheduling order (FIFO),
which makes runs bit-for-bit reproducible for a fixed seed — a property
the replica-consistency experiments depend on.

Entries may carry an *owner* tag (any hashable). Owners can be
suspended — their due entries are parked instead of dispatched — and
later resumed, which replays the parked entries in their original order.
This is the kernel-level hook the fault injector uses to crash and
restart a node's timer-driven processes without losing determinism.

The dispatch loop is the hottest code in the repository: every message
hop, CPU charge, and timer in a run passes through it. There is one
copy of it, ``Simulator._dispatch``, behind both ``run`` and
``run_until_triggered``. It binds the heap, ``heappop`` and the
suspended-owner set to locals and skips the park branch entirely while
no owner is suspended (the common case — fault-free runs never pay for
crash support).
"""

from __future__ import annotations

import heapq
from math import inf
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process

HeapEntry = Tuple[float, int, Callable[..., None], tuple, Optional[Hashable]]

# Why Simulator._dispatch returned.
_DRAINED = "drained"
_HORIZON = "horizon"
_STOPPED = "stopped"


class Simulator:
    """A deterministic discrete-event simulator (virtual time in seconds)."""

    def __init__(self, sanitize: bool = False) -> None:
        self.now: float = 0.0
        self._heap: List[HeapEntry] = []
        self._seq = 0
        self._running = False
        self.events_executed = 0
        # Determinism sanitizer: armed around every run()/
        # run_until_triggered() when requested (ClusterConfig.sanitize).
        # None in the common case, so the hot loop pays one attribute
        # check per run() call, not per event.
        self._sanitizer = None
        if sanitize:
            from repro.analysis.sanitizer import DeterminismSanitizer

            self._sanitizer = DeterminismSanitizer()
        # Tally of schedule_at calls whose target time was already in the
        # past and got clamped to "now" — visible in metric snapshots so
        # model bugs that schedule backwards in time do not pass silently.
        self.schedule_at_clamped = 0
        # Crash/restart support: owners whose entries are parked on pop.
        self._suspended: Set[Hashable] = set()
        self._parked: Dict[Hashable, List[Tuple[Callable[..., None], tuple]]] = {}

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args, None))

    def schedule_owned(
        self, owner: Optional[Hashable], delay: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Like :meth:`schedule`, tagging the entry with ``owner``.

        Owned entries are subject to :meth:`suspend_owner` /
        :meth:`resume_owner` (crash/restart of a node's processes).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args, owner))

    def schedule_many(
        self,
        owner: Optional[Hashable],
        delay: float,
        calls: Iterable[Tuple[Callable[..., None], tuple]],
    ) -> None:
        """Bulk-insert ``(fn, args)`` pairs at one delay, in order.

        Equivalent to calling :meth:`schedule_owned` once per pair —
        consecutive sequence numbers preserve FIFO order among the batch
        and relative to everything else — but hoists the time arithmetic
        and method lookups out of the loop.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        when = self.now + delay
        seq = self._seq
        heap = self._heap
        push = heapq.heappush
        for fn, args in calls:
            seq += 1
            push(heap, (when, seq, fn, args, owner))
        self._seq = seq

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute virtual time ``when``.

        Past times are clamped to "now" (and tallied in
        ``schedule_at_clamped`` — a nonzero count usually means a model
        bug computed a timestamp before the current virtual time).
        """
        delay = when - self.now
        if delay < 0.0:
            self.schedule_at_clamped += 1
            delay = 0.0
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args, None))

    # -- crash/restart hooks --------------------------------------------

    def suspend_owner(self, owner: Hashable) -> None:
        """Freeze ``owner``: its due entries are parked, not dispatched.

        Models a crashed (or stalled) component whose timers must not
        fire while it is down. Parked entries keep their original order.
        """
        if owner is None:
            raise SimulationError("cannot suspend the anonymous owner")
        self._suspended.add(owner)

    def resume_owner(self, owner: Hashable) -> None:
        """Unfreeze ``owner`` and replay its parked entries now, in order."""
        self._suspended.discard(owner)
        parked = self._parked.pop(owner, None)
        if parked:
            self.schedule_many(owner, 0.0, parked)

    def discard_parked(self, owner: Hashable) -> int:
        """Drop ``owner``'s parked entries (a restart that loses volatile
        timers rather than replaying them). Returns the number dropped."""
        return len(self._parked.pop(owner, []))

    def suspended(self, owner: Hashable) -> bool:
        return owner in self._suspended

    # -- event constructors ---------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers after ``delay``."""
        return Timeout(self, delay, value)

    def all_of(self, events) -> AllOf:
        """An event that triggers when all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """An event that triggers when the first of ``events`` triggers."""
        return AnyOf(self, events)

    def process(self, generator: Generator) -> Process:
        """Start a generator as a simulation process."""
        return Process(self, generator)

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        Stops when the queue is empty, when virtual time would pass
        ``until``, or after ``max_events`` dispatches (a runaway guard).
        Returns the final virtual time.
        """
        horizon = inf if until is None else until
        if self._dispatch(horizon, max_events, None) is _HORIZON:
            self.now = until  # type: ignore[assignment]
        elif until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until_triggered(
        self,
        event: Event,
        limit: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> Any:
        """Run until ``event`` triggers; return its value (raise if it failed).

        "Triggers" means its callbacks have run, so waiters on ``event``
        see its value before this returns. Later entries stay queued.
        ``max_events`` bounds dispatches exactly like :meth:`run` — a
        runaway guard for drains that never converge.
        """
        horizon = inf if limit is None else limit
        reason = self._dispatch(horizon, max_events, event)
        if reason is _DRAINED:
            raise SimulationError("event queue drained before event triggered")
        if reason is _HORIZON:
            raise SimulationError(f"event not triggered before t={limit}")
        if event.ok:
            return event.value
        raise event.value

    def _dispatch(
        self, horizon: float, max_events: Optional[int], stop: Optional[Event]
    ) -> str:
        """The dispatch loop behind :meth:`run` and :meth:`run_until_triggered`.

        Pops entries in ``(time, sequence)`` order until the queue is
        empty (returns ``_DRAINED``), the next entry lies past
        ``horizon`` (``_HORIZON``), or ``stop`` has run its callbacks
        (``_STOPPED``); raises after ``max_events`` dispatches.

        The only per-event test is ``executed >= check``. Without a stop
        event ``check`` is the budget, so :meth:`run` pays nothing for
        the stop support; with one, ``check`` trails ``executed`` by one
        and every dispatch looks at ``stop``.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        budget = inf if max_events is None else max_events
        check = budget if stop is None else 1
        heap = self._heap
        pop = heapq.heappop
        suspended = self._suspended
        executed = 0
        reason = _DRAINED
        self._running = True
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.__enter__()
        try:
            if stop is not None and stop._callbacks is None:
                return _STOPPED
            while heap:
                entry = heap[0]
                when = entry[0]
                if when > horizon:
                    reason = _HORIZON
                    break
                pop(heap)
                self.now = when
                if suspended:
                    owner = entry[4]
                    if owner is not None and owner in suspended:
                        self._parked.setdefault(owner, []).append((entry[2], entry[3]))
                        continue
                entry[2](*entry[3])
                executed += 1
                if executed >= check:
                    if executed >= budget:
                        raise SimulationError(
                            f"simulation exceeded max_events={max_events}; "
                            "likely a livelock in the model"
                        )
                    if stop._callbacks is None:  # type: ignore[union-attr]
                        reason = _STOPPED
                        break
                    check = executed + 1
        finally:
            self.events_executed += executed
            self._running = False
            if sanitizer is not None:
                sanitizer.__exit__(None, None, None)
        return reason

    @property
    def pending_events(self) -> int:
        """Number of entries currently queued."""
        return len(self._heap)

    def register_metrics(self, registry, prefix: str = "sim") -> None:
        """Expose kernel tallies as gauges in ``registry``."""
        registry.gauge(f"{prefix}.events_executed", lambda: self.events_executed)
        registry.gauge(f"{prefix}.pending_events", lambda: self.pending_events)
        registry.gauge(f"{prefix}.now", lambda: self.now)
        registry.gauge(f"{prefix}.schedule_at_clamped", lambda: self.schedule_at_clamped)
