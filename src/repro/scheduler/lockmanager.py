"""Deterministic lock manager.

Shared/exclusive locks over this partition's keys, with one ironclad
rule (paper Section 3.1): lock requests are made in global-sequence
order, and each lock is granted to requesters strictly in request order
(readers may share). ``acquire`` never blocks — it queues requests and
reports, via the ``on_ready`` callback, whenever some transaction holds
*all* of its local locks and may start executing.

Implementation notes (this is the scheduler's hottest data structure):

- Each key's queue is an intrusive doubly-linked list of requests, so
  ``release`` unlinks in O(1) via per-txn backlinks instead of scanning.
- Each queue tracks two counters — queued WRITE requests and ungranted
  requests. Because grants always form a prefix of the queue (the head
  is granted the moment it reaches the front, and readers extend the
  granted prefix), the immediate-grant decision on acquire is counter
  arithmetic: a WRITE is granted iff the queue was empty; a READ is
  granted iff there are no writes and nothing ungranted ahead of it.
- An *uncontended* key — by far the common case at low contention —
  never allocates a queue (or even a request object): the table maps
  the key to a bare ``(seq, is_write)`` marker tuple, and a second
  request arriving promotes the marker to a real queue holding an
  equivalent granted request. Sole holders are always granted, so the
  promotion preserves the counter invariants.
- Keys are ordered by :func:`sort_token` (cached interned reprs)
  instead of ``sorted(..., key=repr)`` — same order, no repr per call.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import SchedulerError
from repro.partition.partitioner import Key, sort_token
from repro.txn.transaction import GlobalSeq, SequencedTxn


class LockMode(enum.Enum):
    READ = "read"
    WRITE = "write"


class _Request:
    __slots__ = ("seq", "mode", "granted", "prev", "next")

    def __init__(self, seq: GlobalSeq, mode: LockMode):
        self.seq = seq
        self.mode = mode
        self.granted = False
        self.prev: Optional[_Request] = None
        self.next: Optional[_Request] = None


class _LockQueue:
    """Doubly-linked request queue for one key, with grant counters."""

    __slots__ = ("head", "tail", "size", "writes", "ungranted")

    def __init__(self) -> None:
        self.head: Optional[_Request] = None
        self.tail: Optional[_Request] = None
        self.size = 0
        self.writes = 0      # queued WRITE requests (granted or not)
        self.ungranted = 0   # queued requests not yet granted

    def append(self, request: _Request) -> None:
        tail = self.tail
        if tail is None:
            self.head = self.tail = request
        else:
            tail.next = request
            request.prev = tail
            self.tail = request
        self.size += 1
        if request.mode is LockMode.WRITE:
            self.writes += 1
        if not request.granted:
            self.ungranted += 1

    def remove(self, request: _Request) -> None:
        prev, nxt = request.prev, request.next
        if prev is None:
            self.head = nxt
        else:
            prev.next = nxt
        if nxt is None:
            self.tail = prev
        else:
            nxt.prev = prev
        request.prev = request.next = None
        self.size -= 1
        if request.mode is LockMode.WRITE:
            self.writes -= 1
        if not request.granted:
            self.ungranted -= 1


class _TxnEntry:
    __slots__ = ("stxn", "pending", "requests")

    def __init__(self, stxn: SequencedTxn):
        self.stxn = stxn
        self.pending = 0
        # Backlinks for O(1) release: (key, request-or-marker) per lock
        # held/queued (marker = sole-holder tuple, see module notes).
        self.requests: List[Tuple[Key, object]] = []


class DeterministicLockManager:
    """Per-partition lock table with in-order grants."""

    def __init__(self, on_ready: Callable[[SequencedTxn], None]):
        self._on_ready = on_ready
        self._queues: Dict[Key, _LockQueue] = {}
        self._txns: Dict[GlobalSeq, _TxnEntry] = {}
        self._last_acquired: GlobalSeq = (-1, -1, -1)
        self.grants = 0
        self.immediate_grants = 0

    # -- introspection ------------------------------------------------------

    @property
    def active_txns(self) -> int:
        return len(self._txns)

    @property
    def queued_requests(self) -> int:
        """Total lock requests queued across all keys (granted or not)."""
        return sum(
            1 if entry.__class__ is tuple else entry.size
            for entry in self._queues.values()
        )

    def waiters_on(self, key: Key) -> int:
        """Requests queued (granted or not) on ``key``."""
        entry = self._queues.get(key)
        if entry is None:
            return 0
        return 1 if entry.__class__ is tuple else entry.size

    # -- acquisition --------------------------------------------------------

    def acquire(
        self,
        stxn: SequencedTxn,
        read_keys: Iterable[Key],
        write_keys: Iterable[Key],
    ) -> bool:
        """Queue all lock requests for ``stxn``; returns True if all
        granted immediately. MUST be called in increasing sequence order —
        that is the determinism invariant, and it is enforced."""
        if stxn.seq <= self._last_acquired:
            raise SchedulerError(
                f"lock requests out of sequence order: {stxn.seq} after "
                f"{self._last_acquired}"
            )
        self._last_acquired = stxn.seq
        if stxn.seq in self._txns:
            raise SchedulerError(f"duplicate lock acquisition for {stxn.seq}")

        write_set = set(write_keys)
        # A key both read and written gets one WRITE lock.
        return self._acquire_requests(
            stxn,
            sorted(write_set, key=sort_token),
            sorted(set(read_keys) - write_set, key=sort_token),
        )

    def acquire_plan(
        self, stxn: SequencedTxn, plan: Tuple[Tuple[Key, ...], Tuple[Key, ...]]
    ) -> bool:
        """:meth:`acquire` with a precomputed ``(write_keys, read_keys)``
        plan.

        The plan halves must be what acquire would build: write keys in
        sort-token order, then read-*only* keys in sort-token order. The
        scheduler builds it from its already sorted local slice, so
        admission skips the per-call set algebra and sorting.
        """
        if stxn.seq <= self._last_acquired:
            raise SchedulerError(
                f"lock requests out of sequence order: {stxn.seq} after "
                f"{self._last_acquired}"
            )
        self._last_acquired = stxn.seq
        if stxn.seq in self._txns:
            raise SchedulerError(f"duplicate lock acquisition for {stxn.seq}")
        return self._acquire_requests(stxn, plan[0], plan[1])

    def _acquire_requests(self, stxn: SequencedTxn, write_keys, read_keys) -> bool:
        if not write_keys and not read_keys:
            raise SchedulerError(f"transaction {stxn.seq} requests no local locks")

        entry = _TxnEntry(stxn)
        seq = stxn.seq
        self._txns[seq] = entry
        queues = self._queues
        queues_get = queues.get
        backlinks = entry.requests
        pending = 0
        for mode, keys in ((LockMode.WRITE, write_keys), (LockMode.READ, read_keys)):
            is_write = mode is LockMode.WRITE
            for key in keys:
                holder = queues_get(key)
                if holder is None:
                    # Uncontended: a bare (seq, is_write) marker is the
                    # table entry — no request object, no queue.
                    marker = (seq, is_write)
                    queues[key] = marker
                    backlinks.append((key, marker))
                    continue
                if holder.__class__ is tuple:
                    # Second arrival: promote the sole (granted) marker
                    # to a real queue holding an equivalent request,
                    # then join it. The old holder's backlink is swapped
                    # for the new request so its release still unlinks.
                    old = _Request(
                        holder[0],
                        LockMode.WRITE if holder[1] else LockMode.READ,
                    )
                    old.granted = True
                    queue = _LockQueue()
                    queue.append(old)
                    queues[key] = queue
                    owner_links = self._txns[holder[0]].requests
                    for index in range(len(owner_links)):
                        if owner_links[index][1] is holder:
                            owner_links[index] = (key, old)
                            break
                else:
                    queue = holder
                request = _Request(seq, mode)
                # Grant-on-arrival: a new request is granted iff it joins
                # the all-granted prefix — the queue is nonempty here, so
                # a WRITE always waits; a READ joins iff no writes are
                # queued and nothing ahead still waits.
                if is_write:
                    request.granted = False
                    pending += 1
                else:
                    request.granted = queue.writes == 0 and queue.ungranted == 0
                    if not request.granted:
                        pending += 1
                queue.append(request)
                backlinks.append((key, request))
        entry.pending = pending
        if pending == 0:
            self.immediate_grants += 1
            self.grants += 1
            self._on_ready(stxn)
            return True
        return False

    def release(self, stxn: SequencedTxn) -> None:
        """Release all of ``stxn``'s locks; newly unblocked transactions
        are reported through ``on_ready``."""
        entry = self._txns.pop(stxn.seq, None)
        if entry is None:
            raise SchedulerError(f"release of unknown transaction {stxn.seq}")
        queues = self._queues
        txns = self._txns
        ready: List[SequencedTxn] = []
        key = None
        try:
            for key, request in entry.requests:
                holder = queues[key]
                if holder is request:
                    # Sole uncontended holder: drop the table entry.
                    del queues[key]
                    continue
                queue = holder
                queue.remove(request)
                if queue.size == 0:
                    del queues[key]
                    continue
                if queue.ungranted == 0:
                    continue  # everyone left already holds the lock
                for newly in self._grant_eligible(queue):
                    waiter = txns[newly]
                    waiter.pending -= 1
                    if waiter.pending == 0:
                        ready.append(waiter.stxn)
        except KeyError:
            raise SchedulerError(f"lock queue missing for key {key!r}") from None
        # Report in sequence order: with several transactions unblocked by
        # one release, the earlier-sequenced one must start first.
        if ready:
            ready.sort()
            for waiter_stxn in ready:
                self.grants += 1
                self._on_ready(waiter_stxn)

    # -- grant rule -----------------------------------------------------------

    def _grant_eligible(self, queue: _LockQueue) -> List[GlobalSeq]:
        """Grant the head, plus a shared-read prefix; returns newly granted."""
        newly: List[GlobalSeq] = []
        head = queue.head
        assert head is not None
        if not head.granted:
            head.granted = True
            queue.ungranted -= 1
            newly.append(head.seq)
        if head.mode is LockMode.READ:
            request = head.next
            while request is not None and request.mode is LockMode.READ:
                if not request.granted:
                    request.granted = True
                    queue.ungranted -= 1
                    newly.append(request.seq)
                request = request.next
        return newly
