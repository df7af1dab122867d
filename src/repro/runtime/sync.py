"""Synchronization for the real runtimes: one interface, two syncs.

The effect protocol (:mod:`repro.core.effects`) asks a runtime for four
things and nothing else, so that is the whole interface here:

``acquire(lock_id) -> bool``
    Take the lock; returns whether the first attempt failed (the
    acquisition was *contended*).
``release(lock_id)``
    Give it up.
``wait(chan, lock_id)``
    ``WaitOn``: called holding the circuit lock; releases it, sleeps
    until a wake (or spuriously), returns holding it again.
``wake(chan) -> int``
    ``Wake``: resume every sleeper of the channel; returns how many it
    resumed (0 where the host cannot tell).

:class:`ProcSync` hosts them for every set of workers that shares an
ancestor — threads of one process (``ctx`` is the ``threading`` module)
and forked processes (a ``multiprocessing`` context) — on shared wait
bytes plus one semaphore per worker.  :class:`repro.runtime.posix.FlockSync`
hosts them on flock files for processes that only share a segment's
*name*: the kernel drops a flock when its holder dies, where a named
semaphore held by a dead process stays taken.  ``sync.bind(rank)``
hands each worker its own handle (shared locks, private counters and
held-lock list), so the counters are exact without any locking of
their own.

Why processes do not simply use ``multiprocessing.Lock`` and
``multiprocessing.Condition``
------------------------------------------------------------------
MPF's lock sections are a few dozen instructions (paper §3.1) and the
Balance's locks were busy-wait hardware locks.  A bare
``multiprocessing.Lock`` is a POSIX semaphore that goes to a futex sleep
on the *first* failed attempt, and ``Condition.notify_all`` re-takes the
circuit lock and then blocks until every sleeper acknowledges.  Between
two pinned processes that turned a 12 µs ring send into 55-70 µs and
made the two-CPU pipe 3.5x slower than the same pipe confined to one CPU
(ledger, ``procs_pipe_ring``: 13.1-14.3k msgs/s on two CPUs, 48-49k
under ``taskset -c 0``).  :class:`ProcSync` spins briefly — always through
``sched_yield``, so a host with fewer CPUs than processes hands the CPU
to the lock holder instead of burning a timeslice against it — and only
then sleeps.  Threads take the same path: its lock-free wake skip spares
them a condition variable's ``notify_all`` under the circuit lock on
every ``Wake``.
"""

from __future__ import annotations

import copy
import mmap
import os
import struct
from time import perf_counter_ns

from ..core.layout import MPFConfig
from ..core.protocol import FIRST_LNVC_LOCK

__all__ = [
    "COUNTERS",
    "LOCK_SPIN_NS",
    "WAIT_SPIN_NS",
    "SpinBudget",
    "SyncBase",
    "ProcSync",
]

#: Adaptive-lock spin budget (mechanism L): longer than the longest lock
#: section the library has, on a slow spell of the host.  One park/unpark
#: round trip between two pinned processes — ``a.release(); b.acquire()``
#: against ``a.acquire(); b.release()`` on two
#: ``multiprocessing.Semaphore`` — measures 45-50 µs on the 2-vCPU
#: reference host, and a ring lock section is 10-20 µs of Python (the
#: ring pipe's contended acquires wait 2 µs at the median, 8 µs at p99),
#: so one round trip — the classic 2-competitive budget — would do for the
#: ring.  The free-list transport allocates and reaps a message's whole
#: block chain under a lock (up to 205 blocks): the ledger's free-list
#: sender waits 12 µs at the median, 69 µs at p90 and 94-138 µs at p99,
#: and the host slows by up to 1.7x for minutes (p99 -> 235 µs).  A 50 µs
#: budget sits inside that distribution — a quarter of the contended
#: acquires outlast it and go to the futex, more when the host slows —
#: and the pipe's calibrated rate then reads 6.4-6.9k msgs/s in some runs
#: and 8.3k in others (quartile distance over ten runs 1.5-1.7k).  500 µs
#: is twice the slowed p99: 0-5 acquires of 8,000 messages outlast it,
#: the rate reads 7.3-8.8k across slow spells (quartile distance 0.7k,
#: 0.09k on a quiet host), the ring and the one-CPU runs read the same,
#: and CPU per message falls (0.219 -> 0.206 s/kmsg).
LOCK_SPIN_NS = 500_000

#: Waiter spin budget (mechanism W) before a ``WaitOn`` parks: one peer
#: send on a slow spell of the host.  In a streaming pipe the next
#: message is one send away, and a waiter that parks pays the 45-50 µs
#: round trip on top of the wait *and* makes its waker pay a semaphore
#: post (7-9 µs).  The free-list receiver's waits in the stream last
#: 30 µs at the median and 84-106 µs at p90 (a 2048 B send is 200 µs), so
#: a 100 µs budget parks 50-1,600 of them per 8,000 messages depending
#: on the host's speed; 500 µs parks 1-2.  An idle receiver burns at most
#: 0.5 ms per wait before it sleeps.
WAIT_SPIN_NS = 500_000

#: Per-worker counters every sync keeps (``RunResult.sync[name]``).
#: ``acquires`` counts every lock acquisition, the internal ones of
#: ``wait``/``wake`` included, and equals first-try successes plus
#: ``acquired_by_spin`` plus ``acquired_by_block``.  Every ``wake`` is
#: either ``wakes_skipped`` (no lock taken) or ``wakes_locked``;
#: ``wakes_posted`` counts semaphore tokens, one per ``parked`` sleeper.
COUNTERS = (
    "acquires", "acquired_by_spin", "acquired_by_block",
    "waits", "woke_spinning", "parked",
    "wakes_skipped", "wakes_locked", "wakes_posted",
)


class SpinBudget:
    """A bounded yield-spin: ``while not ready() and budget.spin(): ...``.

    ``spin()`` yields the CPU once and reports whether the budget still
    had time left *before* the yield.  On an oversubscribed host one
    yield may outlast the whole budget — which is the point: the caller
    re-tests its condition after the peer has run and only then gives up.
    """

    __slots__ = ("deadline",)

    def __init__(self, budget_ns: int) -> None:
        self.deadline = perf_counter_ns() + budget_ns

    def spin(self) -> bool:
        if perf_counter_ns() >= self.deadline:
            return False
        os.sched_yield()
        return True


class SyncBase:
    """Counters, binding, the ``WaitOn`` sanity check, and the plain
    try-then-block lock over ``self.locks`` (anything with
    ``acquire(blocking)`` / ``release()``)."""

    rank = 0
    locks: list

    def __init__(self) -> None:
        self._zero()

    def _zero(self) -> None:
        for name in COUNTERS:
            setattr(self, name, 0)
        #: Lock ids the worker holds, in acquisition order; kept by
        #: :func:`~repro.runtime.threads.drive` for the deadlock dump.
        self.held: list[int] = []

    def bind(self, rank: int) -> "SyncBase":
        """A handle for worker ``rank``: shared primitives, own counters."""
        handle = copy.copy(self)
        handle._zero()
        handle.rank = rank
        return handle

    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in COUNTERS}

    def acquire(self, lock_id: int) -> bool:
        self.acquires += 1
        lock = self.locks[lock_id]
        if lock.acquire(False):
            return False
        lock.acquire()
        self.acquired_by_block += 1
        return True

    def release(self, lock_id: int) -> None:
        self.locks[lock_id].release()

    @staticmethod
    def check_wait(chan: int, lock_id: int) -> None:
        """``WaitOn`` must name the channel's own circuit lock: ``wake``
        takes exactly that lock to find the sleepers."""
        expected = FIRST_LNVC_LOCK + chan
        if lock_id != expected:
            raise RuntimeError(
                f"WaitOn(chan={chan}) under lock {lock_id}; "
                f"expected circuit lock {expected}"
            )


_IDLE, _SPINNING, _PARKED = 0, 1, 2

#: What a worker is blocked on, published for the runtime's deadlock dump.
_RUNNING, _ON_LOCK, _ON_CHAN, _DONE = 0, 1, 2, 3
_MAX_HELD = 5
_STATUS = struct.Struct(f"3i{_MAX_HELD}i")  # kind, id, nheld, held...


class ProcSync(SyncBase):
    """Spin-then-park locks and wait channels for threads or forked
    processes.

    ``ctx`` supplies ``Lock()`` and ``Semaphore(0)``: a ``multiprocessing``
    context for forked processes, the ``threading`` module for threads
    (to which the anonymous mmap is plain shared memory).

    Four cooperating mechanisms (ablation in docs/performance.md):

    **L, the adaptive lock.**  ``acquire(False)``; then a yield-spin
    try-loop for :data:`LOCK_SPIN_NS`; only then the blocking (futex)
    acquire.

    **P, the parking condition.**  One shared byte per (channel, rank):
    idle, spinning or parked, *written only under the circuit lock*;
    one semaphore per worker (a worker sleeps on at most one
    channel).  ``wake`` clears every set byte of the channel and posts
    exactly one token per parked sleeper; it never waits for an
    acknowledgment.

    **F, the lock-free wake skip.**  Every ``Wake`` in ``core/ops``,
    ``core/transport``, ``ext/sync_channel`` and ``ext/shared_vars``
    follows a state change made under, and a ``Release`` of, that
    channel's own lock; every ``WaitOn`` sits in a loop that re-reads
    its predicate under the same lock after ``wait`` has registered the
    byte.  So a waiter whose lock section preceded the waker's has its
    byte visible to the waker's read (release/acquire of the lock orders
    them), and one whose section follows it sees the new state.  "No
    byte set", read after the waker's own release, therefore means
    nobody needs this wake, and the lock is not re-taken.

    **W, the waiter spin.**  The waiter yield-spins on its own byte for
    :data:`WAIT_SPIN_NS` before it upgrades spinning -> parked under
    the lock and sleeps on its semaphore.
    """

    def __init__(self, cfg: MPFConfig, ctx, nprocs: int) -> None:
        super().__init__()
        self.locks = [ctx.Lock() for _ in range(cfg.n_locks)]
        self._nprocs = nprocs
        self._sems = [ctx.Semaphore(0) for _ in range(nprocs)]
        self._status_off = cfg.n_channels * nprocs
        # Anonymous MAP_SHARED memory, inherited across fork: the wait
        # bytes, then one status row per rank.
        self._mem = mmap.mmap(-1, self._status_off + nprocs * _STATUS.size)
        self._idle_row = bytes(nprocs)

    def close(self) -> None:
        self._mem.close()

    # -- the deadlock dump ----------------------------------------------------

    def _publish(self, kind: int, ident: int = 0) -> None:
        held = self.held[-_MAX_HELD:]
        _STATUS.pack_into(
            self._mem, self._status_off + self.rank * _STATUS.size,
            kind, ident, len(held), *held, *([0] * (_MAX_HELD - len(held))),
        )

    def finish(self) -> None:
        """Mark this worker done (it returned or raised)."""
        self._publish(_DONE)

    def status(self, rank: int) -> dict:
        """What worker ``rank`` is blocked on and which locks it holds,
        read by the runtime for the deadlock dump.

        A worker publishes when it is about to *sleep* (blocking lock
        acquire, or parking on a channel) — the slow paths, so the hot
        path pays nothing.  ``blocked_on`` is ``None`` for a worker that
        is running (or spinning) and ``held`` is then its locks as of
        the last time it slept.
        """
        kind, ident, nheld, *held = _STATUS.unpack_from(
            self._mem, self._status_off + rank * _STATUS.size)
        on = {
            _RUNNING: None, _ON_LOCK: ("lock", ident),
            _ON_CHAN: ("chan", ident), _DONE: ("done",),
        }[kind]
        return {"blocked_on": on, "held": held[:nheld]}

    # -- the four methods -----------------------------------------------------

    def acquire(self, lock_id: int) -> bool:
        self.acquires += 1
        acquire = self.locks[lock_id].acquire
        if acquire(False):
            return False
        budget = SpinBudget(LOCK_SPIN_NS)
        while budget.spin():
            if acquire(False):
                self.acquired_by_spin += 1
                return True
        self.acquired_by_block += 1
        self._publish(_ON_LOCK, lock_id)
        acquire()
        self._publish(_RUNNING)
        return True

    def wait(self, chan: int, lock_id: int) -> None:
        self.check_wait(chan, lock_id)
        self.waits += 1
        mem = self._mem
        mine = chan * self._nprocs + self.rank
        mem[mine] = _SPINNING  # under the circuit lock, like every write
        self.locks[lock_id].release()
        budget = SpinBudget(WAIT_SPIN_NS)
        while mem[mine] != _IDLE and budget.spin():
            pass
        self.acquire(lock_id)
        if mem[mine] == _IDLE:
            self.woke_spinning += 1
            return
        mem[mine] = _PARKED
        self.locks[lock_id].release()
        self.parked += 1
        self._publish(_ON_CHAN, chan)
        self._sems[self.rank].acquire()
        self._publish(_RUNNING)
        self.acquire(lock_id)

    def wake(self, chan: int) -> int:
        mem = self._mem
        first = chan * self._nprocs
        if mem[first:first + self._nprocs] == self._idle_row:
            self.wakes_skipped += 1
            return 0
        self.wakes_locked += 1
        lock_id = FIRST_LNVC_LOCK + chan
        self.acquire(lock_id)
        woken = 0
        for rank, state in enumerate(mem[first:first + self._nprocs]):
            if state != _IDLE:
                mem[first + rank] = _IDLE
                woken += 1
                if state == _PARKED:
                    self._sems[rank].release()
                    self.wakes_posted += 1
        self.locks[lock_id].release()
        return woken
