"""Synchronization for the real runtimes: one interface, one sync.

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

:class:`ProcSync` hosts them for every real runtime in one shared
mapping: wait bytes, status rows (with each rank's OS pid), one lock
word per lock and one futex word per worker.  Threads of one process and
forked processes share an anonymous mapping the sync makes itself;
processes that only share a segment's *name* map the tail of the named
segment (:class:`repro.runtime.posix.PosixSegment`).  Where ``sync.c``
builds (and the C kernels are the ones in use), ``sync.bind(rank)``
hands out a C handle: the lock words and wait bytes are worked by C, and
:func:`~repro.runtime.threads.drive` runs its whole effect loop in C
over it (:data:`C_SYNC`); a C sleeper on a held lock asks every
:data:`OWNER_CHECK_NS` whether the owner's process is still there, and raises
:class:`~repro.core.errors.LockOwnerDiedError` if it is not.  The Python
methods below are the reference and the path of a host without a
compiler.  :attr:`ProcSync.impl` says which one a sync runs.  ``sync.bind(rank)`` hands each worker its own
handle (shared locks, private counters and held-lock list), so the
counters are exact without any locking of their own.

Why not ``multiprocessing.Lock`` and ``Condition``: a bare lock sleeps
on the *first* failed attempt, and ``notify_all`` re-takes the circuit
lock and waits for every sleeper — the two-CPU ring pipe ran 3.5x slower
than the same pipe on one CPU.  :class:`ProcSync` spins briefly, always
through ``sched_yield`` (a host with fewer CPUs than processes hands the
CPU to the holder), and only then sleeps (docs/performance.md,
"Real-process synchronization").
"""

from __future__ import annotations

import copy
import mmap
import os
import struct
import time
from pathlib import Path
from time import perf_counter_ns

from ..core import chains
from ..core.effects import Acquire, Charge, ChargeMany, Release, WaitOn, Wake
from ..core.effects import FusedSection
from ..core.errors import LockOwnerDiedError
from ..core.layout import MPFConfig
from ..core.protocol import FIRST_LNVC_LOCK

__all__ = [
    "C_SYNC",
    "COUNTERS",
    "STAGE_COUNTERS",
    "LOCK_SPIN_NS",
    "OWNER_CHECK_NS",
    "WAIT_SPIN_NS",
    "ProcSync",
]

#: Adaptive-lock spin budget (mechanism L): twice the free-list sender's
#: p99 contended acquire (138 µs) on a 1.7x slow spell of the host.  A
#: budget inside that distribution is a cliff: at 50 µs a quarter of those
#: acquires went on to a 45-50 µs park and ten runs of the pipe spread
#: between two modes (docs/performance.md, "Real-process
#: synchronization").
LOCK_SPIN_NS = 500_000

#: Waiter spin budget (mechanism W) before a ``WaitOn`` parks: one peer
#: send on a slow spell of the host, so a streaming receiver seldom pays a
#: park and its waker a post (1-2 parks per 8,000 free-list waits; 50-1,600
#: at 100 µs).  An idle receiver burns at most 0.5 ms per wait.
WAIT_SPIN_NS = 500_000

#: How long a C sleeper on a held lock sleeps before it asks whether the
#: owner's process is still there (``kill(pid, 0)``).
OWNER_CHECK_NS = 100_000_000

#: Per-worker counters every sync keeps (``RunResult.sync[name]``).
#: ``acquires`` counts every lock acquisition, the internal ones of
#: ``wait``/``wake`` included, and equals first-try successes plus
#: ``acquired_by_spin`` plus ``acquired_by_block``.  Every ``wake`` is
#: either ``wakes_skipped`` (no lock taken) or ``wakes_locked``;
#: ``wakes_posted`` counts semaphore tokens, one per ``parked`` sleeper.
#: :data:`STAGE_COUNTERS` close the tuple.
COUNTERS = (
    "acquires", "acquired_by_spin", "acquired_by_block",
    "waits", "woke_spinning", "parked",
    "wakes_skipped", "wakes_locked", "wakes_posted",
    "stages_c", "stages_py",
)

#: The section steps ``S_CALL`` that ``sync.c``'s drive ran in C (a poll
#: walk or a receive stage whose memo holds, ``core/sections.c``) and
#: those it handed to Python (a memo miss, a kernel refusal, a probe's
#: stage, any other call).  The Python drive runs every ``S_CALL``
#: through :func:`~repro.core.effects.unfold` and counts none.
STAGE_COUNTERS = COUNTERS[-2:]


def _spins(budget_ns: int):
    """A bounded yield-spin: ``for _ in _spins(ns): if ready(): break``.
    Each round yields the CPU once if the budget has time left; on an
    oversubscribed host one yield may outlast the whole budget — which is
    the point: the caller re-tests after the peer has run."""
    deadline = perf_counter_ns() + budget_ns
    while perf_counter_ns() < deadline:
        os.sched_yield()
        yield


_IDLE, _SPINNING, _PARKED = 0, 1, 2

#: What a worker is blocked on, published for the runtime's deadlock dump.
_RUNNING, _ON_LOCK, _ON_CHAN, _DONE = 0, 1, 2, 3
_MAX_HELD = 5
_STATUS = struct.Struct(f"4i{_MAX_HELD}i")  # kind, id, nheld, pid, held...
_U32 = struct.Struct("I")
#: Bytes between two lock words, and between two futex words (``sync.c``).
_LINE = 64
#: A lock word's bit for "someone sleeps on it" (``sync.c``).
_WAITERS = 0x8000_0000
#: Seconds a parked Python waiter on a named segment naps between looks.
_TOKEN_NAP_S = 0.002


def _load(where: Path = Path(__file__).parent, kernels=None):
    """``sync.c`` built (or found) in ``where`` by
    :func:`repro.core.chains.build_extension` with the kernels' flags,
    the section runner it includes (``core/sections.c``) in its hash, and
    bound to the effect classes, the poll walk's and the four message
    sections', and to the kernels of ``kernels`` its runner calls
    (:attr:`~repro.core.chains.Kernels.addresses`; by default
    :data:`repro.core.chains.C`, as the engine's); ``None`` where it
    cannot be built."""
    from ..core.ops import (MPFView, PollWalk, RecvSection, RingRecvSection,
                            RingSendSection, Section, SendSection, Stage)

    here = Path(__file__).parent
    lib = chains.build_extension(
        where, "_sync", (here / "sync.c").read_bytes(), chains.CFLAGS,
        module="_sync", include=chains.SECTIONS)
    if lib is not None:
        kernels = kernels or chains.C
        lib.classes(Charge, ChargeMany, Acquire, Release, FusedSection,
                    WaitOn, Wake, PollWalk, Stage, RecvSection, SendSection,
                    RingSendSection, RingRecvSection, Section, MPFView,
                    FIRST_LNVC_LOCK, LockOwnerDiedError,
                    None if kernels is None else kernels.addresses)
    return lib


#: The compiled sync and effect loop (``sync.c``: ``Handle``, ``drive``),
#: or ``None`` where it could not be built.
C_SYNC = _load()


class _Token:
    """The Python sync's semaphore where processes share only the mapping:
    a byte of the rank's futex word.  One post per park goes to a parked
    rank only, and only that rank takes it (a yield-spin, then a nap of
    :data:`_TOKEN_NAP_S` between looks): one writer at a time."""

    __slots__ = ("mem", "off")

    def __init__(self, mem, off: int) -> None:
        self.mem, self.off = mem, off

    def release(self) -> None:
        self.mem[self.off] = 1

    def acquire(self) -> None:
        for _ in _spins(WAIT_SPIN_NS):
            if self.mem[self.off]:
                break
        while not self.mem[self.off]:
            time.sleep(_TOKEN_NAP_S)
        self.mem[self.off] = 0


class ProcSync:
    """Spin-then-park locks and wait channels for the real runtimes.

    One ``MAP_SHARED`` mapping holds the wait bytes, one status row per
    rank, one lock word per lock and one futex word per rank: ``mem`` (a
    named segment's zeroed tail, sized by :meth:`geometry`), or an
    anonymous mapping a fork inherits.  With :data:`C_SYNC` built and the
    C kernels in use (``chains.ACTIVE``), :meth:`bind` returns a
    ``sync.c`` handle that works the words (:attr:`impl` ``"c"``, spin
    budgets read at bind).  Otherwise the methods below run over
    ``ctx.Lock()`` — a ``multiprocessing`` context's, ``threading``'s or
    a named segment's lock files — and a ``ctx.Semaphore(0)`` per rank,
    or with ``mem`` a :class:`_Token` in the rank's futex word
    (``"python"``, budgets read at each call).  Either sync writes the
    owner's rank + 1 into a lock's word while it holds the lock, and
    clears it before the unlock: an acquirer that gets a lock whose word
    still names another rank (a named segment whose holder died, and
    whose lock file the kernel let go) raises
    :class:`~repro.core.errors.LockOwnerDiedError`, as a C sleeper does.
    The mapping lives while the sync or a handle does: a worker abandoned
    by a join timeout may still touch it.

    Four mechanisms (ablation in docs/performance.md).  **L**, the
    adaptive lock: a try, a yield-spin try-loop for :data:`LOCK_SPIN_NS`,
    then a futex sleep (here: the lock's blocking acquire).  **P**, the
    parking condition: one byte per (channel, rank) — idle, spinning or
    parked, *written only under the circuit lock* — and one futex word
    (here: semaphore) per rank; ``wake`` clears every set byte and posts
    one token per parked sleeper, never waiting for an acknowledgment.
    **W**, the waiter spin: the waiter yield-spins on its byte for
    :data:`WAIT_SPIN_NS` before it upgrades spinning -> parked under the
    lock and sleeps.  **F**, the lock-free wake skip: every ``Wake`` in
    ``core/ops``, ``core/transport``, ``ext/sync_channel`` and
    ``ext/shared_vars`` follows a state change made under, and a
    ``Release`` of, that channel's own lock, and every ``WaitOn`` sits in
    a loop that re-reads its predicate under the same lock after ``wait``
    registered the byte.  So a waiter whose section preceded the waker's
    has its byte visible to the waker's read, and one whose section
    follows sees the new state: "no byte set", read after the waker's own
    release, means nobody needs this wake, and the lock is not re-taken.
    """

    rank = 0

    def __init__(self, cfg: MPFConfig, ctx, nprocs: int, mem=None) -> None:
        self._zero()
        self._c = C_SYNC if chains.ACTIVE.name == "c" else None
        #: Which sync the handles run: ``"c"`` (``sync.c``, driven by its
        #: own effect loop unless a recorder is attached) or ``"python"``.
        self.impl = "python" if self._c is None else "c"
        self._nprocs = nprocs
        self._n_channels = cfg.n_channels
        self._n_locks = cfg.n_locks
        self._status_off, self._lock_off, self._futex_off, size = (
            self.geometry(cfg, nprocs))
        self._mem = mmap.mmap(-1, size) if mem is None else mem
        self._idle_row = bytes(nprocs)
        if self._c is None:
            self.locks = [ctx.Lock() for _ in range(cfg.n_locks)]
            self._sems = [
                ctx.Semaphore(0) if mem is None
                else _Token(mem, self._futex_off + rank * _LINE)
                for rank in range(nprocs)]

    @staticmethod
    def geometry(cfg: MPFConfig, nprocs: int) -> tuple[int, int, int, int]:
        """Where the status rows, lock words and futex words of the
        mapping for ``nprocs`` ranks start, and its size."""
        status = cfg.n_channels * nprocs
        lock = -(-(status + nprocs * _STATUS.size) // _LINE) * _LINE
        futex = lock + cfg.n_locks * _LINE
        return status, lock, futex, futex + nprocs * _LINE

    def _zero(self) -> None:
        for name in COUNTERS:
            setattr(self, name, 0)
        #: Lock ids the worker holds, in acquisition order; kept by
        #: :func:`~repro.runtime.threads.drive` for the deadlock dump.
        self.held: list[int] = []

    def bind(self, rank: int):
        """A handle for worker ``rank``: ``sync.c``'s, or (Python sync) a
        copy of this one with its own counters and held list.  Either
        writes the rank's status row, its pid included."""
        if self._c is not None:
            return self._c.Handle(
                self._mem, rank, self._nprocs, self._n_channels,
                self._n_locks, self._status_off, self._lock_off,
                self._futex_off, LOCK_SPIN_NS, WAIT_SPIN_NS, OWNER_CHECK_NS)
        handle = copy.copy(self)
        handle._zero()
        handle.rank = rank
        handle._publish(_RUNNING)
        return handle

    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in COUNTERS}

    def owner(self, lock_id: int) -> int | None:
        """The rank whose lock word holds lock ``lock_id``, or ``None``
        when it is free."""
        word = _U32.unpack_from(self._mem, self._lock_off + lock_id * _LINE)[0]
        return (word & ~_WAITERS) - 1 if word else None

    def locked(self, lock_id: int) -> bool:
        """Whether some worker holds lock ``lock_id`` now."""
        return self.owner(lock_id) is not None

    # -- the deadlock dump ----------------------------------------------------

    def _publish(self, kind: int, ident: int = 0) -> None:
        held = self.held[-_MAX_HELD:]
        _STATUS.pack_into(
            self._mem, self._status_off + self.rank * _STATUS.size,
            kind, ident, len(held), os.getpid(), *held,
            *([0] * (_MAX_HELD - len(held))),
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
        kind, ident, nheld, _, *held = _STATUS.unpack_from(
            self._mem, self._status_off + rank * _STATUS.size)
        on = {
            _RUNNING: None, _ON_LOCK: ("lock", ident),
            _ON_CHAN: ("chan", ident), _DONE: ("done",),
        }[kind]
        return {"blocked_on": on, "held": held[:nheld]}

    def pid(self, rank: int) -> int:
        """The OS pid of the process that bound ``rank`` last; 0 if none
        has."""
        return _STATUS.unpack_from(
            self._mem, self._status_off + rank * _STATUS.size)[3]

    # -- the four methods -----------------------------------------------------

    def acquire(self, lock_id: int) -> bool:
        self.acquires += 1
        acquire = self.locks[lock_id].acquire
        contended = not acquire(False)
        if contended:
            for _ in _spins(LOCK_SPIN_NS):
                if acquire(False):
                    self.acquired_by_spin += 1
                    break
            else:
                self.acquired_by_block += 1
                self._publish(_ON_LOCK, lock_id)
                acquire()
                self._publish(_RUNNING)
        off = self._lock_off + lock_id * _LINE
        word = _U32.unpack_from(self._mem, off)[0]
        if word and word != self.rank + 1:
            self.locks[lock_id].release()
            raise LockOwnerDiedError(
                f"lock {lock_id} is held by rank {word - 1}, whose process "
                f"{self.pid(word - 1)} is gone")
        _U32.pack_into(self._mem, off, self.rank + 1)
        return contended

    def release(self, lock_id: int) -> None:
        _U32.pack_into(self._mem, self._lock_off + lock_id * _LINE, 0)
        self.locks[lock_id].release()

    def wait(self, chan: int, lock_id: int) -> None:
        # ``wake`` takes exactly the channel's circuit lock to find it.
        if lock_id != FIRST_LNVC_LOCK + chan:
            raise RuntimeError(f"WaitOn(chan={chan}) under lock {lock_id}; "
                               f"expected circuit lock {FIRST_LNVC_LOCK + chan}")
        self.waits += 1
        mem = self._mem
        mine = chan * self._nprocs + self.rank
        mem[mine] = _SPINNING  # under the circuit lock, like every write
        self.release(lock_id)
        for _ in _spins(WAIT_SPIN_NS):
            if mem[mine] == _IDLE:
                break
        self.acquire(lock_id)
        if mem[mine] == _IDLE:
            self.woke_spinning += 1
            return
        mem[mine] = _PARKED
        self.release(lock_id)
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
        self.release(lock_id)
        return woken
