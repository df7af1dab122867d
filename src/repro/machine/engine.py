"""Deterministic discrete-event engine for the simulated multiprocessor.

Processes are Python generators that yield the effect objects of
:mod:`repro.core.effects` (MPF primitives already speak that vocabulary;
application code adds its own ``Charge`` effects for compute).  The engine
interprets each effect against simulated locks, wait channels and a
pluggable :class:`TimingModel`, advancing a virtual clock.

Determinism: events are ordered by ``(time, sequence)`` with a
monotonically increasing sequence number, and every queue (lock waiters,
channel sleepers) is FIFO.  Two runs of the same program produce identical
traces — the property that makes the reproduced figures exact rather than
sampled.

Deadlock: when no event is pending but processes are still blocked, the
engine raises :class:`DeadlockError` naming the blocked processes and what
they wait on.  The paper discusses exactly this programming hazard (§3.2:
messages lost when senders close before receivers join); the detector
turns it from a hang into a diagnosis.
"""

from __future__ import annotations

from bisect import insort as _insort
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Generator, Protocol as TypingProtocol

from ..core import chains
from ..core.effects import (
    Acquire,
    Charge,
    ChargeMany,
    FusedSection,
    Release,
    WaitOn,
    Wake,
)
from ..core.ops import (MPFView, PollWalk, RecvSection, RingRecvSection,
                        RingSendSection, Section, SendSection, Stage)
from ..core.work import Work
from .bus import BusModel
from .cache import CacheModel
from .vm import VmModel

__all__ = [
    "DeadlockError",
    "SimulationError",
    "TimingModel",
    "ZeroTimingModel",
    "SimProcess",
    "Engine",
]

ProcGen = Generator[object, object, object]

_INF = float("inf")

def set_epoch(on: bool) -> None:
    """No-op: there is one loop.  Kept until ROADMAP 1(a) drops the ledger's import."""


class SimulationError(RuntimeError):
    """Structural error inside the simulation (not the simulated program)."""


class DeadlockError(SimulationError):
    """Every remaining process is blocked and no event can wake it."""


class TimingModel(TypingProtocol):
    """Prices machine activity in simulated seconds."""

    def price(self, work: Work, running: int) -> float:
        """Seconds to perform ``work`` with ``running`` busy processors."""
        ...

    def acquire_cost(self) -> float:
        """Seconds for an (uncontended) lock acquisition."""
        ...

    def release_cost(self) -> float:
        """Seconds for a lock release."""
        ...

    def wake_cost(self, n_waiters: int) -> float:
        """Seconds the waker spends waking ``n_waiters`` sleepers."""
        ...

    def copy_started(self) -> None:
        """A process entered a shared-memory copy phase (bus tracking)."""
        ...

    def copy_finished(self) -> None:
        """A process left a shared-memory copy phase."""
        ...


class ZeroTimingModel:
    """Everything is free.  Used by functional tests of the engine itself."""

    def price(self, work: Work, running: int) -> float:
        return 0.0

    def acquire_cost(self) -> float:
        return 0.0

    def release_cost(self) -> float:
        return 0.0

    def wake_cost(self, n_waiters: int) -> float:
        return 0.0

    def copy_started(self) -> None:
        pass

    def copy_finished(self) -> None:
        pass


_RUNNABLE = "runnable"
_WAIT_LOCK = "wait-lock"
_WAIT_CHAN = "wait-chan"
_DONE = "done"
_FAILED = "failed"


@dataclass(slots=True)
class SimProcess:
    """One simulated process: a generator plus scheduling state."""

    name: str
    gen: ProcGen
    pid: int
    state: str = _RUNNABLE
    #: Value to inject at the next resume.
    _inbox: object = None
    #: Generator return value once finished.
    result: object = None
    #: Exception that terminated the process, if any.
    error: BaseException | None = None
    #: Lock the process must reacquire when woken from a channel.
    _wait_lock: int | None = None
    #: True while reacquiring a lock on the way out of a WaitOn (the
    #: reacquisition is implicit: it is not an Acquire effect, and the
    #: recorder must not count it as one).
    _implicit_reacquire: bool = False
    #: Simulated time spent blocked on locks (statistics).
    lock_wait_time: float = 0.0
    _blocked_since: float = 0.0
    #: True while the process is inside a Charge with copy_bytes > 0.
    _copying: bool = False
    #: In-flight FusedSection state ``[steps, next_index, result]`` or
    #: ``None``.  Present across parks: a process that parked or blocked
    #: mid-section continues from ``next_index`` when it is next taken.
    _fused: object = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimProcess({self.name!r}, pid={self.pid}, state={self.state})"


class _SimLock:
    """A FIFO mutex in simulated time."""

    __slots__ = ("owner", "waiters", "acquired_at")

    def __init__(self) -> None:
        self.owner: SimProcess | None = None
        self.waiters: deque[SimProcess] = deque()
        #: Simulated time of the current owner's grant (hold-time stats).
        self.acquired_at = 0.0


class _WaitChannel:
    """A queue of sleeping processes (condition-variable wait set)."""

    __slots__ = ("sleepers",)

    def __init__(self) -> None:
        self.sleepers: deque[SimProcess] = deque()


@dataclass
class EngineStats:
    """Aggregate counters maintained by the engine."""

    events: int = 0
    charges: int = 0
    charged_seconds: float = 0.0
    lock_acquires: int = 0
    lock_contended: int = 0
    wakes: int = 0
    woken: int = 0
    #: Entries parked in / taken from the event queue, as opposed to
    #: events continued inline (the names predate the sorted queue).
    #: Deterministic, one value per program: ``events / heap_pops`` is
    #: the jitter-proof measure of how much of a run is straight-line.
    heap_pushes: int = 0
    heap_pops: int = 0

    def as_dict(self) -> dict[str, float]:
        return dict(vars(self))


class Engine:
    """The event loop: one interpreter (:meth:`run`) over one event queue.

    Pending resumes sit in one list of ``(-time, -seq, process)`` kept
    sorted, so the earliest ``(time, seq)`` is at the end — O(1) to take,
    a C ``insort`` to park.  :meth:`run` takes the earliest entry and
    executes that process *inline*, step after step, for as long as its
    next resume time stays strictly before every queued entry; then it
    parks the process under a fresh ``seq`` and takes the next.  Ties go
    to the queue (queued entries hold smaller sequence numbers than a
    fresh park would get), which is exactly FIFO ``(time, seq)`` order:
    continuing inline is the park-then-take it replaces, minus the queue
    traffic.  A yielded ``Charge`` / ``ChargeMany`` / ``Acquire`` /
    ``Release`` and the section steps ``S_CHARGE`` / ``S_MANY`` /
    ``S_ACQ`` / ``S_REL`` are executed by the same step code — an effect
    is a one-step section.

    Event accounting, one rule: an event is one resumption of a
    process's timeline — an entry taken from the queue or a step
    continued inline — and a ``k``-part charge adds ``k - 1`` (its parts
    are the events of ``k`` back-to-back charges).  ``max_events`` is
    tested wherever the count moves.

    Parameters
    ----------
    n_locks, n_channels:
        Sizes of the lock and wait-channel tables (from
        :class:`~repro.core.layout.MPFConfig`).
    timing:
        The :class:`TimingModel` pricing every activity.
    n_cpus:
        Simulated processors.  When more processes are simultaneously
        runnable than processors exist, charges stretch proportionally
        (coarse processor multiplexing; adequate because the paper never
        ran more processes than the Balance's 20 CPUs).
    recorder:
        Optional :class:`repro.obs.Recorder`, the engine's one observer:
        it hears every priced charge (one call per part of a multi-part
        charge), lock grant and release, channel sleep and wake, with
        simulated timestamps.  Observational: never changes timing.
    scheduler:
        Optional schedule policy.  When set, nothing continues inline —
        every step parks — and wherever more than one queued entry
        shares the earliest timestamp, the policy's
        ``choose(now, candidates)`` picks which process steps next
        (candidates are :class:`SimProcess`, ordered by sequence number,
        so index 0 is the default FIFO choice).  Everything it can
        choose is a legal interleaving: ties in simulated time are
        concurrency.  Under :class:`ZeroTimingModel` every pending event
        is simultaneous, which exposes the full interleaving space to
        the policy — the hook :mod:`repro.check` uses for systematic
        schedule exploration.  If the policy has an ``attach(engine)``
        method it is called before the first event of each :meth:`run`.
    """

    def __init__(
        self,
        n_locks: int,
        n_channels: int,
        timing: TimingModel | None = None,
        n_cpus: int = 20,
        max_events: int = 200_000_000,
        recorder=None,
        scheduler=None,
    ) -> None:
        if n_locks < 1 or n_channels < 0:
            raise SimulationError("engine needs at least one lock")
        self.now = 0.0
        self.timing: TimingModel = timing or ZeroTimingModel()
        self.n_cpus = max(1, n_cpus)
        self.locks = [_SimLock() for _ in range(n_locks)]
        self.channels = [_WaitChannel() for _ in range(n_channels)]
        # Bounds for the id lookups: a section step's lock id is a raw
        # int that no effect constructor checked, and a list would wrap a
        # negative one to another lock.
        self._n_locks = n_locks
        self._n_channels = n_channels
        self.processes: list[SimProcess] = []
        self.stats = EngineStats()
        #: The event queue (see the class docstring).  A queued process
        #: is always runnable: processes finish, fail or block only
        #: while :meth:`run` holds them, i.e. while they are not queued.
        self._queue: list[tuple[float, int, SimProcess]] = []
        #: Sequence numbers issued; every one is an entry parked in the
        #: queue, so ``_seq`` *is* the push count and ``_seq -
        #: len(_queue)`` the take count.
        self._seq = 0
        self._recorder = recorder
        self._max_events = max_events
        self._scheduler = scheduler
        #: Processes currently in the ``runnable`` state, maintained
        #: incrementally at every state transition so the per-charge
        #: multiplexing factor costs O(1) instead of a scan of the
        #: process table.
        self._runnable = 0
        # Lock transfer costs are fixed machine constants (a property of
        # the timing model, not of simulation state); sample them once
        # instead of a method call per acquire/release event.
        self._t_acquire = self.timing.acquire_cost()
        self._t_release = self.timing.release_cost()
        #: The interpreter the last :meth:`run` took: ``"c"`` (the step
        #: interpreter of ``engine.c``) or ``"python"``; ``None`` before
        #: the first.
        self.loop: str | None = None

    # -- process management --------------------------------------------------

    def spawn(self, name: str, gen: ProcGen) -> SimProcess:
        """Register a process and schedule its first step at the current time."""
        proc = SimProcess(name=name, gen=gen, pid=len(self.processes))
        self.processes.append(proc)
        self._runnable += 1
        self._schedule(proc, 0.0)
        return proc

    def _schedule(self, proc: SimProcess, dt: float) -> None:
        """Park ``proc`` to resume ``dt`` from now, behind a fresh ``seq``."""
        self._seq += 1
        _insort(self._queue, (-(self.now + dt), -self._seq, proc))

    # -- the loop ------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run to completion (or to ``until``); returns the final time.

        Stopping at ``until`` consumes no later event — a later call
        resumes exactly where this one paused — and a bound at or before
        the current time is a no-op (the clock never moves backwards).

        Raises :class:`DeadlockError` if blocked processes remain with no
        pending event, and re-raises the first process exception (engine
        effects are interpreted strictly: a crashed process crashes the
        simulation, as a crashed Unix process would crash the benchmark).

        ``self.now``, the section cursor and the additive counters live
        in locals while a process runs inline and are written back
        before anything that can observe them — handler calls,
        ``S_CALL`` closures, generator resumes, the scheduler — and
        unconditionally on exit.

        Where the C kernels are the ones in use (``chains.ACTIVE.name ==
        "c"``) and ``engine.c`` built, :data:`C_RUN` runs this loop
        instead, statement for statement; the code below is its
        reference and the loop of every host without a compiler.
        :attr:`loop` says which one the last run took.
        """
        if C_RUN is not None and chains.ACTIVE.name == "c":
            self.loop = "c"
            return C_RUN(self, until)
        self.loop = "python"
        if until is not None and until <= self.now:
            return self.now
        sched = self._scheduler
        attach = getattr(sched, "attach", None)
        if attach is not None:
            attach(self)
        queue = self._queue
        stats = self.stats
        timing = self.timing
        price = timing.price
        rec = self._recorder
        insort = _insort
        max_events = self._max_events
        # Contract with BalanceTiming (machine/cpu.py): pure-compute work
        # prices as instrs*t_instr [+ flops*t_flop] [* running/n_cpus],
        # bit for bit, so the two charge steps below inline it.
        ana = getattr(timing, "analytic_charge", None)
        analytic = ana is not None
        if analytic:
            t_instr, t_flop, a_cpus = ana
        until_f = _INF if until is None else until
        # Inline bound: a step continues inline only up to `lim`.  Under
        # a scheduler it sits below every time, so each step parks and
        # the policy sees every choice point, at no cost to the
        # uncontrolled test `t2 < cross and t2 <= lim`.
        lim = until_f if sched is None else -1.0
        ev = stats.events
        n_ch = stats.charges
        t_ch = stats.charged_seconds
        now = self.now
        try:
            while queue:
                # ---- take the earliest pending entry ---------------------
                e = queue[-1]
                if -e[0] > until_f:
                    now = until_f
                    return now
                if sched is None:
                    queue.pop()
                else:
                    # Entries that tie on the earliest time are contiguous
                    # at the tail, seq ascending from the end.
                    w = 1
                    while w < len(queue) and queue[-1 - w][0] == e[0]:
                        w += 1
                    pick = 0
                    if w > 1:
                        self.now = now
                        stats.events = ev
                        pick = sched.choose(
                            -e[0], [c[2] for c in queue[:-1 - w:-1]])
                    e = queue.pop(-1 - pick if 0 < pick < w else -1)
                proc = e[2]
                now = -e[0]
                ev += 1
                if ev > max_events:
                    raise self._over_budget()
                # `cross`: the earliest time anything else is pending.
                # The queue changes only at handler calls, generator
                # resumes (a body may spawn) and parks; it is refreshed
                # exactly there.
                cross = -queue[-1][0] if queue else _INF
                if proc._copying:
                    # The charge that just completed was a copy phase.
                    proc._copying = False
                    timing.copy_finished()
                # `_runnable` changes only in handlers, at completion
                # and at spawn — never between two charge steps.
                r = self._runnable
                state = proc._fused
                if state is not None:
                    steps = state[0]
                    n = len(steps)
                    idx = state[1]
                while True:  # one step of `proc` per iteration, at `now`
                    # ---- fetch: the section in flight, else the generator
                    if state is not None:
                        if idx < n:
                            op, arg = steps[idx]
                            idx += 1
                            if op == 5:  # S_CALL: generator-body code, free
                                self.now = now
                                d = arg()
                                if d is not None:
                                    state[2] = d[1]
                                    if d[0] == 4:  # D_JUMP
                                        state[0] = steps = d[2]
                                        n = len(steps)
                                        idx = 0
                                    else:  # D_BAIL: the section ends here
                                        n = idx
                                continue
                        else:
                            # Section complete: the generator resumes in
                            # this same event with the section's result.
                            proc._inbox = state[2]
                            proc._fused = state = None
                    if state is None:
                        self.now = now  # bodies may observe the clock
                        try:
                            value, proc._inbox = proc._inbox, None
                            arg = proc.gen.send(value)
                        except StopIteration as stop:
                            proc.state = _DONE
                            proc.result = stop.value
                            self._runnable -= 1
                            break
                        except BaseException as exc:
                            proc.state = _FAILED
                            proc.error = exc
                            self._runnable -= 1
                            raise
                        r = self._runnable
                        cross = -queue[-1][0] if queue else _INF
                        # Effects are final classes (core/effects.py):
                        # exact-class dispatch, most frequent first.
                        cls = arg.__class__
                        if cls is Charge:
                            op = 0
                            arg = arg.work
                        elif cls is Acquire:
                            op = 2
                            arg = arg.lock_id
                        elif cls is Release:
                            op = 3
                            arg = arg.lock_id
                        elif cls is ChargeMany:
                            op = 1
                            arg = arg.works
                        elif cls is FusedSection:
                            # The steps tuple is shared with the (cached)
                            # effect and never mutated: a jump replaces
                            # the whole tuple in the state cell.
                            steps = arg.steps
                            n = len(steps)
                            idx = 0
                            state = proc._fused = [steps, 0, None]
                            continue
                        else:
                            op = -1  # no step form: dispatched on `cls` below
                    # ---- execute one time-advancing step, ending at t2 ----
                    if op == 0:  # one charge
                        if analytic and not (arg.copy_bytes or arg.blocks
                                             or arg.page_bytes):
                            dt = arg.instrs * t_instr
                            if arg.flops:
                                dt += arg.flops * t_flop
                            if r > a_cpus:
                                dt *= r / a_cpus
                        else:
                            dt = price(arg, r)
                            if arg.copy_bytes > 0:
                                proc._copying = True
                                timing.copy_started()
                        n_ch += 1
                        t_ch += dt
                        t2 = now + dt
                        if rec is not None:
                            # Stamped at its end: the span is [t2 - dt, t2].
                            rec.on_charge(t2, proc.name, arg.label, dt,
                                          arg.instrs, arg.flops)
                    elif op == 1:
                        # Several compute-only charges as one step: each
                        # part is priced on its own and the clock advances
                        # by ((now + dt1) + dt2) ... — the float expression
                        # back-to-back charges evaluate, so resume times
                        # are bit-identical (summing the dts first would
                        # differ in the last ulp and drift figure values).
                        t2 = now
                        for work in arg:
                            if analytic and not (work.copy_bytes or work.blocks
                                                 or work.page_bytes):
                                dt = work.instrs * t_instr
                                if work.flops:
                                    dt += work.flops * t_flop
                                if r > a_cpus:
                                    dt *= r / a_cpus
                            else:
                                dt = price(work, r)
                            n_ch += 1
                            t_ch += dt
                            t2 = t2 + dt
                            if rec is not None:
                                rec.on_charge(t2, proc.name, work.label, dt,
                                              work.instrs, work.flops)
                        ev += len(arg) - 1
                        if ev > max_events:
                            raise self._over_budget()
                    else:
                        if state is not None:
                            state[1] = idx  # an acquire may block mid-section
                        self.now = now
                        if op == 2:
                            t2 = self._do_acquire(proc, arg)
                        elif op == 3:
                            t2 = self._do_release(proc, arg)
                        elif state is None:
                            if cls is Wake:
                                t2 = self._do_wake(proc, arg.chan)
                            elif cls is WaitOn:
                                t2 = self._do_wait(proc, arg.chan, arg.lock_id)
                            else:
                                proc.state = _FAILED
                                self._runnable -= 1
                                proc.error = SimulationError(
                                    f"process {proc.name!r} yielded "
                                    f"non-effect {arg!r}")
                                raise proc.error
                        else:
                            raise SimulationError(
                                f"bad fused step opcode {op!r}")
                        if t2 < 0.0:
                            break  # blocked: a grant or a wake re-queues it
                        # The handler may have granted or woken others.
                        r = self._runnable
                        cross = -queue[-1][0] if queue else _INF
                    # ---- continue inline while strictly earliest, else park
                    if t2 < cross and t2 <= lim:
                        now = t2
                        ev += 1
                        if ev > max_events:
                            raise self._over_budget()
                        if proc._copying:
                            proc._copying = False
                            timing.copy_finished()
                        continue
                    if state is not None:
                        state[1] = idx
                    self._seq += 1
                    insort(queue, (-t2, -self._seq, proc))
                    break
        finally:
            self.now = now
            stats.events = ev
            stats.charges = n_ch
            stats.charged_seconds = t_ch
            stats.heap_pushes = self._seq
            stats.heap_pops = self._seq - len(queue)
        self._raise_if_stalled()
        return now

    def _over_budget(self) -> SimulationError:
        return SimulationError(f"exceeded {self._max_events} events")

    def _raise_if_stalled(self) -> None:
        """Raise :class:`DeadlockError` if blocked processes remain."""
        blocked = [p for p in self.processes if p.state in (_WAIT_LOCK, _WAIT_CHAN)]
        if blocked:
            detail = ", ".join(
                f"{p.name}({p.state}"
                + (f" lock={p._wait_lock}" if p._wait_lock is not None else "")
                + ")"
                for p in blocked
            )
            raise DeadlockError(f"no pending events but blocked: {detail}")

    def results(self) -> dict[str, object]:
        """Map process name → generator return value (after :meth:`run`)."""
        return {p.name: p.result for p in self.processes}

    # -- effect handlers -------------------------------------------------------
    #
    # Each runs at ``self.now`` and returns the time the calling process
    # resumes, negative when it blocked instead.

    def _lock(self, lock_id: int) -> _SimLock:
        if not 0 <= lock_id < self._n_locks:
            raise SimulationError(f"lock id {lock_id} out of range")
        return self.locks[lock_id]

    def _chan(self, chan: int) -> _WaitChannel:
        if not 0 <= chan < self._n_channels:
            raise SimulationError(f"wait channel {chan} out of range")
        return self.channels[chan]

    def _do_acquire(self, proc: SimProcess, lock_id: int) -> float:
        if not 0 <= lock_id < self._n_locks:
            raise SimulationError(f"lock id {lock_id} out of range")
        lock = self.locks[lock_id]
        self.stats.lock_acquires += 1
        if lock.owner is None:
            lock.owner = proc
            lock.acquired_at = self.now
            if self._recorder is not None:
                self._recorder.on_acquire(self.now, proc.name, lock_id,
                                          0.0, contended=False)
            return self.now + self._t_acquire
        if lock.owner is proc:
            raise SimulationError(
                f"process {proc.name!r} re-acquired lock {lock_id} (self-deadlock)"
            )
        self.stats.lock_contended += 1
        proc.state = _WAIT_LOCK
        self._runnable -= 1
        proc._wait_lock = lock_id
        proc._blocked_since = self.now
        lock.waiters.append(proc)
        return -1.0

    def _do_release(self, proc: SimProcess, lock_id: int) -> float:
        if not 0 <= lock_id < self._n_locks:
            raise SimulationError(f"lock id {lock_id} out of range")
        lock = self.locks[lock_id]
        if lock.owner is not proc:
            raise SimulationError(
                f"process {proc.name!r} released lock {lock_id} it does not own"
            )
        if self._recorder is not None:
            self._recorder.on_release(self.now, proc.name, lock_id,
                                      self.now - lock.acquired_at)
        self._grant_next(lock_id, lock)
        return self.now + self._t_release

    def _grant_next(self, lock_id: int, lock: _SimLock) -> None:
        """Hand the lock to its next FIFO waiter (or leave it free)."""
        if lock.waiters:
            nxt = lock.waiters.popleft()
            lock.owner = nxt
            lock.acquired_at = self.now
            nxt.state = _RUNNABLE
            self._runnable += 1
            nxt._wait_lock = None
            nxt.lock_wait_time += self.now - nxt._blocked_since
            if self._recorder is not None:
                self._recorder.on_acquire(
                    self.now, nxt.name, lock_id,
                    self.now - nxt._blocked_since, contended=True,
                    counted=not nxt._implicit_reacquire,
                )
            nxt._implicit_reacquire = False
            self._schedule(nxt, self._t_acquire)
        else:
            lock.owner = None

    def _do_wait(self, proc: SimProcess, chan: int, lock_id: int) -> float:
        lock = self._lock(lock_id)
        if lock.owner is not proc:
            raise SimulationError(
                f"process {proc.name!r} waits on channel {chan} "
                f"without holding lock {lock_id}"
            )
        channel = self._chan(chan)
        if self._recorder is not None:
            # WaitOn releases the circuit lock on the caller's behalf;
            # end the hold span without counting a Release effect.
            self._recorder.on_release(self.now, proc.name, lock_id,
                                      self.now - lock.acquired_at,
                                      counted=False)
        self._grant_next(lock_id, lock)
        proc.state = _WAIT_CHAN
        self._runnable -= 1
        proc._wait_lock = lock_id
        proc._blocked_since = self.now
        channel.sleepers.append(proc)
        return -1.0

    def _do_wake(self, proc: SimProcess, chan: int) -> float:
        channel = self._chan(chan)
        n = len(channel.sleepers)
        self.stats.wakes += 1
        self.stats.woken += n
        if self._recorder is not None:
            self._recorder.on_wake(self.now, proc.name, chan, n)
        while channel.sleepers:
            sleeper = channel.sleepers.popleft()
            lock_id = sleeper._wait_lock
            assert lock_id is not None
            lock = self._lock(lock_id)
            # Split the sleeper's blocked interval here: what has elapsed
            # was channel sleep; whatever follows (if the lock is busy)
            # is lock wait.  The lock_wait_time total is unchanged — it
            # still accumulates the whole blocked interval.
            slept = self.now - sleeper._blocked_since
            sleeper.lock_wait_time += slept
            sleeper._blocked_since = self.now
            if self._recorder is not None:
                self._recorder.on_chan_wait(self.now, sleeper.name, chan, slept)
            # The sleeper must reacquire its lock before resuming: enter
            # the lock's FIFO (or take it if free).  Its WaitOn resumes
            # only once the lock is held again.
            if lock.owner is None:
                lock.owner = sleeper
                lock.acquired_at = self.now
                sleeper.state = _RUNNABLE
                self._runnable += 1
                sleeper._wait_lock = None
                if self._recorder is not None:
                    self._recorder.on_acquire(self.now, sleeper.name, lock_id,
                                              0.0, contended=False,
                                              counted=False)
                self._schedule(sleeper, self._t_acquire)
            else:
                sleeper.state = _WAIT_LOCK
                sleeper._implicit_reacquire = True
                lock.waiters.append(sleeper)
        return self.now + self.timing.wake_cost(n)


def _load(where: Path = Path(__file__).parent, kernels=None):
    """The C step interpreter's ``run``, built (or found) in ``where`` by
    :func:`repro.core.chains.build_extension` with the kernels' flags
    and ``-ffp-contract=off`` (no multiply-add is fused, so every float
    expression rounds as Python's does), the section runner it includes
    (``core/sections.c``) in its hash, bound to this module's classes,
    the timing models', the poll walk's and the four sections', and
    to the kernels of ``kernels`` it calls itself
    (:attr:`~repro.core.chains.Kernels.addresses`; by default
    :data:`repro.core.chains.C`: the loop knows no segment layout, the
    kernels do); ``None`` where it cannot be built."""
    here = Path(__file__).parent
    lib = chains.build_extension(
        where, "_engine", (here / "engine.c").read_bytes(),
        chains.CFLAGS + ("-ffp-contract=off",),
        module="_engine", include=chains.SECTIONS)
    if lib is None:
        return None
    kernels = kernels or chains.C
    lib.bind(Charge, ChargeMany, Acquire, Release, FusedSection, WaitOn,
             Wake, PollWalk, Stage, RecvSection, SendSection, RingSendSection,
             RingRecvSection, Section, MPFView, Work,
             SimProcess, _SimLock, _WaitChannel, BusModel, CacheModel,
             VmModel, SimulationError, _RUNNABLE, _WAIT_LOCK, _WAIT_CHAN,
             _DONE, _FAILED, None if kernels is None else kernels.addresses)
    return lib.run


#: ``run(engine, until)``: :meth:`Engine.run` compiled (``engine.c``),
#: or ``None`` where it could not be built.
C_RUN = _load()
