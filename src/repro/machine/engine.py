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

import heapq
import os
from bisect import insort as _insort
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Protocol as TypingProtocol

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")

from ..core.effects import (
    Acquire,
    Charge,
    ChargeMany,
    FusedSection,
    Release,
    WaitOn,
    Wake,
)
from ..core.work import Work

__all__ = [
    "DeadlockError",
    "SimulationError",
    "TimingModel",
    "ZeroTimingModel",
    "SimProcess",
    "Engine",
    "enable_label_profile",
    "disable_label_profile",
    "epoch_enabled",
    "set_epoch",
]

ProcGen = Generator[object, object, object]

#: Process-wide per-label charge aggregation, for ``python -m repro.bench
#: profile --top N``: maps effect label -> [count, charged simulated
#: seconds] while enabled, ``None`` (one global load per charge, no
#: other cost) otherwise.  Engine-level rather than Recorder-level so it
#: sees every engine any figure constructs internally.
_LABEL_PROF: dict | None = None


def enable_label_profile() -> dict:
    """Start aggregating charges by label; returns the live dict."""
    global _LABEL_PROF
    _LABEL_PROF = {}
    return _LABEL_PROF


def disable_label_profile() -> None:
    """Stop aggregating (and stop paying the per-charge dict update)."""
    global _LABEL_PROF
    _LABEL_PROF = None


# Epoch batching default for uncontrolled runs.  When several processes
# have pending events, :meth:`Engine._run_epoch` retires them in exact
# global ``(time, seq)`` order without bouncing each one through the
# event heap.  The path is byte-identity-gated like fusion, and
# ``MPF_EPOCH=off`` is the matching escape hatch (forces the classic
# one-heap-crossing-per-event loop, which produces identical output).
_epoch_default = os.environ.get("MPF_EPOCH", "").lower() not in (
    "0", "off", "false", "no",
)


def epoch_enabled() -> bool:
    """Whether uncontrolled runs batch quiescent epochs (MPF_EPOCH knob)."""
    return _epoch_default


def set_epoch(on: bool) -> None:
    """Override the epoch-batching default (tests and A/B comparisons)."""
    global _epoch_default
    _epoch_default = bool(on)


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


@dataclass
class SimProcess:
    """One simulated process: a generator plus scheduling state."""

    name: str
    gen: ProcGen
    pid: int
    state: str = _RUNNABLE
    #: Value (or exception) to inject at the next resume.
    _inbox: object = None
    _throw: BaseException | None = None
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
    #: ``None``.  Present across parks: a fused process blocked on a
    #: contended lock resumes mid-section when the lock is granted.
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
    #: Heap-crossing counters: how many events actually went through the
    #: event heap (push and pop are counted at every heapq call site).
    #: ``events / heap_pops`` is the wall-clock-jitter-proof measure of
    #: how much work the pending-resume slot, fused sections and epoch
    #: batching retire without touching the heap.
    heap_pushes: int = 0
    heap_pops: int = 0
    #: Epochs entered by :meth:`Engine._run_epoch` and events retired
    #: inside them; ``epoch_events / epoch_batches`` is the mean batch.
    epoch_batches: int = 0
    epoch_events: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "events": self.events,
            "charges": self.charges,
            "charged_seconds": self.charged_seconds,
            "lock_acquires": self.lock_acquires,
            "lock_contended": self.lock_contended,
            "wakes": self.wakes,
            "woken": self.woken,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "epoch_batches": self.epoch_batches,
            "epoch_events": self.epoch_events,
        }


class Engine:
    """The event loop.

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
    trace:
        Optional callable receiving ``(time, process_name, event_str)``.
    recorder:
        Optional :class:`repro.obs.Recorder` receiving structured
        metrics hooks (lock wait/hold times, charge labels) with
        simulated timestamps.  Observational: never changes timing.
    scheduler:
        Optional schedule policy.  When set, the engine runs in
        *controlled* mode: at every point where more than one pending
        event shares the earliest timestamp, the policy's
        ``choose(now, candidates)`` picks which process steps next
        (candidates are :class:`SimProcess`, ordered by sequence number,
        so index 0 is the default FIFO choice).  Under
        :class:`ZeroTimingModel` every pending event is simultaneous,
        which exposes the full interleaving space to the policy — the
        hook :mod:`repro.check` uses for systematic schedule
        exploration.  If the policy has an ``attach(engine)`` method it
        is called once before the first event.
    """

    def __init__(
        self,
        n_locks: int,
        n_channels: int,
        timing: TimingModel | None = None,
        n_cpus: int = 20,
        trace: Callable[[float, str, str], None] | None = None,
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
        self.processes: list[SimProcess] = []
        self.stats = EngineStats()
        self._heap: list[tuple[float, int, SimProcess]] = []
        self._seq = 0
        self._trace = trace
        self._recorder = recorder
        self._max_events = max_events
        self._scheduler = scheduler
        #: Processes currently in the ``runnable`` state, maintained
        #: incrementally at every state transition so the per-charge
        #: multiplexing factor costs O(1) instead of a scan of the
        #: process table (the single hottest line of the interpreter).
        self._runnable = 0
        # Lock transfer costs are fixed machine constants (a property of
        # the timing model, not of simulation state); sample them once
        # instead of a method call per acquire/release event.
        self._t_acquire = self.timing.acquire_cost()
        self._t_release = self.timing.release_cost()
        #: Pending self-resume: when a handler merely reschedules the
        #: process that just stepped (charge, uncontended acquire,
        #: release, wake), it parks ``(time, proc)`` here instead of
        #: pushing onto the heap.  The main loop — and the fused-section
        #: interpreter — consume it inline whenever no other pending
        #: event could fire first, turning long uncontended phases into
        #: straight-line execution with zero heap traffic.
        self._pend_t = -1.0
        self._pend_proc: SimProcess | None = None
        #: ``until`` bound of the active run() call (fast-forward must
        #: not advance the clock past it).
        self._until: float | None = None
        #: While :meth:`_run_epoch` is live, its sorted arena of pending
        #: resumes.  Handlers that would heappush a future resume (lock
        #: grants, channel wakes, spawns) insort here instead: arena and
        #: heap entries carry identical ``(time, seq)`` keys and the
        #: epoch's choose step always weighs both, so the redirect
        #: cannot reorder anything — it only removes a heappush/heappop
        #: pair per event.  ``None`` whenever the classic loop runs.
        self._epoch_arena: list | None = None

    # -- process management --------------------------------------------------

    def spawn(self, name: str, gen: ProcGen) -> SimProcess:
        """Register a process and schedule its first step at the current time."""
        proc = SimProcess(name=name, gen=gen, pid=len(self.processes))
        self.processes.append(proc)
        self._runnable += 1
        self._schedule(proc, 0.0)
        return proc

    def _schedule(self, proc: SimProcess, dt: float) -> None:
        self._seq += 1
        arena = self._epoch_arena
        if arena is not None:
            _insort(arena, (-(self.now + dt), -self._seq, proc))
            return
        self.stats.heap_pushes += 1
        heapq.heappush(self._heap, (self.now + dt, self._seq, proc))

    # -- main loop -----------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run to completion (or to ``until``); returns the final time.

        Raises :class:`DeadlockError` if blocked processes remain with no
        pending event, and re-raises the first process exception (engine
        effects are interpreted strictly: a crashed process crashes the
        simulation, as a crashed Unix process would crash the benchmark).
        """
        if self._scheduler is not None:
            return self._run_controlled(until)
        self._until = until
        # Hot loop: localize everything touched per event.
        heap = self._heap
        heappop = heapq.heappop
        stats = self.stats
        step = self._step
        max_events = self._max_events
        # Epoch batching applies only to uncontrolled, untraced runs:
        # controlled mode is dispatched above (repro.check must see
        # every decision point), and traced runs take the classic loop
        # whose per-event trace emission the epoch path does not carry
        # (tracing is observational, so the simulation is identical).
        epoch = _epoch_default and self._trace is None
        while True:
            t = self._pend_t
            if t >= 0.0:
                # Uncontended fast-forward: the process that just stepped
                # is the only thing scheduled before every heap entry, so
                # resume it directly — same event count, same clock, no
                # heap push/pop.  Ties go to the heap (its entries carry
                # smaller sequence numbers than a fresh push would).
                self._pend_t = -1.0
                if (not heap or t < heap[0][0]) and (until is None or t <= until):
                    self.now = t
                    stats.events += 1
                    if stats.events > max_events:
                        raise self._over_budget()
                    step(self._pend_proc)
                    continue
                if epoch and heap and (until is None or t <= until):
                    # Heap crossing with at least two pending timelines:
                    # batch-retire the quiescent stretch without heap
                    # traffic, in exact global (time, seq) order.
                    self._run_epoch(t, self._pend_proc, until)
                    continue
                self._seq += 1
                stats.heap_pushes += 1
                _heappush(heap, (t, self._seq, self._pend_proc))
            if not heap:
                break
            if until is not None and heap[0][0] > until:
                # Stop without consuming the future event: a later run()
                # resumes exactly where this one paused.
                self.now = until
                return self.now
            t, _, proc = heappop(heap)
            stats.heap_pops += 1
            self.now = t
            stats.events += 1
            if stats.events > max_events:
                raise self._over_budget()
            state = proc.state
            if state is _DONE or state is _FAILED:
                continue
            step(proc)
        self._raise_if_stalled()
        return self.now

    def _run_controlled(self, until: float | None) -> float:
        """The schedule-controlled twin of :meth:`run`.

        Kept separate so the uncontrolled hot loop pays nothing for the
        hook.  Semantics differ in exactly one way: among the pending
        events sharing the earliest timestamp, the scheduler policy —
        not heap sequence order — picks which fires.  Everything the
        policy can choose is a legal interleaving: ties in simulated
        time are concurrency, and the default engine merely resolves
        them FIFO.
        """
        sched = self._scheduler
        attach = getattr(sched, "attach", None)
        if attach is not None:
            attach(self)
        self._until = until
        heap = self._heap
        heappop = heapq.heappop
        stats = self.stats
        while heap:
            # Drop stale entries for finished processes up front so they
            # never appear as candidates.
            while heap and heap[0][2].state in (_DONE, _FAILED):
                heappop(heap)
                stats.heap_pops += 1
            if not heap:
                break
            t0 = heap[0][0]
            if until is not None and t0 > until:
                self.now = until
                return self.now
            cands = [
                e for e in heap
                if e[0] == t0 and e[2].state not in (_DONE, _FAILED)
            ]
            cands.sort(key=lambda e: e[1])
            if len(cands) == 1:
                entry = cands[0]
            else:
                idx = sched.choose(t0, [e[2] for e in cands])
                entry = cands[idx if 0 <= idx < len(cands) else 0]
            heap.remove(entry)
            heapq.heapify(heap)
            self.now = t0
            stats.heap_pops += 1
            stats.events += 1
            if stats.events > self._max_events:
                raise self._over_budget()
            self._step(entry[2])
            t = self._pend_t
            if t >= 0.0:
                # Controlled mode never fast-forwards: every event goes
                # through the heap so the policy sees every choice point
                # the unfused engine would offer.
                self._pend_t = -1.0
                self._seq += 1
                stats.heap_pushes += 1
                _heappush(heap, (t, self._seq, self._pend_proc))
        self._raise_if_stalled()
        return self.now

    def _run_epoch(self, t: float, proc: SimProcess,
                   until: float | None) -> None:
        """Batch-retire a quiescent stretch of several processes.

        Entered from :meth:`run` at a heap crossing: the pending resume
        (``proc`` at time ``t``) no longer strictly precedes the heap,
        i.e. at least two timelines are pending.  The classic loop would
        now bounce every event through the heap — push the pending
        resume, pop the earliest entry, re-enter the interpreter — even
        while the processes merely interleave uncontended charges.
        Instead, pending resumes park in a small *arena*: a list of
        ``(-time, -seq, proc)`` entries kept sorted so the earliest
        ``(time, seq)`` sits at the end — O(1) to take, C-bisect to
        insert — and this loop replays each process's straight-line
        steps in exact global ``(time, seq)`` order with no heap
        traffic.  When a process enters a :class:`FusedSection`, its
        :meth:`~repro.core.effects.FusedSection.contention_horizon`
        summary prices the section's pure-compute prefix part by part
        (ulp-exact, the same float expressions ``timing.price`` would
        evaluate); if that horizon lands strictly before every other
        pending event, the whole prefix retires in one batch with zero
        intermediate ordering checks.

        Identity discipline (the figures are byte-identity-gated on it):

        * Parking consumes a fresh sequence number exactly where the
          classic loop would heappush, so every ordering decision —
          including ties, which go to the older entry — is made on the
          identical ``(time, seq)`` keys.
        * New heap entries (lock grants, channel wakes, spawns) merge by
          construction: the choose step always weighs the arena minimum
          against ``heap[0]`` and takes whichever wins.
        * Every handler call, price expression, recorder hook and stats
          update is the same code — or a line-for-line transcription —
          of the classic path, executed at the same simulated instants.
        * ``self.now``, the fused cursor ``state[1]`` and the additive
          counters (events, charges, charged_seconds, heap_pops) live in
          locals during a chain and sync before anything that can
          observe them — handler calls, ``S_CALL`` closures, generator
          resumes, dispatch — and unconditionally on exit (the
          ``finally``).  Between those points nothing reads them, so
          the deferral is invisible; only the grouping of the float
          ``charged_seconds`` accumulation changes, which no gated
          artifact consumes.

        The epoch ends when one timeline remains (the pending-resume
        slot takes over), when ``until`` is reached (the arena flushes
        back to the heap with its preserved keys, and :meth:`run` stops
        at ``until`` exactly as before), or when the program stalls or
        raises.  Controlled-scheduler and traced runs never enter (see
        :meth:`run`), so ``repro.check`` still sees every decision
        point and trace streams are emitted by the classic loop.
        """
        heap = self._heap
        stats = self.stats
        timing = self.timing
        price = timing.price
        recorder = self._recorder
        # Label profiling is enabled/disabled between runs (bench
        # profile), never mid-run; one read serves the whole epoch.
        lprof = _LABEL_PROF
        insort = _insort
        max_events = self._max_events
        arena: list = []
        ana = getattr(timing, "analytic_charge", None)
        analytic = ana is not None
        if analytic:
            t_instr, t_flop, a_cpus = ana
        until_f = _INF if until is None else until
        stats.epoch_batches += 1
        ev = stats.events
        ev0 = ev
        # Additive counters batched into locals; folded back in `finally`.
        n_ch = 0
        t_ch = 0.0
        n_pop = 0
        now = self.now
        # `cross` caches the earliest competing pending-event time
        # (arena or heap; +inf when the active process is the sole
        # timeline), so the hot continue-inline/park test is a single
        # float comparison.  Arena and heap only change at handler
        # calls, parks and chooses — `cross` is refreshed exactly there.
        cross = heap[0][0] if heap else _INF
        self._epoch_arena = arena
        try:
            while True:
                # ---- A) decide which event fires next --------------------
                if proc is not None:
                    if cross == _INF:
                        # Sole surviving timeline: hand back to the
                        # classic pending-resume slot; the epoch is over.
                        self._pend_t = t
                        self._pend_proc = proc
                        return
                    if t < cross and t <= until_f:
                        ev += 1
                        if ev > max_events:
                            now = t
                            raise self._over_budget()
                    else:
                        # Park exactly like a classic heappush: fresh
                        # sequence number, so ties resolve to the older
                        # entry — identical FIFO order.
                        self._seq += 1
                        insort(arena, (-t, -self._seq, proc))
                        if t < cross:
                            cross = t  # until-bounded park is the new min
                        proc = None
                if proc is None:
                    while True:
                        if arena:
                            e = arena[-1]
                            at = -e[0]
                            if heap:
                                h0 = heap[0]
                                ht = h0[0]
                                take_heap = ht < at or (
                                    ht == at and h0[1] < -e[1])
                            else:
                                take_heap = False
                        elif heap:
                            h0 = heap[0]
                            take_heap = True
                        else:
                            # Nothing pending anywhere; run() falls
                            # through to the stall detector.
                            return
                        if take_heap:
                            tn = h0[0]
                            if tn > until_f:
                                self._flush_arena(arena)
                                return
                            _heappop(heap)
                            n_pop += 1
                            cand = h0[2]
                        else:
                            tn = at
                            if tn > until_f:
                                # Bound reached: everything pending goes
                                # back on the heap with its preserved
                                # (time, seq) keys; run() then stops at
                                # `until` exactly as classic stepping
                                # would.
                                self._flush_arena(arena)
                                return
                            arena.pop()
                            cand = e[2]
                        ev += 1
                        if ev > max_events:
                            now = tn
                            raise self._over_budget()
                        st = cand.state
                        if st is _DONE or st is _FAILED:
                            now = tn  # classic advances the clock here too
                            continue
                        proc = cand
                        t = tn
                        break
                    if arena:
                        cross = -arena[-1][0]
                        if heap and heap[0][0] < cross:
                            cross = heap[0][0]
                    elif heap:
                        cross = heap[0][0]
                    else:
                        cross = _INF
                # ---- B) execute one event of `proc` at time `t` ----------
                now = t
                if proc._copying:
                    # The charge that just completed was a copy phase.
                    proc._copying = False
                    timing.copy_finished()
                # The event that resumed `proc` is counted but not yet
                # spent — _advance_fused's `external` flag, same meaning.
                external = True
                # `_runnable` changes only in handlers (block/grant/wake),
                # at completion and at spawn — never between two charge
                # steps — so one read is exact until the next handler
                # call or generator resume (both refresh it).
                r = self._runnable
                state = proc._fused
                while True:  # same-event chain: fused steps + gen resumes
                    if state is not None:
                        # Fused-section replay: the epoch twin of
                        # _advance_fused (see its docstring for the
                        # accounting discipline transcribed here).
                        steps = state[0]
                        n = len(steps)
                        idx = state[1]
                        parked = False
                        while True:
                            if idx >= n:
                                proc._fused = None
                                proc._inbox = state[2]
                                if not external:
                                    ev += 1  # the resume's own tick
                                    if ev > max_events:
                                        raise self._over_budget()
                                external = True
                                state = None
                                break  # resume the generator, same event
                            op, arg = steps[idx]
                            idx += 1
                            if op >= 5:  # S_CALL / S_NEXT
                                if op == 6:  # S_NEXT
                                    if not external:
                                        ev += 1
                                        if ev > max_events:
                                            raise self._over_budget()
                                        external = True
                                    continue
                                if op != 5:
                                    raise SimulationError(
                                        f"bad fused step opcode {op!r}")
                                state[1] = idx
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
                            if external:
                                external = False
                            else:
                                ev += 1
                                if ev > max_events:
                                    raise self._over_budget()
                            if op == 0:  # S_CHARGE (_do_charge inlined)
                                work = arg
                                if analytic and not (
                                        work.copy_bytes or work.blocks
                                        or work.page_bytes):
                                    # Bit-exact transcription of the
                                    # pure-compute path of timing.price.
                                    dt = work.instrs * t_instr
                                    if work.flops:
                                        dt += work.flops * t_flop
                                    if r > a_cpus:
                                        dt *= r / a_cpus
                                else:
                                    dt = price(work, r)
                                    if work.copy_bytes > 0:
                                        proc._copying = True
                                        timing.copy_started()
                                n_ch += 1
                                t_ch += dt
                                if lprof is not None:
                                    e = lprof.get(work.label)
                                    if e is None:
                                        lprof[work.label] = [1, dt]
                                    else:
                                        e[0] += 1
                                        e[1] += dt
                                if recorder is not None:
                                    recorder.on_charge(
                                        now + dt, proc.name, work.label,
                                        dt, work.instrs, work.flops)
                                t2 = now + dt
                            elif op == 1:  # S_MANY (_do_charge_many inlined)
                                works = arg
                                t2 = now
                                for work in works:
                                    if analytic and not (
                                            work.copy_bytes or work.blocks
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
                                    if lprof is not None:
                                        e = lprof.get(work.label)
                                        if e is None:
                                            lprof[work.label] = [1, dt]
                                        else:
                                            e[0] += 1
                                            e[1] += dt
                                    if recorder is not None:
                                        recorder.on_charge(
                                            t2, proc.name, work.label,
                                            dt, work.instrs, work.flops)
                                ev += len(works) - 1
                                if ev > max_events:
                                    raise self._over_budget()
                            else:
                                state[1] = idx
                                self.now = now
                                if op == 2:  # S_ACQ
                                    self._do_acquire(proc, arg)
                                elif op == 3:  # S_REL
                                    self._do_release(proc, arg)
                                else:
                                    raise SimulationError(
                                        f"bad fused step opcode {op!r}")
                                t2 = self._pend_t
                                if t2 < 0.0:
                                    # Contended acquire: proc sits in the
                                    # lock's waiter FIFO mid-section; the
                                    # grant resumes it (via the arena)
                                    # and the choose step merges it back.
                                    parked = True
                                    break
                                self._pend_t = -1.0
                                # The handler may have granted/woken other
                                # processes into the arena (and changed
                                # _runnable): refresh cross and r.
                                r = self._runnable
                                if arena:
                                    cross = -arena[-1][0]
                                    if heap and heap[0][0] < cross:
                                        cross = heap[0][0]
                                elif heap:
                                    cross = heap[0][0]
                                else:
                                    cross = _INF
                            # Continue inline only while strictly earliest
                            # among arena, heap and the until bound.
                            if t2 >= cross or t2 > until_f:
                                state[1] = idx
                                self._seq += 1
                                insort(arena, (-t2, -self._seq, proc))
                                if t2 < cross:
                                    cross = t2
                                parked = True
                                break
                            now = t2
                            if proc._copying:
                                proc._copying = False
                                timing.copy_finished()
                        if parked:
                            proc = None
                            break
                        continue  # state is None: resume the generator
                    self.now = now  # generator bodies may observe the clock
                    try:
                        if proc._throw is not None:
                            exc, proc._throw = proc._throw, None
                            effect = proc.gen.throw(exc)
                        else:
                            value, proc._inbox = proc._inbox, None
                            effect = proc.gen.send(value)
                    except StopIteration as stop:
                        proc.state = _DONE
                        proc.result = stop.value
                        self._runnable -= 1
                        proc = None
                        break
                    except BaseException as exc:
                        proc.state = _FAILED
                        proc.error = exc
                        self._runnable -= 1
                        raise
                    # The body may have spawned processes (into the arena,
                    # at the synced clock): refresh r; cross refreshes in
                    # every effect branch below before it is next used.
                    r = self._runnable
                    cls = effect.__class__
                    if cls is FusedSection:
                        state = proc._fused = [effect.steps, 0, None]
                        if arena:
                            cross = -arena[-1][0]
                            if heap and heap[0][0] < cross:
                                cross = heap[0][0]
                        elif heap:
                            cross = heap[0][0]
                        else:
                            cross = _INF
                        if analytic:
                            # Contention-horizon batch: the section's
                            # pure-compute prefix has a memoized base
                            # duration (pricing pure work is a function
                            # of the Work and the analytic constants
                            # only), so deciding whether the whole
                            # prefix fits before the next competing
                            # event costs one multiply and two compares.
                            pc = effect._priced
                            if pc is None or pc[0] is not ana:
                                parts, stop_idx, _stop_op = \
                                    effect.contention_horizon()
                                base = []
                                tot = 0.0
                                for w in parts:
                                    b = w.instrs * t_instr
                                    if w.flops:
                                        b += w.flops * t_flop
                                    base.append(b)
                                    tot += b
                                pc = (ana, parts, stop_idx,
                                      tuple(base), tot)
                                object.__setattr__(effect, "_priced", pc)
                            parts = pc[1]
                            if parts:
                                if r > a_cpus:
                                    factor = r / a_cpus
                                    te = now + pc[4] * factor
                                else:
                                    factor = 0.0
                                    te = now + pc[4]
                                # Conservative upper bound: the gate sum
                                # may differ from the exact per-part
                                # accumulation by a few ulps; pad well
                                # past that so a pass guarantees every
                                # exact intermediate time stays strictly
                                # below cross.  A pad-induced reject
                                # merely takes the per-step path.
                                te += te * 1e-12
                                if te < cross and te <= until_f:
                                    base = pc[3]
                                    if lprof is None and recorder is None:
                                        # Unobserved replay: only the
                                        # exact sequential clock
                                        # accumulation remains.
                                        if factor:
                                            for dt in base:
                                                dt *= factor
                                                t_ch += dt
                                                now = now + dt
                                        else:
                                            for dt in base:
                                                t_ch += dt
                                                now = now + dt
                                        n_ch += len(parts)
                                    else:
                                        i = 0
                                        for work in parts:
                                            dt = base[i]
                                            i += 1
                                            if factor:
                                                dt *= factor
                                            n_ch += 1
                                            t_ch += dt
                                            now = now + dt
                                            if lprof is not None:
                                                e = lprof.get(work.label)
                                                if e is None:
                                                    lprof[work.label] = [1, dt]
                                                else:
                                                    e[0] += 1
                                                    e[1] += dt
                                            if recorder is not None:
                                                recorder.on_charge(
                                                    now, proc.name,
                                                    work.label, dt,
                                                    work.instrs, work.flops)
                                    ev += len(parts) - 1
                                    external = False
                                    state[1] = pc[2]
                        continue
                    if cls is Charge:  # _do_charge inlined
                        work = effect.work
                        if analytic and not (work.copy_bytes or work.blocks
                                             or work.page_bytes):
                            dt = work.instrs * t_instr
                            if work.flops:
                                dt += work.flops * t_flop
                            if r > a_cpus:
                                dt *= r / a_cpus
                        else:
                            dt = price(work, r)
                            if work.copy_bytes > 0:
                                proc._copying = True
                                timing.copy_started()
                        n_ch += 1
                        t_ch += dt
                        if lprof is not None:
                            e = lprof.get(work.label)
                            if e is None:
                                lprof[work.label] = [1, dt]
                            else:
                                e[0] += 1
                                e[1] += dt
                        if recorder is not None:
                            recorder.on_charge(now + dt, proc.name,
                                               work.label, dt,
                                               work.instrs, work.flops)
                        t2 = now + dt
                    elif cls is ChargeMany:  # _do_charge_many inlined
                        works = effect.works
                        t2 = now
                        for work in works:
                            if analytic and not (
                                    work.copy_bytes or work.blocks
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
                            if lprof is not None:
                                e = lprof.get(work.label)
                                if e is None:
                                    lprof[work.label] = [1, dt]
                                else:
                                    e[0] += 1
                                    e[1] += dt
                            if recorder is not None:
                                recorder.on_charge(t2, proc.name, work.label,
                                                   dt, work.instrs, work.flops)
                        ev += len(works) - 1
                        if ev > max_events:
                            raise self._over_budget()
                    elif cls is Acquire:
                        self._do_acquire(proc, effect.lock_id)
                        t2 = self._pend_t
                        if t2 >= 0.0:
                            self._pend_t = -1.0
                    elif cls is Release:
                        self._do_release(proc, effect.lock_id)
                        t2 = self._pend_t
                        if t2 >= 0.0:
                            self._pend_t = -1.0
                    elif cls is WaitOn:
                        self._do_wait(proc, effect.chan, effect.lock_id)
                        t2 = self._pend_t  # blocked: stays empty
                    elif cls is Wake:
                        self._do_wake(proc, effect.chan)
                        t2 = self._pend_t
                        if t2 >= 0.0:
                            self._pend_t = -1.0
                    else:
                        # Effect subclasses and the non-effect error path
                        # (_dispatch may update stats.events for a
                        # ChargeMany subclass; keep the local in sync).
                        stats.events = ev
                        self._dispatch(proc, effect)
                        ev = stats.events
                        t2 = self._pend_t
                        if t2 >= 0.0:
                            self._pend_t = -1.0
                    # A handler branch (or a spawn in the body) may have
                    # granted/woken processes into the arena: refresh
                    # cross before reusing it (charge branches leave
                    # arena and heap untouched, so the unconditional
                    # refresh is a no-op for them).
                    if arena:
                        cross = -arena[-1][0]
                        if heap and heap[0][0] < cross:
                            cross = heap[0][0]
                    elif heap:
                        cross = heap[0][0]
                    else:
                        cross = _INF
                    if t2 < 0.0:
                        proc = None  # blocked; a wake/grant resumes it
                        break
                    # Event done at t2: continue the chain inline while
                    # strictly earliest (same test as step A), else park.
                    if t2 < cross and t2 <= until_f:
                        ev += 1
                        if ev > max_events:
                            now = t2
                            raise self._over_budget()
                        now = t2
                        if proc._copying:
                            proc._copying = False
                            timing.copy_finished()
                        external = True
                        continue
                    if cross == _INF:
                        # Sole surviving timeline: back to the pending-
                        # resume slot; the epoch is over.
                        self._pend_t = t2
                        self._pend_proc = proc
                        return
                    self._seq += 1
                    insort(arena, (-t2, -self._seq, proc))
                    if t2 < cross:
                        cross = t2
                    proc = None
                    break
        finally:
            self._epoch_arena = None
            self.now = now
            stats.events = ev
            stats.epoch_events += ev - ev0
            stats.charges += n_ch
            stats.charged_seconds += t_ch
            stats.heap_pops += n_pop
            if arena:
                # until-bound or exception exit: put pending resumes back
                # on the heap so engine state matches the classic loop's
                # (which would have had them there all along).
                self._flush_arena(arena)

    def _over_budget(self) -> SimulationError:
        return SimulationError(f"exceeded {self._max_events} events")

    def _flush_arena(self, arena: list) -> None:
        """Return epoch-arena entries to the heap, keys preserved."""
        heap = self._heap
        stats = self.stats
        while arena:
            nt, ns, p = arena.pop()
            stats.heap_pushes += 1
            _heappush(heap, (-nt, -ns, p))

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

    # -- single step ----------------------------------------------------------

    def _step(self, proc: SimProcess) -> None:
        # A loop rather than a straight line: completing a FusedSection
        # resumes the generator within the same event, and the effect it
        # yields next (possibly another FusedSection) dispatches here too.
        while True:
            if proc._copying:
                # The charge that just completed was a copy phase.
                proc._copying = False
                self.timing.copy_finished()
            if proc._fused is not None and not self._advance_fused(proc):
                return
            try:
                if proc._throw is not None:
                    exc, proc._throw = proc._throw, None
                    effect = proc.gen.throw(exc)
                else:
                    value, proc._inbox = proc._inbox, None
                    effect = proc.gen.send(value)
            except StopIteration as stop:
                proc.state = _DONE
                proc.result = stop.value
                self._runnable -= 1
                return
            except BaseException as exc:
                proc.state = _FAILED
                proc.error = exc
                self._runnable -= 1
                raise
            # Type-keyed dispatch, most frequent effect first.  Exact class
            # checks (not isinstance chains) are the common case; effect
            # subclasses fall through to the isinstance path in _dispatch.
            cls = effect.__class__
            if cls is FusedSection:
                # The steps tuple is shared with the (possibly cached)
                # effect and never mutated: a jump replaces the whole
                # tuple in the state cell instead of editing in place.
                proc._fused = [effect.steps, 0, None]
                if self._advance_fused(proc):
                    continue
                return
            if self._trace is not None:
                self._dispatch(proc, effect)
            elif cls is Charge:
                self._do_charge(proc, effect.work)
            elif cls is Acquire:
                self._do_acquire(proc, effect.lock_id)
            elif cls is Release:
                self._do_release(proc, effect.lock_id)
            elif cls is WaitOn:
                self._do_wait(proc, effect.chan, effect.lock_id)
            elif cls is Wake:
                self._do_wake(proc, effect.chan)
            elif cls is ChargeMany:
                self._do_charge_many(proc, effect.works)
            else:
                self._dispatch(proc, effect)
            return

    def _advance_fused(self, proc: SimProcess) -> bool:
        """Execute a :class:`FusedSection`'s remaining steps.

        Returns ``True`` when the generator should be resumed *now*
        (section complete, or a call bailed), ``False`` when the process
        parked (a continuation was scheduled, or it blocked in a lock's
        FIFO and the grant will resume the section).

        Identity discipline — each time-advancing step:

        * runs through the *same* effect handler the unfused engine
          would use, so pricing, statistics, recorder hooks and
          lock/channel state transitions are shared code, not replicas
          (``S_CHARGE`` is the one exception: its handler body is
          transcribed inline below, line for line, because charges are
          the majority of all fused steps);
        * costs exactly one ``stats.events`` tick.  On entry, the event
          that resumed us (heap pop or inline fast-forward) has been
          counted but not yet spent; the first time-advancing step
          consumes it, later ones count their own.  Completing or
          bailing with no unspent event adds the tick the generator
          resume would have cost as its own heap pop;
        * executes at the completion instant of the previous step —
          the same clock value at which the unfused generator's body
          would run between the two yields.

        Steps continue inline only while the next resume time strictly
        precedes every heap entry (ties go to the heap: existing entries
        hold smaller sequence numbers than a fresh push would get, so
        FIFO order is preserved).  On contention — the pending slot left
        empty because :meth:`_do_acquire` parked us — the section
        freezes mid-way and the lock grant resumes it step by step, the
        fall-back the fusion guard promises.  Under a controlled
        scheduler every step parks, so the policy sees the identical
        choice points as unfused stepping.
        """
        state = proc._fused
        steps = state[0]
        n = len(steps)
        idx = state[1]
        stats = self.stats
        heap = self._heap
        trace = self._trace
        until = self._until
        ctl = self._scheduler is not None
        timing = self.timing
        recorder = self._recorder
        max_events = self._max_events
        external = True
        now = self.now
        while True:
            if idx >= n:
                proc._inbox = state[2]
                break
            op, arg = steps[idx]
            idx += 1
            state[1] = idx
            if op >= 5:  # free, at the current instant: call or boundary
                if op == 6:  # S_NEXT: the tick of the resume it replaces
                    if not external:
                        stats.events += 1
                        if stats.events > max_events:
                            raise self._over_budget()
                        external = True
                    continue
                if op != 5:
                    raise SimulationError(f"bad fused step opcode {op!r}")
                d = arg()  # S_CALL: generator-body code
                if d is not None:
                    if d[0] == 4:  # D_JUMP
                        state[2] = d[1]
                        state[0] = steps = d[2]
                        n = len(steps)
                        idx = 0
                    else:  # D_BAIL
                        proc._inbox = d[1]
                        break
                continue
            if external:
                external = False
            else:
                stats.events += 1
                if stats.events > max_events:
                    raise self._over_budget()
            if op == 0:  # S_CHARGE — _do_charge inlined (hottest step kind)
                if trace is not None:
                    trace(now, proc.name, f"Charge(work={arg!r})")
                dt = timing.price(arg, self._runnable)
                if arg.copy_bytes > 0:
                    proc._copying = True
                    timing.copy_started()
                stats.charges += 1
                stats.charged_seconds += dt
                if _LABEL_PROF is not None:
                    e = _LABEL_PROF.get(arg.label)
                    if e is None:
                        _LABEL_PROF[arg.label] = [1, dt]
                    else:
                        e[0] += 1
                        e[1] += dt
                if recorder is not None:
                    recorder.on_charge(now + dt, proc.name, arg.label,
                                       dt, arg.instrs, arg.flops)
                t = now + dt
            else:
                if op == 2:  # S_ACQ
                    if trace is not None:
                        trace(now, proc.name, f"Acquire(lock_id={arg})")
                    self._do_acquire(proc, arg)
                elif op == 3:  # S_REL
                    if trace is not None:
                        trace(now, proc.name, f"Release(lock_id={arg})")
                    self._do_release(proc, arg)
                elif op == 1:  # S_MANY (handler traces per part itself)
                    self._do_charge_many(proc, arg)
                else:
                    raise SimulationError(f"bad fused step opcode {op!r}")
                t = self._pend_t
                if t < 0.0:
                    # Contended acquire: we are in the lock's waiter FIFO
                    # with the index already past the acquire step; the
                    # grant's heap entry restarts this interpreter.
                    return False
                self._pend_t = -1.0
            if ctl or (heap and heap[0][0] <= t) or (until is not None and t > until):
                if (_epoch_default and not ctl and trace is None
                        and heap and heap[0][0] <= t
                        and (until is None or t <= until)):
                    # Heap crossing mid-section: enter the epoch batcher
                    # instead of bouncing through the heap.  Step A of
                    # _run_epoch parks us with a fresh sequence number —
                    # exactly the heappush below — and then retires the
                    # whole quiescent stretch arena-side.
                    self._run_epoch(t, proc, until)
                    return False
                self._seq += 1
                stats.heap_pushes += 1
                _heappush(heap, (t, self._seq, proc))
                return False
            self.now = now = t
            if proc._copying:
                proc._copying = False
                timing.copy_finished()
        # Complete or bailed: the resume costs an event unless one is unspent.
        proc._fused = None
        if not external:
            stats.events += 1
            if stats.events > max_events:
                raise self._over_budget()
        return True

    def _dispatch(self, proc: SimProcess, effect: object) -> None:
        """Traced / subclass dispatch path (the pre-fast-path semantics)."""
        if self._trace is not None and not isinstance(effect, ChargeMany):
            self._trace(self.now, proc.name, repr(effect))
        if isinstance(effect, Charge):
            self._do_charge(proc, effect.work)
        elif isinstance(effect, Acquire):
            self._do_acquire(proc, effect.lock_id)
        elif isinstance(effect, Release):
            self._do_release(proc, effect.lock_id)
        elif isinstance(effect, WaitOn):
            self._do_wait(proc, effect.chan, effect.lock_id)
        elif isinstance(effect, Wake):
            self._do_wake(proc, effect.chan)
        elif isinstance(effect, ChargeMany):
            # Traced per part (as Charge lines) inside the handler, so
            # per-label trace analyses see the same stream as unfused.
            self._do_charge_many(proc, effect.works)
        else:
            proc.state = _FAILED
            self._runnable -= 1
            err = SimulationError(
                f"process {proc.name!r} yielded non-effect {effect!r}"
            )
            proc.error = err
            raise err

    # -- effect handlers -------------------------------------------------------

    def _do_charge(self, proc: SimProcess, work: Work) -> None:
        dt = self.timing.price(work, self._runnable)
        if work.copy_bytes > 0:
            proc._copying = True
            self.timing.copy_started()
        stats = self.stats
        stats.charges += 1
        stats.charged_seconds += dt
        if _LABEL_PROF is not None:
            e = _LABEL_PROF.get(work.label)
            if e is None:
                _LABEL_PROF[work.label] = [1, dt]
            else:
                e[0] += 1
                e[1] += dt
        if self._recorder is not None:
            # Stamp the charge at its end so exported spans cover
            # [now, now + dt] once the recorder subtracts the duration.
            self._recorder.on_charge(self.now + dt, proc.name, work.label,
                                     dt, work.instrs, work.flops)
        self._pend_t = self.now + dt
        self._pend_proc = proc

    def _do_charge_many(self, proc: SimProcess, works: tuple[Work, ...]) -> None:
        """Price several adjacent charges as one scheduler event.

        Each part is priced separately (in order) and the clock advances
        by ``((now + dt1) + dt2) ...`` — the *same float expression* the
        equivalent back-to-back :class:`Charge` events would evaluate, so
        resume timestamps are bit-identical, not merely close (summing
        the dts first would differ in the last ulp and, across millions
        of events, drift figure values).  Statistics, recorder hooks and
        trace lines are emitted per part with the unfused timestamps.
        See :class:`~repro.core.effects.ChargeMany` for the
        (compute-only) restriction that makes this an identity.
        """
        timing = self.timing
        runnable = self._runnable
        stats = self.stats
        recorder = self._recorder
        trace = self._trace
        t = self.now
        for work in works:
            if trace is not None:
                self._trace(t, proc.name, f"Charge(work={work!r})")
            dt = timing.price(work, runnable)
            stats.charges += 1
            stats.charged_seconds += dt
            t = t + dt
            if _LABEL_PROF is not None:
                e = _LABEL_PROF.get(work.label)
                if e is None:
                    _LABEL_PROF[work.label] = [1, dt]
                else:
                    e[0] += 1
                    e[1] += dt
            if recorder is not None:
                recorder.on_charge(t, proc.name, work.label,
                                   dt, work.instrs, work.flops)
        stats.events += len(works) - 1
        if stats.events > self._max_events:
            raise self._over_budget()
        # Resume at the absolute accumulated time (not now + total).
        self._pend_t = t
        self._pend_proc = proc

    def _lock(self, lock_id: int) -> _SimLock:
        try:
            return self.locks[lock_id]
        except IndexError:
            raise SimulationError(f"lock id {lock_id} out of range") from None

    def _chan(self, chan: int) -> _WaitChannel:
        try:
            return self.channels[chan]
        except IndexError:
            raise SimulationError(f"wait channel {chan} out of range") from None

    def _do_acquire(self, proc: SimProcess, lock_id: int) -> None:
        try:
            lock = self.locks[lock_id]
        except IndexError:
            raise SimulationError(f"lock id {lock_id} out of range") from None
        self.stats.lock_acquires += 1
        if lock.owner is None:
            lock.owner = proc
            lock.acquired_at = self.now
            if self._recorder is not None:
                self._recorder.on_acquire(self.now, proc.name, lock_id,
                                          0.0, contended=False)
            self._pend_t = self.now + self._t_acquire
            self._pend_proc = proc
        else:
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

    def _do_release(self, proc: SimProcess, lock_id: int) -> None:
        try:
            lock = self.locks[lock_id]
        except IndexError:
            raise SimulationError(f"lock id {lock_id} out of range") from None
        if lock.owner is not proc:
            raise SimulationError(
                f"process {proc.name!r} released lock {lock_id} it does not own"
            )
        if self._recorder is not None:
            self._recorder.on_release(self.now, proc.name, lock_id,
                                      self.now - lock.acquired_at)
        if lock.waiters:
            self._grant_next(lock_id, lock)
        else:
            lock.owner = None
        self._pend_t = self.now + self._t_release
        self._pend_proc = proc

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
            self._seq += 1
            arena = self._epoch_arena
            if arena is not None:
                _insort(arena,
                        (-(self.now + self._t_acquire), -self._seq, nxt))
            else:
                self.stats.heap_pushes += 1
                _heappush(self._heap,
                          (self.now + self._t_acquire, self._seq, nxt))
        else:
            lock.owner = None

    def _do_wait(self, proc: SimProcess, chan: int, lock_id: int) -> None:
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

    def _do_wake(self, proc: SimProcess, chan: int) -> None:
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
                self._seq += 1
                arena = self._epoch_arena
                if arena is not None:
                    _insort(arena,
                            (-(self.now + self._t_acquire), -self._seq,
                             sleeper))
                else:
                    self.stats.heap_pushes += 1
                    _heappush(self._heap,
                              (self.now + self._t_acquire, self._seq,
                               sleeper))
            else:
                sleeper.state = _WAIT_LOCK
                sleeper._implicit_reacquire = True
                lock.waiters.append(sleeper)
        self._pend_t = self.now + self.timing.wake_cost(n)
        self._pend_proc = proc
