"""The thread runtime: MPF over real ``threading`` primitives.

Here the shared region is a plain ``bytearray`` visible to every thread,
locks are ``threading.Lock`` objects and the per-circuit wait channels are
``threading.Condition`` objects built *on the circuit's lock* — which
gives :class:`~repro.core.effects.WaitOn` its atomic
release-sleep-reacquire semantics for free
(:class:`~repro.runtime.sync.RealSync`).  :func:`drive`, the effect
trampoline every real runtime shares, lives here too; it talks to the
host only through the four :mod:`~repro.runtime.sync` methods.

The GIL means threads cannot add parallel *speed* (and on this repo's
reference host there is one CPU anyway), but they add real *concurrency*:
preemption points interleave the byte-level data-structure manipulation
arbitrarily, so this runtime is the one that stress-tests the locking
discipline of :mod:`repro.core.ops` against real races.
"""

from __future__ import annotations

import threading
import time
from typing import Generator, Sequence

from ..core.costmodel import Costs, DEFAULT_COSTS
from ..core.effects import Acquire, Charge, ChargeMany, Release, WaitOn, Wake
from ..core.errors import DeadlockSuspectedError
from ..core.layout import MPFConfig, SegmentLayout, format_region
from ..core.ops import MPFView
from ..core.region import SharedRegion
from .base import Env, RunResult, Runtime, Worker, snapshot_header
from .sync import RealSync, SyncBase

__all__ = ["ThreadRuntime", "drive", "RealSync", "ThreadState",
           "deadlock_error"]


class ThreadState:
    """What one driven worker is doing right now, for deadlock dumps.

    Updated by :func:`drive` *before* each blocking call, so when a join
    timeout fires the runtime can report what every stuck thread was
    last waiting on and which locks it still holds.  Plain attribute
    writes only — cheap enough to keep on the uninstrumented path.
    """

    __slots__ = ("blocked_on", "held")

    def __init__(self) -> None:
        #: ``("lock", lock_id)`` / ``("chan", chan)`` while blocking,
        #: ``None`` while running, ``("done",)`` after return.
        self.blocked_on: tuple | None = None
        #: lock ids currently held, in acquisition order.
        self.held: list[int] = []

    def dump(self) -> dict:
        return {"blocked_on": self.blocked_on, "held": list(self.held)}


def deadlock_error(stuck: dict[str, dict], died: dict[str, str],
                   join_timeout: float | None) -> DeadlockSuspectedError:
    """The join-timeout error both real runtimes raise.

    ``stuck`` maps each unfinished worker to its :meth:`ThreadState.dump`;
    ``died`` maps workers that raised to a description — a worker that
    died early (its peers now wait forever on it) is the likelier root
    cause than a true deadlock, so those are named instead of masked.
    """
    lines = [
        f"  {n}: blocked_on={d['blocked_on']} held={d['held']}"
        for n, d in sorted(stuck.items())
    ]
    lines += [f"  {n}: died with {died[n]}" for n in sorted(died)]
    return DeadlockSuspectedError(
        f"{len(stuck)} worker(s) did not finish within {join_timeout}s "
        "(blocked receive?):\n" + "\n".join(lines),
        threads=stuck,
    )


def drive(
    gen: Generator,
    sync: SyncBase,
    recorder=None,
    process: str = "p0",
    state: ThreadState | None = None,
) -> object:
    """Trampoline: run an effect generator against real primitives.

    Returns the generator's return value.  ``Charge`` effects are free —
    real time passes on its own.  ``sync`` is any
    :class:`~repro.runtime.sync.SyncBase`: one code path per effect,
    whatever hosts the locks.

    With a :class:`repro.obs.Recorder` attached, the trampoline measures
    each blocking primitive on the recorder's clock
    (:attr:`~repro.obs.Recorder.now`): lock wait time (an acquire is
    contended when its first attempt failed, and its wait then includes
    any spinning the sync did before it slept), lock hold time, and
    condition sleep time — the same profile the simulated engine records
    in simulated time.  ``Charge`` labels are tallied by instruction
    budget (their wall time is zero: real compute takes real time by
    itself).
    """
    if state is None:
        state = ThreadState()
    if recorder is None:
        value: object = None
        while True:
            try:
                effect = gen.send(value)
            except StopIteration as stop:
                state.blocked_on = ("done",)
                return stop.value
            value = None
            # Effects are final classes: dispatch on the exact class,
            # most frequent first, as ``Engine.run`` does.
            cls = effect.__class__
            if cls is Charge or cls is ChargeMany:
                continue
            if cls is Acquire:
                state.blocked_on = ("lock", effect.lock_id)
                sync.acquire(effect.lock_id)
                state.blocked_on = None
                state.held.append(effect.lock_id)
            elif cls is Release:
                sync.release(effect.lock_id)
                state.held.remove(effect.lock_id)
            elif cls is WaitOn:
                # The caller holds the circuit lock; wait() releases it,
                # sleeps and returns holding it again.
                state.blocked_on = ("chan", effect.chan)
                state.held.remove(effect.lock_id)
                sync.wait(effect.chan, effect.lock_id)
                state.blocked_on = None
                state.held.append(effect.lock_id)
            elif cls is Wake:
                sync.wake(effect.chan)
            else:
                raise RuntimeError(
                    f"non-effect {effect!r} yielded to real runtime"
                )
    return _drive_recorded(gen, sync, recorder, process, state)


def _drive_recorded(gen: Generator, sync: SyncBase, recorder,
                    process: str, state: ThreadState) -> object:
    """The instrumented twin of :func:`drive` (kept separate so the
    common uninstrumented path stays allocation-free)."""
    clock = recorder.now
    held_since: dict[int, float] = {}
    value: object = None
    while True:
        try:
            effect = gen.send(value)
        except StopIteration as stop:
            state.blocked_on = ("done",)
            return stop.value
        value = None
        cls = effect.__class__
        if cls is Charge:
            w = effect.work
            recorder.on_charge(clock(), process, w.label, 0.0,
                               w.instrs, w.flops)
        elif cls is ChargeMany:
            now = clock()
            for w in effect.works:
                recorder.on_charge(now, process, w.label, 0.0,
                                   w.instrs, w.flops)
        elif cls is Acquire:
            state.blocked_on = ("lock", effect.lock_id)
            t0 = clock()
            contended = sync.acquire(effect.lock_id)
            now = clock()
            state.blocked_on = None
            state.held.append(effect.lock_id)
            recorder.on_acquire(now, process, effect.lock_id,
                                now - t0 if contended else 0.0, contended)
            held_since[effect.lock_id] = now
        elif cls is Release:
            sync.release(effect.lock_id)
            state.held.remove(effect.lock_id)
            now = clock()
            recorder.on_release(now, process, effect.lock_id,
                                now - held_since.pop(effect.lock_id, now))
        elif cls is WaitOn:
            t0 = clock()
            recorder.on_release(t0, process, effect.lock_id,
                                t0 - held_since.pop(effect.lock_id, t0),
                                counted=False)
            state.blocked_on = ("chan", effect.chan)
            state.held.remove(effect.lock_id)
            sync.wait(effect.chan, effect.lock_id)
            state.blocked_on = None
            state.held.append(effect.lock_id)
            now = clock()
            recorder.on_chan_wait(now, process, effect.chan, now - t0)
            # wait() returns with the circuit lock re-held: a new hold
            # span starts, without counting an Acquire effect.
            recorder.on_acquire(now, process, effect.lock_id, 0.0,
                                contended=False, counted=False)
            held_since[effect.lock_id] = now
        elif cls is Wake:
            woken = sync.wake(effect.chan)
            recorder.on_wake(clock(), process, effect.chan, woken)
        else:
            raise RuntimeError(f"non-effect {effect!r} yielded to real runtime")


class ThreadRuntime(Runtime):
    """Run each worker in its own OS thread."""

    kind = "threads"

    def __init__(self, join_timeout: float | None = 120.0, recorder=None) -> None:
        #: Seconds to wait for worker threads; ``None`` waits forever.  A
        #: blocked-forever receive (paper §3.2's lost-message hazard)
        #: surfaces as a timeout error instead of a hang.
        self.join_timeout = join_timeout
        #: Optional :class:`repro.obs.Recorder`.  Each worker thread
        #: records into a private child recorder (so measurement adds no
        #: cross-thread contention of its own) merged after the join.
        self.recorder = recorder
        #: The segment of the latest :meth:`run`, set before its threads
        #: start: after a timeout or a worker exception it holds the
        #: state to inspect.
        self.last_view: MPFView | None = None

    def run(
        self,
        workers: Sequence[Worker],
        cfg: MPFConfig | None = None,
        costs: Costs = DEFAULT_COSTS,
        names: Sequence[str] | None = None,
    ) -> RunResult:
        nprocs = len(workers)
        cfg = self.default_config(nprocs, cfg)
        names = self.process_names(nprocs, names)

        region = SharedRegion(bytearray(SegmentLayout(cfg).total_size))
        layout = format_region(region, cfg)
        view = self.last_view = MPFView(region, layout, costs)
        sync = RealSync(cfg)

        t0 = time.perf_counter()
        clock = lambda: time.perf_counter() - t0  # noqa: E731

        results: dict[str, object] = {}
        errors: dict[str, BaseException] = {}
        locals_: dict[str, object] = {}
        if self.recorder is not None:
            # One shared probe on the shared view — list appends and dict
            # updates to monotonic counters are GIL-atomic — while the
            # lock and channel hooks land on per-thread children (which
            # inherit this clock) merged in name order after the join.
            self.recorder.attach(view, clock, "wall")

        states = {name: ThreadState() for name in names}
        syncs = {name: sync.bind(rank) for rank, name in enumerate(names)}

        def body(name: str, rank: int, worker: Worker) -> None:
            env = Env(view, rank, nprocs, clock)
            rec = None
            if self.recorder is not None:
                rec = locals_[name] = self.recorder.child()
            try:
                results[name] = drive(worker(env), syncs[name], recorder=rec,
                                      process=name, state=states[name])
            except BaseException as exc:  # surfaced after join
                errors[name] = exc

        threads = [
            threading.Thread(target=body, args=(n, i, w), name=n, daemon=True)
            for i, (n, w) in enumerate(zip(names, workers))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(self.join_timeout)
            if t.is_alive():
                stuck = {
                    th.name: states[th.name].dump()
                    for th in threads if th.is_alive()
                }
                raise deadlock_error(
                    stuck, {n: repr(e) for n, e in errors.items()},
                    self.join_timeout)
        if self.recorder is not None:
            for name in names:  # deterministic merge order
                rec = locals_.get(name)
                if rec is not None:
                    self.recorder.merge(rec.snapshot())
        if errors:
            name = sorted(errors)[0]
            raise errors[name]
        return RunResult(
            results=results,
            elapsed=time.perf_counter() - t0,
            kind=self.kind,
            header=snapshot_header(view),
            sync={name: syncs[name].counters() for name in names},
        )
