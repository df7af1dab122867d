"""The thread runtime: MPF over real ``threading`` primitives.

Here the shared region is a plain ``bytearray`` visible to every thread,
and locks and per-circuit wait channels are the process runtime's own
spin-then-park :class:`~repro.runtime.sync.ProcSync` built over
``threading.Lock`` / ``threading.Semaphore`` — one sync for every set of
workers that shares an ancestor.  :func:`drive`, the effect trampoline
every real runtime shares, lives here too; it talks to the host only
through the four :mod:`~repro.runtime.sync` methods.

The GIL means threads cannot add parallel *speed*, however many CPUs the
host has, but they add real *concurrency*:
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
from .sync import ProcSync, SyncBase

__all__ = ["ThreadRuntime", "drive", "deadlock_error"]


def deadlock_error(stuck: dict[str, dict], died: dict[str, str],
                   join_timeout: float | None) -> DeadlockSuspectedError:
    """The join-timeout error both real runtimes raise.

    ``stuck`` maps each unfinished worker to its
    :meth:`~repro.runtime.sync.ProcSync.status`; ``died`` maps workers
    that raised to a description — a worker that died early (its peers
    now wait forever on it) is the likelier root cause than a true
    deadlock, so those are named instead of masked.
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
) -> object:
    """Trampoline: run an effect generator against real primitives.

    Returns the generator's return value.  ``Charge`` effects are free —
    real time passes on its own.  ``sync`` is any
    :class:`~repro.runtime.sync.SyncBase` handle: one code path per
    effect, whatever hosts the locks; ``sync.held`` tracks the locks
    the worker holds, which the sync publishes when it blocks.

    With a :class:`repro.obs.Recorder` attached, the trampoline measures
    each blocking primitive on the recorder's clock
    (:attr:`~repro.obs.Recorder.now`): lock wait time (an acquire is
    contended when its first attempt failed, and its wait then includes
    any spinning the sync did before it slept), lock hold time, and
    condition sleep time — the same profile the simulated engine records
    in simulated time.  ``Charge`` labels are tallied by instruction
    budget (their wall time is zero: real compute takes real time by
    itself).  Without one, no branch makes a call of its own.
    """
    if recorder is not None:
        clock = recorder.now
        held_since: dict[int, float] = {}
    held = sync.held
    value: object = None
    while True:
        try:
            effect = gen.send(value)
        except StopIteration as stop:
            return stop.value
        value = None
        # Effects are final classes: dispatch on the exact class,
        # most frequent first, as ``Engine.run`` does.
        cls = effect.__class__
        if cls is Charge:
            if recorder is not None:
                w = effect.work
                recorder.on_charge(clock(), process, w.label, 0.0,
                                   w.instrs, w.flops)
        elif cls is ChargeMany:
            if recorder is not None:
                now = clock()
                for w in effect.works:
                    recorder.on_charge(now, process, w.label, 0.0,
                                       w.instrs, w.flops)
        elif cls is Acquire:
            lock_id = effect.lock_id
            if recorder is None:
                sync.acquire(lock_id)
            else:
                t0 = clock()
                contended = sync.acquire(lock_id)
                now = held_since[lock_id] = clock()
                recorder.on_acquire(now, process, lock_id,
                                    now - t0 if contended else 0.0, contended)
            held.append(lock_id)
        elif cls is Release:
            lock_id = effect.lock_id
            # Off the list first: a lock nobody owns in the sync (a
            # multiprocessing.Lock has no owner) must not be released for
            # its holder by a process that does not hold it.
            try:
                held.remove(lock_id)
            except ValueError:
                raise RuntimeError(
                    f"process {process!r} released lock {lock_id} it does "
                    "not own") from None
            sync.release(lock_id)
            if recorder is not None:
                now = clock()
                recorder.on_release(now, process, lock_id,
                                    now - held_since.pop(lock_id, now))
        elif cls is WaitOn:
            lock_id = effect.lock_id
            # The caller holds the circuit lock; wait() releases it,
            # sleeps and returns holding it again.
            try:
                held.remove(lock_id)
            except ValueError:
                raise RuntimeError(
                    f"process {process!r} waits on channel {effect.chan} "
                    f"without holding lock {lock_id}") from None
            if recorder is not None:
                t0 = clock()
                recorder.on_release(t0, process, lock_id,
                                    t0 - held_since.pop(lock_id, t0),
                                    counted=False)
            sync.wait(effect.chan, lock_id)
            held.append(lock_id)
            if recorder is not None:
                now = held_since[lock_id] = clock()
                recorder.on_chan_wait(now, process, effect.chan, now - t0)
                # A new hold span starts, without counting an Acquire.
                recorder.on_acquire(now, process, lock_id, 0.0,
                                    contended=False, counted=False)
        elif cls is Wake:
            woken = sync.wake(effect.chan)
            if recorder is not None:
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
        sync = ProcSync(cfg, threading, nprocs)
        syncs = [sync.bind(rank) for rank in range(nprocs)]

        t0 = time.perf_counter()
        clock = lambda: time.perf_counter() - t0  # noqa: E731

        results: dict[str, object] = {}
        errors: dict[str, BaseException] = {}
        children: dict[str, object] = {}
        if self.recorder is not None:
            # One shared probe on the shared view — list appends and dict
            # updates to monotonic counters are GIL-atomic — while the
            # lock and channel hooks land on per-thread children (which
            # inherit this clock) merged in name order after the join.
            self.recorder.attach(view, clock, "wall")

        def body(name: str, rank: int, worker: Worker) -> None:
            env = Env(view, rank, nprocs, clock)
            rec = None
            if self.recorder is not None:
                rec = children[name] = self.recorder.child()
            mine = syncs[rank]
            try:
                results[name] = drive(worker(env), mine, recorder=rec,
                                      process=name)
            except BaseException as exc:  # surfaced after join
                errors[name] = exc
            mine.finish()

        threads = [
            threading.Thread(target=body, args=(n, i, w), name=n, daemon=True)
            for i, (n, w) in enumerate(zip(names, workers))
        ]
        try:
            for t in threads:
                t.start()
            stuck: dict[str, dict] = {}
            for t in threads:
                t.join(self.join_timeout)
                if t.is_alive():
                    stuck = {th.name: sync.status(rank)
                             for rank, th in enumerate(threads)
                             if th.is_alive()}
                    break
            if self.recorder is not None:
                for name in names:  # finished workers, deterministic order
                    rec = children.get(name)
                    if rec is not None and name not in stuck:
                        self.recorder.merge(rec.snapshot())
            if stuck:
                raise deadlock_error(
                    stuck, {n: repr(e) for n, e in errors.items()},
                    self.join_timeout)
            if errors:
                raise errors[sorted(errors)[0]]
            return RunResult(
                results=results,
                elapsed=time.perf_counter() - t0,
                kind=self.kind,
                header=snapshot_header(view),
                sync={name: syncs[rank].counters()
                      for rank, name in enumerate(names)},
            )
        finally:
            sync.close()
