"""The process runtime: MPF over ``multiprocessing.shared_memory``.

This is the closest analogue of the paper's deployment: "parallel
programs consist of a group of Unix processes ... The shared memory used
by MPF is implemented by mapping a region of physical memory into the
virtual address space of each process" (§4).  Here the region is a POSIX
shared-memory segment, workers are forked Unix processes, and locks and
wait channels are :class:`~repro.runtime.sync.ProcSync`: spin-then-park
over ``multiprocessing.Lock``, shared wait bytes and one semaphore per
process.

Requires the ``fork`` start method (workers may be closures and inherit
the open segment); the runtime raises a clear error on platforms without
it.  Worker return values travel back over one pipe per worker and must
be picklable.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing import shared_memory
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Sequence

from ..core.costmodel import Costs, DEFAULT_COSTS
from ..core.layout import MPFConfig, SegmentLayout, format_region
from ..core.ops import MPFView
from ..core.region import SharedRegion
from .base import Env, RunResult, Runtime, Worker, snapshot_header
from .sync import ProcSync
from .threads import deadlock_error, drive

__all__ = ["ProcRuntime"]


class ProcRuntime(Runtime):
    """Run each worker in its own forked Unix process."""

    kind = "procs"

    def __init__(self, join_timeout: float | None = 120.0, recorder=None) -> None:
        self.join_timeout = join_timeout
        #: Optional :class:`repro.obs.Recorder`.  Each forked worker
        #: records into a private child recorder whose picklable
        #: snapshot rides home with the worker's result; the parent merges
        #: the snapshots in rank order after the join.
        self.recorder = recorder

    def run(
        self,
        workers: Sequence[Worker],
        cfg: MPFConfig | None = None,
        costs: Costs = DEFAULT_COSTS,
        names: Sequence[str] | None = None,
        final_check: Callable[[MPFView], object] | None = None,
    ) -> RunResult:
        """Run the workers; see :meth:`Runtime.run`.

        The segment is unlinked before ``run`` returns, so a caller that
        wants to inspect the final shared state passes ``final_check``:
        it is called with the parent's view once every worker has
        finished and its return value rides on :attr:`RunResult.final`.

        Raises :class:`DeadlockSuspectedError` when ``join_timeout``
        expires (naming what every unfinished worker is blocked on and
        which locks it holds) and ``RuntimeError`` when a worker raised
        or died; the children are terminated and the segment unlinked
        either way.
        """
        try:
            ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "ProcRuntime requires the 'fork' start method (POSIX only)"
            ) from exc

        nprocs = len(workers)
        cfg = self.default_config(nprocs, cfg)
        names = self.process_names(nprocs, names)

        shm = shared_memory.SharedMemory(create=True, size=SegmentLayout(cfg).total_size)
        region = SharedRegion(shm.buf)
        sync = ProcSync(cfg, ctx, nprocs)
        procs: list = []
        try:
            layout = format_region(region, cfg)
            view = MPFView(region, layout, costs)

            t0 = time.perf_counter()
            clock = lambda: time.perf_counter() - t0  # noqa: E731
            recording = self.recorder is not None

            def body(name: str, rank: int, worker: Worker, tx) -> None:
                env = Env(view, rank, nprocs, clock)
                rec = self.recorder.child() if recording else None
                if rec is not None:
                    # Post-fork the view object is this process's private
                    # copy, so the child observes only this worker; its
                    # snapshot rides home and the parent merges the
                    # children in rank order (the merge is associative
                    # and commutative: a convention, not a requirement).
                    rec.attach(view, clock, "wall")
                mine = sync.bind(rank)
                try:
                    ok, payload = True, drive(
                        worker(env), mine, recorder=rec, process=name)
                except BaseException as exc:  # boundary: reported to the parent
                    ok, payload = False, repr(exc)
                mine.finish()
                tx.send((ok, payload, rec.snapshot() if rec else None,
                         mine.counters()))

            waiting: dict[str, tuple] = {}
            for rank, (name, worker) in enumerate(zip(names, workers)):
                rx, tx = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=body, args=(name, rank, worker, tx),
                                   name=name, daemon=True)
                proc.start()
                tx.close()
                procs.append(proc)
                waiting[name] = (rank, rx, proc)

            results: dict[str, object] = {}
            failures: dict[str, str] = {}
            snapshots: dict[str, dict] = {}
            counters: dict[str, dict] = {}
            deadline = None if self.join_timeout is None else t0 + self.join_timeout
            while waiting:
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.perf_counter())
                # Each worker holds the only write end of its pipe, so a
                # readable pipe is either its report or — end of file —
                # its death (killed, or died pickling its result).
                if not wait_ready([rx for _, rx, _ in waiting.values()],
                                  remaining):
                    break
                for name, (_, rx, proc) in list(waiting.items()):
                    if not rx.poll():
                        continue
                    try:
                        ok, payload, snap, counters[name] = rx.recv()
                    except EOFError:  # its end of the pipe closed unwritten
                        proc.join()
                        ok, snap = False, None
                        payload = (f"exited with code {proc.exitcode} "
                                   "without reporting")
                    if snap is not None:
                        snapshots[name] = snap
                    if ok:
                        results[name] = payload
                    else:
                        failures[name] = payload
                    rx.close()
                    del waiting[name]

            stuck = {name: sync.status(rank)
                     for name, (rank, _, _) in waiting.items()}
            for _, rx, proc in waiting.values():
                proc.terminate()
                rx.close()
            if self.recorder is not None:
                for name in names:  # deterministic merge order
                    if name in snapshots:
                        self.recorder.merge(snapshots[name])
            if stuck:
                raise deadlock_error(stuck, failures, self.join_timeout)
            if failures:
                name = sorted(failures)[0]
                raise RuntimeError(f"worker {name!r} failed: {failures[name]}")
            return RunResult(
                results=results,
                elapsed=time.perf_counter() - t0,
                kind=self.kind,
                header=snapshot_header(view),
                sync={name: counters[name] for name in names},
                final=final_check(view) if final_check is not None else None,
            )
        finally:
            for proc in procs:
                proc.join(1.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            sync.close()
            region.release()
            shm.close()
            shm.unlink()
