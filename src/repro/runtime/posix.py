"""MPF for *independent* OS processes over a named POSIX segment.

The paper's deployment (§4): "parallel programs consist of a group of
Unix processes ... The shared memory used by MPF is implemented by
mapping a region of physical memory into the virtual address space of
each process."  :class:`ProcRuntime` forks its workers; this module
covers the stronger case — processes that were *not* forked from a
common parent (separate ``python`` invocations, different scripts)
rendezvousing purely by name:

* the segment is a named POSIX shared-memory object
  (``/dev/shm/<name>``),
* each MPF lock is an ``flock``-ed file under a per-segment directory,
* the blocking-receive wait channel degrades to polling (release the
  lock, yield or nap, reacquire, recheck) — correct against the
  ``WaitOn`` contract, merely less efficient than a condition variable.
  This is exactly the spirit of the paper's portability claim: any
  system with "locking and memory sharing between concurrently
  executing processes" can host MPF, trading elegance for reach.

Creator side::

    seg = PosixSegment.create("demo", MPFConfig(max_lnvcs=8, max_processes=4))
    mpf = seg.client(pid=0)
    ...
    seg.unlink()          # when the whole application is done

Attacher side (any other process)::

    seg = PosixSegment.attach("demo", MPFConfig(max_lnvcs=8, max_processes=4))
    mpf = seg.client(pid=1)
"""

from __future__ import annotations

import fcntl
import os
import tempfile
import time
from multiprocessing import shared_memory

from ..core.costmodel import Costs, DEFAULT_COSTS
from ..core.layout import MPFConfig, SegmentLayout, check_region, format_region
from ..core.ops import MPFView
from ..core.region import SharedRegion
from .blocking import BlockingMPF
from .sync import WAIT_SPIN_NS, SpinBudget, SyncBase

__all__ = ["FileLock", "FlockSync", "PosixSegment"]

#: Seconds a waiter naps between polls once its spin budget is spent.
POLL_INTERVAL = 0.002


class FileLock:
    """An exclusive ``flock`` on one file; one instance per process."""

    __slots__ = ("path", "_fh")

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "a+b")  # noqa: SIM115 - held for object lifetime

    def acquire(self, blocking: bool = True) -> bool:
        if not blocking:
            try:
                fcntl.flock(self._fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                return False
            return True
        fcntl.flock(self._fh, fcntl.LOCK_EX)
        return True

    def release(self) -> None:
        fcntl.flock(self._fh, fcntl.LOCK_UN)

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def close(self) -> None:
        self._fh.close()


class FlockSync(SyncBase):
    """The four :mod:`~repro.runtime.sync` methods over flock files.

    There is nothing to sleep on between unrelated processes, so
    ``wait`` polls: unlock, pause, relock, and let the caller's
    ``WaitOn`` loop re-read its predicate; ``wake`` has nothing to do.
    The pause climbs the same ladder as :class:`ProcSync`'s waiter: the
    polls of one wait episode yield the CPU for the first
    :data:`~repro.runtime.sync.WAIT_SPIN_NS` (a peer that answers in
    microseconds is seen in microseconds), then nap :data:`POLL_INTERVAL`
    each.  An episode ends when the waiter releases the circuit lock
    itself — it found what it was waiting for.  (Why flock and not
    :class:`~repro.runtime.sync.ProcSync`: see that module.)
    """

    def __init__(self, lock_dir: str, cfg: MPFConfig) -> None:
        super().__init__()
        self.locks = [
            FileLock(os.path.join(lock_dir, f"lock{i}"))
            for i in range(cfg.n_locks)
        ]
        #: lock id -> spin budget of the wait episode in progress on it.
        self._episodes: dict[int, SpinBudget] = {}

    def bind(self, rank: int) -> "FlockSync":
        handle = super().bind(rank)
        handle._episodes = {}
        return handle

    def release(self, lock_id: int) -> None:
        if self._episodes:
            self._episodes.pop(lock_id, None)
        super().release(lock_id)

    def wait(self, chan: int, lock_id: int) -> None:
        self.check_wait(chan, lock_id)
        self.waits += 1
        budget = self._episodes.get(lock_id)
        if budget is None:
            budget = self._episodes[lock_id] = SpinBudget(WAIT_SPIN_NS)
        lock = self.locks[lock_id]
        lock.release()
        if not budget.spin():
            self.parked += 1  # a nap; nobody posts a wake for it
            time.sleep(POLL_INTERVAL)
        lock.acquire()

    def wake(self, chan: int) -> int:  # sleepers poll; nothing to do
        self.wakes_skipped += 1
        return 0

    def close(self) -> None:
        for lock in self.locks:
            lock.close()


def _lock_dir(name: str) -> str:
    return os.path.join(tempfile.gettempdir(), f"mpf-{name}.locks")


class PosixSegment:
    """A named MPF segment shared by unrelated processes."""

    def __init__(self, name: str, cfg: MPFConfig, shm, view: MPFView,
                 sync: FlockSync, owner: bool) -> None:
        self.name = name
        self.cfg = cfg
        self._shm = shm
        self.view = view
        self._sync = sync
        self._owner = owner

    # -- lifecycle --------------------------------------------------------------

    @classmethod
    def create(cls, name: str, cfg: MPFConfig | None = None,
               costs: Costs = DEFAULT_COSTS) -> "PosixSegment":
        """Create and format the named segment and its lock files."""
        cfg = cfg or MPFConfig()
        lock_dir = _lock_dir(name)
        os.makedirs(lock_dir, exist_ok=True)
        for i in range(cfg.n_locks):
            open(os.path.join(lock_dir, f"lock{i}"), "a").close()
        shm = shared_memory.SharedMemory(
            create=True, name=name, size=SegmentLayout(cfg).total_size
        )
        region = SharedRegion(shm.buf)
        layout = format_region(region, cfg)
        view = MPFView(region, layout, costs)
        sync = FlockSync(lock_dir, cfg)
        return cls(name, cfg, shm, view, sync, owner=True)

    @classmethod
    def attach(cls, name: str, cfg: MPFConfig | None = None,
               costs: Costs = DEFAULT_COSTS) -> "PosixSegment":
        """Attach to an existing named segment; validates the format."""
        cfg = cfg or MPFConfig()
        shm = shared_memory.SharedMemory(name=name)
        # Only the creator owns the segment's lifetime; stop this
        # process's resource tracker from also trying to unlink it.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        region = SharedRegion(shm.buf)
        try:
            layout = check_region(region, cfg)
        except Exception:
            region.release()
            shm.close()
            raise
        view = MPFView(region, layout, costs)
        sync = FlockSync(_lock_dir(name), cfg)
        return cls(name, cfg, shm, view, sync, owner=False)

    def client(self, pid: int, recorder=None) -> BlockingMPF:
        """A blocking MPF client bound to process id ``pid``.

        ``recorder`` (a :class:`repro.obs.Recorder`) makes this client
        record wall-clock lock-contention and work metrics — over flock
        files the non-blocking first attempt uses ``LOCK_NB``, so
        contended and uncontended acquisitions are distinguished exactly
        as with in-process locks.
        """
        if not 0 <= pid < self.cfg.max_processes:
            raise ValueError(f"pid {pid} outside [0, {self.cfg.max_processes})")
        return BlockingMPF(self.view, self._sync.bind(pid), pid,
                           recorder=recorder)

    def close(self) -> None:
        """Detach this process (the segment itself survives)."""
        self._sync.close()
        self.view.region.release()
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment and its lock files (creator, at the end)."""
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        lock_dir = _lock_dir(self.name)
        for i in range(self.cfg.n_locks):
            try:
                os.unlink(os.path.join(lock_dir, f"lock{i}"))
            except FileNotFoundError:  # pragma: no cover
                pass
        try:
            os.rmdir(lock_dir)
        except OSError:  # pragma: no cover - leftover foreign files
            pass

    def __enter__(self) -> "PosixSegment":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()
