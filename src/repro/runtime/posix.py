"""MPF for *independent* OS processes over a named POSIX segment.

The paper's deployment (§4): "parallel programs consist of a group of
Unix processes ... The shared memory used by MPF is implemented by
mapping a region of physical memory into the virtual address space of
each process."  :class:`ProcRuntime` forks its workers; this module
covers the stronger case — processes that were *not* forked from a
common parent (separate ``python`` invocations, different scripts)
rendezvousing purely by name:

* the segment is a named POSIX shared-memory object
  (``/dev/shm/<name>``): the MPF layout, rounded up to a page, then the
  :class:`~repro.runtime.sync.ProcSync` mapping every attacher maps, so
  named clients lock, park and wake as forked workers do, and a sleeper
  on a lock whose owner died raises instead of hanging;
* ``config.json`` in a per-segment directory records the creator's
  :class:`MPFConfig` and its sync (``"c"`` or ``"python"``): an attacher
  needs the name alone, as the paper's processes only map the segment
  ``init`` sized (§2, §4), and one that would run the other sync is
  refused (the two would not exclude each other);
* the Python sync's locks (no compiler) are flock files in that
  directory, and its parked waiters nap on their futex words.

Creator side::

    seg = PosixSegment.create("demo", MPFConfig(max_lnvcs=8, max_processes=4))
    mpf = seg.client(pid=0)
    ...
    seg.unlink()          # when the whole application is done

Attacher side (any other process)::

    seg = PosixSegment.attach("demo")
    mpf = seg.client(pid=1)
"""

from __future__ import annotations

import fcntl
import itertools
import json
import mmap
import os
import tempfile
import threading
from dataclasses import asdict
from multiprocessing import shared_memory
from types import SimpleNamespace

from ..core.costmodel import Costs, DEFAULT_COSTS
from ..core.errors import RegionFormatError
from ..core.layout import MPFConfig, SegmentLayout, check_region, format_region
from ..core.ops import MPFView
from ..core.region import SharedRegion
from .blocking import BlockingMPF
from .sync import ProcSync

__all__ = ["FileLock", "PosixSegment"]


class FileLock:
    """An exclusive ``flock`` on one file, behind an in-process lock: the
    flock excludes other processes, which open the file themselves, and
    the in-process lock the other handles of this one, which share its
    open file description (where flock cannot tell them apart)."""

    __slots__ = ("_fh", "_local")

    def __init__(self, path: str) -> None:
        self._fh = open(path, "a+b")  # noqa: SIM115 - held for object lifetime
        self._local = threading.Lock()

    def acquire(self, blocking: bool = True) -> bool:
        if not self._local.acquire(blocking):
            return False
        try:
            fcntl.flock(self._fh, fcntl.LOCK_EX
                        | (0 if blocking else fcntl.LOCK_NB))
        except BlockingIOError:
            self._local.release()
            return False
        return True

    def release(self) -> None:
        fcntl.flock(self._fh, fcntl.LOCK_UN)
        self._local.release()

    def close(self) -> None:
        self._fh.close()


def _lock_dir(name: str) -> str:
    return os.path.join(tempfile.gettempdir(), f"mpf-{name}.locks")


def _record(name: str) -> str:
    """Where the creator's config is kept: JSON, never pickle (``/tmp``)."""
    return os.path.join(_lock_dir(name), "config.json")


def _tail(cfg: MPFConfig) -> tuple[int, int]:
    """Where a segment's sync tail starts — its MPF layout rounded up to
    a page — and the tail's size."""
    page = mmap.ALLOCATIONGRANULARITY
    return (-(-SegmentLayout(cfg).total_size // page) * page,
            ProcSync.geometry(cfg, cfg.max_processes)[-1])


def _sync(name: str, shm, cfg: MPFConfig) -> ProcSync:
    """The segment's :class:`ProcSync` over its tail (the Python sync's
    locks: the lock files)."""
    off, size = _tail(cfg)
    if shm.size < off + size:
        raise RegionFormatError(f"segment {name!r} has no sync tail")
    paths = (os.path.join(_lock_dir(name), f"lock{i}")
             for i in itertools.count())
    return ProcSync(cfg, SimpleNamespace(Lock=lambda: FileLock(next(paths))),
                    cfg.max_processes, mmap.mmap(shm._fd, size, offset=off))


#: Names of the segments this process created and has not unlinked (a
#: forked child inherits them with its parent's resource tracker).
_CREATED: set[str] = set()


class _SegmentRegion(SharedRegion):
    """A named segment's region, which keeps the ``SharedMemory`` it maps.

    A ``SharedMemory`` closes itself when it is finalized, and the close
    fails (``BufferError``, printed as "Exception ignored") while the
    region still exports its buffer.  A segment dropped without
    :meth:`PosixSegment.close` — ``PosixSegment.attach(name).client(1)``
    as one expression — would finalize it under its client's region.  So
    the region holds it: it is finalized only with the region, which
    releases its own buffers first."""

    __slots__ = ("shm",)

    def __init__(self, shm) -> None:
        super().__init__(shm.buf)
        self.shm = shm

    def __del__(self) -> None:
        self.release()
        self.shm.close()


class PosixSegment:
    """A named MPF segment shared by unrelated processes."""

    def __init__(self, name: str, cfg: MPFConfig, shm, view: MPFView,
                 sync: ProcSync, owner: bool) -> None:
        self.name = name
        self.cfg = cfg
        self._shm = shm
        self.view = view
        #: The segment's :class:`ProcSync`, over its tail.
        self.sync = sync
        self._owner = owner

    # -- lifecycle --------------------------------------------------------------

    @classmethod
    def create(cls, name: str, cfg: MPFConfig | None = None,
               costs: Costs = DEFAULT_COSTS) -> "PosixSegment":
        """Create and format the named segment and its sync tail."""
        cfg = cfg or MPFConfig()
        os.makedirs(_lock_dir(name), exist_ok=True)
        shm = shared_memory.SharedMemory(create=True, name=name,
                                         size=sum(_tail(cfg)))
        _CREATED.add(name)
        sync = _sync(name, shm, cfg)
        # Only now: a leaked segment of this name keeps its own record.
        with open(_record(name), "w") as fh:
            json.dump({**asdict(cfg), "sync": sync.impl}, fh)
        region = _SegmentRegion(shm)
        view = MPFView(region, format_region(region, cfg), costs)
        return cls(name, cfg, shm, view, sync, owner=True)

    @classmethod
    def attach(cls, name: str, costs: Costs = DEFAULT_COSTS) -> "PosixSegment":
        """Attach to an existing named segment by its name alone.

        The segment is sized by the creator's recorded config, which
        must agree with every geometry word the header echoes: a missing,
        unreadable or stale record raises :class:`RegionFormatError`, and
        so does a record of the other sync than this process runs.
        """
        shm = shared_memory.SharedMemory(name=name)
        # Only the creator owns the segment's lifetime; stop this
        # process's resource tracker from also trying to unlink it.  The
        # creator's own tracker holds the name once (the attach's
        # registration adds nothing) until its unlink takes it out, so
        # there it is left alone: taken out twice, the tracker prints a
        # KeyError at exit.
        if name not in _CREATED:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals moved
                pass
        region = _SegmentRegion(shm)
        try:
            try:
                with open(_record(name)) as fh:
                    record = json.load(fh)
                impl = record.pop("sync", None)
                cfg = MPFConfig(**record)
            except (OSError, ValueError, TypeError, AttributeError) as exc:
                raise RegionFormatError(
                    f"segment {name!r} has no usable config record: {exc}"
                ) from exc
            layout = check_region(region, cfg)
            sync = _sync(name, shm, cfg)
            if sync.impl != impl:
                raise RegionFormatError(
                    f"segment {name!r} runs the {impl} sync; this process "
                    f"would run the {sync.impl} one")
        except Exception:
            region.release()
            shm.close()
            raise
        return cls(name, cfg, shm, MPFView(region, layout, costs), sync,
                   owner=False)

    def client(self, pid: int, recorder=None) -> BlockingMPF:
        """A blocking MPF client bound to process id ``pid``.

        ``recorder`` (a :class:`repro.obs.Recorder`) makes this client
        record wall-clock lock-contention and work metrics, contended and
        uncontended acquisitions told apart by the sync's first attempt
        as on every real runtime.
        """
        if not 0 <= pid < self.cfg.max_processes:
            raise ValueError(f"pid {pid} outside [0, {self.cfg.max_processes})")
        return BlockingMPF(self.view, self.sync.bind(pid), pid,
                           recorder=recorder)

    def close(self) -> None:
        """Detach this process (the segment itself survives), its
        clients' sections dropped first (they hold the region)."""
        self.view.forget_sections()
        for lock in getattr(self.sync, "locks", ()):
            lock.close()
        self.view.region.release()
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment and its lock files (creator, at the end)."""
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        _CREATED.discard(self.name)
        lock_dir = _lock_dir(self.name)
        for f in [f"lock{i}" for i in range(self.cfg.n_locks)] + ["config.json"]:
            try:
                os.unlink(os.path.join(lock_dir, f))
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
