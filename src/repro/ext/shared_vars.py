"""The shared-memory paradigm, as a substrate for paradigm comparison.

Paper §1: "we have used the existing primitives on a shared memory
machine to develop a message passing facility ... the motivation for
this work is not merely to produce a message passing implementation,
but also to explore the problems and performance penalties of
cross-architecture algorithm ports."  §5 names the open question: "the
effect of the parallel programming paradigm (message passing or shared
memory) on application performance."

To *measure* that effect we need the competing paradigm under the same
cost model.  This module provides the native shared-memory idioms —
shared arrays, a lock-protected accumulator, and a counter barrier — as
effect generators over the segment's extension area, so the simulator
prices direct shared-variable access with the same machinery that
prices MPF messages.  ``apps/paradigm.py`` runs the same kernels both
ways; ``python -m repro.bench study_paradigm`` tabulates the gap.

All structures zero-initialize to a valid empty state.
"""

from __future__ import annotations

import struct

from ..core.effects import Acquire, Release, WaitOn, Wake, charge
from ..core.ops import MPFView
from ..core.protocol import FIRST_LNVC_LOCK

__all__ = ["SharedDoubles", "LockedAccumulator", "CounterBarrier"]

_F8 = struct.Struct("<d")

#: Instructions per shared-variable access (load/store through the bus;
#: write-through cache makes writes and remote reads memory operations).
SHARED_REF_INSTRS = 3
#: Fixed instructions per critical section entry (beyond the lock itself).
CS_FIXED = 40


class SharedDoubles:
    """A shared array of float64 in the extension area.

    Reads and writes are direct memory access — no protocol, no copies.
    Bulk accessors charge per element; racing is the caller's problem,
    exactly as in the shared-variable paradigm (synchronize with
    :class:`CounterBarrier` or :class:`LockedAccumulator`).
    """

    def __init__(self, view: MPFView, count: int, byte_offset: int = 0) -> None:
        if count < 1:
            raise ValueError("need count >= 1")
        need = byte_offset + 8 * count
        if need > view.cfg.ext_bytes:
            raise ValueError(
                f"array needs {need} ext_bytes, config reserves "
                f"{view.cfg.ext_bytes}"
            )
        self.view = view
        self.count = count
        self.base = view.layout.ext_base + byte_offset

    @staticmethod
    def bytes_needed(count: int) -> int:
        """Extension bytes one array occupies."""
        return 8 * count

    def _off(self, i: int) -> int:
        if not 0 <= i < self.count:
            raise IndexError(f"index {i} outside array of {self.count}")
        return self.base + 8 * i

    # -- raw (uncharged) access, for assertions and result collection -------

    def peek(self, i: int) -> float:
        """Read without charging (test/diagnostic use)."""
        return _F8.unpack(self.view.region.read(self._off(i), 8))[0]

    def poke(self, i: int, value: float) -> None:
        """Write without charging (initialization before the run)."""
        self.view.region.write(self._off(i), _F8.pack(value))

    # -- charged access (effect generators) -----------------------------------

    def read(self, i: int):
        """Read element ``i``, charging one shared reference."""
        yield charge(SHARED_REF_INSTRS, "shm-read")
        return self.peek(i)

    def write(self, i: int, value: float):
        """Write element ``i``, charging one shared reference."""
        self.poke(i, value)
        yield charge(SHARED_REF_INSTRS, "shm-write")
        return None

    def read_slice(self, lo: int, hi: int):
        """Read ``[lo, hi)``, charging per element."""
        values = [self.peek(i) for i in range(lo, hi)]
        yield charge(SHARED_REF_INSTRS * max(0, hi - lo), "shm-read")
        return values

    def write_slice(self, lo: int, values):
        """Write ``values`` starting at ``lo``, charging per element."""
        for k, v in enumerate(values):
            self.poke(lo + k, v)
        yield charge(SHARED_REF_INSTRS * len(values), "shm-write")
        return None


class LockedAccumulator:
    """A lock-protected shared scalar: the shared-variable reduction idiom."""

    def __init__(self, view: MPFView, slot: int, byte_offset: int = 0) -> None:
        if slot >= view.cfg.ext_slots:
            raise ValueError(
                f"accumulator needs ext slot {slot}, config reserves "
                f"{view.cfg.ext_slots}"
            )
        if byte_offset + 8 > view.cfg.ext_bytes:
            raise ValueError("accumulator needs 8 ext_bytes")
        self.view = view
        self.base = view.layout.ext_base + byte_offset
        self._lock = FIRST_LNVC_LOCK + view.cfg.max_lnvcs + slot

    @staticmethod
    def bytes_needed() -> int:
        return 8

    def peek(self) -> float:
        """Read without charging (after the run)."""
        return _F8.unpack(self.view.region.read(self.base, 8))[0]

    def reset(self) -> None:
        """Zero without charging (before the run)."""
        self.view.region.write(self.base, _F8.pack(0.0))

    def add(self, delta: float):
        """Atomically add ``delta`` under the accumulator's lock."""
        yield Acquire(self._lock)
        value = _F8.unpack(self.view.region.read(self.base, 8))[0] + delta
        self.view.region.write(self.base, _F8.pack(value))
        yield charge(CS_FIXED + 2 * SHARED_REF_INSTRS, "shm-accum", flops=1)
        yield Release(self._lock)
        return value


class CounterBarrier:
    """Sense-reversing counter barrier: the shared-variable barrier idiom.

    Uses one extension slot (lock + wait channel) and 8 extension bytes
    (count u32 + sense u32).  Reusable any number of times by the same
    fixed group of ``n`` processes.
    """

    def __init__(self, view: MPFView, n: int, slot: int,
                 byte_offset: int = 0) -> None:
        if n < 1:
            raise ValueError("need n >= 1")
        if slot >= view.cfg.ext_slots:
            raise ValueError(
                f"barrier needs ext slot {slot}, config reserves "
                f"{view.cfg.ext_slots}"
            )
        if byte_offset + 8 > view.cfg.ext_bytes:
            raise ValueError("barrier needs 8 ext_bytes")
        self.view = view
        self.n = n
        self.base = view.layout.ext_base + byte_offset
        self._slot = view.cfg.max_lnvcs + slot
        self._lock = FIRST_LNVC_LOCK + self._slot

    @staticmethod
    def bytes_needed() -> int:
        return 8

    def wait(self):
        """Arrive; resumes when all ``n`` processes have arrived."""
        r = self.view.region
        yield Acquire(self._lock)
        my_sense = r.u32(self.base + 4)
        arrived = r.u32(self.base) + 1
        yield charge(CS_FIXED, "shm-barrier")
        if arrived == self.n:
            r.set_u32(self.base, 0)
            r.set_u32(self.base + 4, my_sense ^ 1)
            yield Release(self._lock)
            yield Wake(self._slot)
            return None
        r.set_u32(self.base, arrived)
        while r.u32(self.base + 4) == my_sense:
            yield WaitOn(self._slot, self._lock)
        yield Release(self._lock)
        return None
