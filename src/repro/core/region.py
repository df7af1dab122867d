"""Flat shared byte region with typed accessors.

All MPF state — LNVC descriptors, connection descriptors, message headers
and 10-byte message blocks — lives in one contiguous byte region, addressed
by 32-bit byte offsets, exactly as the paper's C implementation lays its
structures out in a mapped shared-memory segment (§3.1, §4: "shared memory
used by MPF is implemented by mapping a region of physical memory into the
virtual address space of each process").

A :class:`SharedRegion` wraps any writable buffer:

* a ``bytearray`` for the thread runtime and the simulated machine,
* the ``buf`` of a ``multiprocessing.shared_memory.SharedMemory`` for the
  process runtime.

Keeping the structures byte-level (rather than Python objects) is what
makes the three runtimes share one implementation: bytes are the only data
model that a forked process, a thread and a simulated processor can all
address identically.
"""

from __future__ import annotations

import struct
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .protocol import NIL

__all__ = ["SharedRegion", "U32_MASK", "U64_MASK"]

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: What ``set_u32`` / ``set_u64`` mask a value with — and what the caller
#: of a :meth:`SharedRegion.writer` callable, which masks nothing, must.
U32_MASK = 0xFFFFFFFF
U64_MASK = 0xFFFFFFFFFFFFFFFF


class SharedRegion:
    """A byte-addressable shared segment.

    Parameters
    ----------
    buf:
        Any object satisfying the writable buffer protocol with a stable
        length (``bytearray``, ``memoryview``, ``mmap``, shared memory).
    """

    __slots__ = ("_mv", "_windows", "size", "u32", "set_u32", "add_u32",
                 "follow")

    def __init__(self, buf) -> None:
        mv = memoryview(buf).cast("B")
        if mv.readonly:
            raise ValueError("SharedRegion requires a writable buffer")
        self._mv = mv
        self._windows: dict = {}
        self.size = len(mv)

        # -- 32-bit words -------------------------------------------------
        # ``u32`` / ``set_u32`` run millions of times per figure sweep,
        # ``add_u32`` and ``follow`` once or twice per message.
        # They are bound as per-instance closures over the memoryview
        # rather than methods: a closure call skips the descriptor lookup
        # and the ``self`` rebinding a bound method pays on every call.
        # The per-word closures and the record ``reader`` / ``writer``
        # partials make no bounds check of their own: ``struct`` refuses
        # an access past the end (``struct.error``) but counts a negative
        # offset from the end of the region, as it does for any buffer.
        # Every offset the message path hands them is a u32 read from the
        # segment or a layout base plus a non-negative field offset.
        unpack_from = _U32.unpack_from
        pack_into = _U32.pack_into

        def u32(off: int) -> int:
            """Read the little-endian u32 at byte offset ``off``.

            Unchecked: a negative ``off`` indexes from the end."""
            return unpack_from(mv, off)[0]

        def set_u32(off: int, value: int) -> None:
            """Write ``value`` as a little-endian u32 at byte offset ``off``.

            Unchecked: a negative ``off`` indexes from the end."""
            pack_into(mv, off, value & U32_MASK)

        def add_u32(off: int, delta: int) -> int:
            """Add ``delta`` (may be negative) to the u32 at ``off``.

            Returns the new value.  This is *not* atomic with respect to
            other processes — callers must hold the lock that guards the
            word, just as the C implementation serializes access with
            its synchronization variables.  Unchecked like :attr:`u32`.
            """
            value = (unpack_from(mv, off)[0] + delta) & U32_MASK
            pack_into(mv, off, value)
            return value

        def follow(off: int, n: int) -> tuple[list[int], int]:
            """Walk up to ``n`` records of a list linked through their first u32.

            Returns ``(offsets, next)``: the offsets visited starting at
            ``off`` — fewer than ``n`` when the list reaches ``NIL``
            first — and the link that follows the last one (``NIL`` at
            the end of the list).  A link pointing outside the region,
            or a negative ``off``, raises ``IndexError``.
            """
            if off < 0:
                raise IndexError(f"link {off} outside region of {len(mv)}")
            offs: list[int] = []
            append = offs.append
            try:
                for _ in range(n):
                    if off == NIL:
                        break
                    append(off)
                    (off,) = unpack_from(mv, off)
            except struct.error:
                raise IndexError(
                    f"link [{off}, {off + 4}) outside region of {len(mv)}"
                ) from None
            return offs, off

        self.u32 = u32
        self.set_u32 = set_u32
        self.add_u32 = add_u32
        self.follow = follow

    def reader(self, record: struct.Struct):
        """A C-level callable ``f(off)`` unpacking ``record`` at ``off``.

        One call reads several fields of a descriptor at once — the
        multi-field form of :attr:`u32`, for ``record`` see
        :meth:`repro.core.structs.Record.run`.  Unchecked like
        :attr:`u32`: a negative ``off`` indexes from the end.
        """
        return partial(record.unpack_from, self._mv)

    def writer(self, record: struct.Struct):
        """A C-level callable ``f(off, *values)`` packing ``record`` at ``off``.

        The multi-field form of :attr:`set_u32`, except that values are
        not masked: one outside its field's range raises
        ``struct.error``.  The caller must hold the lock that guards
        every word of ``record`` — a store covers all of them.  Pad
        bytes would store zeros over words the caller never named, so a
        padded ``record`` is refused.  Unchecked like :attr:`set_u32`: a
        negative ``off`` indexes from the end.
        """
        if "x" in record.format:
            raise ValueError(f"cannot store padded record {record.format!r}")
        return partial(record.pack_into, self._mv)

    # -- 64-bit words (statistics counters only) --------------------------

    def u64(self, off: int) -> int:
        """Read the little-endian u64 at byte offset ``off``."""
        return _U64.unpack_from(self._mv, off)[0]

    def set_u64(self, off: int, value: int) -> None:
        """Write ``value`` as a little-endian u64 at byte offset ``off``."""
        _U64.pack_into(self._mv, off, value & U64_MASK)

    def add_u64(self, off: int, delta: int) -> int:
        """Add ``delta`` to the u64 at ``off`` (non-atomic; hold a lock)."""
        value = (self.u64(off) + delta) & U64_MASK
        self.set_u64(off, value)
        return value

    # -- raw bytes ---------------------------------------------------------

    def read(self, off: int, n: int) -> bytes:
        """Copy ``n`` bytes starting at ``off`` out of the region."""
        if off < 0 or n < 0 or off + n > self.size:
            raise IndexError(f"read [{off}, {off + n}) outside region of {self.size}")
        return bytes(self._mv[off : off + n])

    def write(self, off: int, data: bytes) -> None:
        """Copy ``data`` into the region starting at ``off``."""
        end = off + len(data)
        if off < 0 or end > self.size:
            raise IndexError(f"write [{off}, {end}) outside region of {self.size}")
        self._mv[off:end] = data

    def fill(self, off: int, n: int, byte: int = 0) -> None:
        """Set ``n`` bytes starting at ``off`` to ``byte``."""
        if off < 0 or n < 0 or off + n > self.size:
            raise IndexError(f"fill [{off}, {off + n}) outside region of {self.size}")
        self._mv[off : off + n] = bytes([byte]) * n

    # -- bulk access over scattered records ---------------------------------
    #
    # A message is a chain of small blocks at arbitrary offsets.  Touching
    # them one ``u32``/``write`` call at a time costs ~0.8 us of
    # interpreter per block; ``follow`` (bound in ``__init__``) and
    # ``scatter`` move a whole chain per call (see
    # :mod:`repro.core.freelist`, the only caller).

    def _rows(self, offs, width: int):
        """``(index array, window view)`` for a scatter of ``width``.

        Row ``i`` of the window view is ``region[i : i + width]``, so one
        fancy index over it moves every record without building a
        per-byte index; its length makes numpy's own bounds check the
        ``off + width > size`` test of :meth:`read`/:meth:`write`.
        Negative offsets would wrap silently and are refused here.
        """
        idx = np.asarray(offs, dtype=np.intp)
        if idx.size and idx.min() < 0:
            raise IndexError(f"offset {idx.min()} outside region of {self.size}")
        win = self._windows.get(width)
        if win is None:
            if not 0 < width <= self.size:
                raise IndexError(
                    f"record width {width} outside region of {self.size}")
            win = self._windows[width] = as_strided(
                np.frombuffer(self._mv, dtype=np.uint8),
                shape=(self.size - width + 1, width), strides=(1, 1))
        return idx, win

    def scatter(self, offs, rows: np.ndarray) -> None:
        """Copy row ``i`` of the 2-D ``uint8`` array ``rows`` to ``offs[i]``.

        The records must not overlap one another.  Nothing is written
        when any record reaches outside the region (``IndexError``).
        """
        idx, win = self._rows(offs, rows.shape[1])
        try:
            win[idx] = rows
        except IndexError:
            raise IndexError(
                f"scatter [{idx.max()}, {idx.max() + rows.shape[1]}) outside "
                f"region of {self.size}") from None

    def release(self) -> None:
        """Release the underlying memoryview.

        Required before a ``SharedMemory`` segment can be closed; harmless
        for plain ``bytearray`` regions.  The array views the bulk
        accessors keep export the same buffer and must go first, or the
        memoryview refuses to release.
        """
        self._windows.clear()
        self._mv.release()

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedRegion(size={self.size})"
