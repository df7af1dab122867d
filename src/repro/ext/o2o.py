"""One-to-one lock-free channels (single-producer / single-consumer).

Paper §5: "if only one-to-one communication is implemented, all locking
associated with message handling is removed."

An :class:`O2ORing` is a fixed-capacity ring of fixed-size slots in the
extension area.  The producer owns the ``tail`` index and the consumer
owns the ``head`` index; neither is ever written by the other side, so
no lock protects the data path — the restriction to exactly one process
per side is what buys this.  Blocking is by bounded spinning with a
charged backoff (on the simulated machine the spin advances virtual
time; on real runtimes it is a plain busy-wait, as the lock-free C
implementation's would be).

All-zero bytes (head == tail == 0) are the valid empty state.

Ring layout::

    head u32 | tail u32 | slot 0 | slot 1 | ... | slot cap-1
    slot: length u32 | data[slot_bytes]

The ablation benchmark (``python -m repro.bench ablation_o2o``) compares
this against a one-sender/one-FCFS-receiver LNVC to quantify what the
general facility pays for its locks, blocks and allocator.
"""

from __future__ import annotations

from ..core.effects import charge
from ..core.ops import MPFView

__all__ = ["O2ORing"]

#: Fixed instruction budget per operation (call + index arithmetic).
O2O_FIXED = 150
#: Instructions per byte copied (contiguous slot copy).
O2O_COPY_BYTE = 1
#: Instructions charged per empty/full spin check.
SPIN_BACKOFF = 60


class O2ORing:
    """Ring ``index`` of a family laid out in the extension area.

    ``capacity`` is the number of slots (one is kept empty to
    distinguish full from empty, so ``capacity - 1`` messages fit);
    ``slot_bytes`` is the maximum message size.  Every process
    constructs an identical ring descriptor; only one may send and only
    one may receive.
    """

    def __init__(
        self,
        view: MPFView,
        index: int,
        capacity: int = 16,
        slot_bytes: int = 64,
        byte_offset: int = 0,
    ) -> None:
        if capacity < 2 or slot_bytes < 1:
            raise ValueError("need capacity >= 2 and slot_bytes >= 1")
        self.view = view
        self.capacity = capacity
        self.slot_bytes = slot_bytes
        size = self.bytes_needed(capacity, slot_bytes)
        self.base = view.layout.ext_base + byte_offset + index * size
        if self.base + size > view.layout.ext_base + view.cfg.ext_bytes:
            raise ValueError(
                f"ring {index} needs ext bytes up to "
                f"{self.base + size - view.layout.ext_base}, "
                f"config reserves {view.cfg.ext_bytes}"
            )

    @staticmethod
    def bytes_needed(capacity: int, slot_bytes: int) -> int:
        """Extension bytes one ring occupies."""
        return 8 + capacity * (4 + slot_bytes)

    # -- addressing -----------------------------------------------------------

    @property
    def _head_off(self) -> int:
        return self.base

    @property
    def _tail_off(self) -> int:
        return self.base + 4

    def _slot_off(self, i: int) -> int:
        return self.base + 8 + i * (4 + self.slot_bytes)

    def size(self) -> int:
        """Messages currently queued (racy snapshot, diagnostics only)."""
        r = self.view.region
        return (r.u32(self._tail_off) - r.u32(self._head_off)) % self.capacity

    # -- primitives -------------------------------------------------------------

    def send(self, data: bytes):
        """Enqueue ``data``; spins while the ring is full.  Lock-free."""
        data = bytes(data)
        if len(data) > self.slot_bytes:
            raise ValueError(
                f"message of {len(data)} exceeds slot size {self.slot_bytes}"
            )
        r = self.view.region
        yield charge(O2O_FIXED, "o2o-send")
        while True:
            head = r.u32(self._head_off)
            tail = r.u32(self._tail_off)
            if (tail + 1) % self.capacity != head:
                break
            yield charge(SPIN_BACKOFF, "o2o-spin")
        slot = self._slot_off(tail)
        r.set_u32(slot, len(data))
        r.write(slot + 4, data)
        yield charge(len(data) * O2O_COPY_BYTE, "o2o-copy", len(data))
        # Publish last: the consumer only reads a slot after seeing the
        # advanced tail.
        r.set_u32(self._tail_off, (tail + 1) % self.capacity)
        return None

    def receive(self):
        """Dequeue the oldest message; spins while the ring is empty."""
        r = self.view.region
        yield charge(O2O_FIXED, "o2o-recv")
        while True:
            head = r.u32(self._head_off)
            tail = r.u32(self._tail_off)
            if head != tail:
                break
            yield charge(SPIN_BACKOFF, "o2o-spin")
        slot = self._slot_off(head)
        length = r.u32(slot)
        data = r.read(slot + 4, length)
        yield charge(length * O2O_COPY_BYTE, "o2o-copy", length)
        r.set_u32(self._head_off, (head + 1) % self.capacity)
        return data
