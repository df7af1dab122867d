"""Synchronous (rendezvous) channels with direct single-copy transfer.

Paper §5: "to support synchronous message passing, copying of data from
a sending buffer to a linked message buffer and then to the receiving
buffer is unnecessary; direct data transfer is possible."

A :class:`SyncChannels` table lives in the segment's extension area (see
:class:`~repro.core.layout.MPFConfig` ``ext_slots``/``ext_bytes``).  Each
channel is one contiguous buffer plus a four-state word; every transition
is owned by exactly one side, so a fast back-to-back rendezvous can never
overwrite a state the other side still needs to observe:

    IDLE ──receiver──► RECV_WAIT ──sender──► DATA_READY
      ▲                                          │
      └──sender── PICKED ◄──receiver─────────────┘

The sender blocks until a receiver is waiting and again until the
receiver has taken the data (true rendezvous: ``send`` returning means
the message *was received*, the opposite of MPF's asynchronous
``message_send``).  Because the transfer is one contiguous copy with no
block-list manipulation, the per-byte cost is an order of magnitude
below the general facility's — the ablation benchmark
(``python -m repro.bench ablation_sync``) quantifies exactly the saving
the paper predicts.

Any number of processes may use one channel; the channel lock serializes
them into pairwise rendezvous.  All-zero bytes are the valid empty
state, so a freshly formatted segment needs no extra setup.
"""

from __future__ import annotations

from ..core.effects import Acquire, Release, WaitOn, Wake, charge
from ..core.ops import MPFView
from ..core.protocol import FIRST_LNVC_LOCK

__all__ = ["SyncChannels"]

#: Channel states.
_IDLE, _RECV_WAIT, _DATA_READY, _PICKED = 0, 1, 2, 3

#: Record header: state u32, length u32, sender u32.
_HDR_BYTES = 12

#: Fixed instruction budget per rendezvous side (call + state machine).
SYNC_FIXED = 800
#: Instructions per byte of the single direct copy (contiguous memcpy).
DIRECT_COPY_BYTE = 1


class SyncChannels:
    """A table of ``count`` rendezvous channels of ``buf_bytes`` each.

    Channels use extension slots ``first_slot .. first_slot + count - 1``
    and extension bytes ``byte_offset ..``; the config must reserve them::

        cfg = MPFConfig(ext_slots=2, ext_bytes=SyncChannels.bytes_needed(2, 1024))

    Every process constructs an identical ``SyncChannels`` over the
    shared view (the table itself holds no local state).
    """

    def __init__(
        self,
        view: MPFView,
        count: int,
        buf_bytes: int,
        first_slot: int = 0,
        byte_offset: int = 0,
    ) -> None:
        cfg = view.cfg
        if count < 1 or buf_bytes < 1:
            raise ValueError("need count >= 1 and buf_bytes >= 1")
        if first_slot + count > cfg.ext_slots:
            raise ValueError(
                f"channels need {first_slot + count} ext_slots, "
                f"config reserves {cfg.ext_slots}"
            )
        need = byte_offset + self.bytes_needed(count, buf_bytes)
        if need > cfg.ext_bytes:
            raise ValueError(
                f"channels need {need} ext_bytes, config reserves {cfg.ext_bytes}"
            )
        self.view = view
        self.count = count
        self.buf_bytes = buf_bytes
        self.first_slot = first_slot
        self.base = view.layout.ext_base + byte_offset

    @staticmethod
    def bytes_needed(count: int, buf_bytes: int) -> int:
        """Extension bytes one table occupies."""
        return count * (_HDR_BYTES + buf_bytes)

    # -- addressing -----------------------------------------------------------

    def _rec(self, ch: int) -> int:
        if not 0 <= ch < self.count:
            raise IndexError(f"channel {ch} outside table of {self.count}")
        return self.base + ch * (_HDR_BYTES + self.buf_bytes)

    def _slot(self, ch: int) -> int:
        return self.view.cfg.max_lnvcs + self.first_slot + ch

    def _lock(self, ch: int) -> int:
        return FIRST_LNVC_LOCK + self._slot(ch)

    # -- primitives (effect generators, like the core ops) ---------------------

    def send(self, ch: int, pid: int, data: bytes):
        """Rendezvous send: returns only after a receiver took ``data``."""
        data = bytes(data)
        if len(data) > self.buf_bytes:
            raise ValueError(
                f"message of {len(data)} exceeds channel buffer {self.buf_bytes}"
            )
        r = self.view.region
        rec, slot, lock = self._rec(ch), self._slot(ch), self._lock(ch)
        yield charge(SYNC_FIXED, "sync-send")
        yield Acquire(lock)
        while r.u32(rec) != _RECV_WAIT:
            yield WaitOn(slot, lock)
        # Direct transfer: one contiguous copy, no blocks, no allocator.
        r.set_u32(rec + 4, len(data))
        r.set_u32(rec + 8, pid)
        r.write(rec + _HDR_BYTES, data)
        r.set_u32(rec, _DATA_READY)
        yield charge(len(data) * DIRECT_COPY_BYTE, "sync-copy", len(data))
        yield Release(lock)
        yield Wake(slot)
        # Synchronous completion: wait until the receiver consumed it,
        # then retire the channel to IDLE ourselves — only the sender may
        # perform PICKED -> IDLE, so the next rendezvous cannot start
        # before this one is fully observed by both sides.
        yield Acquire(lock)
        while r.u32(rec) != _PICKED:
            yield WaitOn(slot, lock)
        r.set_u32(rec, _IDLE)
        yield Release(lock)
        yield Wake(slot)
        return None

    def receive(self, ch: int, pid: int):
        """Rendezvous receive: returns ``(sender_pid, data)``."""
        r = self.view.region
        rec, slot, lock = self._rec(ch), self._slot(ch), self._lock(ch)
        yield charge(SYNC_FIXED, "sync-recv")
        yield Acquire(lock)
        # Wait for the channel to be free of any other rendezvous.
        while r.u32(rec) != _IDLE:
            yield WaitOn(slot, lock)
        r.set_u32(rec, _RECV_WAIT)
        yield Release(lock)
        yield Wake(slot)  # a blocked sender may now proceed
        yield Acquire(lock)
        while r.u32(rec) != _DATA_READY:
            yield WaitOn(slot, lock)
        length = r.u32(rec + 4)
        sender = r.u32(rec + 8)
        data = r.read(rec + _HDR_BYTES, length)
        r.set_u32(rec, _PICKED)
        yield charge(100, "sync-pickup")
        yield Release(lock)
        yield Wake(slot)  # release the sender; it retires PICKED -> IDLE
        return sender, data
