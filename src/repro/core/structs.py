"""Record layouts for the shared-segment data structures.

These are the byte-level equivalents of the C structs sketched in paper
§3.1 (Figure 2):

* :data:`LNVC` — one circuit descriptor: name, lock, FIFO head/tail, the
  shared FCFS head pointer, connection lists and connection counts.
* :data:`SEND` / :data:`RECV` — send and receive connection descriptors;
  a BROADCAST receive descriptor carries its individual FIFO head pointer
  ("BROADCAST receive processes have an additional descriptor field used
  for individual FIFO head pointers").
* :data:`MSG` — a message header: length, block chain, FIFO link, and the
  retirement-accounting fields (see DESIGN.md §4).
* message blocks — ``u32 next`` + ``block_size`` data bytes; their stride
  depends on the configured block size, so they are described by
  :func:`block_stride` rather than a fixed :class:`Record`.

A :class:`Record` maps field names to offsets; all fields are u32.  Access
goes through a bound :class:`~repro.core.region.SharedRegion` plus the
record's base offset — the same pointer-plus-field-offset arithmetic the C
compiler would emit.  The hot paths move a whole *run* of adjacent fields
per call instead (:meth:`Record.run`, bound to a region with
:meth:`SharedRegion.reader <repro.core.region.SharedRegion.reader>` /
``writer``): one C call where a C compiler would emit one struct copy.
"""

from __future__ import annotations

import struct

from .protocol import NAME_MAX
from .region import SharedRegion

__all__ = [
    "Record",
    "LNVC",
    "RING_TAG",
    "SEND",
    "RECV",
    "MSG",
    "BLK_NEXT",
    "block_stride",
    "RING",
    "RSLOT",
    "RCUR",
    "CACHE_LINE",
    "RING_READERS",
    "RS_FCFS_AVAILABLE",
    "RS_FCFS_TAKEN",
    "RS_RETIRED",
    "RSLOT_PENDING_OFF",
    "RSLOT_DATA_OFF",
    "ring_slot_stride",
]


class Record:
    """A fixed layout of named u32 fields, plus optional trailing raw bytes.

    ``fields`` are laid out in declaration order, four bytes each;
    ``tail_bytes`` reserves unstructured space after them (used for the
    LNVC name).  The first field of every record doubles as the free-list
    link while the record is unallocated (see :mod:`repro.core.freelist`).
    ``u64`` names the fields that are the low word of a 64-bit counter
    whose high word is the next field; a run reads the pair as one value.
    """

    __slots__ = ("name", "offsets", "size", "tail_off", "u64", "_high")

    def __init__(self, name: str, fields: tuple[str, ...], tail_bytes: int = 0,
                 u64: tuple[str, ...] = ()) -> None:
        self.name = name
        self.offsets = {f: 4 * i for i, f in enumerate(fields)}
        self.tail_off = 4 * len(fields)
        self.size = self.tail_off + tail_bytes
        self.u64 = frozenset(u64)
        # the high word of each pair travels with its low word
        self._high = frozenset(fields[fields.index(f) + 1] for f in u64)

    def run(self, first: str, last: str) -> struct.Struct:
        """The ``struct.Struct`` of the adjacent fields ``first`` ..
        ``last`` (inclusive), to be applied at ``base + offsets[first]``.

        One value per field, except that a ``u64`` pair inside the run
        is one 64-bit value.  A run has no padding, so it may be stored
        (:meth:`SharedRegion.writer`) as well as read — by a caller who
        holds the lock that guards *every* word in it.
        """
        lo, hi = self.offsets[first], self.offsets[last]
        names = [f for f, off in self.offsets.items() if lo <= off <= hi]
        if not names or names[0] in self._high or names[-1] in self.u64:
            raise ValueError(
                f"{self.name}: no run {first!r}..{last!r} (empty, or it "
                f"splits a u64 pair)")
        return self.pick(*(f for f in names if f not in self._high))

    def pick(self, *fields: str) -> struct.Struct:
        """The ``struct.Struct`` reading ``fields`` (ascending, gaps
        skipped as pad bytes) in one call, applied at the first one's
        offset.  Padded structs are for reading only: packing one would
        store zeros over the words it skips.
        """
        fmt, end = "<", self.offsets[fields[0]]
        for f in fields:
            off = self.offsets[f]
            if off < end:
                raise ValueError(f"{self.name}: fields out of order at {f!r}")
            fmt += f"{off - end}x" if off > end else ""
            fmt += "Q" if f in self.u64 else "I"
            end = off + (8 if f in self.u64 else 4)
        return struct.Struct(fmt)

    def get(self, region: SharedRegion, base: int, field: str) -> int:
        """Read field ``field`` of the record at byte offset ``base``."""
        return region.u32(base + self.offsets[field])

    def set(self, region: SharedRegion, base: int, field: str, value: int) -> None:
        """Write field ``field`` of the record at byte offset ``base``."""
        region.set_u32(base + self.offsets[field], value)

    def add(self, region: SharedRegion, base: int, field: str, delta: int) -> int:
        """Add ``delta`` to field ``field``; returns the new value."""
        return region.add_u32(base + self.offsets[field], delta)

    def clear(self, region: SharedRegion, base: int) -> None:
        """Zero the whole record (fields and tail)."""
        region.fill(base, self.size, 0)

    def dump(self, region: SharedRegion, base: int) -> dict[str, int]:
        """Snapshot all fields as a dict (diagnostics and tests)."""
        return {f: region.u32(base + off) for f, off in self.offsets.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Record({self.name}, size={self.size})"


#: LNVC descriptor.  ``in_use`` doubles as the free-list link position but
#: LNVC slots are allocated by table scan, not free list, because opens
#: must search by name anyway (paper: LNVC names "must be unique").
LNVC = Record(
    "LNVC",
    (
        "in_use",      # 0 = free slot, 1 = live circuit
        "gen",         # generation counter, bumped on delete (stale-id hygiene)
        "nmsgs",       # messages physically linked in the FIFO
        "fifo_head",   # oldest message still linked (MSG offset or NIL)
        "fifo_tail",   # newest message (MSG offset or NIL)
        "fcfs_head",   # oldest message not yet FCFS-taken (shared FCFS head)
        "send_list",   # head of send-descriptor list (SEND offset or NIL)
        "recv_list",   # head of receive-descriptor list (RECV offset or NIL)
        "n_senders",
        "n_fcfs",
        "n_bcast",
        "seq",         # messages ever enqueued on this circuit (statistics)
        "hwm_nmsgs",   # deepest the FIFO has ever been (statistics)
        "name_len",    # bytes of UTF-8 name stored in the tail
        "conn_epoch",  # bumped on every send/recv list mutation (see ops)
        "transport",   # 0 = free-list FIFO, 1 = ring (fixed at creation)
        "ring",        # RING control-block offset (ring circuits only)
        # Traffic counts of this circuit's lifetime, written under its own
        # lock (``seq`` is the send count) and folded into the header's
        # ``total_*`` when the circuit is deleted.  The byte counts are
        # u64: a low word and a high word, accessed as one.
        "nrecvs",      # receives completed
        "bytes_sent",
        "bytes_sent_hi",
        "bytes_received",
        "bytes_received_hi",
    ),
    tail_bytes=NAME_MAX + 1,
    u64=("bytes_sent", "bytes_received"),
)

#: LNVC ``transport`` value of a ring circuit (a free-list circuit holds 0).
RING_TAG = 1

#: Send connection descriptor: just the owning process and the list link.
SEND = Record("SEND", ("pid", "next"))

#: Receive connection descriptor.  ``head`` is meaningful only for
#: BROADCAST connections: the next message this receiver will read, or NIL
#: when it has caught up with the FIFO tail.
RECV = Record("RECV", ("pid", "proto", "head", "next", "nreads"))

#: Message header (paper §3.1: "a header for saving pertinent message
#: information (e.g., message length, a pointer to the tail, and a pointer
#: to the next message in a list of messages for an LNVC)").
MSG = Record(
    "MSG",
    (
        "length",         # payload bytes
        "nblocks",        # blocks in the chain
        "first_blk",      # head of the block chain (block offset or NIL)
        "next_msg",       # FIFO link to the next-younger message
        "bcast_pending",  # broadcast receivers that still must read this
        "busy",           # receivers currently copying out of the chain
        "flags",          # MsgFlags bits
        "seqno",          # enqueue sequence number on the circuit
        "sender",         # pid of the sending process
    ),
)

#: Offset of the ``next`` link inside a message block.
BLK_NEXT = 0


def block_stride(block_size: int) -> int:
    """Bytes occupied by one message block: u32 link + ``block_size`` data.

    The paper used 10-byte blocks in all experiments ("In all of our
    experiments, 10 byte message blocks were used"), giving a 14-byte
    stride here.
    """
    return 4 + block_size


# ---------------------------------------------------------------------------
# ring transport records (see docs/transport.md)
# ---------------------------------------------------------------------------

#: Coherence granularity of the modeled bus (and of every machine this is
#: likely to run on).  Ring slot headers, the per-slot reader bitmap and
#: the per-reader cursors are each padded to this, mpsoc-style, so that
#: writer traffic and each reader's cursor never share a line.
CACHE_LINE = 64

#: Maximum BROADCAST readers per ring circuit: the per-slot pending
#: bitmap is one u32, one bit per reader index.
RING_READERS = 32

#: Ring control block, one per ring in the pool.  While free, the first
#: word (``next_write``) doubles as the free-list link; every field is
#: re-initialized when a circuit claims the ring.  Counters are monotone
#: u32 *message indexes*, not slot indexes: ``index % ring_slots`` picks
#: the slot, and the full index distinguishes laps, which is what makes
#: slot reuse (generation aliasing) detectable instead of silent.
RING = Record(
    "RING",
    (
        "next_write",   # next message index a sender will claim
        "fcfs_next",    # shared FCFS cursor: next index not yet FCFS-taken
        "reader_mask",  # bitmap of registered BROADCAST reader indexes
    ),
    tail_bytes=CACHE_LINE - 12,  # pad: adjacent rings never share a line
)

#: Ring slot header.  ``seq`` is the commit word: 0 = never written,
#: ``index + 1`` = message ``index`` is committed in this slot.  Readers
#: treat any other value as "not mine yet".  ``state`` carries the
#: retirement bits (RS_*), mirroring the free-list transport's MsgFlags.
RSLOT = Record(
    "RSLOT",
    (
        "seq",      # commit word: message index + 1, or 0
        "length",   # payload bytes
        "seqno",    # circuit sequence number (statistics / tracing)
        "sender",   # pid of the sending process
        "state",    # RS_* retirement bits
        "busy",     # readers currently copying out of the slot
    ),
)

#: Per-reader ring cursor, padded to its own cache line (mpsoc's
#: ``mpsoc_reader_index``): ``next_seq`` is the next message index this
#: BROADCAST reader will consume; ``nreads`` counts deliveries.
RCUR = Record("RCUR", ("next_seq", "nreads"), tail_bytes=CACHE_LINE - 8)

#: ``state`` bits of a ring slot.
RS_FCFS_AVAILABLE = 1  #: must be (or may yet be) taken by an FCFS receiver
RS_FCFS_TAKEN = 2      #: an FCFS receiver consumed it
RS_RETIRED = 4         #: fully discharged; counted out of nmsgs, reusable

#: Byte offset of the per-slot pending bitmap: a u32 alone on the slot's
#: second cache line (mpsoc puts ``bitmap`` on its own line so the
#: writer's completion poll never collides with payload reads).
RSLOT_PENDING_OFF = CACHE_LINE

#: Byte offset of the payload inside a slot.
RSLOT_DATA_OFF = 2 * CACHE_LINE


def ring_slot_stride(slot_bytes: int) -> int:
    """Bytes one ring slot occupies: header line + bitmap line + payload
    rounded up to whole cache lines."""
    data = (slot_bytes + CACHE_LINE - 1) & ~(CACHE_LINE - 1)
    return RSLOT_DATA_OFF + data
