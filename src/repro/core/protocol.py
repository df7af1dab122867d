"""Receive-protocol constants and shared-segment constants.

Paper §1: each receiver joining an LNVC conversation declares itself either
FCFS (first-come, first-serve — every message is consumed by exactly one
FCFS receiver) or BROADCAST (every broadcast receiver sees every message).
Both kinds may coexist on one circuit; a single process may not hold both
kinds of receive connection on the same circuit (footnote 3).
"""

from __future__ import annotations

import enum

__all__ = [
    "Protocol",
    "FCFS",
    "BROADCAST",
    "NIL",
    "SLOT_BITS",
    "MAGIC",
    "VERSION",
    "NAME_MAX",
    "GLOBAL_LOCK",
    "ALLOC_LOCK",
    "FIRST_LNVC_LOCK",
    "MsgFlags",
]


class Protocol(enum.IntEnum):
    """Receive protocol declared at :func:`~repro.core.ops.open_receive`."""

    #: First-come, first-serve: each message delivered to exactly one
    #: FCFS receiver (plus every BROADCAST receiver).
    FCFS = 1
    #: Broadcast: every BROADCAST receiver sees every message, in order.
    BROADCAST = 2


#: Convenience aliases so user code can write ``mpf.FCFS``.
FCFS = Protocol.FCFS
BROADCAST = Protocol.BROADCAST

#: Null "pointer" value.  All links inside the shared segment are 32-bit
#: byte offsets; ``NIL`` marks the end of a list, exactly as a NULL pointer
#: does in the paper's C implementation.
NIL = 0xFFFFFFFF

#: Bits of an LNVC identifier that address the table slot; the remaining
#: high bits carry the slot's generation so identifiers from a deleted
#: circuit are detected instead of silently aliasing a new one.
SLOT_BITS = 10

#: Magic word written at offset 0 of a formatted segment ("MPF!" little-endian).
MAGIC = 0x4D504621

#: On-disk/in-memory format version of the segment layout.  v2 added the
#: ring transport pools (control blocks, reader cursors, slot arrays)
#: after the message block pool; v3 the per-circuit traffic counters in
#: the LNVC record.
VERSION = 3

#: Maximum LNVC name length in bytes (UTF-8 encoded).
NAME_MAX = 63

#: Lock index protecting the LNVC name table (open/close operations).
GLOBAL_LOCK = 0

#: Lock index protecting the shared free lists (headers, blocks, descriptors).
ALLOC_LOCK = 1

#: Index of the first per-LNVC lock; LNVC slot ``i`` uses lock
#: ``FIRST_LNVC_LOCK + i``.
FIRST_LNVC_LOCK = 2


class MsgFlags(enum.IntFlag):
    """Per-message state bits (``flags`` field of a message header).

    These implement the retirement rule from DESIGN.md §4, which resolves
    the paper's "particularly vexing" ``close_receive`` garbage problem
    (§3.2) with enqueue-time snapshots instead of head-pointer comparisons.
    """

    NONE = 0
    #: At enqueue time, at least one FCFS receiver was connected; the message
    #: must be taken by an FCFS receiver before it may retire.
    FCFS_EXPECTED = 1
    #: An FCFS receiver has consumed (or is consuming) this message.
    FCFS_TAKEN = 2
    #: At enqueue time, at least one receiver of either kind was connected.
    #: Messages enqueued into an empty conversation are held for a future
    #: FCFS joiner (paper §3.2 lost-message discussion).
    HAD_RECEIVERS = 4
    #: Fully consumed; may be unlinked and freed once it reaches the FIFO head.
    RETIRED = 8
