"""Shared-segment sizing and layout.

Paper §2: "``init(maxLNVC's, max_processes)`` ... The parameters
``maxLNVC's`` and ``max_processes``, the maximum number of LNVC's and
processes, respectively, are used to estimate the amount of shared memory
necessary."

:class:`MPFConfig` captures those two parameters plus the tunables the
paper fixes implicitly (block size = 10 bytes, pool sizes), and
:class:`SegmentLayout` turns a config into concrete byte offsets for every
pool.  :func:`format_region` writes a fresh segment: header, empty LNVC
table, and the four free lists (send descriptors, receive descriptors,
message headers, message blocks) threaded through their pools.

Segment map (all offsets 4-byte aligned)::

    +-----------------------+  0
    | header                |  magic/version/config echo/free-list heads/stats
    +-----------------------+  lnvc_base
    | LNVC table            |  max_lnvcs x LNVC.size
    +-----------------------+  send_base
    | send descriptor pool  |  send_descriptors x SEND.size
    +-----------------------+  recv_base
    | recv descriptor pool  |  recv_descriptors x RECV.size
    +-----------------------+  msg_base
    | message header pool   |  max_messages x MSG.size
    +-----------------------+  blk_base
    | message block pool    |  n_blocks x (4 + block_size)
    +-----------------------+  ring_ctrl_base   (cache-line aligned)
    | ring control pool     |  n_rings x RING.size (one line each)
    +-----------------------+  ring_cur_base
    | ring cursor pool      |  n_rings x RING_READERS x RCUR.size
    +-----------------------+  ring_data_base
    | ring slot pool        |  n_rings x ring_slots x ring_stride
    +-----------------------+  total_size

The three ring pools exist only when the config selects the ring
transport for at least one circuit (``n_rings`` is zero otherwise), so a
pure free-list segment is laid out byte-for-byte as before.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import MPFConfigError, RegionFormatError
from .freelist import init_freelist
from .protocol import FIRST_LNVC_LOCK, MAGIC, SLOT_BITS, VERSION
from .region import SharedRegion
from .structs import (
    LNVC,
    MSG,
    RECV,
    RCUR,
    RING,
    RING_READERS,
    SEND,
    block_stride,
    ring_slot_stride,
)

__all__ = ["MPFConfig", "HDR", "SegmentLayout", "format_region", "check_region"]


def _align(n: int, a: int = 8) -> int:
    return (n + a - 1) & ~(a - 1)


@dataclass(frozen=True)
class MPFConfig:
    """Sizing parameters for one MPF segment.

    ``max_lnvcs`` and ``max_processes`` are the two arguments of the
    paper's ``init()``; everything else defaults to values derived from
    them (or to the paper's constants, e.g. 10-byte blocks) but can be
    pinned explicitly for experiments.
    """

    #: Maximum simultaneously live circuits (size of the LNVC table).
    max_lnvcs: int = 32
    #: Maximum participating processes.  Used to derive descriptor pools.
    max_processes: int = 32
    #: Data bytes per message block.  The paper used 10 in all experiments.
    block_size: int = 10
    #: Send-descriptor pool size; 0 means "derive from the two maxima".
    send_descriptors: int = 0
    #: Receive-descriptor pool size; 0 means "derive from the two maxima".
    recv_descriptors: int = 0
    #: Message-header pool size (maximum queued messages segment-wide).
    max_messages: int = 1024
    #: Bytes reserved for the message block pool.
    message_pool_bytes: int = 1 << 20
    #: Extra lock/wait-channel slots for the §5 extension facilities
    #: (synchronous channels).  Extension slot ``k`` uses lock
    #: ``FIRST_LNVC_LOCK + max_lnvcs + k`` and wait channel
    #: ``max_lnvcs + k`` — the same lock↔channel pairing as circuits.
    ext_slots: int = 0
    #: Raw bytes reserved after the block pool for extension facilities.
    #: Zero-initialized, and every extension defines all-zeroes as its
    #: valid empty state, so no post-format setup hook is needed.
    ext_bytes: int = 0
    #: Default transport for new circuits: ``"freelist"`` (the paper's
    #: locked FIFO over the global block pool) or ``"ring"`` (the
    #: mpsoc-style lock-free ring; see docs/transport.md).
    transport: str = "freelist"
    #: Per-circuit overrides of :attr:`transport`, as ``(name, kind)``
    #: pairs matched against the LNVC name at first open.
    transports: tuple = ()
    #: Ring pool size; 0 derives it (``max_lnvcs`` when any circuit may
    #: select the ring transport, else no pool at all).
    ring_lnvcs: int = 0
    #: Slots per ring.  A full ring blocks senders until a slot retires,
    #: the analogue of the free-list transport's empty block pool.
    ring_slots: int = 64
    #: Payload capacity of one ring slot.  Ring messages are bounded —
    #: the price of fixed-size slots — where free-list messages are only
    #: bounded by the block pool.
    ring_slot_bytes: int = 1024

    def __post_init__(self) -> None:
        if self.max_lnvcs < 1:
            raise MPFConfigError("max_lnvcs must be >= 1")
        if self.max_lnvcs > 1 << SLOT_BITS:
            raise MPFConfigError(
                f"max_lnvcs {self.max_lnvcs} exceeds the {1 << SLOT_BITS} "
                f"slots an identifier can address (SLOT_BITS = {SLOT_BITS})")
        if self.max_processes < 1:
            raise MPFConfigError("max_processes must be >= 1")
        if self.block_size < 1:
            raise MPFConfigError("block_size must be >= 1")
        if self.max_messages < 1:
            raise MPFConfigError("max_messages must be >= 1")
        if self.send_descriptors < 0 or self.recv_descriptors < 0:
            raise MPFConfigError("descriptor pool sizes must be >= 0")
        if self.message_pool_bytes < block_stride(self.block_size):
            raise MPFConfigError("message_pool_bytes smaller than one block")
        if self.ext_slots < 0 or self.ext_bytes < 0:
            raise MPFConfigError("extension reservations must be >= 0")
        if self.transport not in ("freelist", "ring"):
            raise MPFConfigError(f"unknown transport {self.transport!r}")
        for pair in self.transports:
            if len(pair) != 2 or pair[1] not in ("freelist", "ring"):
                raise MPFConfigError(f"bad transport override {pair!r}")
        if self.ring_lnvcs < 0:
            raise MPFConfigError("ring_lnvcs must be >= 0")
        if self.ring_slots < 2:
            raise MPFConfigError("ring_slots must be >= 2")
        if self.ring_slot_bytes < 1:
            raise MPFConfigError("ring_slot_bytes must be >= 1")

    @property
    def n_send(self) -> int:
        """Effective send-descriptor pool size."""
        if self.send_descriptors:
            return self.send_descriptors
        return min(self.max_processes * self.max_lnvcs, 65536)

    @property
    def n_recv(self) -> int:
        """Effective receive-descriptor pool size."""
        if self.recv_descriptors:
            return self.recv_descriptors
        return min(self.max_processes * self.max_lnvcs, 65536)

    @property
    def n_blocks(self) -> int:
        """Message blocks carved out of ``message_pool_bytes``."""
        return self.message_pool_bytes // block_stride(self.block_size)

    @property
    def n_rings(self) -> int:
        """Effective ring pool size: 0 unless a circuit may use rings."""
        if self.ring_lnvcs:
            return self.ring_lnvcs
        if self.transport == "ring" or any(k == "ring" for _, k in self.transports):
            return self.max_lnvcs
        return 0

    def transport_for(self, name: str) -> str:
        """Transport kind a circuit called ``name`` will use."""
        for pat, kind in self.transports:
            if pat == name:
                return kind
        return self.transport

    @property
    def n_locks(self) -> int:
        """Locks the runtime must provide: global, allocator, one per
        LNVC and one per extension slot."""
        return FIRST_LNVC_LOCK + self.max_lnvcs + self.ext_slots

    @property
    def n_channels(self) -> int:
        """Wait channels: one per LNVC slot plus one per extension slot."""
        return self.max_lnvcs + self.ext_slots


class _Header:
    """Field offsets of the segment header.

    u32 fields first, then 8-byte-aligned u64 statistics counters.  The
    statistics exist so benchmarks and tests can observe allocator and
    traffic behaviour without instrumenting call sites.
    """

    _U32_FIELDS = (
        "magic",
        "version",
        "max_lnvcs",
        "max_processes",
        "block_size",
        "n_send",
        "n_recv",
        "n_msgs",
        "n_blocks",
        "free_send",   # free-list heads
        "free_recv",
        "free_msg",
        "free_blk",
        "live_msgs",   # message headers currently allocated
        "live_blocks", # message blocks currently allocated
        "live_bytes",  # payload bytes currently queued (VM model input)
        "live_lnvcs",  # circuits currently in use
        "n_rings",     # ring transport pool (0 on pure free-list segments)
        "free_ring",   # ring free-list head
        "live_rings",  # rings currently bound to circuits
    )
    _U64_FIELDS = (
        "total_sends",
        "total_receives",
        "total_bytes_sent",
        "total_bytes_received",
        "hwm_live_bytes",  # high-water mark of live_bytes
        "hwm_live_msgs",
    )

    def __init__(self) -> None:
        self.u32 = {f: 4 * i for i, f in enumerate(self._U32_FIELDS)}
        base = _align(4 * len(self._U32_FIELDS))
        self.u64 = {f: base + 8 * i for i, f in enumerate(self._U64_FIELDS)}
        self.size = base + 8 * len(self._U64_FIELDS)

    def run(self, first: str, last: str) -> struct.Struct:
        """The ``struct.Struct`` of the adjacent header fields ``first``
        .. ``last``, all u32 or all u64, to be applied at the offset of
        ``first`` (see :meth:`repro.core.structs.Record.run`)."""
        for table, code, width in ((self.u32, "I", 4), (self.u64, "Q", 8)):
            if first in table and last in table and table[first] <= table[last]:
                return struct.Struct(
                    "<" + code * ((table[last] - table[first]) // width + 1))
        raise ValueError(f"header: no run {first!r}..{last!r}")

    def get(self, region: SharedRegion, f: str) -> int:
        if f in self.u32:
            return region.u32(self.u32[f])
        return region.u64(self.u64[f])

    def set(self, region: SharedRegion, f: str, v: int) -> None:
        if f in self.u32:
            region.set_u32(self.u32[f], v)
        else:
            region.set_u64(self.u64[f], v)

    def add(self, region: SharedRegion, f: str, d: int) -> int:
        if f in self.u32:
            return region.add_u32(self.u32[f], d)
        return region.add_u64(self.u64[f], d)


#: Singleton header descriptor.
HDR = _Header()


@dataclass(frozen=True)
class SegmentLayout:
    """Concrete byte offsets for every pool of one segment."""

    cfg: MPFConfig
    lnvc_base: int = field(init=False)
    send_base: int = field(init=False)
    recv_base: int = field(init=False)
    msg_base: int = field(init=False)
    blk_base: int = field(init=False)
    blk_stride: int = field(init=False)
    ring_ctrl_base: int = field(init=False)
    ring_cur_base: int = field(init=False)
    ring_data_base: int = field(init=False)
    ring_stride: int = field(init=False)
    ext_base: int = field(init=False)
    total_size: int = field(init=False)

    def __post_init__(self) -> None:
        cfg = self.cfg
        off = _align(HDR.size)
        object.__setattr__(self, "lnvc_base", off)
        off = _align(off + cfg.max_lnvcs * LNVC.size)
        object.__setattr__(self, "send_base", off)
        off = _align(off + cfg.n_send * SEND.size)
        object.__setattr__(self, "recv_base", off)
        off = _align(off + cfg.n_recv * RECV.size)
        object.__setattr__(self, "msg_base", off)
        off = _align(off + cfg.max_messages * MSG.size)
        object.__setattr__(self, "blk_base", off)
        object.__setattr__(self, "blk_stride", block_stride(cfg.block_size))
        off = _align(off + cfg.n_blocks * self.blk_stride)
        # Ring pools: cache-line aligned, zero-sized on pure free-list
        # segments so those keep their historical layout byte-for-byte.
        object.__setattr__(self, "ring_stride", ring_slot_stride(cfg.ring_slot_bytes))
        off = _align(off, 64) if cfg.n_rings else off
        object.__setattr__(self, "ring_ctrl_base", off)
        off += cfg.n_rings * RING.size
        object.__setattr__(self, "ring_cur_base", off)
        off += cfg.n_rings * RING_READERS * RCUR.size
        object.__setattr__(self, "ring_data_base", off)
        off = _align(off + cfg.n_rings * cfg.ring_slots * self.ring_stride)
        object.__setattr__(self, "ext_base", off)
        off = _align(off + cfg.ext_bytes)
        object.__setattr__(self, "total_size", off)

    def lnvc_off(self, slot: int) -> int:
        """Byte offset of LNVC table slot ``slot``."""
        return self.lnvc_base + slot * LNVC.size

    def lnvc_slot(self, off: int) -> int:
        """Inverse of :meth:`lnvc_off`."""
        return (off - self.lnvc_base) // LNVC.size

    def ring_index(self, ctrl_off: int) -> int:
        """Pool index of the ring control block at ``ctrl_off``."""
        return (ctrl_off - self.ring_ctrl_base) // RING.size

    def ring_cur_off(self, ring_idx: int, reader_bit: int) -> int:
        """Byte offset of BROADCAST reader ``reader_bit``'s cursor."""
        return self.ring_cur_base + (ring_idx * RING_READERS + reader_bit) * RCUR.size

    def ring_slot_off(self, ring_idx: int, slot: int) -> int:
        """Byte offset of slot ``slot`` of ring ``ring_idx``."""
        return (
            self.ring_data_base
            + ring_idx * self.cfg.ring_slots * self.ring_stride
            + slot * self.ring_stride
        )


def format_region(region: SharedRegion, cfg: MPFConfig) -> SegmentLayout:
    """Initialize ``region`` as a fresh MPF segment for ``cfg``.

    This is the architecture-independent half of the paper's ``init()``;
    runtimes perform the architecture-specific half (allocating the shared
    memory itself and creating locks) before calling this.
    """
    layout = SegmentLayout(cfg)
    if region.size < layout.total_size:
        raise MPFConfigError(
            f"region of {region.size} bytes too small; "
            f"config requires {layout.total_size}"
        )
    region.fill(0, layout.total_size, 0)
    HDR.set(region, "magic", MAGIC)
    HDR.set(region, "version", VERSION)
    HDR.set(region, "max_lnvcs", cfg.max_lnvcs)
    HDR.set(region, "max_processes", cfg.max_processes)
    HDR.set(region, "block_size", cfg.block_size)
    HDR.set(region, "n_send", cfg.n_send)
    HDR.set(region, "n_recv", cfg.n_recv)
    HDR.set(region, "n_msgs", cfg.max_messages)
    HDR.set(region, "n_blocks", cfg.n_blocks)
    init_freelist(region, HDR.u32["free_send"], layout.send_base, SEND.size, cfg.n_send)
    init_freelist(region, HDR.u32["free_recv"], layout.recv_base, RECV.size, cfg.n_recv)
    init_freelist(region, HDR.u32["free_msg"], layout.msg_base, MSG.size, cfg.max_messages)
    init_freelist(region, HDR.u32["free_blk"], layout.blk_base, layout.blk_stride, cfg.n_blocks)
    HDR.set(region, "n_rings", cfg.n_rings)
    init_freelist(
        region, HDR.u32["free_ring"], layout.ring_ctrl_base, RING.size, cfg.n_rings
    )
    return layout


def check_region(region: SharedRegion, cfg: MPFConfig) -> SegmentLayout:
    """Validate that ``region`` holds a segment formatted for ``cfg``.

    Used by runtimes that attach to an existing segment (the process
    runtime's children) instead of formatting a fresh one.
    """
    if region.size < HDR.size:
        raise RegionFormatError("region smaller than the MPF header")
    if HDR.get(region, "magic") != MAGIC:
        raise RegionFormatError("bad magic: region is not an MPF segment")
    if HDR.get(region, "version") != VERSION:
        raise RegionFormatError("MPF segment version mismatch")
    for f, want in (
        ("max_lnvcs", cfg.max_lnvcs),
        ("max_processes", cfg.max_processes),
        ("block_size", cfg.block_size),
        ("n_msgs", cfg.max_messages),
        ("n_blocks", cfg.n_blocks),
        ("n_rings", cfg.n_rings),
    ):
        if HDR.get(region, f) != want:
            raise RegionFormatError(f"segment {f} does not match config")
    return SegmentLayout(cfg)
