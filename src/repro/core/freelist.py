"""Intrusive free lists over fixed-size slots in the shared region.

Paper §3.1: "During MPF initialization, a free list of linked message
blocks is created in shared memory. ... Like message blocks, LNVC, send,
and receive descriptors are linked into free lists when not in use."

Each pool is a contiguous run of equally sized records.  While a record is
free, its *first* 32-bit word is reused as the link to the next free record
(records carry no meaning when free, so this aliasing is safe — the same
trick the C implementation plays with its ``next`` pointers).  The head of
each free list is itself a u32 cell inside the segment header, so forked
processes see one shared allocator state.

Free-list operations are **not** internally synchronized; callers hold the
segment's allocation lock (``ALLOC_LOCK``), mirroring the paper's
"synchronization variables are initialized for exclusive access to internal
data structures".

Block-chain kernels
-------------------

A message body is a chain of blocks popped from the block free list
(§3.1), and every primitive that touches one — send, receive, reap,
rollback, the model checker's torn send — goes through the kernels
below instead of its own per-block loop:
:func:`pop_chain` takes blocks off a list,
:func:`fill_chain` terminates them as a chain and copies a payload over
them, :func:`walk_chain` / :func:`drain_chain` follow a message's chain
(and collect its payload), :func:`splice_chain` returns a chain to a
list.  A link word is stored only when it changes: a pop leaves the
blocks linked in the order popped, which is the order the chain needs,
and a dead chain is still linked first → … → last, which is all a free
list needs — so a message costs two link stores (last → ``NIL`` on fill,
last → old head on free) however long it is, and a freed chain is
handed out again in the order it was filled.  The order of the free
list is not part of the segment format; everything else a peer can read
is as the block-by-block loops left it (link values, payload bytes,
untouched slack in a partial last block), and the simulated *charge*
stays with the callers, computed per block from the block count: the
modelled machine still walks.

The walk is a chain of dependent loads, so :func:`drain_chain` takes
link and payload of a block in one C call, one loop at every length;
:func:`fill_chain` knows its offsets beforehand and moves a long
chain's payload with one :meth:`SharedRegion.scatter`.
"""

from __future__ import annotations

import struct
from functools import lru_cache

import numpy as np

from .errors import RegionFormatError
from .protocol import NIL
from .region import SharedRegion
from .structs import BLK_NEXT, block_stride

__all__ = [
    "init_freelist",
    "fl_alloc",
    "fl_free",
    "fl_count",
    "block_record",
    "pop_chain",
    "fill_chain",
    "walk_chain",
    "drain_chain",
    "splice_chain",
]

_LE32 = np.dtype("<u4")

# A message block is ``[u32 next | block_size payload bytes]``.  Its chain
# link is the same first word the free list links through, which is what
# lets one ``follow`` serve both lists and a popped run of blocks be a
# chain already.
assert BLK_NEXT == 0
_BLK_DATA = BLK_NEXT + 4

#: Chains shorter than this fill with one ``write`` of a payload slice
#: per block, longer ones with one payload-only ``scatter``.  Measured
#: crossover (10-byte blocks, scrambled list, real shared memory, us min
#: of 80 alternating bursts): loop 0.9 against 5.9 at 2 blocks, 7.7
#: against 7.5 at 26, 9.9 against 8.4 at 32, 66 against 15 at 205; the
#: table is in docs/performance.md, "Block-chain kernels".
_BULK_FILL_MIN = 32


@lru_cache(maxsize=8)
def _pool_image(base: int, stride: int, count: int) -> bytes:
    """The byte image of a freshly threaded pool (memoized).

    Figure sweeps format one region per measured point with a handful of
    distinct geometries, so the image for a given ``(base, stride,
    count)`` is rebuilt constantly; caching it turns re-formatting into a
    single ``memcpy``; a miss is a few array operations (a megabyte
    pool of 10-byte blocks took 18 ms as a Python list of records).
    """
    image = np.zeros((count, stride), np.uint8)
    links = np.arange(1, count + 1, dtype=np.int64) * stride + base
    links[-1] = NIL
    image[:, :4] = links.astype(_LE32).view(np.uint8).reshape(count, 4)
    return image.tobytes()


def init_freelist(region: SharedRegion, head_off: int, base: int, stride: int, count: int) -> None:
    """Thread ``count`` records of ``stride`` bytes starting at ``base``.

    Leaves the list head (stored at ``head_off``) pointing at ``base`` and
    links the records in address order; an empty pool (``count == 0``)
    leaves the head ``NIL``.

    The whole pool is written as one contiguous image (link word plus
    zeroed payload per record) instead of one ``set_u32`` per record:
    free records carry no meaning beyond their link, so blanking the
    payload bytes is harmless, and bulk-writing makes segment formatting
    ~10× cheaper — it was a visible share of short simulations' setup.
    """
    if count <= 0:
        region.set_u32(head_off, NIL)
        return
    region.write(base, _pool_image(base, stride, count))
    region.set_u32(head_off, base)


def fl_alloc(region: SharedRegion, head_off: int) -> int:
    """Pop one record; returns its byte offset, or ``NIL`` if exhausted."""
    head = region.u32(head_off)
    if head == NIL:
        return NIL
    region.set_u32(head_off, region.u32(head))
    return head


def fl_free(region: SharedRegion, head_off: int, off: int) -> None:
    """Push the record at ``off`` back onto the free list."""
    region.set_u32(off, region.u32(head_off))
    region.set_u32(head_off, off)


def fl_count(region: SharedRegion, head_off: int, limit: int = 1 << 32) -> int:
    """Walk the list and count free records (diagnostics and tests only).

    ``limit`` bounds the walk so a corrupted (cyclic) list raises instead
    of hanging.
    """
    n = 0
    off = region.u32(head_off)
    while off != NIL:
        n += 1
        if n > limit:
            raise RuntimeError("free list cycle detected")
        off = region.u32(off)
    return n


# ---------------------------------------------------------------------------
# block-chain kernels
# ---------------------------------------------------------------------------


def block_record(block_size: int) -> struct.Struct:
    """A whole message block, ``[u32 next | block_size payload]``, as one
    record: bound to a region once (:meth:`SharedRegion.reader`) it is
    the ``read_block`` of :func:`drain_chain`."""
    return struct.Struct(f"<I{block_size}s")


def pop_chain(region: SharedRegion, head_off: int, n: int) -> list[int] | None:
    """Pop exactly ``n`` records in list order, or none.

    One walk; on shortfall the list is left untouched and ``None`` is
    returned, so callers need no rollback.  The records come back still
    linked in the order popped, which is what :func:`fill_chain` builds
    a chain from.
    """
    blocks, nxt = region.follow(region.u32(head_off), n)
    if len(blocks) < n:
        return None
    if n:
        region.set_u32(head_off, nxt)
    return blocks


def fill_chain(region: SharedRegion, blocks: list[int], data, block_size: int) -> None:
    """Make ``blocks`` a ``NIL``-terminated chain carrying ``data``.

    ``blocks`` must be what one ``follow`` / :func:`pop_chain` returned:
    block ``i`` already links to block ``i + 1``, so the only link
    stored is the last one's.  Block ``i`` gets bytes ``[i * block_size,
    (i + 1) * block_size)`` of ``data`` after its link; a partial last
    block keeps whatever lay beyond its share.  ``data`` is any
    bytes-like object of ``len(blocks)`` blocks' worth (the last may be
    partial).
    """
    n = len(blocks)
    if not n:
        return
    region.set_u32(blocks[-1] + BLK_NEXT, NIL)
    if n < _BULK_FILL_MIN:
        write = region.write
        at = 0
        for blk in blocks:
            write(blk + _BLK_DATA, data[at : at + block_size])
            at += block_size
        return
    full = len(data) // block_size
    region.scatter(
        np.array(blocks[:full], dtype=np.intp) + _BLK_DATA,
        np.frombuffer(data, np.uint8, full * block_size).reshape(full, block_size))
    if full < n:
        region.write(blocks[-1] + _BLK_DATA, data[full * block_size :])


def _outside(region: SharedRegion, first: int, n: int, width: int) -> RegionFormatError:
    """The error for a chain of ``width``-byte records whose walk left
    the region: names the block that holds the bad link, and the link."""
    holder, blk = None, first
    for _ in range(n):
        if blk + width > region.size:
            break
        holder, blk = blk, region.u32(blk)
    return RegionFormatError(
        f"block chain from {first}: "
        + (f"block {holder} links to" if holder is not None else "it starts at")
        + f" {blk}, outside the region of {region.size}")


def walk_chain(region: SharedRegion, first: int, n: int) -> list[int]:
    """The ``n`` blocks of the chain starting at ``first``.

    The walk is bounded by ``n`` (the header's block count), so a cyclic
    chain cannot hang the caller — who may be holding the allocator
    lock.  A chain that reaches ``NIL`` early, is not ``NIL`` after
    ``n`` blocks, or links outside the region raises
    :class:`RegionFormatError`.
    """
    try:
        blocks, nxt = region.follow(first, n)
    except IndexError:
        raise _outside(region, first, n, 4) from None
    if len(blocks) < n:
        raise RegionFormatError(
            f"block chain from {first} ends after {len(blocks)} of {n} "
            f"blocks (last block {blocks[-1] if blocks else NIL})")
    if nxt != NIL:
        raise RegionFormatError(
            f"block chain from {first} does not end after {n} blocks: "
            f"block {blocks[-1] if blocks else NIL} links to {nxt}")
    return blocks


def drain_chain(
    region: SharedRegion, first: int, n: int, length: int, block_size: int,
    read_block,
) -> tuple[list[int], bytes]:
    """Walk a message's chain once: ``(blocks, payload)``.

    ``blocks`` is what :func:`walk_chain` returns, for the caller to
    hand to :func:`splice_chain` when the same call goes on to free the
    message; ``payload`` is the first ``length`` bytes the chain carries.
    ``read_block`` is ``region.reader(block_record(block_size))``.
    """
    if length > n * block_size:
        raise RegionFormatError(
            f"block chain from {first}: {n} blocks cannot carry {length} bytes")
    # Link and payload in one read per block; only a chain that turns
    # out wrong is walked again, by walk_chain, for its error.
    blocks, parts, blk = [], [], first
    try:
        for _ in range(n):
            if blk == NIL:
                break
            blocks.append(blk)
            blk, part = read_block(blk)
            parts.append(part)
    except struct.error:
        raise _outside(region, first, n, block_stride(block_size)) from None
    if blk != NIL or len(blocks) < n:
        walk_chain(region, first, n)
    return blocks, b"".join(parts)[:length]


def splice_chain(region: SharedRegion, head: int, chain: list[int]) -> int:
    """Free a whole chain with one store: link its last block to the
    record ``head`` (or ``NIL``) and return the new head, its first.

    ``chain`` must be a walked chain — first → … → last, as
    :func:`walk_chain` / :func:`drain_chain` return it and
    :func:`fill_chain` leaves it — and not empty.  The list then hands
    the blocks out again in the order they were filled.
    """
    region.set_u32(chain[-1] + BLK_NEXT, head)
    return chain[0]
