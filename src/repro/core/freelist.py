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
:func:`fill_chain` links them and scatters a payload over them,
:func:`walk_chain` / :func:`drain_chain` follow a message's chain (and
gather its payload), :func:`push_chain` returns blocks to a list.  They
leave every region byte exactly as the block-by-block loops did (same
allocation order, same link words, same payload bytes, untouched slack
in a partial last block); the simulated *charge* for the work stays
with the callers, computed from the block count as before.

Long chains move through :meth:`SharedRegion.follow`, ``gather`` and
``scatter``, whose fixed cost (a call, an index array, a handful of
numpy operations: ~5 us) only pays off past a dozen blocks; shorter
chains take the per-block loop inside the same kernel.
"""

from __future__ import annotations

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
    "pop_chain",
    "fill_chain",
    "walk_chain",
    "drain_chain",
    "push_chain",
    "stack_chain",
]

_LE32 = np.dtype("<u4")

# A message block is ``[u32 next | block_size payload bytes]``.  Its chain
# link is the same first word the free list links through, which is what
# lets one ``follow`` serve both lists and one row image carry a block's
# link and payload together.
assert BLK_NEXT == 0
_BLK_DATA = BLK_NEXT + 4

#: Chains shorter than this pop, fill and drain block by block.  Measured
#: crossover (10-byte blocks, scrambled list, real shared memory): at 2
#: blocks the loop fills in 1.5 us and drains in 2.0 against 7.5 and 4.6
#: through the index array; 7.5/6.6 against 8.1/6.6 at 12; 8.6/7.6
#: against 8.4/6.8 at 14; 126/86 against 17/34 at 205.  The walk alone
#: never loses to the loop once it is warm, but between two primitives it
#: is not: each extra call cost a 2-block send ~0.5 us, so short pops and
#: drains stay in one frame.
_BULK_COPY_MIN = 14
#: Chains shorter than this push block by block: a push writes one word
#: per block, so the loop is cheap for longer (7.6 us against 8.0 at 50
#: blocks, 9.4 against 8.6 at 64, 29 against 14 at 205).
_BULK_PUSH_MIN = 64


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


def pop_chain(region: SharedRegion, head_off: int, n: int) -> list[int] | None:
    """Pop exactly ``n`` records in list order, or none.

    One walk; on shortfall the list is left untouched and ``None`` is
    returned, so callers need no rollback.  The records come back still
    carrying their free-list links (:func:`fill_chain` rewrites them).
    """
    if n < _BULK_COPY_MIN:
        u32 = region.u32
        blocks = []
        nxt = u32(head_off)
        while len(blocks) < n and nxt != NIL:
            blocks.append(nxt)
            nxt = u32(nxt)
    else:
        blocks, nxt = region.follow(region.u32(head_off), n)
    if len(blocks) < n:
        return None
    if n:
        region.set_u32(head_off, nxt)
    return blocks


def fill_chain(region: SharedRegion, blocks: list[int], data, block_size: int) -> None:
    """Link ``blocks`` into a ``NIL``-terminated chain carrying ``data``.

    Block ``i`` gets the offset of block ``i + 1`` in its link word and
    bytes ``[i * block_size, (i + 1) * block_size)`` of ``data`` after
    it; a partial last block keeps whatever lay beyond its share.
    Every link is written, so ``blocks`` need not come from one pop.
    ``data`` is any bytes-like object of
    ``len(blocks)`` blocks' worth (the last may be partial).
    """
    n = len(blocks)
    length = len(data)
    if n < _BULK_COPY_MIN:
        set_u32 = region.set_u32
        write = region.write
        last = n - 1
        for i, blk in enumerate(blocks):
            set_u32(blk + BLK_NEXT, blocks[i + 1] if i < last else NIL)
            write(blk + _BLK_DATA,
                  data[i * block_size : min((i + 1) * block_size, length)])
        return
    full = length // block_size
    offs = np.array(blocks, dtype=np.intp)
    links = np.empty(n, _LE32)
    links[:-1] = offs[1:]
    links[-1] = NIL
    rows = np.empty((full, block_stride(block_size)), np.uint8)
    rows[:, :_BLK_DATA] = links[:full].view(np.uint8).reshape(full, 4)
    rows[:, _BLK_DATA:] = np.frombuffer(data, np.uint8, full * block_size).reshape(
        full, block_size)
    region.scatter(offs[:full], rows)
    if full < n:
        region.set_u32(blocks[-1] + BLK_NEXT, NIL)
        region.write(blocks[-1] + _BLK_DATA, data[full * block_size :])


def walk_chain(region: SharedRegion, first: int, n: int) -> list[int]:
    """The ``n`` blocks of the chain starting at ``first``.

    The walk is bounded by ``n`` (the header's block count), so a cyclic
    chain cannot hang the caller — who may be holding the allocator
    lock.  A chain that reaches ``NIL`` early, or is not ``NIL`` after
    ``n`` blocks, raises :class:`RegionFormatError`.
    """
    blocks, nxt = region.follow(first, n)
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
    region: SharedRegion, first: int, n: int, length: int, block_size: int
) -> tuple[list[int], bytes]:
    """Walk a message's chain once: ``(blocks, payload)``.

    ``blocks`` is what :func:`walk_chain` returns, for the caller to
    hand to :func:`push_chain` when the same call goes on to free the
    message; ``payload`` is the first ``length`` bytes the chain carries.
    """
    if length > n * block_size:
        raise RegionFormatError(
            f"block chain from {first}: {n} blocks cannot carry {length} bytes")
    if n < _BULK_COPY_MIN:
        # Walk and copy in one loop; only a chain that turns out wrong
        # is walked again, by walk_chain, for its error.
        u32 = region.u32
        read = region.read
        blocks, parts, blk = [], [], first
        for _ in range(n):
            if blk == NIL:
                break
            blocks.append(blk)
            parts.append(read(blk + _BLK_DATA, block_size))
            blk = u32(blk + BLK_NEXT)
        if blk != NIL or len(blocks) < n:
            walk_chain(region, first, n)
        return blocks, b"".join(parts)[:length]
    blocks = walk_chain(region, first, n)
    rows = region.gather(blocks, block_stride(block_size))
    return blocks, rows[:, _BLK_DATA:].tobytes()[:length]


def push_chain(region: SharedRegion, head_off: int, blocks: list[int]) -> None:
    """Push ``blocks`` onto the list, first block first.

    The list ends up exactly as ``for b in blocks: fl_free(region,
    head_off, b)`` leaves it: ``blocks[-1]`` at the head, each block
    linked to the one pushed before it, ``blocks[0]`` to the old head.
    """
    if blocks:
        region.set_u32(head_off,
                       stack_chain(region, region.u32(head_off), blocks))


def stack_chain(region: SharedRegion, head: int, blocks: list[int]) -> int:
    """:func:`push_chain` on a list whose head the caller holds in a
    local: link ``blocks`` on top of the record ``head`` (or ``NIL``)
    and return the new head, storing nothing but the blocks' links.
    """
    n = len(blocks)
    if n < _BULK_PUSH_MIN:
        set_u32 = region.set_u32
        for blk in blocks:
            set_u32(blk, head)
            head = blk
        return head
    offs = np.array(blocks, dtype=np.intp)
    links = np.empty(n, _LE32)
    links[0] = head
    links[1:] = offs[:-1]
    region.scatter(offs, links.view(np.uint8).reshape(n, 4))
    return blocks[-1]
