"""Block-chain kernels: one message's worth of pop / fill / drain / splice.

With ``--benchmark-disable`` (the shapes step) each case runs once and is
a check against the per-block loops the kernels replaced; with
``--benchmark-only`` it records the wall of one pop + fill + drain +
splice cycle — divide by ``extra_info["blocks"]`` for ns per block, and
read the fill's loop / scatter crossover (``_BULK_FILL_MIN``) off the
six lengths.  2 blocks is the simulator's Gauss-Jordan message, 26 a
256-byte message, 103 the broadcast figure's 1 KiB, 205 the 2048-byte
message of the real-process pipe; 14 and 52 sit either side of the
crossover (10-byte blocks throughout).
"""

import random
from multiprocessing import shared_memory

import pytest

from repro.core.freelist import (
    block_record,
    drain_chain,
    fill_chain,
    fl_free,
    init_freelist,
    pop_chain,
    splice_chain,
)
from repro.core.protocol import NIL
from repro.core.region import SharedRegion

HEAD, BASE, BS, POOL = 0, 64, 10, 1024
STRIDE = 4 + BS


def _scramble(region: SharedRegion) -> None:
    """A free list in the state long use leaves it: run length ~1."""
    init_freelist(region, HEAD, BASE, STRIDE, POOL)
    blocks = pop_chain(region, HEAD, POOL)
    random.Random(1987).shuffle(blocks)
    for blk in blocks:
        fl_free(region, HEAD, blk)


def _loop_cycle(region: SharedRegion, nblk: int, data: bytes) -> bytes:
    """The per-block loops as ``core/ops.py`` had them, up to the free:
    the dead chain goes back whole, as the kernels return it (a
    block-by-block push would hand the blocks out in reverse)."""
    u32, set_u32 = region.u32, region.set_u32
    blocks, blk = [], u32(HEAD)
    while len(blocks) < nblk and blk != NIL:
        blocks.append(blk)
        blk = u32(blk)
    set_u32(HEAD, blk)
    for i, blk in enumerate(blocks):
        set_u32(blk, blocks[i + 1] if i < nblk - 1 else NIL)
        region.write(blk + 4, data[i * BS : min((i + 1) * BS, len(data))])
    parts, blk, remaining = [], blocks[0], len(data)
    while blk != NIL and remaining > 0:
        take = min(BS, remaining)
        parts.append(region.read(blk + 4, take))
        remaining -= take
        blk = u32(blk)
    set_u32(blocks[-1], u32(HEAD))
    set_u32(HEAD, blocks[0])
    return b"".join(parts)


def _kernel_cycle(region: SharedRegion, read_block, nblk: int, data: bytes) -> bytes:
    blocks = pop_chain(region, HEAD, nblk)
    fill_chain(region, blocks, data, BS)
    walked, payload = drain_chain(region, blocks[0], nblk, len(data), BS,
                                  read_block)
    region.set_u32(HEAD, splice_chain(region, region.u32(HEAD), walked))
    return payload


@pytest.mark.parametrize("nblk", [2, 14, 26, 52, 103, 205])
def test_chain_cycle(benchmark, nblk):
    data = random.Random(nblk).randbytes(nblk * BS - 3)
    size = BASE + POOL * STRIDE
    shm = shared_memory.SharedMemory(create=True, size=size)
    region = SharedRegion(shm.buf)
    read_block = region.reader(block_record(BS))
    try:
        _scramble(region)
        benchmark.extra_info["blocks"] = nblk
        # A cycle leaves the list as it found it (the chain goes back on
        # top, in order), so every round times the same scrambled blocks.
        assert benchmark(_kernel_cycle, region, read_block, nblk, data) == data
        # Equality, from the same starting list on both sides: every
        # byte of the region must be what the loops leave.
        want = SharedRegion(bytearray(size))
        _scramble(region)
        _scramble(want)
        assert _kernel_cycle(region, read_block, nblk, data) == data
        assert _loop_cycle(want, nblk, data) == data
        assert region.read(0, size) == want.read(0, size)
    finally:
        region.release()
        shm.close()
        shm.unlink()
