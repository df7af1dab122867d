"""Unit tests for the intrusive free lists."""

import struct

import pytest

from repro.core import ops
from repro.core.effects import unfold
from repro.core.errors import RegionFormatError
from repro.core.freelist import (
    _pool_image,
    block_record,
    drain_chain,
    fill_chain,
    fl_alloc,
    fl_count,
    fl_free,
    init_freelist,
    pop_chain,
    splice_chain,
    walk_chain,
)
from repro.core.layout import HDR
from repro.core.protocol import FCFS, NIL
from repro.core.region import SharedRegion
from repro.core.structs import LNVC, MSG
from repro.testing import DirectRunner, make_view

HEAD = 0
BASE = 16
STRIDE = 12


def _region(count=5):
    r = SharedRegion(bytearray(BASE + count * STRIDE + 64))
    init_freelist(r, HEAD, BASE, STRIDE, count)
    return r


def test_init_links_all_records():
    r = _region(5)
    assert fl_count(r, HEAD) == 5


def test_init_zero_count_is_empty():
    r = SharedRegion(bytearray(64))
    init_freelist(r, HEAD, BASE, STRIDE, 0)
    assert r.u32(HEAD) == NIL
    assert fl_count(r, HEAD) == 0


def test_alloc_returns_records_in_address_order():
    r = _region(3)
    assert fl_alloc(r, HEAD) == BASE
    assert fl_alloc(r, HEAD) == BASE + STRIDE
    assert fl_alloc(r, HEAD) == BASE + 2 * STRIDE


def test_alloc_exhaustion_returns_nil():
    r = _region(2)
    fl_alloc(r, HEAD)
    fl_alloc(r, HEAD)
    assert fl_alloc(r, HEAD) == NIL


def test_free_is_lifo():
    r = _region(3)
    a = fl_alloc(r, HEAD)
    b = fl_alloc(r, HEAD)
    fl_free(r, HEAD, a)
    fl_free(r, HEAD, b)
    assert fl_alloc(r, HEAD) == b
    assert fl_alloc(r, HEAD) == a


def test_alloc_free_preserves_count():
    r = _region(4)
    offs = [fl_alloc(r, HEAD) for _ in range(4)]
    for off in offs:
        fl_free(r, HEAD, off)
    assert fl_count(r, HEAD) == 4


def test_count_detects_cycle():
    r = _region(2)
    a = fl_alloc(r, HEAD)
    fl_free(r, HEAD, a)
    # Corrupt: make the record point at itself.
    r.set_u32(a, a)
    with pytest.raises(RuntimeError, match="cycle"):
        fl_count(r, HEAD, limit=10)


def test_single_record_pool():
    r = SharedRegion(bytearray(64))
    init_freelist(r, HEAD, BASE, STRIDE, 1)
    assert fl_alloc(r, HEAD) == BASE
    assert fl_alloc(r, HEAD) == NIL
    fl_free(r, HEAD, BASE)
    assert fl_alloc(r, HEAD) == BASE


# -- block-chain kernels ---------------------------------------------------------


def _chain(r, n):
    blocks = pop_chain(r, HEAD, n)
    fill_chain(r, blocks, bytes(n * (STRIDE - 4)), STRIDE - 4)
    return blocks


def _drain(r, first, n):
    return drain_chain(r, first, n, n * (STRIDE - 4), STRIDE - 4,
                       r.reader(block_record(STRIDE - 4)))


def _pool_image_by_record(base: int, stride: int, count: int) -> bytes:
    """The first image of a pool as it was built before it was an array
    operation: one ``bytes`` per record.  Kept as the reference."""
    pack = struct.Struct("<I").pack
    pad = bytes(stride - 4)
    image = [pack(base + i * stride) + pad for i in range(1, count)]
    image.append(pack(NIL) + pad)
    return b"".join(image)


@pytest.mark.parametrize("base, stride, count", [
    (16, 12, 1), (16, 4, 7), (328, 14, 37449), (4096, 36, 1024),
    (0xFFFF0000, 64, 8),
])
def test_pool_image_is_the_record_by_record_image(base, stride, count):
    _pool_image.cache_clear()
    assert _pool_image(base, stride, count) == _pool_image_by_record(
        base, stride, count)


def test_pop_chain_shortfall_leaves_the_list_untouched():
    r = _region(5)
    before = r.read(0, r.size)
    assert pop_chain(r, HEAD, 6) is None
    assert r.read(0, r.size) == before
    assert pop_chain(r, HEAD, 5) == [BASE + i * STRIDE for i in range(5)]
    assert r.u32(HEAD) == NIL


def test_splice_frees_a_chain_with_one_store_in_the_order_filled():
    r = _region(6)
    fl_free(r, HEAD, fl_alloc(r, HEAD))  # a used list: links already stored
    chain = _chain(r, 4)
    rest = r.u32(HEAD)
    before = r.read(0, r.size)
    r.set_u32(HEAD, splice_chain(r, rest, chain[0], chain[-1]))
    after = r.read(0, r.size)
    changed = {i // 4 * 4 for i in range(r.size) if before[i] != after[i]}
    assert changed == {HEAD, chain[-1]}  # the head word and one link
    assert r.follow(r.u32(HEAD), 7) == (chain + [rest, rest + STRIDE], NIL)
    assert pop_chain(r, HEAD, 4) == chain  # handed out again as filled


@pytest.mark.parametrize("n", [3, 40])  # block-by-block and bulk paths
def test_walk_is_bounded_by_the_block_count(n):
    """A cyclic chain used to spin ``_free_chain`` forever with the
    allocator locked; the walk now stops at the header's block count."""
    r = _region(n + 2)
    blocks = _chain(r, n)
    assert walk_chain(r, blocks[0], n) == blocks
    r.set_u32(blocks[-1], blocks[1])  # cycle back into the chain
    with pytest.raises(RegionFormatError, match=(
            f"chain from {blocks[0]} does not end after {n} blocks: "
            f"block {blocks[-1]} links to {blocks[1]}")):
        walk_chain(r, blocks[0], n)
    with pytest.raises(RegionFormatError, match="does not end"):
        _drain(r, blocks[0], n)


def test_walk_refuses_a_chain_that_ends_early():
    r = _region(6)
    blocks = _chain(r, 4)
    r.set_u32(blocks[1], NIL)
    with pytest.raises(RegionFormatError, match=(
            f"chain from {blocks[0]} ends after 2 of 4 blocks "
            f"\\(last block {blocks[1]}\\)")):
        walk_chain(r, blocks[0], 4)


@pytest.mark.parametrize("n", [3, 45])
def test_walk_and_drain_refuse_a_link_outside_the_region(n):
    r = _region(n + 2)
    blocks = _chain(r, n)
    assert _drain(r, blocks[0], n) == (blocks, bytes(n * (STRIDE - 4)))
    r.set_u32(blocks[1], r.size + 100)
    where = (f"chain from {blocks[0]}: block {blocks[1]} links to "
             f"{r.size + 100}, outside the region of {r.size}")
    with pytest.raises(RegionFormatError, match=where):
        walk_chain(r, blocks[0], n)
    with pytest.raises(RegionFormatError, match=where):
        _drain(r, blocks[0], n)
    # a block that starts inside the region and ends outside it
    r.set_u32(blocks[1], r.size - 6)
    with pytest.raises(RegionFormatError, match=f"links to {r.size - 6}, outside"):
        _drain(r, blocks[0], n)
    with pytest.raises(RegionFormatError, match="it starts at"):
        walk_chain(r, r.size + 4, n)


def _corrupt_second_link(view, nblk):
    """One ``nblk``-block message queued on circuit "c", its second
    block's link pointing past the end of the region."""
    runner = DirectRunner(view)  # fails the test if an op raises locked
    sid = runner.run(ops.open_send(view, 0, "c"))
    runner.run(ops.open_receive(view, 1, "c", FCFS))
    runner.run(ops.message_send(view, 0, sid, bytes(10 * nblk)))
    r = view.region
    msg = LNVC.get(r, view.layout.lnvc_off(0), "fifo_head")
    second = r.u32(MSG.get(r, msg, "first_blk"))
    r.set_u32(second, r.size + 100)
    return runner, sid, (f"message header {msg}: block chain from .* block "
                         f"{second} links to {r.size + 100}, outside")


@pytest.mark.parametrize("nblk", [3, 45])
def test_reap_of_a_chain_that_leaves_the_region_releases_every_lock(nblk):
    """``follow`` raised ``IndexError``, which nothing on the way caught:
    the discard died holding the global and the circuit lock, and on
    threads / procs the peers hung."""
    view = make_view()
    runner, sid, where = _corrupt_second_link(view, nblk)
    runner.run(ops.close_receive(view, 1, sid))
    with pytest.raises(RegionFormatError, match=where):
        runner.run(ops.close_send(view, 0, sid))
    assert runner.held == []
    assert HDR.get(view.region, "live_msgs") == 1  # nothing was half-freed


@pytest.mark.parametrize("nblk", [3, 45])
def test_drain_of_a_chain_that_leaves_the_region_names_the_message(nblk):
    view = make_view()
    runner, sid, where = _corrupt_second_link(view, nblk)
    with pytest.raises(RegionFormatError, match=where):
        runner.run(ops.message_receive(view, 1, sid))
    assert runner.held == []
    assert HDR.get(view.region, "live_msgs") == 1


def test_corrupt_chain_releases_every_lock_and_names_the_message():
    """Found by a reap (here: the discard when the last connection
    closes), a cyclic chain raises with the circuit, global and
    allocator locks free — the other processes keep running."""
    view = make_view()
    runner = DirectRunner(view)  # fails the test if an op raises locked
    sid = runner.run(ops.open_send(view, 0, "c"))
    runner.run(ops.message_send(view, 0, sid, bytes(45)))
    base = view.layout.lnvc_off(0)
    msg = LNVC.get(view.region, base, "fifo_head")
    first = MSG.get(view.region, msg, "first_blk")
    view.region.set_u32(view.region.follow(first, 5)[0][-1], first)
    with pytest.raises(RegionFormatError, match=(
            f"message header {msg}: block chain from {first} does not end")):
        runner.run(ops.close_send(view, 0, sid))
    assert runner.held == []


def test_reap_of_another_receivers_message_checks_its_chain():
    """Two FCFS receivers: the second finishes first, so the first one's
    completion reaps both messages — one chain handed over from its own
    drain, the other walked (bounded) under the circuit lock."""
    view = make_view()
    runner = DirectRunner(view)
    sid = runner.run(ops.open_send(view, 0, "c"))
    for pid in (1, 2):
        runner.run(ops.open_receive(view, pid, "c", FCFS))
    runner.run(ops.message_send(view, 0, sid, b"a" * 25))
    runner.run(ops.message_send(view, 0, sid, b"b" * 25))
    slow = unfold(ops.message_receive(view, 1, sid))  # step by step

    def until_copy():
        effect = next(slow)
        while getattr(getattr(effect, "work", None), "label", "") != "recv-copy":
            effect = slow.send((yield effect))

    runner.run(until_copy())  # pid 1 has claimed and drained message "a"
    assert runner.run(ops.message_receive(view, 2, sid)) == b"b" * 25
    second = MSG.get(view.region, LNVC.get(view.region, view.layout.lnvc_off(0),
                                           "fifo_tail"), "first_blk")
    view.region.set_u32(second, second)  # message "b": a one-block cycle
    with pytest.raises(RegionFormatError, match="does not end after 3 blocks"):
        runner.run(slow)
    assert runner.held == []
    assert HDR.get(view.region, "live_msgs") == 2  # nothing was half-freed
