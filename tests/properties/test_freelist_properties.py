"""Property-based tests for the intrusive free lists."""

import random

from hypothesis import assume, given, settings, strategies as st

from repro.core import chains, ops
from repro.core.errors import NotConnectedError, OutOfMessageMemoryError
from repro.core.freelist import (
    block_record,
    drain_chain,
    fill_chain,
    fl_alloc,
    fl_count,
    fl_free,
    init_freelist,
    pop_chain,
    splice_chain,
)
from repro.core.inspect import check_invariants
from repro.core.layout import HDR
from repro.core.ops import MPFView
from repro.core.protocol import BROADCAST, FCFS, NIL
from repro.core.region import SharedRegion
from repro.core.structs import LNVC, MSG, RECV
from repro.testing import DirectRunner, make_view

HEAD, BASE = 0, 16


@st.composite
def pool_and_ops(draw):
    count = draw(st.integers(1, 20))
    stride = draw(st.integers(4, 32).map(lambda v: (v // 4) * 4))
    ops = draw(st.lists(st.booleans(), max_size=60))  # True=alloc, False=free
    return count, stride, ops


@given(pool_and_ops())
@settings(max_examples=200, deadline=None)
def test_alloc_free_invariants(params):
    """Under any alloc/free sequence: no double-handout, every offset
    stays a valid record, and live + free == capacity."""
    count, stride, ops = params
    region = SharedRegion(bytearray(BASE + count * stride))
    init_freelist(region, HEAD, BASE, stride, count)
    live: set[int] = set()
    for is_alloc in ops:
        if is_alloc:
            off = fl_alloc(region, HEAD)
            if off == NIL:
                assert len(live) == count  # NIL only when exhausted
            else:
                assert off not in live, "double handout"
                assert (off - BASE) % stride == 0
                assert BASE <= off < BASE + count * stride
                live.add(off)
        elif live:
            off = live.pop()
            fl_free(region, HEAD, off)
        assert fl_count(region, HEAD, limit=count + 1) == count - len(live)


@given(st.integers(1, 50), st.integers(4, 64))
@settings(max_examples=100, deadline=None)
def test_drain_yields_each_record_once(count, stride):
    stride = (stride // 4) * 4
    region = SharedRegion(bytearray(BASE + count * stride))
    init_freelist(region, HEAD, BASE, stride, count)
    seen = set()
    while (off := fl_alloc(region, HEAD)) != NIL:
        assert off not in seen
        seen.add(off)
    assert len(seen) == count


@given(st.lists(st.integers(0, 19), min_size=1, max_size=20, unique=True))
@settings(max_examples=100, deadline=None)
def test_free_order_irrelevant_to_capacity(free_order):
    count, stride = 20, 8
    region = SharedRegion(bytearray(BASE + count * stride))
    init_freelist(region, HEAD, BASE, stride, count)
    offs = [fl_alloc(region, HEAD) for _ in range(count)]
    for i in free_order:
        fl_free(region, HEAD, offs[i])
    assert fl_count(region, HEAD) == len(free_order)


# -- block-chain kernels against the per-block loops they replaced -------------
#
# The loops below are the code ``core/ops.py`` carried before the kernels
# existed, kept here as the reference: after any history, pop, fill and
# drain must leave *every byte of the region* as their loops do (a fill
# stores one link where its loop stores all of them — with the values the
# pop left there).  The free is not the loop's: it splices, and is held to
# what it promises instead — two words stored, the chain back at the head
# of the list in the order it was filled.

SLACK = 7  # blocks beyond the largest message, so shortfall is reachable


def ref_pop(region, head_off, n):
    blocks, blk = [], region.u32(head_off)
    while len(blocks) < n and blk != NIL:
        blocks.append(blk)
        blk = region.u32(blk)
    if len(blocks) < n:
        return None
    region.set_u32(head_off, blk)
    return blocks


def ref_fill(region, blocks, data, bs):
    length, last = len(data), len(blocks) - 1
    for i, blk in enumerate(blocks):
        region.set_u32(blk, blocks[i + 1] if i < last else NIL)
        region.write(blk + 4, data[i * bs : min((i + 1) * bs, length)])


def ref_drain(region, first, length, bs):
    parts, blocks, blk, remaining = [], [], first, length
    while blk != NIL and remaining > 0:
        take = min(bs, remaining)
        parts.append(region.read(blk + 4, take))
        blocks.append(blk)
        remaining -= take
        blk = region.u32(blk)
    return blocks, b"".join(parts)


def walk(region, head_off):
    """The whole list at ``head_off``, bounded by the region's size."""
    blocks, end = region.follow(region.u32(head_off), region.size)
    assert end == NIL
    return blocks


@st.composite
def scrambled_pool(draw):
    """Block size, list count, message length, payload flavour and a
    seed for the alloc/free history that scrambles the lists."""
    bs = draw(st.sampled_from([1, 10, 64]))
    lists = draw(st.integers(1, 4))
    length = draw(st.one_of(st.integers(0, 3 * bs + 1), st.just(2048)))
    flavour = draw(st.sampled_from([bytes, bytearray, memoryview]))
    seed = draw(st.integers(0, 2**32 - 1))
    return bs, lists, length, flavour, seed


def _twin_pools(bs, lists, nblk, seed):
    """Two byte-identical regions whose ``lists`` free lists went
    through the same random alloc/free history; returns ``(kernel
    region, reference region, head offsets)``.  The first list holds a
    whole message and more; the others exist to be pushed onto."""
    stride = 4 + bs
    counts = [nblk + SLACK] + [SLACK] * (lists - 1)
    heads = [4 * s for s in range(lists)]
    base = 4 * lists + 3  # deliberately unaligned, like the 14-byte stride
    size = base + sum(counts) * stride
    buf = bytearray(random.Random(seed).randbytes(size))  # stale bytes everywhere
    region = SharedRegion(buf)
    for head, count in zip(heads, counts):
        init_freelist(region, head, base, stride, count)
        base += count * stride
    rng = random.Random(seed)
    for head in heads:
        held = []
        for _ in range(rng.randrange(0, 40)):
            if held and rng.random() < 0.5:
                fl_free(region, head, held.pop(rng.randrange(len(held))))
            else:
                off = fl_alloc(region, head)
                if off != NIL:
                    held.append(off)
        rng.shuffle(held)
        for off in held:
            fl_free(region, head, off)
    return region, SharedRegion(bytearray(buf)), heads


@given(scrambled_pool())
@settings(max_examples=150, deadline=None)
def test_chain_kernels_leave_the_region_byte_equal_to_the_loops(params):
    bs, lists, length, flavour, seed = params
    nblk = (length + bs - 1) // bs
    got, want, heads = _twin_pools(bs, lists, nblk, seed)

    def same():
        return got.read(0, got.size) == want.read(0, want.size)

    payload = random.Random(seed + 1).randbytes(length)

    blocks = pop_chain(got, heads[0], nblk)
    ref_blocks = ref_pop(want, heads[0], nblk)
    assert blocks == ref_blocks and len(blocks) == nblk
    assert same()

    fill_chain(got, blocks, flavour(payload), bs)
    ref_fill(want, ref_blocks, payload, bs)
    assert same()

    first = blocks[0] if blocks else NIL
    read_block = got.reader(block_record(bs))
    assert drain_chain(got, first, nblk, length, bs, read_block) == (
        blocks, payload)
    assert ref_drain(want, first, length, bs) == (blocks, payload)
    assert same()  # draining writes nothing

    # Splice the dead chain onto any list, not only the one it came from.
    if blocks:
        head = heads[random.Random(seed + 2).randrange(lists)]
        rest = walk(got, head)
        before = got.read(0, got.size)
        got.set_u32(head, splice_chain(got, got.u32(head), blocks[0],
                                        blocks[-1]))
        after = got.read(0, got.size)
        changed = {i for i in range(got.size) if before[i] != after[i]}
        assert changed <= {*range(head, head + 4),  # the head word, one link
                           *range(blocks[-1], blocks[-1] + 4)}
        assert walk(got, head) == blocks + rest
        assert pop_chain(got, head, nblk) == blocks  # out again as filled


@given(scrambled_pool())
@settings(max_examples=100, deadline=None)
def test_pop_chain_is_all_or_nothing(params):
    bs, _, length, _, seed = params
    nblk = (length + bs - 1) // bs
    got, want, (head,) = _twin_pools(bs, 1, nblk, seed)
    free = fl_count(got, head)
    before = got.read(0, got.size)

    assert pop_chain(got, head, free + 1) is None
    assert ref_pop(want, head, free + 1) is None
    assert got.read(0, got.size) == before  # list, links and head untouched

    blocks = pop_chain(got, head, nblk)
    assert blocks == ref_pop(want, head, nblk)
    assert got.read(0, got.size) == want.read(0, want.size)
    assert fl_count(got, head) == free - nblk


# -- the kernels against a list-of-lists model ---------------------------------

STEPS = st.lists(st.tuples(st.sampled_from(["pop", "fill", "drain", "splice"]),
                           st.integers(0, 1 << 16)), max_size=80)


@given(st.sampled_from([1, 10, 64]), STEPS)
@settings(max_examples=150, deadline=None)
def test_kernels_follow_the_list_of_lists_model(bs, steps):
    """Any interleaving of pops, fills, drains and splices over a
    formatted segment's block pool, against a model that is a Python
    list (the free list, in order) and a list of chains."""
    view = make_view(block_size=bs, message_pool_bytes=48 * (4 + bs))
    r, head = view.region, HDR.u32["free_blk"]
    pool = walk(r, head)
    assert len(pool) == view.cfg.n_blocks == 48
    free = list(pool)
    chains = []  # [blocks, payload or None while unfilled]
    for what, k in steps:
        if what == "pop":
            n = k % 56  # past the 48 there are: shortfall is reachable
            before = r.read(0, r.size)
            got = pop_chain(r, head, n)
            if n > len(free):
                assert got is None and r.read(0, r.size) == before
            else:
                assert got == free[:n]
                del free[:n]
                if n:
                    chains.append([got, None])
        elif chains:
            chain = chains[k % len(chains)]
            blocks, payload = chain
            if what == "fill":
                chain[1] = random.Random(k).randbytes(
                    len(blocks) * bs - k % bs)
                fill_chain(r, blocks, chain[1], bs)
            elif what == "drain" and payload is not None:
                assert drain_chain(r, blocks[0], len(blocks), len(payload),
                                   bs, r.reader(block_record(bs))) == (
                    blocks, payload)
            elif what == "splice" and payload is not None:
                # (a chain is one only once a fill has ended it at NIL)
                r.set_u32(head, splice_chain(r, r.u32(head), blocks[0],
                                             blocks[-1]))
                free[:0] = blocks
                chains.remove(chain)
        assert walk(r, head) == free
        assert fl_count(r, head) == len(free)
        live = [b for blocks, _ in chains for b in blocks]
        assert sorted(free + live) == sorted(pool)  # each block exactly once
    for blocks, payload in chains:
        if payload is None:
            fill_chain(r, blocks, bytes(len(blocks) * bs), bs)
        r.set_u32(head, splice_chain(r, r.u32(head), blocks[0], blocks[-1]))
    check_invariants(view)


# -- the C kernels against the Python reference ---------------------------------
#
# ``repro.core.chains`` carries a chain as ``(first, last, n)`` and walks it
# in C where it could build the library.  On any chain at all — whole,
# ``n = 0``, with a partial last block, cyclic, shorter or longer than
# ``n``, leaving the region or running off its unaligned end — each C
# kernel must return what the Python reference returns, leave the region
# byte-equal to what the reference leaves, or raise the same exception
# with the same message.

ENDS = ("nil", "cycle", "outside", "tail", "last-record", "open")


@st.composite
def any_chain(draw):
    bs = draw(st.sampled_from([1, 10, 64]))
    stride = 4 + bs
    count = draw(st.integers(1, 24))
    size = BASE + count * stride + draw(st.integers(0, stride - 1))
    order = draw(st.permutations(range(count)))
    k = draw(st.integers(0, count))
    blocks = [BASE + i * stride for i in order[:k]]
    end = draw(st.sampled_from(ENDS))
    # n = k ends at the last block, k + 1 follows the end's link
    n = draw(st.one_of(st.sampled_from([k, k + 1]), st.integers(0, count + 2)))
    length = draw(st.integers(0, (n + 1) * bs))
    seed = draw(st.integers(0, 1 << 32))
    return bs, size, blocks, end, n, length, seed


def _chained_region(size, blocks, end, seed):
    """A region of random bytes with ``blocks`` linked in order and the
    last one's link (or the start, when there are none) set by ``end``;
    returns ``(region, first)``."""
    rng = random.Random(seed)
    region = SharedRegion(bytearray(rng.randbytes(size)))
    ending = {
        "nil": NIL,
        "cycle": rng.choice(blocks) if blocks else NIL,
        "outside": size + rng.randrange(0, 64),
        "tail": size - rng.randrange(1, 8),
        # a record whose link fits and ends the list, its payload not
        "last-record": size - 4 - rng.randrange(0, 4),
        "open": BASE,  # into the pool, whose links are random bytes
    }[end]
    if end == "last-record":
        region.set_u32(ending, NIL)
    for blk, nxt in zip(blocks, blocks[1:] + [ending]):
        region.set_u32(blk, nxt)
    return region, blocks[0] if blocks else ending


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the exception is the result compared
        return type(exc), str(exc)


@given(any_chain())
@settings(max_examples=400, deadline=None)
def test_c_kernels_match_the_python_reference(c_kernels, case):
    bs, size, blocks, end, n, length, seed = case
    data = random.Random(seed + 1).randbytes(length)
    calls = {
        "pop": lambda k, r, first: k.pop(r, first, n),
        "fill": lambda k, r, first: k.fill(r, first, n, data, bs),
        "drain": lambda k, r, first: k.drain(r, first, n, length, bs),
        "last": lambda k, r, first: k.last(r, first, n),
    }
    for name, call in calls.items():
        c_region, first = _chained_region(size, blocks, end, seed)
        py_region, _ = _chained_region(size, blocks, end, seed)
        got = _outcome(lambda: call(c_kernels, c_region, first))
        want = _outcome(lambda: call(chains.PYTHON, py_region, first))
        assert got == want, name
        assert c_region.read(0, size) == py_region.read(0, size), name


# -- the section kernels against the Python reference ---------------------------
#
# The same rule for the five lock-section kernels, each run on a segment a
# small program left — one circuit, up to two receivers, a few messages
# queued, some of them read — with the section's own prerequisites done
# (a send's allocation and fill before its link, a claim and drain before
# a completion, a completion before its free), and then, or not, one word
# corrupted: a header's chain or link, a block link, a receive list link,
# a pool head, a queue word.  The corruptions make no list of messages or
# descriptors cyclic, where the reference itself would spin; a block chain
# may be, its walks being bounded.

SECTIONS = ("alloc", "link", "claim", "complete", "free")
RECEIVERS = ((), (FCFS,), (BROADCAST,), (FCFS, FCFS), (FCFS, BROADCAST),
             (BROADCAST, BROADCAST))
TARGETS = ("msg.first_blk", "msg.nblocks", "msg.next_msg", "msg.flags",
           "block", "recv.next", "hdr.free_msg", "hdr.free_blk",
           "lnvc.fifo_tail", "lnvc.fcfs_head")


@st.composite
def any_section(draw):
    sizes = draw(st.lists(st.integers(0, 45), min_size=1, max_size=5))
    corrupt = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(TARGETS), st.integers(0, 7), st.integers(0, 5))))
    return (draw(st.sampled_from(SECTIONS)), draw(st.sampled_from(RECEIVERS)),
            sizes, draw(st.integers(0, len(sizes) - 1)),
            draw(st.integers(0, 45)),
            draw(st.one_of(st.none(), st.integers(-1, 50))),
            draw(st.booleans()), corrupt)


def _program(receivers, sizes, reads):
    """The segment after the program, its circuit's LNVC offset and id."""
    view = make_view(max_lnvcs=2, max_processes=4, max_messages=6,
                     message_pool_bytes=200)
    runner = DirectRunner(view)
    sid = runner.run(ops.open_send(view, 0, "c"))
    for pid, proto in enumerate(receivers, 1):
        runner.run(ops.open_receive(view, pid, "c", proto))
    for salt, size in enumerate(sizes):
        try:
            runner.run(ops.message_send(view, 0, sid, bytes([salt]) * size))
        except OutOfMessageMemoryError:
            break
    base = view.layout.lnvc_off(0)
    for _ in range(reads if receivers else 0):
        if runner.run(ops.check_receive(view, 1, sid)):
            runner.run(ops.message_receive(view, 1, sid))
    return view, base, sid


def _section_args(section, view, base, sid, size, max_len, flag):
    """The arguments of ``section`` on ``view``, its prerequisites done
    by the reference; ``None`` where the program leaves nothing to do.
    ``flag``: a link is given stale values (the fault's seam), a
    completion is overtaken by a second receiver."""
    k, r, bs = chains.PYTHON, view.region, view.cfg.block_size
    nblk = -(-size // bs)
    if section == "alloc":
        return nblk, size
    if section == "link":
        hdr, first = k.alloc(view, nblk, size)
        if hdr == NIL:
            return None
        k.fill(r, first, nblk, bytes(size), bs)
        seq = (r.u32(base + LNVC.offsets["seq"]),
               r.u32(base + LNVC.offsets["fifo_tail"]))
        return base, hdr, 0, size, first, nblk, seq if flag else None
    try:
        desc, _ = view.recv_conn(1, sid)
    except NotConnectedError:
        return None
    if section == "claim":
        return base, desc, max_len
    claimed = k.claim(view, base, desc, None)
    if claimed is None:
        return None
    runner = DirectRunner(view)
    try:  # a second receiver overtakes: its message may retire first
        if flag and runner.run(ops.check_receive(view, 2, sid)):
            runner.run(ops.message_receive(view, 2, sid))
    except NotConnectedError:
        pass
    msg, first, nblk, length, _, fcfs = claimed
    last, _ = k.drain(r, first, nblk, length, bs)
    if section == "complete":
        return base, msg, 0 if fcfs else 1, last, length
    reap = k.complete(view, base, msg, 0 if fcfs else 1, last, length)
    if reap is None:
        return None
    head, n, _, first, last, nblk, nbytes = reap
    return head, n, first, last, nblk, nbytes


def _corrupt(view, base, target, pick, value):
    """Store one of a few bad values over the word ``target`` names."""
    r = view.region
    headers, msg = [], r.u32(base + LNVC.offsets["fifo_head"])
    while msg != NIL and len(headers) < 8:
        headers.append(msg)
        msg = r.u32(msg + MSG.offsets["next_msg"])
    record, _, field = target.partition(".")
    if record == "msg" or record == "block":
        if not headers:
            return
        msg = headers[pick % len(headers)]
        if record == "block":
            first = r.u32(msg + MSG.offsets["first_blk"])
            blocks, _ = r.follow(first, r.u32(msg + MSG.offsets["nblocks"]))
            if not blocks:
                return
            off = blocks[pick % len(blocks)]
            bad = (NIL, r.size + 8, r.size - 2, first, blocks[-1], r.size - 6)
        elif field == "nblocks":
            n = r.u32(msg + MSG.offsets["nblocks"])
            off, bad = msg + MSG.offsets[field], (0, n - 1 & 0xFFFFFFFF, n + 1)
        elif field == "flags":
            off, bad = msg + MSG.offsets[field], (0, 2, 8, 10, 12)
        else:
            off = msg + MSG.offsets[field]
            bad = (NIL, r.size + 8, r.size - 2, r.size - 20)
    elif record == "recv":
        desc = r.u32(base + LNVC.offsets["recv_list"])
        if desc == NIL:
            return
        off, bad = desc + RECV.offsets[field], (NIL, r.size + 8, r.size - 2)
    elif record == "hdr":
        off = HDR.u32[field]
        bad = (NIL, r.size + 8, r.size - 2, r.size - 20)
    else:
        off = base + LNVC.offsets[field]
        bad = (NIL, r.size + 8, r.size - 2, r.size - 20)
    r.set_u32(off, bad[value % len(bad)])


@given(any_section())
@settings(max_examples=600, deadline=None)
def test_c_section_kernels_match_the_python_reference(c_kernels, case):
    section, receivers, sizes, reads, size, max_len, flag, corrupt = case
    view, base, sid = _program(receivers, sizes, reads)
    args = _section_args(section, view, base, sid, size, max_len, flag)
    assume(args is not None)
    if corrupt is not None:
        _corrupt(view, base, *corrupt)
    image = view.region.read(0, view.region.size)
    after = {}
    for kernels in (c_kernels, chains.PYTHON):
        twin = MPFView(SharedRegion(bytearray(image)), view.layout, view.costs)
        after[kernels.name] = (
            _outcome(lambda: getattr(kernels, section)(twin, *args)),
            twin.region.read(0, twin.region.size))
    assert after["c"][0] == after["python"][0], section
    assert after["c"][1] == after["python"][1], section
