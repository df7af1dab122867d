"""One copy-out per BROADCAST message on a shared view.

Every BROADCAST receiver of a message is charged its own copy (paper §2,
Fig 5), but the chain it copies is immutable from link to reap, so the
receivers that share one ``MPFView`` (simulator, threads, the model
checker) walk it once: the first drain is memoized on the view under the
message's identity and the rest take it (``MPFView._drain_memo``).
These tests pin the drain count, the identity key, the FCFS bypass, the
error path and the delivered bytes on real threads.
"""

import random
import sys

import pytest

from repro import BROADCAST, FCFS, SimRuntime, ThreadRuntime
from repro.bench import broadcast_throughput
from repro.core import chains, ops
from repro.core.errors import RegionFormatError
from repro.core.layout import MPFConfig, SegmentLayout, format_region
from repro.core.ops import MPFView
from repro.core.region import SharedRegion
from repro.core.structs import LNVC, MSG
from repro.patterns import barrier
from repro.testing import DirectRunner, make_view


@pytest.fixture
def drains(monkeypatch):
    """A list that grows by one per chain drain of the message path
    (the active kernel set's ``drain``, C or Python)."""
    calls = []
    real = chains.ACTIVE.drain

    def counted(*args):
        calls.append(args[2])  # the chain's block count
        return real(*args)

    monkeypatch.setattr(chains.ACTIVE, "drain", counted)
    return calls


def _fanout(n_receivers, payloads):
    """One sender and ``n_receivers`` BROADCAST receivers of ``payloads``;
    each receiver returns what it got, in order."""
    n = n_receivers + 1

    def sender(env):
        cid = yield from env.open_send("wave")
        yield from barrier(env, "go", n)
        for data in payloads:
            yield from env.message_send(cid, data)
        yield from barrier(env, "done", n)
        yield from env.close_send(cid)

    def receiver(env):
        cid = yield from env.open_receive("wave", BROADCAST)
        yield from barrier(env, "go", n)
        got = []
        for _ in payloads:
            got.append((yield from env.message_receive(cid)))
        yield from barrier(env, "done", n)
        yield from env.close_receive(cid)
        return got

    return [sender] + [receiver] * n_receivers


def test_sixteen_simulated_receivers_drain_each_message_once(drains):
    rng = random.Random(1987)
    payloads = [rng.randbytes(1024) for _ in range(12)]
    result = SimRuntime().run(_fanout(16, payloads))
    assert result.result_list()[1:] == [payloads] * 16
    # The barriers' messages are short: one drain per message sent.
    assert [nblk for nblk in drains if nblk == 103] == [103] * len(payloads)
    assert len(drains) == result.header["total_sends"]


def test_fig5_program_drains_once_per_sent_message(drains):
    """``sim_bcast16``'s program, both points: 568 drains for 8,072
    receives (one per receive before the memo)."""
    runs = [broadcast_throughput(n, length, messages).run
            for n, length, messages in ((16, 16, 400), (16, 1024, 96))]
    assert sum(r.header["total_receives"] for r in runs) == 8072
    assert len(drains) == sum(r.header["total_sends"] for r in runs) == 568


def _two_receivers(view):
    runner = DirectRunner(view)
    sid = runner.run(ops.open_send(view, 0, "c"))
    for pid in (1, 2):
        runner.run(ops.open_receive(view, pid, "c", BROADCAST))
    return runner, sid


def _head(view):
    """``(header, first block)`` of the message at the FIFO head of slot 0."""
    r = view.region
    msg = LNVC.get(r, view.layout.lnvc_off(0), "fifo_head")
    return msg, MSG.get(r, msg, "first_blk")


@pytest.mark.parametrize("recycle", ["next-seqno", "new-generation"])
def test_a_reused_header_and_chain_deliver_the_new_bytes(recycle):
    """The header, first block and length come back for the next message
    (the pools hand freed records out first); only the sequence number,
    or the circuit's generation, tells the two messages apart."""
    view = make_view()
    runner, sid = _two_receivers(view)
    old, new = bytes(range(200)), bytes(range(200, 0, -1))
    runner.run(ops.message_send(view, 0, sid, old))
    where = _head(view)
    assert [runner.run(ops.message_receive(view, pid, sid))
            for pid in (1, 2)] == [old, old]
    assert view._drain_memo is not None
    if recycle == "new-generation":
        for pid in (1, 2):
            runner.run(ops.close_receive(view, pid, sid))
        runner.run(ops.close_send(view, 0, sid))  # deletes the circuit
        runner, new_sid = _two_receivers(view)
        assert new_sid != sid and view.slot_of(new_sid) == view.slot_of(sid)
        sid = new_sid
    runner.run(ops.message_send(view, 0, sid, new))
    assert _head(view) == where
    assert [runner.run(ops.message_receive(view, pid, sid))
            for pid in (1, 2)] == [new, new]


class SpyView(MPFView):
    """An ``MPFView`` that counts reads and writes of its drain memo."""

    __slots__ = ("memo_touches",)
    _slot = MPFView._drain_memo

    def __init__(self, region, layout):
        self.memo_touches = 0
        super().__init__(region, layout)
        self.memo_touches = 0

    @property
    def _drain_memo(self):
        self.memo_touches += 1
        return SpyView._slot.__get__(self)

    @_drain_memo.setter
    def _drain_memo(self, value):
        self.memo_touches += 1
        SpyView._slot.__set__(self, value)


def _spy_view():
    cfg = MPFConfig(max_lnvcs=8, max_processes=8, max_messages=64,
                    message_pool_bytes=1 << 16)
    region = SharedRegion(bytearray(SegmentLayout(cfg).total_size))
    return SpyView(region, format_region(region, cfg))


def test_fcfs_receives_never_touch_the_memo():
    view = _spy_view()
    runner = DirectRunner(view)
    sid = runner.run(ops.open_send(view, 0, "c"))
    for pid in (1, 2):
        runner.run(ops.open_receive(view, pid, "c", FCFS))
    for i in range(6):
        runner.run(ops.message_send(view, 0, sid, bytes([i]) * 97))
    got = [runner.run(ops.message_receive(view, 1 + i % 2, sid))
           for i in range(6)]
    assert got == [bytes([i]) * 97 for i in range(6)]
    assert view.memo_touches == 0
    # The spy sees a BROADCAST receive: one read, and the store of a miss.
    runner.run(ops.open_receive(view, 3, "c", BROADCAST))
    runner.run(ops.message_send(view, 0, sid, b"x" * 97))
    assert runner.run(ops.message_receive(view, 3, sid)) == b"x" * 97
    assert view.memo_touches == 2


def test_a_corrupt_chain_raises_at_every_receiver_and_is_not_memoized():
    view = make_view()
    runner, sid = _two_receivers(view)
    runner.run(ops.message_send(view, 0, sid, bytes(450)))
    r = view.region
    msg, first = _head(view)
    second = r.u32(first)
    r.set_u32(second, r.size + 100)
    where = (f"message header {msg}: block chain from .* block {second} "
             f"links to {r.size + 100}, outside")
    for pid in (1, 2):
        with pytest.raises(RegionFormatError, match=where):
            runner.run(ops.message_receive(view, pid, sid))
        assert view._drain_memo is None
        assert runner.held == []


def test_four_thread_receivers_get_every_byte():
    """Five threads on a shared view, switching every 50 us: a memo hit
    for the wrong message, or a chain reaped under a reader, shows as a
    wrong byte."""
    rng = random.Random(31)
    payloads = [rng.randbytes(rng.choice((0, 9, 10, 11, 256, 1024, 2048)))
                for _ in range(150)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(5e-5)
    try:
        result = ThreadRuntime(join_timeout=60).run(_fanout(4, payloads))
    finally:
        sys.setswitchinterval(interval)
    assert result.result_list()[1:] == [payloads] * 4
