"""Unit tests for message_send / message_receive (single logical thread)."""

import pytest

from repro.core import ops
from repro.core.errors import (
    BufferOverflowError,
    NotConnectedError,
    OutOfMessageMemoryError,
    UnknownLNVCError,
)
from repro.core.inspect import traffic_totals
from repro.core.layout import HDR
from repro.core.protocol import BROADCAST, FCFS
from repro.testing import BlockedError, DirectRunner, make_view


def _loop(runner, view, name="loop", pid=0):
    sid = runner.run(ops.open_send(view, pid, name))
    rid = runner.run(ops.open_receive(view, pid, name, FCFS))
    assert sid == rid
    return sid


def test_send_then_receive_roundtrip(view, runner):
    cid = _loop(runner, view)
    runner.run(ops.message_send(view, 0, cid, b"hello, circuit"))
    got = runner.run(ops.message_receive(view, 0, cid))
    assert got == b"hello, circuit"


def test_payload_spanning_many_blocks(view, runner):
    cid = _loop(runner, view)
    payload = bytes(range(256)) * 3  # 768 bytes = 77 ten-byte blocks
    runner.run(ops.message_send(view, 0, cid, payload))
    assert runner.run(ops.message_receive(view, 0, cid)) == payload


def test_payload_exactly_one_block(view, runner):
    cid = _loop(runner, view)
    runner.run(ops.message_send(view, 0, cid, b"0123456789"))
    assert runner.run(ops.message_receive(view, 0, cid)) == b"0123456789"


def test_empty_message(view, runner):
    cid = _loop(runner, view)
    runner.run(ops.message_send(view, 0, cid, b""))
    assert runner.run(ops.message_receive(view, 0, cid)) == b""
    assert HDR.get(view.region, "live_msgs") == 0


def test_fifo_order_preserved(view, runner):
    # "Virtual circuits provide time-ordered message delivery."
    cid = _loop(runner, view)
    for i in range(10):
        runner.run(ops.message_send(view, 0, cid, f"m{i}".encode()))
    for i in range(10):
        assert runner.run(ops.message_receive(view, 0, cid)) == f"m{i}".encode()


def test_send_returns_sequence_numbers(view, runner):
    cid = _loop(runner, view)
    seqs = [runner.run(ops.message_send(view, 0, cid, b"x")) for _ in range(4)]
    assert seqs == [0, 1, 2, 3]


def test_send_accepts_bytes_like(view, runner):
    cid = _loop(runner, view)
    runner.run(ops.message_send(view, 0, cid, bytearray(b"ba")))
    runner.run(ops.message_send(view, 0, cid, memoryview(b"mv")))
    assert runner.run(ops.message_receive(view, 0, cid)) == b"ba"
    assert runner.run(ops.message_receive(view, 0, cid)) == b"mv"


def test_send_rejects_str(view, runner):
    cid = _loop(runner, view)
    with pytest.raises(TypeError):
        runner.run(ops.message_send(view, 0, cid, "not bytes"))


def test_send_requires_send_connection(view, runner):
    cid = runner.run(ops.open_receive(view, 0, "c", FCFS))
    with pytest.raises(NotConnectedError):
        runner.run(ops.message_send(view, 0, cid, b"x"))


def test_send_unknown_circuit(view, runner):
    with pytest.raises(UnknownLNVCError):
        runner.run(ops.message_send(view, 0, 12345, b"x"))


def test_failed_send_leaks_nothing(view, runner):
    cid = runner.run(ops.open_receive(view, 0, "c", FCFS))
    before = HDR.get(view.region, "live_blocks")
    with pytest.raises(NotConnectedError):
        runner.run(ops.message_send(view, 0, cid, b"y" * 100))
    assert HDR.get(view.region, "live_blocks") == before
    assert HDR.get(view.region, "live_msgs") == 0


def test_receive_requires_receive_connection(view, runner):
    cid = runner.run(ops.open_send(view, 0, "c"))
    runner.run(ops.message_send(view, 0, cid, b"x"))
    with pytest.raises(NotConnectedError):
        runner.run(ops.message_receive(view, 0, cid))


def test_receive_blocks_when_empty(view, runner):
    cid = runner.run(ops.open_receive(view, 0, "c", FCFS))
    with pytest.raises(BlockedError):
        runner.run(ops.message_receive(view, 0, cid))


def test_broadcast_receive_blocks_when_caught_up(view, runner):
    sid = runner.run(ops.open_send(view, 0, "c"))
    rid = runner.run(ops.open_receive(view, 0, "c", BROADCAST))
    runner.run(ops.message_send(view, 0, sid, b"one"))
    assert runner.run(ops.message_receive(view, 0, rid)) == b"one"
    with pytest.raises(BlockedError):
        runner.run(ops.message_receive(view, 0, rid))


def test_send_wakes_circuit_channel(view, runner):
    cid = _loop(runner, view)
    runner.run(ops.message_send(view, 0, cid, b"x"))
    slot = view.resolve(cid)
    assert runner.wakes[-1] == slot


def test_max_len_overflow_raises_without_consuming(view, runner):
    cid = _loop(runner, view)
    runner.run(ops.message_send(view, 0, cid, b"a long message"))
    with pytest.raises(BufferOverflowError):
        runner.run(ops.message_receive(view, 0, cid, max_len=4))
    # Not consumed: a full-size receive still gets it.
    assert runner.run(ops.message_receive(view, 0, cid)) == b"a long message"


def test_max_len_exact_fit_accepted(view, runner):
    cid = _loop(runner, view)
    runner.run(ops.message_send(view, 0, cid, b"12345"))
    assert runner.run(ops.message_receive(view, 0, cid, max_len=5)) == b"12345"


def test_header_pool_exhaustion():
    v = make_view(max_messages=2)
    r = DirectRunner(v)
    cid = r.run(ops.open_send(v, 0, "c"))
    r.run(ops.open_receive(v, 0, "c", FCFS))
    r.run(ops.message_send(v, 0, cid, b"a"))
    r.run(ops.message_send(v, 0, cid, b"b"))
    with pytest.raises(OutOfMessageMemoryError, match="header"):
        r.run(ops.message_send(v, 0, cid, b"c"))
    # Consuming one frees a header for the next send.
    r.run(ops.message_receive(v, 0, cid))
    r.run(ops.message_send(v, 0, cid, b"c"))


def test_block_pool_exhaustion_frees_partial_allocation():
    v = make_view(message_pool_bytes=14 * 4, block_size=10)  # 4 blocks
    r = DirectRunner(v)
    cid = r.run(ops.open_send(v, 0, "c"))
    r.run(ops.open_receive(v, 0, "c", FCFS))
    before = v.region.read(0, v.layout.total_size)
    with pytest.raises(OutOfMessageMemoryError, match="block"):
        r.run(ops.message_send(v, 0, cid, b"x" * 50))  # needs 5 blocks
    # Nothing was taken: the header went back where it came from, the
    # block list and every counter are untouched.
    assert v.region.read(0, v.layout.total_size) == before
    # The partial allocation was rolled back: 40 bytes still fit.
    r.run(ops.message_send(v, 0, cid, b"y" * 40))
    assert r.run(ops.message_receive(v, 0, cid)) == b"y" * 40


def test_live_counters_track_queue(view, runner):
    cid = _loop(runner, view)
    runner.run(ops.message_send(view, 0, cid, b"z" * 25))  # 3 blocks
    assert HDR.get(view.region, "live_msgs") == 1
    assert HDR.get(view.region, "live_blocks") == 3
    assert HDR.get(view.region, "live_bytes") == 25
    runner.run(ops.message_receive(view, 0, cid))
    assert HDR.get(view.region, "live_msgs") == 0
    assert HDR.get(view.region, "live_blocks") == 0
    assert HDR.get(view.region, "live_bytes") == 0


def test_hwm_counters_monotone(view, runner):
    cid = _loop(runner, view)
    runner.run(ops.message_send(view, 0, cid, b"x" * 30))
    runner.run(ops.message_receive(view, 0, cid))
    runner.run(ops.message_send(view, 0, cid, b"x" * 10))
    assert HDR.get(view.region, "hwm_live_bytes") == 30
    assert HDR.get(view.region, "hwm_live_msgs") == 1


def test_traffic_statistics(view, runner):
    cid = _loop(runner, view)
    runner.run(ops.message_send(view, 0, cid, b"abc"))
    runner.run(ops.message_send(view, 0, cid, b"de"))
    runner.run(ops.message_receive(view, 0, cid))
    want = {"total_sends": 2, "total_receives": 1,
            "total_bytes_sent": 5, "total_bytes_received": 3}
    # Counted on the circuit while it lives, ...
    assert traffic_totals(view) == want
    assert all(HDR.get(view.region, f) == 0 for f in want)
    # ... folded into the header when the last connection closes.
    runner.run(ops.close_receive(view, 0, cid))
    runner.run(ops.close_send(view, 0, cid))
    assert traffic_totals(view) == want
    assert {f: HDR.get(view.region, f) for f in want} == want


def test_receive_charges_copy_work(view, runner):
    cid = _loop(runner, view)
    runner.run(ops.message_send(view, 0, cid, b"q" * 64))
    runner.charged.clear()
    runner.run(ops.message_receive(view, 0, cid))
    assert runner.total_copy_bytes() == 64


def test_interleaved_circuits_do_not_cross(view, runner):
    a = _loop(runner, view, "a")
    b = _loop(runner, view, "b")
    runner.run(ops.message_send(view, 0, a, b"for-a"))
    runner.run(ops.message_send(view, 0, b, b"for-b"))
    assert runner.run(ops.message_receive(view, 0, b)) == b"for-b"
    assert runner.run(ops.message_receive(view, 0, a)) == b"for-a"


def test_binary_payload_integrity(view, runner):
    cid = _loop(runner, view)
    payload = bytes(range(256))
    runner.run(ops.message_send(view, 0, cid, payload))
    assert runner.run(ops.message_receive(view, 0, cid)) == payload
