"""The charge memo, and the scans that show it is the one way in."""

import ast
import inspect

from repro.core import effects, ops, transport
from repro.core.effects import Charge, charge
from repro.core.work import Work
from repro.runtime import base
from repro.testing import DirectRunner, make_view


def test_charge_is_the_charge_of_an_equal_work():
    assert charge(7, "x") == Charge(Work(instrs=7, label="x"))
    assert charge(7, "x", 1, 2, 3, 4) == Charge(Work(
        instrs=7, copy_bytes=1, blocks=2, page_bytes=3, flops=4, label="x"))
    assert charge(0, "app-compute", flops=9).work == Work(
        flops=9, label="app-compute")


def test_charge_is_built_once_per_value_and_the_memo_is_bounded():
    assert charge(123456, "memo-test") is charge(123456, "memo-test")
    assert charge(123456, "memo-test") is not charge(123457, "memo-test")
    assert charge.cache_info().maxsize == 4096
    for i in range(5000):
        charge(i, "memo-flood")
    assert charge.cache_info().currsize <= 4096


def test_message_path_charges_are_what_they_were():
    """Labels and values of one send + receive, as the cost model has
    always had them (``DEFAULT_COSTS``: 16 B in two 10-byte blocks)."""
    view = make_view()
    runner = DirectRunner(view)
    cid = runner.run(ops.open_send(view, 0, "c"))
    runner.run(ops.open_receive(view, 1, "c", 1))
    del runner.charged[:]
    runner.run(ops.message_send(view, 0, cid, bytes(16)))
    runner.run(ops.message_receive(view, 1, cid))
    c = view.costs
    assert runner.charged == [
        Work(instrs=c.send_fixed, label="send-fixed"),
        Work(instrs=3 * c.blk_alloc, label="send-alloc"),
        Work(instrs=2 * c.blk_fill + 16 * c.copy_byte, copy_bytes=16,
             blocks=2, page_bytes=2 * view.layout.blk_stride + 36,
             label="send-copy"),
        Work(instrs=c.msg_link + 2 * c.list_step, label="send-link"),
        Work(instrs=c.recv_fixed, label="recv-fixed"),
        Work(instrs=c.list_step, label="recv-find"),
        Work(instrs=2 * c.blk_drain + 16 * c.copy_byte, copy_bytes=16,
             blocks=2, label="recv-copy"),
        Work(instrs=c.msg_retire, label="recv-retire"),
        Work(instrs=c.msg_discard + 2 * c.blk_free, label="reap"),
    ]


def _calls(module, name):
    tree = ast.parse(inspect.getsource(module))
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and getattr(n.func, "id", None) == name]


def test_one_mechanism_each():
    """No ``Charge(Work(...))`` on the message path outside the memo and
    the per-view fixed charges; the step-count tuples are gone; dispatch
    hands back the transport's generator instead of wrapping it."""
    init = inspect.getsource(ops.MPFView.__init__)
    assert len(_calls(ops, "Charge")) == init.count("Charge(") > 0
    assert not _calls(transport, "Charge") and not _calls(base, "Charge")
    assert not _calls(transport, "Work") and not _calls(base, "Work")
    assert len(_calls(effects, "Work")) == 1  # the memo's
    for gone in ("_recv_find", "_check_walk"):
        assert gone not in ops.MPFView.__slots__
    for fn in (ops.message_send, ops.message_receive, ops.check_receive):
        assert not inspect.isgeneratorfunction(fn)
    assert "struct.Struct" not in inspect.getsource(ops)  # runs come from Record
