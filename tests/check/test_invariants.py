"""The structural invariants: clean on correct state, loud on corruption."""

from __future__ import annotations

import pytest

from repro.core import ops
from repro.core.inspect import (
    InvariantViolation,
    check_invariants,
    collect_violations,
)
from repro.core.layout import HDR
from repro.core.protocol import FCFS, NIL
from repro.core.structs import LNVC, MSG
from repro.check.invariants import (
    check_broadcast_delivery,
    check_fcfs_delivery,
)
from repro.testing import DirectRunner, make_view


def _busy_view():
    """A view with an open circuit and two queued messages."""
    v = make_view()
    r = DirectRunner(v)
    cid = r.run(ops.open_send(v, 0, "c"))
    r.run(ops.open_receive(v, 1, "c", FCFS))
    r.run(ops.message_send(v, 0, cid, b"one"))
    r.run(ops.message_send(v, 0, cid, b"two"))
    return v, r, cid


def test_clean_state_has_no_violations():
    v, r, cid = _busy_view()
    assert collect_violations(v, level="steady") == []
    assert collect_violations(v, level="final") == []
    check_invariants(v)  # must not raise


def test_drained_state_passes_expect_empty():
    v, r, cid = _busy_view()
    for _ in range(2):
        r.run(ops.message_receive(v, 1, cid))
    r.run(ops.close_receive(v, 1, cid))
    r.run(ops.close_send(v, 0, cid))
    check_invariants(v, expect_empty=True)


def test_expect_empty_rejects_leftover_circuit():
    v, r, cid = _busy_view()
    with pytest.raises(InvariantViolation):
        check_invariants(v, expect_empty=True)


def test_leaked_header_counter_detected():
    v, r, cid = _busy_view()
    HDR.set(v.region, "live_msgs", HDR.get(v.region, "live_msgs") + 1)
    found = collect_violations(v, level="steady")
    assert any("header-pool identity" in f for f in found)


def test_torn_fifo_link_detected():
    # Sever the FIFO chain behind the circuit's back: nmsgs still says 2
    # but only one message is reachable -- the torn-send signature.
    v, r, cid = _busy_view()
    base = v.layout.lnvc_off(0)
    head = LNVC.get(v.region, base, "fifo_head")
    MSG.set(v.region, head, "next_msg", NIL)
    found = collect_violations(v, level="final")
    assert any("FIFO holds" in f for f in found)
    with pytest.raises(InvariantViolation) as excinfo:
        check_invariants(v)
    assert "FIFO holds" in str(excinfo.value)


@pytest.mark.parametrize("where", ["free_blk", "fifo_head", "recv_list"])
def test_head_word_outside_the_region_is_a_violation_not_a_walk(where):
    """The word accessors are unchecked: a walk from a wild head word
    would raise from ``struct`` — or read from the end of the region."""
    v, r, cid = _busy_view()
    wild = v.region.size + 8
    if where in HDR.u32:
        HDR.set(v.region, where, wild)
    else:
        LNVC.set(v.region, v.layout.lnvc_off(0), where, wild)
    found = collect_violations(v, level="steady")
    assert any(f"{where} = {wild} points outside the region" in f
               for f in found), found


def test_fifo_cycle_detected_not_hung():
    v, r, cid = _busy_view()
    base = v.layout.lnvc_off(0)
    head = LNVC.get(v.region, base, "fifo_head")
    MSG.set(v.region, head, "next_msg", head)  # self-loop
    found = collect_violations(v, level="steady")
    assert any("cyclic" in f for f in found)


def test_fcfs_oracle_accepts_exactly_once_in_order():
    sent = [bytes([0, 0]), bytes([0, 1]), bytes([1, 0])]
    received = [[bytes([0, 0]), bytes([1, 0])], [bytes([0, 1])]]
    assert check_fcfs_delivery(sent, received, senders=(0, 1)) == []


def test_fcfs_oracle_rejects_duplicate_and_reorder():
    sent = [bytes([0, 0]), bytes([0, 1])]
    dup = [[bytes([0, 0])], [bytes([0, 0])]]
    assert check_fcfs_delivery(sent, dup, senders=(0,)) != []
    swapped = [[bytes([0, 1]), bytes([0, 0])], []]
    assert check_fcfs_delivery(sent, swapped, senders=(0,)) != []


def test_broadcast_oracle():
    sent = [b"x", b"y"]
    assert check_broadcast_delivery(sent, [b"x", b"y"], "p3") == []
    assert check_broadcast_delivery(sent, [b"y", b"x"], "p3") != []
    assert check_broadcast_delivery(sent, [b"x"], "p3") != []
