"""The structural invariants and the delivery law: clean on correct
state, loud on corruption."""

from __future__ import annotations

import pytest

from repro.core import ops
from repro.core.inspect import (
    InvariantViolation,
    check_invariants,
    collect_violations,
)
from repro.core.layout import HDR
from repro.core.protocol import BROADCAST, FCFS, NIL
from repro.core.structs import LNVC, MSG
from repro.check.invariants import check_delivery
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


# -- the delivery law ---------------------------------------------------------
#
# Synthetic logs: one ``(sent, received)`` pair per worker, as the checker's
# logging Env returns them.


def _logs(sent: dict, took: dict) -> list:
    """``sent``: rank -> [(circuit, payload)]; ``took``: rank ->
    [(circuit, protocol, payload)]."""
    return [([(c, rank, p) for c, p in sent.get(rank, ())],
             [(c, rank, proto, p) for c, proto, p in took.get(rank, ())])
            for rank in sorted(sent.keys() | took.keys())]


def _law(sent: dict, took: dict, totals: dict | None = None) -> list[str]:
    logs = _logs(sent, took)
    if totals is None:
        totals = {"total_sends": sum(len(s) for s, _ in logs),
                  "total_receives": sum(len(r) for _, r in logs)}
    return check_delivery(logs, totals)


#: A clean mixed circuit: two senders, two FCFS receivers splitting the
#: traffic, two BROADCAST receivers seeing all of it in one order, and a
#: ``gate`` circuit whose repeated ``ready`` tokens carry no order.
CLEAN_SENT = {0: [("d", b"a0"), ("d", b"a1")],
              1: [("d", b"b0"), ("d", b"b1"), ("gate", b"ready")],
              2: [("gate", b"ready")]}
BCAST_ORDER = [b"a0", b"b0", b"a1", b"b1"]
CLEAN_TOOK = {2: [("d", FCFS, b"a0"), ("d", FCFS, b"b1")],
              3: [("d", FCFS, b"b0"), ("d", FCFS, b"a1"),
                  ("gate", FCFS, b"ready"), ("gate", FCFS, b"ready")],
              4: [("d", BROADCAST, p) for p in BCAST_ORDER],
              5: [("d", BROADCAST, p) for p in BCAST_ORDER]}


def _edit(rank: int, took: list) -> dict:
    return {**CLEAN_TOOK, rank: took}


#: Single-circuit inputs: two FCFS senders, one of them alone, and one
#: BROADCAST sender.
FCFS_SENT = {0: [("c", bytes([0, 0])), ("c", bytes([0, 1]))],
                 1: [("c", bytes([1, 0]))]}
ONE_SENDER = {0: FCFS_SENT[0]}
BCAST_SENT = {0: [("b", b"x"), ("b", b"y")]}


def _bcast(*payloads: bytes) -> dict:
    return {3: [("b", BROADCAST, p) for p in payloads]}


@pytest.mark.parametrize("sent, took", [
    pytest.param(CLEAN_SENT, CLEAN_TOOK, id="mixed-circuit"),
    pytest.param(FCFS_SENT,
                 {2: [("c", FCFS, bytes([0, 0])), ("c", FCFS, bytes([1, 0]))],
                  3: [("c", FCFS, bytes([0, 1]))]},
                 id="fcfs-exactly-once-in-order"),
    pytest.param(BCAST_SENT, _bcast(b"x", b"y"), id="broadcast-in-order"),
])
def test_the_law_holds(sent, took):
    assert _law(sent, took) == []


@pytest.mark.parametrize("sent, took, totals, expect", [
    pytest.param(CLEAN_SENT, _edit(3, [("d", FCFS, b"b0"), ("d", FCFS, b"b0")]
                                   + CLEAN_TOOK[3][2:]), None,
                 "FCFS receivers took 4 of 4 sent, missing [b'a1'], "
                 "unexpected [b'b0']", id="duplicate-fcfs-take"),
    pytest.param(CLEAN_SENT, _edit(3, [("d", FCFS, b"b0")]
                                   + CLEAN_TOOK[3][2:]), None,
                 "FCFS receivers took 3 of 4 sent, missing [b'a1']",
                 id="lost-message"),
    pytest.param(CLEAN_SENT,
                 _edit(2, [("d", FCFS, b"a1"), ("d", FCFS, b"a0")]) | {
                     3: [("d", FCFS, b"b0"), ("d", FCFS, b"b1")]
                     + CLEAN_TOOK[3][2:]}, None,
                 "p2 took p0's b'a0' after one p0 sent later",
                 id="per-sender-reorder"),
    pytest.param(CLEAN_SENT,
                 _edit(5, [("d", BROADCAST, p) for p in BCAST_ORDER[:3]]),
                 None, "BROADCAST receiver p5 saw 3 of 4 sent",
                 id="broadcast-receiver-missing-a-payload"),
    # Each order is still FIFO per sender (a0 < a1, b0 < b1).
    pytest.param(CLEAN_SENT,
                 _edit(5, [("d", BROADCAST, p)
                           for p in (b"b0", b"a0", b"a1", b"b1")]), None,
                 "BROADCAST receivers saw different orders",
                 id="broadcast-receivers-disagree-on-order"),
    pytest.param(CLEAN_SENT, CLEAN_TOOK,
                 {"total_sends": 6, "total_receives": 13},
                 "header counts 13 receives, workers completed 14",
                 id="header-count-mismatch"),
    pytest.param(ONE_SENDER, {2: [("c", FCFS, bytes([0, 0]))],
                                  3: [("c", FCFS, bytes([0, 0]))]}, None,
                 "FCFS receivers took 2 of 2 sent", id="fcfs-duplicate"),
    pytest.param(ONE_SENDER, {2: [("c", FCFS, bytes([0, 1])),
                                      ("c", FCFS, bytes([0, 0]))]}, None,
                 "p2 took p0's b'\\x00\\x00' after one p0 sent later",
                 id="fcfs-reorder"),
    pytest.param(BCAST_SENT, _bcast(b"y", b"x"), None,
                 "p3 took p0's b'x' after one p0 sent later",
                 id="broadcast-reorder"),
    pytest.param(BCAST_SENT, _bcast(b"x"), None,
                 "BROADCAST receiver p3 saw 1 of 2 sent, missing [b'y']",
                 id="broadcast-short"),
])
def test_the_law_catches(sent, took, totals, expect):
    found = _law(sent, took, totals)
    assert any(expect in f for f in found), found
