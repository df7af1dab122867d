"""Every reader of a shared list terminates on a cyclic one.

The inspector (:func:`~repro.core.inspect.inspect_segment`), the stall
report (:func:`~repro.check.deadlock.analyze_stall`) and the invariants
(:func:`~repro.core.inspect.collect_violations`) share one bounded walk.
On a hand-made cycle the first two raise :class:`RegionFormatError`
naming the circuit slot and the list; the invariants report it as they
always have.  Each call runs under an alarm: an unbounded walk never
returns here, it spins.
"""

from __future__ import annotations

import signal
import sys
from contextlib import contextmanager

import pytest

from repro.check.deadlock import analyze_stall
from repro.core.errors import RegionFormatError
from repro.core.inspect import collect_violations, inspect_segment
from repro.core.layout import MPFConfig
from repro.core.ops import MPFView
from repro.core.protocol import BROADCAST
from repro.core.structs import LNVC, MSG, RECV
from repro.machine.engine import DeadlockError
from repro.runtime.sim import SimRuntime

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="SIGALRM timeout"
)

CFG = MPFConfig(max_lnvcs=4, max_processes=4, max_messages=16,
                message_pool_bytes=1 << 12)


@contextmanager
def _deadline(seconds: float = 3.0):
    def fire(*_):
        raise TimeoutError(f"still walking after {seconds} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _stall(*workers):
    """Run ``workers`` on the simulator until they all sleep."""
    rt = SimRuntime()
    with pytest.raises(DeadlockError):
        rt.run(list(workers), cfg=CFG)
    return rt.last_engine, rt.last_view


def _hoarder(env):
    # Two messages with nobody connected are held for a future FCFS
    # joiner; a BROADCAST joiner sees only later ones, so it sleeps with
    # both still on the FIFO.
    cid = yield from env.open_send("c")
    yield from env.message_send(cid, b"one")
    yield from env.message_send(cid, b"two")
    yield from env.open_receive("c", BROADCAST)
    yield from env.message_receive(cid)


def _listener(env):
    cid = yield from env.open_receive("c", BROADCAST)
    yield from env.message_receive(cid)


def _cyclic_fifo():
    engine, view = _stall(_hoarder)
    head = LNVC.get(view.region, view.layout.lnvc_off(0), "fifo_head")
    MSG.set(view.region, head, "next_msg", head)
    return engine, view


def _cyclic_recv_list():
    # The head descriptor links to itself: the other sleeper's
    # descriptor is never reached, so a walk looking for it spins.
    engine, view = _stall(_listener, _listener)
    head = LNVC.get(view.region, view.layout.lnvc_off(0), "recv_list")
    RECV.set(view.region, head, "next", head)
    return engine, view


#: Case -> (make, the error the strict readers raise, what the
#: invariants returned before the walks were shared — printed by the
#: unshared walks and pinned here).
CASES = {
    "fifo": (_cyclic_fifo, "lnvc slot 0: FIFO is cyclic or overlong", [
        "lnvc slot 0: FIFO is cyclic or overlong",
        "message reachability broken: 2 live headers but 0 reachable from "
        "circuit FIFOs",
        "block reachability broken: 2 live blocks but 0 reachable from "
        "queued messages",
        "byte accounting broken: live_bytes=6 but queued payloads total 0",
        "send-descriptor conservation broken: 15 free + 0 linked != 16",
        "recv-descriptor conservation broken: 15 free + 0 linked != 16",
    ]),
    "recv-list": (_cyclic_recv_list, "lnvc slot 0: recv list is cyclic or overlong", [
        *["lnvc slot 0: duplicate recv descriptor for pid 1"] * 16,
        "lnvc slot 0: receiver counters (0 FCFS, 2 BCAST) disagree with "
        "the list (0, 17)",
    ]),
}


@pytest.mark.parametrize("case", CASES)
def test_inspector_and_stall_report_raise_naming_the_slot(case):
    make, message, _ = CASES[case]
    engine, view = make()
    with _deadline(), pytest.raises(RegionFormatError, match=message):
        inspect_segment(view)
    with _deadline(), pytest.raises(RegionFormatError, match=message):
        analyze_stall(engine, view)


@pytest.mark.parametrize("case", CASES)
def test_invariants_report_what_they_always_reported(case):
    """The strings :func:`collect_violations` returned before the walks
    were shared, as a diagnostic process with no descriptor caches of
    its own sees them — and the run's own view, caches and all, now
    returns too."""
    make, _, expected = CASES[case]
    engine, view = make()
    with _deadline():
        assert collect_violations(MPFView(view.region, view.layout),
                                  level="final") == expected
        assert collect_violations(view, level="final")[:len(expected)] == expected
