"""One engine loop: pins recorded on the parent commit, and a weight pin.

Until PR 17 the engine had three interpreters (classic loop, controlled
twin, epoch batcher) and the tests compared them with each other.  There
is one loop now, so the reference is what the parent commit (ac1c7dc)
produced, recorded there and asserted here:

* a controlled seeded walk over ``fcfs-race`` makes the same decisions
  over the same candidate widths in the same number of events;
* an ``fcfs_throughput`` run reports the same clock, events and lock /
  wake counters;
* "did the loop get heavier" has a deterministic answer: the events of
  a run and how many of them crossed the event queue are one value per
  program (ROADMAP 3(a) in miniature), and so are the Python calls a
  poll-heavy run makes.
"""

import hashlib
import sys

import pytest

from repro.apps.gauss_jordan import gauss_jordan_parallel, make_system
from repro.bench.workloads import fcfs_throughput
from repro.check.scenarios import SCENARIOS
from repro.check.scheduler import RandomPolicy, run_schedule
from repro.core import chains
from repro.machine.engine import set_epoch
from repro.machine.stats import MachineReport


def test_controlled_walk_pinned_against_parent():
    out = run_schedule(SCENARIOS["fcfs-race"], RandomPolicy(seed=7))
    assert (out.status, len(out.decisions), out.events) == ("ok", 316, 462)
    assert (sum(out.decisions), sum(out.widths)) == (224, 785)
    assert hashlib.sha256(
        repr((out.decisions, out.widths)).encode()).hexdigest() == (
        "79eaf4747e22ad4bce0d7d38d73f322b51c6e6b8a12c2236c1ae804e02649671")


def test_fcfs_report_pinned_against_parent():
    rep = fcfs_throughput(4, 64, messages=60).run.report
    assert (rep.sim_seconds, rep.events, rep.lock_acquires,
            rep.lock_contended, rep.wakes, rep.woken) == (
        0.44038499999999636, 2545, 570, 53, 76, 258)


@pytest.mark.parametrize("transport,events,crossings", [
    ("freelist", 12065, 4196),
    ("ring", 9634, 5001),
], ids=["freelist", "ring"])
def test_queue_crossings_pinned(transport, events, crossings):
    """``events`` is the parent's; ``heap_pops`` is this loop's weight.

    A change that parks where the loop used to continue inline (or the
    reverse) moves ``heap_pops`` and nothing else: update the pin only
    with the reason in hand.
    """
    rep = fcfs_throughput(4, 64, messages=400, transport=transport).run.report
    assert rep.events == events
    assert rep.heap_pops == crossings
    assert rep.heap_pushes == rep.heap_pops  # a finished run left nothing queued


#: Python calls into ``repro`` code of one 32x32 Gauss-Jordan solve on
#: four workers plus the arbiter, by the kernel set in use
#: (``chains.ACTIVE.name``): counted at 2943220 before the first edit of
#: the commit that added this pin (90,198), and again when the lock
#: sections became kernels — 89,745 / 91,235 at 5536dbc before the first
#: edit, 89,201 / 92,739 after.  The Python path pays one call per lock
#: section for its reference functions, which both kernel sets share
#: with the tests.  Lower a pin when the engine or the poll path gets
#: lighter; a change that raises one says why.
PINNED_GJ32_CALLS = {"c": 89_201, "python": 92_739}


def _gj32_calls() -> int:
    """``call`` events of ``sys.setprofile`` whose frame runs ``repro``
    code: numpy's and the standard library's own Python frames depend on
    their versions, not on this loop."""
    a, b = make_system(32)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get(
                "__name__", "").startswith("repro"):
            calls += 1

    sys.setprofile(profile)
    try:
        gauss_jordan_parallel(a, b, p=4)
    finally:
        sys.setprofile(None)
    return calls


def test_python_calls_of_a_poll_heavy_run_pinned():
    """The jitter-free weight of the loop: ``heap_pops`` says where it
    parks, this says what it costs the interpreter between parks (one
    ``sim_gauss64`` repetition makes ~657k calls for ~359k events)."""
    _gj32_calls()  # warm the ``charge`` cache and first-use imports
    calls = _gj32_calls()
    assert 0 < calls <= PINNED_GJ32_CALLS[chains.ACTIVE.name]
    assert _gj32_calls() == calls  # it repeats


def test_ledger_shims_survive_until_the_ledger_lets_go():
    """``benchmarks/ledger`` reads these on every rep (ROADMAP 1(a))."""
    assert set_epoch(False) is None
    fields = MachineReport.__dataclass_fields__
    assert (fields["epoch_batches"].default, fields["epoch_events"].default) == (0, 0)
