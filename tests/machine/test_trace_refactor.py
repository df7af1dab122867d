"""Deleting the raw ``trace=`` stream must be invisible in the tables.

Until 3b11bc4 a ``Tracer`` regex-parsed ``repr(effect)`` lines into
per-process effect counts, acquisitions per lock and instructions per
label, and a test compared them with the ``Recorder``'s on one run.  The
``Recorder`` is the engine's only observer now; what the ``Tracer``
reported for this program at 3b11bc4 is pinned here instead.
"""

from repro.core.protocol import FCFS
from repro.obs import Recorder
from repro.runtime.sim import SimRuntime


def fanout(env):
    if env.rank == 0:
        cid = yield from env.open_send("pipe")
        for _ in range(4):
            yield from env.message_send(cid, b"z" * 16)
        yield from env.message_send(cid, b"")
        yield from env.message_send(cid, b"")
        yield from env.close_send(cid)
    else:
        cid = yield from env.open_receive("pipe", FCFS)
        while (yield from env.message_receive(cid)):
            pass
        yield from env.close_receive(cid)


def test_recorder_matches_tracer_on_same_run():
    """The tables the ``Tracer`` printed at 3b11bc4, off the ``Recorder``."""
    rec = Recorder()
    SimRuntime(recorder=rec).run([fanout, fanout, fanout])
    assert rec.summary() == {
        "p0": {"Acquire": 18, "Charge": 27, "Release": 18, "Wake": 6},
        "p1": {"Acquire": 15, "Charge": 24, "Release": 15, "WaitOn": 5},
        "p2": {"Acquire": 15, "Charge": 21, "Release": 15, "WaitOn": 3},
    }
    assert rec.lock_profile() == {0: 6, 1: 18, 2: 24}
    assert rec.charge_breakdown() == {
        "close_receive": 1824, "close_send": 912, "lnvc-delete": 450,
        "open": 3120, "open_receive": 108, "open_send": 48, "reap": 440,
        "recv-copy": 1288, "recv-find": 108, "recv-fixed": 18000,
        "recv-retire": 480, "recv-wakeup": 960, "send-alloc": 210,
        "send-copy": 1368, "send-fixed": 21000, "send-link": 1104,
    }


def test_recording_does_not_perturb_timing():
    bare = SimRuntime().run([fanout, fanout, fanout])
    observed = SimRuntime(recorder=Recorder()).run([fanout, fanout, fanout])
    assert observed.elapsed == bare.elapsed == 0.02889080000000002
    assert observed.results == bare.results
