"""BROADCAST fan-out: one 1 KiB message (103 ten-byte blocks) to 16
receivers on one view, the shape of Fig 5's largest point.

With ``--benchmark-only`` it records the wall of one send plus sixteen
receives, the last of which reaps the message: the first receive walks
the chain (the active kernel set's ``drain``) and the other fifteen take its drain from the
view's memo.  With ``--benchmark-disable`` (the shapes step) it runs once
and checks that every receiver got the bytes and that the chain was
drained exactly once.
"""

import random

import pytest

from repro.core import chains, ops
from repro.core.protocol import BROADCAST
from repro.testing import DirectRunner, make_view

RECEIVERS, LENGTH = 16, 1024


def _fan_out(runner, view, sid, data):
    runner.run(ops.message_send(view, 0, sid, data))
    return [runner.run(ops.message_receive(view, pid, sid))
            for pid in range(1, RECEIVERS + 1)]


def test_broadcast_fan_out(benchmark, monkeypatch):
    view = make_view(max_processes=RECEIVERS + 1)
    runner = DirectRunner(view)
    sid = runner.run(ops.open_send(view, 0, "wave"))
    for pid in range(1, RECEIVERS + 1):
        runner.run(ops.open_receive(view, pid, "wave", BROADCAST))
    data = random.Random(1987).randbytes(LENGTH)
    benchmark.extra_info["blocks"] = 103
    benchmark.extra_info["receivers"] = RECEIVERS
    assert benchmark(_fan_out, runner, view, sid, data) == [data] * RECEIVERS

    drains = []
    real = chains.ACTIVE.drain

    def counted(*args):
        drains.append(args[2])  # the chain's block count
        return real(*args)

    monkeypatch.setattr(chains.ACTIVE, "drain", counted)
    assert _fan_out(runner, view, sid, data) == [data] * RECEIVERS
    assert drains == [103]
