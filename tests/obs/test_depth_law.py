"""The depth law: a run's queue depth has one recorded source.

The timeline's ``circuit:<slot>|depth`` gauge is the only queue depth a
run records (the causal tracer traces messages only), and the segment
keeps its own high-water mark, ``hwm_nmsgs``, which survives untraced
runs and named attach.  The two must agree: for every circuit still
open at the end of a run, the gauge's maximum is the circuit's
``hwm_nmsgs`` (``inspect_segment(view).circuit(name).peak_queued``) — on
the simulator, real threads and forked processes, over both transports.

A bounded tracer cannot bend it: the gauge is fed by every enqueue,
whatever the tracer's stride sample stores.
"""

import multiprocessing

import pytest

from repro.core.inspect import inspect_segment
from repro.core.layout import MPFConfig
from repro.core.ops import decode_lnvc_id
from repro.core.protocol import BROADCAST, FCFS
from repro.obs import CausalTracer, Recorder
from repro.patterns import barrier
from repro.runtime.procs import ProcRuntime
from repro.runtime.sim import SimRuntime
from repro.runtime.threads import ThreadRuntime

N_SENT, N_READ = 12, 5
OPEN_AT_END = ("jobs", "news")


def producer(env):
    jobs = yield from env.open_send("jobs")
    news = yield from env.open_send("news")
    yield from barrier(env, "go", 2)
    for i in range(N_SENT):
        yield from env.message_send(jobs, bytes([i]) * 24)
        yield from env.message_send(news, bytes([i]) * 8)
    yield from barrier(env, "sent", 2)


def consumer(env):
    """Reads a few of each once everything is queued, and leaves both
    circuits open with the rest still queued."""
    jobs = yield from env.open_receive("jobs", FCFS)
    news = yield from env.open_receive("news", BROADCAST)
    yield from barrier(env, "go", 2)
    yield from barrier(env, "sent", 2)
    for _ in range(N_READ):
        yield from env.message_receive(jobs)
        yield from env.message_receive(news)


def peaks(view) -> dict[str, tuple[int, int]]:
    """``{name: (slot, hwm_nmsgs)}`` of the circuits open at the end."""
    circuits = inspect_segment(view).circuits
    return {c.name: (decode_lnvc_id(c.lnvc_id)[0], c.peak_queued)
            for c in circuits}


def _run(runtime: str, cfg: MPFConfig, rec: Recorder):
    if runtime == "procs":
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("ProcRuntime needs the fork start method")
        return ProcRuntime(recorder=rec).run(
            [producer, consumer], cfg=cfg, final_check=peaks).final
    rt = (SimRuntime if runtime == "sim" else ThreadRuntime)(recorder=rec)
    rt.run([producer, consumer], cfg=cfg)
    return peaks(rt.last_view)


@pytest.mark.parametrize("transport", ["freelist", "ring"])
@pytest.mark.parametrize("runtime", ["sim", "threads", "procs"])
def test_timeline_depth_peak_is_the_header_high_water_mark(runtime,
                                                           transport):
    cfg = MPFConfig(max_lnvcs=8, max_processes=2, transport=transport)
    rec = Recorder(causal=True, timeline=True)
    open_at_end = _run(runtime, cfg, rec)
    assert sorted(open_at_end) == sorted(OPEN_AT_END)
    gauges = rec.timeline.totals().gauges
    for name, (slot, hwm) in open_at_end.items():
        assert gauges[f"circuit:{slot}|depth"].max == hwm == N_SENT, name


def _loop_back(env):
    """One worker queues 500 messages to itself and reads none."""
    sid = yield from env.open_send("backlog")
    yield from env.open_receive("backlog", FCFS)
    for _ in range(500):
        yield from env.message_send(sid, bytes(16))


def test_a_bounded_tracer_does_not_bend_the_depth():
    rec = Recorder(causal=CausalTracer(limit=8), timeline=True)
    rt = SimRuntime(recorder=rec)
    rt.run([_loop_back], cfg=MPFConfig(max_lnvcs=4, max_processes=1))
    assert rec.causal.stride > 1 and len(rec.causal.events) <= 8
    (slot, hwm), = peaks(rt.last_view).values()
    depth = rec.timeline.totals().gauges[f"circuit:{slot}|depth"]
    assert depth.max == hwm == 500
