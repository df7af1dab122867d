"""The causal tracer's bound (``CausalTracer(limit=N)``): stride
sampling, the exact e2e latency sketch and traffic counts, the
fused-receive grace buffer, and the stamps a child tracer keeps for the
merge."""

import pickle
import sys

import pytest

from repro.core.protocol import BROADCAST, FCFS
from repro.obs import (
    Recorder,
    flow_from_causal,
    parse_exposition,
    prometheus_exposition,
)
from repro.obs.causal import (
    DEFAULT_LIMIT,
    CausalTracer,
    StageStats,
    busiest_lnvc,
)
from repro.patterns import barrier
from repro.runtime.procs import ProcRuntime
from repro.runtime.sim import SimRuntime
from repro.runtime.threads import ThreadRuntime

N_MSGS = 200


def sender(env):
    cid = yield from env.open_send("pipe")
    yield from barrier(env, "go", 2)
    for i in range(N_MSGS):
        yield from env.message_send(cid, b"m%d" % i)
    yield from env.message_send(cid, b"")  # stop
    yield from env.close_send(cid)


def receiver(env):
    cid = yield from env.open_receive("pipe", FCFS)
    yield from barrier(env, "go", 2)
    got = 0
    while (yield from env.message_receive(cid)):
        got += 1
    yield from env.close_receive(cid)
    return got


def record_bounded(limit, runtime="sim") -> Recorder:
    rec = Recorder(causal=CausalTracer(limit=limit))
    rt = SimRuntime(recorder=rec) if runtime == "sim" \
        else ThreadRuntime(recorder=rec)
    result = rt.run([sender, receiver])
    assert result.results["p1"] == N_MSGS
    return rec


def run_bounded(limit, runtime="sim"):
    return record_bounded(limit, runtime).causal


def test_stride_doubles_to_respect_the_bound():
    tracer = run_bounded(64)
    assert tracer.stride > 1
    assert len(tracer.events) <= 64
    # The kept subset is exactly the stride-sampled seqnos.
    assert all(e.seqno % tracer.stride == 0 for e in tracer.events)


def test_sampled_lifecycles_stay_complete():
    tracer = run_bounded(64)
    seqnos = {e.seqno for e in tracer.events if e.kind == "send"}
    for ev in tracer.events:
        if ev.kind in ("recv", "free"):
            assert ev.seqno in seqnos  # no torn lifecycles in the sample


def test_e2e_sketch_is_exact_not_sampled():
    tracer = run_bounded(64)
    # Every delivered message contributes one e2e sample, even though
    # the event log keeps only 1-in-stride lifecycles.  The workload
    # delivers N_MSGS + stop + barrier legs.
    assert len(tracer.e2e) >= N_MSGS
    stats = StageStats(list(tracer.e2e))
    assert 0.0 < stats.quantile(0.5) <= stats.p999


def loop_back(env):
    cid = yield from env.open_send("c")
    rid = yield from env.open_receive("c", FCFS)
    for _ in range(500):
        yield from env.message_send(cid, b"x" * 16)
        yield from env.message_receive(rid)
    yield from env.close_receive(rid)
    yield from env.close_send(cid)


def test_traffic_counts_are_exact_past_the_bound():
    """500 × 16 B loop-backs under a 64-event bound (stride 32): the
    message counters and the flow edges count every message, not the
    sample's 16."""
    rec = Recorder(causal=CausalTracer(limit=64))
    SimRuntime(recorder=rec).run([loop_back])
    tracer = rec.causal
    assert tracer.stride == 32
    prom = parse_exposition(prometheus_exposition(rec))
    for family, n in (("messages_sent", 500), ("message_bytes_sent", 8000),
                      ("messages_received", 500),
                      ("message_bytes_received", 8000)):
        assert prom[f"mpf_{family}_total"] == [({"lnvc": "lnvc0.g0"}, n)]
    g = flow_from_causal(tracer)
    assert g.sends == {(0, (0, 0)): [500, 8000]}
    assert g.recvs == {((0, 0), 0): [500, 8000]}
    assert busiest_lnvc(tracer) == (0, 0)
    clone = Recorder()
    clone.merge(pickle.loads(pickle.dumps(rec.snapshot())))
    assert flow_from_causal(clone.causal).sends == g.sends


def test_under_the_bound_every_event_is_kept():
    tracer = run_bounded(DEFAULT_LIMIT)
    assert tracer.stride == 1 and not tracer.dropped
    sends = sum(1 for e in tracer.events if e.kind == "send")
    assert sends == N_MSGS + 1 + 2 + 1  # payloads, stop, barrier legs


def test_e2e_answers_on_every_tracer():
    assert CausalTracer().e2e_stats().count == 0
    rec = Recorder(causal=True)
    SimRuntime(recorder=rec).run([sender, receiver])
    stats = rec.causal.e2e_stats()
    assert stats.count == len(rec.causal.recvs()) >= N_MSGS
    with pytest.raises(ValueError, match="limit"):
        CausalTracer(limit=0)


def test_grace_buffer_pairs_fused_reaps():
    # Under the fused sim engine the reap of a just-retired message can
    # fire on_free before the section-end on_recv; the grace buffer must
    # still pair those deliveries into e2e samples.  Compare against the
    # delivered count rather than an exact event interleaving.
    tracer = run_bounded(32)
    orphans = getattr(tracer, "_orphans", None)
    assert not orphans  # every recv found its send timestamp
    assert len(tracer.e2e) >= N_MSGS


def test_snapshot_roundtrip_preserves_sketch_and_stride():
    rec = record_bounded(64)
    tracer = rec.causal
    clone = Recorder()
    clone.merge(pickle.loads(pickle.dumps(rec.snapshot())))
    assert clone.causal.limit == 64
    assert clone.causal.stride == tracer.stride
    assert clone.causal.events == tracer.events
    assert list(clone.causal.e2e) == list(tracer.e2e)


def test_bounded_tracing_on_threads_runtime():
    tracer = run_bounded(64, runtime="threads")
    assert len(tracer.events) <= 64
    assert len(tracer.e2e) >= N_MSGS


#: More than the 256 freed stamps a single tracer keeps for late hooks.
N_OWN = 300


def own_broadcaster(env):
    """Broadcasts to itself and p1, then takes its own copies."""
    cid = yield from env.open_send("data")
    rid = yield from env.open_receive("data", BROADCAST)
    yield from barrier(env, "go", 2)
    for i in range(N_OWN):
        yield from env.message_send(cid, b"b%d" % i)
    for _ in range(N_OWN):
        yield from env.message_receive(rid)
    yield from env.close_send(cid)
    yield from env.close_receive(rid)


def broadcast_listener(env):
    rid = yield from env.open_receive("data", BROADCAST)
    yield from barrier(env, "go", 2)
    for _ in range(N_OWN):
        yield from env.message_receive(rid)
    yield from env.close_receive(rid)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ProcRuntime needs fork")
def test_a_sender_receiving_its_own_broadcast_keeps_every_pair():
    """Whenever p0's receive of its own message is the last, it frees
    the message before its recv hook: its child tracer must keep the
    stamp for p1's receive, paired at the merge."""
    rec = Recorder(causal=True, timeline=True)
    ProcRuntime(recorder=rec).run([own_broadcaster, broadcast_listener])
    tracer = rec.causal
    slot, = (s for s, name in rec.timeline.names.items() if name == "data")
    assert sum(e.slot == slot for e in tracer.recvs()) == 2 * N_OWN
    # Every delivery, barrier legs included, is in the sketch ...
    assert len(tracer.e2e) == len(tracer.recvs())
    assert not tracer._orphans
    # ... and in the timeline's e2e digest of its circuit.
    digests = rec.timeline.totals().digests
    assert digests[f"circuit:{slot}|e2e"].total == 2 * N_OWN


def test_quantile_fine_nearest_rank():
    stats = StageStats([float(i) for i in range(1, 1001)])
    assert stats.quantile(0.5) == 500.0 == stats.p50
    assert stats.quantile(0.999) == 999.0
    assert stats.p999 == 999.0


def test_one_quantile_method_keeps_every_centile_and_resolves_per_mille():
    """``quantile`` resolves thousandths.  Its reference is the centile
    formula it replaced, which is what every archived exposition was
    computed with: equal at every centile, different only where the old
    one silently rounded 0.999 up to the maximum."""
    for n in range(1, 2001):
        stats = StageStats([float(i) for i in range(1, n + 1)])
        for k in range(0, 101):
            centile = max(1, -(-round(k / 100 * 100) * n // 100))
            assert stats.quantile(k / 100) == float(min(centile, n)), (n, k)
    stats = StageStats([float(i) for i in range(1, 2001)])
    assert stats.quantile(0.999) == 1998.0 == stats.p999
    assert not hasattr(stats, "quantile_fine")


def test_quantile_ranks_every_centile_exactly():
    """``q * 100`` lands just below the centile for 0.29, 0.57, 0.58...:
    rounding, not truncation, picks the rank."""
    stats = StageStats([float(i) for i in range(1, 101)])
    assert [stats.quantile(k / 100) for k in range(1, 100)] == [
        float(k) for k in range(1, 100)]
    assert (stats.p50, stats.p95, stats.p99) == (50.0, 95.0, 99.0)


def test_stats_quantiles_empty_and_singleton():
    assert StageStats([]).quantile(0.99) == 0.0
    assert StageStats([3.5]).p999 == 3.5
