"""Per-message causal tracing: lifecycles, sojourn stats, conservation.

The load-bearing guarantees pinned here:

* attaching a tracer never perturbs the simulated schedule (fig3
  byte-identity — the tentpole's acceptance criterion);
* causal counts agree with the Recorder's work counters AND with the
  segment's own header/inspect totals (three independent books);
* the same program produces the same lifecycle counts on the simulator,
  real threads and forked processes;
* derived analyses (flow graphs, Prometheus exposition, Chrome async
  spans) stay consistent with the raw event list;
* a failed pop reaches the timeline, where the health engine reads it.
"""

import json
import pickle

import pytest

from repro.core.inspect import inspect_segment
from repro.core.layout import MPFConfig
from repro.core.protocol import BROADCAST, FCFS
from repro.obs import (
    CausalTracer,
    HealthEngine,
    Recorder,
    busiest_lnvc,
    chrome_trace,
    check_dot,
    flow_dot,
    flow_from_causal,
    flow_from_segment,
    format_causal_tail,
    format_sojourn,
    parse_exposition,
    prometheus_exposition,
    sojourn_stats,
)
from repro.obs.causal import causal_async_events, pair_deliveries
from repro.patterns import barrier
from repro.runtime.blocking import MPFSystem
from repro.runtime.procs import ProcRuntime
from repro.runtime.sim import SimRuntime
from repro.runtime.threads import ThreadRuntime

RUNTIMES = {
    "sim": lambda rec: SimRuntime(recorder=rec),
    "threads": lambda rec: ThreadRuntime(recorder=rec),
    "procs": lambda rec: ProcRuntime(recorder=rec),
}


def sender(env):
    cid = yield from env.open_send("pipe")
    yield from barrier(env, "go", 2)
    for i in range(6):
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


def run_traced(kind: str) -> Recorder:
    rec = Recorder(causal=True)
    result = RUNTIMES[kind](rec).run([sender, receiver])
    assert result.results["p1"] == 6
    return rec


# -- the workload's lifecycle arithmetic -------------------------------------
#
# 7 sends on "pipe" (6 payloads + stop), 2 arrivals on the barrier's
# FCFS leg, 1 release on its BROADCAST leg = 10 sends.  The release is
# received by BOTH participants (broadcast), so receives number 11.
# Every message is eventually reaped: 10 frees.

SENDS, RECVS, FREES = 10, 11, 10


@pytest.mark.parametrize("kind", sorted(RUNTIMES))
def test_lifecycle_counts(kind):
    c = run_traced(kind).causal
    assert len(c.sends()) == SENDS
    assert len(c.recvs()) == RECVS
    assert len(c.frees()) == FREES
    assert c.total == SENDS + RECVS + FREES
    assert c.dropped == 0


def test_broadcast_send_appears_in_multiple_pairs():
    c = run_traced("sim").causal
    bcast_recvs = [e for e in c.recvs() if not e.fcfs]
    assert len(bcast_recvs) == 2  # one barrier release, two participants
    assert len({e.key for e in bcast_recvs}) == 1
    pairs = pair_deliveries(c)
    assert len(pairs) == RECVS  # every recv matched to its send
    sends_in_pairs = [s.key for s, _ in pairs]
    assert sends_in_pairs.count(bcast_recvs[0].key) == 2


def test_sim_trace_is_deterministic(exports):
    assert exports(run_traced("sim")) == exports(run_traced("sim"))


def test_timestamps_causally_ordered_on_sim():
    c = run_traced("sim").causal
    for e in c.sends() + c.recvs():
        assert e.t0 <= e.t1 <= e.t2 <= e.t3
    for s, r in pair_deliveries(c):
        assert s.t3 <= r.t1  # linked before claimed, in simulated time


# -- conservation: causal trace == Recorder == segment header ----------------


def _partial_drain(env):
    """Loop-back circuit left open with 2 of 5 messages still queued."""
    sid = yield from env.open_send("loop")
    rid = yield from env.open_receive("loop", FCFS)
    for i in range(5):
        yield from env.message_send(sid, bytes(4 + i))
    for _ in range(3):
        yield from env.message_receive(rid)
    return "done"


def test_conservation_across_three_books():
    rec = Recorder(causal=True, timeline=True)
    rt = SimRuntime(recorder=rec)
    rt.run([_partial_drain], cfg=MPFConfig(max_lnvcs=4, max_processes=2))
    c = rec.causal
    info = inspect_segment(rt.last_view)
    circ = info.circuit("loop")
    (key,) = {e.lnvc for e in c.events}

    # Book 1 vs book 2: causal counts match the Recorder's work counters.
    assert len(c.sends()) == rec.work["send-fixed"].count == 5
    assert len(c.recvs()) == rec.work["recv-fixed"].count == 3

    # Book 1 vs book 3: causal counts match the segment's own counters.
    assert len(c.sends()) == info.total_sends == circ.total_enqueued
    assert len(c.recvs()) == info.total_receives
    assert len(c.frees()) == 3  # the three drained messages were reaped

    # Byte conservation: sent == freed + still queued (live_bytes).
    sent_bytes = sum(e.length for e in c.sends())
    freed_bytes = sum(e.length for e in c.frees())
    assert sent_bytes - freed_bytes == info.live_bytes
    assert {m.seqno for m in circ.messages} == {
        e.seqno for e in c.sends()
    } - {e.seqno for e in c.frees()}

    # Queue depth is the timeline's, not the tracer's: one sample per
    # enqueue and per reap, its peak the circuit's hwm_nmsgs.
    depth = rec.timeline.totals().gauges[f"circuit:{key[0]}|depth"]
    assert depth.n == 5 + 3
    assert depth.max == circ.peak_queued == 5


# -- tentpole acceptance: tracing cannot perturb the simulation --------------


def test_fig3_output_byte_identical_with_tracing():
    from repro.bench.figures import fig3

    plain = fig3(quick=True)
    traced = fig3(quick=True, causal=True)
    assert traced.format_table() == plain.format_table()
    assert json.dumps(traced.to_dict(), sort_keys=True) == json.dumps(
        plain.to_dict(), sort_keys=True
    )


def test_tracing_does_not_change_simulated_time_or_lock_profile():
    plain, traced = Recorder(), Recorder(causal=True)
    a = SimRuntime(recorder=plain).run([sender, receiver])
    b = SimRuntime(recorder=traced).run([sender, receiver])
    assert b.elapsed == a.elapsed
    assert traced.lock_profile() == plain.lock_profile()
    assert traced.summary() == plain.summary()


# -- sojourn statistics ------------------------------------------------------


def test_sojourn_stats_cover_every_stage():
    c = run_traced("sim").causal
    stats = sojourn_stats(c)
    # Every circuit that delivered a message gets stats.
    assert set(stats) == {e.lnvc for e in c.recvs()}
    pipe = stats[busiest_lnvc(c)]
    assert pipe["e2e"].count == 7
    for stage in ("alloc", "copy_in", "link", "resident", "copy_out", "e2e"):
        assert pipe[stage].count == 7
        assert pipe[stage].p50 >= 0.0
        assert pipe[stage].p50 <= pipe[stage].p95 <= pipe[stage].p99
    # e2e dominates each of its parts.
    assert pipe["e2e"].p50 >= pipe["copy_in"].p50
    assert pipe["e2e"].p50 >= pipe["resident"].p50


def test_busiest_lnvc_is_the_data_circuit():
    c = run_traced("sim").causal
    key = busiest_lnvc(c)
    assert sum(1 for e in c.sends() if e.lnvc == key) == 7
    assert busiest_lnvc(CausalTracer()) is None


def test_format_sojourn_renders_table():
    c = run_traced("sim").causal
    text = format_sojourn(c)
    assert "e2e-p50" in text and "lnvc" in text
    assert format_sojourn(CausalTracer()) == "(no complete deliveries traced)"


def test_format_causal_tail_lists_recent_events():
    c = run_traced("sim").causal
    text = format_causal_tail(c, n=5)
    assert len(text.splitlines()) == 5
    assert "fcfs take" in text or "reaped" in text


# -- what is backing up: the health engine over the recorder's timeline -------


def test_health_flags_pool_exhaustion():
    rec = Recorder(causal=True, timeline=True)
    rec.pool(live_blocks=1)  # a complete allocation
    rec.pool(dry=0)  # pool exhausted
    assert rec.timeline.totals().counters["pool|dry"] == 1
    (f,) = HealthEngine(rec.timeline).scan()
    assert f.kind == "alloc-pressure" and f.data["failed_pops"] == 1


def test_health_flags_undrained_queue():
    rec = Recorder(timeline=True)
    rec.circuit_opened(0, "jobs")
    for i in range(40):  # two sends per window, nothing received
        rec.now = lambda t=i * 0.025: t
        rec.msg_sent(0, 0, 0, i, 4, 1, i + 1, 0.0, 0.0, 0.0)
    (f,) = HealthEngine(rec.timeline).scan()
    assert (f.kind, f.series) == ("queue-growth", "circuit:jobs")


def test_health_quiet_on_healthy_run():
    rec = Recorder(causal=True, timeline=True)
    SimRuntime(recorder=rec).run([sender, receiver])
    assert rec.timeline.windows
    assert HealthEngine(rec.timeline).scan() == []


# -- flow graphs -------------------------------------------------------------


def _bcast_sender(env):
    cid = yield from env.open_send("bc")
    yield from barrier(env, "go", 3)
    for i in range(4):
        yield from env.message_send(cid, b"m%d" % i)
    yield from env.close_send(cid)


def _bcast_receiver(env):
    cid = yield from env.open_receive("bc", BROADCAST)
    yield from barrier(env, "go", 3)
    for _ in range(4):
        yield from env.message_receive(cid)
    yield from env.close_receive(cid)
    return "ok"


def test_flow_from_causal_counts_broadcast_fanout():
    rec = Recorder(causal=True)
    SimRuntime(recorder=rec).run(
        [_bcast_sender, _bcast_receiver, _bcast_receiver]
    )
    g = flow_from_causal(rec.causal)
    bc = [k for k, e in g.sends.items() if e[0] == 4]
    assert len(bc) == 1  # p0 sent 4 messages into the bc circuit
    (sender_pid, bc_lnvc) = bc[0]
    assert sender_pid == 0
    # Both receivers drained all four copies.
    fanout = [w for (lnvc, _pid), w in g.recvs.items() if lnvc == bc_lnvc]
    assert sorted(w[0] for w in fanout) == [4, 4]


def test_flow_dot_is_wellformed_and_deterministic():
    rec = Recorder(causal=True)
    SimRuntime(recorder=rec).run([sender, receiver])
    dot = flow_dot(flow_from_causal(rec.causal))
    assert check_dot(dot) > 0
    rec2 = Recorder(causal=True)
    SimRuntime(recorder=rec2).run([sender, receiver])
    assert flow_dot(flow_from_causal(rec2.causal)) == dot
    with pytest.raises(ValueError):
        check_dot("digraph { broken")


def test_flow_from_segment_matches_live_state():
    rec = Recorder(causal=True)
    rt = SimRuntime(recorder=rec)
    rt.run([_partial_drain], cfg=MPFConfig(max_lnvcs=4, max_processes=2))
    g = flow_from_segment(inspect_segment(rt.last_view))
    assert check_dot(flow_dot(g)) > 0
    # Queued messages attribute their senders; receiver shows 3 reads.
    assert sum(e[0] for e in g.sends.values()) == 2  # 2 still queued
    assert sum(e[0] for e in g.recvs.values()) == 3


# -- Prometheus exposition ---------------------------------------------------


def test_prometheus_exposition_parses_and_conserves():
    rec = run_traced("sim")
    metrics = parse_exposition(prometheus_exposition(rec))
    c = rec.causal
    assert sum(v for _, v in metrics["mpf_messages_sent_total"]) == SENDS
    assert sum(v for _, v in metrics["mpf_messages_received_total"]) == RECVS
    assert metrics["mpf_causal_events_total"] == [({}, c.total)]
    sent_bytes = sum(e.length for e in c.sends())
    assert sum(v for _, v in metrics["mpf_message_bytes_sent_total"]) == sent_bytes
    # Sojourn summary carries stage+quantile labels.
    labels = {tuple(sorted(lbl)) for lbl, _ in
              metrics["mpf_message_sojourn_seconds"]}
    assert all(("lnvc", "quantile", "stage") == t for t in labels)


def test_prometheus_without_causal_omits_message_metrics():
    rec = Recorder()
    SimRuntime(recorder=rec).run([sender, receiver])
    metrics = parse_exposition(prometheus_exposition(rec))
    assert "mpf_lock_acquires_total" in metrics
    assert "mpf_messages_sent_total" not in metrics


# -- Chrome trace async spans ------------------------------------------------


def test_chrome_trace_gains_async_message_spans():
    rec = run_traced("sim")
    doc = chrome_trace(rec)
    assert json.dumps(doc)
    msg = [e for e in doc["traceEvents"] if e.get("cat") == "msg"]
    begins = [e for e in msg if e["ph"] == "b"]
    ends = [e for e in msg if e["ph"] == "e"]
    keys = {e.key for e in rec.causal.events}
    assert len(begins) == len(ends) == len(keys)
    assert {e["id"] for e in begins} == {
        f"{s}.{g}.{q}" for (s, g, q) in keys
    }
    assert doc["otherData"]["causal_events"] == rec.causal.total
    # Standalone helper agrees with what the exporter embedded.
    assert causal_async_events(rec.causal) == msg


# -- blocking (posix-style) clients ------------------------------------------


def test_blocking_client_traces_wall_clock_lifecycles():
    system = MPFSystem(MPFConfig(max_lnvcs=4, max_processes=2))
    rec = Recorder(causal=True)
    mpf = system.client(0, recorder=rec)
    sid = mpf.open_send("loop")
    rid = mpf.open_receive("loop", FCFS)
    for _ in range(4):
        mpf.message_send(sid, b"x" * 8)
        assert mpf.message_receive(rid) == b"x" * 8
    mpf.close_receive(rid)
    mpf.close_send(sid)
    c = rec.causal
    assert len(c.sends()) == len(c.recvs()) == len(c.frees()) == 4
    # Wall clock: strictly positive, ordered timestamps.
    for e in c.sends():
        assert 0 < e.t0 <= e.t1 <= e.t2 <= e.t3


# -- bounding and merging ----------------------------------------------------


def test_tracer_limit_bounds_events_not_totals():
    c = CausalTracer(limit=2)
    for i in range(5):
        c.on_send(0, 0, 0, i, 4, 1, 0.0, 0.0, 0.0, 0.0)
    assert len(c.events) == 2
    assert c.total == 5
    assert c.dropped == 3
    assert f"{c.dropped}" in format_sojourn(c) or "dropped" in format_causal_tail(c)


def test_tracer_merge_accounts_for_drops():
    child = Recorder(causal=CausalTracer(limit=2))
    for i in range(5):
        child.causal.on_send(0, 0, 0, i, 4, 1, 0.0, 0.0, 0.0, 0.0)
    parent = Recorder(causal=CausalTracer(limit=3))
    parent.merge(child.snapshot())
    assert parent.causal.total == 5
    assert len(parent.causal.events) == 2
    assert parent.causal.dropped == 3


def test_recorder_snapshot_roundtrip_preserves_causal(exports):
    rec = run_traced("sim")
    merged = Recorder()
    merged.merge(pickle.loads(pickle.dumps(rec.snapshot())))
    assert merged.causal is not None
    assert merged.causal.events == rec.causal.events
    assert exports(merged) == exports(rec)


# -- model-checker integration ----------------------------------------------


def test_run_schedule_causal_is_inert_and_deterministic():
    from repro.check.scenarios import SCENARIOS
    from repro.check.scheduler import PrefixPolicy, run_schedule

    scenario = SCENARIOS["fcfs-race"]
    plain = run_schedule(scenario, PrefixPolicy([]))
    traced = run_schedule(scenario, PrefixPolicy([]), causal=True)
    assert plain.causal is None
    assert traced.status == plain.status == "ok"
    assert traced.decisions == plain.decisions
    assert traced.events == plain.events
    assert traced.causal is not None and traced.causal.events
    again = run_schedule(scenario, PrefixPolicy([]), causal=True)
    assert again.causal.events == traced.causal.events
    assert again.causal.total == traced.causal.total


def test_make_trace_embeds_replayable_causal_tail():
    from repro.check.replay import make_trace, replay_trace
    from repro.check.scenarios import SCENARIOS
    from repro.check.scheduler import PrefixPolicy, run_schedule

    scenario = SCENARIOS["fcfs-race"]
    outcome = run_schedule(scenario, PrefixPolicy([]), causal=True)
    trace = make_trace(scenario, outcome, causal=outcome.causal)
    assert trace["causal_events"]
    assert len(trace["causal_events"]) <= 200
    assert json.dumps(trace)  # persists as plain JSON
    # The extra key is tolerated by replay.
    replayed = replay_trace(trace)
    assert replayed.status == trace["status"]


def test_torn_send_fault_is_visible_in_causal_trace():
    from repro.check.scenarios import SCENARIOS
    from repro.check.scheduler import PrefixPolicy, run_schedule

    scenario = SCENARIOS["fcfs-race"]
    outcome = run_schedule(scenario, PrefixPolicy([]), fault="torn-send",
                           causal=True)
    # Whatever the verdict, the torn sends themselves must be traced.
    key = busiest_lnvc(outcome.causal)
    data_sends = [e for e in outcome.causal.sends() if e.lnvc == key]
    assert len(data_sends) == 8  # 2 senders x 4 racing messages
    assert {e.pid for e in data_sends} == {0, 1}
