"""Recorder behaviour across runtimes, merging, and exporters."""

import json
import pickle

import pytest

from repro.core.protocol import FCFS, FIRST_LNVC_LOCK
from repro.obs import Recorder, lock_name
from repro.obs.export import chrome_trace
from repro.patterns import barrier
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
    # Rendezvous before sending: without it the sender could finish and
    # close (deleting the circuit and its queue, paper §3.2) before the
    # receiver even opens — real runtimes hit that race, the simulator's
    # deterministic schedule does not.
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


def run_recorded(kind: str) -> Recorder:
    rec = Recorder()
    result = RUNTIMES[kind](rec).run([sender, receiver])
    assert result.results["p1"] == 6
    return rec


# -- the ISSUE acceptance tests: 2-process FCFS on threads and procs --------


@pytest.mark.parametrize("kind", ["threads", "procs"])
def test_lock_profile_counts_two_process_fcfs(kind):
    rec = run_recorded(kind)
    profile = rec.lock_profile()
    assert profile, "real runtime recorded no lock acquisitions"
    # Both workers touch the global directory lock and the circuit lock.
    circuit_locks = [lid for lid in profile if lid >= FIRST_LNVC_LOCK]
    assert circuit_locks
    # Every explicit Acquire has a matching Release per process.
    for proc, counts in rec.summary().items():
        assert counts["Acquire"] == counts["Release"], proc
    # The clock is wall time on real runtimes.
    assert rec.clock == "wall"
    # Per-process attribution names both workers.
    assert set(rec.summary()) == {"p0", "p1"}


def test_acquire_counts_identical_across_runtimes():
    """The protocol is deterministic: the same program performs exactly
    the same lock acquisitions on the simulator, threads and procs."""
    profiles = {kind: run_recorded(kind).lock_profile() for kind in RUNTIMES}
    assert profiles["threads"] == profiles["sim"]
    assert profiles["procs"] == profiles["sim"]


def test_sim_waits_are_simulated_and_deterministic(exports):
    a, b = run_recorded("sim"), run_recorded("sim")
    assert a.clock == "sim"
    assert exports(a) == exports(b)


# -- aggregates --------------------------------------------------------------


def test_lock_name_layout():
    assert lock_name(0) == "global"
    assert lock_name(1) == "alloc"
    assert lock_name(FIRST_LNVC_LOCK) == "lnvc0"
    assert lock_name(FIRST_LNVC_LOCK + 3) == "lnvc3"


def test_circuit_lock_stats_folds_only_lnvc_locks():
    rec = run_recorded("sim")
    agg = rec.circuit_lock_stats()
    expected = sum(
        ls.acquires for lid, ls in rec.lock_table().items()
        if lid >= FIRST_LNVC_LOCK
    )
    assert agg.acquires == expected
    assert agg.hold_seconds > 0


def test_blocking_receiver_records_chan_wait_and_reacquire():
    rec = run_recorded("sim")
    # The receiver opened before data existed at least once, so it slept
    # on the circuit's wait channel and re-entered the lock on wake.
    assert sum(rec.chan_waits.values()) >= 1
    assert any(ls.reacquires for ls in rec.lock_table().values())


def test_work_split_records_instruction_budgets():
    rec = run_recorded("sim")
    sim_ws = rec.work["send-fixed"]
    assert sim_ws.count >= 7  # 6 payloads + stop, plus barrier traffic
    assert sim_ws.seconds > 0
    wall = run_recorded("threads")
    # Charges are free on real runtimes: budgets recorded, no seconds.
    assert wall.work["send-fixed"].count == sim_ws.count
    assert wall.work["send-fixed"].seconds == 0.0
    assert wall.work["send-fixed"].instrs == sim_ws.instrs


def test_span_limit_bounds_spans_not_counters():
    rec = Recorder(limit=5)
    SimRuntime(recorder=rec).run([sender, receiver])
    assert len(rec.spans) == 5
    assert rec.total > 5
    assert rec.lock_profile()  # counters unaffected


# -- merging -----------------------------------------------------------------


def test_snapshot_merge_roundtrip(exports):
    rec = run_recorded("sim")
    merged = Recorder()
    merged.merge(pickle.loads(pickle.dumps(rec.snapshot())))
    assert merged.clock == "sim"  # an empty recorder takes the clock
    assert merged.lock_profile() == rec.lock_profile()
    assert merged.summary() == rec.summary()
    assert merged.charge_breakdown() == rec.charge_breakdown()
    assert merged.spans == rec.spans
    assert exports(merged) == exports(rec)


def test_merge_accumulates_two_children():
    parent = Recorder()
    c1, c2 = parent.child(), parent.child()
    c1.on_acquire(0.1, "p0", 2, 0.05, contended=True)
    c1.on_release(0.2, "p0", 2, 0.1)
    c2.on_acquire(0.3, "p1", 2, 0.0, contended=False)
    c2.on_charge(0.4, "p1", "app", 0.0, instrs=10)
    parent.merge(c1.snapshot())
    parent.merge(c2.snapshot())
    ls = parent.lock_table()[2]
    assert ls.acquires == 2
    assert ls.contended == 1
    assert ls.wait_seconds == pytest.approx(0.05)
    assert ls.max_wait == pytest.approx(0.05)
    assert parent.work["app"].instrs == 10
    assert parent.total == 4


def test_histogram_buckets():
    rec = Recorder()
    rec.on_acquire(0.0, "p0", 2, 0.5e-6, contended=False)   # bucket 0
    rec.on_acquire(0.0, "p0", 2, 3e-6, contended=True)      # (2,4] µs
    rec.on_acquire(0.0, "p0", 2, 2e-3, contended=True)      # ≤2.048 ms
    buckets = dict(rec.lock_table()[2].wait_hist.buckets())
    assert buckets["≤1µs"] == 1
    assert buckets["≤4µs"] == 1
    assert sum(buckets.values()) == 3


# -- exporters ---------------------------------------------------------------


def test_format_lock_profile_mentions_clock_and_names():
    rec = run_recorded("sim")
    text = rec.format_lock_profile()
    assert "sim-ms" in text
    assert "global" in text and "lnvc0" in text
    wall = run_recorded("threads")
    assert "wall-ms" in wall.format_lock_profile()


def test_format_summary_lists_labels_and_processes():
    rec = run_recorded("sim")
    text = rec.format_summary()
    assert "send-fixed" in text
    assert "p0" in text and "p1" in text


def test_jsonl_sorted_and_parseable():
    rec = run_recorded("sim")
    lines = [json.loads(line) for line in rec.jsonl().splitlines()]
    assert len(lines) == len(rec.spans)
    times = [(ln["time"], ln["process"]) for ln in lines]
    assert times == sorted(times)
    assert {"time", "process", "kind", "name", "duration"} <= set(lines[0])


def test_chrome_trace_structure():
    rec = run_recorded("sim")
    doc = chrome_trace(rec)
    events = doc["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "M"}
    assert "thread_name" in names
    slices = [e for e in events if e["ph"] == "X"]
    assert slices and all(e["dur"] >= 0 and e["ts"] >= 0 for e in slices)
    names = {e["name"] for e in slices}
    assert any(n.startswith("hold ") for n in names)   # lock hold spans
    assert "send-fixed" in names                        # charge spans
    assert json.dumps(doc)  # serializable


def test_write_exporters(tmp_path):
    rec = run_recorded("sim")
    jl, ct = tmp_path / "ev.jsonl", tmp_path / "trace.json"
    rec.write_jsonl(str(jl))
    rec.write_chrome_trace(str(ct))
    assert len(jl.read_text().splitlines()) == len(rec.spans)
    assert "traceEvents" in json.loads(ct.read_text())
