"""Exporter edge cases: empty recorders, span limits, drop accounting.

Satellite guarantees of the causal-tracing PR: every exporter emits a
valid (if empty) document for a recorder that saw nothing, and a
recorder that hit its span limit says so loudly instead of passing a
truncated trace off as complete.
"""

import json

import pytest

from repro.core.protocol import FCFS
from repro.obs import Recorder
from repro.obs.export import chrome_trace, format_summary, to_jsonl
from repro.obs.recorder import Span
from repro.patterns import barrier
from repro.runtime.sim import SimRuntime


def sender(env):
    cid = yield from env.open_send("pipe")
    yield from barrier(env, "go", 2)
    for i in range(6):
        yield from env.message_send(cid, b"m%d" % i)
    yield from env.message_send(cid, b"")
    yield from env.close_send(cid)


def receiver(env):
    cid = yield from env.open_receive("pipe", FCFS)
    yield from barrier(env, "go", 2)
    while (yield from env.message_receive(cid)):
        pass
    yield from env.close_receive(cid)


# -- empty recorders ----------------------------------------------------------


def test_empty_recorder_exports_valid_empty_documents(tmp_path):
    rec = Recorder()
    assert rec.format_summary() == "(nothing recorded)"
    assert "(no lock activity recorded)" in rec.format_lock_profile()
    assert to_jsonl(rec) == ""
    jl = tmp_path / "empty.jsonl"
    rec.write_jsonl(str(jl))
    assert jl.read_text() == ""

    doc = chrome_trace(rec)
    assert doc["traceEvents"] == []
    assert doc["otherData"]["spans_total"] == 0
    assert json.dumps(doc)  # still a loadable trace file
    ct = tmp_path / "empty-trace.json"
    rec.write_chrome_trace(str(ct))
    assert json.loads(ct.read_text())["traceEvents"] == []


def test_spans_disabled_recorder_keeps_counters_and_exports():
    rec = Recorder(limit=0)
    SimRuntime(recorder=rec).run([sender, receiver])
    assert rec.spans == []
    assert rec.total > 0
    assert rec.dropped_spans == rec.total
    assert rec.lock_profile()  # counters complete despite zero spans
    assert to_jsonl(rec) == ""
    doc = chrome_trace(rec)
    assert doc["otherData"]["spans_recorded"] == 0
    assert doc["otherData"]["spans_dropped"] == rec.total
    # Only thread-name metadata remains (processes known from counters).
    assert {e["ph"] for e in doc["traceEvents"]} <= {"M"}


def test_causal_recorder_without_events_omits_causal_trace_keys():
    rec = Recorder(causal=True)
    doc = chrome_trace(rec)
    assert "causal_events" not in doc["otherData"]
    assert doc["traceEvents"] == []


# -- dropped-span accounting (satellite 1) ------------------------------------


def run_limited(limit: int) -> Recorder:
    rec = Recorder(limit=limit)
    SimRuntime(recorder=rec).run([sender, receiver])
    return rec


def test_dropped_spans_invariant_and_warning():
    rec = run_limited(5)
    assert rec.total == len(rec.spans) + rec.dropped_spans
    assert rec.dropped_spans > 0
    text = rec.format_summary()
    assert f"{rec.dropped_spans} of {rec.total} spans dropped" in text
    assert "counters above remain complete" in text


def test_a_span_past_the_bound_is_never_built(monkeypatch):
    """``bench all`` records every figure point with ``Recorder(limit=0,
    causal=True)``: one span offered per effect, none stored — and none
    constructed, since the bound is tested first."""
    import repro.obs.recorder as recorder_module
    from repro.bench.workloads import fcfs_throughput

    class Unbuildable:
        def __init__(self, *fields):
            raise AssertionError(f"built a span nobody stores: {fields}")

    monkeypatch.setattr(recorder_module, "Span", Unbuildable)
    rec = Recorder(limit=0, causal=True)
    fcfs_throughput(4, 16, messages=24, runtime="sim", recorder=rec)
    assert rec.total > 0 and rec.spans == []
    assert rec.dropped_spans == rec.total
    assert rec.lock_profile() and rec.causal.events  # everything else heard


def test_unlimited_recorder_reports_no_drops():
    rec = run_limited(100_000)
    assert rec.dropped_spans == 0
    assert "dropped" not in rec.format_summary()


def test_snapshot_roundtrip_preserves_dropped_spans(exports):
    rec = run_limited(5)
    snap = rec.snapshot()
    assert snap["spans"].dropped == rec.dropped_spans
    merged = Recorder(limit=5)
    merged.clock = rec.clock
    merged.merge(snap)
    assert merged.dropped_spans == rec.dropped_spans
    assert merged.total == rec.total
    assert exports(merged) == exports(rec)


def test_merge_counts_spans_that_do_not_fit():
    big = run_limited(100_000)
    parent = Recorder(limit=3)
    parent.clock = big.clock
    parent.merge(big.snapshot())
    assert len(parent.spans) == 3
    assert parent.total == big.total
    assert parent.dropped_spans == big.total - 3
    assert parent.total == len(parent.spans) + parent.dropped_spans


def test_merge_accumulates_drops_from_both_sides():
    a, b = run_limited(5), run_limited(5)
    parent = Recorder(limit=5)
    parent.clock = a.clock
    parent.merge(a.snapshot())
    parent.merge(b.snapshot())
    assert parent.total == a.total + b.total
    assert parent.total == len(parent.spans) + parent.dropped_spans
    assert len(parent.spans) == 5


# -- exporter robustness ------------------------------------------------------


def test_chrome_trace_tolerates_unknown_span_kind():
    rec = Recorder()
    rec.spans.append(Span(0.5, "p0", "mystery", "custom-thing", 0.001))
    doc = chrome_trace(rec)
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in slices] == ["custom-thing"]
    assert json.dumps(doc)


def test_truncated_recorder_chrome_trace_flags_truncation():
    rec = run_limited(5)
    other = chrome_trace(rec)["otherData"]
    assert other["spans_recorded"] == 5
    assert other["spans_dropped"] == rec.dropped_spans
    assert other["spans_total"] == rec.total


@pytest.mark.parametrize("limit", [0, 1, 7])
def test_jsonl_line_count_matches_stored_spans(limit, tmp_path):
    rec = run_limited(limit)
    path = tmp_path / "spans.jsonl"
    rec.write_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(rec.spans) == min(limit, rec.total)
    for line in lines:
        json.loads(line)
