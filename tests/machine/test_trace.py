"""The engine's observer on a simulated run: what a ``Recorder`` keeps."""

from repro.core.protocol import FCFS
from repro.obs import Recorder
from repro.runtime.sim import SimRuntime


def traced_run(workers, **kw):
    rec = Recorder(**kw)
    result = SimRuntime(recorder=rec).run(workers)
    return rec, result


def loopback(env):
    sid = yield from env.open_send("loop")
    rid = yield from env.open_receive("loop", FCFS)
    for _ in range(4):
        yield from env.message_send(sid, b"x" * 100)
        yield from env.message_receive(rid)
    yield from env.close_send(sid)
    yield from env.close_receive(rid)


def test_tracer_records_events():
    rec, result = traced_run([loopback])
    assert rec.total > 0
    assert rec.total == len(rec.spans)
    assert result.report.events >= rec.total


def test_events_time_ordered():
    rec, _ = traced_run([loopback])
    times = [span.time for span in rec.spans]
    assert times == sorted(times)


def test_summary_counts_by_kind():
    rec, _ = traced_run([loopback])
    summary = rec.summary()["p0"]
    assert summary["Acquire"] == summary["Release"]
    assert summary["Wake"] == 4  # one per send
    assert summary["Charge"] > 8


def test_charge_breakdown_labels():
    rec, _ = traced_run([loopback])
    breakdown = rec.charge_breakdown()
    for label in ("send-fixed", "send-copy", "recv-fixed", "recv-copy",
                  "send-link", "open"):
        assert breakdown[label] > 0, f"missing label {label}"


def _echo(nbytes):
    def worker(env):
        sid = yield from env.open_send("loop")
        rid = yield from env.open_receive("loop", FCFS)
        for _ in range(4):
            yield from env.message_send(sid, b"x" * nbytes)
            yield from env.message_receive(rid)

    return worker


def test_copy_dominates_for_large_messages():
    """The Figure 3 analysis, recovered from the recording: at large
    messages the copy labels outweigh the fixed labels."""
    rec, _ = traced_run([_echo(2048)])
    b = rec.charge_breakdown()
    copies = b["send-copy"] + b["recv-copy"]
    fixed = b["send-fixed"] + b["recv-fixed"]
    assert copies > 3 * fixed


def test_fixed_dominates_for_small_messages():
    rec, _ = traced_run([_echo(10)])
    b = rec.charge_breakdown()
    copies = b["send-copy"] + b["recv-copy"]
    fixed = b["send-fixed"] + b["recv-fixed"]
    assert fixed > 3 * copies


def test_lock_profile_counts_acquires():
    rec, result = traced_run([loopback])
    profile = rec.lock_profile()
    assert sum(profile.values()) == result.report.lock_acquires > 0
    assert all(isinstance(k, int) for k in profile)


def test_limit_caps_recording_not_counting():
    rec, _ = traced_run([loopback], limit=5)
    assert len(rec.spans) == 5
    assert rec.total == 5 + rec.dropped_spans > 5
    full, _ = traced_run([loopback])
    assert rec.summary() == full.summary()
