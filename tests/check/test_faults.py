"""Fault injection: the checker must detect the bugs it claims to detect."""

from __future__ import annotations

from repro import FCFS, SimRuntime
from repro.check import SCENARIOS, RandomPolicy, explore, run_schedule
from repro.check.scheduler import _LogEnv, _logged
from repro.core import ops
from repro.obs import Recorder
from repro.runtime.base import Env
from repro.testing import DirectRunner, make_view


def test_torn_send_caught_as_invariant_violation():
    result = explore(SCENARIOS["fcfs-race"], seeds=range(50),
                     fault="torn-send")
    assert result.failure is not None, "torn-send went undetected"
    assert result.failure.status == "invariant"
    # The orphaned message shows up as a counter-vs-FIFO mismatch (or a
    # downstream conservation break once the run stalls).
    assert "FIFO holds" in result.failure.detail or \
        "reachability broken" in result.failure.detail


def test_torn_send_caught_under_churn():
    result = explore(SCENARIOS["connect-churn"], seeds=range(50),
                     fault="torn-send")
    assert result.failure is not None
    assert result.failure.status == "invariant"


def test_drop_wake_caught_as_lost_wakeup():
    result = explore(SCENARIOS["mixed-protocol"], seeds=range(20),
                     fault="drop-wake")
    assert result.failure is not None, "drop-wake went undetected"
    out = result.failure
    assert out.status == "deadlock"
    assert out.report is not None
    assert out.report.kind == "lost-wakeup"
    # Sleepers on a circuit with deliverable traffic, by protocol.
    deliverable = [b for b in out.report.blocked if b.deliverable]
    assert deliverable, out.report.render()
    assert {b.proto for b in out.report.blocked} <= {"FCFS", "BROADCAST"}
    assert "lost wakeup" in out.detail


def test_stall_report_renders_blocked_workers():
    result = explore(SCENARIOS["mixed-protocol"], seeds=range(20),
                     fault="drop-wake")
    text = result.failure.report.render()
    assert "sleeping on circuit" in text
    for b in result.failure.report.blocked:
        assert b.name in text


def test_fault_runs_are_deterministic():
    sc = SCENARIOS["mixed-protocol"]
    a = run_schedule(sc, RandomPolicy(5), fault="drop-wake")
    b = run_schedule(sc, RandomPolicy(5), fault="drop-wake")
    assert a.status == b.status
    assert a.decisions == b.decisions


# -- where a fault lands -----------------------------------------------------


def test_torn_send_takes_exactly_the_data_sends():
    """fcfs-race sends 8 payloads on ``data`` and 5 tokens on ``gate`` and
    ``go``: the 8 take the torn window, the 5 the locked path."""
    sc = SCENARIOS["fcfs-race"]
    rec = Recorder()
    result = SimRuntime(recorder=rec).run(
        [_logged(w, "torn-send") for w in sc.build()], cfg=sc.cfg)
    sent = [s[0] for log, _ in result.results.values() for s in log]
    assert sent.count("data") == 8 and len(sent) == 13
    assert rec.work["fault-torn-window"].count == 8
    assert rec.work["send-fixed"].count == 5


def test_drop_wake_takes_only_the_data_sends_wake():
    """A ``data`` send under drop-wake loses its ``Wake``; a ``gate`` send
    keeps it."""
    v = make_view()
    r = DirectRunner(v)
    env = _LogEnv(Env(v, 0, 2, float), "drop-wake")
    wakes = {}
    for name in ("data", "gate"):
        lid = r.run(env.open_send(name))
        r.run(ops.open_receive(v, 1, name, FCFS))
        r.wakes.clear()
        r.run(env.message_send(lid, b"x"))
        wakes[name] = len(r.wakes)
    assert wakes == {"data": 0, "gate": 1}
    assert [s[0] for s in env.sent] == ["data", "gate"]
