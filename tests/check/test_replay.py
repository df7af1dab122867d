"""Record / replay / minimize: a failure is a file, not a fluke."""

from __future__ import annotations


import pytest

from repro.check import (
    SCENARIOS,
    explore,
    make_trace,
    minimize_trace,
    replay_trace,
)
from repro.obs import read_decision_trace, write_decision_trace


def _failing_trace():
    scenario = SCENARIOS["fcfs-race"]
    result = explore(scenario, seeds=range(50), fault="torn-send")
    assert result.failure is not None
    return make_trace(scenario, result.failure, fault="torn-send",
                      seed=result.failure_seed, policy="random")


def test_trace_roundtrips_through_file(tmp_path):
    trace = _failing_trace()
    path = tmp_path / "fail.json"
    write_decision_trace(trace, path)
    assert read_decision_trace(path) == trace


#: Engine events a replay of the torn-send failure may run: the failing
#: schedule is a few hundred events long, and a replay that lost its
#: way would run on to ``replay_trace``'s 50,000-event cap.
REPLAY_EVENTS = 2_000


def test_replay_reproduces_failure_fast():
    trace = _failing_trace()
    outcome = replay_trace(trace)
    assert outcome.status == trace["status"]
    assert outcome.decisions == trace["decisions"]
    assert 0 < outcome.events <= REPLAY_EVENTS


def test_minimized_trace_still_reproduces_fast():
    trace = _failing_trace()
    minimized, stats = minimize_trace(trace)
    assert stats["minimized_decisions"] <= stats["original_decisions"]
    assert stats["minimized_decisions"] == len(minimized["decisions"])
    assert minimized["minimized_from"] == stats["original_decisions"]
    outcome = replay_trace(minimized)
    assert outcome.status == trace["status"]
    assert 0 < outcome.events <= REPLAY_EVENTS


def test_minimize_rejects_clean_trace():
    scenario = SCENARIOS["fcfs-race"]
    from repro.check import RandomPolicy, run_schedule

    out = run_schedule(scenario, RandomPolicy(0))
    assert out.status == "ok"
    trace = make_trace(scenario, out, seed=0)
    trace["status"] = "invariant"  # lie: claims to fail
    with pytest.raises(ValueError, match="does not reproduce"):
        minimize_trace(trace)


def test_read_trace_rejects_bad_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": 99, "decisions": []}')
    with pytest.raises(ValueError):
        read_decision_trace(path)
