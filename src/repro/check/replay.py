"""Record, replay, and minimize failing schedules.

A controlled run is fully determined by its scenario, its injected
fault, and the sequence of candidate indices chosen at each scheduling
decision.  That sequence *is* the bug report: persisting it
(:func:`make_trace` + :func:`repro.obs.write_decision_trace`) turns
"fails one run in two hundred" into "fails every time, in milliseconds".

Minimization is greedy delta-debugging over the decision list: first
binary-search the shortest failing prefix (everything beyond a trace's
prefix defaults to FIFO order), then zero out individual decisions while
the failure persists.  The result is typically a handful of non-default
choices — the preemptions that matter, human-readably few.
"""

from __future__ import annotations

from .scenarios import SCENARIOS, Scenario
from .scheduler import Outcome, PrefixPolicy, run_schedule

__all__ = ["make_trace", "replay_trace", "minimize_trace"]


#: Cap on lifecycle events embedded in a trace file by ``make_trace``:
#: enough for the failure neighborhood, bounded so trace files stay
#: hand-readable.
CAUSAL_TAIL_EVENTS = 200


def make_trace(
    scenario: Scenario,
    outcome: Outcome,
    fault: str | None = None,
    seed: int | None = None,
    policy: str = "random",
    causal=None,
) -> dict:
    """Bundle a run's decisions with the metadata needed to redo it.

    ``causal`` (a :class:`repro.obs.CausalTracer`, typically from a
    ``run_schedule(..., causal=True)`` replay of the same decisions)
    embeds the last :data:`CAUSAL_TAIL_EVENTS` message-lifecycle events
    under a ``causal_events`` key — extra context replay tools ignore
    (the format is tolerant of unknown keys) but humans read.
    """
    trace = {
        "format": 1,
        "scenario": scenario.name,
        "fault": fault,
        "policy": policy,
        "seed": seed,
        "decisions": list(outcome.decisions),
        "widths": list(outcome.widths),
        "status": outcome.status,
        "detail": outcome.detail.splitlines()[0] if outcome.detail else "",
    }
    if causal is not None and causal.events:
        trace["causal_events"] = [
            e._asdict() for e in causal.events[-CAUSAL_TAIL_EVENTS:]
        ]
    return trace


def _scenario_of(trace: dict) -> Scenario:
    name = trace.get("scenario")
    if name not in SCENARIOS:
        raise ValueError(f"trace names unknown scenario {name!r}")
    return SCENARIOS[name]


def replay_trace(trace: dict, max_events: int = 50_000) -> Outcome:
    """Re-execute the schedule a trace records; returns the new outcome.

    Deterministic: replaying an unmodified trace reproduces the recorded
    status exactly (the decisions pin every scheduling choice; past the
    trace's end the engine follows default FIFO order).
    """
    return run_schedule(
        _scenario_of(trace),
        PrefixPolicy(trace["decisions"]),
        fault=trace.get("fault"),
        max_events=max_events,
    )


def minimize_trace(
    trace: dict, max_events: int = 50_000
) -> tuple[dict, dict]:
    """Shrink a failing trace; returns ``(minimized_trace, stats)``.

    The minimized trace reproduces the *same status* as the original.
    ``stats`` reports the original and final lengths, the number of
    non-default (non-zero) decisions remaining, and replays spent.
    """
    scenario = _scenario_of(trace)
    fault = trace.get("fault")
    target = trace["status"]
    decisions = list(trace["decisions"])
    replays = 0

    def fails(candidate: list[int]) -> Outcome | None:
        nonlocal replays
        replays += 1
        out = run_schedule(scenario, PrefixPolicy(candidate), fault=fault,
                           max_events=max_events)
        return out if out.status == target else None

    if fails(decisions) is None:
        raise ValueError(
            f"trace does not reproduce status {target!r}; nothing to minimize"
        )

    # Pass 1: shortest failing prefix, by binary search.  The predicate
    # is not guaranteed monotone over prefix length, so the result is
    # verified (and the search is only an accelerator, not an oracle).
    lo, hi = 0, len(decisions)
    while lo < hi:
        mid = (lo + hi) // 2
        if fails(decisions[:mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    if fails(decisions[:hi]) is not None:
        decisions = decisions[:hi]

    # Pass 2: zero out decisions (0 = default FIFO choice) while the
    # failure persists; repeat to a fixpoint.
    changed = True
    while changed:
        changed = False
        for i in range(len(decisions)):
            if decisions[i] == 0:
                continue
            candidate = decisions[:i] + [0] + decisions[i + 1:]
            if fails(candidate) is not None:
                decisions = candidate
                changed = True
        # Trailing zeros are implicit (PrefixPolicy defaults to 0).
        while decisions and decisions[-1] == 0:
            decisions.pop()

    final = fails(decisions)
    assert final is not None, "minimized trace must still fail"
    minimized = dict(trace)
    minimized["decisions"] = decisions
    minimized["widths"] = final.widths[:len(decisions)]
    minimized["detail"] = (final.detail.splitlines()[0]
                           if final.detail else "")
    minimized["minimized_from"] = len(trace["decisions"])
    stats = {
        "original_decisions": len(trace["decisions"]),
        "minimized_decisions": len(decisions),
        "nondefault_decisions": sum(1 for d in decisions if d),
        "replays": replays,
    }
    return minimized, stats
