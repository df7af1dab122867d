"""Systematic schedule exploration for MPF programs (a model checker).

The deterministic simulation engine resolves same-time event ties FIFO;
this package replaces that tie-break with a *policy* and turns the
simulator into a stateless model checker: every interleaving of the
program's effect boundaries is a schedule some policy can choose, each
run is deterministic given its decisions, and a failing run is therefore
a replayable, minimizable artifact rather than a flaky repro.

Pieces:

* :mod:`~repro.check.scheduler` — policies (seeded random walk,
  preemption-bounded walk, exhaustive DFS), the controlled-run driver,
  threads / procs cross-validation, and the one logging ``Env`` every
  worker runs on: it records what the worker sent and received, and
  injects the run's fault into its sends on the circuit named ``data``;
* :mod:`~repro.check.invariants` — quiescence tiers plus the one
  delivery law (:func:`check_delivery`, the paper's §2 contract),
  over the structural checks of :mod:`repro.core.inspect`.  The law
  assumes receivers connect before traffic starts and the run drains;
  the scenarios' gate protocol and the final ``expect_empty`` tier
  guarantee both;
* :mod:`~repro.check.deadlock` — stall classification (lock cycle,
  lost wakeup, the paper's §3.2 lost-message hazard) with a wait-for
  report;
* :mod:`~repro.check.replay` — decision-trace record/replay and greedy
  minimization;
* :mod:`~repro.check.scenarios` — adversarial programs (racing FCFS
  receivers, connect/disconnect churn, free-list and block-pool
  exhaustion, mixed-protocol circuits, ring wrap, select polling);
* :mod:`~repro.check.faults` — intentionally broken operations proving
  the checker detects what it claims to detect.

CLI: ``python -m repro.check {list,explore,replay,minimize}``.
See docs/checking.md.
"""

from .deadlock import BlockedInfo, StallReport, analyze_stall
from .invariants import (
    InvariantViolation,
    SteadyProbe,
    check_delivery,
    check_invariants,
    collect_violations,
    segment_quiescent,
)
from .replay import make_trace, minimize_trace, replay_trace
from .scenarios import SCENARIOS, Scenario
from .scheduler import (
    BoundedPolicy,
    ControlledPolicy,
    ExploreResult,
    Outcome,
    PrefixPolicy,
    RandomPolicy,
    explore,
    explore_dfs,
    run_schedule,
    run_real,
)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "Outcome",
    "ExploreResult",
    "RandomPolicy",
    "BoundedPolicy",
    "PrefixPolicy",
    "ControlledPolicy",
    "run_schedule",
    "explore",
    "explore_dfs",
    "run_real",
    "make_trace",
    "replay_trace",
    "minimize_trace",
    "analyze_stall",
    "StallReport",
    "BlockedInfo",
    "InvariantViolation",
    "check_invariants",
    "collect_violations",
    "segment_quiescent",
    "SteadyProbe",
    "check_delivery",
]
