"""Schedule policies and the controlled-run driver.

The simulated engine resolves ties in simulated time FIFO by sequence
number; under :class:`~repro.machine.engine.ZeroTimingModel` *every*
pending event is a tie, so the set of schedules a policy can induce is
exactly the set of interleavings of the program's effect boundaries.
:func:`run_schedule` executes one scenario under one policy and
classifies the outcome; :func:`explore` and :func:`explore_dfs` drive
many runs (seeded random walks, preemption-bounded walks, exhaustive
DFS) hunting for a failing schedule.

Every run records its **decision trace** — the chosen candidate index at
each >1-candidate scheduling point, plus the candidate-set width — which
makes any outcome replayable and minimizable (:mod:`repro.check.replay`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..core.costmodel import DEFAULT_COSTS
from ..core.errors import DeadlockSuspectedError, MPFError
from ..core.inspect import traffic_totals
from ..core.layout import SegmentLayout, format_region
from ..core.ops import MPFView, fusion_enabled
from ..core.protocol import Protocol
from ..core.region import SharedRegion
from ..machine.engine import DeadlockError, Engine, SimulationError, ZeroTimingModel
from ..runtime.base import Env, Worker
from .deadlock import StallReport, analyze_stall
from .faults import drop_wake, unlocked_send
from .invariants import (
    InvariantViolation,
    SteadyProbe,
    check_delivery,
    collect_violations,
)
from .scenarios import Scenario

__all__ = [
    "Outcome",
    "RandomPolicy",
    "BoundedPolicy",
    "PrefixPolicy",
    "ControlledPolicy",
    "run_schedule",
    "explore",
    "explore_dfs",
    "run_real",
]


class RandomPolicy:
    """Uniform seeded random walk over the interleaving space."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, now: float, procs: Sequence) -> int:
        return self._rng.randrange(len(procs))


class BoundedPolicy:
    """Preemption-bounded random walk.

    Switching away from the last-run process *while it is still
    runnable* is a preemption; classic results show most concurrency
    bugs need only a few.  This policy spends at most ``bound``
    preemptions, then degrades to run-to-completion order — focusing the
    walk on the low-preemption schedules where bugs live.
    """

    def __init__(self, seed: int, bound: int = 2) -> None:
        self.seed = seed
        self.bound = bound
        self._rng = random.Random(seed)
        self._last: int | None = None
        self._left = bound

    def choose(self, now: float, procs: Sequence) -> int:
        pids = [p.pid for p in procs]
        if self._last in pids:
            stay = pids.index(self._last)
            if self._left > 0 and self._rng.random() < 0.5:
                idx = self._rng.randrange(len(procs))
                if idx != stay:
                    self._left -= 1
            else:
                idx = stay
        else:
            idx = self._rng.randrange(len(procs))
        self._last = procs[idx].pid
        return idx


class PrefixPolicy:
    """Follow a fixed decision prefix, then default to FIFO (index 0).

    The workhorse of both replay (prefix = a recorded trace) and DFS
    (prefix = the next branch to force).  Out-of-range decisions clamp
    to the last candidate, keeping stale traces harmless.
    """

    def __init__(self, prefix: Sequence[int]) -> None:
        self.prefix = list(prefix)
        self._i = 0

    def choose(self, now: float, procs: Sequence) -> int:
        i = self._i
        self._i += 1
        if i < len(self.prefix):
            return min(self.prefix[i], len(procs) - 1)
        return 0


class ControlledPolicy:
    """Record an inner policy's decisions; optionally probe invariants.

    This is what actually gets installed as ``Engine(scheduler=...)``:
    it forwards ``choose`` to ``inner``, clamps the answer, appends
    ``(decision, width)`` to the trace, and — when a probe is given —
    evaluates it first, so invariant violations surface at the decision
    point that exposed them.
    """

    def __init__(self, inner, probe: Callable | None = None) -> None:
        self.inner = inner
        self.probe = probe
        self.decisions: list[int] = []
        self.widths: list[int] = []
        self.engine = None

    def attach(self, engine) -> None:
        self.engine = engine
        attach = getattr(self.inner, "attach", None)
        if attach is not None:
            attach(engine)

    def choose(self, now: float, procs: Sequence) -> int:
        if self.probe is not None:
            self.probe(self.engine)
        idx = self.inner.choose(now, procs)
        if not 0 <= idx < len(procs):
            idx = 0
        self.decisions.append(idx)
        self.widths.append(len(procs))
        return idx


@dataclass
class Outcome:
    """Everything one controlled run produced."""

    #: ``"ok"`` | ``"invariant"`` | ``"deadlock"`` | ``"crash"`` | ``"livelock"``
    status: str
    detail: str
    #: Decision trace: chosen candidate index per >1-candidate point.
    decisions: list[int]
    #: Candidate-set width at each decision (for DFS/minimization).
    widths: list[int]
    events: int
    #: Process name → its ``(sent, received)`` traffic log
    #: (:func:`~repro.check.invariants.check_delivery`), on completed runs.
    results: dict | None = None
    report: StallReport | None = None
    view: MPFView | None = None
    #: Steady-tier invariant evaluations performed during the run.
    steady_checks: int = 0
    #: Causal tracer (``run_schedule(causal=True)``): the per-message
    #: lifecycle record of this run, for printing next to the decision
    #: trace when a schedule fails.
    causal: object | None = None

    @property
    def failed(self) -> bool:
        return self.status != "ok"


class _LogEnv(Env):
    """An :class:`Env` that logs the traffic :func:`check_delivery` judges.

    Each completed ``message_send`` is logged as ``(circuit, rank,
    payload)`` and each completed ``message_receive`` as ``(circuit, rank,
    protocol, payload)``, circuits named from this worker's own opens.
    The run's fault is injected into every send on the circuit named
    ``data``: ``torn-send`` routes it through
    :func:`~repro.check.faults.unlocked_send`, ``drop-wake`` wraps it in
    :func:`~repro.check.faults.drop_wake`.
    """

    __slots__ = ("fault", "names", "protocols", "sent", "received")

    def __init__(self, env: Env, fault: str | None) -> None:
        super().__init__(env.view, env.rank, env.nprocs, env.now)
        self.fault = fault
        self.names: dict[int, str] = {}
        self.protocols: dict[int, Protocol] = {}
        self.sent: list[tuple] = []
        self.received: list[tuple] = []

    def open_send(self, name):
        lid = yield from super().open_send(name)
        self.names[lid] = name
        return lid

    def open_receive(self, name, protocol):
        lid = yield from super().open_receive(name, protocol)
        self.names[lid] = name
        self.protocols[lid] = protocol
        return lid

    def message_send(self, lnvc_id, data, prelude=None):
        name = self.names[lnvc_id]
        if name == "data" and self.fault == "torn-send":
            op = unlocked_send(self.view, self.rank, lnvc_id, data)
        else:
            op = super().message_send(lnvc_id, data, prelude)
            if name == "data" and self.fault == "drop-wake":
                op = drop_wake(op)
        seqno = yield from op
        self.sent.append((name, self.rank, bytes(data)))
        return seqno

    def message_receive(self, lnvc_id, max_len=None):
        payload = yield from super().message_receive(lnvc_id, max_len)
        self.received.append((self.names[lnvc_id], self.rank,
                              self.protocols[lnvc_id], bytes(payload)))
        return payload


def _logged(worker: Worker, fault: str | None) -> Worker:
    """``worker`` on a :class:`_LogEnv`, returning its ``(sent, received)``."""

    def body(env: Env):
        env = _LogEnv(env, fault)
        yield from worker(env)
        return env.sent, env.received

    return body


def run_schedule(
    scenario: Scenario,
    policy,
    fault: str | None = None,
    max_events: int = 50_000,
    check_steady: bool = True,
    causal: bool = False,
) -> Outcome:
    """Run ``scenario`` once under ``policy``; classify what happened.

    Deterministic: the same scenario, fault, and policy decisions always
    produce the same outcome (the engine itself is deterministic; the
    policy is the only source of variation).  ``causal=True`` attaches a
    :class:`repro.obs.CausalTracer` to the run's view — under
    ``ZeroTimingModel`` the timestamps are all zero but the *event
    order* is meaningful, so a failing schedule's message history reads
    next to its decision trace.
    """
    cfg = scenario.cfg
    workers = [_logged(w, fault) for w in scenario.build()]
    region = SharedRegion(bytearray(SegmentLayout(cfg).total_size))
    layout = format_region(region, cfg)
    view = MPFView(region, layout, DEFAULT_COSTS)
    # Poll sections stay on under the controlled scheduler: the engine
    # parks every section step as its own heap event there, so the
    # policy sees the identical choice points (and decision traces
    # replay) either way — while the checker exercises the same section
    # interpreter the figure runs use.
    view.fuse = fusion_enabled()
    probe = SteadyProbe(view) if check_steady else None
    ctl = ControlledPolicy(policy, probe=probe)
    engine = Engine(
        n_locks=cfg.n_locks,
        n_channels=cfg.n_channels,
        timing=ZeroTimingModel(),
        max_events=max_events,
        scheduler=ctl,
    )
    clock = lambda: engine.now  # noqa: E731
    tracer = None
    if causal:
        from ..obs import Recorder

        rec = Recorder(causal=True)
        rec.attach(view, clock, "sim")
        tracer = rec.causal
    nprocs = len(workers)
    for rank, worker in enumerate(workers):
        engine.spawn(f"p{rank}", worker(Env(view, rank, nprocs, clock)))

    def out(status: str, detail: str, results=None, report=None) -> Outcome:
        return Outcome(
            status=status, detail=detail,
            decisions=list(ctl.decisions), widths=list(ctl.widths),
            events=engine.stats.events, results=results, report=report,
            view=view, steady_checks=probe.checks if probe else 0,
            causal=tracer,
        )

    try:
        engine.run()
    except InvariantViolation as exc:
        return out("invariant", str(exc))
    except DeadlockError as exc:
        report = analyze_stall(engine, view)
        if report.all_wait_chan:
            # Channel sleepers park between operations, so the segment is
            # quiescent: the stall may *be* the symptom of a structural
            # corruption (e.g. a torn link hiding a message).  Check.
            violations = collect_violations(view, level="final")
            if violations:
                return out(
                    "invariant",
                    "stalled with corrupted segment:\n  "
                    + "\n  ".join(violations) + "\n" + report.render(),
                    report=report,
                )
        return out("deadlock", f"{exc}\n{report.render()}", report=report)
    except SimulationError as exc:
        if "exceeded" in str(exc):
            return out("livelock", str(exc))
        return out("crash", f"{type(exc).__name__}: {exc}")
    except MPFError as exc:
        return out("crash", f"{type(exc).__name__}: {exc}")
    except (RuntimeError, AssertionError) as exc:
        return out("crash", f"{type(exc).__name__}: {exc}")

    results = engine.results()
    violations = collect_violations(view, level="final", expect_empty=True)
    violations += check_delivery(results.values(), traffic_totals(view))
    if violations:
        return out("invariant", "\n".join(violations), results=results)
    return out("ok", f"clean ({engine.stats.events} events)", results=results)


@dataclass
class ExploreResult:
    """Summary of a multi-run exploration."""

    runs: int
    by_status: dict = field(default_factory=dict)
    #: First failing outcome, with the policy parameters that found it.
    failure: Outcome | None = None
    failure_seed: int | None = None

    @property
    def found(self) -> bool:
        return self.failure is not None


def explore(
    scenario: Scenario,
    seeds: Iterable[int],
    fault: str | None = None,
    policy: str = "random",
    bound: int = 2,
    max_events: int = 50_000,
    check_steady: bool = True,
    stop_on_failure: bool = True,
    on_run: Callable[[int, Outcome], None] | None = None,
) -> ExploreResult:
    """Random (or preemption-bounded) walk over many seeds."""
    res = ExploreResult(runs=0)
    for seed in seeds:
        if policy == "bounded":
            pol = BoundedPolicy(seed, bound=bound)
        else:
            pol = RandomPolicy(seed)
        outcome = run_schedule(scenario, pol, fault=fault,
                               max_events=max_events,
                               check_steady=check_steady)
        res.runs += 1
        res.by_status[outcome.status] = res.by_status.get(outcome.status, 0) + 1
        if on_run is not None:
            on_run(seed, outcome)
        if outcome.failed and res.failure is None:
            res.failure = outcome
            res.failure_seed = seed
            if stop_on_failure:
                break
    return res


def explore_dfs(
    scenario: Scenario,
    fault: str | None = None,
    max_runs: int = 2_000,
    max_events: int = 50_000,
    check_steady: bool = True,
    stop_on_failure: bool = True,
    on_run: Callable[[int, Outcome], None] | None = None,
) -> ExploreResult:
    """Exhaustive depth-first enumeration of schedules (small spaces).

    Each completed run's trace yields the next branch: advance the
    deepest decision that still has an unexplored sibling, truncate, and
    re-run.  Exhausts the entire interleaving space of scenarios whose
    traces are short enough; ``max_runs`` bounds the rest.
    """
    res = ExploreResult(runs=0)
    prefix: list[int] = []
    while res.runs < max_runs:
        outcome = run_schedule(scenario, PrefixPolicy(prefix), fault=fault,
                               max_events=max_events,
                               check_steady=check_steady)
        res.runs += 1
        if on_run is not None:
            on_run(res.runs - 1, outcome)
        res.by_status[outcome.status] = res.by_status.get(outcome.status, 0) + 1
        if outcome.failed and res.failure is None:
            res.failure = outcome
            if stop_on_failure:
                return res
        d, w = outcome.decisions, outcome.widths
        i = len(d) - 1
        while i >= 0 and d[i] + 1 >= w[i]:
            i -= 1
        if i < 0:
            break  # space exhausted
        prefix = d[:i] + [d[i] + 1]
    return res


def run_real(
    scenario: Scenario,
    fault: str | None = None,
    repeats: int = 20,
    join_timeout: float = 10.0,
    runtime: str = "threads",
) -> list[str]:
    """Cross-validate the scenario on a real runtime.

    The OS scheduler explores interleavings the controlled engine may
    never pick (real preemption is not aligned to effect boundaries;
    on ``runtime="procs"`` two workers really do run at once), so a
    clean sim exploration is re-validated here: run the same workers
    ``repeats`` times on :class:`~repro.runtime.threads.ThreadRuntime`
    or :class:`~repro.runtime.procs.ProcRuntime` and judge each run as
    a controlled one is judged: the final invariants and
    :func:`~repro.check.invariants.check_delivery`, whose header-count
    item is the one real concurrency is likeliest to break.  Returns
    violation strings.
    """
    from ..runtime.procs import ProcRuntime
    from ..runtime.threads import ThreadRuntime

    def final(view) -> list[str]:
        return collect_violations(view, level="final", expect_empty=True)

    out: list[str] = []
    for rep in range(repeats):
        workers = [_logged(w, fault) for w in scenario.build()]
        try:
            if runtime == "procs":
                # The segment is gone when run() returns: judge it inside.
                result = ProcRuntime(join_timeout=join_timeout).run(
                    workers, cfg=scenario.cfg, final_check=final)
                violations = result.final
            else:
                rt = ThreadRuntime(join_timeout=join_timeout)
                result = rt.run(workers, cfg=scenario.cfg)
                violations = final(rt.last_view)
        except DeadlockSuspectedError as exc:
            out.append(f"run {rep}: suspected deadlock: {exc}")
            break
        except MPFError as exc:
            out.append(f"run {rep}: {type(exc).__name__}: {exc}")
            break
        violations += check_delivery(result.results.values(), result.header)
        if violations:
            out.append(f"run {rep}: " + "; ".join(violations))
            break
    return out
