"""``python -m repro.check`` — explore, replay, and minimize schedules.

Subcommands::

    list                       show scenarios and their injectable faults
    explore  --scenario NAME   hunt for a failing schedule
    replay   --trace FILE      re-run a recorded schedule
    minimize --trace FILE      delta-debug a failing schedule

Exit status: ``explore`` exits 0 when the verdict matches expectation
(clean normally, failing under ``--expect-fail``) and 1 otherwise;
``replay`` exits 0 iff the recorded status reproduces; ``minimize``
exits 0 on success.  The CI ``check-smoke`` job runs ``make check``:
every scenario clean and every fault it declares ``--expect-fail``, so
a checker that stops detecting bugs fails CI.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..obs import format_causal_tail, read_decision_trace, write_decision_trace
from .replay import make_trace, minimize_trace, replay_trace
from .scenarios import SCENARIOS
from .scheduler import PrefixPolicy, explore, explore_dfs, run_schedule, run_real

__all__ = ["main"]


def _add_explore(sub) -> None:
    p = sub.add_parser("explore", help="hunt for a failing schedule")
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--seeds", type=int, default=100,
                   help="number of seeded walks (default 100)")
    p.add_argument("--seed0", type=int, default=0,
                   help="first seed (default 0)")
    p.add_argument("--policy", choices=("random", "bounded", "dfs"),
                   default="random")
    p.add_argument("--bound", type=int, default=2,
                   help="preemption budget for --policy bounded")
    p.add_argument("--fault", default=None,
                   help="inject a fault (see `list` for names)")
    p.add_argument("--max-events", type=int, default=50_000)
    p.add_argument("--no-check-steady", action="store_true",
                   help="skip steady-tier invariant probes (faster)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write the first failing schedule here")
    p.add_argument("--minimize", action="store_true",
                   help="minimize the failing schedule before writing")
    p.add_argument("--expect-fail", action="store_true",
                   help="exit 0 iff a failure IS found (fault-injection CI)")
    p.add_argument("--runtime", choices=("sim", "threads", "procs"),
                   default="sim",
                   help="threads/procs: cross-validate on a real runtime")
    p.add_argument("--repeats", type=int, default=20,
                   help="real-runtime repetitions (--runtime threads|procs)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="systematic schedule exploration for MPF programs",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("list", help="show scenarios and faults")
    _add_explore(sub)
    p = sub.add_parser("replay", help="re-run a recorded schedule")
    p.add_argument("--trace", required=True, metavar="FILE")
    p.add_argument("--max-events", type=int, default=50_000)
    p = sub.add_parser("minimize", help="delta-debug a failing schedule")
    p.add_argument("--trace", required=True, metavar="FILE")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the minimized trace here (default: stdout)")
    p.add_argument("--max-events", type=int, default=50_000)
    args = parser.parse_args(argv)

    if args.cmd == "list":
        for name in sorted(SCENARIOS):
            s = SCENARIOS[name]
            faults = ", ".join(s.faults) if s.faults else "-"
            print(f"{name:16s} faults: {faults:12s} {s.doc}")
        return 0

    if args.cmd == "explore":
        return _explore(args)

    if args.cmd == "replay":
        t0 = time.perf_counter()
        trace = read_decision_trace(args.trace)
        outcome = replay_trace(trace, max_events=args.max_events)
        dt = time.perf_counter() - t0
        print(f"replayed {trace['scenario']}"
              + (f" fault={trace['fault']}" if trace.get("fault") else "")
              + f": {outcome.status} in {dt * 1e3:.0f} ms "
              f"({outcome.events} events, {len(outcome.decisions)} decisions)")
        if outcome.detail:
            print(outcome.detail)
        if outcome.status != trace["status"]:
            print(f"MISMATCH: trace recorded status {trace['status']!r}")
            return 1
        return 0

    if args.cmd == "minimize":
        trace = read_decision_trace(args.trace)
        minimized, stats = minimize_trace(trace, max_events=args.max_events)
        print(f"{stats['original_decisions']} -> "
              f"{stats['minimized_decisions']} decisions "
              f"({stats['nondefault_decisions']} non-default) "
              f"in {stats['replays']} replays")
        if args.out:
            write_decision_trace(minimized, args.out)
            print(f"wrote {args.out}")
        else:
            print(minimized)
        return 0

    raise AssertionError(args.cmd)


def _explore(args) -> int:
    scenario = SCENARIOS[args.scenario]
    if args.fault is not None and args.fault not in scenario.faults:
        print(f"scenario {scenario.name!r} does not support fault "
              f"{args.fault!r} (has: {', '.join(scenario.faults) or 'none'})")
        return 2

    if args.runtime != "sim":
        violations = run_real(scenario, fault=args.fault,
                                 repeats=args.repeats, runtime=args.runtime)
        if violations:
            print(f"{scenario.name} [{args.runtime}]: FAIL")
            for v in violations:
                print("  " + v)
            return 0 if args.expect_fail else 1
        print(f"{scenario.name} [{args.runtime}]: clean over "
              f"{args.repeats} runs")
        return 1 if args.expect_fail else 0

    t0 = time.perf_counter()
    if args.policy == "dfs":
        result = explore_dfs(
            scenario, fault=args.fault, max_runs=args.seeds,
            max_events=args.max_events,
            check_steady=not args.no_check_steady,
        )
        seed = None
    else:
        result = explore(
            scenario, seeds=range(args.seed0, args.seed0 + args.seeds),
            fault=args.fault, policy=args.policy, bound=args.bound,
            max_events=args.max_events,
            check_steady=not args.no_check_steady,
        )
        seed = result.failure_seed
    dt = time.perf_counter() - t0
    counts = ", ".join(f"{k}: {v}" for k, v in sorted(result.by_status.items()))
    print(f"{scenario.name}"
          + (f" fault={args.fault}" if args.fault else "")
          + f" [{args.policy}]: {result.runs} runs in {dt:.2f}s ({counts})")

    if result.failure is not None:
        outcome = result.failure
        print(f"FAILING SCHEDULE found"
              + (f" (seed {seed})" if seed is not None else "")
              + f": {outcome.status}")
        print(outcome.detail)
        # Replay the failing decisions with lifecycle tracing on: the
        # message history of the exact failing schedule (deterministic,
        # so the replay reproduces it) reads next to the decision trace.
        causal_out = run_schedule(
            scenario, PrefixPolicy(outcome.decisions), fault=args.fault,
            max_events=args.max_events, causal=True,
        )
        if causal_out.causal is not None and causal_out.causal.events:
            print()
            print("message lifecycle tail of the failing schedule:")
            print(format_causal_tail(causal_out.causal))
        if args.trace:
            trace = make_trace(scenario, outcome, fault=args.fault,
                               seed=seed, policy=args.policy,
                               causal=causal_out.causal)
            if args.minimize:
                trace, stats = minimize_trace(trace,
                                              max_events=args.max_events)
                print(f"minimized {stats['original_decisions']} -> "
                      f"{stats['minimized_decisions']} decisions "
                      f"in {stats['replays']} replays")
            write_decision_trace(trace, args.trace)
            print(f"wrote {args.trace}")
        return 0 if args.expect_fail else 1
    return 1 if args.expect_fail else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
