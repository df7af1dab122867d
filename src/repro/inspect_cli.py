"""``mpf-inspect`` — dump the live state of a named MPF segment.

Operational counterpart of :mod:`repro.core.inspect`: attach read-only
to a segment created by :class:`repro.runtime.posix.PosixSegment` from
any terminal and print its circuits, connections, queues and pool
occupancy::

    mpf-inspect myapp

The name is all it needs: :meth:`~repro.runtime.posix.PosixSegment.attach`
reads the creator's recorded config and checks it against the segment
header, so a mismatch is an error, not a garbled dump.  The dump takes
no locks; on a busy segment the snapshot may be torn — see the
consistency caveat in :mod:`repro.core.inspect`.

With ``--replay TRACE`` the tool instead re-executes a decision trace
recorded by ``python -m repro.check`` and dumps the segment the failing
schedule leaves behind — the same inspector, pointed at a reproduced
bug instead of a live segment::

    mpf-inspect --replay fail.json

``--flow`` adds the message flow graph (pid -> LNVC -> pid) in Graphviz
DOT, built from queue state and connection read counts for a live
segment, or from the full lifecycle trace for a replay::

    mpf-inspect myapp --flow | dot -Tsvg > flow.svg

There is no live mode: a run's windowed series are read after it
finishes, from the ``bench serve --timeline`` document
(docs/telemetry.md).
"""

from __future__ import annotations

import argparse
import sys

from .core.inspect import inspect_segment, render_segment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpf-inspect",
        description="Dump the live state of a named MPF shared segment.",
    )
    parser.add_argument("name", nargs="?", default=None,
                        help="segment name (as passed to PosixSegment.create)")
    parser.add_argument("--replay", default=None, metavar="TRACE",
                        help="replay a repro.check decision trace and dump "
                             "the segment it leaves behind")
    parser.add_argument("--flow", action="store_true",
                        help="also print the message flow graph "
                             "(pid -> LNVC -> pid) as Graphviz DOT")
    args = parser.parse_args(argv)

    if args.replay is not None:
        return _replay(args.replay, flow=args.flow)
    if args.name is None:
        parser.error("a segment name is required (or use --replay TRACE)")

    from .runtime.posix import PosixSegment

    try:
        with PosixSegment.attach(args.name) as seg:
            info = inspect_segment(seg.view)
    except FileNotFoundError:
        print(f"error: no shared segment named {args.name!r}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_segment(info))
    if args.flow:
        from .obs import flow_dot, flow_from_segment

        print()
        print(flow_dot(flow_from_segment(info)))
    return 0


def _replay(path: str, flow: bool = False) -> int:
    """Re-run a recorded schedule and dump the segment it produces."""
    from .check.scenarios import SCENARIOS
    from .check.scheduler import PrefixPolicy, run_schedule
    from .obs import read_decision_trace

    try:
        trace = read_decision_trace(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = trace.get("scenario")
    if name not in SCENARIOS:
        print(f"error: trace names unknown scenario {name!r}", file=sys.stderr)
        return 2
    # Re-run through run_schedule directly (not replay_trace) so --flow
    # can trace the replay's message lifecycles.
    outcome = run_schedule(
        SCENARIOS[name], PrefixPolicy(trace["decisions"]),
        fault=trace.get("fault"), causal=flow,
    )
    print(f"replayed {trace['scenario']}"
          + (f" fault={trace['fault']}" if trace.get("fault") else "")
          + f": {outcome.status} ({outcome.events} events)")
    if outcome.detail:
        print(outcome.detail)
    print()
    print(render_segment(inspect_segment(outcome.view)))
    if flow and outcome.causal is not None:
        from .obs import flow_dot, flow_from_causal

        print()
        print(flow_dot(flow_from_causal(outcome.causal)))
    return 0 if outcome.status == trace["status"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
