"""Command-line entry for the figure harness.

Usage::

    python -m repro.bench fig3 fig7        # selected figures
    python -m repro.bench all              # everything (full sweeps)
    python -m repro.bench all --jobs 4     # parallel point runners
    python -m repro.bench all --quick      # reduced sweeps
    python -m repro.bench fig6 --json out.json
    python -m repro.bench fig4 --transport ring   # ring instead of free list
    python -m repro.bench all --repeat 3   # interleaved min-of-3 walls

Each figure prints the table of series the paper plots; ``--json``
archives the raw points.  ``--transport ring`` reruns the workload
figures (fig3-fig6) over the ring transport (docs/transport.md); the
dedicated head-to-head entries are ``ablation_transport_fcfs`` /
``_bcast`` / ``_random``.  ``--jobs N`` measures sweep points on a pool
of N worker processes; every point is an independent deterministic
simulation and results are reassembled in sweep order, so the output is
byte-identical to a serial run.  ``--timings PATH`` archives per-figure
wall times as JSON (how BENCH_*.json files are produced).

The ``profile`` subcommand runs one figure under :mod:`cProfile` and
prints the hottest functions — the tool that guided the interpreter
fast path::

    python -m repro.bench profile fig7 --quick --limit 25

The ``trace`` subcommand profiles a figure's lock contention with a
:class:`repro.obs.Recorder` across runtimes (simulator and/or real
threads/processes)::

    python -m repro.bench trace fig4 --quick
    python -m repro.bench trace fig4 --runtime sim --runtime procs
    python -m repro.bench trace fig4 --chrome fig4.trace.json --jsonl fig4.jsonl
    python -m repro.bench trace fig4 --quick --causal --flow fig4.dot

The ``serve`` subcommand runs the open-loop serving sweep
(:mod:`repro.serve`) — goodput and SLO latency vs offered load for the
unbatched baseline against send batching;
``--timeline`` writes the traced probe's windowed-telemetry document
and ``--live`` serves a mid-run scrape endpoint (docs/telemetry.md)::

    python -m repro.bench serve --quick
    python -m repro.bench serve --jobs 4 --json slo.json --prom serve.prom
    python -m repro.bench serve --quick --timeline serve-timeline.json

The ``regress`` subcommand compares the newest archived
``BENCH_*.json`` wall-clock snapshot against its predecessor and exits
nonzero when a figure slowed past the noise-aware threshold::

    python -m repro.bench regress --dir . --tolerance 0.5

``--chrome`` writes one ``chrome://tracing`` file per runtime (open via
the "Load" button there or in https://ui.perfetto.dev), ``--jsonl`` one
JSON-lines event dump per runtime; both describe the largest swept
receiver count.  ``--causal`` turns on per-message lifecycle tracing
(sojourn latency columns in the table, a stage breakdown and stall
report per runtime, async message spans in ``--chrome`` output);
``--flow`` then writes the message flow graph as Graphviz DOT and
``--prom`` the metrics in Prometheus text exposition format.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .figures import CONTENTION, FIGURES


def _suffixed(path: str, kind: str) -> str:
    """``fig4.trace.json`` + ``procs`` -> ``fig4.trace-procs.json``."""
    if "." in path.rsplit("/", 1)[-1]:
        stem, ext = path.rsplit(".", 1)
        return f"{stem}-{kind}.{ext}"
    return f"{path}-{kind}"


def trace_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench trace",
        description="Profile a figure's lock contention across runtimes "
        "with a Recorder.",
    )
    parser.add_argument(
        "figure", choices=sorted(CONTENTION),
        help="figure to profile",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sweeps (for CI)"
    )
    parser.add_argument(
        "--transport", default="freelist", choices=("freelist", "ring"),
        help="payload transport for every circuit of the profiled "
        "workload (default: freelist, the paper's path)",
    )
    parser.add_argument(
        "--runtime", action="append", dest="runtimes",
        choices=("sim", "threads", "procs"), metavar="KIND",
        help="runtime(s) to profile on: sim, threads or procs "
        "(repeatable; default: sim and procs)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write raw results as JSON"
    )
    parser.add_argument(
        "--jsonl", metavar="PATH",
        help="write the largest point's events as JSON lines, one file "
        "per runtime (PATH gets a -<runtime> suffix)",
    )
    parser.add_argument(
        "--chrome", metavar="PATH",
        help="write the largest point's chrome://tracing file, one per "
        "runtime (PATH gets a -<runtime> suffix)",
    )
    parser.add_argument(
        "--causal", action="store_true",
        help="also trace per-message lifecycles and window them into a "
        "timeline: sojourn latency columns, a per-LNVC stage breakdown "
        "and the health findings per runtime",
    )
    parser.add_argument(
        "--prom", metavar="PATH",
        help="write the largest point's metrics in Prometheus text "
        "exposition format, one file per runtime (PATH gets a -<runtime> "
        "suffix); message metrics appear with --causal",
    )
    parser.add_argument(
        "--flow", metavar="PATH",
        help="write the largest point's message flow graph as Graphviz "
        "DOT, one file per runtime (PATH gets a -<runtime> suffix); "
        "requires --causal",
    )
    args = parser.parse_args(argv)
    if args.flow and not args.causal:
        parser.error("--flow requires --causal (the graph is built from "
                     "lifecycle events)")
    kinds = tuple(args.runtimes) if args.runtimes else ("sim", "procs")

    t0 = time.perf_counter()
    result = CONTENTION[args.figure](args.quick, kinds, causal=args.causal,
                                     transport=args.transport)
    wall = time.perf_counter() - t0
    print(result.format_table())
    print()
    print(result.format_extras())

    for kind in kinds:
        ns = [n for (k, n) in result.recorders if k == kind]
        if not ns:
            continue
        top = max(ns)
        rec = result.recorders[(kind, top)]
        print()
        unit = result.x_label.split(" ", 1)[0]
        print(f"{args.figure} lock profile — {kind} runtime, "
              f"{unit}={top}:")
        print(rec.format_lock_profile())
        if rec.machine:
            ev = rec.machine.get("events", 0)
            pops = rec.machine.get("heap_pops", 0)
            print(f"  heap crossings: {ev:,} events, "
                  f"{rec.machine.get('heap_pushes', 0):,} pushes, "
                  f"{pops:,} pops "
                  f"({ev / pops if pops else float('inf'):,.1f} events/pop)")
        if args.causal and rec.causal is not None:
            from ..obs import (
                HealthEngine, flow_dot, flow_from_causal, format_sojourn,
            )

            print()
            print(f"{args.figure} message sojourn — {kind} runtime, "
                  f"largest point:")
            print(format_sojourn(rec.causal))
            findings = HealthEngine(rec.timeline).scan()
            if findings:
                print()
                print("health findings:")
                for f in findings:
                    print(f"  (!) {f.detail}")
            if args.flow:
                path = _suffixed(args.flow, kind)
                with open(path, "w") as fh:
                    fh.write(flow_dot(flow_from_causal(rec.causal)))
                print(f"wrote {path}")
        if args.prom:
            path = _suffixed(args.prom, kind)
            with open(path, "w") as fh:
                fh.write(rec.prometheus())
            print(f"wrote {path}")
        if args.jsonl:
            path = _suffixed(args.jsonl, kind)
            rec.write_jsonl(path)
            print(f"wrote {path}")
        if args.chrome:
            path = _suffixed(args.chrome, kind)
            rec.write_chrome_trace(path)
            print(f"wrote {path}")

    print(f"\n  [{wall:.1f}s wall]")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def polling_line(work: dict) -> str:
    """Simulated ``check_receive`` charges per ``message_receive``.

    Read off a recorder's ``work`` table — what the simulated machine
    pays for polling.  ``select_receive``'s idle wait runs inside the
    engine, so host-side call counts (cProfile rows, the ledger's
    ``checks_per_receive``) no longer show it.  Empty when the figure
    never checks.
    """
    def count(label: str) -> int:
        return work[label].count if label in work else 0

    checks = count("check-fixed")
    recvs = count("recv-fixed") + count("ring-recv-fixed")
    if not (checks and recvs):
        return ""
    return (f"{checks:,} check_receive for {recvs:,} message_receive = "
            f"{checks / recvs:.1f} checks per receive")


def profile_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench profile",
        description="Run one figure under cProfile and print the hottest "
        "functions (sorted by internal time).",
    )
    parser.add_argument(
        "figure", choices=sorted(FIGURES), help="figure to profile"
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sweeps (for CI)"
    )
    parser.add_argument(
        "--limit", type=int, default=25, metavar="N",
        help="number of rows to print (default 25)",
    )
    parser.add_argument(
        "--sort", default="tottime", choices=("tottime", "cumtime", "ncalls"),
        help="pstats sort key (default tottime)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="also dump raw profile stats (readable with pstats)",
    )
    parser.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="also report the N hottest effect labels (charge count and "
        "charged simulated seconds across every engine the figure runs)",
    )
    args = parser.parse_args(argv)

    import cProfile
    import pstats

    from ..obs import Recorder
    from ..runtime.sim import SimRuntime

    # One recorder hears every simulation the figure runs.
    rec = SimRuntime.profile = Recorder(limit=0) if args.top else None
    pr = cProfile.Profile()
    t0 = time.perf_counter()
    pr.enable()
    try:
        result = FIGURES[args.figure](args.quick)  # profiling is always serial
    finally:
        pr.disable()
        SimRuntime.profile = None
    wall = time.perf_counter() - t0
    print(result.format_table())
    print(f"  [{wall:.1f}s wall under the profiler]\n")
    stats = pstats.Stats(pr)
    stats.sort_stats(args.sort).print_stats(args.limit)
    if rec is not None:
        work = rec.work
        total_n = sum(ws.count for ws in work.values()) or 1
        total_s = sum(ws.seconds for ws in work.values()) or 1.0
        print(f"hottest effect labels ({args.figure}):")
        print(f"  {'label':<16} {'charges':>10} {'%':>6} "
              f"{'sim seconds':>12} {'%':>6}")
        ranked = sorted(work.items(), key=lambda kv: kv[1].seconds,
                        reverse=True)
        for label, ws in ranked[: args.top]:
            print(f"  {label:<16} {ws.count:>10} "
                  f"{100 * ws.count / total_n:>5.1f}% "
                  f"{ws.seconds:>12.6f} {100 * ws.seconds / total_s:>5.1f}%")
        polling = polling_line(work)
        if polling:
            print(f"\nsimulated polling ({args.figure}): {polling}")
        if rec.machine:
            ev = rec.machine["events"]
            pops = rec.machine["heap_pops"]
            print(f"\nheap crossings ({args.figure}, summed over "
                  f"{rec.machine['runs']} simulations):")
            print(f"  events {ev:,}  heap pushes "
                  f"{rec.machine['heap_pushes']:,}  pops {pops:,}  "
                  f"events/pop {ev / pops if pops else float('inf'):,.1f}")
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "serve":
        from ..serve.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "regress":
        from .regress import regress_main

        return regress_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the MPF paper's figures on the simulated "
        "Sequent Balance 21000.",
    )
    parser.add_argument(
        "figures",
        nargs="+",
        help=f"figure names ({', '.join(FIGURES)}) or 'all'",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sweeps (for CI)"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write raw results as JSON"
    )
    parser.add_argument(
        "--plot", action="store_true", help="also render ASCII charts"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="measure sweep points on N worker processes (default 1: "
        "serial; output is identical either way)",
    )
    parser.add_argument(
        "--transport", default="freelist", choices=("freelist", "ring"),
        help="payload transport for figures that sweep an MPF workload "
        "(fig3-fig6; other figures ignore it); default: freelist, "
        "the paper's path",
    )
    parser.add_argument(
        "--timings", metavar="PATH",
        help="write per-figure wall seconds as JSON",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="measure each figure N times in interleaved rounds and "
        "report the per-figure minimum wall (results come from round "
        "one; the runs are deterministic).  Interleaving keeps minima "
        "comparable across figures and across bench invocations under "
        "machine-load drift — use this for A/B timing claims",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    names = list(FIGURES) if "all" in args.figures else args.figures
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")

    import inspect as _inspect

    def _kwargs_for(name: str) -> dict:
        kwargs = {}
        if "transport" in _inspect.signature(FIGURES[name]).parameters:
            kwargs["transport"] = args.transport
        elif args.transport != "freelist":
            print(f"({name} has no transport knob; running as-is)")
        return kwargs

    def _emit(result, wall: float) -> None:
        print(result.format_table())
        extras = result.format_extras()
        if extras:
            print()
            print(extras)
        if args.plot:
            from .plot import ascii_plot

            print()
            print(ascii_plot(result))
        tag = f" (min of {args.repeat})" if args.repeat > 1 else ""
        print(f"  [{wall:.1f}s wall{tag}]")
        print()

    outputs = []
    timings: dict[str, float] = {}
    total0 = time.perf_counter()
    if args.repeat > 1:
        from functools import partial

        from .figures import reset_run_cache
        from .harness import interleaved_rounds

        runners = {
            name: partial(FIGURES[name], args.quick, args.jobs,
                          **_kwargs_for(name))
            for name in names
        }
        rounds = interleaved_rounds(runners, args.repeat,
                                    before_round=reset_run_cache)
        for name in names:
            wall, result = rounds[name]
            timings[name] = round(wall, 2)
            _emit(result, wall)
            outputs.append(result.to_dict())
    else:
        for name in names:
            kwargs = _kwargs_for(name)
            t0 = time.perf_counter()
            result = FIGURES[name](args.quick, args.jobs, **kwargs)
            wall = time.perf_counter() - t0
            timings[name] = round(wall, 2)
            _emit(result, wall)
            outputs.append(result.to_dict())
    total = time.perf_counter() - total0

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(outputs, fh, indent=2)
        print(f"wrote {args.json}")
    if args.timings:
        payload = {
            "jobs": args.jobs,
            "quick": args.quick,
            "repeat": args.repeat,
            "figures": timings,
            "total_seconds": round(total, 2),
        }
        with open(args.timings, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.timings}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
