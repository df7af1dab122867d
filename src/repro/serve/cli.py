"""``python -m repro.bench serve`` — the open-loop serving benchmark.

Sweeps offered load over two configurations of the same service shape
(unbatched baseline, send batching), prints the SLO table with detected saturation knees, and optionally
archives the SLO JSON document, and of one causally traced probe at the
knee its Prometheus metrics, its message flow graph and its windowed
timeline document with the health findings::

    python -m repro.bench serve                     # full sweep (sim)
    python -m repro.bench serve --quick             # CI-sized sweep
    python -m repro.bench serve --runtime threads --quick
    python -m repro.bench serve --jobs 4 --json slo.json
    python -m repro.bench serve --prom serve.prom --flow serve.dot
    python -m repro.bench serve --quick --timeline serve-timeline.json

The full sweep pushes over a million MPF messages through the
simulator; ``--jobs N`` spreads the load points over N worker
processes (each point is an independent deterministic simulation, so
output is identical to a serial run).
"""

from __future__ import annotations

import argparse
import json
import time

from .slo import validate_slo
from .sweep import run_point, run_sweep
from .topology import ServeShape

__all__ = ["serve_main"]

#: Sweep presets: (loads in aggregate requests/s, schedule seconds).
#: Sized so the two-config sweep pushes >1M MPF messages through the
#: simulator (the unbatched baseline dominates the message count).
FULL_LOADS = (100.0, 200.0, 300.0, 400.0, 500.0, 700.0, 900.0, 1100.0,
              1300.0)
FULL_DURATION = 120.0
QUICK_LOADS = (60.0, 200.0, 400.0)
QUICK_DURATION = 2.0

#: The two A/B configurations every sweep reports.
CONFIG_BUILDERS = {
    "baseline": lambda s: s,
    "batched": lambda s: s.with_load_features(batch=8),
}


def _parse_loads(text: str) -> tuple[float, ...]:
    try:
        loads = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad load list {text!r}")
    if not loads or any(x <= 0 for x in loads):
        raise argparse.ArgumentTypeError("loads must be positive numbers")
    return loads


def _sends_per_window(timeline) -> list[tuple[float, float]]:
    """(seconds-from-first-window, total sends) per non-empty window."""
    per: dict[int, float] = {}
    for idx, win in timeline.windows.items():
        n = sum(v for k, v in win.counters.items()
                if k.endswith("|sent"))
        if n:
            per[idx] = per.get(idx, 0) + n
    if not per:
        return []
    base = min(per)
    return [((idx - base) * timeline.width, per[idx])
            for idx in sorted(per)]


def _closed_loop_comparison(open_tl, runtime: str) -> dict:
    """Open-loop probe vs closed-loop figure workload, per window.

    Runs Figure 4's closed-loop ``fcfs`` program under the probe
    timeline's width and charts both send-rate curves on a shared relative time
    axis: the closed-loop curve is flat (each message is paced by the
    previous one completing), while the open-loop probe's curve follows
    the arrival schedule and dips where the health findings localize
    saturation — the serving subsystem's tie back to Figures 3–6.
    """
    from ..bench.harness import SweepResult
    from ..bench.plot import ascii_plot
    from ..bench.workloads import fcfs_throughput
    from ..obs import Recorder, Timeline

    closed_rec = Recorder(timeline=Timeline(width=open_tl.width))
    fcfs_throughput(4, 64, messages=256, runtime=runtime,
                    recorder=closed_rec)

    fig = SweepResult(
        figure="serve-timeline",
        title="sends per window: open-loop probe vs closed-loop fcfs",
        x_label="seconds since first window",
        y_label="messages sent per window",
    )
    out: dict = {}
    for key, label, tl in (
        ("open_loop", "open-loop probe", open_tl),
        ("closed_loop", "closed-loop fcfs", closed_rec.timeline),
    ):
        series = fig.new_series(label)
        rows = _sends_per_window(tl)
        for x, y in rows:
            series.add(x, y)
        out[key] = {"label": label, "width": tl.width,
                    "sends_per_window": [y for _, y in rows]}
    out["figure"] = ascii_plot(fig)
    return out


def serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench serve",
        description="Open-loop serving sweep: goodput and SLO latency vs "
        "offered load, baseline vs batched.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sweep (for CI): fewer loads, short schedules",
    )
    parser.add_argument(
        "--runtime", default="sim", choices=("sim", "threads", "procs"),
        help="runtime to serve on (default sim; threads/procs pace "
        "arrivals on the wall clock)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="measure load points on N worker processes (default 1: "
        "serial; output is identical either way)",
    )
    parser.add_argument(
        "--loads", type=_parse_loads, metavar="R1,R2,...",
        help="offered loads to sweep, aggregate requests/s "
        "(default: the full or --quick preset)",
    )
    parser.add_argument(
        "--duration", type=float, metavar="S",
        help="nominal schedule length per point, seconds (a point at "
        "rate R offers R*S requests)",
    )
    parser.add_argument(
        "--policy", default="shed", choices=("shed", "stall"),
        help="client backpressure policy when the pool refuses a send "
        "(default shed)",
    )
    parser.add_argument(
        "--seed", type=int, default=1987,
        help="arrival-schedule seed (default 1987)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the SLO report as JSON (schema mpf-serve-slo/1)",
    )
    parser.add_argument(
        "--prom", metavar="PATH",
        help="rerun the knee point under the causal tracer and "
        "write its metrics in Prometheus text exposition format",
    )
    parser.add_argument(
        "--timeline", nargs="?", const=True, default=None, metavar="PATH",
        help="write the traced probe's timeline as the "
        "mpf-serve-timeline/1 JSON document with its health findings "
        "(default path: next to --json, else serve-timeline.json)",
    )
    parser.add_argument(
        "--flow", metavar="PATH",
        help="with the same traced knee point, write the message flow "
        "graph as Graphviz DOT",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    loads = args.loads or (QUICK_LOADS if args.quick else FULL_LOADS)
    duration = args.duration if args.duration is not None else \
        (QUICK_DURATION if args.quick else FULL_DURATION)
    base = ServeShape(policy=args.policy)
    configs = {name: build(base) for name, build in CONFIG_BUILDERS.items()}

    t0 = time.perf_counter()
    report, sweep = run_sweep(configs, list(loads), duration=duration,
                              seed=args.seed, runtime=args.runtime,
                              jobs=args.jobs)

    # One extra traced point at the most interesting load — the first
    # detected knee, else the largest swept load — for the health
    # findings and the observability exports.
    knees = [c["knee_rps"] for c in report.configs.values()
             if c["knee_rps"] is not None]
    probe_rate = min(knees) if knees else loads[-1]
    probe_n = max(1, round(probe_rate * min(duration, 5.0)))
    from ..obs import HealthEngine, Recorder, prometheus_exposition

    rec = Recorder(causal=True, timeline=True)
    point, _ = run_point(configs["batched"], probe_rate, probe_n,
                         seed=args.seed, runtime=args.runtime, recorder=rec)
    findings = HealthEngine(rec.timeline).scan()
    tracer = rec.causal
    report.findings.append(
        f"traced probe at {probe_rate:g} rps ({args.runtime}): "
        f"goodput {point['goodput_rps']:.1f} rps, p999 "
        f"{point['p999_ms']:.2f} ms, causal stride 1/{tracer.stride}")
    report.findings.extend(f.detail for f in findings)
    wall = time.perf_counter() - t0

    print(report.format_table())
    print()
    doc = report.to_dict()
    validate_slo(doc)
    print(f"  total MPF messages: {doc['total_mpf_messages']:,}")
    for note in sweep.notes:
        print(f"  {note}")
    print(f"  [{wall:.1f}s wall]")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(prometheus_exposition(rec))
        print(f"wrote {args.prom}")
    if args.timeline is not None:
        from .slo import build_timeline_doc, validate_timeline

        comparison = _closed_loop_comparison(rec.timeline, args.runtime)
        tdoc = build_timeline_doc(args.runtime, args.seed, probe_rate,
                                  rec.timeline, findings, comparison)
        validate_timeline(tdoc)
        if isinstance(args.timeline, str):
            tpath = args.timeline
        elif args.json:
            tpath = (args.json[:-5] if args.json.endswith(".json")
                     else args.json) + "-timeline.json"
        else:
            tpath = "serve-timeline.json"
        with open(tpath, "w") as fh:
            json.dump(tdoc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {tpath} "
              f"({len(tdoc['timeline']['windows'])} windows, "
              f"{len(tdoc['findings'])} finding(s))")
        print(comparison["figure"])
    if args.flow:
        from ..obs import flow_dot, flow_from_causal

        with open(args.flow, "w") as fh:
            fh.write(flow_dot(flow_from_causal(tracer)))
        print(f"wrote {args.flow}")
    return 0
