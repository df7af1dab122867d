"""The layered benchmark ledger: one command, five workloads.

    python benchmarks/ledger/run.py [--workload W] [--seed 1987]
        [--seconds N] [--trace 0|1 | --traced] [--quick]
        [--repeat N] [--json OUT] [--trace-out trace.json]

Each workload runs alone in a fresh subprocess (``worker.py``), one
after another, so ``setup_s`` and ``peak_rss_mb`` are per workload and
no more than two processes ever carry load.  An untraced run prints the
end-to-end metrics; ``--traced`` prints the per-layer metrics and writes
the spans to ``trace.json``.  With ``--workload`` the last line of
standard output is the one-object JSON result the benchmark driver
reads.  See README.md in this directory for the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
sys.path.insert(0, HERE)

import catalog  # noqa: E402 - needs HERE on the path

#: Hard limit on one worker subprocess; the driver allows 180 s a run.
WORKER_TIMEOUT = 150.0
#: Fresh set-ups timed per untraced run (their median is ``setup_s``):
#: at least MIN_SETUPS, then more until MAX_SETUPS are timed or
#: SETUP_BUDGET seconds have gone into the extra ones — a pipe sets up
#: in 0.6 s, the serve topology in 1.8 s, and 114 driver runs share one
#: time cap.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET = 3, 5, 3.0


def spawn(workload: str, seed: int, seconds: float, trace: int,
          quick: bool, setup_only: bool = False) -> dict:
    """Run ``worker.py`` once and return the record it prints."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spawned-at", repr(time.perf_counter())]
    if quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"ledger: {workload} worker exceeded {WORKER_TIMEOUT:g} s")
    if proc.returncode != 0:
        sys.exit(f"ledger: {workload} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 quick: bool) -> dict:
    """One workload's entry of the result document."""
    rec = spawn(workload, seed, seconds, trace, quick)
    setups = [rec.pop("setup_s")]
    t0 = time.perf_counter()
    while not trace and not quick and len(setups) < MAX_SETUPS and (
            len(setups) < MIN_SETUPS
            or time.perf_counter() - t0 < SETUP_BUDGET):
        setups.append(spawn(workload, seed, seconds, trace, quick,
                            setup_only=True)["setup_s"])
    got = rec.pop("metrics")
    got["setup_s"] = statistics.median(setups)
    if trace:
        # A layer the workload never enters did no work and took no time:
        # its metrics read 0 rather than being reported missing.
        units = {r["name"]: r["unit"] for r in catalog.PER_LAYER}
        required = {r["name"] for r in catalog.PER_LAYER
                    if workload in r["recorded_on"]}
    else:
        units = {n: v[0] for n, v in catalog.END_TO_END.items()}
        required = set(units)
        rec["also"] = {n: got[n] for n in catalog.PER_LAYER_NAMES if n in got}
    missing = sorted(required - got.keys())
    metrics = {n: {"value": got.get(n, 0.0), "unit": u}
               for n, u in units.items()}
    rec["setups"] = setups
    rec["missing"] = missing
    rec["metrics"] = metrics
    rec["correct"] = (rec["failed"] == 0 and not rec["errors"]
                      and not missing)
    return rec


def host_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "MPF_FUSION": os.environ.get("MPF_FUSION"),
        "MPF_EPOCH": os.environ.get("MPF_EPOCH"),
    }


def print_workload(rec: dict) -> None:
    s = rec["samples"]
    print(f"== {rec['workload']}  seed {rec['seed']}  reps {s.get('reps')}  "
          f"operations attempted {rec['attempted']} failed {rec['failed']}  "
          f"{'correct' if rec['correct'] else 'INCORRECT'}")
    extra = ", ".join(f"{k} {v}" for k, v in s.items() if k != "reps")
    if extra:
        print(f"   samples: {extra}")
    bounds = {n: v[2] for n, v in catalog.END_TO_END.items()}
    for name, m in rec["metrics"].items():
        note = f"  (bound {bounds[name]:.0%})" if name in bounds else ""
        print(f"   {name:<44} {m['value']:>16.6g} {m['unit']}{note}")
    for name, value in rec.get("also", {}).items():
        print(f"   {name:<44} {value:>16.6g}  (per-layer in BENCHMARK.json)")
    for problem in rec["errors"] + [f"no value for {n}"
                                    for n in rec["missing"]]:
        print(f"   ! {problem}")


def contract_line(rec: dict) -> str:
    return json.dumps({"correct": rec["correct"],
                       "attempted": max(1, rec["attempted"]),
                       "failed": rec["failed"], "metrics": rec["metrics"]})


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=catalog.WORKLOADS,
                    help="run one workload (default: all five in turn)")
    ap.add_argument("--seed", type=int, default=1987)
    ap.add_argument("--seconds", type=float, default=run_seconds,
                    help="timed seconds per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", dest="trace", action="store_const", const=1,
                    help="same as --trace 1")
    ap.add_argument("--quick", action="store_true",
                    help="one repetition per workload, no warm-up")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run the whole set N times on seeds seed..seed+N-1 "
                         "(input for compare.py)")
    ap.add_argument("--json", metavar="OUT", help="write the result document")
    ap.add_argument("--trace-out", metavar="FILE",
                    default=os.path.join(HERE, "out", "trace.json"),
                    help="where a traced run writes its spans")
    args = ap.parse_args(argv)
    catalog.refuse_hatches()

    names = [args.workload] if args.workload else list(catalog.WORKLOADS)
    runs, spans = [], {}
    for i in range(args.repeat):
        doc = {
            "schema": "mpf-ledger/1", "claim": None, "seed": args.seed + i,
            "traced": bool(args.trace), "quick": args.quick,
            "run_seconds": args.seconds, "host": host_info(),
            "open_loop": {"sim_serve_knee": {"rate_rps": 300.0, "clients": 4}},
            "workloads": {},
        }
        for name in names:
            rec = run_workload(name, args.seed + i, args.seconds, args.trace,
                               args.quick)
            if "spans" in rec:
                spans[f"{name}/seed{args.seed + i}"] = rec.pop("spans")
            doc["workloads"][name] = rec
            print_workload(rec)
        runs.append(doc)
    if args.trace:
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        with open(args.trace_out, "w") as fh:
            json.dump({"schema": "mpf-ledger-trace/1",
                       "span": ["name", "start_ns", "end_ns", "parent",
                                "rep_id"],
                       "spans": spans}, fh)
        print(f"spans written to {args.trace_out}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(runs[0] if args.repeat == 1 else
                      {"schema": "mpf-ledger-set/1", "runs": runs}, fh,
                      indent=1)
    if args.workload:
        print(contract_line(runs[-1]["workloads"][args.workload]))
    return 0 if all(r["correct"] for d in runs
                    for r in d["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
