"""One workload, in a fresh process: set-up, timed repetitions, record.

``run.py`` starts this file once per workload (so ``setup_s`` and
``peak_rss_mb`` belong to that workload alone) and reads the JSON record
printed as the last line of standard output.  Untraced runs produce the
end-to-end figures; ``--trace 1`` produces the per-layer figures from
span-recording wrappers, public counters and the probes in ``layers``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

_T_PROCESS_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, os.pardir, "src")

p50 = statistics.median


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

class Runner:
    """Runs repetitions of one workload and keeps the failure ledger."""

    def __init__(self, wl, reference: dict, trace) -> None:
        self.wl = wl
        self.trace = trace
        self.expected = None
        if wl.kind == "sim" and reference.get("seed") == wl.inputs["seed"]:
            self.expected = reference["digests"].get(wl.name)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._cal = None

    def rep(self, count: bool = True, **kwargs) -> dict:
        """One repetition; ``count`` adds it to attempted/failed."""
        wl = self.wl
        self.trace.rep_id += 1
        if wl.kind == "sim":
            from workloads import calibrate

            # One calibration between repetitions serves both neighbours.
            before = self._cal or calibrate()
            with self.trace.span(f"rep.{wl.name}"):
                r = wl.rep(**kwargs)
            self._cal = calibrate()
            r["cal"] = (before + self._cal) / 2
            if self.expected is None:
                self.expected = r["digest"]
            bad = int(not r["ok"] or r["digest"] != self.expected)
            if bad:
                self.errors.append(
                    f"rep {self.trace.rep_id}: digest {r['digest']} != "
                    f"{self.expected} or output check failed")
            ops = 1
        else:
            from workloads import guarded

            n0 = len(self.trace.spans)
            with self.trace.span(f"rep.{wl.name}") as top:
                r = guarded(lambda: {**wl.rep(**kwargs),
                                     "spans": self.trace.spans[n0 + 1:]},
                            wl.rep_timeout)
            ops = wl.ops_per_rep
            if "error" in r:
                self.errors.append(f"rep {self.trace.rep_id}: {r['error']}")
                bad = ops
            else:
                bad = r["failed"]
                self.trace.spans.extend(r.pop("spans"))
                s0, s1 = r["run_span"]
                run_idx = len(self.trace.spans)
                self.trace.add("runtime.procs.run", s0, s1, top)
                for (b0, b1), who in zip(r["body_spans"],
                                         ("sender", "receiver")):
                    self.trace.add(f"worker.{who}", b0, b1, run_idx)
        if count:
            self.attempted += ops
            self.failed += bad
        r["bad"] = bad
        return r

    def timed(self, seconds: float) -> list[dict]:
        """Repetitions until ``seconds`` have passed (at least one)."""
        reps, t_end = [], time.perf_counter() + seconds
        while not reps or time.perf_counter() < t_end:
            reps.append(self.rep())
        return reps


def good(reps: list[dict]) -> list[dict]:
    return [r for r in reps if "error" not in r]


def rep_metrics(wl, reps: list[dict]) -> tuple[dict, dict]:
    """Figures read off untraced repetitions: ``(metrics, sample counts)``.

    Every figure in host seconds is in *calibrated* seconds: each
    repetition's seconds are divided by ``speed`` — how much slower than
    nominal the benchmark's own kernel ran beside that repetition — and
    the figure is the median over repetitions.  On ``procs_*`` the
    message rate is the stream phase only, clocked inside the sender;
    round-trip times are raw and pooled over every repetition.
    """
    from workloads import host_speed

    ok = good(reps)
    if not ok:
        return {}, {"reps": 0}
    out: dict[str, float] = {}
    samples = {"reps": len(ok)}
    speed = [host_speed(r["cal"]) for r in ok]
    samples["host_speed"] = round(p50(speed), 3)
    out["cpu_s_per_kmsg"] = p50(
        [1e3 * (r["cpu"] - r.get("cal_cpu", 0.0)) / r["msgs"] / s
         for r, s in zip(ok, speed)])
    if wl.kind == "sim":
        walls = [r["wall"] / s for r, s in zip(ok, speed)]
        out["msgs_per_s"] = p50([r["msgs"] / w for r, w in zip(ok, walls)])
        out["sim_events_per_s"] = p50(
            [r["counters"]["events"] / w for r, w in zip(ok, walls)])
        out["sim_s_per_host_s"] = p50(
            [r["counters"]["sim_seconds"] / w for r, w in zip(ok, walls)])
        if hasattr(wl, "paper_err_pct"):
            out["paper_err_pct"] = wl.paper_err_pct(ok[0]["outputs"])
    else:
        out["msgs_per_s"] = p50(
            [wl.n_stream / (r["stream_s"] / s) for r, s in zip(ok, speed)])
        rtts = [t for r in ok for t in r["rtts"]]
        samples["rtt"] = len(rtts)
        cuts = statistics.quantiles(rtts, n=100)
        for name, pct in (("rtt_p50_us", 50), ("rtt_p90_us", 90),
                          ("runtime.procs.rtt_p99_us", 99)):
            out[name] = cuts[pct - 1] / 1e3
        waits = [w for r in ok for w in r["credit_waits"]]
        samples["credit_waits"] = len(waits)
        out["runtime.procs.credit_wait_us_p50"] = (
            p50(waits) / 1e3 if waits else 0.0)
        out["runtime.procs.credit_stalls"] = p50(
            [r["credit_stalls"] for r in ok])
        out["runtime.procs.sender_busy_share"] = p50(
            [r["sender_busy"] for r in ok])
        out["runtime.procs.receiver_busy_share"] = p50(
            [r["receiver_busy"] for r in ok])
        out["runtime.procs.fork_join_ms"] = p50(
            [r["fork_join_ms"] for r in ok])
    return out, samples


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

def install_spans(trace, wl, counts: dict) -> None:
    """Rebind the public names at each layer boundary to span wrappers."""
    import repro.runtime.procs as procs_module
    import repro.runtime.sim as sim_module
    from repro.machine.engine import Engine
    from repro.runtime.base import Env

    if wl.kind == "procs":
        trace.patch(procs_module, "format_region", "core.layout.format_region")
        return
    trace.patch(sim_module.SimRuntime, "run", "runtime.sim.run")
    trace.patch(sim_module, "format_region", "core.layout.format_region")
    trace.patch(sim_module, "collect_report", "machine.stats.collect_report")
    trace.patch(Engine, "run", "machine.engine.run")
    if wl.name == "sim_serve_knee":
        import repro.serve.sweep as sweep_module

        trace.patch(sweep_module, "build_workers", "serve.build_workers")
    if wl.name == "sim_gauss64":
        import repro.apps.gauss_jordan as gj_module

        def counting(key):
            def make(original):
                def counted(*args, **kwargs):
                    counts[key] = counts.get(key, 0) + 1
                    return original(*args, **kwargs)
                return counted
            return make

        trace.rebind(gj_module, "select_receive", counting("select_receive"))
        trace.rebind(Env, "check_receive", counting("check_receive"))


def traced_run(wl, runner: Runner, seconds: float, quick: bool):
    """Per-layer figures for one workload: ``(metrics, samples, notes)``."""
    import layers
    from workloads import make_workload

    trace = runner.trace
    notes: dict[str, object] = {}

    # 1. Untraced and traced repetitions, interleaved.  The untraced ones
    #    also give the figures that are end-to-end in kind but apply to
    #    some workloads only (sim_events_per_s, rtt_*, paper_err_pct).
    plain, traced, counts = [], [], {}
    t_end = time.perf_counter() + (0 if quick else 0.3 * seconds)
    while not plain or time.perf_counter() < t_end:
        plain.append(runner.rep())
        install_spans(trace, wl, counts)
        try:
            traced.append(runner.rep())
        finally:
            trace.unpatch_all()
    m, samples = rep_metrics(wl, plain)
    samples["traced_reps"] = len(traced)
    rep_wall = p50([r["wall"] for r in plain])
    m["trace.overhead_ratio"] = p50([r["wall"] for r in traced]) / rep_wall
    fmt = trace.durations("core.layout.format_region")
    m["core.layout.format_region_us"] = p50(fmt) / 1e3 if fmt else 0.0

    def pairs(share: float) -> int:
        if quick:
            return 1
        return max(1, min(5, int(share * seconds / (2 * rep_wall))))

    if wl.kind == "sim":
        ok = good(traced)
        c = {k: sum(r["counters"][k] for r in ok) for k in ok[0]["counters"]}
        n = len(ok)
        engine_ns = trace.total_ns("machine.engine.run")
        traced_ns = 1e9 * sum(r["wall"] for r in ok)
        m["machine.engine.events"] = c["events"] / n
        m["machine.engine.heap_pops"] = c["heap_pops"] / n
        m["machine.engine.epoch_batches"] = c["epoch_batches"] / n
        m["machine.engine.epoch_events_share"] = (
            c["epoch_events"] / c["events"])
        m["machine.engine.lock_contended_share"] = (
            c["lock_contended"] / c["lock_acquires"])
        m["machine.engine.host_ns_per_event"] = engine_ns / c["events"]
        m["machine.engine.run_share"] = engine_ns / traced_ns
        m["runtime.sim.self_ms"] = trace.self_ns("runtime.sim.run") / n / 1e6
        m["machine.lock_wait_share"] = c["lock_wait_seconds"] / (
            c["sim_seconds"] * wl.processes)
        notes["hatch_pairs"] = pairs(0.2)
        for name, setter in layers.HATCHES.items():
            m[name] = layers.hatch_off_ratio(wl, setter, notes["hatch_pairs"])
    if wl.name == "sim_gauss64":
        m["patterns.select_receive.checks_per_receive"] = (
            counts["check_receive"] / counts["select_receive"])
        m["apps.gauss_jordan.events_per_pivot"] = (
            m["machine.engine.events"] / wl.n)
    if wl.name == "sim_serve_knee":
        from repro.serve import sweep as serve_sweep

        with trace.span("serve.client_schedules") as idx:
            serve_sweep.client_schedules(wl.rate, wl.n_requests,
                                         wl.inputs["seed"], wl.shape.clients)
        sched_ns = trace.spans[idx][2] - trace.spans[idx][1]
        m["serve.build_ms"] = (
            sched_ns + p50(trace.durations("serve.build_workers"))) / 1e6
        point = good(traced)[0]["outputs"]
        m["serve.events_per_request"] = (
            m["machine.engine.events"] / point["offered"])
        m["serve.msgs_per_request"] = point["mpf_messages"] / point["offered"]
        m["serve.shed_share"] = point["shed"] / point["offered"]
        m["serve.goodput_rps"] = point["goodput_rps"]
        m["serve.p99_ms"] = point["p99_ms"]

    # 2. Observability cost, where the ISSUE asks for it.  On the real
    #    pipe a pair costs ~8 s at full size, so the probe runs the same
    #    program at a quarter of the length.
    if wl.name in ("sim_bcast16", "procs_pipe_freelist"):
        probe = runner
        if wl.kind == "procs":
            probe = Runner(make_workload(wl.name, wl.inputs["seed"],
                                         n_stream=wl.n_stream // 4,
                                         n_ping=wl.n_ping // 4),
                           {}, trace)
        notes["obs_pairs"] = pairs(0.1)
        m.update(layers.obs_ratios(
            lambda rec: probe.rep(count=False, recorder=rec)["wall"],
            notes["obs_pairs"]))
    if wl.name == "sim_bcast16":
        notes["jobs2_points"] = 2 if quick else 8
        m["bench.harness.jobs2_speedup"] = layers.jobs2_speedup(
            notes["jobs2_points"])
    if wl.kind == "procs":
        r = runner.rep(count=False, runtime="threads")
        if "error" in r:
            runner.errors.append(f"threads pipe: {r['error']}")
        else:
            m["runtime.threads.pipe_msgs_per_s"] = wl.n_stream / r["stream_s"]

    # 3. Workload-independent probes of the layers underneath.
    m.update(layers.region_probe(5_000 if quick else 200_000))
    m.update(layers.loopback_probe("freelist", 50 if quick else 1500))
    m.update(layers.loopback_probe("ring", 50 if quick else 1500))
    return m, samples, notes


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1987)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one repetition, no warm-up (smoke test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once set-up is done and report setup_s")
    ap.add_argument("--spawned-at", type=float, default=_T_PROCESS_START,
                    help="perf_counter() of the parent at spawn")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    from catalog import refuse_hatches

    refuse_hatches()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("ledger: src/repro not found; run from a checkout of the "
                 "repository")
    sys.path.insert(0, os.path.normpath(SRC))

    import multiprocessing.resource_tracker as resource_tracker

    from spans import Trace
    from workloads import calibrate, host_speed, make_workload

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    wl = make_workload(args.workload, args.seed)
    runner = Runner(wl, reference, Trace())
    if wl.kind == "procs" or args.trace:
        # Started here, not in a repetition's session, so a segment
        # leaked by a killed repetition is still unlinked at exit.
        resource_tracker.ensure_running()
    if not args.quick:
        # Untimed warm-up: fills section/descriptor caches and the
        # pool-image memo.  The real pipe forks fresh workers every
        # repetition, so a short one warms all there is to warm.
        if wl.kind == "procs":
            warm = make_workload(args.workload, args.seed,
                                 n_stream=400, n_ping=100)
            Runner(warm, reference, Trace()).rep()
        else:
            runner.rep(count=False)
    setup_s = time.perf_counter() - args.spawned_at
    # In calibrated seconds, like every other host time (rep_metrics).
    setup_raw, setup_s = setup_s, setup_s / host_speed(calibrate())

    record = {
        "workload": wl.name, "seed": args.seed, "traced": bool(args.trace),
        "quick": args.quick, "input_digest": wl.input_digest,
        "inputs": wl.inputs, "setup_s": setup_s, "setup_raw_s": setup_raw,
    }
    if not args.setup_only:
        if args.trace:
            metrics, samples, notes = traced_run(
                wl, runner, args.seconds, args.quick)
            record["notes"] = notes
            record["spans"] = runner.trace.spans
        else:
            reps = runner.timed(0 if args.quick else args.seconds)
            metrics, samples = rep_metrics(wl, reps)
            record["per_rep"] = {
                k: [r[k] for r in good(reps)]
                for k in ("wall", "cpu", "msgs", "stream_s", "cal", "cal_cpu")
                if k in reps[0]}
        ru = [resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        metrics["peak_rss_mb"] = max(ru) / 1024.0
        record.update(
            metrics=metrics, samples=samples, attempted=runner.attempted,
            failed=runner.failed, errors=runner.errors[:20],
            expected_digest=runner.expected)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
