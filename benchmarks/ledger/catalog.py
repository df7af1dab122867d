"""Every metric the ledger reports, by name.

``BENCHMARK.json`` at the repository root carries the names, units,
directions and bounds the driver needs; this file carries the same plus
what the driver has no key for — the layer a metric belongs to, which
workloads exercise that layer, and which end-to-end metric on which
workload it is expected to move (written down before measuring, so a
later change can be checked against the prediction).
``test_ledger.py`` keeps the two files in step.
"""

from __future__ import annotations

import os
import sys

SIM_WORKLOADS = ("sim_bcast16", "sim_gauss64", "sim_serve_knee")
PROCS_WORKLOADS = ("procs_pipe_freelist", "procs_pipe_ring")
WORKLOADS = SIM_WORKLOADS + PROCS_WORKLOADS

def refuse_hatches() -> None:
    """``MPF_FUSION=off`` / ``MPF_EPOCH=off`` is a different program."""
    for var in ("MPF_FUSION", "MPF_EPOCH"):
        if os.environ.get(var, "").lower() in ("0", "off", "false", "no"):
            sys.exit(f"ledger: {var}={os.environ[var]} is set; the ledger "
                     "measures the default program and refuses to run "
                     "with an escape hatch off")



WORKLOAD_WHY = {
    "sim_bcast16": "Fig 5 shape on the simulator: 1 sender, 16 BROADCAST "
                   "receivers, most lock acquires contended; no app compute, "
                   "no serve code",
    "sim_gauss64": "Gauss-Jordan 64x64 on 13 simulated processes: long "
                   "compute horizons and select_receive polling, little "
                   "lock contention, so contention work must not show here",
    "sim_serve_knee": "open-loop serving at the baseline knee (4 Poisson "
                      "clients, 300 rps): the only workload running "
                      "repro.serve and pool backpressure",
    "procs_pipe_freelist": "2 real processes, FCFS pipe over the free-list "
                           "transport: classic generators, real shared "
                           "memory and multiprocessing locks, no engine",
    "procs_pipe_ring": "same program and inputs over the ring transport "
                       "with a BROADCAST receiver: a ring gain that costs "
                       "the free-list path shows as one row up, one down",
}

#: name -> (unit, better, bound, definition).  "Calibrated seconds" are
#: host seconds divided by how much slower than nominal the benchmark's
#: own kernel (``workloads.calibrate``) ran beside the measurement: the
#: host this was defined on slows by up to 1.7x for minutes at a time,
#: and raw seconds of one commit spread by 30% between runs.  Even so
#: the spread between runs is 5-10%, so nothing timed can hold a bound
#: tighter than the largest the driver allows.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "fresh process start to first timed repetition (imports, "
                "input generation, one untimed warm-up), calibrated "
                "seconds; median of 3 to 5 set-ups in their own processes"),
    "msgs_per_s": ("1/s", "higher", 0.25,
                   "MPF messages per calibrated second, median over "
                   "repetitions; sim_*: total_sends of a repetition over "
                   "its wall; procs_*: the stream phase only, clocked in "
                   "the sender"),
    "cpu_s_per_kmsg": ("s/kmsg", "lower", 0.25,
                       "user+system CPU (calibrated seconds, children "
                       "included) per 1000 messages of a repetition, "
                       "median over repetitions"),
    "peak_rss_mb": ("MB", "lower", 0.05,
                    "largest ru_maxrss among the workload process and the "
                    "children it waited for"),
}

ALL = WORKLOADS
_PROCS_MSGS = [("msgs_per_s", w) for w in PROCS_WORKLOADS]
_SIM_MSGS = [("msgs_per_s", w) for w in SIM_WORKLOADS]


def _row(name, unit, better, layer, on, moves):
    return {"name": name, "unit": unit, "better": better, "layer": layer,
            "recorded_on": tuple(on), "moves": moves or "none"}


PER_LAYER = [
    # End-to-end in kind, but defined on some workloads only; the driver
    # needs every end-to-end metric from every workload, so they live
    # here, measured on the untraced repetitions of the traced run.
    _row("sim_events_per_s", "1/s", "higher", "end_to_end", SIM_WORKLOADS,
         _SIM_MSGS),
    _row("sim_s_per_host_s", "ratio", "higher", "end_to_end", SIM_WORKLOADS,
         _SIM_MSGS),
    _row("rtt_p50_us", "us/rt", "lower", "end_to_end", PROCS_WORKLOADS,
         _PROCS_MSGS),
    _row("rtt_p90_us", "us/rt", "lower", "end_to_end", PROCS_WORKLOADS,
         _PROCS_MSGS),
    _row("paper_err_pct", "%", "lower", "end_to_end", ["sim_bcast16"], None),
]

for _n in ("u32_ns", "set_u32_ns", "read_2k_ns", "write_2k_ns"):
    PER_LAYER.append(_row(
        f"core.region.{_n}", "ns/call", "lower", "core.region", ALL,
        _PROCS_MSGS + [("cpu_s_per_kmsg", w) for w in PROCS_WORKLOADS]))
PER_LAYER.append(_row(
    "core.layout.format_region_us", "us/call", "lower", "core.layout", ALL,
    [("msgs_per_s", "sim_bcast16")]))
for _n in ("send_us_16", "send_us_2048", "recv_us_16", "recv_us_2048",
           "check_us", "open_close_us"):
    PER_LAYER.append(_row(
        f"core.ops.{_n}", "us/call", "lower", "core.ops", ALL,
        [("msgs_per_s", "procs_pipe_freelist"),
         ("cpu_s_per_kmsg", "procs_pipe_freelist")]))
for _n in ("send_us_16", "send_us_2048", "recv_us_16", "recv_us_2048"):
    PER_LAYER.append(_row(
        f"core.transport.ring_{_n}", "us/call", "lower", "core.transport", ALL,
        [("msgs_per_s", "procs_pipe_ring"),
         ("cpu_s_per_kmsg", "procs_pipe_ring")]))
_PROCS_CPU = [("cpu_s_per_kmsg", w) for w in PROCS_WORKLOADS]
PER_LAYER += [
    _row("runtime.procs.sender_busy_share", "share", "higher",
         "runtime.procs", PROCS_WORKLOADS, _PROCS_MSGS + _PROCS_CPU),
    _row("runtime.procs.receiver_busy_share", "share", "higher",
         "runtime.procs", PROCS_WORKLOADS, _PROCS_MSGS + _PROCS_CPU),
    _row("runtime.procs.credit_stalls", "count", "lower", "runtime.procs",
         PROCS_WORKLOADS, None),
    _row("runtime.procs.credit_wait_us_p50", "us/wait", "lower",
         "runtime.procs", PROCS_WORKLOADS, _PROCS_MSGS),
    _row("runtime.procs.fork_join_ms", "ms/rep", "lower", "runtime.procs",
         PROCS_WORKLOADS, [("setup_s", w) for w in PROCS_WORKLOADS]),
    _row("runtime.procs.rtt_p99_us", "us/rt", "lower", "runtime.procs",
         PROCS_WORKLOADS, None),
    _row("runtime.threads.pipe_msgs_per_s", "1/s", "higher",
         "runtime.threads", PROCS_WORKLOADS, None),
]
_SIM_BOTH = _SIM_MSGS + [("cpu_s_per_kmsg", w) for w in SIM_WORKLOADS]
for _n, _unit, _better in (
        ("events", "count", "lower"), ("heap_pops", "count", "lower"),
        ("epoch_batches", "count", "lower"),
        ("epoch_events_share", "share", "higher"),
        ("lock_contended_share", "share", "lower"),
        ("host_ns_per_event", "ns/event", "lower"),
        ("run_share", "share", "lower"),
        ("fusion_off_ratio", "ratio", "higher"),
        ("epoch_off_ratio", "ratio", "higher")):
    PER_LAYER.append(_row(f"machine.engine.{_n}", _unit, _better,
                          "machine.engine", SIM_WORKLOADS, _SIM_BOTH))
PER_LAYER += [
    _row("runtime.sim.self_ms", "ms/rep", "lower", "runtime.sim",
         SIM_WORKLOADS, [("msgs_per_s", "sim_bcast16")]),
    _row("machine.lock_wait_share", "share", "lower", "machine",
         SIM_WORKLOADS, None),
    _row("patterns.select_receive.checks_per_receive", "count", "lower",
         "patterns", ["sim_gauss64"], [("msgs_per_s", "sim_gauss64")]),
    _row("apps.gauss_jordan.events_per_pivot", "count", "lower", "apps",
         ["sim_gauss64"], [("msgs_per_s", "sim_gauss64")]),
    _row("serve.build_ms", "ms/rep", "lower", "serve", ["sim_serve_knee"],
         [("setup_s", "sim_serve_knee"), ("msgs_per_s", "sim_serve_knee")]),
    _row("serve.events_per_request", "count", "lower", "serve",
         ["sim_serve_knee"], [("msgs_per_s", "sim_serve_knee")]),
    _row("serve.msgs_per_request", "count", "lower", "serve",
         ["sim_serve_knee"], None),
    _row("serve.shed_share", "share", "lower", "serve", ["sim_serve_knee"],
         None),
    _row("serve.goodput_rps", "1/sim_s", "higher", "serve",
         ["sim_serve_knee"], None),
    _row("serve.p99_ms", "sim_ms", "lower", "serve", ["sim_serve_knee"],
         None),
]
for _n in ("recorder", "causal", "timeline"):
    PER_LAYER.append(_row(
        f"obs.{_n}.wall_ratio", "ratio", "lower", "obs",
        ["sim_bcast16", "procs_pipe_freelist"], None))
PER_LAYER += [
    _row("bench.harness.jobs2_speedup", "ratio", "higher", "bench.harness",
         ["sim_bcast16"], None),
    _row("trace.overhead_ratio", "ratio", "lower", "benchmark", ALL, None),
]

PER_LAYER_NAMES = [r["name"] for r in PER_LAYER]


def benchmark_json(run_seconds: int) -> dict:
    """The document ``BENCHMARK.json`` must equal (see test_ledger.py)."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound, _) in END_TO_END.items()],
        "per_layer": [
            {"name": r["name"], "unit": r["unit"], "better": r["better"]}
            for r in PER_LAYER],
    }
