"""One entry per paper figure, plus design-choice ablations.

Each ``figN`` function runs the corresponding experiment sweep on the
simulated Balance 21000 and returns a
:class:`~repro.bench.harness.SweepResult` whose table is directly
comparable to the published curve.  ``quick=True`` shrinks the sweeps
for CI; the full sweeps are what EXPERIMENTS.md records.

Every sweep goes through :func:`~repro.bench.harness.run_series` with a
*module-level* point function (bound with :func:`functools.partial`), so
``jobs > 1`` can farm points out to a process pool: each point is an
independent deterministic simulation, and the harness reassembles results
in sweep order, making parallel output byte-identical to serial.

Run from the command line::

    python -m repro.bench fig3            # one figure
    python -m repro.bench all --jobs 4    # everything, 4 point-runner processes
    python -m repro.bench all --quick     # everything, reduced sweeps
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable

from ..apps.gauss_jordan import gj_speedup
from ..apps.sor import sor_per_iteration_speedup
from ..core.costmodel import DEFAULT_COSTS
from ..core.layout import MPFConfig
from ..core.protocol import FCFS
from ..ext.o2o import O2ORing
from ..ext.sync_channel import SyncChannels
from ..machine.balance import BALANCE_21000
from ..obs import Recorder, busiest_lnvc, sojourn_stats
from ..runtime.sim import SimRuntime
from .harness import SweepResult, run_series
from .workloads import (
    base_throughput,
    broadcast_throughput,
    fcfs_throughput,
    random_throughput,
)

__all__ = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig3_contention",
    "fig4_contention",
    "fig5_contention",
    "ablation_sync",
    "ablation_o2o",
    "ablation_block",
    "ablation_paging",
    "ablation_cache",
    "ablation_transport_fcfs",
    "ablation_transport_bcast",
    "ablation_transport_random",
    "study_paradigm",
    "reset_run_cache",
    "FIGURES",
    "CONTENTION",
]


# ---------------------------------------------------------------------------
# Point functions.  Module-level (hence picklable) measurements of one
# sweep point each; ``run_series`` binds the sweep constants with
# ``functools.partial`` and maps them over the swept parameter.
# ---------------------------------------------------------------------------


def _causal_extras(tracer) -> dict:
    """Latency columns from a causal trace: per-stage p50s plus the
    end-to-end tail, in microseconds, for the busiest LNVC (the data
    circuit — barrier control traffic carries far fewer sends)."""
    key = busiest_lnvc(tracer)
    if key is None:
        return {}
    stats = sojourn_stats(tracer)[key]

    def us(stage: str, q: str) -> float:
        return round(1e6 * getattr(stats[stage], q), 2)

    return {
        "alloc_p50_us": us("alloc", "p50"),
        "copyin_p50_us": us("copy_in", "p50"),
        "resid_p50_us": us("resident", "p50"),
        "copyout_p50_us": us("copy_out", "p50"),
        "e2e_p50_us": us("e2e", "p50"),
        "e2e_p95_us": us("e2e", "p95"),
    }


# ---------------------------------------------------------------------------
# Shared-run sweep runner (the vectorized layer of the epoch-fused
# engine work).  Several sweeps describe the *same* simulation and
# differ only in which columns they report: ablation_transport_fcfs's
# free-list points are fig4's points re-measured, _bcast's are fig5's,
# _random's 1024B column is fig6's.  Recorders are observational —
# attaching one never changes simulated timing (the fig3 causal
# acceptance check pins this) — so the runner executes each distinct
# schedule ONCE with the superset instrumentation
# (``Recorder(limit=0, causal=True)``) and every figure derives its own
# columns (throughput, lock waits, causal latencies, page faults) from
# the cached run.  The memo is per process: with ``--jobs`` each pool
# worker keeps its own, so sharing degrades gracefully but output stays
# byte-identical.
# ---------------------------------------------------------------------------

_RUN_MEMO: dict = {}

#: Instrumentation levels, ordered so a cached higher-level run can
#: always serve a lower-level request (recorders are observational).
_REC_NONE, _REC_LOCK, _REC_CAUSAL = 0, 1, 2


def reset_run_cache() -> None:
    """Drop memoized measurement runs (tests re-measure after toggles)."""
    _RUN_MEMO.clear()


def _measured_run(fn, n: int, length: int, msgs: int, transport: str,
                  level: int):
    """One simulation per distinct sweep point, instrumented to order.

    Returns ``(m, recorder_or_None)`` for ``fn(n, length, ...)`` on the
    default machine, memoized on the complete simulation identity.  A
    cached run instrumented at ``level`` or higher is served as-is; a
    request for *more* instrumentation re-runs and upgrades the entry
    (figures that know a later sweep will revisit their points request
    the union level up front, so upgrades are rare).  Only points on
    the stock :data:`BALANCE_21000` go through here — machine-variant
    sweeps (paging/cache ablations) keep their direct calls.
    """
    key = (fn.__name__, n, length, msgs, transport)
    hit = _RUN_MEMO.get(key)
    if hit is None or hit[0] < level:
        rec = None
        if level == _REC_LOCK:
            rec = Recorder(limit=0)
        elif level == _REC_CAUSAL:
            rec = Recorder(limit=0, causal=True)
        m = fn(n, length, messages=msgs, recorder=rec, transport=transport)
        hit = _RUN_MEMO[key] = (level, m, rec)
    return hit[1], hit[2]


def _fig3_point(msgs: int, length: int, causal: bool = False,
                timeline: bool = False,
                transport: str = "freelist") -> tuple[float, dict]:
    # With causal=True a tracer rides along (limit=0 skips span
    # recording) but the returned point is unchanged: the acceptance
    # check that traced fig3 output is byte-identical to untraced.
    # timeline=True windows the run's telemetry under the same pin.
    rec = Recorder(limit=0, causal=causal, timeline=timeline) \
        if (causal or timeline) else None
    m = base_throughput(length, messages=msgs, recorder=rec,
                        transport=transport)
    return m.throughput, {}


def _receiver_point(fn, length: int, msgs: int, contention: bool,
                    n: int, transport: str = "freelist",
                    share=frozenset()) -> tuple[float, dict]:
    # ``share`` lists the (n, length) pairs the transport ablations will
    # revisit: those run at causal level so the later sweep is a cache
    # hit instead of a re-simulation.
    if (n, length) in share:
        level = _REC_CAUSAL
    else:
        level = _REC_LOCK if contention else _REC_NONE
    m, rec = _measured_run(fn, n, length, msgs, transport, level)
    extra = {}
    if contention:
        # The circuit-lock aggregate becomes the row's extras.
        agg = rec.circuit_lock_stats()
        extra = {
            "lnvc_wait_ms": round(1e3 * agg.wait_seconds, 3),
            "lnvc_contended": agg.contended,
            "lnvc_acquires": agg.acquires,
        }
    return m.throughput, extra


def _fig6_point(msgs: int, length: int, p: int,
                transport: str = "freelist") -> tuple[float, dict]:
    m, _ = _measured_run(random_throughput, p, length, msgs, transport,
                         _REC_NONE)
    return m.throughput, {"faults": m.run.report.page_faults}


def _fig7_point(n: int, p: int) -> tuple[float, dict]:
    return gj_speedup(n, p), {}


def _fig8_point(m: int, iters: int, n: int) -> tuple[float, dict]:
    return sor_per_iteration_speedup(m, n, iterations=iters), {}


def fig3(quick: bool = False, jobs: int = 1, causal: bool = False,
         timeline: bool = False,
         transport: str = "freelist") -> SweepResult:
    """Figure 3: base benchmark, loop-back throughput vs message length."""
    result = SweepResult(
        "Figure 3", "Base benchmark: throughput vs. message length",
        "bytes", "throughput (bytes/second of simulated time)",
    )
    lengths = (64, 256, 1024, 2048) if quick else (16, 64, 128, 256, 512, 768, 1024, 1536, 2048)
    msgs = 24 if quick else 64
    run_series(result, "base", lengths,
               partial(_fig3_point, msgs, causal=causal, timeline=timeline,
                       transport=transport),
               jobs=jobs)
    result.note("paper: rises toward a ~22-25 KB/s asymptote; memory/copy bound")
    if transport != "freelist":
        result.note(f"transport: {transport} (not the paper's free-list path)")
    return result


def _receiver_sweep(kind: str, fn, quick: bool, jobs: int,
                    contention: bool = False,
                    transport: str = "freelist") -> SweepResult:
    result = SweepResult(
        "Figure 4" if kind == "fcfs" else "Figure 5",
        f"{kind} benchmark: throughput vs. receiving processes",
        "receivers", "throughput (bytes/second of simulated time)",
    )
    counts = (1, 4, 8, 16) if quick else (1, 2, 4, 6, 8, 10, 12, 14, 16)
    msgs = 32 if quick else 96
    # The transport ablations (_transport_sweep) re-measure this sweep's
    # free-list points at these (n, length) pairs; pre-instrumenting
    # them at causal level turns the ablation's half into cache hits.
    abl_counts = (1, 4, 8, 16) if quick else (1, 2, 4, 8, 12, 16)
    share = frozenset(
        (n, length) for n in abl_counts for length in (16, 1024)
    ) if transport == "freelist" else frozenset()
    for length in (16, 128, 1024):
        run_series(
            result, f"{length}B", counts,
            partial(_receiver_point, fn, length, msgs, contention,
                    transport=transport, share=share),
            jobs=jobs,
        )
    if transport != "freelist":
        result.note(f"transport: {transport} (not the paper's free-list path)")
    return result


def fig4(quick: bool = False, jobs: int = 1,
         transport: str = "freelist") -> SweepResult:
    """Figure 4: one sender, N FCFS receivers."""
    result = _receiver_sweep("fcfs", fcfs_throughput, quick, jobs,
                             contention=True, transport=transport)
    result.note("paper: 1024B roughly flat ~40-50 KB/s; small messages decline "
                "with receivers (LNVC lock contention)")
    result.note("extras per point: lnvc_wait_ms (total simulated ms spent "
                "waiting on circuit locks), lnvc_contended / lnvc_acquires")
    return result


def fig5(quick: bool = False, jobs: int = 1,
         transport: str = "freelist") -> SweepResult:
    """Figure 5: one sender, N BROADCAST receivers."""
    result = _receiver_sweep("broadcast", broadcast_throughput, quick, jobs,
                             transport=transport)
    result.note("paper: near-linear scaling; 687,245 B/s at 16 receivers x 1024B "
                "(concurrent receive copies)")
    return result


def _contention_sweep(figure: str, bench_name: str, fn, quick: bool,
                      runtimes: tuple[str, ...], length: int,
                      causal: bool = False,
                      transport: str = "freelist") -> SweepResult:
    result = SweepResult(
        figure,
        f"{bench_name} benchmark: circuit-lock contention vs. receiving "
        f"processes ({length}B messages)",
        "receivers",
        "LNVC lock wait per message (microseconds; sim: simulated, "
        "threads/procs: wall-clock)",
    )
    counts = (1, 2, 4, 8) if quick else (1, 2, 4, 8, 16)
    msgs = 24 if quick else 64
    result.recorders = {}
    for kind in runtimes:
        series = result.new_series(kind)
        for n in counts:
            rec = Recorder(causal=causal, timeline=causal)
            m = fn(n, length, messages=msgs, runtime=kind, recorder=rec,
                   transport=transport)
            agg = rec.circuit_lock_stats()
            extra = {}
            if causal:
                extra = _causal_extras(rec.causal)
            series.add(
                n, 1e6 * agg.wait_seconds / msgs,
                acquires=agg.acquires,
                contended=agg.contended,
                wait_ms=round(1e3 * agg.wait_seconds, 3),
                max_wait_ms=round(1e3 * agg.max_wait, 3),
                hold_ms=round(1e3 * agg.hold_seconds, 3),
                throughput=round(m.throughput),
                **extra,
            )
            result.recorders[(kind, n)] = rec
    result.note("sim waits are simulated seconds (deterministic); threads/"
                "procs waits are wall-clock and vary run to run")
    result.note("paper's Figure 4 story: at small messages the per-circuit "
                "lock serializes sender and receivers, so wait grows with N")
    if transport != "freelist":
        result.note(f"transport: {transport} (not the paper's free-list path)")
    if causal:
        result.note("causal extras per point: per-stage sojourn p50s and "
                    "end-to-end p50/p95 (microseconds) on the busiest LNVC — "
                    "resid_p50_us is queue wait (lock + scheduling), "
                    "copyin/copyout are the two data copies")
    return result


def fig4_contention(quick: bool = False,
                    runtimes: tuple[str, ...] = ("sim", "procs"),
                    causal: bool = False,
                    transport: str = "freelist") -> SweepResult:
    """Figure 4's mechanism, profiled: FCFS circuit-lock wait vs receivers.

    Runs the `fcfs` benchmark at 16-byte messages under a
    :class:`repro.obs.Recorder` on each requested runtime and reports the
    per-message LNVC lock wait.  ``causal=True`` adds per-message sojourn
    latency columns (stage p50s, e2e p50/p95) from a
    :class:`repro.obs.CausalTracer`, and a :class:`repro.obs.Timeline`
    for the health findings ``bench trace`` prints.  The returned result
    carries a ``recorders`` dict keyed ``(runtime, n)`` for exporting full
    traces.  Always serial: it keeps whole Recorder objects (not picklable
    cheap) and itself spawns a process runtime.
    """
    return _contention_sweep("Figure 4 (contention)", "fcfs",
                             fcfs_throughput, quick, runtimes, length=16,
                             causal=causal, transport=transport)


def fig5_contention(quick: bool = False,
                    runtimes: tuple[str, ...] = ("sim", "procs"),
                    causal: bool = False,
                    transport: str = "freelist") -> SweepResult:
    """Figure 5's counterpart: BROADCAST circuit-lock wait vs receivers."""
    return _contention_sweep("Figure 5 (contention)", "broadcast",
                             broadcast_throughput, quick, runtimes, length=16,
                             causal=causal, transport=transport)


def fig3_contention(quick: bool = False,
                    runtimes: tuple[str, ...] = ("sim", "procs"),
                    causal: bool = False,
                    transport: str = "freelist") -> SweepResult:
    """Figure 3's loop-back benchmark under the tracer, across runtimes.

    Sweeps message *length* (the figure's x axis) instead of receiver
    count; with ``causal=True`` the extras decompose each length's
    per-message latency into allocation, the two copies, and queue
    residency — the split behind the paper's claim that copy costs
    dominate at large lengths.
    """
    result = SweepResult(
        "Figure 3 (trace)",
        "base benchmark: per-message latency vs. message length",
        "bytes",
        "LNVC lock wait per message (microseconds; sim: simulated, "
        "threads/procs: wall-clock)",
    )
    lengths = (64, 1024) if quick else (16, 256, 1024, 2048)
    msgs = 24 if quick else 64
    result.recorders = {}
    for kind in runtimes:
        series = result.new_series(kind)
        for length in lengths:
            rec = Recorder(causal=causal, timeline=causal)
            m = base_throughput(length, messages=msgs, runtime=kind,
                                recorder=rec, transport=transport)
            agg = rec.circuit_lock_stats()
            extra = {}
            if causal:
                extra = _causal_extras(rec.causal)
            series.add(
                length, 1e6 * agg.wait_seconds / msgs,
                acquires=agg.acquires,
                contended=agg.contended,
                wait_ms=round(1e3 * agg.wait_seconds, 3),
                throughput=round(m.throughput),
                **extra,
            )
            result.recorders[(kind, length)] = rec
    result.note("loop-back means the sender is its own receiver: lock wait "
                "stays near zero, the causal stage split is the signal")
    if transport != "freelist":
        result.note(f"transport: {transport} (not the paper's free-list path)")
    if causal:
        result.note("causal extras per point: copyin/copyout p50 should grow "
                    "linearly with length while alloc and residency stay flat")
    return result


def fig6(quick: bool = False, jobs: int = 1,
         transport: str = "freelist") -> SweepResult:
    """Figure 6: fully connected random traffic, throughput vs processes."""
    result = SweepResult(
        "Figure 6", "Random benchmark: throughput vs. processes",
        "processes", "throughput (bytes/second of simulated time)",
    )
    procs = (2, 6, 10, 14, 20) if quick else (2, 4, 6, 8, 10, 12, 14, 17, 20)
    msgs = 16 if quick else 40
    lengths = (8, 256, 1024) if quick else (1, 8, 64, 256, 1024)
    for length in lengths:
        run_series(result, f"{length}B", procs,
                   partial(_fig6_point, msgs, length, transport=transport),
                   jobs=jobs)
    result.note("paper: grows with processes at decreasing slope; 1024B bends "
                "down past ~10 processes (paging), 256B only near 20")
    if transport != "freelist":
        result.note(f"transport: {transport} (not the paper's free-list path)")
    return result


def fig7(quick: bool = False, jobs: int = 1) -> SweepResult:
    """Figure 7: Gauss-Jordan speedup vs worker processes."""
    result = SweepResult(
        "Figure 7", "Gauss-Jordan with partial pivoting: speedup vs. processes",
        "processes", "speedup over the sequential solver (simulated time)",
    )
    procs = (1, 4, 8, 16) if quick else (1, 2, 4, 8, 12, 16)
    sizes = (32, 96) if quick else (32, 48, 64, 96)
    for n in sizes:
        run_series(result, f"{n}x{n}", procs, partial(_fig7_point, n),
                   jobs=jobs)
    result.note("paper: larger matrices give higher speedup; small matrices "
                "peak early then decline (communication dominates)")
    return result


def fig8(quick: bool = False, jobs: int = 1) -> SweepResult:
    """Figure 8: SOR per-iteration speedup vs processor-grid dimension."""
    result = SweepResult(
        "Figure 8", "SOR Poisson solver: per-iteration speedup vs. dimension N",
        "N (NxN processors)", "per-iteration speedup relative to N=2 (4 processes)",
    )
    dims = (2, 4) if quick else (1, 2, 3, 4)
    grids = (17, 65) if quick else (9, 17, 33, 65)
    iters = 4 if quick else 6
    for m in grids:
        run_series(result, f"{m}x{m}", dims, partial(_fig8_point, m, iters),
                   jobs=jobs)
    result.note("paper: speedups relative to the smallest parallel solver "
                "(4 processes); large grids gain, 9x9 loses")
    return result


# ---------------------------------------------------------------------------
# Ablations (design choices the paper discusses but does not measure)
# ---------------------------------------------------------------------------


def _pair_time(make_workers, cfg) -> float:
    return SimRuntime().run(make_workers(), cfg=cfg).elapsed


def _ablation_lnvc_point(reps: int, length: int) -> tuple[float, dict]:
    """The general LNVC, one sender to one FCFS receiver: the baseline
    of Ablations A and B."""
    payload = b"x" * length

    def lnvc_pair():
        def sender(env):
            cid = yield from env.open_send("c")
            for _ in range(reps):
                yield from env.message_send(cid, payload)

        def receiver(env):
            cid = yield from env.open_receive("c", FCFS)
            for _ in range(reps):
                yield from env.message_receive(cid)

        return [sender, receiver]

    t = _pair_time(lnvc_pair, MPFConfig(max_lnvcs=4, max_processes=2))
    return 1e6 * t / reps, {}


def _ablation_sync_chan_point(reps: int, length: int) -> tuple[float, dict]:
    payload = b"x" * length

    def sync_pair():
        def sender(env):
            ch = SyncChannels(env.view, 1, 2 * length)
            for _ in range(reps):
                yield from ch.send(0, env.rank, payload)

        def receiver(env):
            ch = SyncChannels(env.view, 1, 2 * length)
            for _ in range(reps):
                yield from ch.receive(0, env.rank)

        return [sender, receiver]

    t = _pair_time(
        sync_pair,
        MPFConfig(max_lnvcs=4, max_processes=2, ext_slots=1,
                  ext_bytes=SyncChannels.bytes_needed(1, 2 * length)),
    )
    return 1e6 * t / reps, {}


def ablation_sync(quick: bool = False, jobs: int = 1) -> SweepResult:
    """§5 ablation: general LNVC vs synchronous direct-transfer channel.

    Per-message transfer time as a function of message length, one
    sender and one receiver.  Quantifies the double-copy + block-
    manipulation overhead the paper predicts synchronous passing
    removes.
    """
    result = SweepResult(
        "Ablation A", "General LNVC vs. synchronous channel: time per message",
        "bytes", "microseconds per message (simulated)",
    )
    lengths = (16, 256, 2048) if quick else (16, 64, 256, 1024, 2048)
    reps = 8 if quick else 16
    run_series(result, "LNVC (async, double copy)", lengths,
               partial(_ablation_lnvc_point, reps), jobs=jobs)
    run_series(result, "sync channel (rendezvous, direct)", lengths,
               partial(_ablation_sync_chan_point, reps), jobs=jobs)
    result.note("the gap grows with length: per-10-byte-block costs vs one "
                "contiguous copy")
    return result


def _ablation_o2o_ring_point(reps: int, length: int) -> tuple[float, dict]:
    payload = b"x" * length

    def ring_pair():
        def producer(env):
            r = O2ORing(env.view, 0, capacity=16, slot_bytes=64)
            for _ in range(reps):
                yield from r.send(payload)

        def consumer(env):
            r = O2ORing(env.view, 0, capacity=16, slot_bytes=64)
            for _ in range(reps):
                yield from r.receive()

        return [producer, consumer]

    t = _pair_time(
        ring_pair,
        MPFConfig(max_lnvcs=4, max_processes=2,
                  ext_bytes=O2ORing.bytes_needed(16, 64)),
    )
    return 1e6 * t / reps, {}


def ablation_o2o(quick: bool = False, jobs: int = 1) -> SweepResult:
    """§5 ablation: general LNVC vs lock-free one-to-one ring."""
    result = SweepResult(
        "Ablation B", "General LNVC vs. lock-free 1:1 ring: time per message",
        "bytes", "microseconds per message (simulated)",
    )
    lengths = (16, 64) if quick else (4, 16, 48, 64)
    reps = 12 if quick else 32
    run_series(result, "LNVC (locks + blocks + allocator)", lengths,
               partial(_ablation_lnvc_point, reps), jobs=jobs)
    run_series(result, "O2O ring (lock-free)", lengths,
               partial(_ablation_o2o_ring_point, reps), jobs=jobs)
    result.note('"if only one-to-one communication is implemented, all '
                'locking associated with message handling is removed"')
    return result


def _ablation_block_point(msgs: int, bs: int) -> tuple[float, dict]:
    def worker(env):
        sid = yield from env.open_send("loop")
        rid = yield from env.open_receive("loop", FCFS)
        t0 = env.now()
        for _ in range(msgs):
            yield from env.message_send(sid, b"x" * 1024)
            yield from env.message_receive(rid)
        return env.now() - t0

    cfg = MPFConfig(max_lnvcs=4, max_processes=2, block_size=bs,
                    max_messages=8, message_pool_bytes=1 << 18)
    run = SimRuntime().run([worker], cfg=cfg)
    return msgs * 1024 / run.results["p0"], {}


def ablation_block(quick: bool = False, jobs: int = 1) -> SweepResult:
    """Design ablation: message block size (the paper fixed 10 bytes).

    Base-benchmark throughput at 1024-byte messages as the block size
    varies.  Bigger blocks amortize per-block list costs — the knob the
    paper's Figure 3 analysis implies but never sweeps.
    """
    result = SweepResult(
        "Ablation C", "Block size vs. base throughput (1024B messages)",
        "block bytes", "throughput (bytes/second of simulated time)",
    )
    sizes = (10, 64, 256) if quick else (4, 10, 32, 64, 128, 256)
    msgs = 24 if quick else 48
    run_series(result, "base @1024B", sizes, partial(_ablation_block_point, msgs),
               jobs=jobs)
    result.note("10-byte blocks (the paper's choice) sit far below the "
                "large-block ceiling; generality of tiny messages traded "
                "against bulk throughput")
    return result


def _ablation_paging_point(msgs: int, paging: bool, p: int) -> tuple[float, dict]:
    if paging:
        m = random_throughput(p, 1024, messages=msgs)
        return m.throughput, {"faults": m.run.report.page_faults}
    m = random_throughput(p, 1024, messages=msgs,
                          machine=replace(BALANCE_21000, page_fault_seconds=0))
    return m.throughput, {}


def ablation_paging(quick: bool = False, jobs: int = 1) -> SweepResult:
    """Model ablation: Figure 6's random benchmark with paging disabled.

    Separates queueing/lock contention from virtual-memory overhead —
    the decomposition the paper asserts verbally ("this is the reason
    for the decrease in observed throughput").
    """
    result = SweepResult(
        "Ablation D", "Random benchmark (1024B) with and without paging",
        "processes", "throughput (bytes/second of simulated time)",
    )
    procs = (2, 10, 20) if quick else (2, 6, 10, 14, 17, 20)
    msgs = 16 if quick else 32
    run_series(result, "paging on (Balance 21000)", procs,
               partial(_ablation_paging_point, msgs, True), jobs=jobs)
    run_series(result, "paging off", procs,
               partial(_ablation_paging_point, msgs, False), jobs=jobs)
    result.note("the gap between the curves is exactly the simulated VM "
                "overhead; without paging throughput keeps growing")
    return result


def _ablation_cache_point(msgs: int, cache_on: bool, n: int) -> tuple[float, dict]:
    if cache_on:
        m = broadcast_throughput(n, 1024, messages=msgs)
        return m.throughput, {"stalls": m.run.report.cache_stalled_blocks}
    m = broadcast_throughput(n, 1024, messages=msgs,
                             machine=replace(BALANCE_21000,
                                             cache_miss_seconds=0))
    return m.throughput, {}


def ablation_cache(quick: bool = False, jobs: int = 1) -> SweepResult:
    """Model ablation: the write-through cache's read-miss stalls.

    The broadcast benchmark cycles the deepest block working sets, so it
    is where the cache could matter most; the ablation shows the effect
    is second-order — consistent with the paper's analysis never
    mentioning the cache at all.
    """
    result = SweepResult(
        "Ablation E", "Broadcast benchmark (1024B) with and without the cache model",
        "receivers", "throughput (bytes/second of simulated time)",
    )
    counts = (4, 16) if quick else (1, 4, 8, 16)
    msgs = 24 if quick else 64
    run_series(result, "cache model on", counts,
               partial(_ablation_cache_point, msgs, True), jobs=jobs)
    run_series(result, "cache model off", counts,
               partial(_ablation_cache_point, msgs, False), jobs=jobs)
    result.note("a few percent at most: MPF is software-cost bound, not "
                "cache bound — matching the paper's silence about caches")
    return result


def _transport_point(fn, length: int, msgs: int, transport: str,
                     n: int) -> tuple[float, dict]:
    """One head-to-head point: throughput plus the lock-wait and causal
    latency columns that explain it (simulator only)."""
    m, rec = _measured_run(fn, n, length, msgs, transport, _REC_CAUSAL)
    agg = rec.circuit_lock_stats()
    extra = {
        "lnvc_wait_ms": round(1e3 * agg.wait_seconds, 3),
        "lnvc_contended": agg.contended,
        "lnvc_acquires": agg.acquires,
        **_causal_extras(rec.causal),
    }
    return m.throughput, extra


def _transport_random_point(msgs: int, length: int, transport: str,
                            p: int) -> tuple[float, dict]:
    m, _ = _measured_run(random_throughput, p, length, msgs, transport,
                         _REC_NONE)
    return m.throughput, {"faults": m.run.report.page_faults}


def _transport_sweep(figure: str, title: str, fn, quick: bool,
                     jobs: int, lengths: tuple[int, ...]) -> SweepResult:
    result = SweepResult(
        figure, title,
        "receivers", "throughput (bytes/second of simulated time)",
    )
    counts = (1, 4, 8, 16) if quick else (1, 2, 4, 8, 12, 16)
    msgs = 32 if quick else 96
    for length in lengths:
        for transport in ("freelist", "ring"):
            run_series(
                result, f"{length}B {transport}", counts,
                partial(_transport_point, fn, length, msgs, transport),
                jobs=jobs,
            )
    result.note("extras per point: circuit-lock wait/contention plus causal "
                "per-stage p50s and e2e p50/p95 on the busiest LNVC")
    return result


def ablation_transport_fcfs(quick: bool = False, jobs: int = 1) -> SweepResult:
    """Transport ablation: Figure 4's fcfs sweep, free list vs ring.

    Same workload, same cost model; only the payload path changes.  The
    free-list sender's critical section grows with N (it walks the
    receive-descriptor list and the allocator serializes block chains),
    while the ring sender's critical section is a constant-size index
    claim — so the gap widens with fan-in, the paper's §4 contention
    analysis re-run with the contended work removed.
    """
    result = _transport_sweep(
        "Ablation F",
        "fcfs benchmark, free-list vs. ring transport",
        fcfs_throughput, quick, jobs, (16, 1024),
    )
    result.note("free-list send cost grows with receivers (descriptor walk "
                "under the circuit lock); ring send cost is flat")
    return result


def ablation_transport_bcast(quick: bool = False, jobs: int = 1) -> SweepResult:
    """Transport ablation: Figure 5's broadcast sweep, free list vs ring.

    BROADCAST is where the ring's per-reader cursors pay off: readers
    advance private cache-line-padded cursors instead of a shared FIFO
    head walk, and completion is one bit clear in the slot's bitmap
    instead of retirement bookkeeping on a shared message header.
    """
    return _transport_sweep(
        "Ablation G",
        "broadcast benchmark, free-list vs. ring transport",
        broadcast_throughput, quick, jobs, (16, 1024),
    )


def ablation_transport_random(quick: bool = False, jobs: int = 1) -> SweepResult:
    """Transport ablation: Figure 6's random traffic, free list vs ring.

    Ring slots are statically resident per circuit, so the allocator-
    driven working-set growth that bends the 1024-byte free-list curve
    (paging) never happens: the `faults` column drops to the fixed
    footprint's residual.
    """
    result = SweepResult(
        "Ablation H",
        "random benchmark (1024B), free-list vs. ring transport",
        "processes", "throughput (bytes/second of simulated time)",
    )
    procs = (2, 10, 20) if quick else (2, 6, 10, 14, 17, 20)
    msgs = 16 if quick else 40
    for transport in ("freelist", "ring"):
        run_series(result, f"1024B {transport}", procs,
                   partial(_transport_random_point, msgs, 1024, transport),
                   jobs=jobs)
    result.note("rings pre-reserve their slot memory, so the VM model sees a "
                "fixed footprint: the free-list curve's paging bend vanishes")
    return result


def _paradigm_point(kernel: str, size: int, p: int) -> tuple[float, dict]:
    from ..apps.paradigm import paradigm_penalty

    mp_t, shm_t, penalty = paradigm_penalty(kernel, size, p)
    return penalty, {"mp_seconds": mp_t, "shm_seconds": shm_t}


def study_paradigm(quick: bool = False, jobs: int = 1) -> SweepResult:
    """The §5 research question, measured: message passing vs shared
    memory on the same kernels.

    Plots the *penalty* (message-passing time over shared-memory time,
    identical compute charges) against process count for the global-sum
    and 1-D Jacobi kernels.  Values above 1 are the cost of the
    cross-paradigm port the introduction warns about.
    """
    result = SweepResult(
        "Study P", "Cross-paradigm penalty: message passing / shared memory",
        "processes", "time ratio (MP / SHM, simulated)",
    )
    procs = (2, 4) if quick else (1, 2, 4, 8)
    sizes = {"sum": 64 if quick else 256, "jacobi": 64 if quick else 256}
    for kernel in ("sum", "jacobi"):
        run_series(result, f"{kernel} (n={sizes[kernel]})", procs,
                   partial(_paradigm_point, kernel, sizes[kernel]), jobs=jobs)
    result.note('paper §1: "this adaptation may incur a substantial '
                'performance penalty" — quantified')
    return result


#: Registry used by ``python -m repro.bench``.  Every entry accepts
#: ``(quick=False, jobs=1)``.
FIGURES: dict[str, Callable[..., SweepResult]] = {
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "ablation_sync": ablation_sync,
    "ablation_o2o": ablation_o2o,
    "ablation_block": ablation_block,
    "ablation_paging": ablation_paging,
    "ablation_cache": ablation_cache,
    "ablation_transport_fcfs": ablation_transport_fcfs,
    "ablation_transport_bcast": ablation_transport_bcast,
    "ablation_transport_random": ablation_transport_random,
    "study_paradigm": study_paradigm,
}

#: Registry used by ``python -m repro.bench trace <fig>``: figures whose
#: mechanism can be profiled with a Recorder across runtimes.  These stay
#: serial (they keep live Recorder objects and spawn process runtimes).
CONTENTION: dict[str, Callable[..., SweepResult]] = {
    "fig3": fig3_contention,
    "fig4": fig4_contention,
    "fig5": fig5_contention,
}
