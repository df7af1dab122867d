"""Offered-load sweeps: measure goodput and SLO latency per load point.

:func:`run_point` runs one topology at one offered load and reduces it
to an SLO point; :func:`run_sweep` sweeps loads for several
configurations (baseline vs batched) and assembles
the :class:`~repro.serve.slo.SLOReport`.  Point measurement reuses the
figure harness's :func:`~repro.bench.harness.run_series`, so ``--jobs``
parallelism — one deterministic simulation per pool worker, results
reassembled in sweep order — behaves exactly like the figure sweeps,
where ``--jobs 2`` on a two-CPU host ran 1.4–1.65× as fast as serial.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping, Sequence

from ..bench.harness import SweepResult, run_series
from ..machine.balance import MachineConfig
from ..obs.causal import StageStats
from ..obs.recorder import Recorder
from .arrivals import PoissonArrivals, schedule_digest
from .slo import SLOReport
from .topology import ServeShape, build_workers, serve_config, serve_machine

__all__ = ["client_schedules", "run_point", "run_sweep"]


def client_schedules(
    rate: float, n_requests: int, seed: int, clients: int,
) -> tuple[list[tuple[float, ...]], str]:
    """Split an aggregate Poisson load across ``clients`` generators.

    Each client gets an independent seeded stream at ``rate/clients``;
    the superposition of independent Poisson processes is Poisson at the
    aggregate rate.  Returns the per-client schedules plus a digest over
    their concatenation — the value cross-runtime reproducibility tests
    compare.
    """
    per, extra = divmod(n_requests, clients)
    schedules = []
    for i in range(clients):
        n = per + (1 if i < extra else 0)
        schedules.append(
            PoissonArrivals(rate / clients, max(1, n), seed * 613 + i)
            .times())
    digest = schedule_digest([t for s in schedules for t in s])
    return schedules, digest


def run_point(
    shape: ServeShape,
    rate: float,
    n_requests: int,
    seed: int = 1987,
    runtime: str = "sim",
    schedules: Sequence[Sequence[float]] | None = None,
    machine: MachineConfig | None = None,
    recorder: Recorder | None = None,
) -> tuple[dict, Recorder | None]:
    """Run one offered-load point; returns ``(slo_point, recorder)``.

    ``schedules`` overrides the generated Poisson arrivals (trace-driven
    serving: pass one absolute-time schedule per client).  ``recorder``
    observes the point and is returned as given (``None``: unobserved).
    Build it with what the question needs: ``Recorder(causal=True)``
    for the e2e delivery sketch and the per-message exports,
    ``Recorder(timeline=True)`` for the windowed series behind the
    ``mpf-serve-timeline/1`` document and the health findings
    (:class:`repro.obs.HealthEngine`).
    """
    if schedules is None:
        schedules, digest = client_schedules(
            rate, n_requests, seed, shape.clients)
    else:
        schedules = [tuple(s) for s in schedules]
        digest = schedule_digest([t for s in schedules for t in s])
    offered = sum(len(s) for s in schedules)
    if machine is None:
        machine = serve_machine(shape)

    workers = build_workers(shape, schedules, runtime=runtime,
                            machine=machine)
    if runtime == "sim":
        from ..runtime.sim import SimRuntime

        rt = SimRuntime(machine=machine, recorder=recorder)
    elif runtime == "threads":
        from ..runtime.threads import ThreadRuntime

        rt = ThreadRuntime(recorder=recorder, join_timeout=600)
    elif runtime == "procs":
        from ..runtime.procs import ProcRuntime

        rt = ProcRuntime(recorder=recorder)
    else:
        raise ValueError(f"unknown runtime {runtime!r}")
    result = rt.run(workers, cfg=serve_config(shape))

    agg = result.results[f"p{shape.nprocs - 1}"]
    clients = [result.results[f"p{i}"] for i in range(shape.clients)]
    window = agg["t_last"] - agg["t0"]
    e2e = StageStats(agg["e2e"]) if agg["e2e"] else None
    point = {
        "offered_rps": rate,
        "goodput_rps": agg["completed"] / window if window > 0 else 0.0,
        "completed": agg["completed"],
        "offered": offered,
        "shed": sum(c["shed_overflow"] + c["shed_backpressure"]
                    for c in clients),
        "stalls": sum(c["stalls"] for c in clients),
        "backpressure_events": sum(c["backpressure_events"]
                                   for c in clients),
        "p50_ms": 1e3 * e2e.quantile(0.5) if e2e else 0.0,
        "p99_ms": 1e3 * e2e.quantile(0.99) if e2e else 0.0,
        "p999_ms": 1e3 * e2e.p999 if e2e else 0.0,
        "window_s": window,
        "mpf_messages": result.header["total_sends"],
        "schedule_digest": digest,
    }
    return point, recorder


def _measure(rate: float, *, shape: ServeShape, n_per_rps: float,
             seed: int, runtime: str) -> tuple[float, dict]:
    """Picklable point measurement for :func:`run_series` pools.

    ``n_per_rps`` scales request count with load so every point's
    schedule covers a comparable time window.
    """
    n = max(shape.batch, round(rate * n_per_rps))
    point, _ = run_point(shape, rate, n, seed=seed, runtime=runtime)
    return point["goodput_rps"], point


def run_sweep(
    configs: Mapping[str, ServeShape],
    loads: Sequence[float],
    duration: float = 10.0,
    seed: int = 1987,
    runtime: str = "sim",
    jobs: int = 1,
) -> tuple[SLOReport, SweepResult]:
    """Sweep ``loads`` (aggregate requests/s) for each configuration.

    ``duration`` is the nominal schedule length per point in seconds, so
    a point at rate R offers ``R * duration`` requests.  Returns the SLO
    report plus the underlying :class:`SweepResult` (figure-style table
    of goodput vs offered load).
    """
    report = SLOReport(runtime=runtime, seed=seed)
    sweep = SweepResult(
        figure="serve",
        title="open-loop goodput vs offered load",
        x_label="offered rps",
        y_label="goodput, logical requests per second",
    )
    for label, shape in configs.items():
        measure = partial(_measure, shape=shape, n_per_rps=duration,
                          seed=seed, runtime=runtime)
        series = run_series(sweep, label, loads, measure, jobs=jobs)
        points = [p.extra for p in series.points]
        report.add_config(label, _shape_dict(shape), points)
        knee = report.configs[label]["knee_rps"]
        sweep.note(f"{label}: " + (f"knee at {knee:g} rps" if knee
                                   else "no knee in range"))
    return report, sweep


def _shape_dict(shape: ServeShape) -> dict:
    from dataclasses import asdict

    return asdict(shape)
