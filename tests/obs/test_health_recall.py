"""Every health finding kind, checked against injected faults.

A finding is useful only if it points at a shared resource running
short — the bounded block pool, or a queue behind a consumer that
stopped keeping up — and says nothing when nothing is short.  Each case
below is one run whose timeline :class:`~repro.obs.HealthEngine` scans:

* **faults** (simulated, seed 1987): pool starvation — a tight serve
  shape at 800 rps, under the shed and the stall policy; a throttled
  worker tier — service time raised until the workers saturate below
  the offered load (80k instructions a request: 83 rps under 100), and
  raised until their queues hit the block pool's bound within the first
  third of the run (150k), where the queues read flat and the pool runs
  dry instead; a stopped consumer — the checker's ``drop_wake``
  mutant on the sender, so the receiver sleeps through every later send;
* **knees**: the archived knees of ``serve_slo.json`` at the SLO probe's
  size (n = 5 × rate, seed 1987);
* **clean**: every archived point below a knee at probe size, baseline
  at 60 rps, and the closed-loop fig4 / fig5 ``--quick`` points at 1 and
  8 receivers on sim, threads and procs — what ``bench trace`` scans.

Each fault must be recalled by the kind it targets, each clean run must
be silent, and a knee must name a tier or circuit of the pipeline.  The
batched knee is a known miss (strict ``xfail``): past it the clients
fall behind their arrival schedule while every MPF queue stays flat, so
no timeline series holds the backlog.  ``python
tests/obs/test_health_recall.py`` prints the table docs/telemetry.md
carries, and :func:`test_docs_carry_this_table` keeps the two equal.
"""

import functools
import os
import sys

import pytest

from repro.bench.workloads import broadcast_throughput, fcfs_throughput
from repro.check.faults import drop_wake
from repro.core.protocol import FCFS
from repro.machine.balance import BALANCE_21000
from repro.machine.engine import DeadlockError
from repro.obs import HealthEngine, Recorder
from repro.patterns import barrier
from repro.runtime.sim import SimRuntime
from repro.serve.sweep import run_point
from repro.serve.topology import ServeShape

KINDS = ("saturating-tier", "queue-growth", "alloc-pressure")
DOC = os.path.join(os.path.dirname(__file__), "..", "..", "docs",
                   "telemetry.md")


def _serve(shape: ServeShape, rate: float, n: int | None = None):
    def run() -> Recorder:
        _, rec = run_point(shape, rate, n or round(5 * rate), seed=1987,
                           runtime="sim", timeline=True)
        return rec
    return run


def _stopped_consumer() -> Recorder:
    """60 sends 25 ms apart; from the 21st on the sender's wakes are
    lost, so the receiver, asleep on the empty circuit, never takes
    another message and the run ends in a deadlock."""
    pace = round(0.025 / BALANCE_21000.instr_seconds)

    def sender(env):
        cid = yield from env.open_send("data")
        yield from barrier(env, "go", 2)
        for i in range(60):
            yield from env.compute(instrs=pace)
            send = env.message_send(cid, b"x" * 16)
            yield from (drop_wake(send) if i >= 20 else send)

    def receiver(env):
        cid = yield from env.open_receive("data", FCFS)
        yield from barrier(env, "go", 2)
        while True:
            yield from env.message_receive(cid)

    rec = Recorder(timeline=True)
    with pytest.raises(DeadlockError):
        SimRuntime(recorder=rec).run([sender, receiver])
    return rec


def _figure(fn, kind: str, receivers: int):
    def run() -> Recorder:
        rec = Recorder(causal=True, timeline=True)  # as `bench trace --causal`
        fn(receivers, 16, messages=24, runtime=kind, recorder=rec)
        return rec
    return run


BASELINE = ServeShape()
BATCHED = BASELINE.with_load_features(batch=8)
STARVED = dict(clients=2, frontends=2, workers=2, pool_batches=8,
               queue_cap=4)

#: Fault -> (run, the kind that must recall it, the series it must name).
FAULTS = {
    "pool starvation, shed": (
        _serve(ServeShape(policy="shed", **STARVED), 800, 400),
        "alloc-pressure", "pool"),
    "pool starvation, stall": (
        _serve(ServeShape(policy="stall", **STARVED), 800, 400),
        "alloc-pressure", "pool"),
    "throttled workers": (
        _serve(ServeShape(service_instrs=80_000), 100),
        "saturating-tier", "tier:workers"),
    "throttled workers, queues at the pool's bound": (
        _serve(ServeShape(service_instrs=150_000), 100),
        "alloc-pressure", "pool"),
    "stopped consumer": (_stopped_consumer, "queue-growth", "circuit:data"),
}

KNEES = {
    "baseline 300 rps (knee)": _serve(BASELINE, 300),
    "batched 900 rps (knee)": _serve(BATCHED, 900),
}

CLEAN = {
    **{f"baseline {r} rps": _serve(BASELINE, r) for r in (60, 100, 200)},
    **{f"batched {r} rps": _serve(BATCHED, r)
       for r in (100, 200, 300, 400, 500, 700)},
    **{f"{fig} {kind}, {n} receiver(s)": _figure(fn, kind, n)
       for fig, fn in (("fig4", fcfs_throughput),
                       ("fig5", broadcast_throughput))
       for kind in ("sim", "threads", "procs") for n in (1, 8)},
}

CASES = {**{k: v[0] for k, v in FAULTS.items()}, **KNEES, **CLEAN}


@functools.cache
def findings(case: str):
    return HealthEngine(CASES[case]().timeline).scan()


def _needs_fork(case: str):
    if ("threads" in case or "procs" in case) and \
            not sys.platform.startswith("linux"):
        pytest.skip("POSIX runtimes")


@pytest.mark.parametrize("case", FAULTS)
def test_fault_is_recalled(case):
    _, kind, series = FAULTS[case]
    assert (kind, series) in {(f.kind, f.series) for f in findings(case)}


@pytest.mark.parametrize("case", [
    "baseline 300 rps (knee)",
    pytest.param("batched 900 rps (knee)", marks=pytest.mark.xfail(
        strict=True, reason="the backlog is the clients' schedule lag, "
        "outside every MPF queue")),
])
def test_knee_names_the_pipeline(case):
    named = {f.series for f in findings(case)}
    assert any(s.startswith(("tier:", "circuit:serve.")) for s in named)


@pytest.mark.parametrize("case", CLEAN)
def test_clean_run_is_silent(case):
    _needs_fork(case)
    assert findings(case) == []


def _cell(fs, kind: str) -> str:
    names = sorted(f.series.split(":", 1)[-1] for f in fs if f.kind == kind)
    if len(names) > 2:
        return f"{names[0].rsplit('.', 1)[0]}.* ×{len(names)}"
    return ", ".join(names) or "—"


def table() -> str:
    """The recall / precision table of docs/telemetry.md, in Markdown."""
    rows = ["| run | must fire | " + " | ".join(KINDS) + " |",
            "|---|---|" + "---|" * len(KINDS)]
    for case in CASES:
        must = (FAULTS[case][1] if case in FAULTS
                else "any" if case in KNEES else "nothing")
        fs = findings(case)
        rows.append(f"| {case} | {must} | "
                    + " | ".join(_cell(fs, k) for k in KINDS) + " |")
    for kind in KINDS:
        targeted = [c for c in FAULTS if FAULTS[c][1] == kind]
        hit = [c for c in targeted
               if any(f.kind == kind for f in findings(c))]
        false = [c for c in CLEAN if any(f.kind == kind
                                         for f in findings(c))]
        rows.append(f"\n`{kind}`: recalls {len(hit)} of {len(targeted)} "
                    f"targeted fault(s); fires on {len(false)} of "
                    f"{len(CLEAN)} clean runs.")
    return "\n".join(rows) + "\n"


def test_docs_carry_this_table():
    if not sys.platform.startswith("linux"):
        pytest.skip("POSIX runtimes")
    with open(DOC, encoding="utf-8") as fh:
        assert table() in fh.read()


if __name__ == "__main__":
    print(table(), end="")
