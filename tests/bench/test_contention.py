"""Tests for the contention-profiling side of the figure harness:
``make_runtime``, per-point Recorder extras, the CONTENTION registry and
the ``python -m repro.bench trace`` subcommand."""

import json

import pytest

from repro.bench.__main__ import main
from repro.bench.figures import CONTENTION, fig4_contention
from repro.bench.harness import SweepResult
from repro.bench.workloads import fcfs_throughput, make_runtime
from repro.obs import Recorder
from repro.runtime.procs import ProcRuntime
from repro.runtime.sim import SimRuntime
from repro.runtime.threads import ThreadRuntime


def test_make_runtime_kinds():
    rec = Recorder()
    assert isinstance(make_runtime("sim", recorder=rec), SimRuntime)
    assert isinstance(make_runtime("threads", recorder=rec), ThreadRuntime)
    assert isinstance(make_runtime("procs", recorder=rec), ProcRuntime)
    for kind in ("sim", "threads", "procs"):
        assert make_runtime(kind, recorder=rec).recorder is rec
    with pytest.raises(ValueError, match="unknown runtime"):
        make_runtime("quantum")


def test_workload_records_into_recorder():
    rec = Recorder()
    m = fcfs_throughput(2, 16, messages=8, runtime="sim", recorder=rec)
    assert m.throughput > 0
    assert rec.clock == "sim"
    assert rec.circuit_lock_stats().acquires > 0


def test_lnvc_wait_grows_with_receivers_sim():
    """The acceptance criterion's simulator half: per-LNVC lock wait at
    16-byte messages grows with the receiver count."""
    waits = []
    for n in (1, 4, 8):
        rec = Recorder(limit=0)
        fcfs_throughput(n, 16, messages=16, runtime="sim", recorder=rec)
        waits.append(rec.circuit_lock_stats().wait_seconds)
    assert waits[0] < waits[1] < waits[2]


def test_contention_registry_and_result_shape():
    assert set(CONTENTION) == {"fig3", "fig4", "fig5"}
    result = fig4_contention(quick=True, runtimes=("sim",))
    assert isinstance(result, SweepResult)
    (series,) = result.series
    assert series.label == "sim"
    # Per-point extras carry the full circuit-lock aggregate.
    for p in series.points:
        assert {"acquires", "contended", "wait_ms", "hold_ms",
                "throughput"} <= set(p.extra)
    # The recorders dict allows exporting any point's full trace.
    assert set(result.recorders) == {("sim", p.x) for p in series.points}
    # The figure's own headline: wait per message grows with receivers.
    ys = series.ys()
    assert ys[-1] > ys[0]
    # Extras render as a table.
    extras = result.format_extras()
    assert "wait_ms" in extras and "sim" in extras


def test_trace_cli_prints_profile_and_writes_exports(tmp_path, capsys):
    chrome = tmp_path / "t.trace.json"
    raw = tmp_path / "raw.json"
    rc = main(["trace", "fig4", "--quick", "--runtime", "sim",
               "--chrome", str(chrome), "--json", str(raw)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 4 (contention)" in out
    assert "lock profile — sim runtime" in out
    assert "lnvc0" in out
    suffixed_chrome = tmp_path / "t.trace-sim.json"
    assert "traceEvents" in json.loads(suffixed_chrome.read_text())
    assert json.loads(raw.read_text())["figure"] == "Figure 4 (contention)"


def test_trace_cli_rejects_unknown_figure(capsys):
    with pytest.raises(SystemExit):
        main(["trace", "fig9"])
    assert "invalid choice" in capsys.readouterr().err


def test_fig4_points_carry_contention_extras():
    from repro.bench.figures import fig4

    result = fig4(quick=True)
    p = result.series[0].points[0]
    assert {"lnvc_wait_ms", "lnvc_contended", "lnvc_acquires"} <= set(p.extra)
    # 16B series: wait grows along the sweep (the paper's explanation).
    waits = [q.extra["lnvc_wait_ms"] for q in result.series[0].points]
    assert waits == sorted(waits) and waits[-1] > waits[0]
