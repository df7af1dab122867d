"""Per-layer measurements, taken from outside the program.

Everything here times calls into public functions or reads public
counters; nothing under ``src/`` is edited.  The probes at the top are
workload-independent micro-benchmarks (they run in every traced run so
each layer below the workloads has a number in its own unit); the
``*_ratio`` helpers re-run a workload's repetition with one public
switch flipped, interleaved with the unflipped run so host drift hits
both sides of a pair.
"""

from __future__ import annotations

import statistics
import time
from multiprocessing import shared_memory

from repro import FCFS, ProcRuntime, Recorder
from repro.bench.harness import SweepResult, run_series, shutdown_pool
from repro.bench.workloads import broadcast_throughput
from repro.core.layout import MPFConfig
from repro.core.ops import set_fusion
from repro.core.region import SharedRegion
from repro.machine.engine import set_epoch

from workloads import SimBcast16, guarded

_ns = time.perf_counter_ns
p50 = statistics.median


def region_probe(calls: int) -> dict:
    """ns per ``SharedRegion`` access over a real shared-memory buffer.

    Each figure is the best of three ``calls``-long loops and includes
    the loop's own per-iteration cost (one ``for`` step and the call).
    """
    shm = shared_memory.SharedMemory(create=True, size=1 << 16)
    region = SharedRegion(shm.buf)
    try:
        block = region.read(4096, 2048)

        def per_call(fn, *args) -> float:
            best = None
            for _ in range(3):
                t0 = _ns()
                for _ in range(calls):
                    fn(*args)
                took = _ns() - t0
                best = took if best is None else min(best, took)
            return best / calls

        return {
            "core.region.u32_ns": per_call(region.u32, 64),
            "core.region.set_u32_ns": per_call(region.set_u32, 64, 7),
            "core.region.read_2k_ns": per_call(region.read, 4096, 2048),
            "core.region.write_2k_ns": per_call(region.write, 4096, block),
        }
    finally:
        region.release()
        shm.close()
        shm.unlink()


def loopback_probe(transport: str, calls: int) -> dict:
    """Host us (p50) per primitive: one forked process talking to itself.

    Fig 3's shape on real metal: send then receive on a loop-back
    circuit, so nothing ever blocks and the figures are the primitives'
    own cost under ``runtime.threads.drive`` and ``multiprocessing``
    locks.
    """
    def worker(env):
        sid = yield from env.open_send("loop")
        rid = yield from env.open_receive("loop", FCFS)
        out = {}
        for size in (16, 2048):
            payload = bytes(size)
            sends, recvs = [], []
            for _ in range(calls):
                t0 = _ns()
                yield from env.message_send(sid, payload)
                t1 = _ns()
                yield from env.message_receive(rid)
                t2 = _ns()
                sends.append(t1 - t0)
                recvs.append(t2 - t1)
            out[f"send_us_{size}"] = p50(sends) / 1e3
            out[f"recv_us_{size}"] = p50(recvs) / 1e3
        checks, cycles = [], []
        for _ in range(calls):
            t0 = _ns()
            yield from env.check_receive(rid)
            checks.append(_ns() - t0)
        for _ in range(max(1, calls // 4)):
            t0 = _ns()
            cid = yield from env.open_send("other")
            yield from env.close_send(cid)
            cycles.append(_ns() - t0)
        out["check_us"] = p50(checks) / 1e3
        out["open_close_us"] = p50(cycles) / 1e3
        yield from env.close_send(sid)
        yield from env.close_receive(rid)
        return out

    cfg = MPFConfig(max_lnvcs=4, max_processes=2, max_messages=16,
                    message_pool_bytes=1 << 18, transport=transport,
                    ring_slot_bytes=2048)
    got = guarded(
        lambda: ProcRuntime(join_timeout=30).run([worker], cfg=cfg)
        .results["p0"], timeout=60)
    if "error" in got:
        raise RuntimeError(f"{transport} loop-back probe: {got['error']}")
    if transport == "ring":
        return {f"core.transport.ring_{k}": got[k]
                for k in ("send_us_16", "send_us_2048",
                          "recv_us_16", "recv_us_2048")}
    return {f"core.ops.{k}": got[k]
            for k in ("send_us_16", "send_us_2048", "recv_us_16",
                      "recv_us_2048", "check_us", "open_close_us")}


def paired_ratio(base, variant, pairs: int) -> float:
    """Median of ``variant() / base()`` over interleaved pairs.

    ``base`` and ``variant`` each run one repetition and return its wall
    seconds.  The order within a pair alternates so neither side always
    runs on the warmer cache.
    """
    ratios = []
    for i in range(pairs):
        if i % 2:
            v, b = variant(), base()
        else:
            b, v = base(), variant()
        ratios.append(v / b)
    return p50(ratios)


def hatch_off_ratio(workload, setter, pairs: int) -> float:
    """Rep wall with one engine mechanism off over on (``setter(bool)``).

    The simulated output must be identical on both sides — the hatch is
    only a hatch if it changes nothing but host time — so the digests
    are asserted equal before any ratio is reported.
    """
    digests = set()

    def run(on: bool):
        def rep() -> float:
            setter(on)
            try:
                r = workload.rep()
            finally:
                setter(True)
            digests.add(r["digest"])
            return r["wall"]
        return rep

    ratio = paired_ratio(run(True), run(False), pairs)
    if len(digests) != 1:
        raise AssertionError(
            f"{workload.name}: simulated output differs with "
            f"{setter.__name__}(False): {sorted(digests)}")
    return ratio


#: The engine's two escape hatches, by the metric that prices each.
HATCHES = {
    "machine.engine.fusion_off_ratio": set_fusion,
    "machine.engine.epoch_off_ratio": set_epoch,
}


#: ``Recorder`` constructions whose attached/bare wall ratio is reported.
OBS_KINDS = {
    "obs.recorder.wall_ratio": {},
    "obs.causal.wall_ratio": {"causal": True},
    "obs.timeline.wall_ratio": {"timeline": True},
}


def obs_ratios(rep_wall, pairs: int) -> dict:
    """Wall with each recorder kind attached over bare.

    ``rep_wall(recorder)`` runs one repetition (``None`` = bare) and
    returns its wall seconds.
    """
    return {
        name: paired_ratio(lambda: rep_wall(None),
                           lambda kw=kw: rep_wall(Recorder(**kw)), pairs)
        for name, kw in OBS_KINDS.items()
    }


def _bcast_point(x: float) -> tuple[float, dict]:
    """One ``sim_bcast16``-sized point for :func:`jobs2_speedup`."""
    ms = [broadcast_throughput(*pt) for pt in SimBcast16.points]
    return ms[1].throughput, {"small": ms[0].throughput}


def jobs2_speedup(points: int) -> float:
    """``run_series`` wall with ``jobs=1`` over ``jobs=2``, same points."""
    walls, outputs = {}, {}
    try:
        for jobs in (2, 1):
            sweep = SweepResult("ledger", "jobs", "point", "B/s")
            t0 = time.perf_counter()
            series = run_series(sweep, "bcast16", range(points),
                                _bcast_point, jobs=jobs)
            walls[jobs] = time.perf_counter() - t0
            outputs[jobs] = [(p.x, p.y, p.extra) for p in series.points]
    finally:
        shutdown_pool()
    if outputs[1] != outputs[2]:
        raise AssertionError("run_series output differs between jobs=1 "
                             "and jobs=2")
    return walls[1] / walls[2]
