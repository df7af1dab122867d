"""Windowed timeline telemetry: merge algebra, taps, and inertness.

The load-bearing guarantees pinned here:

* attaching a timeline never perturbs the simulated schedule (fig3
  byte-identity — the tentpole's acceptance criterion, mirroring the
  causal-tracer pin in tests/obs/test_causal.py);
* window merges (through ``Recorder.merge``, the one entry) are
  associative and commutative, so the rank-order procs merge and any
  thread-join order produce the same timeline;
* the same program produces the same circuit-level counter totals on
  the simulator, real threads and forked processes — the windowed
  series are runtime-portable even though the time axis is not;
* a window's digests are the ``Histogram`` the lock profile uses, so
  per-window quantiles agree with the post-hoc aggregates.
"""

import itertools
import json
import pickle
import sys

import pytest

from repro.core.protocol import FCFS
from repro.obs import CausalTracer, Histogram, Recorder, Timeline
from repro.obs.store import log2_us_bucket
from repro.runtime.procs import ProcRuntime
from repro.runtime.sim import SimRuntime
from repro.runtime.threads import ThreadRuntime

LINUX_ONLY = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="POSIX runtimes"
)


# -- the shared workload: producer -> two FCFS consumers ---------------------
#
# Real runtimes give arbitrary interleavings, so the program uses the
# loss-free joining discipline (a "ready" handshake) before the producer
# sends — the same shape as tests/runtime/test_real_runtimes.py.

N_ITEMS = 6


def producer(env):
    cid = yield from env.open_send("jobs")
    rid = yield from env.open_receive("ready", FCFS)
    for _ in range(2):
        yield from env.message_receive(rid)
    for i in range(N_ITEMS):
        yield from env.message_send(cid, bytes([i]) * 8)
    yield from env.close_send(cid)
    yield from env.close_receive(rid)
    return "sent"


def consumer(env):
    cid = yield from env.open_receive("jobs", FCFS)
    rdy = yield from env.open_send("ready")
    yield from env.message_send(rdy, b"up")
    got = []
    for _ in range(N_ITEMS // 2):
        got.append((yield from env.message_receive(cid)))
    yield from env.close_send(rdy)
    yield from env.close_receive(cid)
    return got


WORKERS = [producer, consumer, consumer]


#: The circuit metrics whose totals are schedule-independent.  Waiting
#: metrics (chan_wait) depend on the interleaving, so they are excluded
#: from cross-runtime parity checks.
DETERMINISTIC = ("sent", "recv", "bytes_sent", "bytes_recv")


def named_counter_totals(tl: Timeline, metrics=None) -> dict[str, float]:
    """Circuit counter totals keyed by circuit *name* (slot-free)."""
    out: dict[str, float] = {}
    for key, n in tl.totals().counters.items():
        series, metric = key.split("|", 1)
        if not series.startswith("circuit:"):
            continue
        if metrics is not None and metric not in metrics:
            continue
        label = tl.series_label(series)
        assert not label[8:].isdigit(), f"unnamed circuit series {key}"
        out[f"{label}|{metric}"] = out.get(f"{label}|{metric}", 0) + n
    return out


# -- merge algebra -----------------------------------------------------------


def _synthetic(seed: int) -> Recorder:
    """A recorder whose timeline is hand-fed (no runtime, explicit times)."""
    rec = Recorder(timeline=Timeline(width=0.5))
    tl = rec.timeline
    tl.name_slot(0, "jobs")
    for i in range(5):
        t = 0.3 * (i + seed)
        tl.count(t, "circuit:0|sent", 1 + seed)
        tl.gauge(t, "circuit:0|depth", float(i * seed + 1))
        tl.observe(t, "lock:global|wait", 1e-6 * (10 ** (i % 3)) * (seed + 1))
    return rec


def _merged(snaps) -> Recorder:
    out = Recorder()
    for snap in snaps:
        out.merge(snap)
    return out


def _doc(rec: Recorder) -> str:
    return json.dumps(rec.timeline.to_doc(), sort_keys=True)


def test_merge_is_associative_and_commutative():
    snaps = [_synthetic(s).snapshot() for s in (1, 2, 3)]
    docs = {_doc(_merged(order)) for order in itertools.permutations(snaps)}
    assert len(docs) == 1
    # Pairwise pre-merge (associativity) gives the same result too.
    left = _merged(snaps[:2])
    left.merge(snaps[2])
    assert _doc(left) == docs.pop()


def test_merge_totals_are_sums():
    a, b = _synthetic(1), _synthetic(2)
    merged = _merged([a.snapshot(), b.snapshot()])
    ta, tb, tm = (r.timeline.totals() for r in (a, b, merged))
    key = "circuit:0|sent"
    assert tm.counters[key] == ta.counters[key] + tb.counters[key]
    ga, gb, gm = (t.gauges["circuit:0|depth"] for t in (ta, tb, tm))
    assert gm.n == ga.n + gb.n and gm.sum == ga.sum + gb.sum
    assert gm.min == min(ga.min, gb.min) and gm.max == max(ga.max, gb.max)


def test_merge_rejects_width_mismatch():
    rec = Recorder(timeline=Timeline(width=0.5))
    with pytest.raises(ValueError, match="width"):
        rec.merge(Recorder(timeline=Timeline(width=0.1)).snapshot())


def test_snapshot_roundtrip_preserves_names_and_windows():
    rec = _synthetic(1)
    back = _merged([pickle.loads(pickle.dumps(rec.snapshot()))])
    assert back.timeline.names == rec.timeline.names
    assert back.timeline.width == rec.timeline.width
    assert _doc(back) == _doc(rec)


# -- a window's digest is the lock profile's Histogram -----------------------


def test_digest_buckets_match_histogram():
    samples = (0.0, 5e-7, 1e-6, 3e-6, 1e-4, 0.5)
    hist = Histogram()
    tl = Timeline(width=1.0)
    for s in samples:
        hist.add_bucket(log2_us_bucket(s))
        tl.observe(0.0, "x|wait", s)
    assert tl.totals().digests["x|wait"].counts == hist.counts
    assert all(log2_us_bucket(s) in hist.counts for s in samples)


def test_digest_quantile_nearest_rank():
    digest = Histogram({0: 50, 4: 40, 10: 10})  # <=1us, <=16us, <=1024us
    assert digest.quantile(0.5) == pytest.approx(1e-6)
    assert digest.quantile(0.9) == pytest.approx(16e-6)
    assert digest.quantile(0.99) == pytest.approx(1024e-6)
    assert Histogram().quantile(0.5) == 0.0


# -- tentpole acceptance: the timeline cannot perturb the simulation ---------


def test_fig3_output_byte_identical_with_timeline():
    from repro.bench.figures import fig3

    plain = fig3(quick=True)
    timed = fig3(quick=True, timeline=True)
    assert timed.format_table() == plain.format_table()
    assert json.dumps(timed.to_dict(), sort_keys=True) == json.dumps(
        plain.to_dict(), sort_keys=True
    )


def test_timeline_does_not_change_simulated_time_or_lock_profile():
    plain = Recorder()
    timed = Recorder(causal=CausalTracer(limit=4096), timeline=True)
    a = SimRuntime(recorder=plain).run(WORKERS)
    b = SimRuntime(recorder=timed).run(WORKERS)
    assert b.elapsed == a.elapsed
    assert b.header == a.header
    assert timed.lock_profile() == plain.lock_profile()
    assert timed.summary() == plain.summary()


# -- taps feed the expected series on the simulator --------------------------


def test_sim_timeline_counts_match_segment_header():
    rec = Recorder(timeline=True)
    result = SimRuntime(recorder=rec).run(WORKERS)
    tl = rec.timeline
    assert tl.clock_kind == "sim"
    totals = named_counter_totals(tl)
    sends = sum(v for k, v in totals.items() if k.endswith("|sent"))
    recvs = sum(v for k, v in totals.items() if k.endswith("|recv"))
    bytes_sent = sum(v for k, v in totals.items()
                     if k.endswith("|bytes_sent"))
    assert sends == result.header["total_sends"]
    assert recvs == result.header["total_receives"]
    assert bytes_sent == result.header["total_bytes_sent"]
    assert totals["circuit:jobs|sent"] == N_ITEMS
    assert totals["circuit:ready|sent"] == 2
    # Depth gauges and pool levels were sampled.
    gauges = tl.totals().gauges
    assert any(k.endswith("|depth") for k in gauges)
    assert gauges["pool|live_blocks"].n > 0
    # The run's engine counters landed on the recorder.
    assert rec.machine["events"] > 0
    assert rec.machine["heap_pops"] > 0


def test_sim_timeline_is_deterministic():
    def one():
        rec = Recorder(timeline=True)
        SimRuntime(recorder=rec).run(WORKERS)
        return json.dumps(rec.timeline.to_doc(), sort_keys=True)

    assert one() == one()


# -- cross-runtime series parity ---------------------------------------------


@LINUX_ONLY
@pytest.mark.parametrize("kind", ["threads", "procs"])
def test_real_runtime_counter_totals_match_sim(kind):
    """Wall-clock windowing changes the time axis, never the totals:
    threads merge child timelines at join, procs merge rank-order
    snapshots across the fork — both must equal the sim's books."""
    sim_rec = Recorder(timeline=True)
    SimRuntime(recorder=sim_rec).run(WORKERS)

    rec = Recorder(timeline=True)
    rt = (ThreadRuntime(recorder=rec, join_timeout=60) if kind == "threads"
          else ProcRuntime(recorder=rec, join_timeout=60))
    result = rt.run(WORKERS)
    assert result.results["p0"] == "sent"

    assert named_counter_totals(rec.timeline, DETERMINISTIC) == \
        named_counter_totals(sim_rec.timeline, DETERMINISTIC)
    assert rec.timeline.clock_kind == "wall"
    assert sim_rec.timeline.clock_kind == "sim"
