"""The one store: each mechanism written once, shown by a source scan.

``repro.obs.store`` defines what a measurement is stored in — counter,
gauge, digest, bounded log — and how two of them fold.  The unit tests
pin the arithmetic; the scans walk the AST of everything under
``src/repro/`` (as tests/obs/test_probe_seam.py does for the seam) and
show that no second copy of a mechanism, and none of the protocols the
store replaced, is left.
"""

import ast
import functools
import pathlib
import pickle

import pytest

import repro
import repro.obs
from repro.obs import Histogram, Recorder, Store, Timeline
from repro.obs.causal import CausalTracer, MsgEvent, StageStats
from repro.obs.recorder import LockStats, Span, WorkStats
from repro.obs.store import Gauge, Log, Sample, add_counts, log2_us_bucket

SRC = pathlib.Path(repro.__file__).parent
OBS = SRC / "obs"

# -- the cells -----------------------------------------------------------------


def test_gauge_folds_by_name():
    store = Store()
    for v in (3, 1.5, 7):
        store.gauge("depth", v)
    cell = store.gauges["depth"]
    assert cell == Gauge(n=3, sum=11.5, min=1.5, max=7) and cell.mean == 11.5 / 3
    assert cell.fold(Gauge(2, 1.0, 0.25, 0.75)) == Gauge(5, 12.5, 0.25, 7)
    assert cell._asdict() == {"n": 3, "sum": 11.5, "min": 1.5, "max": 7}


def test_digest_is_the_lock_histogram():
    digest = Histogram()
    for seconds in (0.0, 5e-7, 3e-6, 3e-6, 2e-3):
        digest.add_bucket(log2_us_bucket(seconds))
    assert digest.counts == {0: 2, 2: 2, 11: 1} and digest.total == 5
    assert digest.quantile(0.5) == pytest.approx(4e-6)
    assert dict(digest.buckets()) == {"≤1µs": 2, "≤4µs": 2, "≤2.048ms": 1}
    other = Histogram({2: 1, 20: 4})
    other.fold(digest)
    assert other.counts == {2: 3, 20: 4, 0: 2, 11: 1}
    assert isinstance(LockStats().wait_hist, Histogram)
    assert isinstance(Store().digests["any"], Histogram)


def test_digests_compare_by_their_counts():
    """Two digests are equal when they count the same durations in the
    same buckets; a digest equals no other kind of value."""
    assert Histogram({0: 2, 3: 1}) == Histogram({3: 1, 0: 2})
    assert Histogram({0: 2}) != Histogram({0: 3})
    assert Histogram() != {}
    assert LockStats() == LockStats()
    stats = LockStats()
    stats.wait_hist.add_bucket(4)
    assert stats != LockStats()


def test_two_snapshots_of_one_program_compare_equal():
    """A simulated program is deterministic, so two runs of it record
    the same measurements, lock digests included: their snapshots — and
    a pickled copy of one — compare equal."""
    from repro.bench.workloads import fcfs_throughput

    def snap():
        rec = Recorder()
        fcfs_throughput(3, 64, messages=30, recorder=rec)
        return rec.snapshot()

    one, two = snap(), snap()
    assert one["locks"] and any(
        s.wait_hist.total for s in one["locks"].values())
    assert one == two
    assert pickle.loads(pickle.dumps(one)) == two


def test_store_folds_cell_by_cell():
    a, b = Store(), Store()
    a.counters["sent"] += 2
    b.counters["sent"] += 3
    b.counters["recv"] += 1.0
    a.gauge("depth", 4)
    b.gauge("depth", 1)
    b.gauge("level", 9)
    a.digests["wait"].add_bucket(3)
    b.digests["wait"].add_bucket(3, 2)
    a.fold(b)
    assert dict(a.counters) == {"sent": 5, "recv": 1.0}
    assert a.gauges == {"depth": Gauge(2, 5, 1, 4), "level": Gauge(1, 9, 9, 9)}
    assert a.digests["wait"].counts == {3: 3}
    assert dict(b.counters) == {"sent": 3, "recv": 1.0}  # the source is read only
    into = {"x": 1}
    add_counts(into, {"x": 2, "y": 5})
    assert into == {"x": 3, "y": 5}


def test_log_keeps_a_prefix_and_counts_the_rest():
    log = Log(limit=3)
    for i in range(5):
        if log.admit():
            log.append(i)
    assert (list(log), log.total, log.dropped) == ([0, 1, 2], 5, 2)
    assert log.admit(0) == 0 and log.total == 5
    roomy = Log(limit=4)
    assert roomy.admit(2) == 2
    roomy.extend("ab")
    roomy.fold(log)  # two fit; one does not, and log's own two drops ride along
    assert (list(roomy), roomy.total, roomy.dropped) == (["a", "b", 0, 1], 7, 3)
    assert roomy.total == len(roomy) + roomy.dropped
    back = pickle.loads(pickle.dumps(roomy))
    assert (list(back), back.limit, back.total, back.dropped) == (
        list(roomy), 4, 7, 3)


def _offered(sample: Sample, keys) -> Sample:
    for k in keys:
        if sample.admit(k):
            sample.append(k)
    return sample


def _state(sample: Sample) -> tuple:
    return sorted(sample), sample.stride, sample.total, sample.dropped


def test_sample_keeps_the_smallest_stride_that_fits_in_any_order():
    keys = [k % 11 for k in range(40)]  # eleven keys, three or four each
    whole = _offered(Sample(8, int), keys)
    assert _state(whole) == ([0] * 4 + [8] * 3, 8, 40, 33)
    for cut in (0, 7, 20, 33):
        a = _offered(Sample(8, int), keys[:cut])
        b = _offered(Sample(8, int), keys[cut:])
        ab, ba = pickle.loads(pickle.dumps(a)), pickle.loads(pickle.dumps(b))
        ab.fold(b)
        ba.fold(a)
        assert _state(ab) == _state(ba) == _state(whole)
        backwards = _offered(Sample(8, int), keys[cut:] + keys[:cut])
        assert _state(backwards) == _state(whole)


def test_a_sample_past_its_bound_keeps_key_zero_only():
    sample = _offered(Sample(3, int), [0, 5, 0, 6, 0, 0, 7])
    assert _state(sample) == ([0] * 4, 4, 7, 3)
    other = _offered(Sample(3, int), [0, 1, 2])
    other.fold(sample)
    assert _state(other) == ([0] * 5, 4, 10, 5)


def test_records_are_tuples_and_spell_their_dicts():
    span = Span(0.5, "p0", "charge", "app", 0.25, 7)
    assert span._asdict() == {"time": 0.5, "process": "p0", "kind": "charge",
                              "name": "app", "duration": 0.25, "value": 7}
    ev = MsgEvent("send", 1, 2, 3, 4, 64, 0.1, 0.2, 0.3, 0.4, blocks=7)
    assert list(ev._asdict()) == [
        "kind", "pid", "slot", "gen", "seqno", "length", "t0", "t1", "t2",
        "t3", "blocks", "fcfs", "discard"]
    assert (ev.key, ev.lnvc, ev.fcfs, ev.discard) == ((2, 3, 4), (2, 3), 1, 0)
    for record in (span, ev):
        assert isinstance(record, tuple)
        assert pickle.loads(pickle.dumps(record)) == record


def test_a_snapshot_carries_the_stored_tuples_themselves():
    rec = Recorder(causal=True, timeline=True)
    rec.on_acquire(0.1, "p0", 2, 0.01, contended=True)
    rec.msg_sent(0, 3, 1, 0, 64, 7, 1, 0.1, 0.2, 0.3)
    snap = rec.snapshot()
    assert snap["spans"][0] is rec.spans[0]
    assert snap["causal"].events[0] is rec.causal.events[0]
    fresh = Recorder()
    fresh.merge(snap)  # folds copies of the cells: nothing is shared
    rec.on_acquire(0.2, "p0", 2, 0.01, contended=False)
    rec.timeline.gauge(0.1, "circuit:3|depth", 5)
    assert fresh.total == 1 and fresh.locks[2].acquires == 1
    assert fresh.locks[2].wait_hist.total == 1
    assert fresh.timeline.totals().gauges["circuit:3|depth"].n == 1


# -- written once: the source scan ---------------------------------------------


@functools.cache
def _functions(root: pathlib.Path) -> tuple:
    """``(path, qualified name, node)`` of every function under ``root``."""
    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    yield path, name, child
                yield from walk(path, child, name + ".")
    return tuple(found for path in sorted(root.rglob("*.py"))
                 for found in walk(path, ast.parse(path.read_text()), ""))


def _where(predicate, root: pathlib.Path = SRC) -> set[str]:
    """Functions under ``root`` with a node satisfying ``predicate``."""
    return {f"{path.relative_to(SRC)}:{name}"
            for path, name, fn in _functions(root)
            if any(predicate(node) for node in ast.walk(fn))}


def _calls(node, *names: str) -> bool:
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) in names
        or getattr(node.func, "attr", None) in names)


def _reads(node, *attrs: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in attrs


def test_one_function_updates_a_gauge_cells_extremes():
    # A cell is a Gauge: whoever moves a minimum or a maximum must build
    # one from another's ``.min`` / ``.max`` ...
    folds = _where(lambda n: _calls(n, "Gauge") and any(
        _reads(m, "min", "max") for m in ast.walk(n)))
    assert folds == {"obs/store.py:Gauge.fold"}
    # ... and beside it only the single-sample cell is ever built.
    assert _where(lambda n: _calls(n, "Gauge")) == folds | {
        "obs/store.py:Store.gauge"}


def test_one_function_adds_to_a_digest_bucket():
    def bumps_counts(n):  # ...counts[b] = ...counts.get(b, 0) + n
        return isinstance(n, ast.Subscript) and _reads(n.value, "counts") \
            and isinstance(n.ctx, ast.Store)
    assert _where(bumps_counts) == {"obs/store.py:Histogram.add_bucket"}
    # The bucket rule has one definition and no inlined copy.
    assert _where(lambda n: _calls(n, "log2"), OBS) == {
        "obs/store.py:log2_us_bucket"}


def test_one_function_decides_whether_a_log_has_room():
    def reads_limit(n):
        return _reads(n, "limit") and isinstance(n.ctx, ast.Load)
    deciders = _where(lambda n: isinstance(n, (ast.Compare, ast.BinOp)) and any(
        reads_limit(m) for m in ast.walk(n)))
    assert deciders == {"obs/store.py:Log.admit", "obs/store.py:Sample.admit",
                        "obs/store.py:Sample.fold"}
    # The two bounded lists of repro.obs are the span Log and the
    # tracer's Sample, each offered records one way.
    assert _where(lambda n: _calls(n, "Log"), OBS) == {
        "obs/recorder.py:Recorder.__init__"}
    assert _where(lambda n: _calls(n, "Sample"), OBS) == {
        "obs/causal.py:CausalTracer.__init__"}
    admits = _where(lambda n: _calls(n, "admit"))
    assert admits >= {"obs/recorder.py:Recorder.on_charge",
                      "obs/causal.py:CausalTracer.on_send",
                      "obs/store.py:Log.fold"}
    assert all(name.startswith("obs/") for name in admits)


def test_no_cell_is_read_by_position_outside_the_store():
    def positional(n):  # cell[0] ... cell[3], read or written
        return isinstance(n, ast.Subscript) \
            and isinstance(n.slice, ast.Constant) \
            and n.slice.value in (0, 1, 2, 3) \
            and getattr(n.value, "id", "") in ("cell", "agg", "gauge", "depth")
    assert not _where(positional)
    readers = _where(lambda n: _reads(n, "mean") or (
        _reads(n, "max", "min") and getattr(n.value, "id", "") == "cell"))
    assert {"obs/export.py:prometheus_exposition",
            "obs/health.py:_growth"} <= readers


def test_recorder_merge_is_the_one_way_across_a_join_or_a_fork():
    outside = [p for p in SRC.rglob("*.py") if OBS not in p.parents]
    protocol = {}
    for path in outside:
        for node in ast.walk(ast.parse(path.read_text())):
            if _calls(node, "merge", "fold", "snapshot", "child") \
                    and isinstance(node.func, ast.Attribute):
                target = ast.unparse(node.func.value)
                protocol.setdefault(node.func.attr, set()).add(
                    (path.name, target))
    # Only the two real runtimes cross one; the simulator folds one run
    # into two recorders while `bench profile` fills `SimRuntime.profile`
    # — each through a recorder, nothing else.
    assert protocol == {
        "child": {("threads.py", "self.recorder"),
                  ("procs.py", "self.recorder"), ("sim.py", "own")},
        "snapshot": {("threads.py", "rec"), ("procs.py", "rec"),
                     ("sim.py", "rec")},
        "merge": {("threads.py", "self.recorder"),
                  ("procs.py", "self.recorder"),
                  ("sim.py", "own"), ("sim.py", "profile")},
    }
    # Inside repro.obs the sinks fold; nothing but the recorder merges,
    # snapshots or breeds children, and it holds the only mutex.
    names = {name.split(":")[1] for name in _where(lambda n: True, OBS)}
    assert {n for n in names if n.rsplit(".", 1)[-1]
            in ("merge", "snapshot", "child")} == {
        "Recorder.merge", "Recorder.snapshot", "Recorder.child"}
    assert _where(lambda n: _calls(n, "Lock", "RLock"), OBS) == {
        "obs/recorder.py:Recorder.__init__"}


def test_what_the_store_replaced_is_gone():
    import repro.obs.timeline as timeline_module

    assert not hasattr(repro.obs, "merge_timelines")
    assert not hasattr(timeline_module, "merge_timelines")
    assert not hasattr(repro.obs, "digest_quantile")
    for cls, names in {
        Timeline: ("child", "snapshot", "merge", "_merge_mutex"),
        CausalTracer: ("snapshot", "merge"),
        StageStats: ("quantile_fine",),
        Histogram: ("merge", "add"),
        Span: ("as_dict",), MsgEvent: ("as_dict",),
        LockStats: ("as_dict", "merge"), WorkStats: ("as_dict", "merge"),
    }.items():
        for name in names:
            assert not hasattr(cls, name), (cls.__name__, name)
    assert not hasattr(Timeline(), "_merge_mutex")
    # Keys cross a pickle as what they are: nothing that merges or folds
    # coerces one back with int(...).
    folding = {name for name in _where(lambda n: True, OBS)
               if name.rsplit(".", 1)[-1] in ("merge", "fold", "add_counts")}
    assert len(folding) >= 8
    assert not _where(lambda n: _calls(n, "int"), OBS) & folding


def test_repro_obs_did_not_grow():
    modules = sorted(p.stem for p in OBS.glob("*.py") if p.stem != "__init__")
    assert modules == ["causal", "export", "flow", "health",
                       "recorder", "store", "timeline"]
    # 46 public names at e7455da; digest_quantile and merge_timelines
    # went and the store's type came, then EffectLog and TraceEvent went,
    # then the live endpoint, JSON lines, flow JSON, the summary table
    # and two private helpers of the kept exporters (42 -> 32), then the
    # tracer's queue_depth_timeline and peak_depth (32 -> 30).
    assert "Store" in repro.obs.__all__ and len(repro.obs.__all__) <= 30
    assert len(set(repro.obs.__all__)) == len(repro.obs.__all__)
    assert all(hasattr(repro.obs, name) for name in repro.obs.__all__)
