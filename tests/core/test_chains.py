"""The C kernels: how they are built, loaded and let go of.

What they compute is held against the Python reference elsewhere: the
differential property tests (``tests/properties/test_freelist_properties
.py``, ``test_ring_properties.py``) and ``test_freelist.py`` /
``test_segment_identity.py`` collected again on the Python kernels
(``test_python_kernels.py``).  Here: the records and ring addresses the
C side uses are laid out as ``core/structs.py`` and the layout say, the
build is found in its cache, a failed build leaves the Python kernels
running and nothing behind, two processes building cold at once both
load a whole library, a region's export survives the garbage collector
and addresses a sliced region right, and the runtimes that map a real
shared segment still close and unlink it once the kernels have exported
its buffer.
"""

import importlib.machinery
import os
import re
import shutil
import subprocess
import sys
import textwrap
import uuid
from pathlib import Path

import pytest

from repro import ProcRuntime
from repro.core import chains, ops
from repro.core.errors import NotConnectedError
from repro.core.layout import HDR, MPFConfig
from repro.core.protocol import BROADCAST, FCFS, MsgFlags, Protocol
from repro.core.region import SharedRegion
from repro.core.structs import (
    LNVC,
    MSG,
    RCUR,
    RECV,
    RING,
    RING_READERS,
    RSLOT,
    RSLOT_DATA_OFF,
    RSLOT_PENDING_OFF,
    RS_FCFS_AVAILABLE,
    RS_FCFS_TAKEN,
    RS_RETIRED,
)
from repro.machine import engine
from repro.patterns import barrier
from repro.runtime.posix import PosixSegment
from repro.testing import DirectRunner, make_view

needs_c = pytest.mark.skipif(chains.C is None,
                             reason="no C kernels were built on this host")

SIZES = (0, 1, 9, 10, 11, 256, 2048, 3001)


def _payload(size, salt):
    return bytes((salt + 13 * i) & 0xFF for i in range(size))


def test_the_c_kernels_are_active_where_they_can_be_built():
    try:
        import cffi  # noqa: F401
    except ImportError:
        pytest.skip("cffi is not installed")
    if shutil.which(chains.CC) is None:
        pytest.skip(f"no {chains.CC} on this host")
    assert chains.ACTIVE is chains.C and chains.C.name == "c"


def _c_constants():
    """Every ``NAME = value`` of ``chains.c``'s enums."""
    source = chains._SOURCE.read_text()
    return {name: int(value) for name, value in
            re.findall(r"\b([A-Z][A-Z_]*) = (\d+)\b", source)}


def test_the_c_offsets_are_the_records_offsets():
    """``chains.c`` spells the offsets of every field it touches as
    constants: ``H_`` segment header, ``L_`` LNVC, ``M_`` message
    header, ``R_`` receive descriptor, ``G_`` ring control block, ``S_``
    ring slot (``S_PENDING`` its bitmap, ``S_DATA`` its payload), ``C_``
    reader cursor (``_SIZE``: the record's size, or for ``L_`` the end
    of its fields), ``P_`` protocol, ``F_`` flag, ``RS_`` slot state
    bit, and ``READERS`` readers per ring; ``sections.c`` spells one,
    ``RING_DATA``, a slot's payload."""
    found = _c_constants()
    records = {"L": (LNVC.offsets, LNVC.tail_off),
               "M": (MSG.offsets, MSG.size), "R": (RECV.offsets, RECV.size),
               "H": ({**HDR.u32, **HDR.u64}, HDR.size),
               "G": (RING.offsets, RING.size),
               "S": ({**RSLOT.offsets, "pending": RSLOT_PENDING_OFF,
                      "data": RSLOT_DATA_OFF}, RSLOT.size),
               "C": (RCUR.offsets, RCUR.size)}
    bits = {"RS_FCFS_AVAILABLE": RS_FCFS_AVAILABLE,
            "RS_FCFS_TAKEN": RS_FCFS_TAKEN, "RS_RETIRED": RS_RETIRED,
            "READERS": RING_READERS}
    for constant, value in found.items():
        kind, _, name = constant.partition("_")
        if constant in bits:
            want = bits[constant]
        elif kind == "P":
            want = Protocol[name]
        elif kind == "F":
            want = MsgFlags[name]
        else:
            offsets, size = records[kind]
            want = size if name == "SIZE" else offsets[name.lower()]
        assert value == want, constant
    assert len(found) >= 60
    assert set(bits) <= set(found)
    # the section runner's one offset: where a ring slot's payload lies
    assert re.findall(r"\bRING_DATA = (\d+)\b", chains.SECTIONS.read_text()
                      ) == [str(RSLOT_DATA_OFF)]


@pytest.mark.parametrize("slots, slot_bytes, lnvcs", [
    (2, 1, 1), (4, 64, 2), (64, 1024, 4), (16, 2048, 3), (5, 100, 7)])
def test_the_c_ring_addresses_are_the_layouts(slots, slot_bytes, lnvcs):
    """The ring kernels find a ring's cursors and slots from the
    layout's ring bases, as ``chains.c``'s header comment spells it;
    that arithmetic is :class:`SegmentLayout`'s."""
    k = _c_constants()
    lay = make_view(max_lnvcs=lnvcs, transport="ring", ring_slots=slots,
                    ring_slot_bytes=slot_bytes).layout
    for ridx in range(lnvcs):
        ring = lay.ring_ctrl_base + ridx * k["G_SIZE"]
        assert lay.ring_index(ring) == ridx
        for bit in (0, 1, k["READERS"] - 1):
            assert lay.ring_cur_off(ridx, bit) == lay.ring_cur_base + (
                ridx * k["READERS"] + bit) * k["C_SIZE"]
        for idx in (0, 1, slots - 1, slots, 3 * slots + 1, 2**32 - 1):
            assert lay.ring_slot_off(ridx, idx % slots) == (
                lay.ring_data_base
                + (ridx * slots + idx % slots) * lay.ring_stride)
    # every slot's commit word can be accessed atomically
    assert lay.ring_data_base % 4 == lay.ring_stride % 4 == 0


@needs_c
@needs_c
@pytest.mark.parametrize("program", ["fcfs_throughput", "broadcast_throughput"])
def test_the_c_claim_answers_an_empty_queue_itself(monkeypatch, program):
    """A receive that finds its queue empty sleeps on the C claim's own
    answer: the reference claim (``chains._claim_next``) runs only on a
    refusal, which no formatted segment gives — 0 calls, on runs whose
    receivers do find their queues empty."""
    from repro.bench import workloads

    reference, empty = [], []
    real_reference, real_claim = chains._claim_next, chains.C.claim

    def counted_reference(*args):
        reference.append(args)
        return real_reference(*args)

    def claim(*args):
        got = real_claim(*args)
        empty.append(got is None)
        return got

    monkeypatch.setattr(chains, "_claim_next", counted_reference)
    monkeypatch.setattr(chains.C, "claim", claim)
    monkeypatch.setattr(chains, "ACTIVE", chains.C)
    with monkeypatch.context() as patch:
        # The Python loop runs the claim stage's body: the kernel's wrapper.
        patch.setattr(engine, "C_RUN", None)
        getattr(workloads, program)(4, 64, messages=60)
    assert sum(empty) > 0
    assert len(reference) == 0
    # A receive section's claim is the engine's call of the kernel: no
    # reference either.
    getattr(workloads, program)(4, 64, messages=60)
    assert len(reference) == 0


@pytest.mark.skipif(shutil.which(chains.CC) is None,
                    reason="no compiler to build the library with")
def test_the_library_is_built_once_and_then_found(tmp_path):
    assert chains._select(tmp_path).name == "c"
    built = sorted(tmp_path.iterdir())
    assert len(built) == 1 and built[0].name.startswith("_chains_")
    stamp = built[0].stat().st_mtime_ns
    assert chains._select(tmp_path).name == "c"
    assert sorted(tmp_path.iterdir()) == built
    assert built[0].stat().st_mtime_ns == stamp


_TINY = b"""#include <Python.h>
static struct PyModuleDef def = {PyModuleDef_HEAD_INIT, "tiny", NULL, -1};
PyMODINIT_FUNC PyInit_tiny(void) { return PyModule_Create(&def); }
"""


@pytest.mark.skipif(shutil.which(chains.CC) is None,
                    reason="no compiler to build the library with")
def test_a_new_library_deletes_the_ones_older_sources_left(tmp_path):
    """One library is kept per stem: what an earlier hash built goes once
    a library of the current hash has imported; other names stay."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    kept = {tmp_path / ("_tinyx_0123abcd" + suffix),
            tmp_path / "_tiny_0123abcd.c"}
    for path in kept:
        path.write_bytes(b"")
    for flags in (("-O0",), ("-O1",)):
        lib = chains.build_extension(tmp_path, "_tiny", _TINY, flags,
                                     module="tiny")
        assert lib is not None and lib.__name__ == "tiny"
        assert set(tmp_path.iterdir()) == kept | {Path(lib.__file__)}


@pytest.mark.skipif(shutil.which(chains.CC) is None,
                    reason="no compiler to build the library with")
def test_a_library_deleted_before_its_import_is_built_again(
        tmp_path, monkeypatch):
    """Another process's cleanup can delete the library between this
    build and its import: it is built once more, not given up."""
    built, compile_ = [], chains._compile

    def compile_then_lose(name, emit, target, *args):
        compile_(name, emit, target, *args)
        built.append(target)
        if len(built) == 1:
            target.unlink()

    monkeypatch.setattr(chains, "_compile", compile_then_lose)
    lib = chains.build_extension(tmp_path, "_tiny", _TINY, ("-O0",),
                                 module="tiny")
    assert lib is not None and len(built) == 2
    assert list(tmp_path.iterdir()) == [built[0]]


def test_an_edit_of_the_section_runner_renames_both_libraries(
        tmp_path, monkeypatch):
    """``core/sections.c`` is compiled into the engine's and the sync's
    extension: its bytes are in both hashes, so an edit of that file
    alone builds new ``_engine_*`` and ``_sync_*`` libraries instead of
    loading the ones built before it, and the file hashed is the file
    compiled (an edit that cannot compile builds neither)."""
    from repro.runtime import sync

    if engine.C_RUN is None or sync.C_SYNC is None:
        pytest.skip("no C engine or sync on this host")
    before = {Path(engine.C_RUN.__self__.__file__).name,
              Path(sync.C_SYNC.__file__).name}
    edited = tmp_path / "sections.c"
    edited.write_bytes(chains.SECTIONS.read_bytes() + b"/* edited */\n")
    monkeypatch.setattr(chains, "SECTIONS", edited)
    after = {Path(engine._load(tmp_path).__self__.__file__).name,
             Path(sync._load(tmp_path).__file__).name}
    assert {p.name for p in tmp_path.glob("_*")} == after
    assert {n.split("_")[1] for n in after} == {"engine", "sync"}
    assert not after & before
    edited.write_bytes(chains.SECTIONS.read_bytes()
                       + b"#error the edited copy is the one compiled\n")
    assert engine._load(tmp_path) is None and sync._load(tmp_path) is None


def _traffic(kernels, monkeypatch):
    """Sends and receives of every size through one FCFS circuit, a
    refused send, and a close that discards what is left, on
    ``kernels``: what each receive returned and the segment after."""
    monkeypatch.setattr(chains, "ACTIVE", kernels)
    view = make_view()
    runner = DirectRunner(view)
    sid = runner.run(ops.open_send(view, 0, "c"))
    rid = runner.run(ops.open_receive(view, 1, "c", FCFS))
    got = []
    for salt, size in enumerate(SIZES):
        runner.run(ops.message_send(view, 0, sid, _payload(size, salt)))
        if salt % 2:
            got.append(runner.run(ops.message_receive(view, 1, rid)))
    with pytest.raises(NotConnectedError):  # undone at its link step
        runner.run(ops.message_send(view, 1, sid, _payload(300, 7)))
    runner.run(ops.close_receive(view, 1, rid))
    runner.run(ops.close_send(view, 0, sid))
    return got, view.region.read(0, view.region.size)


def test_a_failed_build_runs_the_python_kernels_with_identical_results(
        tmp_path, monkeypatch):
    monkeypatch.setattr(chains, "CC", str(tmp_path / "no-such-compiler"))
    assert chains._select(tmp_path) is chains.PYTHON
    assert list(tmp_path.iterdir()) == []  # no library, no temporary file
    fallback = _traffic(chains.PYTHON, monkeypatch)
    assert fallback[0] == [_payload(size, salt)  # the oldest half
                           for salt, size in enumerate(SIZES)][:len(SIZES) // 2]
    if chains.C is not None:
        assert _traffic(chains.C, monkeypatch) == fallback


_COLD = textwrap.dedent("""
    import sys
    from pathlib import Path
    from repro.core import chains, ops
    from repro.core.protocol import FCFS
    from repro.testing import DirectRunner, make_view

    chains.ACTIVE = chains._select(Path(sys.argv[1]))
    assert chains.ACTIVE.name == "c", chains.ACTIVE
    view = make_view()
    runner = DirectRunner(view)
    sid = runner.run(ops.open_send(view, 0, "c"))
    runner.run(ops.open_receive(view, 1, "c", FCFS))
    data = bytes(range(256)) * 8
    runner.run(ops.message_send(view, 0, sid, data))
    assert runner.run(ops.message_receive(view, 1, sid)) == data
""")


@needs_c
def test_two_processes_building_cold_at_once_both_load_a_whole_library(
        tmp_path):
    """What two first imports beside an empty cache do: each compiles
    to a temporary file of its own and renames it into place."""
    procs = [subprocess.Popen([sys.executable, "-c", _COLD, str(tmp_path)],
                              stderr=subprocess.PIPE)
             for _ in range(2)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    built = list(tmp_path.iterdir())
    assert len(built) == 1 and built[0].suffix == ".so", built


_CYCLE = textwrap.dedent("""
    import gc
    from repro.core import chains
    from repro.core.protocol import NIL
    from repro.core.region import SharedRegion

    class Holder:
        pass

    for make in (lambda: bytearray(4096),
                 lambda: memoryview(bytearray(4200))[100:4196]):
        for _ in range(3):
            h = Holder()
            h.region = SharedRegion(make())
            chains.ACTIVE.last(h.region, NIL, 0)  # exports the buffer
            assert (h.region.cbuf is None) == (chains.ACTIVE.name != "c")
            h.cbuf, h.cown, h.me = h.region.cbuf, h.region.cown, h
            del h
            gc.collect()
""")


def test_a_region_and_its_export_in_a_garbage_cycle_are_collected():
    """A region, its memoryview and the C kernels' export of its buffer,
    garbage in one cycle: the collector may clear the memoryview first,
    which must not find an export of its own outstanding (it raised
    ``BufferError`` in ``tp_clear`` and then crashed the interpreter)."""
    proc = subprocess.run([sys.executable, "-c", _CYCLE],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"BufferError" not in proc.stderr, proc.stderr.decode()


@pytest.mark.parametrize("pad", [1, 3, 64, 199])
def test_a_sliced_region_runs_the_c_kernels_at_its_own_offsets(
        c_kernels, monkeypatch, pad):
    """A region over a slice of a larger buffer: the C kernels address
    the slice, not the object under it, and the bytes around the slice
    stay as they were — on both transports, a ring lapped twice."""
    monkeypatch.setattr(chains, "ACTIVE", c_kernels)
    outer = bytearray(bytes(range(256)) * 1024)
    for transport in ("freelist", "ring"):
        plain = make_view(transport=transport, ring_slots=4,
                          ring_slot_bytes=64)
        size = plain.region.size
        assert pad + size <= len(outer)
        around = outer[:pad] + outer[pad + size:]
        outer[pad:pad + size] = plain.region.read(0, size)
        sliced = ops.MPFView(SharedRegion(memoryview(outer)[pad:pad + size]),
                             plain.layout, plain.costs)
        for view in (sliced, plain):
            runner = DirectRunner(view)
            sid = runner.run(ops.open_send(view, 0, "c"))
            runner.run(ops.open_receive(view, 1, "c", BROADCAST))
            for i in range(8):
                data = _payload(i * 7, i)
                runner.run(ops.message_send(view, 0, sid, data))
                assert runner.run(ops.message_receive(view, 1, sid)) == data
        assert sliced.region.cbuf is not None
        assert bytes(outer[pad:pad + size]) == plain.region.read(0, size)
        assert outer[:pad] + outer[pad + size:] == around
        sliced.region.release()


def _pipe(env):
    if env.rank == 0:
        cid = yield from env.open_send("p")
    else:
        cid = yield from env.open_receive("p", FCFS)
    yield from barrier(env, "go", 2)
    got = []
    for salt, size in enumerate(SIZES):
        if env.rank == 0:
            yield from env.message_send(cid, _payload(size, salt))
        else:
            got.append((yield from env.message_receive(cid)))
    yield from barrier(env, "done", 2)
    if env.rank == 0:
        yield from env.close_send(cid)
    else:
        yield from env.close_receive(cid)
    return got


def _shm_names():
    return set(os.listdir("/dev/shm"))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="fork and POSIX shared memory")
def test_proc_runtime_unlinks_its_segment_after_the_kernels_ran():
    before = _shm_names()
    result = ProcRuntime(join_timeout=60).run([_pipe, _pipe])
    assert result.result_list()[1] == [_payload(size, salt)
                                       for salt, size in enumerate(SIZES)]
    assert _shm_names() <= before


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="POSIX shared memory")
def test_a_named_segment_closes_and_unlinks_after_the_kernels_ran():
    name = f"mpftest-{uuid.uuid4().hex[:12]}"
    cfg = MPFConfig(max_lnvcs=8, max_processes=4, max_messages=64,
                    message_pool_bytes=1 << 16)
    seg = PosixSegment.create(name, cfg)
    try:
        a = seg.client(0)
        cid = a.open_send("mail")
        for salt, size in enumerate(SIZES):
            a.message_send(cid, _payload(size, salt))
        other = PosixSegment.attach(name)
        try:
            b = other.client(1)
            rid = b.open_receive("mail", FCFS)
            got = [b.message_receive(rid) for _ in SIZES]
            b.close_receive(rid)
            if chains.C is not None:
                assert other.view.region.cbuf is not None  # exported
        finally:
            other.close()
        a.close_send(cid)
    finally:
        seg.unlink()
    assert got == [_payload(size, salt) for salt, size in enumerate(SIZES)]
    assert not Path(f"/dev/shm/{name}").exists()
