"""The C kernels: how they are built, loaded and let go of.

What they compute is held against the Python reference elsewhere: two
differential property tests (``tests/properties/test_freelist_properties
.py``) and ``test_freelist.py`` / ``test_segment_identity.py`` collected
again on the Python kernels (``test_python_kernels.py``).  Here: the
records the C side addresses are laid out as ``core/structs.py`` says,
the build is found in its cache, a failed build leaves the Python
kernels running and nothing behind, two processes building cold at once
both load a whole library, and the runtimes that map a real shared
segment still close and unlink it once the kernels have exported its
buffer.
"""

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
from repro.core.protocol import FCFS, MsgFlags, Protocol
from repro.core.structs import LNVC, MSG, RECV
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


def test_the_c_offsets_are_the_records_offsets():
    """``chains.c`` spells the offsets of every field it touches as
    constants: ``H_`` segment header, ``L_`` LNVC, ``M_`` message
    header, ``R_`` receive descriptor (``_SIZE``: the record's size, or
    for ``L_`` the end of its fields), ``P_`` protocol, ``F_`` flag."""
    source = chains._SOURCE.read_text()
    found = re.findall(r"\b([HLMRPF])_([A-Z_]+) = (\d+)", source)
    records = {"L": (LNVC.offsets, LNVC.tail_off),
               "M": (MSG.offsets, MSG.size), "R": (RECV.offsets, RECV.size),
               "H": ({**HDR.u32, **HDR.u64}, HDR.size)}
    for kind, name, value in found:
        if kind == "P":
            want = Protocol[name]
        elif kind == "F":
            want = MsgFlags[name]
        else:
            offsets, size = records[kind]
            want = size if name == "SIZE" else offsets[name.lower()]
        assert int(value) == want, f"{kind}_{name}"
    assert len(found) >= 40


@needs_c
def test_the_library_is_built_once_and_then_found(tmp_path):
    assert chains._select(tmp_path).name == "c"
    built = sorted(tmp_path.iterdir())
    assert len(built) == 1 and built[0].name.startswith("_chains_")
    stamp = built[0].stat().st_mtime_ns
    assert chains._select(tmp_path).name == "c"
    assert sorted(tmp_path.iterdir()) == built
    assert built[0].stat().st_mtime_ns == stamp


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
