"""Shared pytest fixtures for the MPF reproduction test suite."""

from __future__ import annotations

import contextlib
import ctypes

import pytest

from repro.core import chains, ops
from repro.machine import engine
from repro.runtime import sync
from repro.testing import DirectRunner, make_view


@pytest.fixture
def view():
    """A freshly formatted small segment."""
    return make_view()


@pytest.fixture
def runner(view):
    """A :class:`repro.testing.DirectRunner` over the ``view`` fixture."""
    return DirectRunner(view)


def poll_by_checks(view, pid, lnvc_ids, backoff):
    """:func:`repro.core.ops.poll_receive` as a loop of
    :func:`repro.core.ops.check_receive` calls, ``backoff`` fused into
    the first check of every round: the reference its looping section
    is held to (the same effect stream, one section per check)."""
    ids = tuple(lnvc_ids)
    if not ids:
        raise ValueError("need at least one circuit to poll")
    for cid in ids:  # or a bad id is refused only once its turn comes
        view.slot_of(cid)
    pending = backoff
    while True:
        for cid in ids:
            if (yield from ops.check_receive(view, pid, cid, pending)):
                return cid
            pending = None
        pending = backoff


@pytest.fixture
def poll_loop(monkeypatch):
    """``with poll_loop():`` runs every poll wait through
    :func:`poll_by_checks`, on either transport and every runtime: no
    looping section is built, and each check is its own section.  The
    section-vs-loop identity tests compare against it inside one run."""

    @contextlib.contextmanager
    def loop():
        with monkeypatch.context() as patch:
            patch.setattr(ops, "poll_receive", poll_by_checks)
            yield

    return loop


@pytest.fixture
def python_chains(monkeypatch):
    """Every block-chain walk and lock section of the message path on
    the Python reference kernels (:data:`repro.core.chains.PYTHON`),
    whichever set this host built."""
    monkeypatch.setattr(chains, "ACTIVE", chains.PYTHON)
    return chains.PYTHON


#: What ``make asan`` builds the C kernels with, beyond ``chains.CFLAGS``.
ASAN_CFLAGS = ("-fsanitize=address", "-fno-omit-frame-pointer", "-g")


def asan_loaded() -> bool:
    """AddressSanitizer's runtime is in this process (``make asan``
    preloads it: an instrumented library cannot load without it)."""
    return hasattr(ctypes.CDLL(None), "__asan_init")


@pytest.fixture(scope="session")
def c_kernels(tmp_path_factory):
    """The C kernels the differential tests hold against the Python
    reference: :data:`repro.core.chains.C` — or, in a process that runs
    under AddressSanitizer, the same source built again with
    ``ASAN_CFLAGS`` (``chains.CFLAGS`` patched, as tests patch
    ``chains.CC``), so that a kernel reading or writing outside the
    region it was handed fails the run."""
    if chains.C is None:
        pytest.skip("no C kernels on this host")
    if not asan_loaded():
        return chains.C
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chains, "CFLAGS", chains.CFLAGS + ASAN_CFLAGS)
        kernels = chains._select(tmp_path_factory.mktemp("asan"))
    assert kernels.name == "c", "the AddressSanitizer build failed"
    return kernels


@pytest.fixture(scope="session")
def c_engine(tmp_path_factory, c_kernels):
    """The C step interpreter the differential test holds against the
    Python loop: :data:`repro.machine.engine.C_RUN` — or, under
    AddressSanitizer, ``engine.c`` built again with ``ASAN_CFLAGS``, as
    :func:`c_kernels` rebuilds the kernels, and bound to that build's
    poll walk."""
    if engine.C_RUN is None:
        pytest.skip("no C engine on this host")
    if not asan_loaded():
        return engine.C_RUN
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chains, "CFLAGS", chains.CFLAGS + ASAN_CFLAGS)
        run = engine._load(tmp_path_factory.mktemp("asan-engine"),
                           c_kernels)
    assert run is not None, "the AddressSanitizer build failed"
    return run


@pytest.fixture(scope="session")
def c_sync(tmp_path_factory, c_kernels):
    """The compiled sync and effect loop the differential tests hold
    against the Python ``ProcSync`` and ``drive``:
    :data:`repro.runtime.sync.C_SYNC` — or, under AddressSanitizer,
    ``sync.c`` built again with ``ASAN_CFLAGS``, as :func:`c_kernels`
    rebuilds the kernels, and bound to that build's kernels."""
    if sync.C_SYNC is None or chains.ACTIVE.name != "c":
        pytest.skip("no C sync on this host")
    if not asan_loaded():
        return sync.C_SYNC
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chains, "CFLAGS", chains.CFLAGS + ASAN_CFLAGS)
        lib = sync._load(tmp_path_factory.mktemp("asan-sync"), c_kernels)
    assert lib is not None, "the AddressSanitizer build failed"
    return lib


@pytest.fixture(scope="session")
def py_stages_sync(tmp_path_factory, c_sync):
    """``sync.c`` built again beside :func:`c_sync` and bound to no
    kernels (those of :data:`repro.core.chains.PYTHON`): its drive hands
    every section call to the Python body, the reference a differential
    test holds :func:`c_sync`'s stages to."""
    flags = chains.CFLAGS + (ASAN_CFLAGS if asan_loaded() else ())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chains, "CFLAGS", flags)
        lib = sync._load(tmp_path_factory.mktemp("py-stages-sync"),
                         chains.PYTHON)
    assert lib is not None, "the build failed"
    return lib


@pytest.fixture(scope="session")
def py_stages_engine(tmp_path_factory, c_engine):
    """``engine.c`` built again beside :func:`c_engine` and bound to no
    kernels: its loop hands every section call to the Python body, as
    :func:`py_stages_sync`'s drive does."""
    flags = chains.CFLAGS + (ASAN_CFLAGS if asan_loaded() else ())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chains, "CFLAGS", flags)
        run = engine._load(tmp_path_factory.mktemp("py-stages-engine"),
                           chains.PYTHON)
    assert run is not None, "the build failed"
    return run
