"""The block-chain kernels the message path calls, in C where it can.

A message body is a chain of fixed-size blocks (§3.1, and
:mod:`repro.core.freelist`), and the path touches one four ways: a send
pops ``n`` blocks off the free list and fills them, a receive drains
one, and a reap that frees a chain nobody drained walks it to its last
block.  The path carries a chain as its ends, ``(first, last, n)``:
returning a chain to a list is one store (its last block's link,
:func:`~repro.core.freelist.splice_chain`), and the header holds
``first`` and ``n``.  So the kernels build no lists, and each is one C
loop over the region's buffer — the paper's own few hundred lines of C,
where the interpreter paid per block:

``pop(region, first, n)``
    ``(last, next)`` of the ``n`` records from ``first``, or ``None``
    when the list is shorter (a link outside the region raises
    ``IndexError``, as :meth:`SharedRegion.follow` does);
``fill(region, first, n, data, bs)``
    copies the ``bytes`` ``data`` over a popped chain and stores last →
    ``NIL``;
``drain(region, first, n, length, bs)``
    ``(last, payload)``: the first ``length`` bytes the chain carries;
``last(region, first, n)``
    the last block of a message's chain, bounded by ``n``.

Drain and last raise :class:`RegionFormatError` for a chain that is
cyclic, short or leaves the region.  The C source is ``chains.c``; a
kernel that refuses a chain writes nothing and hands it to the Python
reference (:data:`PYTHON`, over the list kernels of
:mod:`repro.core.freelist`), which raises the error every reader of the
segment knows.  The C functions keep no state, so threads call them with
the interpreter lock released.

At first import gcc builds ``chains.c`` as a cffi extension into a file
beside this module, named by the hash of what goes into it (source,
declarations, cffi backend; the file suffix names the interpreter), and
later imports load it.  The build compiles in a temporary directory
beside the target and renames the library into place, so processes
importing at once each load a whole one.
Without cffi, without a compiler, or in a directory it may not write,
the build fails and the Python kernels run: :data:`ACTIVE` is the set in
use and ``ACTIVE.name`` says which — what the platform allowed, not a
setting.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import zlib
from pathlib import Path

from .freelist import block_record, drain_chain, fill_chain, walk_chain
from .protocol import NIL

__all__ = ["Kernels", "PYTHON", "C", "ACTIVE"]

#: The compiler the build runs.
CC = "gcc"

_HERE = Path(__file__).parent
_SOURCE = _HERE / "chains.c"
_CDEF = """
uint64_t chain_pop(char *, uint64_t, uint64_t, uint64_t);
int64_t chain_last(char *, uint64_t, uint64_t, uint64_t);
int64_t chain_fill(char *, uint64_t, uint64_t, uint64_t, const char *,
                   uint64_t, uint64_t);
int64_t chain_drain(char *, uint64_t, uint64_t, uint64_t, uint64_t,
                    uint64_t, char *);
"""
_U32 = 0xFFFFFFFF
_REFUSED = (1 << 64) - 1  # chain_pop's "not n records"


class Kernels:
    """One implementation of the four kernels (see the module docstring)."""

    __slots__ = ("name", "pop", "fill", "drain", "last")

    def __init__(self, name: str, pop, fill, drain, last) -> None:
        self.name = name
        self.pop = pop
        self.fill = fill
        self.drain = drain
        self.last = last

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kernels({self.name!r})"


# ---------------------------------------------------------------------------
# the Python reference: the list kernels, reduced to a chain's ends
# ---------------------------------------------------------------------------


def _py_pop(region, first: int, n: int):
    blocks, nxt = region.follow(first, n)
    if len(blocks) < n:
        return None
    return (blocks[-1] if blocks else NIL), nxt


def _py_fill(region, first: int, n: int, data, bs: int) -> None:
    fill_chain(region, region.follow(first, n)[0], data, bs)


def _py_drain(region, first: int, n: int, length: int, bs: int):
    blocks, payload = drain_chain(region, first, n, length, bs,
                                  region.reader(block_record(bs)))
    return (blocks[-1] if blocks else NIL), payload


def _py_last(region, first: int, n: int) -> int:
    blocks = walk_chain(region, first, n)
    return blocks[-1] if blocks else NIL


PYTHON = Kernels("python", _py_pop, _py_fill, _py_drain, _py_last)


# ---------------------------------------------------------------------------
# the C kernels
# ---------------------------------------------------------------------------


def _compile(name: str, source: bytes, target: Path) -> None:
    """gcc ``source`` into the extension module ``name`` at ``target``
    (what only a cold cache pays for, imports included); ``OSError``
    when it cannot be done."""
    import subprocess
    import sysconfig
    import tempfile

    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    ffi.set_source(name, source.decode(), compiler_verbose=False)
    with tempfile.TemporaryDirectory(prefix=name + ".",
                                     dir=target.parent) as tmp:
        c_file, so_file = Path(tmp, name + ".c"), Path(tmp, target.name)
        ffi.emit_c_code(str(c_file))
        try:
            subprocess.run(
                [CC, "-O2", "-shared", "-fPIC",
                 "-I" + sysconfig.get_paths()["include"],
                 "-o", str(so_file), str(c_file)],
                check=True, capture_output=True, timeout=120)
        except subprocess.SubprocessError as exc:
            raise OSError(f"{CC} could not build {name}: {exc}") from exc
        os.replace(so_file, target)


def _build(where: Path):
    """Build (or find) the extension in ``where`` and import it; ``None``
    when that cannot be done here."""
    try:
        import _cffi_backend
    except ImportError:
        return None
    source = _SOURCE.read_bytes()
    key = zlib.crc32(b"\0".join((
        source, _CDEF.encode(), _cffi_backend.__version__.encode())))
    name = f"_chains_{key:08x}"
    target = where / (name + importlib.machinery.EXTENSION_SUFFIXES[0])
    try:
        if not target.exists():
            _compile(name, source, target)
        spec = importlib.util.spec_from_file_location(name, target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    return module


def _c_kernels(module) -> Kernels:
    """The four kernels over the extension ``module``."""
    lib, ffi = module.lib, module.ffi
    c_pop, c_last = lib.chain_pop, lib.chain_last
    c_fill, c_drain = lib.chain_fill, lib.chain_drain
    from_buffer = ffi.from_buffer

    def buf(region):
        """The region's buffer as the C side sees it: exported once,
        dropped by :meth:`SharedRegion.release`."""
        cbuf = region.cbuf
        if cbuf is None:
            cbuf = region.cbuf = from_buffer(region._mv)
        return cbuf

    def pop(region, first, n):
        if not n:
            return NIL, first
        got = c_pop(buf(region), region.size, first, n)
        if got == _REFUSED:
            return _py_pop(region, first, n)
        return got >> 32, got & _U32

    def fill(region, first, n, data, bs):
        if c_fill(buf(region), region.size, first, n, data, len(data), bs) < 0:
            _py_fill(region, first, n, data, bs)

    def drain(region, first, n, length, bs):
        if length > region.size:  # no chain carries it: not worth a buffer
            return _py_drain(region, first, n, length, bs)
        out = bytearray(length)
        last = c_drain(buf(region), region.size, first, n, length, bs,
                       from_buffer(out))
        if last < 0:
            return _py_drain(region, first, n, length, bs)
        return last, bytes(out)

    def last(region, first, n):
        got = c_last(buf(region), region.size, first, n)
        return _py_last(region, first, n) if got < 0 else got

    return Kernels("c", pop, fill, drain, last)


def _select(where: Path = _HERE) -> Kernels:
    """The C kernels if they build (or are built) in ``where``, else
    :data:`PYTHON`."""
    module = _build(where)
    return PYTHON if module is None else _c_kernels(module)


#: The kernels the message path calls (``ACTIVE.name``: ``"c"`` or
#: ``"python"``), and the C set, ``None`` where it could not be built.
ACTIVE = _select()
C = ACTIVE if ACTIVE is not PYTHON else None
