"""Distributed variables over LNVCs ([Debe86], cited in paper §1).

    "a distributed variable exists in a name space that is global to the
    processes but accessible only by a message passing protocol with
    associated read and write operations. ... Like LNVC's, a distributed
    variable permits multiple readers and writers."

The paper cites distributed variables as one of the two models that
justify the LNVC design; this module closes the loop by implementing
them *on* LNVCs.  One process runs :func:`dvar_server` for a variable;
any process holds a :class:`DVarClient`:

* requests travel to the server on the FCFS circuit ``dv.<name>`` —
  FCFS gives multiple-writer serialization for free, and the circuit's
  FIFO defines the variable's total write order;
* each client receives replies on its private FCFS circuit
  ``dv.<name>.<pid>``.

Operations: ``read``, ``write`` (returns the new version), and
``fetch_add`` (atomic read-modify-write of an 8-byte little-endian
integer — the shared-counter idiom, impossible with plain reads and
writes).  Versions make the write order observable and testable.

A layer over the public API, not part of the package: ``dvars_demo.py``
beside it imports it as a local module.
"""

from __future__ import annotations

import struct

from repro.core.protocol import FCFS
from repro.patterns import tag, untag
from repro.runtime.base import Env

__all__ = ["dvar_server", "DVarClient"]

_OP_READ, _OP_WRITE, _OP_FETCH_ADD, _OP_STOP = 1, 2, 3, 4
_REQ = struct.Struct("<B")
_VER = struct.Struct("<Q")
_I64 = struct.Struct("<q")


def dvar_server(env: Env, name: str, initial: bytes = b""):
    """Serve the distributed variable ``name`` until a STOP request.

    Returns ``(final_value, version)``.  Run as (part of) one process's
    body; clients may start before or after the server thanks to FCFS
    message holding.
    """
    req_id = yield from env.open_receive(f"dv.{name}", FCFS)
    value, version = bytes(initial), 0
    reply_ids: dict[int, int] = {}
    while True:
        pid, body = untag((yield from env.message_receive(req_id)))
        (op,) = _REQ.unpack_from(body)
        payload = body[_REQ.size :]
        if op == _OP_STOP:
            break
        if op == _OP_WRITE:
            value, version = payload, version + 1
        elif op == _OP_FETCH_ADD:
            old = _I64.unpack(value)[0] if len(value) == 8 else 0
            value = _I64.pack(old + _I64.unpack(payload)[0])
            version += 1
            payload_out = _I64.pack(old)
        if pid not in reply_ids:
            reply_ids[pid] = yield from env.open_send(f"dv.{name}.{pid}")
        if op == _OP_FETCH_ADD:
            reply = _VER.pack(version) + payload_out
        else:
            reply = _VER.pack(version) + value
        yield from env.message_send(reply_ids[pid], reply)
    for cid in reply_ids.values():
        yield from env.close_send(cid)
    yield from env.close_receive(req_id)
    return value, version


class DVarClient:
    """Client handle for one distributed variable.

    All methods are generators (``yield from``), like every MPF
    operation.  Call :meth:`connect` once and :meth:`close` when done.
    """

    def __init__(self, env: Env, name: str) -> None:
        self.env = env
        self.name = name
        self._req: int | None = None
        self._rep: int | None = None

    def connect(self):
        """Open the request and private reply circuits."""
        env = self.env
        # Reply circuit first: the server only opens its send side after
        # our first request, so our receive connection anchors it.
        self._rep = yield from env.open_receive(
            f"dv.{self.name}.{env.rank}", FCFS
        )
        self._req = yield from env.open_send(f"dv.{self.name}")

    def _rpc(self, op: int, payload: bytes):
        env = self.env
        body = tag(env.rank, _REQ.pack(op) + payload)
        yield from env.message_send(self._req, body)
        reply = yield from env.message_receive(self._rep)
        version = _VER.unpack_from(reply)[0]
        return version, reply[_VER.size :]

    def read(self):
        """Return ``(version, value)``."""
        result = yield from self._rpc(_OP_READ, b"")
        return result

    def write(self, value: bytes):
        """Set the value; returns the new version number."""
        version, _ = yield from self._rpc(_OP_WRITE, bytes(value))
        return version

    def fetch_add(self, delta: int):
        """Atomically add ``delta`` to an integer variable; returns the
        previous value."""
        _, old = yield from self._rpc(_OP_FETCH_ADD, _I64.pack(delta))
        return _I64.unpack(old)[0]

    def stop_server(self):
        """Ask the server to shut down (any client may)."""
        yield from self.env.message_send(
            self._req, tag(self.env.rank, _REQ.pack(_OP_STOP))
        )

    def close(self):
        """Close both circuits."""
        yield from self.env.close_send(self._req)
        yield from self.env.close_receive(self._rep)
        self._req = self._rep = None
