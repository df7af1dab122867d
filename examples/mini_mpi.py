"""A rank-addressed, tag-matched communicator over LNVCs.

Paper §5: "Programs destined for message passing systems can be easily
prototyped in the MPF environment."  The lingua franca of such programs
is the MPI-style interface — ``send(data, dest, tag)`` /
``recv(source, tag)`` plus collectives — so this module provides exactly
that as a thin layer over MPF circuits, demonstrating the prototyping
claim for the interface real codes actually use.

Mapping:

* every rank owns one FCFS mailbox circuit ``<name>.mbox.<rank>``;
  senders hold an open send connection per destination (opened lazily,
  kept until :meth:`Comm.close` — the loss-free discipline);
* each message carries a ``(source, tag)`` envelope; :meth:`Comm.recv`
  matches envelopes against ``(source, tag)`` patterns, buffering
  non-matching messages locally until a later receive wants them —
  standard MPI out-of-order matching, implemented without any ``select``
  (MPF's FIFO mailbox plus a local pending list suffice);
* collectives delegate to :mod:`repro.patterns`.

Semantics notes: point-to-point order is preserved per (source,
destination) pair, like MPI; ``ANY_SOURCE``/``ANY_TAG`` wildcards are
supported; all operations are generators (``yield from``), usable on
every runtime.

A layer over the public API, not part of the package: ``mpi_style.py``
beside it imports it as a local module.
"""

from __future__ import annotations

import struct

from repro.core.protocol import FCFS
from repro.patterns import allreduce as _allreduce
from repro.patterns import barrier as _barrier
from repro.patterns import broadcast as _broadcast
from repro.patterns import gather as _gather
from repro.patterns import scatter as _scatter
from repro.runtime.base import Env

__all__ = ["ANY_SOURCE", "ANY_TAG", "Comm", "Message"]

#: Wildcard for :meth:`Comm.recv` source matching.
ANY_SOURCE = -1
#: Wildcard for :meth:`Comm.recv` tag matching.
ANY_TAG = -1

_ENV = struct.Struct("<II")


class Message:
    """A received message: payload plus its envelope."""

    __slots__ = ("source", "tag", "data")

    def __init__(self, source: int, tag: int, data: bytes) -> None:
        self.source = source
        self.tag = tag
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Message(source={self.source}, tag={self.tag}, len={len(self.data)})"


class Comm:
    """A communicator over ``size`` ranks (``env.rank`` is this rank).

    Construct one per process with the same ``name`` and ``size``, then
    ``yield from comm.connect()`` before use and ``yield from
    comm.close()`` at the end (after a barrier or final exchange, per
    the loss-free discipline).
    """

    def __init__(self, env: Env, name: str = "mpi", size: int | None = None) -> None:
        self.env = env
        self.name = name
        self.size = size if size is not None else env.nprocs
        self.rank = env.rank
        self._mbox: int | None = None
        self._out: dict[int, int] = {}
        self._pending: list[Message] = []
        self._seq = 0

    # -- lifecycle ---------------------------------------------------------------

    def connect(self):
        """Open this rank's mailbox (receive side)."""
        self._mbox = yield from self.env.open_receive(
            f"{self.name}.mbox.{self.rank}", FCFS
        )

    def close(self):
        """Close every circuit this communicator opened."""
        for cid in self._out.values():
            yield from self.env.close_send(cid)
        self._out.clear()
        if self._mbox is not None:
            yield from self.env.close_receive(self._mbox)
            self._mbox = None

    # -- point to point -------------------------------------------------------------

    def send(self, data: bytes, dest: int, tag: int = 0):
        """Asynchronous tagged send to rank ``dest``."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} outside communicator of {self.size}")
        if tag < 0:
            raise ValueError("tags must be >= 0 (negative values are wildcards)")
        if dest not in self._out:
            self._out[dest] = yield from self.env.open_send(
                f"{self.name}.mbox.{dest}"
            )
        envelope = _ENV.pack(self.rank, tag)
        yield from self.env.message_send(self._out[dest], envelope + bytes(data))
        return None

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking tagged receive; returns a :class:`Message`.

        Non-matching messages encountered while waiting are buffered and
        delivered to later matching receives in arrival order.
        """
        if self._mbox is None:
            raise RuntimeError("communicator not connected")
        for i, msg in enumerate(self._pending):
            if _matches(msg, source, tag):
                return self._pending.pop(i)
        while True:
            raw = yield from self.env.message_receive(self._mbox)
            src, t = _ENV.unpack_from(raw)
            msg = Message(src, t, raw[_ENV.size:])
            if _matches(msg, source, tag):
                return msg
            self._pending.append(msg)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Non-blocking check: is a matching message available?

        Like MPI_Iprobe built on ``check_receive``: drains the mailbox
        into the pending buffer without blocking, then pattern-matches.
        """
        if self._mbox is None:
            raise RuntimeError("communicator not connected")
        while (yield from self.env.check_receive(self._mbox)):
            raw = yield from self.env.message_receive(self._mbox)
            src, t = _ENV.unpack_from(raw)
            self._pending.append(Message(src, t, raw[_ENV.size:]))
        return any(_matches(m, source, tag) for m in self._pending)

    def sendrecv(self, data: bytes, peer: int, tag: int = 0):
        """Symmetric exchange with ``peer``; returns the peer's payload."""
        yield from self.send(data, peer, tag)
        msg = yield from self.recv(source=peer, tag=tag)
        return msg.data

    # -- collectives ---------------------------------------------------------------

    def _coll_name(self, op: str) -> str:
        self._seq += 1
        return f"{self.name}.{op}.{self._seq}"

    def barrier(self):
        """Block until every rank has entered the barrier."""
        yield from _barrier(self.env, self._coll_name("bar"), self.size)

    def bcast(self, data: bytes | None, root: int = 0):
        """Broadcast ``data`` from ``root``; returns it on every rank."""
        result = yield from _broadcast(
            self.env, self._coll_name("bc"), root, self.size, data
        )
        return result

    def gather(self, data: bytes, root: int = 0):
        """Gather one payload per rank at ``root`` (rank-ordered list)."""
        result = yield from _gather(
            self.env, self._coll_name("ga"), root, self.size, data
        )
        return result

    def scatter(self, parts, root: int = 0):
        """Scatter ``parts[i]`` from ``root`` to rank ``i``."""
        result = yield from _scatter(self.env, self._coll_name("sc"), root, parts)
        return result

    def allreduce(self, data: bytes, op):
        """Reduce with ``op`` and deliver the result to every rank."""
        result = yield from _allreduce(
            self.env, self._coll_name("ar"), self.size, data, op
        )
        return result


def _matches(msg: Message, source: int, tag: int) -> bool:
    return (source == ANY_SOURCE or msg.source == source) and (
        tag == ANY_TAG or msg.tag == tag
    )
