"""Coordination patterns built purely on the eight MPF primitives.

The paper closes §1 by claiming LNVCs "provide a fully general
communication paradigm ... dialogue, group discussions, and lectures".
This module substantiates the claim: barriers and the familiar collective
operations (gather, scatter, broadcast, reduce, all-to-all) are expressed
here with nothing but ``open_send`` / ``open_receive`` / ``message_send``
/ ``message_receive`` / ``close_*`` — no shared variables, no extra
synchronization.

The lost-message discipline
---------------------------
MPF deletes a circuit — discarding queued messages — when its *last*
connection closes (paper §2), and the paper warns that a sender which
closes before any receiver joins can silently lose its messages (§3.2).
Two rules make every pattern below loss-free on any interleaving:

1. **Hold your send connection until you have evidence the conversation
   has progressed** (a reply arrived, or a release was broadcast).  While
   any connection is open the circuit — and its queued messages —
   survives, and FCFS messages are held for receivers that join later
   (DESIGN.md §4 retirement rule).
2. **Open a BROADCAST connection before telling anyone to broadcast to
   you** — broadcast receivers only hear messages sent after they join.

All functions are generator functions: call with ``yield from``.
Payloads are tagged with the sender's rank in a 4-byte header so results
can be ordered deterministically regardless of arrival order.
"""

from __future__ import annotations

import struct
from typing import Callable, Sequence

from .core.protocol import BROADCAST, FCFS
from .core.work import Work
from .runtime.base import Env

__all__ = [
    "tag",
    "untag",
    "barrier",
    "gather",
    "scatter",
    "broadcast",
    "reduce",
    "allreduce",
    "all_to_all",
    "exchange",
    "select_receive",
    "Mailboxes",
]

_RANK = struct.Struct("<I")


def tag(rank: int, payload: bytes) -> bytes:
    """Prefix ``payload`` with the sender's rank."""
    return _RANK.pack(rank) + payload


def untag(message: bytes) -> tuple[int, bytes]:
    """Split a rank-tagged message into ``(rank, payload)``."""
    return _RANK.unpack_from(message)[0], message[_RANK.size :]


def barrier(env: Env, name: str, n: int, coordinator: int = 0):
    """Synchronize ``n`` processes at a named barrier.

    Arrivals flow to the coordinator over an FCFS circuit; the release is
    broadcast once everyone has arrived.  Participants open the release
    circuit *before* announcing arrival (rule 2) and keep their arrival
    send connection open until released (rule 1), so neither side of the
    rendezvous can be lost.

    ``name`` must be unique per use (e.g. suffix an iteration number).
    """
    out_id = yield from env.open_receive(f"{name}.out", BROADCAST)
    in_id = yield from env.open_send(f"{name}.in")
    yield from env.message_send(in_id, tag(env.rank, b""))
    if env.rank == coordinator:
        arrivals = yield from env.open_receive(f"{name}.in", FCFS)
        for _ in range(n):
            yield from env.message_receive(arrivals)
        yield from env.close_receive(arrivals)
        release = yield from env.open_send(f"{name}.out")
        yield from env.message_send(release, b"go")
        yield from env.close_send(release)
    yield from env.message_receive(out_id)
    yield from env.close_send(in_id)
    yield from env.close_receive(out_id)


def gather(env: Env, name: str, root: int, n: int, payload: bytes):
    """Collect one payload from each of ``n`` processes at ``root``.

    Returns the list of payloads ordered by contributor rank at the root,
    ``None`` elsewhere.  The ``n`` participants may be any rank subset
    (e.g. workers 1..P gathering without their arbiter).  Contributors
    hold their send connection open until the root broadcasts completion,
    so payloads sent before the root joins cannot be discarded by an
    early close.
    """
    if env.rank == root:
        recv_id = yield from env.open_receive(name, FCFS)
        parts: dict[int, bytes] = {root: payload}
        while len(parts) < n:
            rank, data = untag((yield from env.message_receive(recv_id)))
            parts[rank] = data
        done = yield from env.open_send(f"{name}.done")
        yield from env.message_send(done, b"done")
        yield from env.close_send(done)
        yield from env.close_receive(recv_id)
        return [parts[r] for r in sorted(parts)]
    done_id = yield from env.open_receive(f"{name}.done", BROADCAST)
    send_id = yield from env.open_send(name)
    yield from env.message_send(send_id, tag(env.rank, payload))
    yield from env.message_receive(done_id)
    yield from env.close_send(send_id)
    yield from env.close_receive(done_id)
    return None


def scatter(env: Env, name: str, root: int, parts: Sequence[bytes] | None):
    """Distribute ``parts[i]`` from ``root`` to process ``i``.

    Each receiver opens its per-destination circuit, announces readiness,
    and holds the readiness send connection open until its part arrives;
    the root therefore only ever sends to circuits with a connected
    receiver.  Returns this process's part on every process.
    """
    if env.rank == root:
        if parts is None:
            raise ValueError("root must supply the parts to scatter")
        if len(parts) != env.nprocs and len(parts) < 1:
            raise ValueError("need one part per process")
        ready = yield from env.open_receive(f"{name}.rdy", FCFS)
        for _ in range(len(parts) - 1):
            yield from env.message_receive(ready)
        for dest, part in enumerate(parts):
            if dest == root:
                continue
            cid = yield from env.open_send(f"{name}.{dest}")
            yield from env.message_send(cid, part)
            yield from env.close_send(cid)
        yield from env.close_receive(ready)
        return parts[root]
    part_id = yield from env.open_receive(f"{name}.{env.rank}", FCFS)
    rdy = yield from env.open_send(f"{name}.rdy")
    yield from env.message_send(rdy, tag(env.rank, b""))
    mine = yield from env.message_receive(part_id)
    yield from env.close_send(rdy)
    yield from env.close_receive(part_id)
    return mine


def broadcast(env: Env, name: str, root: int, n: int, payload: bytes | None = None):
    """Deliver one payload from ``root`` to all ``n`` processes.

    Uses a true BROADCAST circuit (one send, concurrent receives — the
    mechanism behind Figure 5), made reliable by a ready handshake: the
    root sends only after all ``n - 1`` receivers confirm their broadcast
    connection is open, and each receiver holds its ready send connection
    until the data arrives.  Returns the payload on every process.
    """
    if env.rank == root:
        if payload is None:
            raise ValueError("root must supply the broadcast payload")
        ready = yield from env.open_receive(f"{name}.ready", FCFS)
        for _ in range(n - 1):
            yield from env.message_receive(ready)
        cid = yield from env.open_send(name)
        yield from env.message_send(cid, payload)
        yield from env.close_send(cid)
        yield from env.close_receive(ready)
        return payload
    rid = yield from env.open_receive(name, BROADCAST)
    ready = yield from env.open_send(f"{name}.ready")
    yield from env.message_send(ready, tag(env.rank, b""))
    data = yield from env.message_receive(rid)
    yield from env.close_send(ready)
    yield from env.close_receive(rid)
    return data


def reduce(
    env: Env,
    name: str,
    root: int,
    n: int,
    payload: bytes,
    op: Callable[[bytes, bytes], bytes],
):
    """Fold one payload per process into a single value at ``root``.

    ``op`` combines two payloads; it must be associative and commutative
    (arrival order is nondeterministic).  Returns the folded value at the
    root, ``None`` elsewhere.
    """
    parts = yield from gather(env, name, root, n, payload)
    if parts is None:
        return None
    acc = parts[0]
    for part in parts[1:]:
        acc = op(acc, part)
    return acc


def allreduce(
    env: Env,
    name: str,
    n: int,
    payload: bytes,
    op: Callable[[bytes, bytes], bytes],
    root: int = 0,
):
    """Reduce at ``root`` then broadcast the result to everyone."""
    acc = yield from reduce(env, f"{name}.r", root, n, payload, op)
    result = yield from broadcast(
        env, f"{name}.b", root, n, acc if env.rank == root else None
    )
    return result


def all_to_all(env: Env, name: str, n: int, parts: Sequence[bytes]):
    """Exchange ``parts[j]`` from every process ``i`` to every process ``j``.

    One FCFS mailbox circuit per destination (the communication structure
    of the paper's `random` benchmark, Figure 6).  Every process opens its
    own mailbox, then a barrier guarantees all mailboxes have a connected
    receiver before anyone sends.  Returns the payloads received, indexed
    by source rank; slot ``env.rank`` holds this process's own
    contribution, delivered locally.
    """
    if len(parts) != n:
        raise ValueError("need exactly one part per process")
    rid = yield from env.open_receive(f"{name}.{env.rank}", FCFS)
    yield from barrier(env, f"{name}.bar", n)
    for dest in range(n):
        if dest == env.rank:
            continue
        cid = yield from env.open_send(f"{name}.{dest}")
        yield from env.message_send(cid, tag(env.rank, parts[dest]))
        yield from env.close_send(cid)
    received: dict[int, bytes] = {env.rank: parts[env.rank]}
    while len(received) < n:
        rank, data = untag((yield from env.message_receive(rid)))
        received[rank] = data
    yield from env.close_receive(rid)
    return [received[i] for i in range(n)]


def select_receive(env: Env, lnvc_ids: Sequence[int], backoff_instrs: int = 400):
    """Receive from whichever of several circuits has a message first.

    MPF has no ``select``; the paper's tool for waiting on more than one
    circuit is polling with ``check_receive`` (§2) — the idiom the
    Gauss–Jordan workers use to wait on "my advise circuit *or* the
    pivot broadcast".  This helper codifies it: poll each circuit in
    order, back off ``backoff_instrs`` of compute between rounds (so
    pollers do not monopolize the circuit locks), and return
    ``(lnvc_id, payload)`` for the first circuit with traffic.

    Reliability caveat, inherited from ``check_receive``'s documented
    race: use this only on circuits where a positive check cannot be
    invalidated — BROADCAST connections (guaranteed by the paper) or
    FCFS circuits on which this process is the *sole* FCFS receiver
    (advise circuits, private mailboxes).  With competing FCFS receivers
    a stolen message would leave the caller blocked on one circuit while
    another has traffic — exactly the §2 hazard, which no polling
    wrapper can remove.
    """
    # First round through the primitive itself; a wait that outlasts it
    # moves to ``poll_receive``, which fuses each round's backoff charge
    # into its first check and, on the simulator, stays inside the engine
    # until a circuit has traffic.  The charge stream — and hence all
    # simulated timing — is identical to ``env.compute(backoff)`` plus a
    # ``check_receive`` per circuit, round after round.
    for cid in lnvc_ids:
        if (yield from env.check_receive(cid)):
            break
    else:
        cid = yield from env.poll_receive(
            lnvc_ids, Work(instrs=backoff_instrs, label="app-compute"))
    payload = yield from env.message_receive(cid)
    return cid, payload


def exchange(env: Env, name: str, peer: int, payload: bytes):
    """Symmetric pairwise exchange with ``peer`` (halo-swap step).

    Each direction uses its own FCFS circuit named by the (source,
    destination) pair.  The inbound circuit is opened before sending, and
    the outbound send connection is held until the peer's payload arrives
    — the peer's message proves it has joined our outbound circuit, so
    closing can no longer discard anything.  Returns the peer's payload.

    For repeated exchanges with fixed neighbours use :class:`Mailboxes`,
    which keeps circuits open across iterations.
    """
    rid = yield from env.open_receive(f"{name}.{peer}.{env.rank}", FCFS)
    out = yield from env.open_send(f"{name}.{env.rank}.{peer}")
    yield from env.message_send(out, payload)
    data = yield from env.message_receive(rid)
    yield from env.close_send(out)
    yield from env.close_receive(rid)
    return data


class Mailboxes:
    """Long-lived per-pair circuits for iterative neighbour exchange.

    Opening and closing circuits inside an inner loop costs an open/close
    per message; the SOR solver (Figure 8) instead opens each
    neighbour-pair circuit once and reuses it every iteration, as the
    hypercube original kept its channels open.  Usage::

        boxes = Mailboxes(env, "halo")
        yield from boxes.connect([north, south])   # peer ranks
        ...each iteration...
        data = yield from boxes.swap(north, payload_north)
        ...
        yield from boxes.close()

    :meth:`close` is safe once a full exchange has completed with every
    peer (their reply proves they joined our outbound circuits).
    """

    def __init__(self, env: Env, name: str) -> None:
        self.env = env
        self.name = name
        self._out: dict[int, int] = {}
        self._in: dict[int, int] = {}

    def connect(self, peers: Sequence[int]):
        """Open send and receive circuits to every peer in ``peers``."""
        env = self.env
        for peer in peers:
            self._in[peer] = yield from env.open_receive(
                f"{self.name}.{peer}.{env.rank}", FCFS
            )
            self._out[peer] = yield from env.open_send(
                f"{self.name}.{env.rank}.{peer}"
            )

    @property
    def peers(self) -> list[int]:
        """Ranks connected via :meth:`connect`."""
        return list(self._out)

    def send(self, peer: int, payload: bytes):
        """Send to a connected peer."""
        yield from self.env.message_send(self._out[peer], payload)

    def receive(self, peer: int):
        """Receive from a connected peer."""
        data = yield from self.env.message_receive(self._in[peer])
        return data

    def swap(self, peer: int, payload: bytes):
        """Send then receive — the classic halo exchange step."""
        yield from self.send(peer, payload)
        data = yield from self.receive(peer)
        return data

    def swap_all(self, payloads: dict[int, bytes]):
        """Send to every peer first, then collect every reply.

        Send-all-then-receive-all avoids the stepwise rendezvous ordering
        a naive loop of :meth:`swap` would impose on grids.
        """
        for peer, payload in payloads.items():
            yield from self.send(peer, payload)
        replies: dict[int, bytes] = {}
        for peer in payloads:
            replies[peer] = yield from self.receive(peer)
        return replies

    def close(self):
        """Close every circuit opened by :meth:`connect`."""
        env = self.env
        for cid in self._out.values():
            yield from env.close_send(cid)
        for cid in self._in.values():
            yield from env.close_receive(cid)
        self._out.clear()
        self._in.clear()
