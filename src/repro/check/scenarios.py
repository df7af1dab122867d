"""Adversarial MPF programs for the schedule explorer.

Every scenario is deliberately *schedule-robust*: under the paper's
semantics a circuit is deleted (and its unread messages discarded) when
its last connection closes, so a carelessly written concurrent program
can deadlock legitimately under an adversarial schedule — which would
drown the checker in false alarms.  The scenarios avoid that with a
small **gate protocol** built from MPF itself:

* every participant that must be ready before traffic starts opens its
  receive connections first, then sends one *ready token* on a ``gate``
  circuit — and holds its gate send connection open until it finishes,
  so an in-flight token can never be discarded by circuit deletion;
* the *lead* process (rank 0) collects the tokens, then releases the
  others through per-process FCFS ``go`` messages (FCFS because a
  message sent into a circuit with no receivers is preserved for a
  future FCFS joiner — BROADCAST deliveries would be lost if the
  schedule ran the lead first).

The gate is also what makes one delivery law enough to judge every
scenario (:func:`~repro.check.invariants.check_delivery`, over what the
workers sent and received): the law assumes every receiver connected
before traffic started — the gate (or, where a stable receiver leads,
its ``go``) orders every receive open before the first send it must
see, and a ``go`` sent early waits for its FCFS joiner — and that the
run drained, which the final invariant tier (``expect_empty``) demands
of every scenario.  So every interleaving of a clean scenario must
terminate drained and lawful; any deadlock, invariant violation or
broken law the explorer finds is a real bug (or a real injected fault).

A scenario declares the faults it is meant to catch; the checker's
``Env`` injects one into every send on the circuit named ``data``, and
no other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.layout import MPFConfig
from ..core.errors import OutOfMessageMemoryError
from ..core.protocol import Protocol
from ..patterns import select_receive
from ..runtime.base import Env, Worker

__all__ = ["Scenario", "SCENARIOS"]


@dataclass(frozen=True)
class Scenario:
    """One checkable MPF program: workers, sizing, faults."""

    name: str
    doc: str
    cfg: MPFConfig
    #: ``build()`` returns the worker list.
    build: Callable[[], list[Worker]]
    #: Fault names the checker may inject into this scenario's ``data``
    #: sends.
    faults: tuple[str, ...] = ()


def _gated_receiver(protocol: Protocol, n: int) -> Worker:
    """Open ``data`` with ``protocol``, report ready on ``gate``, take ``n``."""

    def body(env: Env):
        data = yield from env.open_receive("data", protocol)
        gate = yield from env.open_send("gate")
        yield from env.message_send(gate, b"ready")
        for _ in range(n):
            yield from env.message_receive(data)
        yield from env.close_receive(data)
        yield from env.close_send(gate)

    return body


def _gated_sender(n_ready: int, payloads: list[bytes]) -> Worker:
    """The lead: collect ``n_ready`` tokens, then send ``payloads``."""

    def body(env: Env):
        data = yield from env.open_send("data")
        gate = yield from env.open_receive("gate", Protocol.FCFS)
        for _ in range(n_ready):
            yield from env.message_receive(gate)
        for payload in payloads:
            yield from env.message_send(data, payload)
        yield from env.close_receive(gate)
        yield from env.close_send(data)

    return body


# ---------------------------------------------------------------------------
# fcfs-race: racing FCFS receivers against two senders
# ---------------------------------------------------------------------------

_RACE_SENDERS = 2
_RACE_RECEIVERS = 3
_RACE_MSGS = 4  # per sender
_RACE_QUOTA = (3, 3, 2)  # per receiver; sums to _RACE_SENDERS * _RACE_MSGS


def _race_build() -> list[Worker]:
    def lead(env: Env):  # rank 0: sender + gate collector
        data = yield from env.open_send("data")
        gate = yield from env.open_receive("gate", Protocol.FCFS)
        for _ in range(_RACE_RECEIVERS + (_RACE_SENDERS - 1)):
            yield from env.message_receive(gate)
        go = yield from env.open_send("go")
        for _ in range(_RACE_SENDERS - 1):
            yield from env.message_send(go, b"go")
        for i in range(_RACE_MSGS):
            yield from env.message_send(data, bytes([env.rank, i]))
        yield from env.close_receive(gate)
        yield from env.close_send(data)
        yield from env.close_send(go)

    def sender(env: Env):  # rank 1
        data = yield from env.open_send("data")
        go = yield from env.open_receive("go", Protocol.FCFS)
        gate = yield from env.open_send("gate")
        yield from env.message_send(gate, b"ready")
        yield from env.message_receive(go)
        for i in range(_RACE_MSGS):
            yield from env.message_send(data, bytes([env.rank, i]))
        yield from env.close_receive(go)
        yield from env.close_send(data)
        yield from env.close_send(gate)

    return [lead, sender] + [_gated_receiver(Protocol.FCFS, q)
                             for q in _RACE_QUOTA]


# ---------------------------------------------------------------------------
# connect-churn: open/close storms around a long-lived receiver
# ---------------------------------------------------------------------------

_CHURN_PROCS = 2
_CHURN_ROUNDS = 3
_CHURN_MSGS = 2  # per round


def _churn_build() -> list[Worker]:
    total = _CHURN_PROCS * _CHURN_ROUNDS * _CHURN_MSGS

    def receiver(env: Env):  # rank 0: stable receiver, holds the circuit open
        data = yield from env.open_receive("data", Protocol.FCFS)
        go = yield from env.open_send("go")
        for _ in range(_CHURN_PROCS):
            yield from env.message_send(go, b"go")
        for _ in range(total):
            yield from env.message_receive(data)
        yield from env.close_receive(data)
        yield from env.close_send(go)

    def churner(env: Env):  # ranks 1..: connect, send, disconnect, repeat
        go = yield from env.open_receive("go", Protocol.FCFS)
        yield from env.message_receive(go)
        yield from env.close_receive(go)
        for r in range(_CHURN_ROUNDS):
            data = yield from env.open_send("data")
            for i in range(_CHURN_MSGS):
                yield from env.message_send(data, bytes([env.rank, r, i]))
            yield from env.close_send(data)

    return [receiver] + [churner] * _CHURN_PROCS


# ---------------------------------------------------------------------------
# freelist-churn: pool exhaustion, back off, retry
# ---------------------------------------------------------------------------

_POOL_SENDERS = 2
_POOL_MSGS = 5  # per sender
#: The back-off (``env.compute``) is free on the thread runtime, so a
#: sender can spin through hundreds of attempts inside one GIL slice
#: before the receiver is scheduled to drain; the cap must be generous
#: enough to ride that out.  It only exists as a last-ditch hang guard —
#: on the simulator a receiver-starving schedule trips the engine's
#: ``max_events`` bound (reported as livelock) long before the cap.
_POOL_RETRY_CAP = 100_000


def _pool_build() -> list[Worker]:
    total = _POOL_SENDERS * _POOL_MSGS

    def receiver(env: Env):  # rank 0: drains, releasing pool capacity
        data = yield from env.open_receive("data", Protocol.FCFS)
        go = yield from env.open_send("go")
        got = 0
        for _ in range(_POOL_SENDERS):
            while True:
                try:
                    yield from env.message_send(go, b"g")
                    break
                except OutOfMessageMemoryError:
                    # The first sender released can fill the pool before
                    # the next "go" goes out (seen on forked processes,
                    # when this one loses its CPU in between): only a
                    # drain makes room, and only this process drains.
                    yield from env.message_receive(data)
                    got += 1
        while got < total:
            yield from env.message_receive(data)
            got += 1
        yield from env.close_receive(data)
        yield from env.close_send(go)

    def sender(env: Env):
        go = yield from env.open_receive("go", Protocol.FCFS)
        yield from env.message_receive(go)
        yield from env.close_receive(go)
        data = yield from env.open_send("data")
        for i in range(_POOL_MSGS):
            for attempt in range(_POOL_RETRY_CAP):
                try:
                    yield from env.message_send(data, bytes([env.rank, i]))
                    break
                except OutOfMessageMemoryError:
                    yield from env.compute(instrs=10)  # back off, then retry
            else:
                raise RuntimeError("retry cap exceeded (livelocked schedule?)")
        yield from env.close_send(data)

    return [receiver] + [sender] * _POOL_SENDERS


# ---------------------------------------------------------------------------
# block-churn: multi-block messages exhaust the block pool, not the headers
# ---------------------------------------------------------------------------

_BLK_SENDERS = 2
_BLK_MSGS = 4  # per sender
#: Payload sized to span several blocks (3 of 10 bytes), so the pool
#: runs out of blocks with headers to spare: ``pop_chain`` comes back
#: empty-handed and the send returns its header before raising.
_BLK_PAYLOAD = 30


def _blk_build() -> list[Worker]:
    total = _BLK_SENDERS * _BLK_MSGS

    def receiver(env: Env):  # rank 0: drains, freeing chains to the pool
        data = yield from env.open_receive("data", Protocol.FCFS)
        go = yield from env.open_send("go")
        for _ in range(_BLK_SENDERS):
            yield from env.message_send(go, b"g")
        for _ in range(total):
            yield from env.message_receive(data)
        yield from env.close_receive(data)
        yield from env.close_send(go)

    # Each sender races its peer's allocations and the receiver's
    # frees for the last blocks of the pool.
    def sender(env: Env):
        go = yield from env.open_receive("go", Protocol.FCFS)
        yield from env.message_receive(go)
        yield from env.close_receive(go)
        data = yield from env.open_send("data")
        pad = b"\0" * (_BLK_PAYLOAD - 2)
        for i in range(_BLK_MSGS):
            for _ in range(_POOL_RETRY_CAP):
                try:
                    yield from env.message_send(
                        data, bytes([env.rank, i]) + pad)
                    break
                except OutOfMessageMemoryError:
                    yield from env.compute(instrs=10)
            else:
                raise RuntimeError("retry cap exceeded (livelocked schedule?)")
        yield from env.close_send(data)

    return [receiver] + [sender] * _BLK_SENDERS


# ---------------------------------------------------------------------------
# mixed-protocol: FCFS and BROADCAST receivers on one circuit
# ---------------------------------------------------------------------------

_MIX_MSGS = 4
_MIX_FCFS = (2, 2)  # per-receiver quotas; sum to _MIX_MSGS
_MIX_BCAST = 2


def _mix_build() -> list[Worker]:
    return ([_gated_sender(len(_MIX_FCFS) + _MIX_BCAST,
                           [b"m%d" % i for i in range(_MIX_MSGS)])]
            + [_gated_receiver(Protocol.FCFS, q) for q in _MIX_FCFS]
            + [_gated_receiver(Protocol.BROADCAST, _MIX_MSGS)] * _MIX_BCAST)


# ---------------------------------------------------------------------------
# ring-wrap: slot reuse and generation aliasing on a tiny ring
# ---------------------------------------------------------------------------

_WRAP_SLOTS = 3
_WRAP_MSGS = 2 * _WRAP_SLOTS + 1  # every slot is reused at least twice
_WRAP_BCAST = 2


def _wrap_build() -> list[Worker]:
    """Mixed receivers drain a ring small enough to wrap mid-run.

    With {_WRAP_SLOTS} slots and {_WRAP_MSGS} messages, every slot is
    claimed, retired and re-claimed under exploration, so the checker
    covers the cases a big ring never reaches: a BROADCAST reader's
    lock-free fast path observing a *stale* commit word (old generation:
    ``seq != cursor+1`` must fall through to the parking slow path, never
    deliver the old payload), the retire check with both a busy pin
    (FCFS) and pending bits (BROADCAST) on the same slot, and a sender
    parked on a full ring whose wake depends on the retire-gating rule
    (wake only when the retired slot is the one ``next_write`` points
    at).
    """
    return ([_gated_sender(1 + _WRAP_BCAST,
                           [b"w%d" % i for i in range(_WRAP_MSGS)]),
             _gated_receiver(Protocol.FCFS, _WRAP_MSGS)]
            + [_gated_receiver(Protocol.BROADCAST, _WRAP_MSGS)] * _WRAP_BCAST)


# ---------------------------------------------------------------------------
# select-poll: pollers multiplexing a shared and a private circuit
# ---------------------------------------------------------------------------

_POLL_POLLERS = 2
_POLL_NEWS = 2  # broadcasts, heard by every poller
_POLL_MAIL = 2  # private FCFS messages per poller


def _poll_build() -> list[Worker]:
    """Pollers wait on "news or my mailbox" with ``select_receive``.

    The Gauss-Jordan worker's idiom (paper §2: no select, poll with
    ``check_receive``), and the one program whose idle wait runs inside
    the engine as a looping section (``ops.poll_receive``): under the
    explorer every step of that loop is a choice point, so the sender's
    links, other pollers' checks and receives, and the loop's own
    acquire/walk/release interleave every way the per-check loop allows.
    Both circuits satisfy ``select_receive``'s reliability rule
    (BROADCAST, or sole FCFS receiver), so a positive check can never
    be stolen and every interleaving must terminate.
    """

    def sender(env: Env):  # rank 0: lead
        news = yield from env.open_send("news")
        boxes = []
        for rank in range(1, 1 + _POLL_POLLERS):
            boxes.append((yield from env.open_send(f"box{rank}")))
        gate = yield from env.open_receive("gate", Protocol.FCFS)
        for _ in range(_POLL_POLLERS):
            yield from env.message_receive(gate)
        for i in range(max(_POLL_NEWS, _POLL_MAIL)):
            if i < _POLL_NEWS:
                yield from env.message_send(news, b"n%d" % i)
            if i < _POLL_MAIL:
                for rank, box in enumerate(boxes, start=1):
                    yield from env.message_send(box, b"m%d.%d" % (rank, i))
        yield from env.close_receive(gate)
        for cid in [news] + boxes:
            yield from env.close_send(cid)

    def poller(env: Env):
        news = yield from env.open_receive("news", Protocol.BROADCAST)
        box = yield from env.open_receive(f"box{env.rank}", Protocol.FCFS)
        gate = yield from env.open_send("gate")
        yield from env.message_send(gate, b"ready")
        for _ in range(_POLL_NEWS + _POLL_MAIL):
            yield from select_receive(env, (news, box))
        yield from env.close_receive(news)
        yield from env.close_receive(box)
        yield from env.close_send(gate)

    return [sender] + [poller] * _POLL_POLLERS


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="fcfs-race",
            doc=f"{_RACE_SENDERS} senders race {_RACE_RECEIVERS} FCFS "
                "receivers on one circuit (exactly-once, FIFO per sender)",
            cfg=MPFConfig(max_lnvcs=4, max_processes=8, max_messages=32,
                          message_pool_bytes=1 << 12),
            build=_race_build,
            faults=("torn-send",),
        ),
        Scenario(
            name="connect-churn",
            doc=f"{_CHURN_PROCS} senders churn open/send/close for "
                f"{_CHURN_ROUNDS} rounds against one stable receiver",
            cfg=MPFConfig(max_lnvcs=4, max_processes=8, max_messages=32,
                          message_pool_bytes=1 << 12),
            build=_churn_build,
            faults=("torn-send",),
        ),
        Scenario(
            name="freelist-churn",
            doc="senders exhaust a 3-header message pool, back off on "
                "OutOfMessageMemoryError and retry while a receiver drains",
            cfg=MPFConfig(max_lnvcs=4, max_processes=8, max_messages=3,
                          message_pool_bytes=1 << 10),
            build=_pool_build,
            faults=(),
        ),
        Scenario(
            name="block-churn",
            doc=f"{_BLK_SENDERS} senders exhaust a 14-block pool with "
                "3-block messages, back off on OutOfMessageMemoryError "
                "and retry, racing the receiver's concurrent frees "
                "(block conservation, exact payload multiset)",
            # 14 blocks, 3-block messages: the pool holds 4 in flight.
            cfg=MPFConfig(max_lnvcs=4, max_processes=8, max_messages=16,
                          message_pool_bytes=196),
            build=_blk_build,
            faults=(),
        ),
        Scenario(
            name="ring-wrap",
            doc=f"ring transport: {_WRAP_MSGS} messages through a "
                f"{_WRAP_SLOTS}-slot ring with 1 FCFS + {_WRAP_BCAST} "
                "BROADCAST receivers (slot reuse, generation aliasing, "
                "full-ring backpressure)",
            cfg=MPFConfig(max_lnvcs=4, max_processes=8, max_messages=32,
                          message_pool_bytes=1 << 12, transport="ring",
                          ring_slots=_WRAP_SLOTS, ring_slot_bytes=16),
            build=_wrap_build,
            faults=("drop-wake",),
        ),
        Scenario(
            name="select-poll",
            doc=f"{_POLL_POLLERS} pollers select_receive over a shared "
                "BROADCAST circuit and a private FCFS mailbox each while "
                "one sender feeds both (each payload once, pollers finish)",
            cfg=MPFConfig(max_lnvcs=4, max_processes=8, max_messages=32,
                          message_pool_bytes=1 << 12),
            build=_poll_build,
            faults=(),
        ),
        Scenario(
            name="mixed-protocol",
            doc=f"{len(_MIX_FCFS)} FCFS and {_MIX_BCAST} BROADCAST receivers "
                "share a circuit (exactly-once vs every-receiver delivery)",
            cfg=MPFConfig(max_lnvcs=4, max_processes=8, max_messages=32,
                          message_pool_bytes=1 << 12),
            build=_mix_build,
            faults=("drop-wake",),
        ),
    )
}
