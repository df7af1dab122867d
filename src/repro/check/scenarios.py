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

With the gate in place, every interleaving of a clean scenario must
terminate with every oracle satisfied; any deadlock, invariant
violation, or oracle miss the explorer finds is a real bug (or a real
injected fault).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.layout import MPFConfig
from ..core.errors import OutOfMessageMemoryError
from ..core.protocol import Protocol
from ..patterns import select_receive
from ..runtime.base import Env, Worker
from .faults import drop_wake, unlocked_send
from .invariants import check_broadcast_delivery, check_fcfs_delivery

__all__ = ["Scenario", "SCENARIOS"]


@dataclass(frozen=True)
class Scenario:
    """One checkable MPF program: workers, sizing, oracle, faults."""

    name: str
    doc: str
    cfg: MPFConfig
    #: ``build(fault)`` returns the worker list; ``fault`` is ``None`` or
    #: a member of :attr:`faults`.
    build: Callable[[str | None], list[Worker]]
    #: ``oracle(results)`` returns violation strings (empty = clean);
    #: ``results`` maps process name to worker return value.
    oracle: Callable[[dict], list[str]]
    #: Fault names this scenario knows how to inject.
    faults: tuple[str, ...] = ()
    #: Whether a clean run must drain the segment completely.
    expect_empty: bool = True


def _maybe_torn(env: Env, lid: int, payload: bytes, fault: str | None):
    """Route one send through the torn-link mutant when injected."""
    if fault == "torn-send":
        return unlocked_send(env.view, env.rank, lid, payload)
    return env.message_send(lid, payload)


# ---------------------------------------------------------------------------
# fcfs-race: racing FCFS receivers against two senders
# ---------------------------------------------------------------------------

_RACE_SENDERS = 2
_RACE_RECEIVERS = 3
_RACE_MSGS = 4  # per sender
_RACE_QUOTA = (3, 3, 2)  # per receiver; sums to _RACE_SENDERS * _RACE_MSGS


def _race_build(fault: str | None) -> list[Worker]:
    def lead(env: Env):  # rank 0: sender + gate collector
        data = yield from env.open_send("data")
        gate = yield from env.open_receive("gate", Protocol.FCFS)
        for _ in range(_RACE_RECEIVERS + (_RACE_SENDERS - 1)):
            yield from env.message_receive(gate)
        go = yield from env.open_send("go")
        for _ in range(_RACE_SENDERS - 1):
            yield from env.message_send(go, b"go")
        for i in range(_RACE_MSGS):
            yield from _maybe_torn(env, data, bytes([env.rank, i]), fault)
        yield from env.close_receive(gate)
        yield from env.close_send(data)
        yield from env.close_send(go)
        return "lead"

    def sender(env: Env):  # rank 1
        data = yield from env.open_send("data")
        go = yield from env.open_receive("go", Protocol.FCFS)
        gate = yield from env.open_send("gate")
        yield from env.message_send(gate, b"ready")
        yield from env.message_receive(go)
        for i in range(_RACE_MSGS):
            yield from _maybe_torn(env, data, bytes([env.rank, i]), fault)
        yield from env.close_receive(go)
        yield from env.close_send(data)
        yield from env.close_send(gate)
        return "sender"

    def receiver(quota: int) -> Worker:
        def body(env: Env):
            data = yield from env.open_receive("data", Protocol.FCFS)
            gate = yield from env.open_send("gate")
            yield from env.message_send(gate, b"ready")
            got = []
            for _ in range(quota):
                msg = yield from env.message_receive(data)
                got.append(bytes(msg))
            yield from env.close_receive(data)
            yield from env.close_send(gate)
            return got

        return body

    return [lead, sender] + [receiver(q) for q in _RACE_QUOTA]


def _race_oracle(results: dict) -> list[str]:
    sent = [bytes([s, i]) for s in range(_RACE_SENDERS) for i in range(_RACE_MSGS)]
    received = [results[f"p{2 + k}"] for k in range(_RACE_RECEIVERS)]
    return check_fcfs_delivery(sent, received, senders=range(_RACE_SENDERS))


# ---------------------------------------------------------------------------
# connect-churn: open/close storms around a long-lived receiver
# ---------------------------------------------------------------------------

_CHURN_PROCS = 2
_CHURN_ROUNDS = 3
_CHURN_MSGS = 2  # per round


def _churn_build(fault: str | None) -> list[Worker]:
    total = _CHURN_PROCS * _CHURN_ROUNDS * _CHURN_MSGS

    def receiver(env: Env):  # rank 0: stable receiver, holds the circuit open
        data = yield from env.open_receive("data", Protocol.FCFS)
        go = yield from env.open_send("go")
        for _ in range(_CHURN_PROCS):
            yield from env.message_send(go, b"go")
        got = []
        for _ in range(total):
            msg = yield from env.message_receive(data)
            got.append(bytes(msg))
        yield from env.close_receive(data)
        yield from env.close_send(go)
        return got

    def churner(env: Env):  # ranks 1..: connect, send, disconnect, repeat
        go = yield from env.open_receive("go", Protocol.FCFS)
        yield from env.message_receive(go)
        yield from env.close_receive(go)
        for r in range(_CHURN_ROUNDS):
            data = yield from env.open_send("data")
            for i in range(_CHURN_MSGS):
                payload = bytes([env.rank, r, i])
                yield from _maybe_torn(env, data, payload, fault)
            yield from env.close_send(data)
        return _CHURN_ROUNDS

    return [receiver] + [churner] * _CHURN_PROCS


def _churn_oracle(results: dict) -> list[str]:
    out = []
    got = sorted(results["p0"])
    want = sorted(
        bytes([rank, r, i])
        for rank in range(1, 1 + _CHURN_PROCS)
        for r in range(_CHURN_ROUNDS)
        for i in range(_CHURN_MSGS)
    )
    if got != want:
        out.append(
            f"stable receiver saw {len(got)} payloads, expected the exact "
            f"multiset of {len(want)} sent"
        )
    return out


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


def _pool_build(fault: str | None) -> list[Worker]:
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
        return got

    def sender(env: Env):
        go = yield from env.open_receive("go", Protocol.FCFS)
        yield from env.message_receive(go)
        yield from env.close_receive(go)
        data = yield from env.open_send("data")
        retries = 0
        for i in range(_POOL_MSGS):
            for attempt in range(_POOL_RETRY_CAP):
                try:
                    yield from env.message_send(data, bytes([env.rank, i]))
                    break
                except OutOfMessageMemoryError:
                    retries += 1
                    yield from env.compute(instrs=10)  # back off, then retry
            else:
                raise RuntimeError("retry cap exceeded (livelocked schedule?)")
        yield from env.close_send(data)
        return retries

    return [receiver] + [sender] * _POOL_SENDERS


def _pool_oracle(results: dict) -> list[str]:
    out = []
    if results["p0"] != _POOL_SENDERS * _POOL_MSGS:
        out.append(f"receiver drained {results['p0']} messages, "
                   f"expected {_POOL_SENDERS * _POOL_MSGS}")
    return out


# ---------------------------------------------------------------------------
# block-churn: multi-block messages exhaust the block pool, not the headers
# ---------------------------------------------------------------------------

_BLK_SENDERS = 2
_BLK_MSGS = 4  # per sender
#: Payload sized to span several blocks (3 of 10 bytes), so the pool
#: runs out of blocks with headers to spare: ``pop_chain`` comes back
#: empty-handed and the send returns its header before raising.
_BLK_PAYLOAD = 30


def _blk_build(fault: str | None) -> list[Worker]:
    total = _BLK_SENDERS * _BLK_MSGS

    def receiver(env: Env):  # rank 0: drains, freeing chains to the pool
        data = yield from env.open_receive("data", Protocol.FCFS)
        go = yield from env.open_send("go")
        for _ in range(_BLK_SENDERS):
            yield from env.message_send(go, b"g")
        got = []
        for _ in range(total):
            msg = yield from env.message_receive(data)
            got.append(bytes(msg[:2]))
        yield from env.close_receive(data)
        yield from env.close_send(go)
        return got

    # Each sender races its peer's allocations and the receiver's
    # frees for the last blocks of the pool.
    def sender(env: Env):
        go = yield from env.open_receive("go", Protocol.FCFS)
        yield from env.message_receive(go)
        yield from env.close_receive(go)
        data = yield from env.open_send("data")
        pad = b"\0" * (_BLK_PAYLOAD - 2)
        retries = 0
        for i in range(_BLK_MSGS):
            for _ in range(_POOL_RETRY_CAP):
                try:
                    yield from env.message_send(
                        data, bytes([env.rank, i]) + pad)
                    break
                except OutOfMessageMemoryError:
                    retries += 1
                    yield from env.compute(instrs=10)
            else:
                raise RuntimeError("retry cap exceeded (livelocked schedule?)")
        yield from env.close_send(data)
        return retries

    return [receiver] + [sender] * _BLK_SENDERS


def _blk_oracle(results: dict) -> list[str]:
    out = []
    got = sorted(results["p0"])
    want = sorted(
        bytes([rank, i])
        for rank in range(1, 1 + _BLK_SENDERS)
        for i in range(_BLK_MSGS)
    )
    if got != want:
        out.append(
            f"receiver saw {len(got)} payload prefixes, expected the exact "
            f"multiset of {len(want)} sent"
        )
    return out


# ---------------------------------------------------------------------------
# mixed-protocol: FCFS and BROADCAST receivers on one circuit
# ---------------------------------------------------------------------------

_MIX_MSGS = 4
_MIX_FCFS = (2, 2)  # per-receiver quotas; sum to _MIX_MSGS
_MIX_BCAST = 2


def _mix_build(fault: str | None) -> list[Worker]:
    n_ready = len(_MIX_FCFS) + _MIX_BCAST

    def sender(env: Env):  # rank 0: lead
        data = yield from env.open_send("data")
        gate = yield from env.open_receive("gate", Protocol.FCFS)
        for _ in range(n_ready):
            yield from env.message_receive(gate)
        body = sender_body(env, data)
        if fault == "drop-wake":
            body = drop_wake(body)
        yield from body
        yield from env.close_receive(gate)
        yield from env.close_send(data)
        return "sender"

    def sender_body(env: Env, data: int):
        for i in range(_MIX_MSGS):
            yield from env.message_send(data, b"m%d" % i)

    def fcfs(quota: int) -> Worker:
        def body(env: Env):
            data = yield from env.open_receive("data", Protocol.FCFS)
            gate = yield from env.open_send("gate")
            yield from env.message_send(gate, b"ready")
            got = []
            for _ in range(quota):
                msg = yield from env.message_receive(data)
                got.append(bytes(msg))
            yield from env.close_receive(data)
            yield from env.close_send(gate)
            return got

        return body

    def bcast(env: Env):
        data = yield from env.open_receive("data", Protocol.BROADCAST)
        gate = yield from env.open_send("gate")
        yield from env.message_send(gate, b"ready")
        got = []
        for _ in range(_MIX_MSGS):
            msg = yield from env.message_receive(data)
            got.append(bytes(msg))
        yield from env.close_receive(data)
        yield from env.close_send(gate)
        return got

    return [sender] + [fcfs(q) for q in _MIX_FCFS] + [bcast] * _MIX_BCAST


def _mix_oracle(results: dict) -> list[str]:
    sent = [b"m%d" % i for i in range(_MIX_MSGS)]
    fcfs_got = [results[f"p{1 + k}"] for k in range(len(_MIX_FCFS))]
    out = check_fcfs_delivery(sent, fcfs_got)
    first_bcast = 1 + len(_MIX_FCFS)
    for k in range(_MIX_BCAST):
        out += check_broadcast_delivery(sent, results[f"p{first_bcast + k}"],
                                        who=f"p{first_bcast + k}")
    return out


# ---------------------------------------------------------------------------
# ring-wrap: slot reuse and generation aliasing on a tiny ring
# ---------------------------------------------------------------------------

_WRAP_SLOTS = 3
_WRAP_MSGS = 2 * _WRAP_SLOTS + 1  # every slot is reused at least twice
_WRAP_BCAST = 2


def _wrap_build(fault: str | None) -> list[Worker]:
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
    n_ready = 1 + _WRAP_BCAST

    def sender(env: Env):  # rank 0: lead
        data = yield from env.open_send("data")
        gate = yield from env.open_receive("gate", Protocol.FCFS)
        for _ in range(n_ready):
            yield from env.message_receive(gate)
        body = sender_body(env, data)
        if fault == "drop-wake":
            body = drop_wake(body)
        yield from body
        yield from env.close_receive(gate)
        yield from env.close_send(data)
        return "sender"

    def sender_body(env: Env, data: int):
        for i in range(_WRAP_MSGS):
            yield from env.message_send(data, b"w%d" % i)

    def fcfs(env: Env):
        data = yield from env.open_receive("data", Protocol.FCFS)
        gate = yield from env.open_send("gate")
        yield from env.message_send(gate, b"ready")
        got = []
        for _ in range(_WRAP_MSGS):
            msg = yield from env.message_receive(data)
            got.append(bytes(msg))
        yield from env.close_receive(data)
        yield from env.close_send(gate)
        return got

    def bcast(env: Env):
        data = yield from env.open_receive("data", Protocol.BROADCAST)
        gate = yield from env.open_send("gate")
        yield from env.message_send(gate, b"ready")
        got = []
        for _ in range(_WRAP_MSGS):
            msg = yield from env.message_receive(data)
            got.append(bytes(msg))
        yield from env.close_receive(data)
        yield from env.close_send(gate)
        return got

    return [sender, fcfs] + [bcast] * _WRAP_BCAST


def _wrap_oracle(results: dict) -> list[str]:
    sent = [b"w%d" % i for i in range(_WRAP_MSGS)]
    out = check_fcfs_delivery(sent, [results["p1"]])
    for k in range(_WRAP_BCAST):
        out += check_broadcast_delivery(sent, results[f"p{2 + k}"],
                                        who=f"p{2 + k}")
    return out


# ---------------------------------------------------------------------------
# select-poll: pollers multiplexing a shared and a private circuit
# ---------------------------------------------------------------------------

_POLL_POLLERS = 2
_POLL_NEWS = 2  # broadcasts, heard by every poller
_POLL_MAIL = 2  # private FCFS messages per poller


def _poll_build(fault: str | None) -> list[Worker]:
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
        return "sender"

    def poller(env: Env):
        news = yield from env.open_receive("news", Protocol.BROADCAST)
        box = yield from env.open_receive(f"box{env.rank}", Protocol.FCFS)
        gate = yield from env.open_send("gate")
        yield from env.message_send(gate, b"ready")
        got = []
        for _ in range(_POLL_NEWS + _POLL_MAIL):
            _, msg = yield from select_receive(env, (news, box))
            got.append(bytes(msg))
        yield from env.close_receive(news)
        yield from env.close_receive(box)
        yield from env.close_send(gate)
        return got

    return [sender] + [poller] * _POLL_POLLERS


def _poll_oracle(results: dict) -> list[str]:
    news = [b"n%d" % i for i in range(_POLL_NEWS)]
    out = []
    for rank in range(1, 1 + _POLL_POLLERS):
        got = results[f"p{rank}"]
        mail = [b"m%d.%d" % (rank, i) for i in range(_POLL_MAIL)]
        # Each payload once, and each circuit's messages in FIFO order.
        out += check_broadcast_delivery(
            news, [m for m in got if m[:1] == b"n"], who=f"p{rank} news")
        out += check_fcfs_delivery(mail, [[m for m in got if m[:1] == b"m"]])
    return out


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
            oracle=_race_oracle,
            faults=("torn-send",),
        ),
        Scenario(
            name="connect-churn",
            doc=f"{_CHURN_PROCS} senders churn open/send/close for "
                f"{_CHURN_ROUNDS} rounds against one stable receiver",
            cfg=MPFConfig(max_lnvcs=4, max_processes=8, max_messages=32,
                          message_pool_bytes=1 << 12),
            build=_churn_build,
            oracle=_churn_oracle,
            faults=("torn-send",),
        ),
        Scenario(
            name="freelist-churn",
            doc="senders exhaust a 3-header message pool, back off on "
                "OutOfMessageMemoryError and retry while a receiver drains",
            cfg=MPFConfig(max_lnvcs=4, max_processes=8, max_messages=3,
                          message_pool_bytes=1 << 10),
            build=_pool_build,
            oracle=_pool_oracle,
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
            oracle=_blk_oracle,
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
            oracle=_wrap_oracle,
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
            oracle=_poll_oracle,
            faults=(),
        ),
        Scenario(
            name="mixed-protocol",
            doc=f"{len(_MIX_FCFS)} FCFS and {_MIX_BCAST} BROADCAST receivers "
                "share a circuit (exactly-once vs every-receiver delivery)",
            cfg=MPFConfig(max_lnvcs=4, max_processes=8, max_messages=32,
                          message_pool_bytes=1 << 12),
            build=_mix_build,
            oracle=_mix_oracle,
            faults=("drop-wake",),
        ),
    )
}
