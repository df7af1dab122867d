"""Charge fusion (``prelude=``) must be invisible except in event count.

``env.check_receive(..., prelude=w)`` and ``env.message_send(...,
prelude=w)`` fuse compute-only application work with the primitive's
fixed cost into one :class:`~repro.core.effects.ChargeMany`, saving a
scheduler trip per call.  Semantically that must equal ``yield
Charge(w)`` immediately before the unfused call: same simulated elapsed
time (exact float equality — the engine charges each part at its own
accumulated absolute time), same results, and the same per-label
instruction totals in the Recorder's charge breakdown (the engine
reports a ChargeMany per part, as ordinary charges).
"""

from repro.core.effects import Charge
from repro.core.protocol import FCFS
from repro.core.work import Work
from repro.obs import Recorder
from repro.runtime.sim import SimRuntime

SEND_WORK = Work(instrs=53, label="app-send-prep")
POLL_WORK = Work(instrs=37, label="app-poll-step")
MSGS = 4


def _workers(fused: bool):
    def sender(env):
        sid = yield from env.open_send("fuse")
        for _ in range(MSGS):
            if fused:
                yield from env.message_send(sid, b"p" * 32, prelude=SEND_WORK)
            else:
                yield Charge(SEND_WORK)
                yield from env.message_send(sid, b"p" * 32)
        yield from env.close_send(sid)

    def poller(env):
        rid = yield from env.open_receive("fuse", FCFS)
        got = 0
        while got < MSGS:
            if fused:
                n = yield from env.check_receive(rid, prelude=POLL_WORK)
            else:
                yield Charge(POLL_WORK)
                n = yield from env.check_receive(rid)
            if n:
                data = yield from env.message_receive(rid)
                assert data == b"p" * 32
                got += 1
        yield from env.close_receive(rid)
        return got

    return [sender, poller]


def test_fusion_preserves_elapsed_and_results():
    unfused = SimRuntime().run(_workers(fused=False))
    fused = SimRuntime().run(_workers(fused=True))
    assert fused.elapsed == unfused.elapsed  # exact, not approximate
    assert fused.results == unfused.results


def test_fusion_preserves_charge_breakdown():
    t_unfused, t_fused = Recorder(), Recorder()
    SimRuntime(recorder=t_unfused).run(_workers(fused=False))
    SimRuntime(recorder=t_fused).run(_workers(fused=True))
    # Per-label totals agree exactly — fusion changes how work is
    # delivered to the engine, not how much of it there is.
    assert t_fused.charge_breakdown() == t_unfused.charge_breakdown()
    breakdown = t_fused.charge_breakdown()  # Counter: label -> instrs
    assert breakdown["app-send-prep"] == MSGS * SEND_WORK.instrs
    # The poller may spin more than MSGS times; the prelude is charged
    # once per poll either way.
    assert breakdown["app-poll-step"] >= MSGS * POLL_WORK.instrs
    assert breakdown["app-poll-step"] % POLL_WORK.instrs == 0


def test_fusion_preserves_per_process_event_streams():
    # ChargeMany is reported per part at the unfused timestamps, so each
    # process's own span stream is identical.  Only the *interleaving* in
    # the global log may differ: a fused pair is logged back-to-back,
    # while in the unfused run another process's events can land between
    # the two charges.
    streams = []
    for fused in (False, True):
        rec = Recorder()
        SimRuntime(recorder=rec).run(_workers(fused=fused))
        per_proc: dict[str, list] = {}
        for span in rec.spans:
            per_proc.setdefault(span.process, []).append(span)
        streams.append(per_proc)
    assert streams[0] == streams[1]
