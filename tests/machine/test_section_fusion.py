"""Section fusion: the identity guarantees.

The engine can retire a run of protocol steps as one
:class:`~repro.core.effects.FusedSection` effect and fast-forward the
clock across steps no other process can observe.  The producers are
``ops.poll_receive``'s idle wait, ``check_receive``, ``message_send``
and ``message_receive``; open and close are classic generators on
every runtime.  All of it is gated on byte-identity with
classic stepping; this module pins the load-bearing guarantees:

* a send (and its ``Wake``), a receive, a check and a poll are each
  one section built from the surviving step vocabulary, on either
  transport;
* reduced fig4 + fig6 sweeps are byte-identical with poll sections and
  with every poll run through the per-check loop;
* a causal tracer sees the identical event stream and sojourn
  quantiles either way, on both transports;
* a section never runs across an actual lock conflict — it parks at the
  contended acquire and its remaining steps retire only after the
  holder's release, in the same order classic stepping produces.
"""

import json

import pytest

from repro.bench.figures import fig4, fig6, reset_run_cache
from repro.bench.workloads import fcfs_throughput
from repro.core import ops
from repro.core.costmodel import DEFAULT_COSTS
from repro.core.effects import (
    D_BAIL,
    D_JUMP,
    S_ACQ,
    S_CALL,
    S_CHARGE,
    S_MANY,
    S_REL,
    Acquire,
    Charge,
    FusedSection,
    Release,
    Wake,
)
from repro.core.protocol import ALLOC_LOCK, BROADCAST, FCFS
from repro.core.work import Work
from repro.machine.balance import BALANCE_21000
from repro.machine.cpu import BalanceTiming
from repro.machine.engine import Engine
from repro.obs import Recorder, sojourn_stats
from repro.testing import make_view


_STEP_OPS = {S_CHARGE, S_MANY, S_ACQ, S_REL, S_CALL}


def _drive(gen, effects):
    """Run ``gen`` alone (every acquire granted), collecting its effects;
    a section it yields is run (:func:`_run_section`) and its result
    sent back."""
    value = None
    try:
        while True:
            effect = gen.send(value)
            effects.append(effect)
            value = (_run_section(effect, []) if effect.__class__ is
                     FusedSection else None)
    except StopIteration as stop:
        return stop.value


def _run_section(section, held):
    """Run ``section`` alone (every acquire granted, charges dropped),
    checking that every step tuple it is handed is of the surviving
    vocabulary; returns its result."""
    steps, idx, result = section.steps, 0, None
    while idx < len(steps):
        assert {op for op, _ in steps} <= _STEP_OPS
        op, arg = steps[idx]
        idx += 1
        if op == S_ACQ:
            held.append(arg)
        elif op == S_REL:
            held.remove(arg)
        elif op == S_CALL:
            d = arg()
            if d is not None:
                result = d[1]
                if d[0] == D_JUMP:
                    steps, idx = d[2], 0
                else:
                    assert d[0] == D_BAIL
                    break
    return result


@pytest.mark.parametrize("transport", ["freelist", "ring"])
def test_the_send_and_receive_are_sections(transport):
    """On either transport a send is one section and its ``Wake``, a
    receive is one section, and so is a check (a prelude is the head's
    first step); a ring receive's head takes lock-free before it
    acquires anything."""
    view = make_view(transport=transport)
    _drive(ops.open_send(view, 0, "c"), [])
    cid = _drive(ops.open_receive(view, 0, "c", BROADCAST), [])
    prelude = Work(instrs=3, label="app-compute")
    send = ops.message_send(view, 0, cid, b"payload", prelude)
    lock = view.lnvc_lock(ops.decode_lnvc_id(cid)[0])
    section = next(send)
    assert section.__class__ is FusedSection
    assert section.steps[:2] == (
        ((S_MANY, (prelude, view._ring_send_fixed_work)), (S_ACQ, lock))
        if transport == "ring" else
        ((S_MANY, (prelude, view._send_fixed_work)), (S_ACQ, ALLOC_LOCK)))
    held = []
    assert _run_section(section, held) == 0 and held == []
    assert send.send(0) == Wake(ops.decode_lnvc_id(cid)[0])
    with pytest.raises(StopIteration) as done:
        next(send)
    assert done.value.value == 0
    # One section each, from the fixed charge to the last release: the
    # generator is resumed once, with the result.
    for op, first, result in (
            (lambda: ops.check_receive(view, 0, cid, prelude),
             (S_MANY, (prelude, view._check_fixed_work)), 1),
            (lambda: ops.message_receive(view, 0, cid), None, b"payload"),
            (lambda: ops.check_receive(view, 0, cid),
             (S_CHARGE, view._check_fixed_work), 0)):
        op = op()
        section = next(op)
        assert section.__class__ is FusedSection
        if first is not None:
            assert section.steps[:2] == (first, (S_ACQ, lock))
        elif transport == "ring":
            assert [o for o, _ in section.steps] == [S_CHARGE, S_CALL]
        held = []
        assert _run_section(section, held) == result and held == []
        with pytest.raises(StopIteration) as done:
            op.send(result)
        assert done.value.value == result


def test_a_poll_is_one_section_of_the_surviving_step_vocabulary():
    view = make_view()
    _drive(ops.open_send(view, 0, "c"), [])
    cid = _drive(ops.open_receive(view, 0, "c", FCFS), [])
    poll = ops.poll_receive(view, 0, (cid,), Work(instrs=9, label="app-compute"))
    section = next(poll)
    assert section.__class__ is FusedSection
    lock = view.lnvc_lock(ops.decode_lnvc_id(cid)[0])
    walk = section.steps[-1]
    assert walk[0] == S_CALL

    # Every tuple the interpreter can be handed: the head, the jump of
    # an empty check (back to the head it polls next), the jump of a hit.
    empty = walk[1]()
    _drive(ops.message_send(view, 0, cid, b"x"), [])
    hit = walk[1]()
    assert (empty[0], empty[1]) == (D_JUMP, None)
    assert empty[2][-len(section.steps):] == section.steps
    assert (hit[0], hit[1]) == (D_JUMP, cid) and hit[2][-1] == (S_REL, lock)
    for steps in (section.steps, empty[2], hit[2]):
        assert {op for op, _ in steps} <= _STEP_OPS

    # The generator's whole effect stream was that one section.
    with pytest.raises(StopIteration) as done:
        poll.send(cid)
    assert done.value.value == cid

    # An error is a bail carrying the lock the section still holds.
    _drive(ops.close_receive(view, 0, cid), [])
    bail = walk[1]()
    assert bail[0] == D_BAIL and bail[1][0] == lock


@pytest.mark.parametrize("fig", [fig4, fig6], ids=["fig4", "fig6"])
def test_reduced_figures_byte_identical(fig, poll_loop):
    """The acceptance gate, in miniature: quick sweeps, section vs loop."""

    def sweep():
        reset_run_cache()
        try:
            return json.dumps(fig(quick=True).to_dict(), sort_keys=True)
        finally:
            reset_run_cache()

    fused = sweep()
    with poll_loop():
        classic = sweep()
    assert fused == classic


@pytest.mark.parametrize("transport", ["freelist", "ring"])
def test_causal_stream_and_sojourns_identical(transport, poll_loop):
    """Section or loop is invisible to the causal tracer, on both
    transports."""

    def run():
        rec = Recorder(causal=True)
        fcfs_throughput(4, 64, messages=12, recorder=rec,
                        transport=transport)
        return rec

    a = run()
    with poll_loop():
        b = run()
    assert a.causal.events == b.causal.events
    assert a.causal.total == b.causal.total
    sa, sb = sojourn_stats(a.causal), sojourn_stats(b.causal)
    assert set(sa) == set(sb)
    for key in sa:
        for stage in sa[key]:
            for q in ("p50", "p95"):
                assert getattr(sa[key][stage], q) == getattr(sb[key][stage], q)


def _conflict_program(eng, fused: bool):
    """P0 holds lock 2 for a long charge; P1 contends for it."""

    def holder():
        yield Acquire(2)
        yield Charge(Work(instrs=100_000, label="hold"))
        yield Release(2)

    def waiter():
        # Lead-in charge so the holder wins the race for the lock.
        yield Charge(Work(instrs=10, label="lead-in"))
        if fused:
            yield FusedSection((
                (S_ACQ, 2),
                (S_CHARGE, Work(instrs=50, label="crit")),
                (S_REL, 2),
            ))
        else:
            yield Acquire(2)
            yield Charge(Work(instrs=50, label="crit"))
            yield Release(2)

    eng.spawn("p0", holder())
    eng.spawn("p1", waiter())


def _run_conflict(fused: bool):
    rec = Recorder()
    eng = Engine(
        n_locks=4, n_channels=2,
        timing=BalanceTiming(BALANCE_21000, DEFAULT_COSTS), n_cpus=4,
        recorder=rec,
    )
    _conflict_program(eng, fused)
    elapsed = eng.run()
    return elapsed, eng.stats, list(rec.spans)


def test_fusion_never_fires_across_lock_conflict():
    """The contention guard: a fused section parks at a held lock.

    If the section retired atomically despite the conflict, P1's
    critical charge would land inside P0's hold window; instead it must
    start at (or after) P0's release, and the whole schedule — span
    stream, event count, final clock — must equal classic stepping's.
    """
    f_elapsed, f_stats, f_spans = _run_conflict(fused=True)
    c_elapsed, c_stats, c_spans = _run_conflict(fused=False)

    t_release = next(s.time for s in f_spans if s.process == "p0"
                     and s.kind == "release" and s.value == 2)
    # A charge span is stamped at its end.
    t_crit = next(s.time - s.duration for s in f_spans
                  if s.process == "p1" and s.name == "crit")
    assert t_crit >= t_release, (
        "fused critical section ran inside the holder's critical section"
    )

    # Fusion is an implementation detail: identical per-part span
    # stream, identical accounting, identical clock.
    assert f_spans == c_spans
    assert f_elapsed == c_elapsed
    assert f_stats.events == c_stats.events
    assert f_stats.charges == c_stats.charges
