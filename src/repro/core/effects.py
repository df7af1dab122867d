"""Effect objects yielded by MPF primitives.

The paper's portability claim — "the only system dependent code involves
shared memory allocation and synchronization" — is realized here as an
*effect protocol*.  MPF primitives are written once, as generators that
mutate the shared region directly but **yield** every system-dependent
action as a small effect object.  Each runtime interprets the effects:

=====================  ============================  =========================
effect                 simulated machine              real runtimes
=====================  ============================  =========================
:class:`Acquire`       queue on a simulated lock,    ``lock.acquire()``
                       advancing the virtual clock
:class:`Release`       hand the lock to the next     ``lock.release()``
                       waiter
:class:`Charge`        price the work and advance    ignored (time passes on
                       the clock                     its own)
:class:`WaitOn`        atomically release the lock,  ``condition.wait()``
                       sleep on a channel, reacquire
                       on wake
:class:`Wake`          wake every channel sleeper    ``condition.notify_all()``
:class:`FusedSection`  each step as the effect it    the same, step by step
                       stands for; ``S_CALL`` runs
                       primitive code in between
=====================  ============================  =========================

The effect classes are final: frozen, slotted dataclasses that nothing
subclasses.  Interpreters dispatch on the exact class, and anything else
a process yields is a ``yielded non-effect`` error.  ``Acquire``,
``Release``, ``WaitOn`` and ``Wake`` refuse a negative lock or channel
id when they are built: every runtime indexes a list with the id, and a
list would wrap it to another lock.

``WaitOn`` has condition-variable semantics: the caller must hold
``lock_id``; on resumption the lock is held again.  This closes the lost
wake-up window between "queue is empty" and "go to sleep" on every
runtime, which is the classic hazard of the blocking
``message_receive`` primitive (paper §2: "Message_receive() is blocking;
it returns only after a message has been received").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Generator, Iterable

from .work import Work

__all__ = [
    "Acquire",
    "Release",
    "Charge",
    "charge",
    "ChargeMany",
    "WaitOn",
    "Wake",
    "FusedSection",
    "Effect",
    "OpGen",
    "S_CHARGE",
    "S_MANY",
    "S_ACQ",
    "S_REL",
    "S_CALL",
    "D_BAIL",
    "D_JUMP",
    "unfold",
]

# -- fused-section step opcodes and call directives -------------------------
#
# A FusedSection's ``steps`` are small ``(opcode, arg)`` tuples.  Plain
# ints (not an Enum) keep the simulator's per-step dispatch at a couple of
# machine comparisons — these run once per protocol step, millions of
# times per figure sweep.  The engine compares against the literal
# values; opcodes 4 and 6 and directives 0-2 are unassigned.

#: ``(S_CHARGE, work)`` — one :class:`Charge` event.
S_CHARGE = 0
#: ``(S_MANY, works)`` — one :class:`ChargeMany` event (compute-only parts).
S_MANY = 1
#: ``(S_ACQ, lock_id)`` — one :class:`Acquire` event (may block).
S_ACQ = 2
#: ``(S_REL, lock_id)`` — one :class:`Release` event.
S_REL = 3
#: ``(S_CALL, fn)`` — run ``fn()`` at the current instant (no event, no
#: simulated time): the generator-body code that would execute between
#: two yields in the unfused sequence.  ``fn`` returns ``None`` or a
#: directive tuple (below).
S_CALL = 5

#: ``(D_BAIL, value)`` — abandon the remaining steps and resume the
#: generator *now* with ``value``.  The guard for whatever the section
#: cannot handle (a validation error): the generator's own code takes
#: over with all acquired locks still held.
D_BAIL = 3
#: ``(D_JUMP, value, steps)`` — set the section's result (sent into the
#: generator when the section completes) and *replace* the remaining
#: steps with ``steps`` (a pre-built tuple; nothing is concatenated, so
#: a closure can return one memoized directive for as long as the shared
#: state it depends on is unchanged).  How a body whose continuation
#: depends on shared state (a list walk) extends its section.
D_JUMP = 4


@dataclass(frozen=True, slots=True, init=False)
class Acquire:
    """Take exclusive ownership of lock ``lock_id`` (blocking)."""

    lock_id: int

    def __init__(self, lock_id: int) -> None:
        if lock_id < 0:
            raise ValueError(f"lock id {lock_id} is negative")
        object.__setattr__(self, "lock_id", lock_id)


@dataclass(frozen=True, slots=True, init=False)
class Release:
    """Give up ownership of lock ``lock_id``."""

    lock_id: int

    def __init__(self, lock_id: int) -> None:
        if lock_id < 0:
            raise ValueError(f"lock id {lock_id} is negative")
        object.__setattr__(self, "lock_id", lock_id)


@dataclass(frozen=True, slots=True)
class Charge:
    """Account for ``work`` units of machine activity."""

    work: Work


@lru_cache(maxsize=4096)
def charge(instrs: int, label: str, copy_bytes: int = 0, blocks: int = 0,
           page_bytes: int = 0, flops: int = 0) -> Charge:
    """The :class:`Charge` for this much work, built once per distinct value.

    Where the message path's variable charges come from: the values
    repeat (a program sends a handful of lengths over lists a handful
    of entries deep), effects are frozen, and the real runtimes throw
    every charge away — so the two dataclass constructions per charge
    are paid on a miss only.  Equal arguments give an equal ``Work``,
    hence the same simulated time to the last bit.  Bounded: at most
    4,096 entries of two small frozen objects each, least recently used
    out first.
    """
    return Charge(Work(instrs, copy_bytes, blocks, flops, page_bytes, label))


@dataclass(frozen=True, slots=True)
class ChargeMany:
    """Account for several adjacent pieces of work in one effect.

    Semantically equivalent to yielding one :class:`Charge` per element
    of ``works`` back to back, but costs a single scheduler round-trip —
    the fast path for hot sections that interleave application compute
    with a primitive's fixed cost (e.g. a poll loop's backoff charge
    followed by ``check_receive``'s entry charge).

    Each part keeps its own :class:`~repro.core.work.Work` label, so
    per-label accounting (the Recorder's charge split) is unchanged.
    Restriction: parts must be instruction/flop-only work (no
    ``copy_bytes``/``blocks``/``page_bytes``), because those feed
    stateful bus/cache/VM models whose inputs may move between two
    separate charge events; pure compute prices identically either way
    as long as the run is not oversubscribed (more runnable processes
    than simulated CPUs) — which none of the paper's workloads are.
    """

    works: tuple[Work, ...]


@dataclass(frozen=True, slots=True, init=False)
class WaitOn:
    """Sleep on wait channel ``chan``; caller holds ``lock_id``.

    The runtime releases ``lock_id``, suspends the process until another
    process executes :class:`Wake` on the same channel, then reacquires
    ``lock_id`` before resuming the caller — exactly a condition variable
    built over the LNVC's lock.
    """

    chan: int
    lock_id: int

    def __init__(self, chan: int, lock_id: int) -> None:
        if chan < 0 or lock_id < 0:
            raise ValueError(
                f"negative id in WaitOn(chan={chan}, lock_id={lock_id})")
        object.__setattr__(self, "chan", chan)
        object.__setattr__(self, "lock_id", lock_id)


@dataclass(frozen=True, slots=True, init=False)
class Wake:
    """Wake every process sleeping on wait channel ``chan``.

    Wake-all (rather than wake-one) is deliberate: with several FCFS
    receivers parked on one circuit, all of them race for the message and
    exactly one wins — the same race the paper documents for
    ``check_receive`` (§2) and blames for the small-message throughput
    decline of Figure 4.
    """

    chan: int

    def __init__(self, chan: int) -> None:
        if chan < 0:
            raise ValueError(f"wait channel {chan} is negative")
        object.__setattr__(self, "chan", chan)


@dataclass(frozen=True, slots=True)
class FusedSection:
    """A run of protocol steps retired as one effect.

    ``steps`` is a tuple of ``(opcode, arg)`` pairs (see the ``S_*``
    constants above): acquires, charges and releases interleaved with
    ``S_CALL`` closures holding the generator-body code that runs
    between the equivalent classic yields.  Every interpreter runs it —
    ``Engine.run`` and ``machine/engine.c``, the real runtimes' ``drive``
    (``runtime/threads.py``) and ``runtime/sync.c``'s, and
    :func:`repro.testing.unfold` — and executes an ``S_CHARGE`` /
    ``S_MANY`` / ``S_ACQ`` / ``S_REL`` step with the very code that
    executes a yielded ``Charge`` / ``ChargeMany`` / ``Acquire`` /
    ``Release`` (an effect is a one-step section), so the events, clock
    arithmetic, locking and recorder/trace stream are those of the
    effect-per-yield sequence, without the generator round-trips.

    Three producers: :func:`repro.core.ops.poll_receive`, whose idle
    wait loops inside the engine (``D_JUMP`` back to its head) instead
    of resuming a generator 88 times per receive; the free-list
    :func:`~repro.core.ops.check_receive`, one head of that loop whose
    walk (:class:`~repro.core.ops.PollWalk`) returns the count; and the
    free-list :func:`~repro.core.ops.message_receive`, one cached
    :class:`~repro.core.ops.RecvSection` per process and circuit whose
    ``S_CALL`` stages the C engine loop runs with the lock-section
    kernels while their memos hold (the real runtimes' drives call
    them).  On the simulator a section is worth it only where the
    loop runs its calls in C: a prototype with plain Python closures for
    the stages cut the receive's generator calls per ``sim_bcast16``
    repetition from 77,596 to 27,801 and the rate did not move, the
    closures doing the generator's work (29,511 closure calls took
    30-35 ms of a ~93 ms repetition); with the stages in C (19,388
    calls, 2.4 per receive: entry, result, and two per sleep) it moved
    ~1.5x (docs/performance.md).  The other primitives yield classic
    effects on every runtime.

    Conventions that keep a section byte-identical to the classic
    effects:

    * Ring circuits build no section: ``poll_receive`` over a set that
      includes one takes its per-check loop, and the ring check and
      receive are classic generators.  A probe-carrying recorder's stamps are stages
      of the receive section, which emit no effect.
    * Sections never sleep or wake: ``WaitOn`` and ``Wake`` have no
      step form, so fault injectors that filter wakes
      (:func:`repro.check.faults.drop_wake`) forward sections as is.  A
      receive that finds its queue empty bails with the lock held, and
      its generator yields the ``WaitOn`` itself.
    * Copy charges (``copy_bytes > 0``) are allowed: the engine opens
      and closes the bus-tracking copy phase at the same instants as
      the unfused charge.
    """

    steps: tuple


Effect = Acquire | Release | Charge | ChargeMany | WaitOn | Wake | FusedSection

#: What a primitive is: a generator of effects whose return value is the
#: primitive's result.
OpGen = Generator[Effect, None, object]


#: The effect each step opcode of a section stands for.
_STEP_EFFECTS = {S_CHARGE: Charge, S_MANY: ChargeMany, S_ACQ: Acquire,
                 S_REL: Release}


def unfold(gen: OpGen) -> OpGen:
    """``gen`` with every :class:`FusedSection` it yields run step by step:
    each step yielded as the effect it stands for, every ``S_CALL`` run
    in between (its ``D_JUMP`` / ``D_BAIL`` applied as the engine applies
    it), and the section's result sent into ``gen`` when its steps run
    out; an unknown opcode is refused.  The real runtimes' Python
    ``drive`` and :class:`repro.testing.DirectRunner` run sections this
    way, and a test can stop an op between any two of its steps."""
    value = None
    while True:
        try:
            effect = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if effect.__class__ is not FusedSection:
            value = yield effect
            continue
        steps, idx, value = effect.steps, 0, None
        while idx < len(steps):
            op, arg = steps[idx]
            idx += 1
            if op in _STEP_EFFECTS:
                yield _STEP_EFFECTS[op](arg)
            elif op != S_CALL:
                raise RuntimeError(f"bad fused step opcode {op!r}")
            elif (d := arg()) is not None:
                value = d[1]
                if d[0] != D_JUMP:  # D_BAIL: the section ends here
                    break
                steps, idx = d[2], 0


def _release_and_raise(locks: Iterable[int], exc: Exception) -> OpGen:
    """Release ``locks`` (outermost last) and raise ``exc``."""
    for lock in locks:
        yield Release(lock)
    raise exc
