"""Effect objects yielded by MPF primitives.

The paper's portability claim — "the only system dependent code involves
shared memory allocation and synchronization" — is realized here as an
*effect protocol*.  MPF primitives are written once, as generators that
mutate the shared region directly but **yield** every system-dependent
action as a small effect object.  Each runtime interprets the effects:

====================  ============================  =========================
effect                simulated machine              real runtimes
====================  ============================  =========================
:class:`Acquire`      queue on a simulated lock,    ``lock.acquire()``
                      advancing the virtual clock
:class:`Release`      hand the lock to the next     ``lock.release()``
                      waiter
:class:`Charge`       price the work and advance    ignored (time passes on
                      the clock                     its own)
:class:`WaitOn`       atomically release the lock,  ``condition.wait()``
                      sleep on a channel, reacquire
                      on wake
:class:`Wake`         wake every channel sleeper    ``condition.notify_all()``
====================  ============================  =========================

The effect classes are final: frozen, slotted dataclasses that nothing
subclasses.  Interpreters dispatch on the exact class, and anything else
a process yields is a ``yielded non-effect`` error.

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
    "S_NEXT",
    "D_BAIL",
    "D_JUMP",
]

# -- fused-section step opcodes and call directives -------------------------
#
# A FusedSection's ``steps`` are small ``(opcode, arg)`` tuples.  Plain
# ints (not an Enum) keep the simulator's per-step dispatch at a couple of
# machine comparisons — these run once per protocol step, millions of
# times per figure sweep.  The engine compares against the literal
# values; opcode 4 and directives 0-2 are unassigned.

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
#: ``(S_NEXT, None)`` — a section boundary inside one effect: where the
#: sections this one replaces had "section ends, the generator resumes,
#: the next section starts".  Free: the engine counts one event per
#: resumption of a timeline either way, so a section that loops
#: (:func:`repro.core.ops.poll_receive`) is event for event the
#: sequence of sections it replaces.
S_NEXT = 6

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


@dataclass(frozen=True, slots=True)
class Acquire:
    """Take exclusive ownership of lock ``lock_id`` (blocking)."""

    lock_id: int


@dataclass(frozen=True, slots=True)
class Release:
    """Give up ownership of lock ``lock_id``."""

    lock_id: int


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


@dataclass(frozen=True, slots=True)
class WaitOn:
    """Sleep on wait channel ``chan``; caller holds ``lock_id``.

    The runtime releases ``lock_id``, suspends the process until another
    process executes :class:`Wake` on the same channel, then reacquires
    ``lock_id`` before resuming the caller — exactly a condition variable
    built over the LNVC's lock.
    """

    chan: int
    lock_id: int


@dataclass(frozen=True, slots=True)
class Wake:
    """Wake every process sleeping on wait channel ``chan``.

    Wake-all (rather than wake-one) is deliberate: with several FCFS
    receivers parked on one circuit, all of them race for the message and
    exactly one wins — the same race the paper documents for
    ``check_receive`` (§2) and blames for the small-message throughput
    decline of Figure 4.
    """

    chan: int


@dataclass(frozen=True, slots=True)
class FusedSection:
    """A run of protocol steps retired as one effect (sim engine only).

    ``steps`` is a tuple of ``(opcode, arg)`` pairs (see the ``S_*``
    constants above): acquires, charges and releases interleaved with
    ``S_CALL`` closures holding the generator-body code that runs
    between the equivalent classic yields.  ``Engine.run`` executes an
    ``S_CHARGE`` / ``S_MANY`` / ``S_ACQ`` / ``S_REL`` step with the very
    code that executes a yielded ``Charge`` / ``ChargeMany`` /
    ``Acquire`` / ``Release`` (an effect is a one-step section), so the
    events, clock arithmetic and recorder/trace stream are those of the
    effect-per-yield sequence, without the generator round-trips.

    The one producer is :func:`repro.core.ops.poll_receive`, whose idle
    wait loops inside the engine (``S_NEXT``, ``D_JUMP``) instead of
    resuming a generator 88 times per receive.  The eight primitives
    themselves yield classic effects on every runtime: a section that
    runs once costs more host time to build and interpret than the
    generator resumes it saves (docs/performance.md).

    Conventions that keep fused and unfused runs byte-identical:

    * Only the sim engine sees this effect.  ``poll_receive`` consults
      ``view.fuse`` (set by :class:`~repro.runtime.sim.SimRuntime` and
      the model checker only) and runs its classic ``check_receive``
      loop on the real runtimes — and when ``MPF_FUSION=off``.
    * Sections never sleep or wake: ``WaitOn`` and ``Wake`` have no
      step form, so fault injectors that filter wakes
      (:func:`repro.check.faults.drop_wake`) forward sections as is.
    * Copy charges (``copy_bytes > 0``) are allowed: the engine opens
      and closes the bus-tracking copy phase at the same instants as
      the unfused charge.
    """

    steps: tuple


Effect = Acquire | Release | Charge | ChargeMany | WaitOn | Wake | FusedSection

#: What a primitive is: a generator of effects whose return value is the
#: primitive's result.
OpGen = Generator[Effect, None, object]


def _release_and_raise(locks: Iterable[int], exc: Exception) -> OpGen:
    """Release ``locks`` (outermost last) and raise ``exc``."""
    for lock in locks:
        yield Release(lock)
    raise exc
