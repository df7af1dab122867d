"""Typed error hierarchy for the MPF library.

The original MPF library (Malony, Reed & McGuire, ICPP 1987) reported
failures through integer return codes, as was idiomatic for 1987 C.  This
reproduction maps each failure class onto an exception type so callers can
discriminate programmatically.  Every exception derives from :class:`MPFError`
so ``except MPFError`` catches anything the library itself raises.

The distinction between *configuration* errors (pool exhaustion — the caller
under-provisioned ``init``) and *usage* errors (operating on circuits one is
not connected to, violating the receive-protocol restriction) mirrors the
paper's separation between ``init()``-time sizing and per-primitive semantics.
"""

from __future__ import annotations

__all__ = [
    "MPFError",
    "MPFConfigError",
    "MPFNameError",
    "UnknownLNVCError",
    "NotConnectedError",
    "DuplicateConnectionError",
    "ProtocolViolationError",
    "NoFreeLNVCError",
    "OutOfDescriptorsError",
    "OutOfMessageMemoryError",
    "BufferOverflowError",
    "RegionFormatError",
    "DeadlockSuspectedError",
    "LockOwnerDiedError",
]


class MPFError(Exception):
    """Base class for every error raised by the MPF library."""


class MPFConfigError(MPFError, ValueError):
    """An :class:`~repro.core.layout.MPFConfig` parameter is invalid.

    Raised at ``init`` time, before any shared state is touched.
    """


class MPFNameError(MPFError, ValueError):
    """An LNVC name is empty, too long, or not encodable.

    LNVC names are the rendezvous mechanism of the conversation model
    (paper §1): participants join a conversation by its mutually selected
    unique name, so malformed names are rejected eagerly.
    """


class UnknownLNVCError(MPFError, LookupError):
    """The given LNVC identifier does not name a live circuit.

    LNVCs exist only while at least one process is connected (paper §3.2);
    an identifier obtained before the circuit was deleted is stale.
    """


class NotConnectedError(MPFError, LookupError):
    """The calling process holds no matching connection on the LNVC.

    ``message_send`` requires an open send connection and
    ``message_receive``/``check_receive`` an open receive connection, per
    the paper's primitive descriptions (§2).
    """


class DuplicateConnectionError(MPFError, ValueError):
    """The process already holds an identical connection on this LNVC."""


class ProtocolViolationError(MPFError, ValueError):
    """A receiving process tried to use both FCFS and BROADCAST.

    Paper §1, footnote 3: "The only restriction is that a receiving process
    of an LNVC cannot use both FCFS and BROADCAST protocols."
    """


class NoFreeLNVCError(MPFError, RuntimeError):
    """The LNVC table is full (``max_lnvcs`` circuits already live)."""


class OutOfDescriptorsError(MPFError, RuntimeError):
    """The send- or receive-descriptor pool is exhausted."""


class OutOfMessageMemoryError(MPFError, RuntimeError):
    """The message header or message block free list is exhausted.

    The paper sizes shared memory from the ``init()`` parameters and
    observes (Figure 6 discussion) that large resident message populations
    stress memory; this error is the hard edge of that same budget.
    """


class BufferOverflowError(MPFError, ValueError):
    """A received message is longer than the caller's declared buffer.

    In the C interface the caller passes ``receive_buffer``/``buffer_length``
    and MPF fills in the transferred length; a Python caller that passes
    ``max_len`` gets this error instead of silent truncation.
    """


class RegionFormatError(MPFError, RuntimeError):
    """The shared region does not contain a validly formatted MPF segment."""


class DeadlockSuspectedError(MPFError, TimeoutError):
    """A real runtime's workers did not finish within ``join_timeout``.

    Unlike the simulated engine, real runtimes cannot *prove* a deadlock
    (a thread may just be slow), so expiry of the join timeout raises
    this suspicion instead of returning a truncated result.  ``threads``
    maps each still-alive worker name to a dict with its last observed
    effect (``"blocked_on"``) and the lock ids it holds (``"held"``),
    giving the wait-for picture the paper's §3.2 lost-message discussion
    warns about.  Subclasses :class:`TimeoutError` so existing
    ``except TimeoutError`` callers keep working.
    """

    def __init__(self, msg: str, threads: dict | None = None) -> None:
        super().__init__(msg)
        #: per-thread dump: ``{name: {"blocked_on": ..., "held": [...]}}``
        self.threads = threads or {}



class LockOwnerDiedError(MPFError, RuntimeError):
    """A lock's word names an owner whose process is gone: a sleeper on
    the lock asks after the owner's pid each time its timed wait expires,
    and raises this (naming the lock, the rank and the pid) instead of
    hanging on a lock nobody will release."""
