"""Execution tracing for simulated runs (compatibility home of ``Tracer``).

The effect-recording core now lives in :mod:`repro.obs.events` as
:class:`~repro.obs.events.EffectLog`, where it serves the runtime-wide
observability layer; :class:`Tracer` is a behaviour-preserving subclass
kept at its historical import path.  A :class:`Tracer` plugs into
:class:`~repro.runtime.sim.SimRuntime` (or the engine directly) and
records every dispatched effect with its simulated timestamp:

* :meth:`Tracer.summary` — per-process counts and charged-time split by
  work label (``send-copy``, ``recv-copy``, ``send-link``, ...), the
  decomposition behind the Figure 3 analysis;
* :meth:`Tracer.lock_profile` — per-lock acquisition counts, the
  contention evidence behind Figure 4;
* :meth:`Tracer.timeline` — a plain-text event timeline for debugging
  protocol interleavings.

Tracing is observational: it never changes simulated timing.  For
cross-runtime measurement (threads, procs, posix) use
:class:`repro.obs.Recorder`, which does not depend on effect ``repr``
strings and therefore also works where no engine exists.
"""

from __future__ import annotations

from ..obs.events import EffectLog, TraceEvent

__all__ = ["TraceEvent", "Tracer"]


class Tracer(EffectLog):
    """Collects engine trace callbacks; pass as ``SimRuntime(trace=...)``.

    Identical to :class:`~repro.obs.events.EffectLog` (which it
    inherits everything from); retained so existing imports keep
    working.
    """
