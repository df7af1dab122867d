"""In-memory span recording for the traced run.

Spans are recorded from the benchmark's own files, around calls into
each layer: the traced run rebinds public names (``format_region``,
``Engine.run``, ``collect_report``, ...) to wrappers made here and puts
them back afterwards.  A span is ``[name, start_ns, end_ns, parent,
rep_id]`` where ``parent`` is the index of the enclosing span (``-1`` at
the top) and ``rep_id`` ties the spans of one repetition together.
Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_ns = time.perf_counter_ns


class Trace:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.rep_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _ns(), 0, parent, self.rep_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def add(self, name: str, start_ns: int, end_ns: int, parent: int) -> None:
        """Record a span that was timed elsewhere (a forked worker)."""
        self.spans.append([name, start_ns, end_ns, parent, self.rep_id])

    # -- rebinding public names ----------------------------------------------

    def patch(self, owner, attr: str, name: str) -> None:
        """Rebind ``owner.attr`` to a wrapper recording span ``name``."""
        self.rebind(owner, attr, lambda fn: self.wrap(name, fn))

    def rebind(self, owner, attr: str, make) -> None:
        """Rebind ``owner.attr`` to ``make(original)`` until unpatched."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def durations(self, name: str) -> list[int]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total_ns(self, name: str) -> int:
        return sum(self.durations(name))

    def self_ns(self, name: str) -> int:
        """Span time minus what its direct child spans cover.

        Meant for spans recorded by one thread of control, whose
        children never overlap, so what they cover is their sum.  (The
        two forked ``worker.*`` bodies under ``runtime.procs.run`` do
        overlap; ``fork_join_ms`` takes their union itself.)
        """
        covered: dict[int, int] = {}
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] = covered.get(s[3], 0) + s[2] - s[1]
        return sum(s[2] - s[1] - covered.get(i, 0)
                   for i, s in enumerate(self.spans) if s[0] == name)
