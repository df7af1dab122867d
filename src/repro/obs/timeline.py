"""Windowed time-series telemetry: the run's metrics with a time axis.

Every earlier observability surface (Recorder histograms, causal
sojourns, Prometheus exposition) is a *post-hoc snapshot*: one aggregate
at end of run.  A :class:`Timeline` slices the run into fixed-width time
windows — simulated seconds on :class:`~repro.runtime.sim.SimRuntime`,
wall-clock seconds everywhere else — and each window holds, per series
key:

* **counters** (messages sent/received, bytes, lock acquisitions);
* **gauges** (queue depth, free-list level, backlog size, ring
  occupancy) folded as ``(n, sum, min, max)`` so merges stay exact;
* **quantile digests** — log₂-bucketed microsecond histograms that
  merge by bucket addition, so per-window latency quantiles survive
  rank-order child merges unchanged.

Each window is one :class:`~repro.obs.store.Store`, which defines the
three cell kinds and their folds.

Series keys are ``"<series>|<metric>"`` strings: ``circuit:<slot>``,
``lock:<name>``, ``pool`` (``live_blocks`` after each allocation,
``dry`` counting the pops that found a pool empty), ``ring:<slot>``,
and (after :meth:`tier_series` aggregation) ``tier:<name>``.
Slot-numbered circuit series are resolved to circuit names through
:attr:`names`, populated by the ``open_send``/``open_receive`` taps.

The timeline is a pure sink, exactly like the causal tracer: the
:class:`~repro.obs.recorder.Recorder` that carries it hears the message
sites and the lock / channel hooks and hands every tap its timestamp —
plain Python calls, never a new effect, so a timeline-enabled simulation
retires the byte-identical schedule (pinned by
tests/obs/test_timeline.py).
A timeline crosses a thread join or a fork inside its recorder's
snapshot and is folded, window by window, by :meth:`Recorder.merge
<repro.obs.recorder.Recorder.merge>`.
"""

from __future__ import annotations

from collections import defaultdict

from .store import Gauge, Store, log2_us_bucket

__all__ = ["Timeline"]


class Timeline:
    """Fixed-width windowed counters, gauges and quantile digests.

    ``width`` is the window width in the run's timebase (seconds);
    every recording method takes the time ``t`` of its sample in that
    timebase (simulated time on sim, wall seconds since run start
    elsewhere) from the carrying recorder.
    """

    def __init__(self, width: float = 0.05) -> None:
        if width <= 0:
            raise ValueError("window width must be positive")
        self.width = float(width)
        #: Timebase tag, mirroring ``Recorder.clock``: ``"sim"`` or
        #: ``"wall"``; set by :meth:`Recorder.attach`.
        self.clock_kind = "wall"
        #: window index -> that window's :class:`~repro.obs.store.Store`,
        #: created on first use.
        self.windows: dict[int, Store] = defaultdict(Store)
        #: slot -> circuit name, filled by the open_send/open_receive taps.
        self.names: dict[int, str] = {}
        self._ck: dict[int, tuple] = {}

    # -- windows --------------------------------------------------------------

    def window(self, t: float) -> Store:
        """The (created-on-demand) window containing time ``t``."""
        return self.windows[int(t // self.width)]

    def window_indices(self) -> list[int]:
        return sorted(self.windows)

    # -- primitive recording --------------------------------------------------

    def count(self, t: float, key: str, n: float = 1.0) -> None:
        self.window(t).counters[key] += n

    def gauge(self, t: float, key: str, value: float) -> None:
        self.window(t).gauge(key, value)

    def observe(self, t: float, key: str, seconds: float) -> None:
        self.window(t).digests[key].add_bucket(log2_us_bucket(seconds))

    # -- taps (called by the carrying Recorder) -------------------------------

    def _circuit_keys(self, slot: int) -> tuple:
        keys = self._ck.get(slot)
        if keys is None:
            s = f"circuit:{slot}"
            keys = self._ck[slot] = (
                s + "|sent", s + "|bytes_sent", s + "|depth",
                s + "|recv", s + "|bytes_recv", s + "|chan_wait",
                s + "|e2e",
            )
        return keys

    def name_slot(self, slot: int, name: str) -> None:
        """Remember the circuit name occupying ``slot`` (first name wins)."""
        self.names.setdefault(slot, name)

    def tap_send(self, t: float, slot: int, nbytes: int, depth: int) -> None:
        """A message was linked at the FIFO tail at queue depth ``depth``."""
        k = self._circuit_keys(slot)
        win = self.window(t)
        win.counters[k[0]] += 1
        win.counters[k[1]] += nbytes
        win.gauge(k[2], depth)

    def tap_recv(self, t: float, slot: int, nbytes: int) -> None:
        """A receive completed (payload drained, pin dropped)."""
        k = self._circuit_keys(slot)
        c = self.window(t).counters
        c[k[3]] += 1
        c[k[4]] += nbytes

    def tap_depth(self, t: float, slot: int, depth: int) -> None:
        """Queue-depth sample after a reap/retire drained messages."""
        self.window(t).gauge(self._circuit_keys(slot)[2], depth)

    def tap_pool(self, t: float, live_blocks: int) -> None:
        """Free-list pressure sample: blocks live after an allocation."""
        self.window(t).gauge("pool|live_blocks", live_blocks)

    def tap_ring(self, t: float, slot: int, occupancy: int) -> None:
        """Ring-transport occupancy after a commit or consume."""
        self.window(t).gauge(f"ring:{slot}|occupancy", occupancy)

    def tap_lock(self, t: float, name: str, wait_bucket: int,
                 contended: bool) -> None:
        """Lock ``name`` (:func:`~repro.obs.recorder.lock_name`) was
        granted after a wait of :func:`~repro.obs.store.log2_us_bucket`
        ``wait_bucket`` — bucketed once, by the recorder."""
        series = "lock:" + name
        win = self.window(t)
        win.counters[series + "|acquires"] += 1
        if contended:
            win.counters[series + "|contended"] += 1
        win.digests[series + "|wait"].add_bucket(wait_bucket)

    def tap_chan(self, t: float, chan: int, wait_seconds: float) -> None:
        k = self._circuit_keys(chan)[5]
        win = self.window(t)
        win.counters[k] += 1.0
        win.digests[k].add_bucket(log2_us_bucket(wait_seconds))

    def tap_e2e(self, t: float, slot: int, seconds: float) -> None:
        """End-to-end delivery latency (fed by the causal e2e sketch)."""
        self.observe(t, self._circuit_keys(slot)[6], seconds)

    # -- folds ----------------------------------------------------------------

    def totals(self) -> Store:
        """Whole-run fold of every window into one store."""
        total = Store()
        for win in self.windows.values():
            total.fold(win)
        return total

    def series_label(self, series: str) -> str:
        """Resolve ``circuit:<slot>`` to ``circuit:<name>`` when known."""
        if series.startswith("circuit:"):
            try:
                slot = int(series[8:])
            except ValueError:
                return series
            name = self.names.get(slot)
            if name is not None:
                return f"circuit:{name}"
        return series

    def tier_series(self, tier_of) -> dict[str, dict[int, Gauge]]:
        """Per-tier queue-depth matrix: ``{tier: {window: Gauge}}``.

        ``tier_of(name)`` maps a circuit name to its tier (or ``None`` to
        drop it).  Unnamed slots are dropped.  Circuits in the same tier
        have their per-window gauge cells folded, so the tier's mean is
        the average sampled depth across its circuits.
        """
        out: dict[str, dict[int, Gauge]] = {}
        for idx, win in self.windows.items():
            for k, cell in win.gauges.items():
                if not k.startswith("circuit:") or not k.endswith("|depth"):
                    continue
                slot = int(k[8:k.index("|")])
                name = self.names.get(slot)
                if name is None:
                    continue
                tier = tier_of(name)
                if tier is None:
                    continue
                rows = out.setdefault(tier, {})
                agg = rows.get(idx)
                rows[idx] = cell if agg is None else agg.fold(cell)
        return out

    def fold(self, other: "Timeline") -> None:
        """Fold another timeline of the same width in, window by window
        (:meth:`Recorder.merge <repro.obs.recorder.Recorder.merge>` has
        checked the width).  Slot names: first name wins."""
        for slot, name in other.names.items():
            self.names.setdefault(slot, name)
        for idx, win in other.windows.items():
            self.windows[idx].fold(win)

    # -- export ----------------------------------------------------------------

    def to_doc(self) -> dict:
        """JSON-safe document fragment (windows sorted by index)."""
        return {
            "width": self.width,
            "clock": self.clock_kind,
            "names": {str(s): n for s, n in sorted(self.names.items())},
            "windows": [
                {
                    "index": idx,
                    "start": idx * self.width,
                    "counters": {k: win.counters[k]
                                 for k in sorted(win.counters)},
                    "gauges": {k: cell._asdict()
                               for k, cell in sorted(win.gauges.items())},
                    "digests": {
                        k: {str(b): n for b, n in sorted(dig.counts.items())}
                        for k, dig in sorted(win.digests.items())
                    },
                }
                for idx, win in sorted(self.windows.items())
            ],
        }
